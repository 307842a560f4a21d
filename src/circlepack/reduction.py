"""Feasible-region identification by constraint propagation over cell bitmaps.

For each circle a conservative region of admissible center cells is built
(for disc containers: an annulus combining containment with the reach needed
to leave room for the largest circle), optionally narrowed by symmetry
restrictions for the two largest circles.  Arc consistency then repeatedly
deletes cells that cannot be paired with any surviving cell of every other
circle under the farthest-corner separation test (the relaxed predicate, so
deletions never remove a truly feasible center).

The support test is exact integer arithmetic.  A pair of circles with
threshold ``min_sq`` forbids the cell offsets ``(x, y)`` for which
``grid.forbidden`` holds in relaxed mode, ``(|x|+1)^2 + (|y|+1)^2 < min_sq``.
That is the set of lattice points in a convex region K of the plane,
symmetric about the origin, because ``(|x|+1)^2 + (|y|+1)^2`` is a convex
function.  So a cell ``p`` has no support from circle ``c`` exactly when
every vertex of the convex hull of ``c``'s surviving cells lies at a
forbidden offset from ``p``: then ``p`` minus the whole hull lies in K, and
with it every surviving cell of ``c``.  The vertices are themselves
surviving cells, so the converse holds too.

Regions are held in the packed layout of ``grid`` (a Python int per
circle, cell (i, j) at bit i*S + j), where the forbidden offsets of a pair
threshold are one packed pattern.  The pattern shifted onto a vertex is the
set of cells at a forbidden offset from it, so the unsupported cells of a
region are the region ANDed with the pattern shifted onto each hull vertex
of ``c``.  That intersection does not depend on the region it is ANDed
with, so ``propagate`` builds it once per region of ``c`` and threshold,
in the frame of ``c``'s highest cell: there the pattern moved onto a cell
``d`` bits lower is the pattern shifted down by ``d``, an int no wider than
the pattern.  Three cheaper facts settle most pairs before any hull:

* Extreme cells from the bits.  Four cells of ``c`` are always hull
  vertices: the lowest and the highest set bit (the first cell of its first
  row, the last cell of its last row) and the first cell of its leftmost
  and of its rightmost column.  The rows ORed together by halving give the
  union of ``c``'s columns, whose lowest and highest bits are those two
  columns, and the first cell of a column is one AND with a mask of column
  0 shifted there.  No row is scanned; ``grid._row_extents`` runs only when
  a hull is built.
* Corners far apart.  If two cells u, v of ``c`` both lay at a forbidden
  offset from one cell p, then u - v = (p - v) - (p - u) would lie in
  K - K = 2K, that is ``(|di|+2)^2 + (|dj|+2)^2 < 4*min_sq`` for
  (di, dj) = u - v.  So when two of the four extreme cells, not necessarily
  distinct, break that inequality, every cell has support from ``c`` and
  the pair costs no pattern at all (u = v covers a threshold that forbids
  nothing, ``min_sq <= 2``).
* Only what the corners leave.  The four extreme cells are ANDed first, and
  when that leaves nothing of the region the pair is done.

The fixpoint itself skips work that cannot remove a cell:

* Worklist.  Sweep 1 checks every pair.  After a sweep every surviving cell
  of ``k`` has support from the region ``c`` had at its start, so a later
  sweep checks the pair (k, c) only when ``c``'s region changed in the
  sweep before; otherwise the check would remove nothing (the AC-3
  worklist, Mackworth 1977).
* Equal-circle classes.  Circles with equal radii and equal start regions
  form a class, and one region is propagated per class.  Each member starts
  from the same region and draws support from the same regions at the same
  thresholds: the other classes at the threshold of their radius, and,
  when the class has two or more members, its own region at the threshold
  of two equal circles.  A supporter that repeats removes nothing more, so
  by induction over the sweeps the members' regions stay equal, and the
  class is checked against itself once.

If any circle's region becomes empty, no continuous packing exists at the
probed container size — an exact lower-bound certificate used both for
bound initialization and for short-circuiting the bisection driver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .geometry import Circle, CircleContainer, Instance, common_denominator
from .grid import (
    Grid,
    _ceil_square,
    _layout,
    _pack,
    _pattern,
    _row_extents,
    _steps,
    _unpack,
    candidates,
    grid_for_instance,
    pair_thresholds,
)

__all__ = [
    "RegionMap",
    "annulus_region",
    "build_region_map",
    "propagate",
    "region_feasible",
    "write_region_pgm",
]


@dataclass(frozen=True)
class RegionMap:
    """Per-circle bitmaps of surviving center cells at one container size.

    ``sweeps`` is the number of propagation sweeps that produced the map,
    the last of which changed nothing; 0 for a map that was not propagated.
    The masks of ``build_region_map`` and ``propagate`` are read-only, and
    circles may share one array.
    """

    grid: Grid
    size: float
    masks: Mapping[int, np.ndarray]
    sweeps: int = 0

    def cell_count(self, circle_id: int) -> int:
        return int(self.masks[circle_id].sum())


def annulus_region(
    circle: Circle,
    size: float,
    reference_radius: float,
    grid: Grid,
    steps: dict | None = None,
) -> np.ndarray:
    """Cells that intersect the admissible annulus for one circle in a disc.

    The annulus is max(0, 2*reference_radius + r - size) <= |p| <= size - r:
    the outer bound is containment; the inner bound says the center must
    leave enough of the container for the reference circle to fit somewhere.
    A cell survives when its nearest point is inside the outer disc, the
    relaxed containment test of ``grid.candidates``, and its farthest point
    is outside the inner disc — except that an annulus whose inner radius
    exceeds its outer radius is empty outright (a straddling cell would
    pass both one-sided tests despite containing no annulus point).  The
    inner threshold is exact, in integers on one common denominator of the
    radius, size and reference radius.  ``grid`` must be built for
    ``size``; ``steps`` is the step-array memo of ``grid.candidates``,
    passed by callers that build many annuli on one grid.
    """
    if grid.kind != "circle":
        raise ValueError("annulus regions apply to disc containers only")
    den, (r, size_q, ref) = common_denominator([circle.radius, size, reference_radius])
    if size_q * grid.size_exact.denominator != grid.size_exact.numerator * den:
        raise ValueError("grid was built for a different container size")
    inner = max(0, 2 * ref + r - size_q)
    if inner > size_q - r:
        return np.zeros((grid.cells_x, grid.cells_y), dtype=bool)

    # With delta = d/e, a length x/den is x*e / (den*d) cell steps.
    d, e = grid.delta_exact.as_integer_ratio()
    inner_limit = _ceil_square(inner * e, den * d)
    contained = candidates(grid, circle, CircleContainer(), "relaxed", steps)
    return contained & (_steps(grid, "relaxed", True, steps) >= inner_limit)


def _symmetry_masks(grid: Grid, n: int) -> dict[int, np.ndarray]:
    """Conservative cell-level symmetry restrictions for circles 1 and 2.

    Disc: circle 1 may be confined to the first quadrant (rotations by 90
    degrees and reflection across y=x map packings to packings and preserve
    the lattice), circle 2 to the half-plane y >= x.  Cells are kept when
    they intersect the closed restricted set.  Strip: circle 1 confined to
    x >= L/2 and y >= W/2 (both axis reflections are strip symmetries);
    there is no valid second-circle restriction for strips.
    """
    out: dict[int, np.ndarray] = {}
    nx, ny = grid.cells_x, grid.cells_y
    ii = np.arange(nx)[:, None]
    jj = np.arange(ny)[None, :]
    if grid.kind == "circle":
        out[1] = (ii >= grid.theta - 1) & (jj >= grid.theta - 1)
        if n >= 2:
            out[2] = jj >= ii - 1
    else:
        # cell [i, i+1]*delta intersects x >= L/2  <=>  i >= ceil(L/(2 delta)) - 1
        lo_i = math.ceil(grid.size_exact / (2 * grid.delta_exact)) - 1
        lo_j = math.ceil(grid.width_exact / (2 * grid.delta_exact)) - 1
        out[1] = (ii >= lo_i) & (jj >= lo_j)
    return out


def build_region_map(
    instance: Instance,
    size: float,
    grid: Grid,
    symmetry: bool = True,
) -> RegionMap:
    """Initial per-circle regions: annuli (disc) or containment (strip).

    Each distinct (radius, reference radius) region is built once, and the
    circles that share it share one array.  Every mask is read-only, so no
    circle's region can be changed through another's.
    """
    masks: dict[int, np.ndarray] = {}
    built: dict[tuple[float, float], np.ndarray] = {}
    radii = instance.radii
    steps: dict = {}
    for circle in instance.circles:
        if instance.is_strip or instance.n == 1:
            ref = 0.0
        elif circle.id == 1:
            ref = radii[1]
        else:
            ref = radii[0]
        mask = built.get((circle.radius, ref))
        if mask is None:
            if instance.is_strip:
                mask = candidates(grid, circle, instance.container, "relaxed")
            else:
                mask = annulus_region(circle, size, ref, grid, steps)
            mask.setflags(write=False)
            built[circle.radius, ref] = mask
        masks[circle.id] = mask
    if symmetry:
        for cid, sym in _symmetry_masks(grid, instance.n).items():
            masks[cid] = masks[cid] & sym
            masks[cid].setflags(write=False)
    return RegionMap(grid=grid, size=float(size), masks=masks)


def _hull(extents: Sequence[tuple[int, int, int]]) -> list[tuple[int, int]]:
    """Vertices of the convex hull of a nonempty cell set, counter-clockwise,
    from its row extents (``grid._row_extents``: row, first and last column).

    Only the first and last cell of each row can be a vertex, so the
    monotone chain runs over those: from the first cell of the first row
    along the rows' first cells to the last cell of the last row, and back
    along their last cells.  Collinear points are dropped; a single cell or
    a straight run gives one or two vertices.
    """
    first_i, first_lo, first_hi = extents[0]
    last_i, last_lo, last_hi = extents[-1]
    if len(extents) == 1 and first_lo == first_hi:
        return [(first_i, first_lo)]
    forth = [(i, lo) for i, lo, _ in extents]
    if last_hi != last_lo:
        forth.append((last_i, last_hi))
    back = [(i, hi) for i, _, hi in reversed(extents)]
    if first_hi != first_lo:
        back.append((first_i, first_lo))

    def chain(seq):
        out: list[tuple[int, int]] = []
        for p in seq:
            while len(out) >= 2:
                (ax, ay), (bx, by) = out[-2], out[-1]
                if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) > 0:
                    break
                out.pop()
            out.append(p)
        return out

    return chain(forth)[:-1] + chain(back)[:-1]


def _extreme_cells(bits: int, stride: int, column: int) -> tuple[int, ...]:
    """Bits of four hull vertices of a nonempty packed cell set, highest
    first: the last cell of its last row, the first cell of its first row,
    and the first cell of its leftmost and of its rightmost column; without
    repeats.  ``column`` holds column 0 of every row (module docstring)."""
    low, high = (bits & -bits).bit_length() - 1, bits.bit_length() - 1
    union = bits >> low // stride * stride
    rows = high // stride - low // stride + 1
    while rows > 1:
        rows = (rows + 1) // 2
        shift = rows * stride
        union = union & (1 << shift) - 1 | union >> shift
    left, right = (union & -union).bit_length() - 1, union.bit_length() - 1
    at_left, at_right = (bits >> left) & column, (bits >> right) & column
    return tuple(
        dict.fromkeys((
            high,
            low,
            (at_left & -at_left).bit_length() - 1 + left,
            (at_right & -at_right).bit_length() - 1 + right,
        ))
    )


def _spread(cells: Sequence[int], stride: int) -> int:
    """The largest (|di|+2)^2 + (|dj|+2)^2 over the offsets (di, dj)
    between two packed ``cells``, not necessarily distinct: a threshold
    ``min_sq`` with ``4*min_sq`` at most this leaves no cell unsupported
    (module docstring)."""
    coords = [divmod(v, stride) for v in cells]
    spread = 0
    for k, (ai, aj) in enumerate(coords):
        for bi, bj in coords[k:]:
            value = (abs(ai - bi) + 2) ** 2 + (abs(aj - bj) + 2) ** 2
            if value > spread:
                spread = value
    return spread


def _forbidden_from_all(pattern: int, top: int, cells: Sequence[int], start: int) -> int:
    """``start`` ANDed with ``pattern`` moved onto each of the packed
    ``cells``, all in the frame of the cell at bit ``top``, which is at
    least as high as every one of them (module docstring)."""
    for v in cells:
        start &= pattern >> top - v
        if not start:
            break
    return start


def _classes(radii: Sequence[float], masks: Sequence[np.ndarray]) -> list[list[int]]:
    """The positions of circles with equal radii and equal masks, grouped:
    each class in increasing order, the classes by their first member."""
    classes: list[list[int]] = []
    for k, mask in enumerate(masks):
        for members in classes:
            rep = members[0]
            if radii[rep] == radii[k] and (
                masks[rep] is mask or np.array_equal(masks[rep], mask)
            ):
                members.append(k)
                break
        else:
            classes.append([k])
    return classes


def _fixpoint(
    region_map: RegionMap, radii: Sequence[float]
) -> tuple[list[list[int]], list[int], int, int] | None:
    """The fixpoint of ``propagate`` on packed regions, or None when a
    region empties: (classes, the packed region of each class, its stride,
    sweeps), where ``classes`` groups the positions, in circle-id order, of
    the circles that share a region."""
    ids = sorted(region_map.masks)
    if len(ids) != len(radii):
        raise ValueError("radii count does not match region map")
    masks = [region_map.masks[cid] for cid in ids]
    if any(not m.any() for m in masks):
        return None

    min_sq = pair_thresholds(radii, region_map.grid.delta_exact)
    classes = _classes(radii, masks)
    reps = [members[0] for members in classes]
    # a class of two or more checks itself at the threshold of two members;
    # a lone circle needs no support from itself: 0 forbids nothing
    table = [
        [min_sq[a][b if a != b else members[-1]] for b in reps]
        for a, members in zip(reps, classes)
    ]
    nx, ny = masks[0].shape
    reach, stride = _layout((t for row in table for t in row), "relaxed", ny)
    centre = reach * (stride + 1)  # the bit of offset (0, 0) in a pattern
    column = _pack(np.ones((nx, 1), dtype=bool), stride)
    patterns: dict[int, int] = {}
    bits = [_pack(masks[k], stride) for k in reps]
    corners = [_extreme_cells(b, stride, column) for b in bits]
    spreads = [_spread(v, stride) for v in corners]
    changed = range(len(reps))
    for sweeps in count(1):
        # per class c of the worklist and threshold t: the cells at a
        # forbidden offset from every corner of c's region, then from every
        # hull vertex, in the frame of the highest corner
        near: dict[tuple[int, int], int] = {}
        full: dict[tuple[int, int], int] = {}
        hulls: dict[int, list[int]] = {}
        new_bits = []
        for k, row in enumerate(table):
            keep = bits[k]
            for c in changed:
                t = row[c]
                if spreads[c] >= 4 * t:
                    continue  # two corners too far apart to share a forbidden cell
                pattern = patterns.get(t)
                if pattern is None:
                    pattern = patterns[t] = _pattern(t, "relaxed", reach, stride)
                top = corners[c][0]
                common = near.get((c, t))
                if common is None:
                    common = near[c, t] = _forbidden_from_all(
                        pattern, top, corners[c][1:], pattern
                    )
                if not common:
                    continue
                base = top - centre  # the bit of the cell at frame bit 0
                hit = (keep >> base if base >= 0 else keep << -base) & common
                if not hit:
                    continue
                if (c, t) not in full:
                    if c not in hulls:
                        extents = _row_extents(bits[c], stride)
                        hulls[c] = [i * stride + j for i, j in _hull(extents)]
                    full[c, t] = _forbidden_from_all(pattern, top, hulls[c], common)
                hit &= full[c, t]
                if hit:
                    keep ^= hit << base if base >= 0 else hit >> -base
                    if not keep:
                        return None
            new_bits.append(keep)
        changed = [c for c, (old, new) in enumerate(zip(bits, new_bits)) if old != new]
        bits = new_bits
        if not changed:
            return classes, bits, stride, sweeps
        for c in changed:
            corners[c] = _extreme_cells(bits[c], stride, column)
            spreads[c] = _spread(corners[c], stride)


def propagate(region_map: RegionMap, radii: Sequence[float]) -> RegionMap | None:
    """Arc-consistency fixpoint over the region bitmaps; None means EMPTY.

    A cell of circle k survives a sweep when, for every other circle c,
    some current cell of c is far enough (farthest-corner test).  Sweeps
    update all circles from the same input (double buffering) and stop at
    the fixpoint; ``sweeps`` counts them, the last one changing nothing.
    The input masks are never written, and the returned masks are
    read-only: circles of one class share one array.

    The support test and the fixpoint are sound as argued in the module
    docstring, each in one line here:

    * a cell is unsupported by c exactly when every hull vertex of c lies
      at a forbidden offset from it; four of the vertices, the extreme
      cells, are read off c's packed bits, and two of them farther apart
      than the forbidden set's diameter show that every cell is supported;
    * worklist: from sweep 2 on, (k, c) is checked only when c changed in
      the sweep before, because every cell of k already has support from
      c's unchanged region;
    * classes: circles with equal radii and start regions start equal and
      have the same supporters at the same thresholds, so they stay equal
      and one region per class, checked against itself, stands for all.

    So the masks and ``sweeps`` are those of checking all n(n-1) pairs in
    every sweep.  Propagation always terminates: cells are only ever
    removed, and a sweep that neither empties a region nor reaches the
    fixpoint removes at least one cell, so there are at most
    (total cells + 1) sweeps.
    """
    found = _fixpoint(region_map, radii)
    if found is None:
        return None
    classes, bits, stride, sweeps = found
    ids = sorted(region_map.masks)
    nx, ny = region_map.masks[ids[0]].shape
    masks: dict[int, np.ndarray] = {}
    for members, packed in zip(classes, bits):
        mask = _unpack(packed, nx, stride)[:, :ny].astype(bool)
        mask.setflags(write=False)
        masks.update((ids[k], mask) for k in members)
    return RegionMap(
        grid=region_map.grid,
        size=region_map.size,
        masks={cid: masks[cid] for cid in ids},
        sweeps=sweeps,
    )


def region_feasible(instance: Instance, size: float, delta_r: float) -> bool:
    """False certifies that no packing of the instance fits at ``size``.

    Builds the cell regions at working resolution ``delta_r`` and runs the
    propagation fixpoint; emptiness is a proof of continuous infeasibility,
    while True is NOT a feasibility proof (the relaxed tests are one-sided).
    A circle too large for the container has an empty containment set, so
    the fixpoint refutes it without a separate test.
    """
    if not size > 0:
        return False
    grid = grid_for_instance(instance, size, delta_r)
    base = build_region_map(instance, size, grid, symmetry=True)
    return _fixpoint(base, instance.radii) is not None


def write_region_pgm(region_map: RegionMap, directory: str | Path, prefix: str = "region") -> list[Path]:
    """Dump each circle's bitmap as a binary PGM image for visual inspection.

    Row order follows descending j (so +y points up in the image); surviving
    cells are white on black.  Returns the written paths.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for cid in sorted(region_map.masks.keys()):
        mask = region_map.masks[cid]
        img = (mask.T[::-1, :] * 255).astype(np.uint8)
        path = directory / f"{prefix}-circle{cid:02d}.pgm"
        header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
        path.write_bytes(header + img.tobytes())
        written.append(path)
    return written
