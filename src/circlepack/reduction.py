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
That is the set of lattice points in a convex region of the plane, because
``(|x|+1)^2 + (|y|+1)^2`` is a convex function.  So a cell ``p`` has no
support from circle ``c`` exactly when every vertex of the convex hull of
``c``'s surviving cells lies at a forbidden offset from ``p``: then ``p``
minus the whole hull lies in the convex region, and with it every surviving
cell of ``c``.  The vertices are themselves surviving cells, so the
converse holds too.

Regions are held in the packed layout of ``grid`` (a Python int per
circle, cell (i, j) at bit i*S + j), where the forbidden offsets of a pair
threshold are one packed pattern.  The pattern shifted onto a vertex is the
set of cells at a forbidden offset from it, so the unsupported cells of a
region are the region ANDed with the pattern shifted onto each hull vertex
of ``c``.  Four cells of ``c`` are always hull vertices and cost no hull:
the first cell of its first row, the last cell of its last row, and a
leftmost and a rightmost cell.  They are ANDed first, and when that leaves
nothing, which it does unless ``c``'s region is small, the pair is done.

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

from .geometry import Circle, Instance, common_denominator, exact
from .grid import (
    Grid,
    _ceil_square,
    _nearest_steps,
    _pack,
    _packed_patterns,
    _row_extents,
    _shifted,
    _unpack,
    grid_for_instance,
    pair_thresholds,
    relaxed_candidates,
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
    """

    grid: Grid
    size: float
    masks: Mapping[int, np.ndarray]
    sweeps: int = 0

    def cell_count(self, circle_id: int) -> int:
        return int(self.masks[circle_id].sum())

    def is_empty(self) -> bool:
        return any(not m.any() for m in self.masks.values())


def _farthest_steps(cell_index: np.ndarray) -> np.ndarray:
    return np.maximum(np.abs(cell_index), np.abs(cell_index + 1))


def _annulus_distances(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Squared distances, in cell steps, from the origin to the nearest and
    the farthest point of each cell of a disc grid."""
    axis = np.arange(grid.cells_x) - grid.theta
    near = _nearest_steps(axis)
    far = _farthest_steps(axis)
    return near[:, None] ** 2 + near[None, :] ** 2, far[:, None] ** 2 + far[None, :] ** 2


def annulus_region(
    circle: Circle,
    size: float,
    reference_radius: float,
    grid: Grid,
    distances: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Cells that intersect the admissible annulus for one circle in a disc.

    The annulus is max(0, 2*reference_radius + r - size) <= |p| <= size - r:
    the outer bound is containment; the inner bound says the center must
    leave enough of the container for the reference circle to fit somewhere.
    A cell survives when its nearest point is inside the outer disc and its
    farthest point is outside the inner disc — except that an annulus whose
    inner radius exceeds its outer radius is empty outright (a straddling
    cell would pass both one-sided tests despite containing no annulus
    point).  The thresholds are exact, in integers on one common denominator
    of the radius, size and reference radius.  ``distances`` is
    ``_annulus_distances(grid)``, passed by callers that build many annuli
    on one grid.
    """
    if grid.kind != "circle":
        raise ValueError("annulus regions apply to disc containers only")
    den, (r, size_q, ref) = common_denominator([circle.radius, size, reference_radius])
    outer = size_q - r
    inner = max(0, 2 * ref + r - size_q)
    if outer < 0 or inner > outer:
        return np.zeros((grid.cells_x, grid.cells_y), dtype=bool)

    # With delta = d/e, a length x/den is x*e / (den*d) cell steps.
    d, e = grid.delta_exact.as_integer_ratio()
    outer_limit = (outer * e) ** 2 // (den * d) ** 2
    inner_limit = _ceil_square(inner * e, den * d)
    near2, far2 = _annulus_distances(grid) if distances is None else distances
    return (near2 <= outer_limit) & (far2 >= inner_limit)


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
    ii = np.arange(nx)[:, None] * np.ones((1, ny), dtype=int)
    jj = np.ones((nx, 1), dtype=int) * np.arange(ny)[None, :]
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
    """Initial per-circle regions: annuli (disc) or containment (strip)."""
    masks: dict[int, np.ndarray] = {}
    radii = instance.radii
    distances = None if instance.is_strip else _annulus_distances(grid)
    for circle in instance.circles:
        if instance.is_strip:
            mask = relaxed_candidates(grid, circle, instance.container).mask
        else:
            if instance.n == 1:
                ref = 0.0
            elif circle.id == 1:
                ref = radii[1]
            else:
                ref = radii[0]
            mask = annulus_region(circle, size, ref, grid, distances)
        masks[circle.id] = mask
    if symmetry:
        for cid, sym in _symmetry_masks(grid, instance.n).items():
            masks[cid] = masks[cid] & sym
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


def _extreme_cells(extents: Sequence[tuple[int, int, int]]) -> tuple[tuple[int, int], ...]:
    """Hull vertices of a nonempty cell set read off its row extents: the
    first cell of the first row, the last cell of the last row, the first
    leftmost and the first rightmost cell; without repeats."""
    first_i, first_lo, _ = extents[0]
    last_i, _, last_hi = extents[-1]
    firsts = [lo for _, lo, _ in extents]
    lasts = [hi for _, _, hi in extents]
    left, right = min(firsts), max(lasts)
    cells = [
        (first_i, first_lo),
        (last_i, last_hi),
        (extents[firsts.index(left)][0], left),
        (extents[lasts.index(right)][0], right),
    ]
    return tuple(dict.fromkeys(cells))


def propagate(region_map: RegionMap, radii: Sequence[float]) -> RegionMap | None:
    """Arc-consistency fixpoint over the region bitmaps; None means EMPTY.

    A cell of circle k survives a sweep when, for every other circle c,
    some current cell of c is far enough (farthest-corner test).  The
    forbidden offsets of a pair are the lattice points of a convex set, so a
    cell is unsupported exactly when every convex-hull vertex of c's cells
    lies at a forbidden offset from it.  Each region is packed once into an
    int (``grid._pack``) and each pair threshold's forbidden square into a
    pattern, so the unsupported cells of k are k's int ANDed with the
    pattern shifted onto each vertex: the four extreme cells of c first,
    which settle the pair when nothing is left, then the rest of the hull.
    One scan of the rows of each changed int gives its extreme cells and
    hull input.  Sweeps update all circles from the same input (double
    buffering) and stop at the fixpoint; the masks are unpacked once at the
    end, and the input masks are never written.

    Propagation always terminates: cells are only ever removed, and a sweep
    that neither empties a region nor reaches the fixpoint removes at least
    one cell, so there are at most (total cells + 1) sweeps.
    """
    grid = region_map.grid
    ids = sorted(region_map.masks.keys())
    if len(ids) != len(radii):
        raise ValueError("radii count does not match region map")
    if any(not region_map.masks[cid].any() for cid in ids):
        return None

    n = len(ids)
    min_sq = pair_thresholds(radii, grid.delta_exact)
    nx, ny = region_map.masks[ids[0]].shape
    reach, stride, patterns = _packed_patterns(
        {t for row in min_sq for t in row}, "relaxed", ny
    )
    bits = [_pack(region_map.masks[cid], stride) for cid in ids]
    extents = [_row_extents(b, stride) for b in bits]
    extremes = [_extreme_cells(e) for e in extents]
    hulls: list[list[tuple[int, int]] | None] = [None] * n
    for sweeps in count(1):
        new_bits = list(bits)
        for k in range(n):
            keep = bits[k]
            for c in range(n):
                pattern = patterns[min_sq[k][c]]
                if not pattern:
                    continue  # no offset is forbidden (c == k too): every cell supports
                hit = keep
                for vi, vj in extremes[c]:
                    hit &= _shifted(pattern, vi, vj, reach, stride)
                    if not hit:
                        break
                if not hit:
                    continue
                if hulls[c] is None:
                    hulls[c] = _hull(extents[c])
                for vertex in hulls[c]:
                    if vertex not in extremes[c]:
                        hit &= _shifted(pattern, *vertex, reach, stride)
                        if not hit:
                            break
                if hit:
                    keep ^= hit
                    if not keep:
                        return None
            new_bits[k] = keep
        changed = [c for c in range(n) if new_bits[c] != bits[c]]
        bits = new_bits
        if not changed:
            break
        for c in changed:
            extents[c] = _row_extents(bits[c], stride)
            extremes[c] = _extreme_cells(extents[c])
            hulls[c] = None

    masks = {
        cid: _unpack(bits[pos], nx, stride)[:, :ny].astype(bool)
        for pos, cid in enumerate(ids)
    }
    return RegionMap(grid=grid, size=region_map.size, masks=masks, sweeps=sweeps)


def region_feasible(instance: Instance, size: float, delta_r: float) -> bool:
    """False certifies that no packing of the instance fits at ``size``.

    Builds the cell regions at working resolution ``delta_r`` and runs the
    propagation; emptiness is a proof of continuous infeasibility, while
    True is NOT a feasibility proof (the relaxed tests are one-sided).
    """
    if not size > 0:
        return False
    if not instance.is_strip and exact(instance.max_radius) > exact(size):
        return False
    if instance.is_strip and 2 * exact(instance.max_radius) > exact(size):
        return False
    grid = grid_for_instance(instance, size, delta_r)
    base = build_region_map(instance, size, grid, symmetry=True)
    if base.is_empty():
        return False
    return propagate(base, instance.radii) is not None


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
