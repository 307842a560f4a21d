"""Square-cell discretization of containers, candidate sets, separation tests.

The container is covered by a uniform square grid of cell side ``delta``.
For a disc container of radius ``size``, ``delta`` is chosen so that
``theta * delta == size`` for an integer ``theta``; lattice points are indexed
by (i, j) with 0 <= i, j <= 2*theta and carry coordinates
((i - theta) * delta, (j - theta) * delta).  For a strip the grid spans
[0, length] x [0, width] with the same spacing on both axes and independent
index counts.

Every geometric predicate on the lattice is reduced to an integer comparison
against a threshold computed once in exact rational arithmetic from the
(float) radii and spacing, so candidate membership and separation tests are
free of rounding error.  The pairwise separation test is ``forbidden``, one
inequality for both families of tests:

* restricted — centers sit exactly on lattice points; any assignment that
  passes is a genuine packing (upper-bound certificates);
* relaxed — centers live anywhere inside a cell, separation is measured
  between farthest cell corners and containment by nearest cell point; if no
  assignment passes, no continuous packing exists (lower-bound certificates).

``candidates`` is the one containment test, for points and cells alike.
It returns a bool array indexed [i, j], of the lattice points
(restricted) or cells (relaxed) that hold the circle's centre.  On a disc
it compares the squared steps from the centre to each point or
to each cell's nearest point (``_steps``) with one exact limit, and the
annulus regions of ``reduction`` read the same step arrays.

``pair_thresholds`` gives the threshold of every pair of circles, computing
the exact one once per distinct pair of radii.  ``_forbidden_widths`` is
the one inverse of ``forbidden``: the first separated offset of each row.
``forbidden_reach``, ``separation_frontier`` (the form the LP export needs)
and the band tables of the search's staged farthest-pair test are read off
it.

Region propagation and the search engine both hold cell sets as bit-packed
Python ints (``_pack`` / ``_unpack``).  An (nx, ny) mask is stored row-major,
cell (i, j) at bit i*S + j, with the stride S = max(ny, m) + m + 1 of
``_stride``, where m is the largest forbidden reach (``forbidden_reach``) of
the thresholds in use.  Each threshold's forbidden offsets in [-m, m]^2 are
packed once with the same stride (``_pattern``), offset (di, dj) at bit
(di + m)*S + (dj + m); the max(., m) term makes S >= 2m + 1, so a pattern
row fits one stride even when the square is wider than the grid.
``_layout`` gives m and S for a set of thresholds, and ``_packed_patterns``
also their patterns.  Shifted by (i - m)*S + (j - m), the pattern puts
offset (di, dj) at bit (i + di)*S + (j + dj), and one AND finds every cell
of a set that lies at a forbidden offset from (i, j).

The shift is sound because bits ny..S-1 of each row, the guard columns,
are never set in a cell set, and S >= ny + m.  The column j + dj lies in
[-m, ny + m): inside [0, ny) the bit is the cell itself; from ny up it is a
guard bit of row i + di; below 0 it is guard bit S + j + dj >= S - m > ny
of row i + di - 1, or lies below bit 0.  A row i + di < 0 puts the offset
below bit 0, where the shift drops it; a row at or past nx puts it in the
guard of row nx - 1 or above it, where no bit is set.  So on the cells of
the grid a shifted pattern is exactly the set of cells at a forbidden offset
from (i, j), and ANDs of shifted patterns with a cell set are exact however
many are chained.  A column-major copy (cell (i, j) at bit j*T + i) is the
same construction on the transposed grid; the forbidden square is symmetric,
so its pattern is the same square packed with stride T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Iterable, Literal, Sequence

import numpy as np

from .geometry import Circle, CircleContainer, ContainerKind, StripContainer

Mode = Literal["restricted", "relaxed"]

__all__ = [
    "Grid",
    "build_grid",
    "build_strip_grid",
    "candidates",
    "forbidden",
    "forbidden_reach",
    "grid_for_instance",
    "min_sq_steps",
    "pair_thresholds",
    "separation_frontier",
]

# Relative slack when rounding size/delta_target to an integer cell count:
# exact float division often lands a hair above an integer (e.g. 1.8/0.3);
# without the snap the cell count would jump by one and the derived spacing
# would shrink needlessly.
_SNAP = Fraction(1, 10**9)


def _snap_ceil(q: Fraction) -> int:
    return max(1, math.ceil(q - _SNAP * max(1, abs(q))))


def _snap_floor(q: Fraction) -> int:
    return math.floor(q + _SNAP * max(1, abs(q)))


@dataclass(frozen=True)
class Grid:
    """Uniform square lattice over a disc or strip container.

    ``size`` is the disc radius or strip length; ``theta`` the number of
    cells from the container center to its boundary along one axis (disc)
    or along the length axis (strip).  ``delta_exact`` relates to them
    exactly: theta * delta_exact == size_exact.
    """

    kind: str
    size: float
    delta: float
    theta: int
    size_exact: Fraction
    delta_exact: Fraction
    width: float | None = None
    width_exact: Fraction | None = None
    theta_y: int | None = None

    @property
    def points_x(self) -> int:
        """Lattice point count along x."""
        return 2 * self.theta + 1 if self.kind == "circle" else self.theta + 1

    @property
    def points_y(self) -> int:
        if self.kind == "circle":
            return 2 * self.theta + 1
        return _snap_floor(self.width_exact / self.delta_exact) + 1

    @property
    def cells_x(self) -> int:
        return 2 * self.theta if self.kind == "circle" else self.theta

    @property
    def cells_y(self) -> int:
        if self.kind == "circle":
            return 2 * self.theta
        return self.theta_y

    @property
    def max_index(self) -> int:
        return max(self.points_x, self.points_y) - 1

    @property
    def bit_width(self) -> int:
        """Bits needed to represent any lattice index (0 .. max_index)."""
        return max(1, self.max_index.bit_length())

    def _offset(self) -> tuple[int, int]:
        """Lattice index of the coordinate origin (disc is center-indexed)."""
        if self.kind == "circle":
            return (self.theta, self.theta)
        return (0, 0)

    def point_exact(self, i: int, j: int) -> tuple[Fraction, Fraction]:
        """Exact coordinates of lattice point (i, j)."""
        ox, oy = self._offset()
        return ((i - ox) * self.delta_exact, (j - oy) * self.delta_exact)

    def point(self, i: int, j: int) -> tuple[float, float]:
        x, y = self.point_exact(i, j)
        return (float(x), float(y))

    def cell_bounds_exact(
        self, i: int, j: int
    ) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """Exact (x0, y0, x1, y1) extent of cell (i, j)."""
        x0, y0 = self.point_exact(i, j)
        return (x0, y0, x0 + self.delta_exact, y0 + self.delta_exact)


def _spacing(
    extent: float, delta_target: float, min_radius: float
) -> tuple[int, Fraction]:
    """Cell count ``theta`` and exact spacing ``extent / theta`` for a
    spacing of at most ``delta_target``.

    The spacing is shrunk so an integer number of cells spans the extent
    exactly (up to a 1e-9 relative snap when the division already lands on
    an integer).  Requires the cell diagonal to stay below the smallest
    radius, otherwise a relaxed cell could not even hold one center
    candidate distinction and the discretization would be meaningless.
    """
    if not extent > 0:
        raise ValueError(f"container size must be > 0, got {extent}")
    if not delta_target > 0:
        raise ValueError(f"delta_target must be > 0, got {delta_target}")
    if 2 * Fraction(delta_target) ** 2 >= Fraction(min_radius) ** 2:
        raise ValueError(
            "cell diagonal %.17g*sqrt(2) must be below the smallest radius %.17g"
            % (delta_target, min_radius)
        )
    extent_exact = Fraction(extent)
    theta = _snap_ceil(extent_exact / Fraction(delta_target))
    delta_exact = extent_exact / theta
    while 2 * delta_exact**2 >= Fraction(min_radius) ** 2:
        theta += 1
        delta_exact = extent_exact / theta
    return theta, delta_exact


def build_grid(size: float, delta_target: float, min_radius: float) -> Grid:
    """Discretize a disc of radius ``size`` with spacing at most
    ``delta_target``; the spacing divides the radius (``_spacing``)."""
    theta, delta_exact = _spacing(size, delta_target, min_radius)
    return Grid(
        kind="circle",
        size=float(size),
        delta=float(delta_exact),
        theta=theta,
        size_exact=Fraction(size),
        delta_exact=delta_exact,
    )


def build_strip_grid(
    length: float, width: float, delta_target: float, min_radius: float
) -> Grid:
    """Discretize the strip [0, length] x [0, width]; spacing divides the length.

    The width is generally not an exact multiple of the spacing: lattice
    points cover only indices with j*delta <= width while relaxed cells
    extend one row beyond so the union of cells covers the whole strip
    (required for lower-bound validity).
    """
    if not width > 0:
        raise ValueError(f"strip width must be > 0, got {width}")
    theta, delta_exact = _spacing(length, delta_target, min_radius)
    width_exact = Fraction(width)
    return Grid(
        kind="strip",
        size=float(length),
        delta=float(delta_exact),
        theta=theta,
        size_exact=Fraction(length),
        delta_exact=delta_exact,
        width=float(width),
        width_exact=width_exact,
        theta_y=_snap_ceil(width_exact / delta_exact),
    )


def grid_for_instance(instance, size: float, delta_target: float) -> Grid:
    """Build the right grid kind for an instance at a trial container size."""
    if instance.is_strip:
        return build_strip_grid(
            size, instance.container.width, delta_target, instance.min_radius
        )
    return build_grid(size, delta_target, instance.min_radius)


def _check_container(grid: Grid, container: ContainerKind) -> None:
    if isinstance(container, CircleContainer) and grid.kind != "circle":
        raise ValueError("grid was built for a strip but container is a disc")
    if isinstance(container, StripContainer):
        if grid.kind != "strip":
            raise ValueError("grid was built for a disc but container is a strip")
        if Fraction(container.width) != grid.width_exact:
            raise ValueError("grid width does not match container width")


def _steps(grid: Grid, mode: Mode, far: bool, memo: dict | None) -> np.ndarray:
    """Squared distance, in lattice steps, from the centre of a disc grid to
    the nearest (``far`` False) or farthest point of each lattice point
    (restricted) or cell (relaxed).

    Per axis, a point at k = index - theta is |k| steps from the centre; a
    cell [k, k + 1] is max(k, 0, -(k + 1)) steps away at its nearest point
    and max(|k|, |k + 1|) at its farthest.  Both are the ends of [k, k + s],
    s = 0 for points and 1 for cells.  ``memo``, one dict per grid, keeps
    each array for the next call."""
    key = (mode, far)
    if memo is not None and key in memo:
        return memo[key]
    s = 0 if mode == "restricted" else 1
    lo = np.arange(2 * grid.theta + 1 - s) - grid.theta
    hi = lo + s
    axis = np.maximum(abs(lo), abs(hi)) if far else np.maximum(np.maximum(lo, 0), -hi)
    found = axis[:, None] ** 2 + axis[None, :] ** 2
    if memo is not None:
        memo[key] = found
    return found


def candidates(
    grid: Grid,
    circle: Circle,
    container: ContainerKind,
    mode: Mode,
    steps: dict | None = None,
) -> np.ndarray:
    """Lattice points (restricted) or cells (relaxed) that hold a centre at
    which the circle lies inside the container, as a bool array of shape
    (points_x, points_y) or (cells_x, cells_y), indexed [i, j].

    Disc: the point, or the cell's nearest point to the centre, lies within
    size - r, closed (a centre at exact tangency is a valid packing, so
    excluding it would break the relaxation): in squared steps,
    nearest^2 <= floor(((size - r) / delta)^2), exactly.  ``steps`` is a
    memo of the step arrays (``_steps``) for callers that test many circles
    on one grid.  Strip: the point or cell meets the inset rectangle
    [r, L - r] x [r, W - r].  Along an axis of extent L that is indices
    ceil(r/delta) - s .. floor((L - r)/delta), s = 0 for points and 1 for
    cells [i, i + 1]*delta, when r <= L - r; otherwise no centre fits.  An
    oversized circle yields an empty set.  Relaxed sets are supersets of
    the restricted ones by construction.
    """
    _check_container(grid, container)
    if mode == "restricted":
        shape = (grid.points_x, grid.points_y)
    else:
        shape = (grid.cells_x, grid.cells_y)
    if grid.kind == "circle":
        # with size = a/b, r = p/q and delta = d/e, (size - r) / delta is
        # room / (b*q*d) exactly
        a, b = grid.size_exact.as_integer_ratio()
        p, q = circle.radius.as_integer_ratio()
        d, e = grid.delta_exact.as_integer_ratio()
        room = (a * q - p * b) * e
        if room < 0:
            return np.zeros(shape, dtype=bool)
        limit = room * room // (b * q * d) ** 2
        return _steps(grid, mode, False, steps) <= limit

    r = Fraction(circle.radius)
    mask = np.zeros(shape, dtype=bool)
    if 2 * r <= grid.size_exact and 2 * r <= grid.width_exact:
        lo = math.ceil(r / grid.delta_exact) - (mode == "relaxed")
        hi_x = math.floor((grid.size_exact - r) / grid.delta_exact)
        hi_y = math.floor((grid.width_exact - r) / grid.delta_exact)
        mask[lo : hi_x + 1, lo : hi_y + 1] = True
    return mask


def _ceil_square(num: int, den: int) -> int:
    """ceil((num / den)^2) for den > 0, in integer arithmetic."""
    return -(-num * num // (den * den))


def min_sq_steps(r_sum: float | Fraction, delta: float | Fraction) -> int:
    """Exact pair threshold ceil((r_sum / delta)^2), in squared lattice steps."""
    return _ceil_square(*(Fraction(r_sum) / Fraction(delta)).as_integer_ratio())


def pair_thresholds(radii: Sequence[float], delta: Fraction) -> list[list[int]]:
    """``min_sq_steps(Fraction(r_a) + Fraction(r_b), delta)`` of every pair of
    positions a != b in ``radii``, as a symmetric table with 0 on the
    diagonal.

    Each distinct pair of radii is computed once, keyed on the radius
    values themselves (hashing two floats is cheap, where building and
    hashing their exact sum is not), and in plain integers: with
    r = p/q and delta = d/e, (r_a + r_b) / delta = (p_a q_b + p_b q_a) e /
    (q_a q_b d) exactly.  ``r.as_integer_ratio()`` gives p/q of a float,
    int or Fraction exactly, without building a Fraction.
    """
    n = len(radii)
    table = [[0] * n for _ in range(n)]
    ratios = [r.as_integer_ratio() for r in radii]
    d, e = delta.numerator, delta.denominator
    memo: dict[tuple, int] = {}
    for a in range(n):
        p_a, q_a = ratios[a]
        for b in range(a + 1, n):
            key = (radii[a], radii[b]) if radii[a] <= radii[b] else (radii[b], radii[a])
            threshold = memo.get(key)
            if threshold is None:
                p_b, q_b = ratios[b]
                threshold = _ceil_square((p_a * q_b + p_b * q_a) * e, q_a * q_b * d)
                memo[key] = threshold
            table[a][b] = table[b][a] = threshold
    return table


def forbidden(di, dj, min_sq: int, mode: Mode):
    """True where lattice offset (di, dj) violates a pair's threshold.

    Restricted mode compares point offsets, di^2 + dj^2 < min_sq; relaxed
    mode compares the farthest corners of two cells,
    (|di|+1)^2 + (|dj|+1)^2 < min_sq.  ``di`` and ``dj`` may be ints or
    integer numpy arrays (elementwise result).
    """
    a, b = abs(di), abs(dj)
    if mode == "relaxed":
        a, b = a + 1, b + 1
    return a * a + b * b < min_sq


def _forbidden_widths(min_sq: int, r: int, c: int, size: int) -> list[int]:
    """Entry k, for k = 0..size, is the smallest d >= 0 with
    (d + c)^2 + (k + r)^2 >= min_sq: the one inverse of ``forbidden``.

    With r = c = s, the mode's corner offset (0 restricted, 1 relaxed),
    the offsets (k, d) with d >= 0 that ``forbidden`` holds for are those
    with d below entry k.  ``forbidden_reach`` is entry 0 minus 1, and
    ``separation_frontier`` the entries where the table drops.  With r = 0
    and c = s it gives the bands of the staged farthest-pair test
    (``feasibility`` module docstring).  The entries never grow with k,
    and past k + r = isqrt(min_sq - 1), where (k + r)^2 >= min_sq, they
    are 0."""
    top = min(size, math.isqrt(min_sq - 1) - r) if min_sq > r * r else -1
    widths = [
        max(math.isqrt(min_sq - (k + r) ** 2 - 1) + 1 - c, 0) for k in range(top + 1)
    ]
    return widths + [0] * (size - top)


def forbidden_reach(min_sq: int, mode: Mode) -> int:
    """Largest |offset| along one axis of any forbidden offset, or -1 when
    ``forbidden`` holds for no offset at all.

    ``forbidden`` only grows as either |offset| shrinks, so the offset
    (x, 0) attains the reach: it is one less than the first entry of
    ``_forbidden_widths``."""
    s = 0 if mode == "restricted" else 1
    return _forbidden_widths(min_sq, s, s, 0)[0] - 1


# rows that _row_extents cuts off a packed int at a time
_ROWS_PER_BLOCK = 8


def _stride(cells: int, reach: int) -> int:
    """Row stride of the packed layout for rows of ``cells`` cells and
    forbidden patterns of reach ``reach`` (module docstring)."""
    return max(cells, reach) + reach + 1


def _pack(mask: np.ndarray, stride: int) -> int:
    """Bitset of a 2-D bool mask with cell (i, j) at bit i*stride + j;
    ``stride`` is at least the mask's second dimension."""
    padded = np.zeros((mask.shape[0], stride), dtype=bool)
    padded[:, : mask.shape[1]] = mask
    return int.from_bytes(np.packbits(padded, bitorder="little").tobytes(), "little")


def _unpack(bits: int, rows: int, stride: int) -> np.ndarray:
    """The first ``rows`` rows of a bitset packed by ``_pack``: a 0/1
    uint8 array of shape (rows, stride), guard columns included.  No bit
    may be set at or above ``rows * stride``."""
    count = rows * stride
    raw = np.frombuffer(bits.to_bytes((count + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=count, bitorder="little").reshape(rows, stride)


def _pattern(min_sq: int, mode: Mode, reach: int, stride: int) -> int:
    """The forbidden offsets of threshold ``min_sq`` in [-reach, reach]^2,
    packed with ``stride``: offset (di, dj) at bit (di + reach)*stride +
    (dj + reach).  ``reach`` is at least the threshold's own reach.

    No offset past the own reach m (``forbidden_reach``) is forbidden, so
    only the square [-m, m]^2 is built.  Packed with the same stride it
    puts (di, dj) at bit (di + m)*stride + (dj + m), and a shift by
    (reach - m)*(stride + 1) moves every bit to its place in [-reach,
    reach]^2: the same int.  The rows of the small square fit the stride,
    since 2m + 1 <= 2*reach + 1 <= stride."""
    own = forbidden_reach(min_sq, mode)
    if own < 0:
        return 0
    offsets = np.arange(-own, own + 1)
    square = forbidden(offsets[:, None], offsets[None, :], min_sq, mode)
    return _pack(square, stride) << (reach - own) * (stride + 1)


def _layout(thresholds: Iterable[int], mode: Mode, cells: int) -> tuple[int, int]:
    """(reach, stride) of the packed layout for rows of ``cells`` cells:
    the largest forbidden reach of ``thresholds`` (0 when there is none)
    and its row stride."""
    reach = max([0, *(forbidden_reach(t, mode) for t in thresholds)])
    return reach, _stride(cells, reach)


def _packed_patterns(
    thresholds: Collection[int], mode: Mode, cells: int
) -> tuple[int, int, dict[int, int]]:
    """(reach, stride, patterns) of the packed layout (``_layout``) with
    each threshold's pattern, which is 0 for a threshold that forbids no
    offset."""
    reach, stride = _layout(thresholds, mode, cells)
    return reach, stride, {t: _pattern(t, mode, reach, stride) for t in thresholds}


def _row_extents(bits: int, stride: int) -> list[tuple[int, int, int]]:
    """(i, first, last) for each row i of a packed cell set that holds a
    cell, in increasing i: the columns of the row's first and last cell.

    One pass over the rows, read from the int's bits; the rows give the
    set's bounding box and the input of a convex hull.  Rows are cut off
    the int eight at a time, so each long shift drops eight rows.
    """
    extents = []
    if not bits:
        return extents
    i = ((bits & -bits).bit_length() - 1) // stride
    bits >>= i * stride
    full = (1 << stride) - 1
    block = (1 << _ROWS_PER_BLOCK * stride) - 1
    while bits:
        rows, row_index = bits & block, i
        while rows:
            row = rows & full
            if row:
                extents.append(
                    (row_index, (row & -row).bit_length() - 1, row.bit_length() - 1)
                )
            rows >>= stride
            row_index += 1
        bits >>= _ROWS_PER_BLOCK * stride
        i += _ROWS_PER_BLOCK
    return extents


def separation_frontier(min_sq: int, mode: Mode) -> tuple[tuple[int, int], ...]:
    """The Pareto-minimal offsets (u1, u2) >= 0 at which ``forbidden``
    fails for threshold ``min_sq``, in increasing u1.

    An offset (di, dj) is separated, ``forbidden`` False, iff it dominates a
    member: |di| >= u1 and |dj| >= u2.  Entry u1 of ``_forbidden_widths``
    is the smallest separated u2 in column u1 and never grows with u1, so
    the members are the columns where it drops, from column 0 to the
    first where it is 0, at one past the reach.  Only the LP export needs
    the frontier form; the solvers test ``forbidden`` directly.
    """
    s = 0 if mode == "restricted" else 1
    widths = _forbidden_widths(min_sq, s, s, forbidden_reach(min_sq, mode) + 1)
    return tuple(
        (u1, u2) for u1, u2 in enumerate(widths) if not u1 or u2 < widths[u1 - 1]
    )
