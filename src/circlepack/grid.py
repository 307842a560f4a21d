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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Literal

import numpy as np

from .geometry import Circle, CircleContainer, ContainerKind, StripContainer, exact

Mode = Literal["restricted", "relaxed"]

__all__ = [
    "Grid",
    "CandidateSet",
    "SeparationFrontier",
    "bounding_box",
    "build_grid",
    "build_strip_grid",
    "forbidden",
    "forbidden_reach",
    "grid_for_instance",
    "min_sq_steps",
    "restricted_candidates",
    "relaxed_candidates",
    "separation_frontier",
    "sep_holds",
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


def build_grid(size: float, delta_target: float, min_radius: float) -> Grid:
    """Discretize a disc of radius ``size`` with spacing at most ``delta_target``.

    The spacing is shrunk so an integer number of cells spans the radius
    exactly (up to a 1e-9 relative snap when the division already lands on
    an integer).  Requires the cell diagonal to stay below the smallest
    radius, otherwise a relaxed cell could not even hold one center
    candidate distinction and the discretization would be meaningless.
    """
    if not size > 0:
        raise ValueError(f"container size must be > 0, got {size}")
    if not delta_target > 0:
        raise ValueError(f"delta_target must be > 0, got {delta_target}")
    if 2 * exact(delta_target) ** 2 >= exact(min_radius) ** 2:
        raise ValueError(
            "cell diagonal %.17g*sqrt(2) must be below the smallest radius %.17g"
            % (delta_target, min_radius)
        )
    size_exact = exact(size)
    theta = _snap_ceil(size_exact / exact(delta_target))
    delta_exact = size_exact / theta
    while 2 * delta_exact**2 >= exact(min_radius) ** 2:
        theta += 1
        delta_exact = size_exact / theta
    return Grid(
        kind="circle",
        size=float(size),
        delta=float(delta_exact),
        theta=theta,
        size_exact=size_exact,
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
    if not length > 0:
        raise ValueError(f"strip length must be > 0, got {length}")
    if not width > 0:
        raise ValueError(f"strip width must be > 0, got {width}")
    if not delta_target > 0:
        raise ValueError(f"delta_target must be > 0, got {delta_target}")
    if 2 * exact(delta_target) ** 2 >= exact(min_radius) ** 2:
        raise ValueError(
            "cell diagonal %.17g*sqrt(2) must be below the smallest radius %.17g"
            % (delta_target, min_radius)
        )
    length_exact = exact(length)
    width_exact = exact(width)
    theta = _snap_ceil(length_exact / exact(delta_target))
    delta_exact = length_exact / theta
    while 2 * delta_exact**2 >= exact(min_radius) ** 2:
        theta += 1
        delta_exact = length_exact / theta
    theta_y = _snap_ceil(width_exact / delta_exact)
    return Grid(
        kind="strip",
        size=float(length),
        delta=float(delta_exact),
        theta=theta,
        size_exact=length_exact,
        delta_exact=delta_exact,
        width=float(width),
        width_exact=width_exact,
        theta_y=theta_y,
    )


def grid_for_instance(instance, size: float, delta_target: float) -> Grid:
    """Build the right grid kind for an instance at a trial container size."""
    if instance.is_strip:
        return build_strip_grid(
            size, instance.container.width, delta_target, instance.min_radius
        )
    return build_grid(size, delta_target, instance.min_radius)


@dataclass(frozen=True)
class CandidateSet:
    """Bitmap of admissible lattice points (restricted) or cells (relaxed)."""

    circle_id: int
    mode: Mode
    mask: np.ndarray  # bool, shape (nx, ny), indexed [i, j]

    @property
    def count(self) -> int:
        return int(self.mask.sum())

    def indices(self) -> Iterable[tuple[int, int]]:
        for i, j in zip(*np.nonzero(self.mask)):
            yield (int(i), int(j))


def _check_container(grid: Grid, container: ContainerKind) -> None:
    if isinstance(container, CircleContainer) and grid.kind != "circle":
        raise ValueError("grid was built for a strip but container is a disc")
    if isinstance(container, StripContainer):
        if grid.kind != "strip":
            raise ValueError("grid was built for a disc but container is a strip")
        if exact(container.width) != grid.width_exact:
            raise ValueError("grid width does not match container width")


def restricted_candidates(
    grid: Grid, circle: Circle, container: ContainerKind
) -> CandidateSet:
    """Lattice points on which the circle fits entirely inside the container.

    Disc: (i - theta)^2 + (j - theta)^2 <= floor(((size - r) / delta)^2),
    computed exactly.  Strip: the inset rectangle [r, L - r] x [r, W - r]
    intersected with the lattice.  An oversized circle yields an empty set.
    """
    _check_container(grid, container)
    r = exact(circle.radius)
    if grid.kind == "circle":
        shape = (grid.points_x, grid.points_y)
        if r > grid.size_exact:
            return CandidateSet(circle.id, "restricted", np.zeros(shape, dtype=bool))
        reach = (grid.size_exact - r) / grid.delta_exact
        limit = math.floor(reach * reach)
        axis = np.arange(shape[0]) - grid.theta
        dist2 = axis[:, None] ** 2 + axis[None, :] ** 2
        return CandidateSet(circle.id, "restricted", dist2 <= limit)

    shape = (grid.points_x, grid.points_y)
    mask = np.zeros(shape, dtype=bool)
    lo_x = math.ceil(r / grid.delta_exact)
    hi_x = math.floor((grid.size_exact - r) / grid.delta_exact)
    lo_y = math.ceil(r / grid.delta_exact)
    hi_y = math.floor((grid.width_exact - r) / grid.delta_exact)
    if lo_x <= hi_x and lo_y <= hi_y:
        mask[
            max(0, lo_x) : min(shape[0] - 1, hi_x) + 1,
            max(0, lo_y) : min(shape[1] - 1, hi_y) + 1,
        ] = True
    return CandidateSet(circle.id, "restricted", mask)


def bounding_box(mask: np.ndarray) -> tuple[int, int, int, int] | None:
    """(imin, imax, jmin, jmax) of a mask's True cells, or None when empty."""
    # boolean axis reductions instead of nonzero, which materializes index
    # arrays.  Off the search path: region propagation calls it per changed
    # mask, while the search engine reads its boxes from bit lengths
    rows = mask.any(axis=1)
    imin = int(rows.argmax())
    if not rows[imin]:
        return None
    cols = mask.any(axis=0)
    imax = int(rows.size - 1 - rows[::-1].argmax())
    jmin = int(cols.argmax())
    jmax = int(cols.size - 1 - cols[::-1].argmax())
    return imin, imax, jmin, jmax


def _nearest_steps(cell_index: np.ndarray) -> np.ndarray:
    """Distance (in whole cells) from the origin to cell [a, a+1] per axis."""
    return np.maximum(np.maximum(cell_index, 0), -(cell_index + 1))


def relaxed_candidates(
    grid: Grid, circle: Circle, container: ContainerKind
) -> CandidateSet:
    """Cells containing at least one admissible center for the circle.

    Disc: the cell's closest point to the origin must lie within size - r
    (closed inequality: a center on the cell boundary at exact tangency is
    still a valid packing, so excluding it would break the relaxation).
    Strip: the cell must intersect the inset rectangle.  Supersets of the
    restricted sets by construction.
    """
    _check_container(grid, container)
    r = exact(circle.radius)
    if grid.kind == "circle":
        shape = (grid.cells_x, grid.cells_y)
        if r > grid.size_exact:
            return CandidateSet(circle.id, "relaxed", np.zeros(shape, dtype=bool))
        reach = (grid.size_exact - r) / grid.delta_exact
        limit = math.floor(reach * reach)
        axis = _nearest_steps(np.arange(shape[0]) - grid.theta)
        near2 = axis[:, None] ** 2 + axis[None, :] ** 2
        return CandidateSet(circle.id, "relaxed", near2 <= limit)

    shape = (grid.cells_x, grid.cells_y)
    mask = np.zeros(shape, dtype=bool)
    # cell [i, i+1]*delta intersects [r, L-r]  <=>  ceil(r/delta)-1 <= i <= floor((L-r)/delta)
    lo_x = math.ceil(r / grid.delta_exact) - 1
    hi_x = math.floor((grid.size_exact - r) / grid.delta_exact)
    lo_y = math.ceil(r / grid.delta_exact) - 1
    hi_y = math.floor((grid.width_exact - r) / grid.delta_exact)
    if 2 * r <= grid.size_exact and 2 * r <= grid.width_exact:
        mask[
            max(0, lo_x) : min(shape[0] - 1, hi_x) + 1,
            max(0, lo_y) : min(shape[1] - 1, hi_y) + 1,
        ] = True
    return CandidateSet(circle.id, "relaxed", mask)


@dataclass(frozen=True)
class SeparationFrontier:
    """Dominance-minimal integer offsets certifying pairwise non-overlap.

    A pair of centers with lattice offset (di, dj) is separated iff some
    frontier member (u1, u2) has |di| >= u1 and |dj| >= u2, that is iff
    ``forbidden(di, dj, min_sq_steps, mode)`` is False.  Only the LP export
    needs the frontier form; the solvers test ``forbidden`` directly.
    """

    pairs: tuple[tuple[int, int], ...]
    mode: Mode
    min_sq_steps: int


def _ceil_isqrt(value: int) -> int:
    """Smallest integer u with u*u >= value (value >= 0)."""
    if value <= 0:
        return 0
    root = math.isqrt(value)
    return root if root * root == value else root + 1


def min_sq_steps(r_sum: float | Fraction, delta: float | Fraction) -> int:
    """Exact pair threshold ceil((r_sum / delta)^2), in squared lattice steps."""
    ratio = exact(r_sum) / exact(delta)
    return math.ceil(ratio * ratio)


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


def forbidden_reach(min_sq: int, mode: Mode) -> int:
    """Largest |offset| along one axis of any forbidden offset, or -1 when
    ``forbidden`` holds for no offset at all.

    The other axis contributes at least ``s^2`` (s = 0 restricted, 1
    relaxed), so a forbidden offset has (|x| + s)^2 <= min_sq - 1 - s^2,
    and the offset (x, 0) attains the bound.
    """
    s = 0 if mode == "restricted" else 1
    top = min_sq - 1 - s * s
    return math.isqrt(top) - s if top >= s * s else -1


def separation_frontier(
    r_sum: float, delta: float, mode: Mode, bound: int
) -> SeparationFrontier:
    """Minimal offset pairs guaranteeing two circles with radius sum ``r_sum``
    do not overlap on a grid of spacing ``delta``.

    Thresholds are exact: min_sq_steps = ceil((r_sum / delta)^2) in rational
    arithmetic.  Pairs are Pareto-minimal: decrementing any positive
    coordinate of a member breaks the inequality, and every offset
    satisfying the inequality dominates some member.
    """
    if not r_sum > 0:
        raise ValueError(f"r_sum must be > 0, got {r_sum}")
    if not delta > 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    ratio = exact(r_sum) / exact(delta)
    if bound < math.ceil(ratio) + 1:
        raise ValueError(
            f"bound {bound} too small for r_sum/delta = {float(ratio):.6g}"
        )
    min_sq = min_sq_steps(r_sum, delta)

    pairs: list[tuple[int, int]] = []
    if mode == "restricted":
        u1 = 0
        prev = None
        while True:
            u2 = _ceil_isqrt(min_sq - u1 * u1)
            if prev is None or u2 < prev:
                pairs.append((u1, u2))
                prev = u2
            if u2 == 0:
                break
            u1 += 1
    else:
        u1 = 0
        prev = None
        while True:
            u2 = max(0, _ceil_isqrt(min_sq - (u1 + 1) ** 2) - 1)
            if (u1 + 1) ** 2 + (u2 + 1) ** 2 >= min_sq:
                if prev is None or u2 < prev:
                    pairs.append((u1, u2))
                    prev = u2
                if u2 == 0:
                    break
            u1 += 1

    if any(u1 > bound or u2 > bound for u1, u2 in pairs):
        raise ValueError("frontier exceeds the stated index bound")
    return SeparationFrontier(pairs=tuple(pairs), mode=mode, min_sq_steps=min_sq)


def sep_holds(di: int, dj: int, frontier: SeparationFrontier) -> bool:
    """True iff offset (di, dj) dominates some frontier member."""
    a, b = abs(di), abs(dj)
    return any(a >= u1 and b >= u2 for u1, u2 in frontier.pairs)
