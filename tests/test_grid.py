"""Tests for grid construction, candidate sets, and separation tests."""

import math
from fractions import Fraction
from itertools import count

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlepack.geometry import Circle, CircleContainer, StripContainer
from circlepack.grid import (
    _forbidden_widths,
    build_grid,
    build_strip_grid,
    candidates,
    forbidden,
    forbidden_reach,
    min_sq_steps,
    pair_thresholds,
    separation_frontier,
)

DISC = CircleContainer()


def cells(mask: np.ndarray) -> set[tuple[int, int]]:
    """The (i, j) indices of a candidate array's True entries."""
    return {(int(i), int(j)) for i, j in np.argwhere(mask)}


def test_build_grid_snaps_exact_divisions():
    """1.8 / 0.3 must give 6 cells even though float division lands above 6."""
    grid = build_grid(1.8, 0.3, 0.5)
    assert grid.theta == 6
    assert grid.delta == 0.3
    assert grid.points_x == 13
    assert grid.bit_width == 4
    assert grid.theta * grid.delta_exact == grid.size_exact


def test_build_grid_fine():
    grid = build_grid(1.8, 0.1, 0.5)
    assert grid.theta == 18
    assert grid.delta == pytest.approx(0.1)
    assert grid.bit_width == 6  # indices up to 36


def test_build_grid_rounds_up():
    grid = build_grid(1.0, 0.4, 1.0)
    assert grid.theta == 3
    assert grid.delta_exact == Fraction(1, 3)


def test_bit_width_covers_top_index():
    """Every index 0..2*theta must be representable: 2**bits > 2*theta."""
    grid = build_grid(8.0, 1.0, 2.0)
    assert grid.theta == 8
    assert 2**grid.bit_width > 2 * grid.theta  # 4 bits would lose index 16


def test_build_grid_rejects_coarse_spacing():
    with pytest.raises(ValueError, match="diagonal"):
        build_grid(1.0, 0.5, 0.5)


def brute_candidates(grid, radius, mode):
    """Oracle: exact Fraction test of each lattice point (restricted) or
    cell (relaxed) for a centre at which the circle lies in the container.

    A point is the degenerate box [x, x] x [y, y].  Disc: the box's point
    nearest the origin, the origin clamped into it, lies within size - r.
    Strip: the box meets the inset rectangle [r, L - r] x [r, W - r]."""
    r = Fraction(radius)
    if mode == "restricted":
        shape = (grid.points_x, grid.points_y)
    else:
        shape = (grid.cells_x, grid.cells_y)

    def box(i, j):
        if mode == "relaxed":
            return grid.cell_bounds_exact(i, j)
        x, y = grid.point_exact(i, j)
        return x, y, x, y

    ok = set()
    for i in range(shape[0]):
        for j in range(shape[1]):
            x0, y0, x1, y1 = box(i, j)
            if grid.kind == "circle":
                cx = min(max(Fraction(0), x0), x1)
                cy = min(max(Fraction(0), y0), y1)
                inside = r <= grid.size_exact and cx * cx + cy * cy <= (grid.size_exact - r) ** 2
            else:
                length, width = grid.size_exact, grid.width_exact
                inside = (
                    r <= length - r and x1 >= r and x0 <= length - r
                    and r <= width - r and y1 >= r and y0 <= width - r
                )
            if inside:
                ok.add((i, j))
    return ok


def test_restricted_disc_example():
    """R=2, delta=1, r=1: exactly the center and its 4 axis neighbours."""
    grid = build_grid(2.0, 1.0, 1.5)
    cand = candidates(grid, Circle(1, 1.0), DISC, "restricted")
    got = cells(cand)
    assert got == brute_candidates(grid, 1.0, "restricted")
    assert got == {(2, 2), (1, 2), (3, 2), (2, 1), (2, 3)}


@pytest.mark.parametrize(
    "mode, want",
    [("restricted", {(2, 2)}), ("relaxed", {(1, 1), (1, 2), (2, 1), (2, 2)})],
)
def test_full_size_circle(mode, want):
    """r = size pins the centre to the origin: its lattice point, or the
    four cells that touch it."""
    grid = build_grid(2.0, 1.0, 1.5)
    cand = candidates(grid, Circle(1, 2.0), DISC, mode)
    assert cells(cand) == want == brute_candidates(grid, 2.0, mode)


@pytest.mark.parametrize("mode", ["restricted", "relaxed"])
def test_oversized_circle_empty(mode):
    grid = build_grid(2.0, 1.0, 1.5)
    cand = candidates(grid, Circle(1, 2.5), DISC, mode)
    assert not cand.any()
    assert cand.shape == (
        (grid.points_x, grid.points_y) if mode == "restricted" else (grid.cells_x, grid.cells_y)
    )


def test_restricted_strip_interior():
    """L=W=4, delta=1, r=1: inset square [1,3]x[1,3] -> 3x3 lattice points."""
    grid = build_strip_grid(4.0, 4.0, 1.0, 1.5)
    cand = candidates(grid, Circle(1, 1.0), StripContainer(4.0), "restricted")
    got = cells(cand)
    assert got == {(i, j) for i in (1, 2, 3) for j in (1, 2, 3)}
    assert got == brute_candidates(grid, 1.0, "restricted")


def test_relaxed_disc_boundary_cells_included():
    """R=2, delta=1, r=1: all 12 cells whose nearest point reaches the origin disc.

    Exact enumeration: the four cells around the origin (distance 0) plus the
    eight cells one step out whose nearest corner sits at distance exactly
    1 = R - r.  Tangency is admissible, so the closed inequality keeps them.
    """
    grid = build_grid(2.0, 1.0, 1.5)
    cand = candidates(grid, Circle(1, 1.0), DISC, "relaxed")
    got = cells(cand)
    assert got == brute_candidates(grid, 1.0, "relaxed")
    assert len(got) == 12


def test_relaxed_contains_restricted_corners():
    """Each restricted point, as a cell lower-left corner, is a relaxed cell."""
    grid = build_grid(3.0, 0.5, 1.0)
    for r in (0.8, 1.0, 1.4, 2.9):
        res = candidates(grid, Circle(1, r), DISC, "restricted")
        rel = candidates(grid, Circle(1, r), DISC, "relaxed")
        for i, j in np.argwhere(res):
            if i < grid.cells_x and j < grid.cells_y:
                assert rel[i, j]


def test_relaxed_strip_covers_inset():
    """Every cell that meets the inset rectangle [1,3]x[1,3]: all 16."""
    grid = build_strip_grid(4.0, 4.0, 1.0, 1.5)
    cand = candidates(grid, Circle(1, 1.0), StripContainer(4.0), "relaxed")
    got = cells(cand)
    assert got == brute_candidates(grid, 1.0, "relaxed")
    assert len(got) == 16


@pytest.mark.parametrize("mode", ["restricted", "relaxed"])
@pytest.mark.parametrize("length, width", [(1.5, 4.0), (1.75, 4.0), (4.0, 1.75)])
def test_strip_empty_when_diameter_exceeds_an_extent(mode, length, width):
    """2r = 1.8 exceeds the length or the width: no admissible centre at
    all, although at 1.75 one cell spans both ends of the empty inset."""
    grid = build_strip_grid(length, width, 0.4, 1.0)
    cand = candidates(grid, Circle(1, 0.9), StripContainer(width), mode)
    assert not cand.any()


@given(
    strip=st.booleans(),
    size=st.floats(0.5, 4.0),
    width=st.floats(0.5, 4.0),
    radii=st.lists(st.floats(0.2, 2.5), min_size=1, max_size=3),
    spacing=st.floats(0.3, 0.7),
)
def test_candidates_match_brute_oracle(strip, size, width, radii, spacing):
    """Both modes, on discs and strips, from circles inside the container
    to oversized ones, give the cells of the Fraction oracle; the same
    masks come with the step arrays built per call or shared through one
    memo per grid."""
    min_radius = min(radii)
    if strip:
        grid = build_strip_grid(size, width, spacing * min_radius, min_radius)
        container = StripContainer(width)
    else:
        grid = build_grid(size, spacing * min_radius, min_radius)
        container = DISC
    steps = {}
    for k, radius in enumerate(radii, 1):
        for mode in ("restricted", "relaxed"):
            cand = candidates(grid, Circle(k, radius), container, mode)
            assert cells(cand) == brute_candidates(grid, radius, mode)
            shared = candidates(grid, Circle(k, radius), container, mode, steps)
            assert np.array_equal(cand, shared)


def brute_frontier(min_sq, mode, limit=64):
    """Oracle: enumerate all satisfying pairs, keep the Pareto-minimal ones."""
    sat = set()
    for u1 in range(limit):
        for u2 in range(limit):
            if mode == "restricted":
                good = u1 * u1 + u2 * u2 >= min_sq
            else:
                good = (u1 + 1) ** 2 + (u2 + 1) ** 2 >= min_sq
            if good:
                sat.add((u1, u2))
    minimal = {
        p
        for p in sat
        if not any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in sat)
    }
    return minimal


def separated(di, dj, frontier):
    """Offset (di, dj) dominates some frontier member."""
    return any(abs(di) >= u1 and abs(dj) >= u2 for u1, u2 in frontier)


def test_frontier_restricted_example():
    min_sq = min_sq_steps(2.5, 1.0)
    fr = separation_frontier(min_sq, "restricted")
    assert fr == ((0, 3), (2, 2), (3, 0))
    assert set(fr) == brute_frontier(min_sq, "restricted")
    assert separated(-2, 2, fr)
    assert not separated(1, 2, fr)
    assert not separated(0, 0, fr)


def test_frontier_relaxed_example():
    min_sq = min_sq_steps(2.5, 1.0)
    fr = separation_frontier(min_sq, "relaxed")
    assert fr == ((0, 2), (1, 1), (2, 0))
    assert set(fr) == brute_frontier(min_sq, "relaxed")


def test_frontier_touching_circles():
    fr = separation_frontier(min_sq_steps(1.0, 1.0), "restricted")
    assert set(fr) == {(0, 1), (1, 0)}
    fr2 = separation_frontier(min_sq_steps(0.75, 1.0), "restricted")
    assert set(fr2) == {(0, 1), (1, 0)}


@given(
    r_sum=st.floats(min_value=0.05, max_value=8.0, allow_nan=False),
    delta=st.floats(min_value=0.05, max_value=2.0, allow_nan=False),
    mode=st.sampled_from(["restricted", "relaxed"]),
)
def test_frontier_matches_direct_inequality(r_sum, delta, mode):
    """Dominating a frontier member agrees with the forbidden-offset
    predicate everywhere."""
    ratio = r_sum / delta
    if ratio > 24:
        return
    bound = math.ceil(ratio) + 2
    min_sq = min_sq_steps(r_sum, delta)
    fr = separation_frontier(min_sq, mode)
    for di in range(-bound - 1, bound + 2):
        for dj in range(-bound - 1, bound + 2):
            assert separated(di, dj, fr) == (not forbidden(di, dj, min_sq, mode)), (di, dj)


@settings(deadline=None)
@given(
    min_sq=st.integers(1, 3000),
    mode=st.sampled_from(["restricted", "relaxed"]),
)
def test_frontier_matches_brute_force(min_sq, mode):
    """The staircase walk gives exactly the Pareto-minimal separated
    offsets, in increasing u1, none past one beyond the forbidden reach."""
    fr = separation_frontier(min_sq, mode)
    assert set(fr) == brute_frontier(min_sq, mode, limit=math.isqrt(min_sq) + 3)
    assert list(fr) == sorted(fr)
    assert max(max(pair) for pair in fr) <= forbidden_reach(min_sq, mode) + 1


@pytest.mark.parametrize("mode", ["restricted", "relaxed"])
def test_forbidden_reach_matches_brute_force(mode):
    """Every forbidden offset lies within the reach on both axes, some
    forbidden offset attains it, and -1 means nothing is forbidden."""
    span = range(-20, 21)
    for min_sq in range(301):
        reach = forbidden_reach(min_sq, mode)
        hits = [(x, y) for x in span for y in span if forbidden(x, y, min_sq, mode)]
        if reach < 0:
            assert reach == -1 and not hits, min_sq
            continue
        assert hits, min_sq
        assert max(max(abs(x), abs(y)) for x, y in hits) == reach, min_sq


@pytest.mark.parametrize("mode", ["restricted", "relaxed"])
def test_forbidden_widths_invert_forbidden(mode):
    """With r = c = s, entry k is the first d >= 0 at which ``forbidden``
    fails in column k; with r = 0 and c = s, the band-width form of the
    staged farthest-pair test, entry k is the smallest d >= 0 with
    (d + s)^2 + k^2 >= threshold, from k = 0 up, and for k >= s the first
    d at which ``forbidden`` fails at column offset k - s.  Every threshold
    up to 400, tables shorter and longer than the threshold's reach."""
    s = 1 if mode == "relaxed" else 0
    for threshold in range(401):
        for size in (0, 3, 25):
            columns = range(size + 1)
            rows = [next(d for d in count() if not forbidden(k, d, threshold, mode)) for k in columns]
            assert _forbidden_widths(threshold, s, s, size) == rows, (threshold, size)
            bands = [next(d for d in count() if (d + s) ** 2 + k * k >= threshold) for k in columns]
            assert _forbidden_widths(threshold, 0, s, size) == bands, (threshold, size)
            for k in columns[s:]:
                assert bands[k] == next(
                    d for d in count() if not forbidden(d, k - s, threshold, mode)
                ), (threshold, k)


def test_forbidden_is_elementwise_on_arrays():
    offs = np.arange(-6, 7)
    for mode in ("restricted", "relaxed"):
        grid_result = forbidden(offs[:, None], offs[None, :], 17, mode)
        for a, x in enumerate(offs.tolist()):
            for b, y in enumerate(offs.tolist()):
                assert bool(grid_result[a, b]) == forbidden(x, y, 17, mode)


@given(
    size=st.floats(min_value=1.0, max_value=5.0),
    ratio=st.floats(min_value=0.15, max_value=0.9),
)
def test_halving_delta_preserves_restricted_candidates(size, ratio):
    """Candidate (i, j) maps to (2i, 2j) when the spacing is halved."""
    radius = size * ratio
    min_r = radius
    target = min_r / 2.0
    grid = build_grid(size, target, min_r)
    fine = build_grid(size, float(grid.delta_exact / 2), min_r)
    if fine.theta != 2 * grid.theta:  # snap produced a different refinement
        return
    coarse_set = candidates(grid, Circle(1, radius), DISC, "restricted")
    fine_set = candidates(fine, Circle(1, radius), DISC, "restricted")
    for i, j in np.argwhere(coarse_set):
        assert fine_set[2 * i, 2 * j]


@given(
    size=st.floats(min_value=1.0, max_value=5.0),
    ratio=st.floats(min_value=0.15, max_value=0.9),
)
def test_relaxed_covers_refined_restricted(size, ratio):
    """Every fine-grid restricted point lies in some flagged coarse cell."""
    radius = size * ratio
    target = radius / 2.0
    coarse = build_grid(size, target, radius)
    fine = build_grid(size, float(coarse.delta_exact / 3), radius)
    if fine.theta != 3 * coarse.theta:  # snap produced a different refinement
        return
    rel = candidates(coarse, Circle(1, radius), DISC, "relaxed")
    res = candidates(fine, Circle(1, radius), DISC, "restricted")

    def containing_cells(steps: Fraction, count: int):
        """Coarse cell indices (centered) whose closed extent holds a coordinate
        given in units of the coarse spacing from the grid center."""
        low = math.floor(steps)
        cells = {low} if low != steps else {low - 1, low}
        return [c + coarse.theta for c in cells if 0 <= c + coarse.theta < count]

    for i, j in np.argwhere(res):
        sx = Fraction(i - fine.theta, 3)
        sy = Fraction(j - fine.theta, 3)
        for ci in containing_cells(sx, coarse.cells_x):
            for cj in containing_cells(sy, coarse.cells_y):
                assert rel[ci, cj], ((i, j), (ci, cj))


def _check_pair_thresholds(radii, delta):
    table = pair_thresholds(radii, delta)
    n = len(radii)
    assert len(table) == n and all(len(row) == n for row in table)
    for a in range(n):
        assert table[a][a] == 0
        for b in range(n):
            if a != b:
                r_sum = Fraction(radii[a]) + Fraction(radii[b])
                assert table[a][b] == min_sq_steps(r_sum, delta)
                assert table[a][b] == math.ceil((r_sum / delta) ** 2)


@given(
    st.lists(st.floats(0.05, 5.0), min_size=1, max_size=8),
    st.fractions(Fraction(1, 50), Fraction(1), max_denominator=1000),
)
def test_pair_thresholds_match_min_sq_steps(radii, delta):
    _check_pair_thresholds(radii, delta)


@pytest.mark.parametrize(
    "radii",
    [
        [1.0] * 6,
        [0.7, 0.7, 0.7, 0.3, 0.3],
        [1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0), 1.0],
        [0.5, 0.5 + 1e-12, 0.5 - 1e-12],
    ],
    ids=["equal", "two-groups", "next-float", "near-tie"],
)
@pytest.mark.parametrize("delta", [Fraction(1, 4), Fraction(0.1)])
def test_pair_thresholds_equal_and_near_tied_radii(radii, delta):
    _check_pair_thresholds(radii, delta)


def test_pair_thresholds_keep_near_ties_apart():
    """At delta = 1/4 a radius sum of 2 is exactly 8 cells, so a sum one
    float above or below it has its own threshold: 65 above, 64 at and
    below.  A memo that merged near-tied radii would get one of them wrong."""
    above, below = math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0)
    table = pair_thresholds([1.0, above, below, 1.0], Fraction(1, 4))
    assert table[0][3] == 64 and table[0][2] == 64 and table[0][1] == 65
    assert table[1][2] == 65  # above + below is 2 plus a half ulp
