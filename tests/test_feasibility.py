"""Tests for the branch-and-prune feasibility solver.

The reference oracle below decides small problems (at most three circles)
by exhaustive vectorized enumeration over the candidate domains, deriving
the pairwise integer thresholds independently from exact rational
arithmetic.  The solver must agree with it in both modes.  A second
reference, a plain depth-first search on numpy masks, pins the node loop
itself: its counts, its stops and the state it leaves.
"""

from __future__ import annotations

import dataclasses
import math
import time
from fractions import Fraction
from pathlib import Path
from typing import Mapping

import numpy as np
import pytest
from hypothesis import example, find, given, settings
from hypothesis import strategies as st

import circlepack
from circlepack.feasibility import (
    FeasibilityProblem,
    _Engine,
    assignment_to_placement,
    build_problem,
    solve,
)
from circlepack.files import read_instance
from circlepack.geometry import Instance, StripContainer, verify_placement
from circlepack.grid import (
    _forbidden_widths,
    _pack,
    _unpack,
    forbidden,
    forbidden_reach,
    grid_for_instance,
    min_sq_steps,
    separation_frontier,
)
from circlepack.reduction import build_region_map, propagate

# solve's default node limit, which the engine takes as an argument
MAX_NODES = solve.__kwdefaults__["max_nodes"]


def bounding_box(mask: np.ndarray) -> tuple[int, int, int, int] | None:
    """Oracle: (imin, imax, jmin, jmax) of a mask's True cells, or None when
    empty, from numpy index arrays."""
    ii, jj = np.nonzero(mask)
    if ii.size == 0:
        return None
    return int(ii.min()), int(ii.max()), int(jj.min()), int(jj.max())


# --------------------------------------------------------------------------
# reference oracle: exhaustive enumeration for <= 3 circles
# --------------------------------------------------------------------------


def _pair_min_sq(problem: FeasibilityProblem, a: int, b: int) -> int:
    """Independent threshold: ceil(((r_a + r_b) / delta)^2), exactly."""
    grid = problem.grid
    r_sum = Fraction(problem.instance.radii[a - 1]) + Fraction(problem.instance.radii[b - 1])
    ratio = r_sum / grid.delta_exact
    return math.ceil(ratio * ratio)


def _compat_matrix(
    problem: FeasibilityProblem, pts_a: np.ndarray, pts_b: np.ndarray, min_sq: int
) -> np.ndarray:
    di = np.abs(pts_a[:, 0][:, None] - pts_b[:, 0][None, :]).astype(np.int64)
    dj = np.abs(pts_a[:, 1][:, None] - pts_b[:, 1][None, :]).astype(np.int64)
    if problem.mode == "restricted":
        return di * di + dj * dj >= min_sq
    return (di + 1) ** 2 + (dj + 1) ** 2 >= min_sq


def brute_force_feasible(problem: FeasibilityProblem) -> bool:
    """Ground truth by enumerating every assignment of <= 3 circles."""
    n = problem.instance.n
    assert n <= 3, "oracle only covers up to three circles"
    pts = [np.argwhere(problem.domains[cid]) for cid in range(1, n + 1)]
    if any(len(p) == 0 for p in pts):
        return False
    if n == 1:
        return True
    m12 = _compat_matrix(problem, pts[0], pts[1], _pair_min_sq(problem, 1, 2))
    if n == 2:
        return bool(m12.any())
    m13 = _compat_matrix(problem, pts[0], pts[2], _pair_min_sq(problem, 1, 3))
    m23 = _compat_matrix(problem, pts[1], pts[2], _pair_min_sq(problem, 2, 3))
    for a in range(len(pts[0])):
        row_b = m12[a]
        row_c = m13[a]
        if not row_b.any() or not row_c.any():
            continue
        if m23[row_b][:, row_c].any():
            return True
    return False


def _random_small_problem(rng: np.random.Generator):
    """A random instance plus grid with at most 3 circles and theta <= 6."""
    n = int(rng.integers(1, 4))
    radii = np.sort(rng.uniform(0.6, 1.4, size=n))[::-1]
    r_min = float(radii[-1])
    # container sized anywhere between clearly infeasible and trivially
    # feasible, capped at 4*r_min so theta <= 6 satisfies the cell-diagonal
    # precondition delta*sqrt(2) < r_min
    lo = float(radii[0]) * 1.01
    hi = max(lo + 0.05, float(radii.sum()))
    size = float(rng.uniform(lo, min(hi, 4.0 * r_min)))
    theta_min = math.floor(size * math.sqrt(2.0) / r_min) + 1
    theta = int(rng.integers(theta_min, 7)) if theta_min < 7 else theta_min
    instance = Instance.from_radii("rnd", radii.tolist())
    grid = grid_for_instance(instance, size, size / theta)
    return instance, grid, size


def _random_tied_problem(rng: np.random.Generator, strip: bool):
    """Three circles with tied radii, [r, r, r] or [r, r', r'] (r' < r), or
    nearly tied ones, [r, r', r''] with r'' at most 5 % below r', in a disc
    or in a strip, on a grid of at most about 12 steps a side.

    Tied circles get equal domains wherever no symmetry cut tells them
    apart, so the engine shares their masks; nearly tied circles often get
    equal domains too, but not equal separation thresholds.
    """
    big = float(rng.uniform(0.8, 1.4))
    pattern = rng.integers(3)
    small = big if pattern == 0 else float(rng.uniform(0.6, big * 0.95))
    last = small * float(rng.uniform(0.95, 0.99)) if pattern == 2 else small
    radii = [big, small, last]
    if not strip:
        instance = Instance.from_radii("tied", radii)
        lo = big * 1.01
        size = float(rng.uniform(lo, max(lo + 0.05, min(sum(radii), 4.0 * last))))
        theta_min = math.floor(size * math.sqrt(2.0) / last) + 1
        theta = int(rng.integers(theta_min, 7)) if theta_min < 7 else theta_min
        return instance, grid_for_instance(instance, size, size / theta)
    width = float(rng.uniform(2.0 * big, 2.0 * (big + small)))
    instance = Instance.from_radii("tied", radii, StripContainer(width))
    size = float(rng.uniform(2.0 * big, 2.0 * sum(radii)))
    # cell diagonal below the smallest radius, at most ~12 cells a side
    delta = min(max(size, width) / 12.0, 0.99 * last / math.sqrt(2.0))
    return instance, grid_for_instance(instance, size, delta)


def _place_first(engine: _Engine, i: int, j: int) -> bool:
    """Run the search's node loop on the node that places circle 1 at
    (i, j), and return whether its conditional elimination emptied a domain.

    ``engine`` has three circles, a node limit of 1 and a circles 2-3
    threshold of 0, which forbids nothing, so the child's farthest-pair
    test never cuts.  Circle 1's domain becomes the single cell (i, j), so
    the first node places it there.  When no domain empties, the node limit
    stops the search at the next node, and ``engine.masks`` keeps the
    domains that the elimination wrote for circles 2 and 3.  When one
    empties, the search writes no domain and no position and ends
    infeasible.  The root's farthest-pair test of circles 1 and 2 is the
    box-corner test of circle 2's clear, so when it holds the root is cut
    before that node: circle 2 would have emptied.  The positions are
    reset first, since the previous run, which the node limit stopped, left
    circle 1's there.
    """
    s, c = engine.row_stride, engine.col_stride
    engine.masks[0] = (1 << i * s + j, 1 << j * c + i, (i, i, j, j))
    engine.positions[:] = [None] * engine.n
    engine.nodes = engine.wipeouts = engine.farthest_prunes = 0
    outcome = engine.run()
    counts = (outcome.status, outcome.nodes, outcome.farthest_pair, outcome.wipeout)
    assert counts in {
        ("unknown", 2, 0, 0),
        ("infeasible", 1, 0, 1),
        ("infeasible", 0, 1, 0),
    }
    assert engine.positions[0] == ((i, j) if outcome.is_unknown else None)
    return outcome.is_infeasible


def _assert_step_clears(
    engine: _Engine, initial: list, i: int, j: int, expected: list[np.ndarray]
) -> None:
    """One node of the search at (i, j) against the brute-force clears
    ``expected`` of circles 2 and 3: it empties a domain exactly when one
    of them is empty, and otherwise leaves exactly them, bits and box, with
    an unchanged domain kept as it is and a shared domain cleared once."""
    engine.masks[:] = initial
    dead = _place_first(engine, i, j)
    assert dead == any(not mask.any() for mask in expected)
    if dead:
        assert all(a is b for a, b in zip(engine.masks[1:], initial[1:]))
        return
    for k, mask in ((1, expected[0]), (2, expected[1])):
        _assert_domain_is(engine, engine.masks[k], mask)
        if engine.masks[k][0] == initial[k][0]:
            assert engine.masks[k] is initial[k]
    if initial[1] is initial[2] and engine.min_sq[0][1] == engine.min_sq[0][2]:
        assert engine.masks[1] is engine.masks[2]


def _assert_domain_is(engine: _Engine, domain, mask: np.ndarray) -> None:
    """A packed engine domain holds exactly ``mask``: in both bitsets, with
    every guard column clear, and with the box of ``bounding_box``."""
    rows, cols, box = domain
    for bits, grid_mask, stride in (
        (rows, mask, engine.row_stride),
        (cols, mask.T, engine.col_stride),
    ):
        padded = np.zeros((grid_mask.shape[0], stride), dtype=bool)
        padded[:, : grid_mask.shape[1]] = grid_mask
        assert np.array_equal(_unpack(bits, grid_mask.shape[0], stride), padded)
    assert box == bounding_box(mask)


# --------------------------------------------------------------------------
# build_problem
# --------------------------------------------------------------------------


class TestBuildProblem:
    def test_single_circle_filling_container_has_one_candidate(self):
        instance = Instance.from_radii("one", [2.0])
        grid = grid_for_instance(instance, 2.0, 0.5)
        problem = build_problem(instance, grid, "restricted")
        assert int(problem.domains[1].sum()) == 1
        assert problem.domains[1][grid.theta, grid.theta]

    def test_three_circle_example_domains_nonempty(self):
        instance = Instance.from_radii("fig", [1.0, 0.75, 0.5])
        grid = grid_for_instance(instance, 1.8, 0.3)
        for mode in ("restricted", "relaxed"):
            problem = build_problem(instance, grid, mode)
            assert not problem.trivially_infeasible
            for cid in (1, 2, 3):
                assert int(problem.domains[cid].sum()) > 0

    def test_oversized_circle_flags_trivially_infeasible(self):
        instance = Instance.from_radii("big", [3.0, 1.0])
        grid = grid_for_instance(instance, 2.5, 0.4)
        problem = build_problem(instance, grid, "restricted")
        assert problem.trivially_infeasible
        assert solve(problem).is_infeasible

    def test_invalid_mode_rejected(self):
        instance = Instance.from_radii("one", [1.0])
        grid = grid_for_instance(instance, 2.0, 0.5)
        with pytest.raises(ValueError):
            build_problem(instance, grid, "both")

    def test_mismatched_region_grid_rejected(self):
        instance = Instance.from_radii("fig", [1.0, 0.75, 0.5])
        grid = grid_for_instance(instance, 1.8, 0.3)
        other = grid_for_instance(instance, 1.8, 0.1)
        regions = build_region_map(instance, 1.8, other)
        with pytest.raises(ValueError):
            build_problem(instance, grid, "restricted", regions)

    def test_disc_symmetry_restricts_first_two_circles(self):
        instance = Instance.from_radii("fig", [1.0, 0.75, 0.5])
        grid = grid_for_instance(instance, 1.8, 0.3)
        problem = build_problem(instance, grid, "restricted")
        for i, j in np.argwhere(problem.domains[1]):
            assert i >= grid.theta and j >= grid.theta
        assert all(j >= i for i, j in np.argwhere(problem.domains[2]))
        free = build_problem(instance, grid, "restricted", symmetry=False)
        for cid in (1, 2, 3):
            assert int(free.domains[cid].sum()) >= int(problem.domains[cid].sum())

    def test_strip_symmetry_restricts_x_only_in_restricted_mode(self):
        instance = Instance.from_radii("s", [1.0, 0.8], StripContainer(2.5))
        grid = grid_for_instance(instance, 6.0, 0.25)
        problem = build_problem(instance, grid, "restricted")
        half = (grid.theta + 1) // 2
        assert all(i >= half for i, _ in np.argwhere(problem.domains[1]))
        js = {j for _, j in np.argwhere(problem.domains[1])}
        assert len(js) > 1  # no lattice-level width restriction

    def test_reduced_regions_shrink_domains(self):
        instance = Instance.from_radii("fig", [1.0, 0.75, 0.5])
        grid = grid_for_instance(instance, 1.8, 0.1)
        regions = propagate(build_region_map(instance, 1.8, grid), instance.radii)
        assert regions is not None
        plain = build_problem(instance, grid, "restricted")
        cut = build_problem(instance, grid, "restricted", regions)
        for cid in (1, 2, 3):
            assert int(cut.domains[cid].sum()) <= int(plain.domains[cid].sum())
            assert not (cut.domains[cid] & ~plain.domains[cid]).any()


# --------------------------------------------------------------------------
# solve: examples pinned by the bundled three-circle configuration
# --------------------------------------------------------------------------


class TestSolveExamples:
    def test_three_circle_example_infeasible_on_coarse_grid(self):
        instance = Instance.from_radii("fig", [1.0, 0.75, 0.5])
        grid = grid_for_instance(instance, 1.8, 0.3)
        assert grid.delta == pytest.approx(0.3)
        outcome = solve(build_problem(instance, grid, "restricted"))
        assert outcome.is_infeasible

    def test_three_circle_example_feasible_on_fine_grid(self):
        instance = Instance.from_radii("fig", [1.0, 0.75, 0.5])
        grid = grid_for_instance(instance, 1.8, 0.1)
        outcome = solve(build_problem(instance, grid, "restricted"))
        assert outcome.is_feasible
        placement = assignment_to_placement(grid, outcome.assignment)
        report = verify_placement(instance, placement, tolerance=0)
        assert report.feasible

    def test_relaxed_infeasible_when_total_area_exceeds_container(self):
        # three unit circles cannot fit a radius-1.6 disc (even their raw
        # area bound sqrt(3) exceeds it); the relaxed model proves it on a
        # coarse grid
        instance = Instance.from_radii("tri", [1.0, 1.0, 1.0])
        grid = grid_for_instance(instance, 1.6, 0.35)
        problem = build_problem(instance, grid, "relaxed")
        assert solve(problem).is_infeasible
        assert not brute_force_feasible(problem)

    def test_single_circle_centers_at_origin(self):
        instance = Instance.from_radii("one", [2.0])
        grid = grid_for_instance(instance, 2.0, 0.5)
        outcome = solve(build_problem(instance, grid, "restricted"))
        assert outcome.is_feasible
        assert outcome.assignment == {1: (grid.theta, grid.theta)}


# --------------------------------------------------------------------------
# solve: oracle equivalence, determinism, limits
# --------------------------------------------------------------------------


class TestSolveAgainstOracle:
    def test_matches_exhaustive_enumeration_both_modes(self):
        rng = np.random.default_rng(20260814)
        seen = {True: 0, False: 0}
        for _ in range(40):
            instance, grid, _size = _random_small_problem(rng)
            for mode in ("restricted", "relaxed"):
                problem = build_problem(instance, grid, mode)
                expected = brute_force_feasible(problem)
                seen[expected] += 1
                assert solve(problem).status == (
                    "feasible" if expected else "infeasible"
                ), f"{mode} disagrees with enumeration"
        assert seen[True] > 5 and seen[False] > 5, "sampled instances too one-sided"

    def test_restricted_feasible_implies_relaxed_feasible(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(30):
            instance, grid, _size = _random_small_problem(rng)
            restricted = solve(build_problem(instance, grid, "restricted"))
            if restricted.is_feasible:
                relaxed = solve(build_problem(instance, grid, "relaxed"))
                assert relaxed.is_feasible
                checked += 1
        assert checked > 3

    def test_feasible_assignment_passes_frontier_and_exact_verification(self):
        rng = np.random.default_rng(99)
        checked = 0
        for _ in range(30):
            instance, grid, _size = _random_small_problem(rng)
            problem = build_problem(instance, grid, "restricted")
            outcome = solve(problem)
            if not outcome.is_feasible:
                continue
            checked += 1
            for (a, b), min_sq in problem.min_sq.items():
                ia, ja = outcome.assignment[a]
                ib, jb = outcome.assignment[b]
                assert not forbidden(ia - ib, ja - jb, min_sq, "restricted")
                r_sum = Fraction(instance.radii[a - 1]) + Fraction(instance.radii[b - 1])
                assert min_sq_steps(r_sum, grid.delta_exact) == min_sq
                frontier = separation_frontier(min_sq, "restricted")
                assert any(
                    abs(ia - ib) >= u1 and abs(ja - jb) >= u2 for u1, u2 in frontier
                )
            for cid, (i, j) in outcome.assignment.items():
                assert problem.domains[cid][i, j]
            placement = assignment_to_placement(grid, outcome.assignment)
            assert verify_placement(instance, placement, tolerance=0).feasible
        assert checked > 3

    def test_exact_tangency_instance_matches_enumeration(self):
        # radius sums 3-4-5 admit exactly tangent lattice triples at unit
        # spacing
        instance = Instance.from_radii("pyth", [3.0, 2.0, 1.0])
        for size in (5.0, 5.5, 6.5):
            grid = grid_for_instance(instance, size, 0.5)
            problem = build_problem(instance, grid, "restricted")
            expected = "feasible" if brute_force_feasible(problem) else "infeasible"
            assert solve(problem).status == expected, size


class TestTiedRadii:
    """The engine shares one mask between adjacent circles with equal
    domains and clears it once per node; enumeration knows nothing of that."""

    @pytest.mark.parametrize("strip", [False, True], ids=["disc", "strip"])
    def test_matches_exhaustive_enumeration_both_modes(self, strip):
        rng = np.random.default_rng(20261018 + strip)
        seen = {True: 0, False: 0}
        shared = {True: 0, False: 0}  # by whether the thresholds are equal
        for _ in range(40):
            instance, grid = _random_tied_problem(rng, strip)
            for mode in ("restricted", "relaxed"):
                for symmetry in (True, False):
                    problem = build_problem(instance, grid, mode, symmetry=symmetry)
                    engine = _Engine(problem, MAX_NODES, None)
                    if engine.masks[1] is engine.masks[2]:
                        shared[engine.min_sq[0][1] == engine.min_sq[0][2]] += 1
                    expected = brute_force_feasible(problem)
                    seen[expected] += 1
                    assert solve(problem).status == (
                        "feasible" if expected else "infeasible"
                    ), f"{mode} symmetry={symmetry} disagrees"
        assert seen[True] > 5 and seen[False] > 5, "sampled instances too one-sided"
        assert shared[True] > 20 and shared[False] > 5, f"too few shared masks: {shared}"

    @pytest.mark.parametrize("strip", [False, True], ids=["disc", "strip"])
    def test_elimination_matches_direct_clearing(self, strip):
        rng = np.random.default_rng(5 + strip)
        shared = {True: 0, False: 0}  # by whether the thresholds are equal
        for _ in range(25):
            instance, grid = _random_tied_problem(rng, strip)
            for mode in ("restricted", "relaxed"):
                problem = build_problem(instance, grid, mode, symmetry=False)
                if problem.trivially_infeasible:
                    continue  # solve rejects it before any search
                domains = [problem.domains[cid] for cid in (1, 2, 3)]
                ii, jj = np.indices(domains[0].shape)
                thresholds = [_pair_min_sq(problem, 1, cid) for cid in (2, 3)]
                # circles 2-3 at threshold 0: no farthest-pair cut of a child
                problem = dataclasses.replace(problem, min_sq={**problem.min_sq, (2, 3): 0})
                engine = _Engine(problem, 1, None)
                if engine.masks[1] is engine.masks[2]:
                    shared[thresholds[0] == thresholds[1]] += 1
                initial = list(engine.masks)
                for domain, mask in zip(initial, domains):
                    _assert_domain_is(engine, domain, mask)
                for i, j in np.argwhere(domains[0])[::3]:
                    expected = [
                        domains[k] & ~forbidden(ii - i, jj - j, thresholds[k - 1], mode)
                        for k in (1, 2)
                    ]
                    _assert_step_clears(engine, initial, int(i), int(j), expected)
        assert shared[True] > 10 and shared[False] > 3, f"too few shared masks: {shared}"

    @pytest.mark.parametrize("n", [4, 5])
    def test_equal_circles_match_reference_search(self, n):
        """Too many circles for enumeration: the plain depth-first search of
        ``reference_search`` decides them, with the same counts."""
        instance = Instance.from_radii("eq", [1.0] * n)
        statuses = set()
        for size in (1.9, 2.2, 2.45, 2.8):
            for theta in (4, 6):
                grid = grid_for_instance(instance, size, size / theta)
                for mode in ("restricted", "relaxed"):
                    problem = build_problem(instance, grid, mode)
                    engine = _Engine(problem, MAX_NODES, None)
                    assert engine.masks[2] is engine.masks[n - 1]
                    outcome = solve(problem)
                    got = (outcome.status, outcome.nodes, outcome.farthest_pair,
                           outcome.wipeout, outcome.assignment)
                    expected = reference_search(problem, MAX_NODES)[0]
                    assert got == expected, f"size {size} theta {theta} {mode}"
                    statuses.add(outcome.status)
        assert statuses == {"feasible", "infeasible"}


class TestPackedDomains:
    """The bitset layer of the engine against plain numpy masks."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_pack_unpack_round_trip(self, data):
        nx, ny = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))
        cells = data.draw(st.lists(st.booleans(), min_size=nx * ny, max_size=nx * ny))
        mask = np.array(cells, dtype=bool).reshape(nx, ny)
        stride = ny + data.draw(st.integers(0, 5))
        bits = _pack(mask, stride)
        assert bits.bit_count() == int(mask.sum())
        assert bits < 1 << (nx * stride)
        got = _unpack(bits, nx, stride)
        assert np.array_equal(got[:, :ny], mask) and not got[:, ny:].any()
        assert np.array_equal(_unpack(_pack(mask.T, nx), ny, nx), mask.T)
        box = bounding_box(mask)
        if box is not None:
            i0, i1 = box[0], box[1]
            window = _unpack(bits >> i0 * stride, i1 - i0 + 1, stride)
            assert np.array_equal(window[:, :ny], mask[i0 : i1 + 1])

    @staticmethod
    def _problem(masks: list[np.ndarray], min_sq: Mapping, mode: str) -> FeasibilityProblem:
        """Three circles with the domains ``masks`` and the thresholds
        ``min_sq``; only the search machinery is exercised, so the grid is
        nominal."""
        instance = Instance.from_radii("bits", [1.0, 1.0, 1.0])
        return FeasibilityProblem(
            instance=instance,
            grid=grid_for_instance(instance, 4.0, 0.5),
            mode=mode,
            domains=dict(enumerate(masks, 1)),
            min_sq=min_sq,
        )

    @classmethod
    def _engine(cls, mask: np.ndarray, clear: int, other: int, mode: str) -> _Engine:
        """An engine whose three circles all have the domain ``mask``, with
        the thresholds ``clear`` and ``other`` of circle 1 against circles 2
        and 3, set up for ``_place_first``."""
        min_sq = {(1, 2): clear, (1, 3): other, (2, 3): 0}
        return _Engine(cls._problem([mask] * 3, min_sq, mode), 1, None)

    @classmethod
    def _search(cls, masks: list[np.ndarray], min_sq: Mapping, mode: str, clears: bool = True):
        """Search three circles with the given domains and thresholds.  With
        ``clears`` false the forbidden patterns are empty, so only the
        box-corner test can empty a domain."""
        engine = _Engine(cls._problem(masks, min_sq, mode), MAX_NODES, None)
        if not clears:
            engine.patterns = {threshold: (0, 0) for threshold in engine.patterns}
        return engine.run()

    @pytest.mark.parametrize("mode", ["restricted", "relaxed"])
    def test_inline_tests_are_forbidden_at_every_offset(self, mode):
        """The node loop's inline box-corner and farthest-pair tests hold
        exactly at the offsets where ``forbidden`` does, for every offset up
        to one past the threshold's reach.

        Box corner: circle 3's domain is one cell at the offset from circle
        1's, circle 2 is free of both, and no pattern clears anything, so
        circle 3 empties exactly when the box-corner test fires.  (Circle 2
        at the offset would be cut by the root's farthest-pair test first.)
        Farthest pair: circles 2 and 3 are free of circle 1, and their
        boxes lie at the offset, either as two one-cell domains (circle 3
        in the run after circle 2's) or as one shared two-cell domain (one
        run); the test cuts circle 1's only child exactly when it fires, and
        counts it.
        """
        for threshold in (0, 1, 2, 3, 5, 8, 13, 18, 50):
            m = max(forbidden_reach(threshold, mode), 0) + 1
            shape = (2 * m + 1, 2 * m + 1)

            def cells(*points):
                mask = np.zeros(shape, dtype=bool)
                for point in points:
                    mask[point] = True
                return mask

            full, centre = np.ones(shape, dtype=bool), (m, m)
            for di in range(-m, m + 1):
                for dj in range(-m, m + 1):
                    expected = bool(forbidden(di, dj, threshold, mode))
                    at = (m + di, m + dj)
                    outcome = self._search(
                        [cells(centre), full, cells(at)],
                        {(1, 2): 0, (1, 3): threshold, (2, 3): 0},
                        mode, clears=False,
                    )
                    assert outcome.wipeout == expected, ("corner", threshold, di, dj)
                    layouts = [[cells(centre), cells(at)]]
                    if (di, dj) != (0, 0):
                        layouts.append([cells(centre, at)] * 2)
                    for pair in layouts:
                        outcome = self._search(
                            [cells((0, 0)), *pair],
                            {(1, 2): 0, (1, 3): 0, (2, 3): threshold},
                            mode,
                        )
                        assert outcome.farthest_pair == expected, (
                            "farthest", len(pair), threshold, di, dj)

    @pytest.mark.parametrize("mode", ["restricted", "relaxed"])
    @pytest.mark.parametrize(
        "shape", [(1, 1), (1, 6), (6, 1), (2, 9), (9, 2), (5, 7), (6, 6)], ids=str
    )
    def test_clearing_matches_forbidden_at_every_cell(self, shape, mode):
        rng = np.random.default_rng(10 * shape[0] + shape[1])
        ii, jj = np.indices(shape)
        thresholds = (0, 2, 5, 13, 50, 130, 400)
        wide = 0  # engines whose forbidden square is wider than the grid
        for clear in thresholds:
            # the other threshold sets the engine's reach when it is larger
            for other in thresholds:
                mask = rng.random(shape) < 0.7
                engine = self._engine(mask, clear, other, mode)
                wide += 2 * engine.reach + 1 > min(shape)
                initial = list(engine.masks)
                _assert_domain_is(engine, initial[1], mask)
                if not mask.any():
                    # solve rejects an empty domain before any search
                    assert engine.problem.trivially_infeasible
                    continue
                for i in range(shape[0]):
                    for j in range(shape[1]):
                        expected = [
                            mask & ~forbidden(ii - i, jj - j, threshold, mode)
                            for threshold in (clear, other)
                        ]
                        _assert_step_clears(engine, initial, i, j, expected)
        assert wide > 10

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_box_corner_wipeout_matches_brute_force(self, data):
        """The search's clear, box-corner wipeout included, against the
        per-cell ``forbidden`` mask: random masks confined to a random
        window, a node at every cell of the grid, inside and outside the
        domain's box, with thresholds from 0 (nothing forbidden) to wider
        than the grid."""
        mode = data.draw(st.sampled_from(["restricted", "relaxed"]))
        nx, ny = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))
        cells = data.draw(st.lists(st.booleans(), min_size=nx * ny, max_size=nx * ny))
        mask = np.array(cells, dtype=bool).reshape(nx, ny)
        a0, a1 = sorted(data.draw(st.tuples(st.integers(0, nx - 1), st.integers(0, nx - 1))))
        b0, b1 = sorted(data.draw(st.tuples(st.integers(0, ny - 1), st.integers(0, ny - 1))))
        window = np.zeros_like(mask)
        window[a0 : a1 + 1, b0 : b1 + 1] = True
        mask &= window
        wide = 2 * (max(nx, ny) + 1) ** 2
        threshold = st.one_of(st.just(0), st.integers(1, wide), st.integers(wide, 2 * wide))
        clear, other = data.draw(threshold), data.draw(threshold)

        engine = self._engine(mask, clear, other, mode)
        if not mask.any():
            assert engine.problem.trivially_infeasible
            return
        initial = list(engine.masks)
        ii, jj = np.indices(mask.shape)
        for i in range(nx):
            for j in range(ny):
                expected = [
                    mask & ~forbidden(ii - i, jj - j, threshold, mode)
                    for threshold in (clear, other)
                ]
                _assert_step_clears(engine, initial, i, j, expected)


def _trimmed_box(box, i: int, j: int, widths: list[int], e: int):
    """The first stage's superset box of the staged farthest-pair test
    (feasibility module docstring): ``box`` less the band of rows that a
    child at (i, j) forbids whole at the box's farthest column, and the
    band of columns it forbids whole at the box's farthest row, with the
    half-widths ``widths``, ``grid._forbidden_widths`` with r = 0 and c = e."""
    i0, i1, j0, j1 = box
    a = max(abs(i0 - i), abs(i1 - i)) + e
    b = max(abs(j0 - j), abs(j1 - j)) + e
    h = widths[b]
    lo_i = i + h if i - h < i0 < i + h else i0
    hi_i = i - h if i - h < i1 < i + h else i1
    h = widths[a]
    lo_j = j + h if j - h < j0 < j + h else j0
    hi_j = j - h if j - h < j1 < j + h else j1
    return lo_i, hi_i, lo_j, hi_j


def _pair_cut(box_a, box_b, pair_sq: int, mode: str) -> bool:
    """The farthest-pair rule on two boxes: even their farthest cells are
    forbidden."""
    a0, a1, a2, a3 = box_a
    b0, b1, b2, b3 = box_b
    return bool(forbidden(max(a1 - b0, b1 - a0), max(a3 - b2, b3 - a2), pair_sq, mode))


class TestStagedFarthestPair:
    """The farthest-pair test of the node loop, staged on boxes that
    contain the exact cleared boxes, against brute-force clears."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_trimmed_box_matches_brute_force(self, data):
        """Random masks confined to a random window, a child at any cell of
        the grid, thresholds from 0 to wider than the grid, in both modes.

        The rule: once the box-corner test has not fired and the clear
        leaves a candidate, the trimmed box contains the exact box of the
        cleared mask, and every cut on the trimmed box, alone or with the
        exact highs, against itself (circles t+1 and t+2 in one run) or
        against another exact box (t+1 in an earlier run), is a cut on the
        exact boxes.  The loop: one child of an engine whose circle 1 sits
        at that cell counts the wipeout or the farthest-pair cut that the
        brute-force clears and the exact boxes give, with circles 2 and 3
        in one run or in two.
        """
        mode = data.draw(st.sampled_from(["restricted", "relaxed"]))
        e = 1 if mode == "relaxed" else 0
        nx, ny = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))
        ii, jj = np.indices((nx, ny))

        def draw_mask() -> np.ndarray:
            mask = np.zeros((nx, ny), dtype=bool)
            if data.draw(st.booleans()):
                # a few cells, whose box corners are mostly not cells: the
                # clears that empty a run past the box-corner test
                cell = st.tuples(st.integers(0, nx - 1), st.integers(0, ny - 1))
                for point in data.draw(st.lists(cell, min_size=1, max_size=4)):
                    mask[point] = True
                return mask
            cells = data.draw(st.lists(st.booleans(), min_size=nx * ny, max_size=nx * ny))
            a0, a1 = sorted(data.draw(st.tuples(st.integers(0, nx - 1), st.integers(0, nx - 1))))
            b0, b1 = sorted(data.draw(st.tuples(st.integers(0, ny - 1), st.integers(0, ny - 1))))
            mask[a0 : a1 + 1, b0 : b1 + 1] = True
            return mask & np.array(cells, dtype=bool).reshape(nx, ny)

        mask, other = draw_mask(), draw_mask()
        i, j = data.draw(st.integers(0, nx - 1)), data.draw(st.integers(0, ny - 1))
        wide = 2 * (max(nx, ny) + 1) ** 2
        threshold = st.one_of(st.just(0), st.integers(1, wide), st.integers(wide, 2 * wide))
        clear, clear_other, pair_sq = (data.draw(threshold) for _ in range(3))

        def cleared(domain: np.ndarray, t: int) -> np.ndarray:
            return domain & ~forbidden(ii - i, jj - j, t, mode)

        # the rule
        box, exact = bounding_box(mask), bounding_box(cleared(mask, clear))
        if box is not None and exact is not None:
            i0, i1, j0, j1 = box
            a = max(abs(i0 - i), abs(i1 - i)) + e
            b = max(abs(j0 - j), abs(j1 - j)) + e
            assert a * a + b * b >= clear, "the box-corner test fired on a live clear"
            trimmed = _trimmed_box(box, i, j, _forbidden_widths(clear, 0, e, max(nx, ny)), e)
            assert trimmed[0] <= exact[0] and exact[1] <= trimmed[1]
            assert trimmed[2] <= exact[2] and exact[3] <= trimmed[3]
            highs = (trimmed[0], exact[1], trimmed[2], exact[3])
            first = bounding_box(other)
            for superset in (trimmed, highs):
                if _pair_cut(superset, superset, pair_sq, mode):
                    assert _pair_cut(exact, exact, pair_sq, mode)
                if first is not None and _pair_cut(first, superset, pair_sq, mode):
                    assert _pair_cut(first, exact, pair_sq, mode)

        # the loop, at the one child (i, j); a node limit of 1 stops a child
        # that descends at its own first child
        cell = np.zeros((nx, ny), dtype=bool)
        cell[i, j] = True
        for second, clear_second in ((mask, clear), (other, clear_other)):
            if not (mask.any() and second.any()):
                continue
            problem = TestPackedDomains._problem(
                [cell, second, mask], {(1, 2): clear_second, (1, 3): clear, (2, 3): pair_sq}, mode
            )
            outcome = _Engine(problem, 1, None).run()
            if _pair_cut((i, i, j, j), bounding_box(second), clear_second, mode):
                expected = (0, 1, 0)  # the root's farthest-pair test
            else:
                boxes = [bounding_box(cleared(second, clear_second)), bounding_box(cleared(mask, clear))]
                if None in boxes:
                    expected = (1, 0, 1)
                elif _pair_cut(*boxes, pair_sq, mode):
                    expected = (1, 1, 0)
                else:
                    expected = (2, 0, 0)
            assert (outcome.nodes, outcome.farthest_pair, outcome.wipeout) == expected


    @pytest.mark.parametrize("mode, clear", [("restricted", 10), ("relaxed", 20)])
    def test_run_emptied_past_the_box_corner_counts_as_wipeout(self, mode, clear):
        """Circles 2 and 3 share the cells (0, 0) and (3, 3) of a 4 x 4
        grid, and circle 1 sits at (0, 3).  The clear empties their run
        although the box corner (3, 0) is allowed.  The trimmed box of
        that run is (1..3, 0..2), small enough for the pair threshold, so a
        staged test before the AND would count the child as a
        farthest-pair cut; it counts as a wipeout."""
        cell, pair = np.zeros((4, 4), dtype=bool), np.zeros((4, 4), dtype=bool)
        cell[0, 3] = pair[0, 0] = pair[3, 3] = True
        problem = TestPackedDomains._problem(
            [cell, pair, pair], {(1, 2): clear, (1, 3): clear, (2, 3): 100}, mode
        )
        outcome = solve(problem)
        assert (outcome.status, outcome.nodes, outcome.farthest_pair, outcome.wipeout) == (
            "infeasible", 1, 0, 1)


# --------------------------------------------------------------------------
# reference node loop: a plain depth-first search on numpy masks
# --------------------------------------------------------------------------


class _Stop(Exception):
    """The reference search passed its node limit at a node whose circles
    had the domains ``domains``."""

    def __init__(self, domains: list[np.ndarray]) -> None:
        self.domains = domains


def reference_search(problem: FeasibilityProblem, max_nodes: int):
    """((status, nodes, farthest_pair, wipeout, assignment), positions,
    domains) of a plain depth-first search, with the counting rules of the
    feasibility module docstring and none of the engine's machinery: numpy
    masks, each unassigned circle cleared on its own with ``forbidden`` at
    every cell, and the farthest-pair test on exact bounding boxes.
    ``positions`` and ``domains`` are the state the search ends in: the
    placed circles' positions (None for the others) and, after a stop, the
    domains of the node where it stopped, else the start domains.

    Circles are placed in id order, each trying its candidates nearest the
    previous circle's position first (the container centre for circle 1),
    ties broken by row, then column.  A child counts one node at its start,
    and the search stops at the node that passes ``max_nodes``.  A child
    clears circles t+1 and t+2, then takes the farthest-pair test, then
    clears the rest: it counts under the first rule that prunes it.  The
    last circle counts one node per candidate left, or one when none is.
    """
    n, mode, grid = problem.instance.n, problem.mode, problem.grid
    threshold = {(a, b): _pair_min_sq(problem, a + 1, b + 1)
                 for a in range(n) for b in range(a + 1, n)}
    start = [problem.domains[cid] for cid in range(1, n + 1)]
    if not all(mask.any() for mask in start):
        return ("infeasible", 0, 0, 0, None), [None] * n, start
    if grid.kind == "circle":
        ref = (float(grid.theta), float(grid.theta))
    else:
        ref = (grid.theta / 2.0, float(grid.width_exact / (2 * grid.delta_exact)))
    if mode == "relaxed":
        ref = (ref[0] - 0.5, ref[1] - 0.5)
    shape = problem.domains[1].shape
    ii, jj = np.indices(shape)
    count = {"nodes": 0, "farthest_pair": 0, "wipeout": 0}
    positions: list[tuple[int, int]] = []

    def tick(domains: list[np.ndarray], nodes: int = 1) -> None:
        count["nodes"] += nodes
        if count["nodes"] > max_nodes:
            raise _Stop(domains)

    def ordered(mask: np.ndarray) -> list[tuple[int, int]]:
        pi, pj = positions[-1] if positions else ref
        cells = [(int(i), int(j)) for i, j in np.argwhere(mask)]
        return sorted(cells, key=lambda c: ((c[0] - pi) ** 2 + (c[1] - pj) ** 2, c))

    def farthest_cut(domains: list[np.ndarray], a: int) -> bool:
        if a + 1 >= n:
            return False
        a0, a1, a2, a3 = bounding_box(domains[a])
        b0, b1, b2, b3 = bounding_box(domains[a + 1])
        di, dj = max(a1 - b0, b1 - a0), max(a3 - b2, b3 - a2)
        if not forbidden(di, dj, threshold[a, a + 1], mode):
            return False
        count["farthest_pair"] += 1
        return True

    def dfs(t: int, domains: list[np.ndarray]) -> bool:
        if t == n - 1:
            cells = ordered(domains[t])
            tick(domains, len(cells) or 1)
            if cells:
                positions.append(cells[0])
            return bool(cells)
        for i, j in ordered(domains[t]):
            tick(domains)
            child = list(domains)
            pruned = False
            for k in range(t + 1, n):
                child[k] = domains[k] & ~forbidden(ii - i, jj - j, threshold[t, k], mode)
                if not child[k].any():
                    count["wipeout"] += 1
                    pruned = True
                    break
                if k == t + 2 and farthest_cut(child, t + 1):
                    pruned = True
                    break
            if pruned:
                continue
            positions.append((i, j))
            if dfs(t + 1, child):
                return True
            positions.pop()
        return False

    try:
        found = not farthest_cut(start, 0) and dfs(0, start)
        status, domains = "feasible" if found else "infeasible", start
    except _Stop as stop:
        found, status, domains = False, "unknown", stop.domains
    assignment = {t + 1: p for t, p in enumerate(positions)} if found else None
    outcome = status, count["nodes"], count["farthest_pair"], count["wipeout"], assignment
    return outcome, positions + [None] * (n - len(positions)), domains


@st.composite
def runs_problems(draw) -> FeasibilityProblem:
    """3 to 6 circles whose radii repeat 2 or 3 values, so that runs of 1 to
    3 circles sharing a domain occur, in a disc or a strip, on a grid of at
    most about 8 steps a side, in a drawn mode, with or without symmetry."""
    values = draw(st.lists(st.floats(0.6, 1.4), min_size=2, max_size=3, unique=True))
    n = draw(st.sampled_from([3, 4, 5, 6]))
    radii = sorted((draw(st.sampled_from(values)) for _ in range(n)), reverse=True)
    r_max, r_min = radii[0], radii[-1]
    if draw(st.booleans()):
        instance = Instance.from_radii("runs", radii)
        # from the area bound up to the side-by-side size, capped so that
        # theta stays small
        lo = max(1.01 * r_max, math.sqrt(sum(r * r for r in radii)))
        size = draw(st.floats(lo, max(1.01 * lo, min(sum(radii), 4.0 * r_min))))
        theta_min = math.floor(size * math.sqrt(2.0) / r_min) + 1
        theta = draw(st.integers(theta_min, max(theta_min, 6)))
        grid = grid_for_instance(instance, size, size / theta)
    else:
        width = draw(st.floats(2.0 * r_max, 2.0 * (r_max + radii[1])))
        instance = Instance.from_radii("runs", radii, StripContainer(width))
        size = draw(st.floats(2.0 * r_max, 2.0 * sum(radii)))
        delta = min(max(size, width) / 8.0, 0.99 * r_min / math.sqrt(2.0))
        grid = grid_for_instance(instance, size, delta)
    mode = draw(st.sampled_from(["restricted", "relaxed"]))
    return build_problem(instance, grid, mode, symmetry=draw(st.booleans()))


def _run_lengths(problem: FeasibilityProblem) -> list[int]:
    """Lengths of the runs at the root node: adjacent circles 2..n that
    share one engine domain and one threshold against circle 1."""
    engine = _Engine(problem, MAX_NODES, None)
    lengths, k = [], 1
    while k < engine.n:
        stop = k + 1
        while (stop < engine.n and engine.masks[stop] is engine.masks[k]
               and engine.min_sq[0][stop] == engine.min_sq[0][k]):
            stop += 1
        lengths.append(stop - k)
        k = stop
    return lengths


class TestReferenceLoop:
    """The engine's node loop, with its runs, its lazy farthest-pair test and
    its writes for descending children only, against ``reference_search``."""

    # full searches stop here; a reference node costs numpy calls per circle
    CAP = 1500

    # most draws are small searches, and the cases that tell a wrong box or
    # a wrong counting order apart are a few per hundred draws, so this test
    # takes four times the profile's examples
    @settings(deadline=None, max_examples=4 * settings.default.max_examples)
    @given(problem=runs_problems(), fraction=st.floats(0.0, 1.0))
    # the smallest draw found on which the farthest-pair test, reading the
    # first run's box twice, differs: circle 2 alone in the first run
    @example(
        problem=build_problem(
            Instance.from_radii("eq3", [1.0, 1.0, 1.0]),
            grid_for_instance(Instance.from_radii("eq3", [1.0, 1.0, 1.0]), 2.0, 0.5),
            "relaxed",
        ),
        fraction=1.0,
    )
    def test_matches_reference_search(self, problem, fraction):
        """Status, nodes, both prune counts and the assignment, and the
        positions and domains the search ends in, at the full count (up to
        a cap) and at a node limit the fraction ``fraction`` of it."""
        if problem.trivially_infeasible:
            outcome = solve(problem)
            got = (outcome.status, outcome.nodes, outcome.farthest_pair,
                   outcome.wipeout, outcome.assignment)
            assert got == reference_search(problem, self.CAP)[0]
            return
        full = solve(problem, max_nodes=self.CAP)
        for max_nodes in sorted({self.CAP, max(1, round(fraction * full.nodes))}):
            engine = _Engine(problem, max_nodes, None)
            outcome = engine.run()
            got = (outcome.status, outcome.nodes, outcome.farthest_pair,
                   outcome.wipeout, outcome.assignment)
            expected, positions, domains = reference_search(problem, max_nodes)
            assert got == expected, max_nodes
            assert engine.positions == positions
            for domain, mask in zip(engine.masks, domains):
                _assert_domain_is(engine, domain, mask)

    @pytest.mark.parametrize("mode", ["restricted", "relaxed"])
    def test_child_that_both_rules_prune_counts_as_farthest_pair(self, mode):
        """Four unit circles at spacing 0.5 (threshold 16), each domain one
        cell.  Circle 1's only child keeps circles 2 and 3, which are too
        close for each other, and would empty circle 4: it counts once, as
        a farthest-pair cut, since that test runs before circle 4's clear."""
        instance = Instance.from_radii("both", [1.0] * 4)
        grid = grid_for_instance(instance, 4.0, 0.5)
        problem = build_problem(instance, grid, mode)
        cells = {1: (8, 8), 2: (8, 14), 3: (10, 14), 4: (8, 10)}
        domains = {}
        for cid, cell in cells.items():
            mask = np.zeros_like(problem.domains[cid])
            mask[cell] = True
            domains[cid] = mask
        problem = dataclasses.replace(problem, domains=domains)
        outcome = solve(problem)
        got = (outcome.status, outcome.nodes, outcome.farthest_pair,
               outcome.wipeout, outcome.assignment)
        assert got == ("infeasible", 1, 1, 0, None)
        assert got == reference_search(problem, self.CAP)[0]

    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_draws_hold_runs(self, length):
        """The drawn problems hold runs of one, two and three circles."""
        find(
            runs_problems(),
            lambda problem: not problem.trivially_infeasible
            and length in _run_lengths(problem),
            settings=settings(database=None, max_examples=500),
        )


# Search traces recorded with the engine that copied every unassigned
# domain at every child (commit a601e24), at the first trial of a run with
# relaxed-search budgets (eq-07, strip-b) and at two zimm-06 trials: the
# status, the node count, the farthest-pair and wipeout counts (recorded at
# commit 1fe458f, before the box-corner wipeout test), the positions when the
# search stopped (the assignment when feasible) and the candidates left in
# each domain then.  The strip-a, strip-c and zimm-14 traces were recorded
# at commit ce1edf0, with the per-circle node loop: strip-a (radii 2, 1.5,
# 1.5, 1, 1) and strip-c (3, 2, 2, 1) hold runs of two equal circles among
# mixed radii, the strip-a trace at 1500 nodes stops inside a run of pruned
# siblings, and zimm-14's is its first restricted driver trial, on a 201 x
# 201 grid.
INSTANCE_DIR = Path(circlepack.__file__).parent / "data" / "instances"
TRACE_GRIDS = {
    ("eq-07", 2.822875655533296): 0.04428108611717624,
    ("strip-b", 5.356197490192345): 0.1609521274519139,
    ("zimm-06", 11.086517007382739): 0.12037148853250745,
    ("zimm-06", 11.060185744266253): 0.12037148853250745,
    ("strip-a", 9.239869883949108): 0.044194173824159216,
    ("strip-c", 12.791385577790518): 0.05040921424670558,
    ("zimm-14", 35.110484684327254): 0.35355339059327373,
}
PINNED_TRACES = (
    ("eq-07", 2.822875655533296, "relaxed", 3000, "unknown", 3001, 1230, 1719,
     ((67, 68), (23, 73), None, None, None, None, None),
     (1378, 101, 117, 117, 117, 117, 117)),
    ("eq-07", 2.822875655533296, "restricted", 3000, "unknown", 3001, 1983, 980,
     ((72, 66), None, None, None, None, None, None),
     (1378, 212, 252, 252, 252, 252, 252)),
    ("strip-b", 5.356197490192345, "relaxed", 3000, "unknown", 3001, 2202, 440,
     ((19, 15), (10, 8), None, None, None, None),
     (88, 48, 4, 4, 4, 4)),
    ("strip-b", 5.356197490192345, "restricted", 3000, "unknown", 3001, 846, 2077,
     ((25, 17), None, None, None, None, None),
     (88, 94, 94, 94, 94, 94)),
    ("strip-b", 5.356197490192345, "restricted", 10000, "infeasible", 5398, 1669, 3608,
     (None, None, None, None, None, None),
     (88, 218, 218, 218, 218, 218)),
    ("zimm-06", 11.086517007382739, "restricted", 3000, "feasible", 1243, 25, 347,
     ((124, 122), (47, 71), (115, 38), (50, 139), (159, 64), (173, 85)),
     (145, 160, 1324, 4531, 9568, 16423)),
    ("zimm-06", 11.086517007382739, "relaxed", 3000, "feasible", 1461, 0, 4,
     ((118, 124), (51, 62), (123, 41), (43, 128), (64, 163), (84, 176)),
     (145, 163, 1334, 4555, 9622, 16524)),
    ("zimm-06", 11.060185744266253, "restricted", 3000, "infeasible", 275, 20, 241,
     (None, None, None, None, None, None),
     (124, 134, 1248, 4348, 9264, 15975)),
    ("zimm-06", 11.060185744266253, "relaxed", 3000, "feasible", 1441, 0, 0,
     ((118, 122), (49, 64), (119, 39), (44, 130), (67, 163), (88, 174)),
     (124, 136, 1257, 4374, 9314, 16072)),
    ("strip-a", 9.239869883949108, "restricted", 3000, "unknown", 3001, 680, 2313,
     ((161, 68), None, None, None, None),
     (749, 2196, 2196, 5057, 5057)),
    ("strip-a", 9.239869883949108, "restricted", 1500, "unknown", 1501, 672, 826,
     ((161, 67), None, None, None, None),
     (749, 2190, 2190, 5044, 5044)),
    ("strip-a", 9.239869883949108, "relaxed", 3000, "feasible", 642, 634, 0,
     ((155, 67), (84, 34), (34, 79), (25, 24), (89, 90)),
     (749, 2519, 2519, 7040, 7040)),
    ("strip-c", 12.791385577790518, "restricted", 3000, "infeasible", 369, 353, 16,
     (None, None, None, None),
     (369, 11, 11, 10607)),
    ("strip-c", 12.791385577790518, "relaxed", 3000, "feasible", 1051, 360, 0,
     ((193, 67), (99, 39), (39, 89), (26, 32)),
     (369, 8, 8, 10634)),
    ("zimm-14", 35.110484684327254, "restricted", 3000, "unknown", 3001, 2491, 387,
     ((107, 113), (54, 57), (124, 39), (36, 123), (169, 84), (71, 168),
      None, None, None, None, None, None, None, None),
     (2758, 2, 16, 3, 3, 2, 40, 454, 939, 1515, 2192, 3185, 4652, 6939)),
)


class TestPinnedSearchTrace:
    @pytest.fixture(scope="class")
    def problems(self):
        built = {}
        for (name, size), delta in TRACE_GRIDS.items():
            instance = read_instance(INSTANCE_DIR / f"{name}.json").instance
            grid = grid_for_instance(instance, size, delta)
            regions = propagate(build_region_map(instance, size, grid), instance.radii)
            for mode in ("restricted", "relaxed"):
                built[(name, size, mode)] = build_problem(instance, grid, mode, regions)
        return built

    @pytest.mark.parametrize(
        "trace", PINNED_TRACES, ids=lambda t: "-".join(map(str, t[:4]))
    )
    def test_engine_reproduces_recorded_search(self, problems, trace):
        (name, size, mode, max_nodes, status, nodes, farthest_pair, wipeout,
         positions, left) = trace
        problem = problems[(name, size, mode)]
        engine = _Engine(problem, max_nodes, None)
        outcome = engine.run()
        assert (outcome.status, outcome.nodes) == (status, nodes)
        assert (outcome.farthest_pair, outcome.wipeout) == (farthest_pair, wipeout)
        assert tuple(engine.positions) == positions
        assert tuple(rows.bit_count() for rows, _, _ in engine.masks) == left
        expected = (
            {cid: positions[cid - 1] for cid in range(1, len(positions) + 1)}
            if status == "feasible"
            else None
        )
        assert outcome.assignment == expected

    @pytest.mark.parametrize(
        "trace", PINNED_TRACES, ids=lambda t: "-".join(map(str, t[:4]))
    )
    def test_reference_search_reproduces_recorded_search(self, problems, trace):
        """The same traces from ``reference_search``, on grids, circle
        counts and region-reduced domains far past the small draws of
        ``TestReferenceLoop``."""
        (name, size, mode, max_nodes, status, nodes, farthest_pair, wipeout,
         positions, left) = trace
        expected = (
            {cid: positions[cid - 1] for cid in range(1, len(positions) + 1)}
            if status == "feasible"
            else None
        )
        got, got_positions, domains = reference_search(problems[(name, size, mode)], max_nodes)
        assert got == (status, nodes, farthest_pair, wipeout, expected)
        assert tuple(got_positions) == positions
        assert tuple(int(mask.sum()) for mask in domains) == left


class TestSolveBehaviour:
    @pytest.mark.parametrize(
        "radii, size, delta",
        [([1.0, 0.75, 0.5], 1.8, 0.1), ([1.0] * 5, 2.8, 0.35)],
        ids=["mixed", "equal"],
    )
    def test_solve_is_deterministic(self, radii, size, delta):
        instance = Instance.from_radii("det", radii)
        grid = grid_for_instance(instance, size, delta)
        for mode in ("restricted", "relaxed"):
            problem = build_problem(instance, grid, mode)
            first = solve(problem)
            second = solve(problem)
            assert first.status == second.status
            assert first.assignment == second.assignment
            assert first.nodes == second.nodes
            counts = (first.farthest_pair, first.wipeout)
            assert counts == (second.farthest_pair, second.wipeout)

    def test_node_limit_reports_unknown(self):
        instance = Instance.from_radii("fig", [1.0, 0.75, 0.5])
        grid = grid_for_instance(instance, 1.8, 0.1)
        problem = build_problem(instance, grid, "restricted")
        max_nodes = 1
        outcome = solve(problem, max_nodes=max_nodes)
        assert outcome.is_unknown
        assert outcome.reason == "node-limit"
        assert outcome.nodes <= max_nodes + 1

    def test_time_limit_reports_unknown(self):
        instance = Instance.from_radii("fig", [1.0, 0.75, 0.5])
        grid = grid_for_instance(instance, 1.8, 0.1)
        problem = build_problem(instance, grid, "restricted")
        outcome = solve(problem, deadline=time.perf_counter())
        assert outcome.is_unknown
        assert outcome.reason == "timeout"

    def test_fine_grid_feasible_coarse_grid_infeasible(self):
        instance = Instance.from_radii("fig", [1.0, 0.75, 0.5])
        fine = grid_for_instance(instance, 1.8, 0.1)
        coarse = grid_for_instance(instance, 1.8, 0.3)
        for grid, expected in ((fine, "feasible"), (coarse, "infeasible")):
            problem = build_problem(instance, grid, "restricted")
            outcome = solve(problem)
            assert outcome.status == expected
            if outcome.is_feasible:
                placement = assignment_to_placement(grid, outcome.assignment)
                assert verify_placement(instance, placement, tolerance=0).feasible

    def test_reduced_regions_do_not_change_the_answer(self):
        rng = np.random.default_rng(1234)
        for _ in range(15):
            instance, grid, size = _random_small_problem(rng)
            regions = propagate(
                build_region_map(instance, size, grid), instance.radii
            )
            if instance.is_strip or regions is None:
                continue
            for mode in ("restricted", "relaxed"):
                with_regions = solve(build_problem(instance, grid, mode, regions))
                without = solve(build_problem(instance, grid, mode))
                assert with_regions.status == without.status


@settings(max_examples=25)
@given(
    radii=st.lists(
        st.floats(min_value=0.7, max_value=1.3, allow_nan=False),
        min_size=2,
        max_size=3,
    ),
    slack=st.floats(min_value=1.1, max_value=1.6),
)
def test_property_generous_container_always_restricted_feasible(radii, slack):
    """A container sized past the trivial row bound packs once the spacing
    is fine relative to the slack, and the assignment verifies exactly.

    A row layout with balanced clearances keeps every constraint margin at
    least half the spare sum-minus-size, while snapping centers to the
    lattice and rounding thresholds costs under 1.6 cell widths, so a
    spacing of one sixth of the spare always leaves a lattice solution.
    """
    instance = Instance.from_radii("gen", radii)
    total = sum(radii)
    size = total * slack
    spare = size - total
    grid = grid_for_instance(instance, size, spare / 6.0)
    problem = build_problem(instance, grid, "restricted")
    outcome = solve(problem)
    assert outcome.is_feasible
    placement = assignment_to_placement(grid, outcome.assignment)
    assert verify_placement(instance, placement, tolerance=0).feasible
