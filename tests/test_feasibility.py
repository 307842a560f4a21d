"""Tests for the branch-and-prune feasibility solver.

The reference oracle below decides small problems (at most three circles)
by exhaustive vectorized enumeration over the candidate domains, deriving
the pairwise integer thresholds independently from exact rational
arithmetic.  The solver must agree with it in both modes and under every
pruning configuration.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlepack.feasibility import (
    FeasibilityProblem,
    PruneConfig,
    SolveLimits,
    _Engine,
    assignment_to_placement,
    build_problem,
    solve,
)
from circlepack.bounds import idle_area_triple
from circlepack.geometry import Instance, StripContainer, exact, verify_placement
from circlepack.grid import forbidden, grid_for_instance, sep_holds, separation_frontier
from circlepack.reduction import build_region_map, propagate


# --------------------------------------------------------------------------
# reference oracle: exhaustive enumeration for <= 3 circles
# --------------------------------------------------------------------------


def _pair_min_sq(problem: FeasibilityProblem, a: int, b: int) -> int:
    """Independent threshold: ceil(((r_a + r_b) / delta)^2), exactly."""
    grid = problem.grid
    r_sum = exact(problem.radii[a - 1]) + exact(problem.radii[b - 1])
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
    pts = [np.argwhere(problem.domains[cid].mask) for cid in range(1, n + 1)]
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


# --------------------------------------------------------------------------
# build_problem
# --------------------------------------------------------------------------


class TestBuildProblem:
    def test_single_circle_filling_container_has_one_candidate(self):
        instance = Instance.from_radii("one", [2.0])
        grid = grid_for_instance(instance, 2.0, 0.5)
        problem = build_problem(instance, grid, "restricted")
        assert problem.domains[1].count == 1
        assert problem.domains[1].mask[grid.theta, grid.theta]

    def test_three_circle_example_domains_nonempty(self):
        instance = Instance.from_radii("fig", [1.0, 0.75, 0.5])
        grid = grid_for_instance(instance, 1.8, 0.3)
        for mode in ("restricted", "relaxed"):
            problem = build_problem(instance, grid, mode)
            assert not problem.trivially_infeasible
            for cid in (1, 2, 3):
                assert problem.domains[cid].count > 0

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
        for i, j in problem.domains[1].indices():
            assert i >= grid.theta and j >= grid.theta
        assert all(j >= i for i, j in problem.domains[2].indices())
        free = build_problem(instance, grid, "restricted", symmetry=False)
        for cid in (1, 2, 3):
            assert free.domains[cid].count >= problem.domains[cid].count

    def test_strip_symmetry_restricts_x_only_in_restricted_mode(self):
        instance = Instance.from_radii("s", [1.0, 0.8], StripContainer(2.5))
        grid = grid_for_instance(instance, 6.0, 0.25)
        problem = build_problem(instance, grid, "restricted")
        half = (grid.theta + 1) // 2
        assert all(i >= half for i, _ in problem.domains[1].indices())
        js = {j for _, j in problem.domains[1].indices()}
        assert len(js) > 1  # no lattice-level width restriction

    def test_reduced_regions_shrink_domains(self):
        instance = Instance.from_radii("fig", [1.0, 0.75, 0.5])
        grid = grid_for_instance(instance, 1.8, 0.1)
        regions = propagate(build_region_map(instance, 1.8, grid), instance.radii)
        assert regions is not None
        plain = build_problem(instance, grid, "restricted")
        cut = build_problem(instance, grid, "restricted", regions)
        for cid in (1, 2, 3):
            assert cut.domains[cid].count <= plain.domains[cid].count
            assert not (cut.domains[cid].mask & ~plain.domains[cid].mask).any()


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
        # coarse grid, with and without pruning
        instance = Instance.from_radii("tri", [1.0, 1.0, 1.0])
        grid = grid_for_instance(instance, 1.6, 0.35)
        problem = build_problem(instance, grid, "relaxed")
        assert solve(problem).is_infeasible
        assert solve(problem, prune=PruneConfig(False, False, False)).is_infeasible
        assert not brute_force_feasible(problem)

    def test_single_circle_centers_at_origin(self):
        instance = Instance.from_radii("one", [2.0])
        grid = grid_for_instance(instance, 2.0, 0.5)
        outcome = solve(build_problem(instance, grid, "restricted"))
        assert outcome.is_feasible
        assert outcome.assignment == {1: (grid.theta, grid.theta)}


# --------------------------------------------------------------------------
# solve: oracle equivalence, pruning neutrality, determinism, limits
# --------------------------------------------------------------------------

PRUNE_CONFIGS = (
    PruneConfig(True, True, True),
    PruneConfig(False, False, False),
    PruneConfig(True, False, False),
    PruneConfig(False, False, True),
)


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
                for prune in PRUNE_CONFIGS:
                    outcome = solve(problem, prune=prune)
                    assert outcome.status == (
                        "feasible" if expected else "infeasible"
                    ), f"{mode} {prune} disagrees with enumeration"
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
                r_sum = instance.radii[a - 1] + instance.radii[b - 1]
                bound = grid.max_index + math.ceil(r_sum / grid.delta) + 2
                frontier = separation_frontier(
                    r_sum, grid.delta_exact, "restricted", bound
                )
                assert frontier.min_sq_steps == min_sq
                assert sep_holds(ia - ib, ja - jb, frontier)
            for cid, (i, j) in outcome.assignment.items():
                assert problem.domains[cid].mask[i, j]
            placement = assignment_to_placement(grid, outcome.assignment)
            assert verify_placement(instance, placement, tolerance=0).feasible
        assert checked > 3

    def test_exact_tangency_instance_agrees_across_pruning(self):
        # radius sums 3-4-5 admit exactly tangent lattice triples at unit
        # spacing, exercising the sealed-idle-area branch of the area rule
        instance = Instance.from_radii("pyth", [3.0, 2.0, 1.0])
        for size in (5.0, 5.5, 6.5):
            grid = grid_for_instance(instance, size, 0.5)
            problem = build_problem(instance, grid, "restricted")
            statuses = {
                solve(problem, prune=prune).status for prune in PRUNE_CONFIGS
            }
            assert len(statuses) == 1


class TestEngineInternals:
    def test_sealed_idle_area_counted_for_exact_tangent_triple(self):
        instance = Instance.from_radii("pyth", [3.0, 2.0, 1.0])
        grid = grid_for_instance(instance, 9.0, 0.5)
        problem = build_problem(instance, grid, "restricted")
        engine = _Engine(problem, SolveLimits(), PruneConfig())
        t = grid.theta
        # mutually tangent right-triangle layout: offsets (8,0), (0,6) at
        # spacing 0.5 give exact pair distances 4, 3 and 5
        engine.positions[0] = (t + 8, t)
        engine.positions[1] = (t, t + 6)
        got = engine._new_idle(2, t, t)
        assert got == pytest.approx(idle_area_triple(3.0, 2.0, 1.0), rel=1e-12)

    def test_idle_area_skipped_when_cusp_could_hold_smallest_circle(self):
        # smallest circle radius below the inner tangent radius of the
        # (3,2,1) cusp (~0.2609), so sealing the cusp would over-prune
        instance = Instance.from_radii("pyth4", [3.0, 2.0, 1.0, 0.25])
        grid = grid_for_instance(instance, 9.0, 0.1)
        problem = build_problem(instance, grid, "restricted")
        engine = _Engine(problem, SolveLimits(), PruneConfig())
        t = grid.theta
        engine.positions[0] = (t + 40, t)
        engine.positions[1] = (t, t + 30)
        assert engine._new_idle(2, t, t) == 0.0

    def test_relaxed_mode_never_counts_idle_area(self):
        instance = Instance.from_radii("pyth", [3.0, 2.0, 1.0])
        grid = grid_for_instance(instance, 9.0, 0.5)
        problem = build_problem(instance, grid, "relaxed")
        engine = _Engine(problem, SolveLimits(), PruneConfig())
        assert engine.tangent_sq == {}


class TestSolveBehaviour:
    def test_single_thread_is_deterministic(self):
        instance = Instance.from_radii("fig", [1.0, 0.75, 0.5])
        grid = grid_for_instance(instance, 1.8, 0.1)
        problem = build_problem(instance, grid, "restricted")
        first = solve(problem)
        second = solve(problem)
        assert first.status == second.status
        assert first.assignment == second.assignment
        assert first.nodes == second.nodes

    def test_node_limit_reports_unknown(self):
        instance = Instance.from_radii("fig", [1.0, 0.75, 0.5])
        grid = grid_for_instance(instance, 1.8, 0.1)
        problem = build_problem(instance, grid, "restricted")
        max_nodes = 1
        outcome = solve(problem, limits=SolveLimits(max_nodes=max_nodes))
        assert outcome.is_unknown
        assert outcome.reason == "node-limit"
        assert outcome.nodes <= max_nodes + 1

    def test_time_limit_reports_unknown(self):
        instance = Instance.from_radii("fig", [1.0, 0.75, 0.5])
        grid = grid_for_instance(instance, 1.8, 0.1)
        problem = build_problem(instance, grid, "restricted")
        outcome = solve(problem, limits=SolveLimits(time_seconds=0.0))
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
