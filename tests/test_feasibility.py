"""Tests for the branch-and-prune feasibility solver.

The reference oracle below decides small problems (at most three circles)
by exhaustive vectorized enumeration over the candidate domains, deriving
the pairwise integer thresholds independently from exact rational
arithmetic.  The solver must agree with it in both modes and under every
pruning configuration.
"""

from __future__ import annotations

import math
from itertools import product
from pathlib import Path
from typing import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circlepack
from circlepack.feasibility import (
    FeasibilityProblem,
    PruneConfig,
    SolveLimits,
    _Engine,
    assignment_to_placement,
    build_problem,
    solve,
)
from circlepack.files import read_instance
from circlepack.geometry import Instance, StripContainer, exact, verify_placement
from circlepack.grid import (
    CandidateSet,
    _pack,
    _unpack,
    forbidden,
    grid_for_instance,
    min_sq_steps,
    separation_frontier,
)
from circlepack.reduction import build_region_map, propagate


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

    ``engine`` has three circles, a node limit of 1 and the farthest-pair
    rule off.  Circle 1's domain becomes the single cell (i, j), so the
    first node places it there.  When no domain empties, the node limit
    stops the search at the next node, and ``engine.masks`` keeps the
    domains that the elimination wrote for circles 2 and 3.  When one
    empties, the search puts the domains back and ends infeasible.
    """
    s, c = engine.row_stride, engine.col_stride
    engine.masks[0] = (1 << i * s + j, 1 << j * c + i, (i, i, j, j))
    engine.nodes = engine.wipeouts = 0
    outcome = engine.run()
    assert (outcome.status, outcome.nodes, outcome.wipeout) in {
        ("unknown", 2, 0),
        ("infeasible", 1, 1),
    }
    assert engine.positions[0] == ((i, j) if outcome.wipeout == 0 else None)
    return outcome.wipeout == 1


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
        assert solve(problem, prune=PruneConfig(farthest_pair=False, conditional=False)).is_infeasible
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

PRUNE_CONFIGS = tuple(
    PruneConfig(farthest_pair=fp, conditional=cond)
    for fp, cond in product((True, False), repeat=2)
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
                r_sum = exact(instance.radii[a - 1]) + exact(instance.radii[b - 1])
                assert min_sq_steps(r_sum, grid.delta_exact) == min_sq
                frontier = separation_frontier(min_sq, "restricted")
                assert any(
                    abs(ia - ib) >= u1 and abs(ja - jb) >= u2 for u1, u2 in frontier
                )
            for cid, (i, j) in outcome.assignment.items():
                assert problem.domains[cid].mask[i, j]
            placement = assignment_to_placement(grid, outcome.assignment)
            assert verify_placement(instance, placement, tolerance=0).feasible
        assert checked > 3

    def test_exact_tangency_instance_agrees_across_pruning(self):
        # radius sums 3-4-5 admit exactly tangent lattice triples at unit
        # spacing
        instance = Instance.from_radii("pyth", [3.0, 2.0, 1.0])
        for size in (5.0, 5.5, 6.5):
            grid = grid_for_instance(instance, size, 0.5)
            problem = build_problem(instance, grid, "restricted")
            statuses = {
                solve(problem, prune=prune).status for prune in PRUNE_CONFIGS
            }
            assert len(statuses) == 1


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
                    engine = _Engine(problem, SolveLimits(), PruneConfig())
                    if engine.masks[1] is engine.masks[2]:
                        shared[engine.min_sq[0][1] == engine.min_sq[0][2]] += 1
                    expected = brute_force_feasible(problem)
                    seen[expected] += 1
                    for prune in PRUNE_CONFIGS:
                        outcome = solve(problem, prune=prune)
                        assert outcome.status == (
                            "feasible" if expected else "infeasible"
                        ), f"{mode} symmetry={symmetry} {prune} disagrees"
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
                domains = [problem.domains[cid].mask for cid in (1, 2, 3)]
                ii, jj = np.indices(domains[0].shape)
                thresholds = [_pair_min_sq(problem, 1, cid) for cid in (2, 3)]
                engine = _Engine(
                    problem, SolveLimits(max_nodes=1), PruneConfig(farthest_pair=False)
                )
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
    def test_equal_circles_agree_across_pruning(self, n):
        instance = Instance.from_radii("eq", [1.0] * n)
        statuses = set()
        for size in (1.9, 2.2, 2.45, 2.8):
            for theta in (4, 6):
                grid = grid_for_instance(instance, size, size / theta)
                for mode in ("restricted", "relaxed"):
                    problem = build_problem(instance, grid, mode)
                    engine = _Engine(problem, SolveLimits(), PruneConfig())
                    assert engine.masks[2] is engine.masks[n - 1]
                    got = {solve(problem, prune=prune).status for prune in PRUNE_CONFIGS}
                    assert len(got) == 1, f"size {size} theta {theta} {mode}: {got}"
                    statuses |= got
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
    def _engine(mask: np.ndarray, min_sq: Mapping, mode: str) -> _Engine:
        """An engine whose three circles all have the domain ``mask``, set
        up for ``_place_first``; only its packing and clearing are
        exercised, so the grid is nominal."""
        instance = Instance.from_radii("bits", [1.0, 1.0, 1.0])
        problem = FeasibilityProblem(
            instance=instance,
            grid=grid_for_instance(instance, 4.0, 0.5),
            mode=mode,
            domains={cid: CandidateSet(cid, mode, mask) for cid in (1, 2, 3)},
            radii=instance.radii,
            min_sq=min_sq,
        )
        return _Engine(problem, SolveLimits(max_nodes=1), PruneConfig(farthest_pair=False))

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
                engine = self._engine(
                    mask, {(1, 2): clear, (1, 3): other, (2, 3): other}, mode
                )
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

        engine = self._engine(mask, {(1, 2): clear, (1, 3): other, (2, 3): other}, mode)
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


# Search traces recorded with the engine that copied every unassigned
# domain at every child (commit a601e24), at the first trial of a run with
# relaxed-search budgets (eq-07, strip-b) and at two zimm-06 trials: the
# status, the node count, the farthest-pair and wipeout counts (recorded at
# commit 1fe458f, before the box-corner wipeout test), the positions when the
# search stopped (the assignment when feasible) and the candidates left in
# each domain then.
INSTANCE_DIR = Path(circlepack.__file__).parent / "data" / "instances"
TRACE_GRIDS = {
    ("eq-07", 2.822875655533296): 0.04428108611717624,
    ("strip-b", 5.356197490192345): 0.1609521274519139,
    ("zimm-06", 11.086517007382739): 0.12037148853250745,
    ("zimm-06", 11.060185744266253): 0.12037148853250745,
}
TRACE_PRUNES = {
    "all": PruneConfig(farthest_pair=True, conditional=True),
    "nocond": PruneConfig(farthest_pair=True, conditional=False),
    "condonly": PruneConfig(farthest_pair=False, conditional=True),
}
PINNED_TRACES = (
    ("eq-07", 2.822875655533296, "relaxed", "all", 3000, "unknown", 3001, 1230, 1719,
     ((67, 68), (23, 73), None, None, None, None, None),
     (1378, 101, 117, 117, 117, 117, 117)),
    ("eq-07", 2.822875655533296, "relaxed", "nocond", 3000, "unknown", 3001, 0, 0,
     ((64, 67), (30, 39), None, None, None, None, None),
     (1378, 2290, 4474, 4474, 4474, 4474, 4474)),
    ("eq-07", 2.822875655533296, "relaxed", "condonly", 3000, "unknown", 3001, 0, 2772,
     ((67, 66), (23, 55), None, None, None, None, None),
     (1378, 79, 9, 9, 9, 9, 9)),
    ("eq-07", 2.822875655533296, "restricted", "all", 3000, "unknown", 3001, 1983, 980,
     ((72, 66), None, None, None, None, None, None),
     (1378, 212, 252, 252, 252, 252, 252)),
    ("eq-07", 2.822875655533296, "restricted", "nocond", 3000, "unknown", 3001, 0, 0,
     ((64, 67), None, None, None, None, None, None),
     (1378, 2246, 4409, 4409, 4409, 4409, 4409)),
    ("eq-07", 2.822875655533296, "restricted", "condonly", 3000, "unknown", 3001, 0, 2712,
     ((67, 70), (29, 44), None, None, None, None, None),
     (1378, 37, 14, 14, 14, 14, 14)),
    ("strip-b", 5.356197490192345, "relaxed", "all", 3000, "unknown", 3001, 2202, 440,
     ((19, 15), (10, 8), None, None, None, None),
     (88, 48, 4, 4, 4, 4)),
    ("strip-b", 5.356197490192345, "relaxed", "nocond", 3000, "unknown", 3001, 0, 0,
     ((17, 12), (8, 19), (6, 6), (27, 6), None, None),
     (88, 234, 234, 234, 234, 234)),
    ("strip-b", 5.356197490192345, "relaxed", "condonly", 3000, "unknown", 3001, 0, 1880,
     ((17, 13), (6, 19), (27, 19), (26, 6), None, None),
     (88, 15, 9, 8, 5, 5)),
    ("strip-b", 5.356197490192345, "restricted", "all", 3000, "unknown", 3001, 846, 2077,
     ((25, 17), None, None, None, None, None),
     (88, 94, 94, 94, 94, 94)),
    ("strip-b", 5.356197490192345, "restricted", "nocond", 3000, "unknown", 3001, 0, 0,
     ((19, 12), None, None, None, None, None),
     (88, 218, 218, 218, 218, 218)),
    ("strip-b", 5.356197490192345, "restricted", "condonly", 3000, "unknown", 3001, 0, 2690,
     ((19, 19), (27, 9), None, None, None, None),
     (88, 37, 30, 30, 30, 30)),
    ("strip-b", 5.356197490192345, "restricted", "all", 10000, "infeasible", 5398, 1669, 3608,
     (None, None, None, None, None, None),
     (88, 218, 218, 218, 218, 218)),
    ("strip-b", 5.356197490192345, "restricted", "nocond", 10000, "unknown", 10001, 0, 0,
     ((20, 13), (8, 19), None, None, None, None),
     (88, 218, 218, 218, 218, 218)),
    ("strip-b", 5.356197490192345, "restricted", "condonly", 10000, "unknown", 10001, 0, 8651,
     ((26, 18), None, None, None, None, None),
     (88, 113, 113, 113, 113, 113)),
    ("zimm-06", 11.086517007382739, "restricted", "all", 3000, "feasible", 1243, 25, 347,
     ((124, 122), (47, 71), (115, 38), (50, 139), (159, 64), (173, 85)),
     (145, 160, 1324, 4531, 9568, 16423)),
    ("zimm-06", 11.086517007382739, "restricted", "nocond", 3000, "unknown", 3001, 0, 0,
     ((122, 121), None, None, None, None, None),
     (145, 160, 1324, 4531, 9568, 16423)),
    ("zimm-06", 11.086517007382739, "restricted", "condonly", 3000, "feasible", 1442, 0, 546,
     ((124, 122), (47, 71), (115, 38), (50, 139), (159, 64), (173, 85)),
     (145, 160, 1324, 4531, 9568, 16423)),
    ("zimm-06", 11.086517007382739, "relaxed", "all", 3000, "feasible", 1461, 0, 4,
     ((118, 124), (51, 62), (123, 41), (43, 128), (64, 163), (84, 176)),
     (145, 163, 1334, 4555, 9622, 16524)),
    ("zimm-06", 11.086517007382739, "relaxed", "nocond", 3000, "unknown", 3001, 0, 0,
     ((118, 124), (52, 61), None, None, None, None),
     (145, 163, 1334, 4555, 9622, 16524)),
    ("zimm-06", 11.086517007382739, "relaxed", "condonly", 3000, "feasible", 1461, 0, 4,
     ((118, 124), (51, 62), (123, 41), (43, 128), (64, 163), (84, 176)),
     (145, 163, 1334, 4555, 9622, 16524)),
    ("zimm-06", 11.060185744266253, "restricted", "all", 3000, "infeasible", 275, 20, 241,
     (None, None, None, None, None, None),
     (124, 134, 1248, 4348, 9264, 15975)),
    ("zimm-06", 11.060185744266253, "restricted", "nocond", 3000, "unknown", 3001, 0, 0,
     ((128, 110), None, None, None, None, None),
     (124, 134, 1248, 4348, 9264, 15975)),
    ("zimm-06", 11.060185744266253, "restricted", "condonly", 3000, "infeasible", 402, 0, 368,
     (None, None, None, None, None, None),
     (124, 134, 1248, 4348, 9264, 15975)),
    ("zimm-06", 11.060185744266253, "relaxed", "all", 3000, "feasible", 1441, 0, 0,
     ((118, 122), (49, 64), (119, 39), (44, 130), (67, 163), (88, 174)),
     (124, 136, 1257, 4374, 9314, 16072)),
    ("zimm-06", 11.060185744266253, "relaxed", "nocond", 3000, "unknown", 3001, 0, 0,
     ((118, 122), (49, 64), (119, 39), None, None, None),
     (124, 136, 1257, 4374, 9314, 16072)),
    ("zimm-06", 11.060185744266253, "relaxed", "condonly", 3000, "feasible", 1441, 0, 0,
     ((118, 122), (49, 64), (119, 39), (44, 130), (67, 163), (88, 174)),
     (124, 136, 1257, 4374, 9314, 16072)),
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
        "trace", PINNED_TRACES, ids=lambda t: "-".join(map(str, t[:5]))
    )
    def test_engine_reproduces_recorded_search(self, problems, trace):
        (name, size, mode, prune, max_nodes, status, nodes, farthest_pair, wipeout,
         positions, left) = trace
        problem = problems[(name, size, mode)]
        engine = _Engine(problem, SolveLimits(max_nodes=max_nodes), TRACE_PRUNES[prune])
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
