"""Acceptance checks: one test per published criterion, tolerances pinned.

Every solver run executed here is tracked; the final criterion replays all
of their iteration logs against the certificate discipline.  The optional
long benchmark is marked 'extended' and runs only with
CIRCLEPACK_EXTENDED=1.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

import circlepack
from circlepack.bounds import idle_area_triple
from circlepack.driver import DriverLimits, run
from circlepack.feasibility import (
    assignment_to_placement,
    build_problem,
    solve,
)
from circlepack.files import read_instance
from circlepack.geometry import Instance, Placement, verify_placement
from circlepack.grid import grid_for_instance
from circlepack.milp import export_milp

from test_bounds import triple_idle_slices
from test_driver import replay_invariants
from test_feasibility import brute_force_feasible
from test_milp import enumerate_lp_feasible, parse_lp

INSTANCE_DIR = Path(circlepack.__file__).parent / "data" / "instances"

# Every run made by this module lands here; the last criterion replays them.
TRACKED_RUNS: list[tuple[Instance, object]] = []


def tracked_run(instance: Instance, epsilon: float, **kwargs):
    result = run(instance, epsilon, **kwargs)
    TRACKED_RUNS.append((instance, result))
    return result


def _bundled(name: str) -> Instance:
    return read_instance(INSTANCE_DIR / f"{name}.json").instance


@pytest.fixture(scope="module")
def bench_results():
    """One bounded run per bundled instance (the full bench suite)."""
    results = []
    for path in sorted(INSTANCE_DIR.glob("*.json")):
        loaded = read_instance(path)
        result = tracked_run(loaded.instance, 0.01, limits=DriverLimits(time_seconds=6.0))
        results.append((loaded, result))
    return results


# ---------------------------------------------------------------------------
# 1-4: end-to-end reproductions


def test_criterion_01_five_growing_circles_to_one_percent():
    instance = _bundled("zimm-05")
    result = tracked_run(
        instance,
        0.01,
        limits=DriverLimits(time_seconds=600.0),
    )
    assert result.status == "EpsOptimal"
    assert 9.001 <= result.upper <= 9.10
    assert result.gap <= 0.01
    assert result.elapsed <= 600.0
    print(
        f"criterion 1: PASS  U={result.upper:.6g} L={result.lower:.6g} "
        f"gap={100 * result.gap:.3g}% in {result.elapsed:.1f}s"
    )


def test_criterion_02_six_growing_circles_to_one_percent():
    instance = _bundled("zimm-06")
    result = tracked_run(
        instance,
        0.01,
        limits=DriverLimits(time_seconds=1800.0),
    )
    assert result.status == "EpsOptimal"
    assert result.upper <= 11.18
    assert result.gap <= 0.01
    assert result.elapsed <= 1800.0
    print(
        f"criterion 2: PASS  U={result.upper:.6g} L={result.lower:.6g} "
        f"gap={100 * result.gap:.3g}% in {result.elapsed:.1f}s"
    )


def test_criterion_03_seven_unit_circles_incumbent():
    # eq-07's seed U (3.0000000000020006) already meets 3.03, and the run
    # never reaches 1 %, so it spends its whole budget: the 6 s of the
    # bench_results runs, not more
    instance = _bundled("eq-07")
    result = tracked_run(instance, 0.01, limits=DriverLimits(time_seconds=6.0))
    assert result.incumbent is not None
    report = verify_placement(instance, result.incumbent, tolerance=0.0)
    assert report.feasible
    assert result.upper <= 3.03
    assert result.elapsed <= 300.0
    print(
        f"criterion 3: PASS  U={result.upper:.6g} incumbent verified at tolerance 0 "
        f"in {result.elapsed:.1f}s"
    )


@pytest.mark.extended
def test_criterion_04_twenty_unit_circles_extended():
    instance = _bundled("eq-20")
    result = tracked_run(instance, 0.01, limits=DriverLimits(time_seconds=3600.0))
    assert result.upper <= 5.122 * 1.01
    print(
        f"criterion 4: PASS  U={result.upper:.6g} vs reference 5.122 "
        f"in {result.elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# 5: solver vs exhaustive enumeration


def _random_triple_problem(rng: np.random.Generator):
    """Three circles on a coarse grid (index radius <= 6), oracle-enumerable."""
    radii = np.sort(rng.uniform(0.6, 1.4, size=3))[::-1]
    r_min = float(radii[-1])
    lo = float(radii[0]) * 1.01
    hi = max(lo + 0.05, float(radii.sum()))
    size = float(rng.uniform(lo, min(hi, 4.0 * r_min)))
    theta_min = math.floor(size * math.sqrt(2.0) / r_min) + 1
    theta = int(rng.integers(theta_min, 7)) if theta_min < 7 else theta_min
    instance = Instance.from_radii("oracle-trio", radii.tolist())
    grid = grid_for_instance(instance, size, size / theta)
    assert grid.theta <= 6
    return instance, grid


def test_criterion_05_oracle_equivalence_three_circles():
    rng = np.random.default_rng(20260814)
    agreements = 0
    for _ in range(200):
        instance, grid = _random_triple_problem(rng)
        for mode in ("restricted", "relaxed"):
            problem = build_problem(instance, grid, mode)
            expected = "feasible" if brute_force_feasible(problem) else "infeasible"
            outcome = solve(problem)
            assert outcome.status == expected, (
                f"{mode} mode disagreed with enumeration "
                f"(radii={instance.radii}, size={float(grid.size)}, theta={grid.theta})"
            )
            agreements += 1
    print(f"criterion 5: PASS  {agreements} solve outcomes matched enumeration (200 instances)")


# ---------------------------------------------------------------------------
# 6: relaxed-infeasible certificates vs dense continuous search


def _relaxed_infeasible_case(rng: np.random.Generator):
    while True:
        n = int(rng.integers(2, 4))
        radii = np.sort(rng.uniform(0.6, 1.4, size=n))[::-1]
        r_min = float(radii[-1])
        lo = float(radii[0]) * 1.005
        hi = float(radii.sum())
        size = float(lo + (hi - lo) * rng.random() ** 2)
        theta_min = math.floor(size * math.sqrt(2.0) / r_min) + 1
        theta = int(rng.integers(theta_min, theta_min + 5))
        instance = Instance.from_radii("soundness", radii.tolist())
        grid = grid_for_instance(instance, size, size / theta)
        outcome = solve(build_problem(instance, grid, "relaxed"))
        if outcome.status == "infeasible":
            return instance, size


def _continuous_counterexample(instance: Instance, size: float, rng: np.random.Generator) -> bool:
    """True if dense sampling + local search finds an exact packing at size."""
    radii = np.asarray(instance.radii, dtype=float)
    n = radii.size
    reach = size - radii
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    need = {(a, b): (radii[a] + radii[b]) ** 2 for a, b in pairs}

    def exact_packing(flat: np.ndarray) -> bool:
        centers = {cid + 1: (float(flat[2 * cid]), float(flat[2 * cid + 1])) for cid in range(n)}
        report = verify_placement(
            instance, Placement(centers=centers, container_size=size), tolerance=0.0
        )
        return report.feasible

    def penalty(flat: np.ndarray) -> float:
        x = flat[0::2]
        y = flat[1::2]
        value = 0.0
        for (a, b), threshold in need.items():
            gap = threshold - ((x[a] - x[b]) ** 2 + (y[a] - y[b]) ** 2)
            if gap > 0:
                value += gap * gap
        outside = np.hypot(x, y) - reach
        value += float(np.sum(np.clip(outside, 0.0, None) ** 2))
        return value

    starts: list[tuple[float, np.ndarray]] = []
    per_batch, batches = 20_000, 5  # 1e5 samples total
    for _ in range(batches):
        u = rng.random((per_batch, n))
        ang = rng.random((per_batch, n)) * (2.0 * math.pi)
        rad = np.sqrt(u) * reach
        x = rad * np.cos(ang)
        y = rad * np.sin(ang)
        pen = np.zeros(per_batch)
        for (a, b), threshold in need.items():
            gap = threshold - ((x[:, a] - x[:, b]) ** 2 + (y[:, a] - y[:, b]) ** 2)
            pen += np.clip(gap, 0.0, None) ** 2
        order = np.argsort(pen)[:3]
        for row in order:
            flat = np.empty(2 * n)
            flat[0::2] = x[row]
            flat[1::2] = y[row]
            if pen[row] == 0.0 and exact_packing(flat):
                return True
            starts.append((float(pen[row]), flat))

    starts.sort(key=lambda item: item[0])
    for _, flat in starts[:12]:
        refined = minimize(penalty, flat, method="L-BFGS-B")
        if refined.fun <= 1e-20 and exact_packing(refined.x):
            return True
    return False


def test_criterion_06_relaxation_soundness():
    rng = np.random.default_rng(6)
    for case in range(100):
        instance, size = _relaxed_infeasible_case(rng)
        assert not _continuous_counterexample(instance, size, rng), (
            f"case {case}: continuous packing found despite relaxed-infeasible "
            f"certificate (radii={instance.radii}, size={size})"
        )
    print("criterion 6: PASS  100 relaxed-infeasible certificates survived 1e5-sample searches")


# ---------------------------------------------------------------------------
# 7: restricted certificates are exact


def test_criterion_07_restriction_soundness(bench_results):
    verified_incumbents = 0
    for loaded, result in bench_results:
        if result.incumbent is None:
            continue
        report = verify_placement(loaded.instance, result.incumbent, tolerance=0.0)
        assert report.feasible, f"{loaded.instance.name}: incumbent fails exact verification"
        verified_incumbents += 1

    lattice_checked = 0
    strip_witnesses = 0
    for loaded, result in bench_results:
        instance = loaded.instance
        if instance.n > 12:
            continue
        size = result.bounds.ub * 1.10
        grid = grid_for_instance(instance, size, instance.min_radius / 3.0)
        problem = build_problem(instance, grid, "restricted")
        outcome = solve(problem, max_nodes=2_000_000, deadline=time.perf_counter() + 10.0)
        if outcome.status != "feasible":
            # A coarse lattice may genuinely lack a packing even above the
            # optimum (the restriction only converges as spacing shrinks).
            continue
        placement = assignment_to_placement(grid, outcome.assignment)
        report = verify_placement(instance, placement, tolerance=0.0)
        assert report.feasible, f"{instance.name}: lattice witness fails exact verification"
        lattice_checked += 1
        strip_witnesses += instance.is_strip
    assert verified_incumbents >= 20
    assert lattice_checked >= 10
    assert strip_witnesses >= 1
    print(
        f"criterion 7: PASS  {verified_incumbents} incumbents and "
        f"{lattice_checked} fresh lattice witnesses ({strip_witnesses} strip) "
        "verified at tolerance 0"
    )


# ---------------------------------------------------------------------------
# 8: idle-area formulas vs Monte-Carlo


def test_criterion_08_idle_area_formulas():
    closed_form = math.sqrt(3.0) - math.pi / 2.0
    assert abs(idle_area_triple(1.0, 1.0, 1.0) - closed_form) <= 1e-9

    rng = np.random.default_rng(8)
    worst = 0.0
    for trial in range(100):
        r = rng.uniform(0.5, 3.0, size=3)
        value = idle_area_triple(*r)
        estimate = triple_idle_slices(*r, seed=trial)
        relative = abs(value - estimate) / max(value, 1e-12)
        worst = max(worst, relative)
        assert relative <= 1e-3, f"radii={r}: formula {value} vs Monte-Carlo {estimate}"
    print(
        f"criterion 8: PASS  unit triple exact to 1e-9; "
        f"100 random triples within 1e-3 of Monte-Carlo (worst {worst:.2e})"
    )


# ---------------------------------------------------------------------------
# 9: certified bounds vs best-known values


def test_criterion_09_bound_audit(bench_results):
    audited = 0
    for loaded, result in bench_results:
        best = loaded.best_known
        if best is None:
            continue
        audited += 1
        name = loaded.instance.name
        bounds = result.bounds
        for label, value in (
            ("lb1", bounds.lb1),
            ("lb2", bounds.lb2),
            ("lb3", bounds.lb3),
        ):
            assert value <= best + 1e-3, f"{name}: {label}={value} exceeds best known {best}"
        assert result.lower <= best + 1e-3, f"{name}: L={result.lower} exceeds best known {best}"
        assert best <= result.upper + 1e-3, f"{name}: U={result.upper} below best known {best}"
    assert audited == 19
    print(f"criterion 9: PASS  {audited} instances audited: L <= best-known <= U, LB1-LB3 <= best-known")


# ---------------------------------------------------------------------------
# 10: exported binary models agree with the solver


def test_criterion_10_milp_export_equivalence(tmp_path):
    rng = np.random.default_rng(10)
    statuses = set()
    for index in range(20):
        n = 1 if index % 4 == 0 else 2
        radii = np.sort(rng.uniform(0.8, 1.2, size=n))[::-1]
        r_min = float(radii[-1])
        size = float(rng.uniform(float(radii[0]) * 1.02, 2.05 * r_min))
        theta = int(rng.integers(2, 4))
        if size * math.sqrt(2.0) / theta >= r_min:
            theta = 3
        mode = "restricted" if index % 2 else "relaxed"
        instance = Instance.from_radii(f"toy-{index}", radii.tolist())
        grid = grid_for_instance(instance, size, size / theta)
        assert grid.theta <= 3
        problem = build_problem(instance, grid, mode)
        model = parse_lp(export_milp(problem, tmp_path / f"toy-{index}.lp"))
        lp_feasible, _ = enumerate_lp_feasible(model)
        outcome = solve(problem)
        assert outcome.status in ("feasible", "infeasible")
        assert lp_feasible == (outcome.status == "feasible"), (
            f"toy {index}: LP enumeration {lp_feasible} vs solver {outcome.status} "
            f"(mode={mode}, radii={radii}, size={size}, theta={grid.theta})"
        )
        statuses.add(outcome.status)
    assert statuses == {"feasible", "infeasible"}
    print("criterion 10: PASS  20 exported toy models agree with the solver in both directions")


# ---------------------------------------------------------------------------
# 11: every run's log obeys the certificate discipline


def test_criterion_11_driver_certificates(bench_results):
    # Two stress runs exercise refinement caps and perturbations.
    trio = Instance.from_radii("stress-trio", [1.0, 1.0, 1.0])
    tracked_run(
        trio,
        0.001,
        limits=DriverLimits(time_seconds=5.0, max_theta=24, max_perturbations=6),
    )
    pair = Instance.from_radii("stress-pair", [1.0, 0.6])
    tracked_run(pair, 0.005, limits=DriverLimits(time_seconds=5.0, solve_nodes=4096))

    assert len(TRACKED_RUNS) >= len(bench_results) + 2
    for instance, result in TRACKED_RUNS:
        replay_invariants(instance, result)
    print(
        f"criterion 11: PASS  {len(TRACKED_RUNS)} runs replayed: monotone bracket, "
        "certified moves only, trials within budget, verified incumbents"
    )
