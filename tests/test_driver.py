"""Tests for the bisection driver.

The replay helper re-walks a run's iteration log and enforces the
certificate discipline mechanically: the lower end may rise only at an
empty region propagation or an exhaustive relaxed infeasibility, the upper
end may fall only at a verified restricted packing, the bracket stays
ordered and monotone, the number of distinct trial sizes never exceeds
the bisection budget plus perturbations, and the final upper end carries
an incumbent placement that verifies at tolerance zero.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from circlepack import bounds
from circlepack.driver import DriverLimits, bisection_budget, run
from circlepack.geometry import Instance, StripContainer, verify_placement

from test_bounds import _recording

EQ3_OPT = 1.0 + 2.0 / math.sqrt(3.0)  # three unit circles


def replay_invariants(instance, result) -> None:
    lower = min(result.bounds.chosen_lb, result.bounds.ub)
    upper = result.bounds.ub
    for record in result.log:
        assert record.lower >= lower - 1e-12
        assert record.upper <= upper + 1e-12
        assert record.lower <= record.upper
        if record.lower > lower:
            assert (record.model, record.outcome) in (
                ("region", "empty"),
                ("relaxed", "infeasible"),
            ), record
        if record.upper < upper:
            assert (record.model, record.outcome) == (
                "restricted",
                "feasible",
            ), record
        if record.model != "region" and record.outcome == "unknown":
            assert record.reason in ("timeout", "node-limit"), record
        else:
            assert record.reason is None, record
        lower, upper = record.lower, record.upper
    assert result.lower == pytest.approx(lower)
    assert result.upper == pytest.approx(upper)
    budget = bisection_budget(
        result.epsilon, result.bounds.ub, min(result.bounds.chosen_lb, result.bounds.ub)
    )
    assert result.trials <= budget + result.perturbations
    incumbent = result.incumbent
    assert incumbent is not None
    assert verify_placement(instance, incumbent, tolerance=0.0).feasible
    assert Fraction(incumbent.container_size) <= Fraction(result.upper)


def assert_bracket_contains(result, optimum: float) -> None:
    assert result.lower <= optimum + 1e-9
    assert result.upper >= optimum - 1e-9
    for record in result.log:
        assert record.lower <= optimum + 1e-9
        assert record.upper >= optimum - 1e-9


class TestBudget:
    def test_spec_examples(self):
        assert bisection_budget(0.5, 2.0, 1.0) == 2
        assert bisection_budget(0.01, 15.0, 9.0) == 8
        assert bisection_budget(1.0, 2.0, 1.0) == 1

    def test_degenerate_bracket(self):
        assert bisection_budget(0.01, 5.0, 5.0) == 0
        assert bisection_budget(0.01, 5.0, 6.0) == 0

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            bisection_budget(0.0, 2.0, 1.0)


class TestValidation:
    def test_epsilon_out_of_range(self):
        instance = Instance.from_radii("solo", [1.0])
        for epsilon in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                run(instance, epsilon)

    def test_nonpositive_delta0(self):
        instance = Instance.from_radii("solo", [1.0])
        with pytest.raises(ValueError):
            run(instance, 0.01, delta0=-0.1)

    def test_oversized_delta0_is_capped(self):
        instance = Instance.from_radii("trio", [1.0, 1.0, 1.0])
        result = run(instance, 0.05, delta0=5.0)
        assert result.status == "EpsOptimal"
        replay_invariants(instance, result)


class TestImmediateConvergence:
    def test_single_circle_zero_model_solves(self):
        instance = Instance.from_radii("solo", [2.5])
        result = run(instance, 0.01)
        assert result.status == "EpsOptimal"
        assert result.lower == result.upper == 2.5
        assert result.trials == 0
        assert result.log == ()
        assert result.incumbent is not None
        report = verify_placement(instance, result.incumbent, tolerance=1e-9)
        assert report.feasible

    def test_two_circle_pair_meets_sum_of_radii(self):
        instance = Instance.from_radii("pair34", [3.0, 4.0])
        result = run(instance, 0.01)
        assert result.status == "EpsOptimal"
        assert 7.0 <= result.upper <= 7.07
        assert result.lower >= 7.0 - 1e-9
        assert result.gap <= 0.01
        assert result.incumbent is not None
        assert verify_placement(instance, result.incumbent, tolerance=1e-9).feasible
        replay_invariants(instance, result)


class TestCertifiedRuns:
    def test_upper_certificates_four_mixed_circles(self):
        """Radii {1,2,3,4} pack at exactly 7 (the two largest span a
        diameter and the small pair fits the gaps), which also equals the
        two-largest lower seed; the greedy seed is about 3.3% loose, so the
        run must lower the upper end with restricted-packing certificates.
        """
        instance = Instance.from_radii("zimm-04", [1.0, 2.0, 3.0, 4.0])
        result = run(instance, 0.01, limits=DriverLimits(time_seconds=600))
        assert result.status == "EpsOptimal"
        assert result.gap <= 0.01
        assert result.lower == pytest.approx(7.0)
        assert result.upper <= 7.0707
        assert_bracket_contains(result, 7.0)
        replay_invariants(instance, result)
        lowered = [
            r for r in result.log if (r.model, r.outcome) == ("restricted", "feasible")
        ]
        assert lowered
        assert result.incumbent is not None
        assert verify_placement(instance, result.incumbent, tolerance=0.0).feasible

    def test_lower_certificate_big_and_two_halves(self):
        """One unit circle plus two half circles: optimum (5 + 4*sqrt(2))/7
        (all three mutually tangent, every circle touching the container)
        with a tight greedy seed, so closing the gap requires raising the
        lower end by an exhaustive proof at the midpoint."""
        instance = Instance.from_radii("big-two-small", [1.0, 0.5, 0.5])
        optimum = (5.0 + 4.0 * math.sqrt(2.0)) / 7.0
        result = run(instance, 0.01, limits=DriverLimits(time_seconds=600))
        assert result.status == "EpsOptimal"
        assert result.gap <= 0.01
        assert_bracket_contains(result, optimum)
        replay_invariants(instance, result)
        raised = [
            r
            for r in result.log
            if (r.model, r.outcome)
            in (("region", "empty"), ("relaxed", "infeasible"))
        ]
        assert raised

    def test_three_unit_circles_converges(self):
        instance = Instance.from_radii("eq-03", [1.0] * 3)
        result = run(instance, 0.02, limits=DriverLimits(time_seconds=600))
        assert result.status == "EpsOptimal"
        assert result.gap <= 0.02
        assert_bracket_contains(result, EQ3_OPT)
        replay_invariants(instance, result)


    def test_two_circles_in_a_strip(self):
        """Two unit circles in a strip of width 3: the optimal length is
        2 + sqrt(3), with the centers at opposite walls."""
        instance = Instance.from_radii("pair", [1.0, 1.0], StripContainer(width=3.0))
        result = run(instance, 0.01, limits=DriverLimits(time_seconds=60))
        assert result.status == "EpsOptimal"
        assert result.gap <= 0.01
        assert_bracket_contains(result, 2.0 + math.sqrt(3.0))
        replay_invariants(instance, result)


class TestSafeguards:
    def test_refinement_cap_after_exhausted_perturbations(self):
        """A resolution cap of 24 points per axis cannot certify three unit
        circles to 0.5%; every trial hits the refinement floor, perturbs
        upward, and the run ends RefinementCap with a still-valid bracket."""
        instance = Instance.from_radii("eq-03", [1.0] * 3)
        limits = DriverLimits(max_theta=24, max_perturbations=8)
        result = run(instance, 0.005, limits=limits)
        assert result.status == "RefinementCap"
        assert result.perturbations == 8
        assert_bracket_contains(result, EQ3_OPT)
        replay_invariants(instance, result)

    def test_time_limit_returns_seed_bracket(self):
        instance = Instance.from_radii("eq-03", [1.0] * 3)
        result = run(instance, 0.001, limits=DriverLimits(time_seconds=0.0))
        assert result.status == "TimeLimit"
        assert result.trials == 0
        assert result.log == ()
        assert_bracket_contains(result, EQ3_OPT)

    def test_time_limit_keeps_the_seed_incumbent(self):
        instance = Instance.from_radii("seeded", [1.0, 2.0, 3.0, 4.0, 5.0])
        result = run(instance, 0.01, limits=DriverLimits(time_seconds=0.0))
        assert result.status == "TimeLimit"
        assert result.upper == result.bounds.ub
        assert result.incumbent is result.bounds.ub_placement
        replay_invariants(instance, result)

    def test_passed_deadline_stops_the_seed_lower_bound(self, monkeypatch):
        """The driver's deadline reaches ``lb3``: with no time left it
        probes no size, and the run ends on the seed bracket."""
        probes: list[float] = []
        monkeypatch.setattr(bounds, "region_feasible", _recording(probes))
        instance = Instance.from_radii("eq-20", [1.0] * 20)
        result = run(instance, 0.01, limits=DriverLimits(time_seconds=0.0))
        assert probes == []
        assert result.status == "TimeLimit"
        assert result.lower == result.bounds.lb3 == max(result.bounds.lb1, result.bounds.lb2)
        replay_invariants(instance, result)

    @pytest.mark.parametrize(
        "name, seconds, status",
        [("zimm-20", 0.0, "TimeLimit"), ("one-circle", 60.0, "EpsOptimal")],
    )
    def test_unpolished_seed_run_loads_no_scipy(self, name, seconds, status, tmp_path):
        """A fresh process, so that nothing has loaded scipy.  With no time
        left the seed placement is certified unpolished; one circle has
        nothing to polish even with time left.  So neither run imports
        scipy, and each returns within 0.2 s (about 0.01 s on a 2-CPU host;
        polishing zimm-20 cold takes about 0.4 s, most of it the import of
        ``scipy.optimize``)."""
        root = Path(__file__).resolve().parents[1]
        path = root / f"src/circlepack/data/instances/{name}.json"
        if name == "one-circle":
            path = tmp_path / "one.txt"
            path.write_text("1 2.5\n")
        code = (
            "import json, sys, time\n"
            "from circlepack.driver import DriverLimits, run\n"
            "from circlepack.files import read_instance\n"
            "from circlepack.geometry import verify_placement\n"
            "instance = read_instance(sys.argv[1]).instance\n"
            "start = time.perf_counter()\n"
            "result = run(instance, 0.01, limits=DriverLimits(time_seconds=float(sys.argv[2])))\n"
            "seconds = time.perf_counter() - start\n"
            "print(json.dumps({'status': result.status, 'seconds': seconds,\n"
            "    'verified': verify_placement(instance, result.incumbent, tolerance=0.0).feasible,\n"
            "    'scipy': sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')}))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code, str(path), str(seconds)],
            cwd=root / "src",
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        report = json.loads(out.stdout)
        assert report["status"] == status
        assert report["verified"]
        assert report["scipy"] == []
        assert report["seconds"] < 0.2

    def test_anytime_bracket_under_small_node_budget(self):
        """Solver node limits leave outcomes unknown; unknowns must never
        move a bound, and the final bracket stays valid."""
        instance = Instance.from_radii("eq-03", [1.0] * 3)
        limits = DriverLimits(
            solve_nodes=64, max_perturbations=3, max_theta=256
        )
        result = run(instance, 0.005, limits=limits)
        assert result.status in ("RefinementCap", "EpsOptimal")
        assert_bracket_contains(result, EQ3_OPT)
        replay_invariants(instance, result)
