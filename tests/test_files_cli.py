"""Tests for instance/result file formats and the command line.

File formats are exercised through round-trips; the coordinate codec must
keep exact rationals exact so a certified placement re-read from disk still
verifies at tolerance zero.  CLI exit codes follow the documented contract:
0 success, 2 stopped-early-with-valid-bounds, 1 input error or failed
verification.
"""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from circlepack import driver
from circlepack.cli import main
from circlepack.driver import DriverLimits, run
from circlepack.feasibility import solve
from circlepack.files import (
    FileFormatError,
    decode_coordinate,
    decode_placement,
    encode_coordinate,
    encode_placement,
    read_instance,
    read_result,
    result_payload,
    write_instance,
    write_result,
)
from circlepack.geometry import Instance, Placement, StripContainer, verify_placement


# ---------------------------------------------------------------------------
# coordinate codec


class TestCoordinateCodec:
    @given(st.fractions())
    def test_rationals_round_trip_exactly(self, value):
        encoded = json.loads(json.dumps(encode_coordinate(value)))
        decoded = decode_coordinate(encoded)
        assert isinstance(decoded, Fraction)
        assert decoded == value

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_floats_round_trip_exactly(self, value):
        encoded = json.loads(json.dumps(encode_coordinate(value)))
        assert decode_coordinate(encoded) == value

    @pytest.mark.parametrize("junk", ["abc", "1/0", True, None, [1]])
    def test_junk_rejected(self, junk):
        with pytest.raises(ValueError):
            decode_coordinate(junk)

    def test_exact_placement_round_trip(self, tmp_path):
        placement = Placement(
            centers={1: (Fraction(3, 7), Fraction(-2, 9)), 2: (Fraction(0), Fraction(1, 3))},
            container_size=Fraction(22, 7),
        )
        raw = json.loads(json.dumps(encode_placement(placement)))
        decoded = decode_placement(tmp_path / "x", raw)
        assert decoded.centers == placement.centers
        assert decoded.container_size == placement.container_size


# ---------------------------------------------------------------------------
# instance files


class TestInstanceFiles:
    def test_json_round_trip(self, tmp_path):
        instance = Instance.from_radii("demo", [2.0, 1.0, 3.0])
        path = write_instance(instance, tmp_path / "demo.json", best_known=6.5)
        loaded = read_instance(path)
        assert loaded.instance.name == "demo"
        assert loaded.instance.radii == (3.0, 2.0, 1.0)
        assert loaded.instance.container.kind == "circle"
        assert loaded.best_known == 6.5

    def test_strip_round_trip(self, tmp_path):
        instance = Instance.from_radii("s", [1.0, 1.0], container=StripContainer(width=2.5))
        loaded = read_instance(write_instance(instance, tmp_path / "s.json"))
        assert loaded.instance.is_strip
        assert loaded.instance.container.width == 2.5
        assert loaded.best_known is None

    def test_text_form(self, tmp_path):
        path = tmp_path / "quick.txt"
        path.write_text("3\n1.5 2.5\n0.5\n")
        loaded = read_instance(path)
        assert loaded.instance.name == "quick"
        assert loaded.instance.radii == (2.5, 1.5, 0.5)

    @pytest.mark.parametrize(
        "content, fragment",
        [
            ("", "empty file"),
            ("x 1 2", "first token"),
            ("0", "count must be positive"),
            ("2 1", "expected 2 radii"),
            ("2 1 2 3", "expected 2 radii"),
            ("2 1 zero", "radii[1] must be a number"),
            ("3 1 0 2", "radii[1] must be positive"),
            ("2 1 -3", "radii[1] must be positive"),
        ],
    )
    def test_text_errors_name_the_problem(self, tmp_path, content, fragment):
        path = tmp_path / "bad.txt"
        path.write_text(content)
        with pytest.raises(FileFormatError) as err:
            read_instance(path)
        assert fragment in str(err.value)
        assert "bad.txt" in str(err.value)

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ({"schema": "other/1", "radii": [1]}, "'schema'"),
            ({"schema": "instance/1"}, "'radii'"),
            ({"schema": "instance/1", "radii": []}, "'radii'"),
            ({"schema": "instance/1", "radii": [1, 0]}, "radii[1] must be positive"),
            ({"schema": "instance/1", "radii": [1, "x"]}, "radii[1] must be a number"),
            ({"schema": "instance/1", "radii": [1], "name": ""}, "'name'"),
            ({"schema": "instance/1", "radii": [1], "container": {"kind": "oval"}}, "container.kind"),
            (
                {"schema": "instance/1", "radii": [1], "container": {"kind": "strip"}},
                "container.width",
            ),
            ({"schema": "instance/1", "radii": [1], "best_known": -1}, "'best_known'"),
        ],
    )
    def test_json_errors_name_the_field(self, tmp_path, payload, fragment):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(FileFormatError) as err:
            read_instance(path)
        assert fragment in str(err.value)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"schema": "instance/1",\n  "radii": [1,\n}')
        with pytest.raises(FileFormatError) as err:
            read_instance(path)
        assert "line 3" in str(err.value)

    def test_strip_narrower_than_largest_circle_rejected(self, tmp_path):
        path = tmp_path / "narrow.json"
        path.write_text(
            json.dumps(
                {
                    "schema": "instance/1",
                    "radii": [2.0, 1.0],
                    "container": {"kind": "strip", "width": 3.0},
                }
            )
        )
        with pytest.raises(FileFormatError):
            read_instance(path)


# ---------------------------------------------------------------------------
# result files


@pytest.fixture(scope="module")
def pair_run():
    instance = Instance.from_radii("pair", [3.0, 4.0])
    return instance, run(instance, 0.01)


@pytest.fixture(scope="module")
def lattice_run():
    # Four circles whose optimum equals the two-largest bound: the driver
    # certifies the upper end with a restricted (exact lattice) packing.
    instance = Instance.from_radii("quad", [1.0, 2.0, 3.0, 4.0])
    return instance, run(instance, 0.01, limits=DriverLimits(time_seconds=120))


class TestResultFiles:
    def test_payload_round_trip(self, tmp_path, pair_run):
        instance, result = pair_run
        payload = result_payload(instance, result)
        path = write_result(payload, tmp_path / "pair.result.json")
        loaded = read_result(path)
        assert loaded["schema"] == "result/1"
        assert loaded["instance"]["name"] == "pair"
        assert loaded["instance"]["radii"] == [4.0, 3.0]
        assert loaded["status"] == result.status
        assert loaded["lower"] == result.lower
        assert loaded["upper"] == result.upper
        assert "seed" not in loaded
        assert loaded["timings"]["total"] == result.elapsed
        assert [record["model"] for record in loaded["log"]] == [
            record.model for record in result.log
        ]

    def test_log_nodes_sum_to_solver_total(self, tmp_path, monkeypatch):
        totals, counts = [], []

        def counting_solve(*args, **kwargs):
            outcome = solve(*args, **kwargs)
            totals.append(outcome.nodes)
            counts.append((outcome.farthest_pair, outcome.wipeout))
            return outcome

        monkeypatch.setattr(driver, "solve", counting_solve)
        # three unit circles from coarse cells: each trial searches at some
        # refinements before a region proof ends it
        instance = Instance.from_radii("eq3", [1.0, 1.0, 1.0])
        result = run(instance, 0.01, delta0=0.08, limits=DriverLimits(time_seconds=60))
        path = write_result(result_payload(instance, result), tmp_path / "eq3.json")
        log = read_result(path)["log"]
        searches = [record for record in log if record["model"] != "region"]
        assert len(searches) == len(totals) > 0
        assert [record["nodes"] for record in searches] == totals
        assert all(record["nodes"] == 0 for record in log if record["model"] == "region")
        assert sum(record["nodes"] for record in log) == sum(totals) > 0
        assert [
            (record["farthest_pair"], record["wipeout"])
            for record in searches
        ] == counts
        assert sum(map(sum, counts)) > 0
        assert all(
            record["farthest_pair"] == record["wipeout"] == 0
            for record in log
            if record["model"] == "region"
        )

    def test_log_region_counters_match_propagation(self, tmp_path, monkeypatch):
        maps = []

        def recording_propagate(*args, **kwargs):
            regions = driver_propagate(*args, **kwargs)
            maps.append(regions)
            return regions

        driver_propagate = driver.propagate
        monkeypatch.setattr(driver, "propagate", recording_propagate)
        instance = Instance.from_radii("eq3", [1.0, 1.0, 1.0])
        result = run(instance, 0.01, delta0=0.08, limits=DriverLimits(time_seconds=60))
        path = write_result(result_payload(instance, result), tmp_path / "eq3.json")
        log = read_result(path)["log"]
        regions = [record for record in log if record["model"] == "region"]
        assert len(regions) == len(maps)
        assert {record["outcome"] for record in regions} == {"empty", "nonempty"}
        for record, region_map in zip(regions, maps):
            if region_map is None:
                assert record["outcome"] == "empty"
                assert record["sweeps"] == record["cells"] == 0
            else:
                assert record["outcome"] == "nonempty"
                assert record["sweeps"] == region_map.sweeps >= 1
                assert record["cells"] == sum(
                    int(mask.sum()) for mask in region_map.masks.values()
                ) > 0
        assert all(
            record["sweeps"] == record["cells"] == 0
            for record in log
            if record["model"] != "region"
        )

    def test_log_records_carry_exactly_the_event_fields(self, tmp_path, lattice_run):
        instance, result = lattice_run
        path = write_result(result_payload(instance, result), tmp_path / "quad.json")
        log = read_result(path)["log"]
        assert {record["model"] for record in log} >= {"region", "restricted"}
        fields = {
            "trial", "size", "delta", "model", "outcome", "seconds", "lower",
            "upper", "nodes", "farthest_pair", "wipeout", "reason", "sweeps",
            "cells",
        }
        assert all(set(record) == fields for record in log)

    def test_log_reason_tells_a_node_limit_from_a_timeout(self, tmp_path, monkeypatch):
        """Each search event carries its outcome's ``reason``: None for a
        decided search and for a region event.  The restricted searches stop
        at a one-node budget and the relaxed ones at a spent deadline."""
        outcomes = []

        def limited_solve(problem, limits):
            if problem.mode == "relaxed":
                limits = dataclasses.replace(limits, time_seconds=0.0)
            outcome = solve(problem, limits)
            outcomes.append(outcome)
            return outcome

        monkeypatch.setattr(driver, "solve", limited_solve)
        instance = Instance.from_radii("eq3", [1.0, 1.0, 1.0])
        limits = DriverLimits(time_seconds=60, restricted_nodes=1, max_perturbations=1)
        result = run(instance, 0.01, delta0=0.08, limits=limits)
        path = write_result(result_payload(instance, result), tmp_path / "eq3.json")
        log = read_result(path)["log"]
        searches = [record for record in log if record["model"] != "region"]
        assert [record["reason"] for record in searches] == [o.reason for o in outcomes]
        assert all(record["reason"] is None for record in log if record["model"] == "region")
        assert all(
            (record["reason"] is None) == (record["outcome"] != "unknown") for record in searches
        )
        reasons = {(record["model"], record["reason"]) for record in searches}
        assert {("restricted", "node-limit"), ("relaxed", "timeout")} <= reasons

    def test_lattice_placement_survives_disk_exactly(self, tmp_path, lattice_run):
        instance, result = lattice_run
        assert any(
            record.model == "restricted" and record.outcome == "feasible"
            for record in result.log
        )
        payload = result_payload(instance, result)
        path = write_result(payload, tmp_path / "quad.result.json")
        loaded = read_result(path)
        placement = decode_placement(path, loaded["placement"])
        assert placement.centers == result.incumbent.centers
        report = verify_placement(instance, placement, tolerance=0.0)
        assert report.feasible

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda p: p.update(schema="result/0"), "'schema'"),
            (lambda p: p.pop("lower"), "'lower'"),
            (lambda p: p.update(gap="tiny"), "'gap'"),
            (lambda p: p.update(status=3), "'status'"),
            (lambda p: p.pop("instance"), "'instance'"),
            (lambda p: p.update(placement={"centers": {}}), "'placement'"),
            (
                lambda p: p.update(
                    placement={"container_size": 1.0, "centers": {"1": [0.0]}}
                ),
                "placement",
            ),
        ],
    )
    def test_result_validation(self, tmp_path, pair_run, mutate, fragment):
        instance, result = pair_run
        payload = result_payload(instance, result)
        mutate(payload)
        path = write_result(payload, tmp_path / "bad.result.json")
        with pytest.raises(FileFormatError) as err:
            read_result(path)
        assert fragment in str(err.value)


# ---------------------------------------------------------------------------
# command line


def _write_pair(tmp_path: Path) -> Path:
    path = tmp_path / "pair.txt"
    path.write_text("2 3 4\n")
    return path


class TestSolveCommand:
    def test_solve_writes_result_and_exits_zero(self, tmp_path, capsys):
        instance = _write_pair(tmp_path)
        out = tmp_path / "pair.result.json"
        code = main(["solve", str(instance), "--epsilon", "0.01", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "EpsOptimal" in captured.out
        payload = read_result(out)
        assert payload["status"] == "EpsOptimal"
        assert payload["upper"] == pytest.approx(7.0, abs=1e-6)

    def test_zero_radius_names_the_entry(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("3 1 0 2\n")
        code = main(["solve", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "radii[1]" in captured.err

    def test_missing_file(self, tmp_path, capsys):
        code = main(["solve", str(tmp_path / "absent.json")])
        assert code == 1
        assert "cannot read" in capsys.readouterr().err

    def test_early_stop_exits_two(self, tmp_path, capsys):
        path = tmp_path / "trio.txt"
        path.write_text("3 1 1 1\n")
        out = tmp_path / "trio.result.json"
        code = main(
            ["solve", str(path), "--epsilon", "0.0001", "--time-limit", "0", "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 2
        payload = read_result(out)
        assert payload["status"] in ("TimeLimit", "RefinementCap")
        assert payload["lower"] <= payload["upper"]

    def test_threads_flag_is_rejected(self, tmp_path, capsys):
        instance = _write_pair(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(instance), "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("solve", ["--best-known", "table.txt"]),
            ("bounds", ["--best-known", "table.txt"]),
            ("solve", ["--seed", "0"]),
            ("bench", ["--seed", "0"]),
            ("solve", ["--no-lb4"]),
            ("bounds", ["--no-lb4"]),
            ("bench", ["--no-lb4"]),
            ("solve", ["--no-lb3"]),
            ("bounds", ["--no-lb3"]),
            ("bench", ["--no-lb3"]),
            ("solve", ["--no-reduction"]),
            ("bench", ["--no-reduction"]),
            ("solve", ["--no-prune-farthest"]),
            ("bench", ["--no-prune-farthest"]),
            ("solve", ["--no-prune-conditional"]),
            ("bench", ["--no-prune-conditional"]),
        ],
    )
    def test_removed_flags_are_rejected(self, tmp_path, capsys, command, flag):
        instance = _write_pair(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([command, str(instance), *flag])
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err


class TestBoundsCommand:
    def test_pair_bounds_json(self, tmp_path, capsys):
        instance = _write_pair(tmp_path)
        code = main(["bounds", str(instance)])
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["lb1"] == pytest.approx(7.0)
        assert payload["lb2"] == pytest.approx(5.0)
        assert payload["chosen_lb"] == pytest.approx(7.0)
        assert payload["ub"] >= payload["chosen_lb"] - 1e-9

    def test_twenty_unit_circles_lb2(self, tmp_path, capsys):
        path = tmp_path / "eq20.txt"
        path.write_text("20 " + " ".join(["1"] * 20) + "\n")
        code = main(["bounds", str(path)])
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["lb2"] == pytest.approx(math.sqrt(20.0))
        assert isinstance(payload["lb3"], float)
        assert list(payload) == [
            "instance", "n", "lb1", "lb2", "lb3", "chosen_lb", "ub", "timings"
        ]
        assert list(payload["timings"]) == ["lb1", "lb2", "lb3", "ub"]

    def test_bounds_report_and_result_file_share_the_bound_keys(self, tmp_path, capsys):
        """``bounds`` and a result file's ``initial_bounds`` both write
        ``BoundReport.as_dict``: the same keys, in the same order, with the
        same values for one instance."""
        instance = _write_pair(tmp_path)
        assert main(["bounds", str(instance)]) == 0
        report = json.loads(capsys.readouterr().out)
        out = tmp_path / "pair.result.json"
        assert main(["solve", str(instance), "--out", str(out)]) == 0
        capsys.readouterr()
        initial = read_result(out)["initial_bounds"]
        assert list(initial) == ["lb1", "lb2", "lb3", "chosen_lb", "ub"]
        assert initial == {key: report[key] for key in initial}

    def test_solver_only_flags_are_rejected(self, tmp_path, capsys):
        instance = _write_pair(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["bounds", str(instance), "--time-limit", "1"])
        assert exc.value.code == 2
        assert "--time-limit" in capsys.readouterr().err


class TestVerifyCommand:
    @pytest.fixture()
    def solved(self, tmp_path, capsys):
        instance = _write_pair(tmp_path)
        out = tmp_path / "pair.result.json"
        assert main(["solve", str(instance), "--out", str(out)]) == 0
        capsys.readouterr()
        return instance, out

    def test_valid_result_passes(self, solved, capsys):
        instance, out = solved
        code = main(["verify", str(instance), str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("OK")

    def test_result_with_lb4_keys_still_verifies(self, solved, tmp_path, capsys):
        """A result file written before lb4 was retired carries
        ``initial_bounds.lb4`` and ``timings.lb4``; both are ignored."""
        instance, out = solved
        payload = json.loads(out.read_text())
        assert "lb4" not in payload["initial_bounds"] and "lb4" not in payload["timings"]
        payload["initial_bounds"]["lb4"] = payload["initial_bounds"]["chosen_lb"]
        payload["timings"]["lb4"] = 1.5e-05
        old = tmp_path / "old.result.json"
        old.write_text(json.dumps(payload))
        assert read_result(old)["initial_bounds"]["lb4"] == payload["initial_bounds"]["lb4"]
        code = main(["verify", str(instance), str(old)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("OK")

    def test_result_without_log_reasons_still_verifies(self, tmp_path, capsys):
        """A result file written before the log carried ``reason`` reads
        and verifies as before."""
        instance, out = tmp_path / "eq3.txt", tmp_path / "eq3.result.json"
        instance.write_text("3 1 1 1\n")
        assert main(["solve", str(instance), "--epsilon", "0.05", "--out", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["log"] and all("reason" in record for record in payload["log"])
        for record in payload["log"]:
            del record["reason"]
        old = tmp_path / "old.result.json"
        old.write_text(json.dumps(payload))
        assert read_result(old)["log"] == payload["log"]
        code = main(["verify", str(instance), str(old)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("OK")

    def test_perturbed_coordinate_fails_with_listing(self, solved, tmp_path, capsys):
        instance, out = solved
        payload = json.loads(out.read_text())
        x, y = payload["placement"]["centers"]["1"]
        payload["placement"]["centers"]["1"] = [float(Fraction(str(x))) + 3.0, y]
        bad = tmp_path / "tampered.result.json"
        bad.write_text(json.dumps(payload))
        code = main(["verify", str(instance), str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert "FAIL" in captured.out
        assert "overlap" in captured.out

    def test_lowered_radius_fails(self, solved, tmp_path, capsys):
        instance, out = solved
        lowered = tmp_path / "lowered.txt"
        lowered.write_text("2 4 0.5\n")
        payload = json.loads(out.read_text())
        payload["instance"]["radii"] = [4.0, 0.5]
        payload["placement"] = None
        bad = tmp_path / "lowered.result.json"
        bad.write_text(json.dumps(payload))
        code = main(["verify", str(lowered), str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert "lower bound" in captured.out

    def test_missing_placement_fails(self, solved, tmp_path, capsys):
        """An upper bound without the placement that certifies it does not
        verify, even when every other field is intact."""
        instance, out = solved
        payload = json.loads(out.read_text())
        payload["placement"] = None
        bare = tmp_path / "bare.result.json"
        bare.write_text(json.dumps(payload))
        code = main(["verify", str(instance), str(bare)])
        captured = capsys.readouterr()
        assert code == 1
        assert "no placement recorded" in captured.out

    def test_upper_below_its_certificate_fails(self, solved, tmp_path, capsys):
        """An upper bound lowered by 5e-10 relative is below the size of
        the placement that certifies it; the exact comparison catches it."""
        instance, out = solved
        payload = json.loads(out.read_text())
        payload["upper"] = payload["upper"] * (1.0 - 5e-10)
        bad = tmp_path / "lowered-upper.result.json"
        bad.write_text(json.dumps(payload))
        code = main(["verify", str(instance), str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert "exceeds claimed upper bound" in captured.out

    @pytest.mark.parametrize(
        "field, value",
        [("tolerance", math.inf), ("upper", math.inf), ("lower", math.nan), ("lower", math.inf)],
    )
    def test_non_finite_number_is_a_clean_error(self, solved, tmp_path, capsys, field, value):
        """A NaN lower bound would otherwise pass every comparison."""
        instance, out = solved
        payload = json.loads(out.read_text())
        payload[field] = value
        bad = tmp_path / "infinite.result.json"
        bad.write_text(json.dumps(payload))
        code = main(["verify", str(instance), str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert "finite" in captured.err

    def test_mismatched_instance_fails(self, solved, tmp_path, capsys):
        _, out = solved
        other = tmp_path / "other.txt"
        other.write_text("2 3 5\n")
        code = main(["verify", str(other), str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert "do not match" in captured.out


class TestExportCommand:
    def test_export_writes_lp(self, tmp_path, capsys):
        path = tmp_path / "two.txt"
        path.write_text("2 1 1\n")
        out = tmp_path / "two.lp"
        code = main(
            ["export-milp", str(path), "--size", "2.0", "--delta", "0.45", "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        text = out.read_text()
        assert text.startswith("\\ grid packing feasibility model")
        assert "Minimize" in text and "Binaries" in text and text.rstrip().endswith("End")

    def test_too_coarse_spacing_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "two.txt"
        path.write_text("2 1 1\n")
        code = main(["export-milp", str(path), "--size", "2.0", "--delta", "2.0"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error" in captured.err


class TestBenchCommand:
    @pytest.fixture()
    def suite(self, tmp_path):
        suite = tmp_path / "suite"
        suite.mkdir()
        write_instance(Instance.from_radii("tiny-pair", [3.0, 4.0]), suite / "tiny-pair.json", best_known=7.0)
        write_instance(Instance.from_radii("tiny-solo", [2.5]), suite / "tiny-solo.json")
        write_instance(
            Instance.from_radii("tiny-strip", [1.0, 1.0], container=StripContainer(width=2.0)),
            suite / "tiny-strip.json",
            best_known=4.0,
        )
        return suite

    def test_rows_and_audit_pass(self, suite, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = main(
            ["bench", str(suite), "--epsilon", "0.01", "--time-limit", "60", "--out", str(out)]
        )
        captured = capsys.readouterr()
        assert code == 0
        rows = json.loads(out.read_text())["rows"]
        assert [row["name"] for row in rows] == ["tiny-pair", "tiny-solo", "tiny-strip"]
        strip_row = rows[2]
        assert strip_row["kind"] == "strip" and strip_row["width"] == 2.0
        for row in rows:
            assert row["lower"] <= row["upper"] + 1e-9
            if row["best_known"] is not None:
                assert row["lower"] <= row["best_known"] + 1e-3
                assert row["best_known"] <= row["upper"] + 1e-3
        assert "tiny-pair" in captured.out and "tiny-strip" in captured.out

    def test_false_reference_value_trips_audit(self, tmp_path, capsys):
        suite = tmp_path / "suite"
        suite.mkdir()
        write_instance(Instance.from_radii("liar", [3.0, 4.0]), suite / "liar.json", best_known=100.0)
        code = main(["bench", str(suite), "--epsilon", "0.01", "--time-limit", "30"])
        captured = capsys.readouterr()
        assert code == 1
        assert "bound audit FAILED" in captured.err

    def test_empty_directory_is_an_error(self, tmp_path, capsys):
        empty = tmp_path / "nothing"
        empty.mkdir()
        code = main(["bench", str(empty)])
        captured = capsys.readouterr()
        assert code == 1
        assert "no instance files" in captured.err


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "circlepack.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "circlepack" in proc.stdout
