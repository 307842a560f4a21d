"""One workload in one process: set up, run fixed-work passes, report JSON.

Started by ``run.py``; prints a single JSON object as its last stdout line.
With ``--setup-only`` it only times the import of ``circlepack`` and the
loading of the workload's instances, which ``run.py`` repeats to report a
median set-up time.
"""

from __future__ import annotations

import time

SETUP_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import circlepack.bounds  # noqa: E402  (timed: numpy and scipy come with it)
import circlepack.driver  # noqa: E402
from circlepack.files import read_instance  # noqa: E402
from circlepack.geometry import Instance, verify_placement  # noqa: E402

import spans  # noqa: E402  (this file's directory is on sys.path)
from workloads import (  # noqa: E402
    EPSILON,
    SAFETY_SECONDS,
    WORKLOADS,
    Workload,
    audit_limit,
    perturbed_radii,
)


@dataclass(frozen=True)
class Case:
    """One generated instance with its audit data."""

    instance: Instance
    audit: float | None
    reference: float | None


def load_cases(workload: Workload, seed: int) -> list[Case]:
    best = circlepack.bounds.load_best_known()
    directory = ROOT / "src" / "circlepack" / "data" / "instances"
    cases = []
    for name in workload.instances:
        bundled = read_instance(directory / f"{name}.json").instance
        radii, max_factor = perturbed_radii(name, bundled.radii, seed)
        instance = Instance.from_radii(name, radii, bundled.container)
        known = None if instance.is_strip else best.get(name)
        # The reference for ub_excess_pct: exact for equal radii, which
        # share one factor; an estimate for perturbed mixed radii.
        mean_factor = sum(radii) / sum(bundled.radii)
        cases.append(Case(
            instance=instance,
            audit=audit_limit(known, max_factor),
            reference=None if known is None else known * mean_factor,
        ))
    return cases


# Nominal time of one reference block, which only sets the scale of
# norm_wall_s: about its time on an idle 2-CPU x86-64 host with CPython 3.11.
REFERENCE_SECONDS = 0.03
# Blocks in one reference at most, so that its cost stays small on big hosts.
REFERENCE_CPUS = 4


def reference_seconds() -> float:
    """Seconds of a fixed block of work, which track the host's speed.

    On a shared host each CPU's speed drifts by tens of percent, on its own,
    over seconds to minutes, and the solver's pass time drifts with it. A
    reference runs one block pinned to each CPU the process may use (at
    most ``REFERENCE_CPUS``) and returns their mean: the solver's threads
    migrate between CPUs, so they see the mean speed. ``norm_wall_s`` scales each operation's time by the
    references before and after it, which cancels the drift. A block is a
    plain interpreter loop: it calls no circlepack code and uses no cache
    that the solver fills, and of the kernels tried it tracked the solver's
    own slowdowns best.
    """
    cpus = os.sched_getaffinity(0)
    pinned = sorted(cpus)[:REFERENCE_CPUS]
    seconds = 0.0
    try:
        for cpu in pinned:
            os.sched_setaffinity(0, {cpu})
            started = time.perf_counter()
            total = 0
            for i in range(500_000):
                total += i * i
            seconds += time.perf_counter() - started
    finally:
        os.sched_setaffinity(0, cpus)
    return seconds / len(pinned)


class NodeTally:
    """Sums ``SolveOutcome.nodes`` of every ``solve`` while installed."""

    def __init__(self) -> None:
        self.nodes = 0
        self._patched = []

    def __enter__(self) -> "NodeTally":
        def make(solve):
            def tallied(*args, **kwargs):
                outcome = solve(*args, **kwargs)
                self.nodes += outcome.nodes
                return outcome
            return tallied

        self._patched = spans.patch_everywhere("feasibility", "solve", make)
        return self

    def __exit__(self, *exc) -> None:
        spans.unpatch(self._patched)


def gate(instance, placement, lower: float, upper: float, audit: float | None) -> str | None:
    """Why an operation's output is wrong, or None when it passes."""
    if placement is None:
        return "no incumbent placement"
    if not verify_placement(instance, placement, tolerance=0.0).feasible:
        return "incumbent fails exact verification"
    if Fraction(placement.container_size) > Fraction(upper):
        return f"incumbent size {placement.container_size} exceeds U={upper}"
    if not lower <= upper:
        return f"L={lower} exceeds U={upper}"
    if audit is not None and lower > audit:
        return f"L={lower} exceeds the best-known audit limit {audit}"
    return None


def operate(workload: Workload, case: Case, tally: NodeTally) -> dict:
    """One solver call on one instance, timed, then gated.

    The solver is called through its module attributes, so that a tracer
    installed on them sees the call.
    """
    instance = case.instance
    tally.nodes = 0
    started = time.perf_counter()
    try:
        if workload.op == "bounds":
            report = circlepack.bounds.compute_bounds(instance)
        else:
            limits = circlepack.driver.DriverLimits(time_seconds=SAFETY_SECONDS, **workload.limits)
            result = circlepack.driver.run(instance, EPSILON, limits=limits)
    except Exception as exc:  # a crash is a counted failure, not the end of the run
        return {"name": instance.name, "seconds": time.perf_counter() - started,
                "error": f"{type(exc).__name__}: {exc}"}
    seconds = time.perf_counter() - started

    if workload.op == "bounds":
        lower, upper, placement = report.chosen_lb, report.ub, report.ub_placement
        record = {"status": "seed", "trials": 0, "perturbations": 0, "refinements": 0,
                  "model_events": 0}
        timed_out = seconds > SAFETY_SECONDS
    else:
        report = result.bounds
        lower, upper, placement = result.lower, result.upper, result.incumbent
        regions = sum(1 for event in result.log if event.model == "region")
        record = {"status": result.status, "trials": result.trials,
                  "perturbations": result.perturbations,
                  "refinements": regions - result.trials, "model_events": len(result.log)}
        timed_out = result.status == "TimeLimit"
    base = max(report.lb1, report.lb2)
    lift = 0.0 if report.lb3 is None else 100.0 * (report.lb3 - base) / base
    error = "safety time limit reached" if timed_out else gate(
        instance, placement, lower, upper, case.audit
    )
    return {
        "name": instance.name, "L": lower, "U": upper, "gap_pct": 100.0 * (upper - lower) / upper,
        **record, "nodes": tally.nodes, "lb3_lift_pct": lift,
        "ub_excess_pct": None if case.reference is None
        else 100.0 * (report.ub - case.reference) / case.reference,
        "seconds": seconds, "error": error,
    }


def run_pass(
    workload: Workload, cases: list[Case], tally: NodeTally, tracer=None
) -> tuple[float, float, list[dict]]:
    """One pass: its seconds, its seconds at the reference speed, and its records.

    Each operation is bracketed by a reference before and after it, and its
    time is scaled by the mean of the two.
    """
    records = []
    brackets = [reference_seconds()]
    for index, case in enumerate(cases):
        if tracer is not None:
            tracer.run_id = index
        records.append(operate(workload, case, tally))
        brackets.append(reference_seconds())
    normalised = sum(
        2.0 * REFERENCE_SECONDS * record["seconds"] / (before + after)
        for record, before, after in zip(records, brackets, brackets[1:])
    )
    return sum(r["seconds"] for r in records), normalised, records


def fingerprint(records: list[dict]) -> list[tuple]:
    keys = ("name", "L", "U", "status", "trials", "nodes", "error")
    return [tuple(r.get(k) for k in keys) for r in records]


def outcome_metrics(records: list[dict], workload: Workload) -> dict[str, float]:
    ok = [r for r in records if r["error"] is None]
    references = [r["ub_excess_pct"] for r in ok if r["ub_excess_pct"] is not None]
    metrics = {f"driver.{key}": sum(r[key] for r in ok)
               for key in ("trials", "perturbations", "refinements", "model_events")}
    runs = ok if workload.op == "run" else []
    metrics["driver.eps_reached_frac"] = (
        sum(r["status"] == "EpsOptimal" for r in runs) / len(runs) if runs else 0.0
    )
    metrics["bounds.lb3.lift_pct"] = statistics.fmean(r["lb3_lift_pct"] for r in ok) if ok else 0.0
    metrics["bounds.ub_excess_pct"] = statistics.fmean(references) if references else 0.0
    return metrics


@dataclass
class Passes:
    """Everything the timed passes of one run produced."""

    records: list[list[dict]] = field(default_factory=list)
    walls: list[float] = field(default_factory=list)
    normalised_walls: list[float] = field(default_factory=list)
    traced_walls: list[float] = field(default_factory=list)
    layers: list[dict[str, float]] = field(default_factory=list)
    function_seconds: list[dict[str, float]] = field(default_factory=list)
    last_spans: list = field(default_factory=list)


def measure(workload: Workload, cases: list[Case], seconds: float, trace: bool) -> Passes:
    """Repeat passes until the next one would end after ``seconds``.

    With ``trace`` the passes alternate untraced and traced, and at least
    one of each runs.
    """
    out = Passes()
    deadline = time.perf_counter() + seconds
    with NodeTally() as tally:
        while True:
            if trace and len(out.walls) > len(out.traced_walls):
                with spans.Tracer() as tracer:
                    wall, _, records = run_pass(workload, cases, tally, tracer)
                out.traced_walls.append(wall)
                out.layers.append(spans.layer_metrics(tracer.spans, wall))
                out.function_seconds.append(spans.function_seconds(tracer.spans))
                out.last_spans = tracer.spans
            else:
                wall, normalised, records = run_pass(workload, cases, tally)
                out.walls.append(wall)
                out.normalised_walls.append(normalised)
            out.records.append(records)
            if trace and not out.traced_walls:
                continue
            if time.perf_counter() + statistics.median(out.walls + out.traced_walls) > deadline:
                return out


def medians(runs: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default=None, help="write the last traced pass's spans here (JSONL)")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    cases = load_cases(workload, args.seed)
    setup_s = time.perf_counter() - SETUP_STARTED
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    run = measure(workload, cases, args.seconds, args.trace == 1)
    first = run.records[0]
    ok = [r for r in first if r["error"] is None]
    summary = {
        "setup_s": setup_s,
        "steady": all(fingerprint(p) == fingerprint(first) for p in run.records),
        "attempted": sum(len(p) for p in run.records),
        "failed": sum(r["error"] is not None for p in run.records for r in p),
        "walls": run.walls,
        "normalised_walls": run.normalised_walls,
        "instances": [{**r, "seconds": statistics.median(p[i]["seconds"] for p in run.records)}
                      for i, r in enumerate(first)],
        "errors": sorted({r["error"] for p in run.records for r in p if r["error"]}),
        "env": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__,
            "scipy": sys.modules["scipy"].__version__,
        },
    }
    if args.trace == 0:
        summary["metrics"] = {
            # The mean, not the median: normalised pass times scatter evenly,
            # and a run of the slowest workload holds only four or five passes.
            "norm_wall_s": statistics.fmean(run.normalised_walls),
            "gap_pct": statistics.fmean(r["gap_pct"] for r in ok) if ok else 100.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        metrics = medians(run.layers) | outcome_metrics(first, workload)
        metrics["trace.wall_s"] = statistics.median(run.traced_walls)
        metrics["trace.untraced_wall_s"] = statistics.median(run.walls)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
        metrics["trace.spans"] = len(run.last_spans)
        summary["metrics"] = metrics
        summary["function_seconds"] = medians(run.function_seconds)
        if args.spans_out:
            out = Path(args.spans_out)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text("".join(json.dumps(s.as_dict()) + "\n" for s in run.last_spans))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
