"""Command line: solve, bounds, verify, render, export-milp, bench.

Exit codes follow the solver's certainty: ``solve`` returns 0 when the
run reached the requested optimality gap, 2 when it stopped early but
still holds valid certified bounds, and 1 on input errors.  ``verify``
and ``bench`` return 0 only when every check passes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from .bounds import compute_bounds, initial_upper_bound, lb1, lb2, load_best_known
from .driver import DriverLimits, RunResult, run
from .feasibility import build_problem
from .files import (
    FileFormatError,
    InstanceFile,
    decode_placement,
    read_instance,
    read_result,
    result_payload,
    write_result,
)
from .geometry import Instance, verify_placement
from .grid import grid_for_instance
from .milp import export_milp
from .render import render_svg


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epsilon", type=float, default=0.01, help="relative optimality gap target (default 0.01)")
    parser.add_argument("--delta0", type=float, default=None, help="initial lattice spacing (default: automatic)")
    parser.add_argument("--time-limit", type=float, default=None, metavar="SECONDS", help="wall-clock budget")


def _run_from_args(instance: Instance, args: argparse.Namespace) -> RunResult:
    limits = DriverLimits(time_seconds=args.time_limit)
    return run(instance, args.epsilon, delta0=args.delta0, limits=limits)


def cmd_solve(args: argparse.Namespace) -> int:
    instance_file = read_instance(args.instance)
    instance = instance_file.instance
    result = _run_from_args(instance, args)
    out = Path(args.out) if args.out else Path(f"{Path(args.instance).stem}.result.json")
    payload = result_payload(instance, result, tolerance=0.0)
    write_result(payload, out)
    kind = f"strip width {instance.container.width}" if instance.is_strip else "circle"
    print(f"instance       {instance.name} ({kind}, n={instance.n})")
    print(f"status         {result.status}")
    print(f"lower bound    {result.lower:.9g}")
    print(f"upper bound    {result.upper:.9g}")
    print(f"gap            {100.0 * result.gap:.4g}%")
    print(f"trials         {result.trials} (+{result.perturbations} perturbations)")
    print(f"time           {result.elapsed:.3f}s")
    print(f"result file    {out}")
    return 0 if result.status == "EpsOptimal" else 2


def cmd_bounds(args: argparse.Namespace) -> int:
    instance_file = read_instance(args.instance)
    instance = instance_file.instance
    report = compute_bounds(instance)
    payload = {
        "instance": instance.name,
        "n": instance.n,
        **report.as_dict(),
        "timings": {name: seconds for name, seconds in sorted(report.timings.items())},
    }
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


def _verify_violations(instance: Instance, payload: dict, tolerance: float | None) -> list[str]:
    violations: list[str] = []
    recorded = payload["instance"]
    file_radii = [float(circle.radius) for circle in instance.circles]
    if [float(r) for r in recorded["radii"]] != file_radii:
        violations.append("instance radii do not match the radii recorded in the result")
    kind = recorded.get("container", {}).get("kind", "circle")
    if kind != instance.container.kind:
        violations.append(
            f"container kind mismatch: instance is {instance.container.kind!r}, result says {kind!r}"
        )
    elif instance.is_strip:
        width = float(recorded["container"].get("width", 0.0))
        if abs(width - float(instance.container.width)) > 1e-12:
            violations.append("strip width mismatch between instance and result")

    lower = float(payload["lower"])
    upper = float(payload["upper"])
    for name, bound in (("lower", lower), ("upper", upper)):
        if not math.isfinite(bound):
            raise ValueError(f"{name} bound must be finite, got {bound}")
    slack = 1e-9 * max(1.0, upper)
    if lower > upper + slack:
        violations.append(f"lower bound {lower} exceeds upper bound {upper}")

    tol = float(payload["tolerance"]) if tolerance is None else tolerance
    placement = decode_placement(Path("result"), payload.get("placement"))
    if placement is None:
        violations.append(f"no placement recorded: upper bound {upper} has no certificate")
    else:
        report = verify_placement(instance, placement, tolerance=tol)
        if not report.feasible:
            violations.append(
                f"placement fails verification at tolerance {tol:g}: "
                f"worst overlap {report.worst_overlap_violation:.3g}, "
                f"worst containment {report.worst_containment_violation:.3g}"
            )
            for a, b, amount in report.violating_pairs:
                violations.append(f"  circles {a} and {b} overlap by {amount:.3g} (squared units)")
        if Fraction(placement.container_size) > Fraction(upper):
            violations.append(
                f"placement container size {float(placement.container_size)} exceeds claimed upper bound {upper}"
            )

    # A tampered instance (radius quietly lowered) would make the recorded
    # lower bound overshoot what any packing of the real radii needs.
    constructive_ub, _ = initial_upper_bound(instance)
    if lower > constructive_ub + 1e-6 * max(1.0, constructive_ub):
        violations.append(
            f"claimed lower bound {lower} exceeds a constructive upper bound {constructive_ub:.9g}"
        )
    cheap_lb = max(lb1(instance), lb2(instance))
    if cheap_lb > upper + 1e-6 * max(1.0, upper):
        violations.append(f"claimed upper bound {upper} is below the proven lower bound {cheap_lb:.9g}")
    return violations


def cmd_verify(args: argparse.Namespace) -> int:
    instance = read_instance(args.instance).instance
    payload = read_result(args.result)
    violations = _verify_violations(instance, payload, args.tolerance)
    if violations:
        print(f"FAIL: {args.result} does not verify against {args.instance}")
        for line in violations:
            print(f"  - {line}")
        return 1
    print(f"OK: {args.result} verifies against {args.instance} (placement verified)")
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    payload = read_result(args.result)
    out = Path(args.out) if args.out else Path(f"{Path(args.result).stem}.svg")
    render_svg(payload, out)
    print(f"wrote {out}")
    return 0


def cmd_export_milp(args: argparse.Namespace) -> int:
    instance = read_instance(args.instance).instance
    grid = grid_for_instance(instance, args.size, args.delta)
    problem = build_problem(instance, grid, args.mode)
    out = Path(args.out) if args.out else Path(f"{Path(args.instance).stem}.lp")
    export_milp(problem, out)
    print(f"wrote {out} ({args.mode} model, size {args.size:g}, spacing {grid.delta:g})")
    return 0


def _bench_row(instance_file: InstanceFile, result: RunResult, seconds: float, best: float | None) -> dict:
    instance = instance_file.instance
    return {
        "name": instance.name,
        "kind": instance.container.kind,
        "width": float(instance.container.width) if instance.is_strip else None,
        "n": instance.n,
        "lower": result.lower,
        "upper": result.upper,
        "gap": result.gap,
        "status": result.status,
        "seconds": seconds,
        "best_known": best,
        "delta_vs_best": None if best is None else result.upper - best,
    }


def _format_bench_table(rows: list[dict]) -> str:
    headers = ["name", "kind", "width", "n", "lower", "upper", "gap%", "status", "sec", "best", "delta"]
    table = [headers]
    for row in rows:
        table.append(
            [
                row["name"],
                row["kind"],
                "-" if row["width"] is None else f"{row['width']:g}",
                str(row["n"]),
                f"{row['lower']:.6g}",
                f"{row['upper']:.6g}",
                f"{100.0 * row['gap']:.3g}",
                row["status"],
                f"{row['seconds']:.2f}",
                "-" if row["best_known"] is None else f"{row['best_known']:g}",
                "-" if row["delta_vs_best"] is None else f"{row['delta_vs_best']:+.4g}",
            ]
        )
    widths = [max(len(line[col]) for line in table) for col in range(len(headers))]
    lines = []
    for index, line in enumerate(table):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip())
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def cmd_bench(args: argparse.Namespace) -> int:
    suite = Path(args.suite)
    if not suite.is_dir():
        print(f"error: {suite} is not a directory", file=sys.stderr)
        return 1
    paths = sorted(list(suite.glob("*.json")) + list(suite.glob("*.txt")))
    if not paths:
        print(f"error: no instance files (*.json, *.txt) in {suite}", file=sys.stderr)
        return 1
    table = load_best_known(args.best_known)

    rows: list[dict] = []
    audit_failures: list[str] = []
    for path in paths:
        instance_file = read_instance(path)
        instance = instance_file.instance
        best = instance_file.best_known
        if best is None:
            best = table.get(instance.name)
        started = time.monotonic()
        # The benchmark measures what the solver certifies on its own, so
        # reference values feed only the comparison columns and the audit.
        result = _run_from_args(instance, args)
        seconds = time.monotonic() - started
        rows.append(_bench_row(instance_file, result, seconds, best))
        if best is not None:
            if result.lower > best + 1e-3:
                audit_failures.append(
                    f"{instance.name}: certified lower bound {result.lower:.6g} exceeds best known {best:g}"
                )
            if best > result.upper + 1e-3:
                audit_failures.append(
                    f"{instance.name}: best known {best:g} exceeds certified upper bound {result.upper:.6g}"
                )

    print(_format_bench_table(rows))
    if args.out:
        Path(args.out).write_text(json.dumps({"schema": "bench/1", "rows": rows}, indent=2) + "\n")
        print(f"wrote {args.out}")
    if audit_failures:
        print("bound audit FAILED:", file=sys.stderr)
        for line in audit_failures:
            print(f"  - {line}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circlepack",
        description="Certified global circle packing: smallest disc or shortest fixed-width strip.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="bisect to a certified epsilon-optimal bracket")
    p_solve.add_argument("instance", help="instance file (JSON or 'count radii...' text)")
    p_solve.add_argument("--out", default=None, help="result JSON path (default <stem>.result.json)")
    _add_solver_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_bounds = sub.add_parser("bounds", help="report the lower bounds lb1-lb3 and the constructive upper bound")
    p_bounds.add_argument("instance")
    p_bounds.add_argument("--out", default=None, help="also write the JSON report here")
    p_bounds.set_defaults(func=cmd_bounds)

    p_verify = sub.add_parser("verify", help="check a result file against its instance")
    p_verify.add_argument("instance")
    p_verify.add_argument("result")
    p_verify.add_argument(
        "--tolerance", type=float, default=None, help="override the tolerance stated in the result"
    )
    p_verify.set_defaults(func=cmd_verify)

    p_render = sub.add_parser("render", help="draw a result as a deterministic SVG")
    p_render.add_argument("result")
    p_render.add_argument("--out", default=None, help="SVG path (default <stem>.svg)")
    p_render.set_defaults(func=cmd_render)

    p_export = sub.add_parser("export-milp", help="write one grid feasibility model in LP format")
    p_export.add_argument("instance")
    p_export.add_argument("--size", type=float, required=True, help="container size to test")
    p_export.add_argument("--delta", type=float, required=True, help="lattice spacing")
    p_export.add_argument("--mode", choices=("restricted", "relaxed"), default="restricted")
    p_export.add_argument("--out", default=None, help="LP path (default <stem>.lp)")
    p_export.set_defaults(func=cmd_export_milp)

    p_bench = sub.add_parser("bench", help="solve every instance in a directory and audit the bounds")
    p_bench.add_argument("suite", help="directory of instance files")
    p_bench.add_argument("--out", default=None, help="also write rows as JSON here")
    p_bench.add_argument(
        "--best-known", metavar="FILE", default=None,
        help="audit table of reference values, name and value per line (default: the bundled table)",
    )
    _add_solver_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
