"""Fixed-work benchmark of the circlepack solver.

Usage, from the root of a checkout:

    python3 bench/run.py --workload certify-small --seed 0 --seconds 36 --trace 0

Each workload runs in its own worker process (``worker.py``). ``--workload
all`` runs every workload in turn, each ending with its own result line.
The last line of a workload's output is its result: the end-to-end metrics
of ``BENCHMARK.json`` with ``--trace 0``, the per-layer metrics with
``--trace 1``. The lines before it give the environment and, per instance,
the final ``L``, ``U``, status, trials and nodes. ``README.md`` in this
directory describes the workloads, the gate and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).with_name("worker.py")
SETUP_SAMPLES = 3
TIME_LIMIT = 170.0


class BenchError(Exception):
    pass


def _worker(args: list[str], timeout: float) -> dict:
    """Run ``worker.py`` and return the JSON object on its last stdout line.

    The worker gets its own process group, so that a timeout also ends the
    solver's pool processes.
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    with subprocess.Popen(
        [sys.executable, str(WORKER), *args], cwd=ROOT, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"worker {args} did not finish in {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def _metric_units(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def bench(workload: str, seed: int, seconds: float, trace: int, units: dict[str, str]) -> dict:
    """Run one workload in its own processes and print its report lines.

    Returns the result object, which the caller prints last.
    """
    started = time.perf_counter()
    common = ["--workload", workload, "--seed", str(seed)]
    setup = []
    if trace == 0:
        for _ in range(SETUP_SAMPLES - 1):
            setup.append(_worker([*common, "--setup-only"], timeout=60.0)["setup_s"])
    spans_out = ROOT / ".bench_out" / f"spans-{workload}-seed{seed}.jsonl"
    summary = _worker(
        [*common, "--seconds", str(seconds), "--trace", str(trace), "--spans-out", str(spans_out)],
        timeout=TIME_LIMIT - (time.perf_counter() - started),
    )
    setup.append(summary["setup_s"])
    values = dict(summary["metrics"], setup_s=statistics.median(setup))
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"worker reported no value for {missing}")

    print(json.dumps({"workload": workload, "seed": seed, "wall_s": statistics.median(summary["walls"]),
                      "pass_walls_s": summary["walls"], "pass_normalised_s": summary["normalised_walls"],
                      "env": summary["env"], "setup_samples_s": setup}))
    for row in summary["instances"]:
        print(json.dumps(row))
    if "function_seconds" in summary:
        print(json.dumps({"function_seconds": summary["function_seconds"]}))
    for error in summary["errors"]:
        print(f"failed: {error}", file=sys.stderr)
    if not summary["steady"]:
        print("failed: per-instance L, U, status or nodes differ between passes", file=sys.stderr)
    return {
        "correct": summary["failed"] == 0 and summary["steady"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "circlepack" / "__init__.py").is_file():
        print(f"error: no circlepack sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = _metric_units(args.trace)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            result = bench(name, args.seed, args.seconds, args.trace, units)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
