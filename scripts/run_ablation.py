#!/usr/bin/env python3
"""Solve one instance repeatedly, switching off one enhancement at a time.

Compares the full solver against versions without region elimination,
without each pruning rule, and without the lb3 seed bound, so
the contribution of every ingredient is visible in one table.

Usage: python scripts/run_ablation.py INSTANCE [--epsilon E] [--time-limit S]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from circlepack.driver import DriverLimits, run
from circlepack.feasibility import PruneConfig
from circlepack.files import read_instance

VARIANTS = (
    ("full", {}),
    ("no-reduction", {"use_reduction": False}),
    ("no-lb3", {"use_lb3": False}),
    ("no-prune-farthest", {"prune": PruneConfig(farthest_pair=False)}),
    ("no-prune-conditional", {"prune": PruneConfig(conditional=False)}),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("instance")
    parser.add_argument("--epsilon", type=float, default=0.01)
    parser.add_argument("--time-limit", type=float, default=120.0)
    args = parser.parse_args()

    instance = read_instance(args.instance).instance
    print(f"instance {instance.name}: n={instance.n}, epsilon={args.epsilon}, "
          f"time limit {args.time_limit:g}s per variant\n")
    header = f"{'variant':<22}{'status':<14}{'lower':>12}{'upper':>12}{'gap%':>8}{'trials':>7}{'sec':>9}"
    print(header)
    print("-" * len(header))
    for name, kwargs in VARIANTS:
        started = time.monotonic()
        result = run(
            instance,
            args.epsilon,
            limits=DriverLimits(time_seconds=args.time_limit),
            **kwargs,
        )
        seconds = time.monotonic() - started
        print(
            f"{name:<22}{result.status:<14}{result.lower:>12.6g}{result.upper:>12.6g}"
            f"{100.0 * result.gap:>8.3g}{result.trials:>7}{seconds:>9.2f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
