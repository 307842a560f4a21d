"""Workloads of the fixed-work benchmark: instances, budgets and the gate.

Every workload is a fixed amount of solver work. Node and refinement budgets
bound each ``run`` call, and a wall-clock safety limit that no healthy run
reaches only catches a hung solver. Brackets, statuses and node counts are
therefore deterministic for a given seed, and only time varies.

This module does not import ``circlepack`` at load time, so the entry point
can validate its arguments without paying the solver's import cost.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

EPSILON = 0.01
SAFETY_SECONDS = 60.0

# Seeds other than 0 scale each radius by a factor in [1 - PERTURBATION,
# 1 + PERTURBATION] and round it to a multiple of 1 / GRAIN, so the exact
# rational arithmetic of the solver keeps small dyadic denominators.
PERTURBATION = 2e-5
GRAIN = 2**20

AUDIT_SLACK = 1e-3


@dataclass(frozen=True)
class Workload:
    """One workload: an operation over bundled instances with fixed budgets.

    ``op`` is ``"bounds"`` (``compute_bounds``) or ``"run"`` (``run`` to
    ``EPSILON``). ``limits`` holds the ``DriverLimits`` fields of a run.
    """

    name: str
    op: str
    instances: tuple[str, ...]
    why: str
    limits: dict = field(default_factory=dict)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="seed-bracket",
            op="bounds",
            instances=("zimm-09", "zimm-10", "eq-20"),
            why="compute_bounds, the `circlepack bounds` path: lb3's region "
            "propagation is ~95 % of the time and no feasibility search runs, "
            "so a feasibility change predicts no change here",
        ),
        Workload(
            name="certify-small",
            op="run",
            instances=("zimm-05", "zimm-06", "strip-c"),
            limits=dict(
                solve_nodes=100_000,
                restricted_nodes=50_000,
                refine_cap=1,
                max_perturbations=2,
            ),
            why="small instances to 1 %: many bisection trials with exact "
            "re-verification; propagate is ~90 % of the time and two of three "
            "instances reach epsilon",
        ),
        Workload(
            name="relaxed-search",
            op="run",
            instances=("strip-b", "eq-07"),
            limits=dict(
                solve_nodes=50_000,
                restricted_nodes=10_000,
                refine_cap=0,
                max_perturbations=0,
            ),
            why="one trial each whose relaxed proof stays unknown; solve is "
            ">= 85 % of the time, so a reduction change predicts no change here",
        ),
    )
}


def perturbed_radii(name: str, radii: tuple[float, ...], seed: int) -> tuple[list[float], float]:
    """Seeded radii for an instance, and the largest factor applied.

    Seed 0 keeps the bundled radii. Otherwise each radius of a mixed-radius
    instance gets its own factor, while an equal-radius instance gets one
    common factor so that its circles stay equal.
    """
    if seed == 0:
        return list(radii), 1.0
    rng = random.Random(f"{seed}/{name}")
    if len(set(radii)) == 1:
        factors = [1.0 + PERTURBATION * rng.uniform(-1.0, 1.0)] * len(radii)
    else:
        factors = [1.0 + PERTURBATION * rng.uniform(-1.0, 1.0) for _ in radii]
    scaled = [round(r * f * GRAIN) / GRAIN for r, f in zip(radii, factors)]
    return scaled, max(new / old for new, old in zip(scaled, radii))


def audit_limit(best_known: float | None, max_factor: float) -> float | None:
    """Largest lower bound consistent with the best-known size.

    Growing every radius by at most ``max_factor`` grows the optimum of a
    disc instance by at most that factor, so a certified lower bound above
    ``max_factor * best_known`` (plus slack) is unsound.
    """
    if best_known is None:
        return None
    return max_factor * best_known + AUDIT_SLACK
