"""Bisection driver: certified epsilon-optimal container sizing.

Maintains a certified bracket [L, U] on the optimal container size (disc
radius or strip length) and shrinks it by trial sizes R = (L + U) / 2:

* cell-region propagation emptiness or an exhaustive relaxed-model
  infeasibility proof certifies that no packing fits at R, raising L;
* a restricted-model packing, re-verified in exact arithmetic, certifies
  feasibility at R, lowering U and updating the incumbent;
* when neither certificate materializes, the lattice is refined (cell size
  halved) at the same R; after too many consecutive refinements R is
  perturbed upward toward U, where a feasibility certificate is cheaper
  than an exhaustive infeasibility proof.

The run terminates as epsilon-optimal when U - L <= epsilon * U.  Bounds
move only on certificates, so interrupting at any point still leaves a
valid bracket.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from typing import Literal

from .bounds import BoundReport, compute_bounds
from .feasibility import (
    SolveLimits,
    SolveOutcome,
    assignment_to_placement,
    build_problem,
    solve,
)
from .geometry import Instance, Placement, verify_placement
from .grid import grid_for_instance
from .reduction import RegionMap, build_region_map, propagate

__all__ = [
    "DriverLimits",
    "IterationRecord",
    "RunResult",
    "SolverState",
    "bisection_budget",
    "default_initial_cell_size",
    "run",
]

Status = Literal["EpsOptimal", "TimeLimit", "RefinementCap"]


@dataclass(frozen=True)
class DriverLimits:
    """Resource limits and safeguard knobs for one driver run.

    ``refine_cap`` is the number of consecutive lattice refinements allowed
    at a single trial size before the trial is abandoned by perturbation;
    ``max_theta`` caps the lattice resolution (points per half-axis), the
    refinement floor.  ``restricted_nodes`` caps the restricted-model
    search: only a found packing moves a bound, so exhausting that model
    proves nothing the driver can use and is abandoned early, while the
    relaxed model keeps the full ``solve_nodes`` budget because its
    exhaustion is the lower-bound certificate.
    """

    time_seconds: float | None = None
    solve_nodes: int = 50_000_000
    restricted_nodes: int = 400_000
    refine_cap: int = 6
    max_perturbations: int = 50
    max_theta: int = 4096


@dataclass(frozen=True)
class IterationRecord:
    """One model event: which check ran at (R, delta) and what it proved.

    ``model`` is "region", "restricted", or "relaxed"; ``outcome`` is
    "empty"/"nonempty" for region propagation and the solver status
    otherwise.  ``lower``/``upper`` snapshot the bracket after the event.
    ``nodes`` is the solver's search-node count, and ``farthest_pair``
    and ``wipeout`` its per-rule prune counts (``SolveOutcome``); all
    three are 0 for region events.  ``reason`` is the solver's
    ``SolveOutcome.reason`` for an unknown search ("timeout" or
    "node-limit") and None otherwise.  ``sweeps`` and ``cells`` are a
    nonempty region event's propagation sweeps (``RegionMap.sweeps``) and
    the total of its surviving cells over all circles; both are 0 for an
    empty region event, whose propagation returns no map, and for search
    events.
    """

    trial: int
    size: float
    delta: float
    model: str
    outcome: str
    seconds: float
    lower: float
    upper: float
    nodes: int = 0
    farthest_pair: int = 0
    wipeout: int = 0
    reason: str | None = None
    sweeps: int = 0
    cells: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class SolverState:
    """Mutable driver state between model solves."""

    lower: float
    upper: float
    trial_size: float
    delta: float
    incumbent: Placement
    log: list[IterationRecord] = field(default_factory=list)
    refinement_count: int = 0
    trials: int = 0
    perturbations: int = 0


@dataclass(frozen=True)
class RunResult:
    """Final certified bracket with the full iteration log."""

    lower: float
    upper: float
    gap: float
    incumbent: Placement
    status: Status
    log: tuple[IterationRecord, ...]
    epsilon: float
    elapsed: float
    trials: int
    perturbations: int
    bounds: BoundReport


def bisection_budget(epsilon: float, upper0: float, lower0: float) -> int:
    """Maximum number of distinct trial sizes, excluding perturbations.

    Every concluded, unperturbed trial moves one end of the bracket to its
    midpoint, halving the width; the run stops once the width falls to
    epsilon times the upper end, which is at least ``epsilon * lower0``.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    width = upper0 - lower0
    if width <= 0:
        return 0
    ratio = width / (epsilon * max(lower0, 1e-12 * upper0))
    if ratio <= 1.0:
        return 1
    return math.ceil(math.log2(ratio)) + 1


def _cell_size_cap(instance: Instance) -> float:
    """The lattice-precondition cap on the starting cell size: the cell
    diagonal strictly below the smallest radius, with a factor-2 margin."""
    return 0.5 * instance.min_radius / math.sqrt(2.0)


def default_initial_cell_size(instance: Instance, upper0: float, lower0: float) -> float:
    """Coarse starting cell size: refinement is cheap, oversolving is not.

    Bounded by the lattice-precondition cap (``_cell_size_cap``) and by an
    eighth of the initial bracket width.
    """
    cap = _cell_size_cap(instance)
    width = upper0 - lower0
    if width <= 0:
        return cap
    return min(cap, width / 8.0)


def _verified_placement(instance: Instance, placement: Placement) -> Placement:
    report = verify_placement(instance, placement, tolerance=0.0)
    if not report.feasible:
        raise RuntimeError(
            "restricted-model certificate failed exact verification: "
            f"{report}"
        )
    return placement


def run(
    instance: Instance,
    epsilon: float,
    delta0: float | None = None,
    limits: DriverLimits | None = None,
) -> RunResult:
    """Drive the bisection to a certified epsilon-optimal bracket.

    Both ends move only on certificates: the seed ``U`` comes with the
    verified placement of ``initial_upper_bound``, which is the incumbent
    until a restricted-model packing at a smaller trial size replaces it.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    limits = limits or DriverLimits()
    started = time.perf_counter()
    deadline = None if limits.time_seconds is None else started + limits.time_seconds

    seed = compute_bounds(instance, deadline=deadline)
    lower0, upper0 = seed.chosen_lb, seed.ub
    if lower0 > upper0 + 1e-9 * max(1.0, upper0):
        raise ValueError(
            f"inconsistent seed bounds: lower {lower0} exceeds upper {upper0}"
        )
    lower0 = min(lower0, upper0)

    if delta0 is None:
        delta0 = default_initial_cell_size(instance, upper0, lower0)
    else:
        if not delta0 > 0:
            raise ValueError(f"delta0 must be positive, got {delta0}")
        delta0 = min(delta0, _cell_size_cap(instance))

    state = SolverState(
        lower=lower0,
        upper=upper0,
        trial_size=upper0,
        delta=delta0,
        incumbent=seed.ub_placement,
    )
    budget = bisection_budget(epsilon, upper0, lower0)
    status: Status | None = None
    pending_size: float | None = None

    def record(
        model: str,
        outcome: str,
        seconds: float,
        search: SolveOutcome | None = None,
        regions: RegionMap | None = None,
    ) -> None:
        state.log.append(
            IterationRecord(
                trial=state.trials,
                size=state.trial_size,
                delta=state.delta,
                model=model,
                outcome=outcome,
                seconds=seconds,
                lower=state.lower,
                upper=state.upper,
                nodes=search.nodes if search else 0,
                farthest_pair=search.farthest_pair if search else 0,
                wipeout=search.wipeout if search else 0,
                reason=search.reason if search else None,
                sweeps=regions.sweeps if regions else 0,
                cells=sum(map(regions.cell_count, regions.masks)) if regions else 0,
            )
        )

    def out_of_time() -> bool:
        return deadline is not None and time.perf_counter() >= deadline

    def remaining_time() -> float | None:
        if deadline is None:
            return None
        return max(0.0, deadline - time.perf_counter())

    while status is None:
        if state.upper - state.lower <= epsilon * state.upper:
            status = "EpsOptimal"
            break
        if out_of_time():
            status = "TimeLimit"
            break

        if pending_size is not None:
            state.trial_size = pending_size
            pending_size = None
            state.perturbations += 1
        else:
            state.trial_size = 0.5 * (state.lower + state.upper)
        state.trials += 1
        if state.trials > budget + state.perturbations:
            raise RuntimeError(
                f"trial count {state.trials} exceeded bisection budget "
                f"{budget} + {state.perturbations} perturbations"
            )
        state.refinement_count = 0
        # every trial restarts coarse: refinement levels this size does not
        # need are cheap, while inheriting a fine lattice is not
        state.delta = delta0
        size = state.trial_size

        while status is None:
            # lattice resolution floor: never exceed max_theta points/axis
            floor = size / limits.max_theta
            state.delta = max(state.delta, floor)
            grid = grid_for_instance(instance, size, state.delta)

            start = time.perf_counter()
            regions = propagate(build_region_map(instance, size, grid), instance.radii)
            seconds = time.perf_counter() - start
            if regions is None:
                state.lower = size
                record("region", "empty", seconds)
                break
            record("region", "nonempty", seconds, regions=regions)

            solve_limits = SolveLimits(
                time_seconds=remaining_time(),
                max_nodes=min(limits.solve_nodes, limits.restricted_nodes),
            )
            start = time.perf_counter()
            restricted = solve(
                build_problem(instance, grid, "restricted", regions),
                limits=solve_limits,
            )
            seconds = time.perf_counter() - start
            if restricted.is_feasible:
                placement = _verified_placement(
                    instance, assignment_to_placement(grid, restricted.assignment)
                )
                state.upper = size
                state.incumbent = placement
                record("restricted", restricted.status, seconds, restricted)
                break
            record("restricted", restricted.status, seconds, restricted)
            if restricted.is_unknown and out_of_time():
                status = "TimeLimit"
                break

            solve_limits = SolveLimits(
                time_seconds=remaining_time(), max_nodes=limits.solve_nodes
            )
            start = time.perf_counter()
            relaxed = solve(
                build_problem(instance, grid, "relaxed", regions),
                limits=solve_limits,
            )
            seconds = time.perf_counter() - start
            if relaxed.is_infeasible:
                state.lower = size
                record("relaxed", relaxed.status, seconds, relaxed)
                break
            record("relaxed", relaxed.status, seconds, relaxed)
            if relaxed.is_unknown and out_of_time():
                status = "TimeLimit"
                break

            # indeterminate at this resolution: refine, else perturb upward
            if (
                state.refinement_count >= limits.refine_cap
                or 0.5 * state.delta < floor
            ):
                if state.perturbations >= limits.max_perturbations:
                    status = "RefinementCap"
                    break
                pending_size = size + 0.25 * (state.upper - size)
                break
            state.delta = 0.5 * state.delta
            state.refinement_count += 1

    gap = (state.upper - state.lower) / state.upper
    return RunResult(
        lower=state.lower,
        upper=state.upper,
        gap=gap,
        incumbent=state.incumbent,
        status=status,
        log=tuple(state.log),
        epsilon=epsilon,
        elapsed=time.perf_counter() - started,
        trials=state.trials,
        perturbations=state.perturbations,
        bounds=seed,
    )
