"""Certified global optimization for circle packing.

Packs a given set of circles into the smallest enclosing disc or the
shortest fixed-width rectangular strip, with certified lower and upper
bounds and epsilon-optimality, using grid discretization, conservative
region elimination, and exact combinatorial feasibility models.

The MILP exporter (``circlepack.milp``) and the SVG renderer
(``circlepack.render``) are imported from their own modules, so importing
the package does not load them.
"""

__version__ = "0.1.0"

from .geometry import (
    Circle,
    CircleContainer,
    Instance,
    Placement,
    StripContainer,
    VerificationReport,
    verify_placement,
)
from .bounds import (
    BoundReport,
    compute_bounds,
    idle_area_triple,
    initial_upper_bound,
    lb1,
    lb2,
    lb3,
    load_best_known,
)
from .grid import (
    Grid,
    build_grid,
    build_strip_grid,
    candidates,
    grid_for_instance,
    separation_frontier,
)
from .reduction import (
    RegionMap,
    annulus_region,
    build_region_map,
    propagate,
    region_feasible,
    write_region_pgm,
)
from .feasibility import (
    FeasibilityProblem,
    SolveOutcome,
    assignment_to_placement,
    build_problem,
    solve,
)
from .driver import (
    DriverLimits,
    IterationRecord,
    RunResult,
    SolverState,
    bisection_budget,
    default_initial_cell_size,
    run,
)
from .files import (
    FileFormatError,
    InstanceFile,
    read_instance,
    read_result,
    result_payload,
    write_instance,
    write_result,
)

__all__ = [
    "Circle",
    "CircleContainer",
    "StripContainer",
    "Instance",
    "Placement",
    "VerificationReport",
    "verify_placement",
    "Grid",
    "build_grid",
    "build_strip_grid",
    "candidates",
    "grid_for_instance",
    "separation_frontier",
    "RegionMap",
    "annulus_region",
    "build_region_map",
    "propagate",
    "region_feasible",
    "write_region_pgm",
    "BoundReport",
    "lb1",
    "lb2",
    "lb3",
    "idle_area_triple",
    "initial_upper_bound",
    "compute_bounds",
    "load_best_known",
    "FeasibilityProblem",
    "SolveOutcome",
    "build_problem",
    "solve",
    "assignment_to_placement",
    "DriverLimits",
    "IterationRecord",
    "RunResult",
    "SolverState",
    "bisection_budget",
    "default_initial_cell_size",
    "run",
    "FileFormatError",
    "InstanceFile",
    "read_instance",
    "read_result",
    "result_payload",
    "write_instance",
    "write_result",
    "__version__",
]
