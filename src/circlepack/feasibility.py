"""Branch-and-prune solver for the two grid feasibility models.

The restricted model asks for an assignment of every circle center to an
admissible lattice point such that all pairwise integer separation tests
pass; a solution maps to a genuine packing (exact arithmetic end to end).
The relaxed model asks the same over whole cells with farthest-corner
separation, so when even that fails, no continuous packing exists at the
probed container size.

Both models are solved by one depth-first engine that assigns circles in
decreasing-radius order with both pruning rules always on:

* farthest pair — back out when even the farthest candidate cells of the
  two largest unassigned circles are closer than their radius sum;
* conditional elimination — after each assignment delete every candidate
  that would overlap the newly placed circle, failing fast on any emptied
  domain.

All pruning is conservative: each rule cuts only nodes below which no
assignment exists, so it changes the search effort, never the outcome.
The equivalent binary linear program can be written to an LP file by the
milp module.

A search node is kept cheap without changing any search decision.  Each
domain is held as two Python ints in the packed layout of ``grid`` (whose
module docstring has the guard-column soundness argument): a row-major
bitset, cell (i, j) at bit i*S + j, and a column-major one, cell (i, j) at
bit j*T + i.  The strides are S = max(ny, m) + m + 1 and
T = max(nx, m) + m + 1 for an (nx, ny) grid, where m is the largest
forbidden reach (``grid.forbidden_reach``) of the problem's pair
thresholds.  Each threshold's forbidden square over [-m, m]^2 is packed
once with each stride; shifted by (i - m)*S + (j - m), the row-major
pattern puts offset (di, dj) at bit (i + di)*S + (j + dj), and one AND
finds every candidate that conflicts with a circle at (i, j).

Domains are never written in place: clearing makes new ints, and when the
pattern hits no candidate the parent domain is reused as it is.  Each
domain carries its exact bounding box, read from bit lengths: the lowest
and highest set bit of the row-major int give the first and last row,
those of the column-major int the first and last column.  The box is the
input of the farthest-pair rule and the window in which the candidate
order is unpacked; an int of 0 is an empty domain.

A node of circle t groups the circles t+1..n-1 into runs: maximal groups of
adjacent circles that share one domain object (equal circles, mostly) and
one pair threshold against circle t.  Every circle of a run is cleared by
the same pattern from the same domain, so each child clears each run once
and the whole run takes the one cleared domain.  Most children die: a run
empties (a wipeout) or the farthest-pair rule cuts them.  Such a child
writes nothing; its cleared domains live only in the loop's locals.  Only
a child that descends writes its position and each changed run's domain,
one slice assignment per run, and puts the parent's domains back when its
subtree returns.  The child's farthest-pair test reads the boxes of
circles t+1 and t+2 only, so it runs as soon as the run holding t+2 is
cleared (the first run, or the second when the first is circle t+1
alone), and a cut child skips the clears of the later runs.  The test
reads the same two cleared boxes as it would after every clear, so no
decision changes.  One count does: each pruned child counts once, under
the first rule that prunes it in the loop's order, so a child that the
farthest-pair rule cuts counts in ``farthest_pair`` even when a later run
would have emptied.  The node count and the limits are read at the
child's start, before any clear, so a search that a limit stops inside a
run of pruned siblings ends with its ancestors' positions and domains and
no trace of those siblings.

Most clears that empty a domain are decided from its box alone, before
the AND.  ``forbidden`` is monotone in |di| and |dj| in both modes: its
left side, (|di| + s)^2 + (|dj| + s)^2 with s = 0 or 1, only grows with
either.  Every candidate of a domain with box (i0, i1, j0, j1) lies at an
offset from (i, j) of at most a = max(i - i0, i1 - i) rows and
b = max(j - j0, j1 - j) columns, the offset of the box corner farthest
from (i, j).  So when forbidden(a, b) holds, every candidate conflicts,
the AND would clear them all, and the domain empties with no big-int
operation.  When it does not hold the AND runs, so the test changes no
decision and no count.  The node loop writes this test and the
farthest-pair test inline, as (a + s)^2 + (b + s)^2 < min_sq with a, b >= 0:
the formula of ``forbidden``, which stays the definition.

The same monotonicity decides most farthest-pair cuts before the clear
finishes.  On the run that holds circle t+2, once the box-corner test and
the AND have not emptied it, the test runs in three stages, each on boxes
that contain the exact cleared ones.  A row at offset di from (i, j) is
forbidden whole exactly when its farthest column, at offset b of the box
corner, is: forbidden(di, b) holds, and then every cell of the row, at
|dj| <= b, is forbidden too.  Monotone in |di|, those rows are the ones
with |di| < h, h the smallest d >= 0 with (d + s)^2 + (b + s)^2 >= min_sq,
entry b + s of ``grid._forbidden_widths`` with r = 0 and c = s: one band
around row i.  The band cannot cover both ends of the box, as then the
box-corner test would have fired, so trimming it off the end it covers
leaves a box that still holds every remaining candidate; columns are
trimmed the same way with the row term a.  The first stage tests this
trimmed box against circle t+1's exact cleared box, or against itself
when t+1 is in the same run, before any XOR.  The second clears and
reads the exact highest row and column, O(1) bit lengths, and tests again
with the trimmed lows.  Only a child that survives both reads its lows
with ``x & -x`` and takes the exact test.  The farthest pair of two boxes
only grows when either box grows, so a pair forbidden on boxes that
contain the exact ones is forbidden on the exact ones: each stage cuts
only children that the exact test would cut, at the same point of the
loop, and nodes, both counts, positions and domains stay as they were.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import combinations
from typing import Literal, Mapping

import numpy as np

from .geometry import Instance, Placement
from .grid import (
    CandidateSet,
    Grid,
    Mode,
    _forbidden_widths,
    _pack,
    _packed_patterns,
    _unpack,
    candidates,
    forbidden,
    pair_thresholds,
)
from .reduction import RegionMap

__all__ = [
    "FeasibilityProblem",
    "SolveLimits",
    "SolveOutcome",
    "assignment_to_placement",
    "build_problem",
    "solve",
]


@dataclass(frozen=True)
class SolveLimits:
    """Search budget: wall-clock seconds (None = unlimited) and node count."""

    time_seconds: float | None = None
    max_nodes: int = 100_000_000


@dataclass(frozen=True)
class FeasibilityProblem:
    """One grid feasibility question: domains, radii and pair thresholds.

    ``domains`` maps circle id to its candidate bitmap (lattice points in
    restricted mode, cells in relaxed mode) after intersecting the mode's
    candidate set with optional reduced regions and symmetry restrictions.
    ``min_sq`` holds the exact pairwise thresholds of ``grid.forbidden``
    (``grid.min_sq_steps``) keyed by (low id, high id).
    """

    instance: Instance
    grid: Grid
    mode: Mode
    domains: Mapping[int, CandidateSet]
    radii: tuple[float, ...]
    min_sq: Mapping[tuple[int, int], int]

    @property
    def trivially_infeasible(self) -> bool:
        """True when some circle has no candidate at all."""
        return any(not d.mask.any() for d in self.domains.values())


@dataclass(frozen=True)
class SolveOutcome:
    """Search result: feasible with an assignment, infeasible, or unknown.

    ``assignment`` maps circle id to its lattice index pair (i, j); it is
    present exactly when ``status == "feasible"``.  ``reason`` explains an
    unknown outcome ("timeout" or "node-limit").  A limit hit is always
    reported as unknown, never as infeasible.

    ``farthest_pair`` counts the nodes that rule cuts off; ``wipeout``
    counts the conditional eliminations that emptied a domain.  A node
    counts under the first rule that prunes it, in the order of the node
    loop (module docstring).  Like ``nodes`` they are deterministic for one
    problem and limits.
    """

    status: Literal["feasible", "infeasible", "unknown"]
    assignment: dict[int, tuple[int, int]] | None = None
    reason: str | None = None
    nodes: int = 0
    elapsed: float = 0.0
    farthest_pair: int = 0
    wipeout: int = 0

    @property
    def is_feasible(self) -> bool:
        return self.status == "feasible"

    @property
    def is_infeasible(self) -> bool:
        return self.status == "infeasible"

    @property
    def is_unknown(self) -> bool:
        return self.status == "unknown"


def _points_from_cells(cells: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Lattice points incident to at least one surviving cell.

    A point is a corner of up to four cells; keeping it whenever any of
    them survives is the conservative way to carry a cell-level region
    over to the point-level restricted model.
    """
    out = np.zeros(shape, dtype=bool)
    cx, cy = cells.shape
    for dx in (-1, 0):
        for dy in (-1, 0):
            i0, i1 = max(0, -dx), min(shape[0] - 1, cx - 1 - dx)
            j0, j1 = max(0, -dy), min(shape[1] - 1, cy - 1 - dy)
            if i0 > i1 or j0 > j1:
                continue
            out[i0 : i1 + 1, j0 : j1 + 1] |= cells[
                i0 + dx : i1 + dx + 1, j0 + dy : j1 + dy + 1
            ]
    return out


def _symmetry_restrictions(
    grid: Grid, mode: Mode, n: int, shape: tuple[int, int]
) -> dict[int, np.ndarray]:
    """Index-level symmetry cuts for the first (and second) circle.

    Disc: quarter-turn rotations and the diagonal reflection map the
    lattice onto itself, so any packing can be moved so that circle 1 has
    x >= 0 and y >= 0 and circle 2 has y >= x.  In relaxed mode the same
    index inequalities are sound because a center with x >= 0 always lands
    in a cell with i >= theta under half-open cell snapping, and snapping
    is monotone for the diagonal constraint.

    Strip: only the length-axis reflection maps lattice points onto
    lattice points (the width is generally not a whole number of cells),
    so the restricted model pins circle 1 to the right half along x only.
    Relaxed cells need no lattice alignment — both strip reflections are
    container isometries — so circle 1 is also pinned to the top half.
    """
    ii = np.arange(shape[0])[:, None]
    jj = np.arange(shape[1])[None, :]
    out: dict[int, np.ndarray] = {}
    if grid.kind == "circle":
        out[1] = np.broadcast_to((ii >= grid.theta) & (jj >= grid.theta), shape)
        if n >= 2:
            out[2] = np.broadcast_to(jj >= ii, shape)
    elif mode == "restricted":
        out[1] = np.broadcast_to(ii >= (grid.theta + 1) // 2, shape)
    else:
        lo_j = math.floor(grid.width_exact / (2 * grid.delta_exact))
        out[1] = np.broadcast_to((ii >= grid.theta // 2) & (jj >= lo_j), shape)
    return out


def build_problem(
    instance: Instance,
    grid: Grid,
    mode: Mode,
    reduced_regions: RegionMap | None = None,
    *,
    symmetry: bool = True,
) -> FeasibilityProblem:
    """Assemble candidate domains and pair thresholds for one grid model.

    Domains are the mode's candidate sets intersected with the reduced
    regions (cell bitmaps; restricted points survive when incident to a
    surviving cell) and with the symmetry restrictions.  An instance that
    leaves some circle without candidates comes back flagged trivially
    infeasible rather than raising.
    """
    if mode not in ("restricted", "relaxed"):
        raise ValueError(f"mode must be 'restricted' or 'relaxed', got {mode!r}")
    if reduced_regions is not None and reduced_regions.grid != grid:
        raise ValueError("reduced regions were built for a different grid")

    if mode == "restricted":
        shape = (grid.points_x, grid.points_y)
    else:
        shape = (grid.cells_x, grid.cells_y)
    sym = _symmetry_restrictions(grid, mode, instance.n, shape) if symmetry else {}
    domains: dict[int, CandidateSet] = {}
    steps: dict = {}
    for circle in instance.circles:
        mask = candidates(grid, circle, instance.container, mode, steps).mask
        if reduced_regions is not None:
            region = reduced_regions.masks[circle.id]
            mask &= region if mode == "relaxed" else _points_from_cells(region, shape)
        if circle.id in sym:
            mask &= sym[circle.id]
        domains[circle.id] = CandidateSet(circle.id, mode, mask)

    table = pair_thresholds(instance.radii, grid.delta_exact)
    min_sq = {
        (a + 1, b + 1): table[a][b] for a, b in combinations(range(instance.n), 2)
    }
    return FeasibilityProblem(
        instance=instance,
        grid=grid,
        mode=mode,
        domains=domains,
        radii=instance.radii,
        min_sq=min_sq,
    )


def assignment_to_placement(grid: Grid, assignment: Mapping[int, tuple[int, int]]) -> Placement:
    """Map a restricted-mode assignment to exact lattice coordinates."""
    centers = {cid: grid.point_exact(i, j) for cid, (i, j) in assignment.items()}
    return Placement(centers=centers, container_size=grid.size_exact)


def _assignment_satisfies(
    problem: FeasibilityProblem, assignment: Mapping[int, tuple[int, int]]
) -> bool:
    """Direct re-check of an assignment against domains and pair thresholds."""
    for cid in range(1, problem.instance.n + 1):
        if cid not in assignment:
            return False
        i, j = assignment[cid]
        mask = problem.domains[cid].mask
        if not (0 <= i < mask.shape[0] and 0 <= j < mask.shape[1] and mask[i, j]):
            return False
    for (a, b), threshold in problem.min_sq.items():
        ia, ja = assignment[a]
        ib, jb = assignment[b]
        if forbidden(ia - ib, ja - jb, threshold, problem.mode):
            return False
    return True


# (imin, imax, jmin, jmax): the first and last row and column that hold a
# candidate of a domain
_Box = tuple[int, int, int, int]
# a search domain: row-major bits, column-major bits, and the box (None
# exactly when the domain is empty); see the module docstring
_Domain = tuple[int, int, _Box | None]


class _LimitHit(Exception):
    def __init__(self, reason: str) -> None:
        self.reason = reason


class _Engine:
    """Single-threaded depth-first search over one feasibility problem."""

    def __init__(self, problem: FeasibilityProblem, limits: SolveLimits) -> None:
        self.problem = problem
        self.limits = limits
        self.mode = problem.mode
        grid = problem.grid
        n = problem.instance.n
        self.n = n
        # strides and forbidden patterns of the packed domains (module
        # docstring); one pattern pair per distinct pair threshold
        thresholds = set(problem.min_sq.values())
        nx, ny = problem.domains[1].mask.shape
        self.reach, self.row_stride, rows = _packed_patterns(thresholds, self.mode, ny)
        if nx == ny:
            self.col_stride, cols = self.row_stride, rows
        else:
            _, self.col_stride, cols = _packed_patterns(thresholds, self.mode, nx)
        self.patterns: dict[int, tuple[int, int]] = {
            threshold: (rows[threshold], cols[threshold]) for threshold in thresholds
        }

        # circle ids are 1..n in non-increasing radius order.  No domain is
        # ever written in place, so adjacent circles with equal domains
        # share one tuple
        self.masks: list[_Domain] = []
        for cid in range(1, n + 1):
            mask = problem.domains[cid].mask
            rows = _pack(mask, self.row_stride)
            if self.masks and self.masks[-1][0] == rows:
                self.masks.append(self.masks[-1])
            else:
                cols = _pack(mask.T, self.col_stride)
                self.masks.append((rows, cols, self._box(rows, cols)))

        self.min_sq = [[0] * n for _ in range(n)]
        for (a, b), threshold in problem.min_sq.items():
            self.min_sq[a - 1][b - 1] = threshold
            self.min_sq[b - 1][a - 1] = threshold
        # the half-width tables of the staged farthest-pair test (module
        # docstring), for the threshold of circle t against circle t+2:
        # entry k is the smallest d >= 0 with (d + e)^2 + k^2 >= threshold
        e = 1 if self.mode == "relaxed" else 0
        self.bands = {
            threshold: _forbidden_widths(threshold, 0, e, max(nx, ny))
            for threshold in {self.min_sq[t][t + 2] for t in range(n - 2)}
        }

        if grid.kind == "circle":
            ref = (float(grid.theta), float(grid.theta))
        else:
            ref = (
                grid.theta / 2.0,
                float(grid.width_exact / (2 * grid.delta_exact)),
            )
        if self.mode == "relaxed":
            ref = (ref[0] - 0.5, ref[1] - 0.5)
        self.center_ref = ref

        self.positions: list[tuple[int, int] | None] = [None] * n
        self.nodes = 0
        self.farthest_prunes = 0
        self.wipeouts = 0
        self._next_check = 0
        self._deadline = (
            time.monotonic() + limits.time_seconds
            if limits.time_seconds is not None
            else None
        )

    def _box(self, rows: int, cols: int) -> _Box | None:
        """Exact bounding box of a packed domain, None when it is empty."""
        if not rows:
            return None
        s, t = self.row_stride, self.col_stride
        return (
            ((rows & -rows).bit_length() - 1) // s,
            (rows.bit_length() - 1) // s,
            ((cols & -cols).bit_length() - 1) // t,
            (cols.bit_length() - 1) // t,
        )

    def _check_limits(self) -> None:
        """Stop the search past the node limit or the deadline.  The
        deadline is read every 256 nodes, the node limit at the node that
        passes it: ``_next_check`` is the next node count that needs a
        look."""
        max_nodes = self.limits.max_nodes
        if self.nodes > max_nodes:
            raise _LimitHit("node-limit")
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise _LimitHit("timeout")
        self._next_check = min(self.nodes + 256, max_nodes + 1)

    def _ordered(self, t: int, domain: _Domain) -> list[tuple[int, int]]:
        rows, _, (i0, i1, j0, j1) = domain
        s = self.row_stride
        ii, jj = np.nonzero(_unpack(rows >> i0 * s, i1 - i0 + 1, s)[:, j0 : j1 + 1])
        ii += i0
        jj += j0
        if t == 0:
            key = (ii - self.center_ref[0]) ** 2 + (jj - self.center_ref[1]) ** 2
        else:
            pi, pj = self.positions[t - 1]
            key = (ii - pi) ** 2 + (jj - pj) ** 2
        order = np.lexsort((jj, ii, key))
        return list(zip(ii[order].tolist(), jj[order].tolist()))

    def _farthest_prunes(self, t: int) -> bool:
        """The farthest-pair rule at the node of circle ``t``: even the
        farthest candidates of the two largest unassigned circles are too
        close (bounding-box upper bound on distance).  Counts its cuts.
        This is the test at the root; the node loop of ``_dfs`` runs the
        same test inline.

        No domain the search sees is empty, so both boxes exist: solve
        rejects an empty start domain, and elimination stops at the first
        domain it empties.
        """
        if t + 1 >= self.n:
            return False
        box_a, box_b = self.masks[t][2], self.masks[t + 1][2]
        max_di = max(box_a[1] - box_b[0], box_b[1] - box_a[0])
        max_dj = max(box_a[3] - box_b[2], box_b[3] - box_a[2])
        if not forbidden(max_di, max_dj, self.min_sq[t][t + 1], self.mode):
            return False
        self.farthest_prunes += 1
        return True

    def _leaf(self, t: int) -> bool:
        """Last level: any candidate left completes the packing; each counts
        as a node, or one node when none is left."""
        candidates = self._ordered(t, self.masks[t])
        self.nodes += len(candidates) or 1
        if self.nodes >= self._next_check:
            self._check_limits()
        if not candidates:
            return False
        self.positions[t] = candidates[0]
        return True

    def _dfs(self, t: int) -> bool:
        if t == self.n:
            return True
        if t == self.n - 1:
            return self._leaf(t)

        masks, positions = self.masks, self.positions
        # the node loop does the node count, the conditional elimination and
        # the child's farthest-pair test itself, since a call per child or
        # per clear costs more than most children (the limits stay in
        # _check_limits).  The circles t+1..n-1 fall into runs of adjacent
        # circles that share one domain and one threshold against circle t;
        # a run is cleared once per child, and its box is widened by the
        # mode's corner offset (0 restricted, 1 relaxed), so that the
        # box-corner test below is ``forbidden`` of the farthest corner
        # (module docstring)
        n, min_sq = self.n, self.min_sq[t]
        patterns, m = self.patterns, self.reach
        s, c = self.row_stride, self.col_stride
        e = 1 if self.mode == "relaxed" else 0
        # what a child reads of each run, and where a descending child
        # writes it: (first circle, stop, domain)
        runs, spans = [], []
        k = t + 1
        while k < n:
            domain, threshold = masks[k], min_sq[k]
            stop = k + 1
            while stop < n and masks[stop] is domain and min_sq[stop] == threshold:
                stop += 1
            rows, cols, (i0, i1, j0, j1) = domain
            i0, i1, j0, j1 = i0 - e, i1 + e, j0 - e, j1 + e
            runs.append([domain, rows, cols, i0, i1, i0 + i1, j0, j1, j0 + j1,
                         threshold, *patterns[threshold], None])
            spans.append((k, stop, domain))
            k = stop
        # the child's farthest-pair test reads the boxes of circles t+1 and
        # t+2, so it runs on the run holding t+2, which carries the
        # half-width table of its threshold for the staged test
        if t + 2 < n:
            runs[0 if spans[0][1] > t + 2 else 1][-1] = self.bands[min_sq[t + 2]]
            pair_sq = self.min_sq[t + 1][t + 2]
        for i, j in self._ordered(t, masks[t]):
            self.nodes += 1
            if self.nodes >= self._next_check:
                self._check_limits()
            row_base = (i - m) * s + j - m
            col_base = (j - m) * c + i - m
            cleared = []
            for (domain, rows, cols, i0, i1, isum, j0, j1, jsum, threshold,
                 pattern_rows, pattern_cols, band) in runs:
                # the box corner farthest from (i, j) conflicts: so does
                # every candidate.  Otherwise one AND with the forbidden
                # pattern shifted onto (i, j) finds the conflicting bits and
                # one XOR clears them; a run with none keeps its domain
                a = i1 - i if i + i < isum else i - i0
                b = j1 - j if j + j < jsum else j - j0
                if a * a + b * b < threshold:
                    self.wipeouts += 1
                    break
                hit = rows & (
                    pattern_rows << row_base if row_base >= 0 else pattern_rows >> -row_base
                )
                if hit:
                    if hit == rows:
                        self.wipeouts += 1
                        break
                    if band is not None:
                        # this run holds circle t+2: the staged farthest-pair
                        # test (module docstring), first on the box less the
                        # bands of rows and columns that (i, j) forbids whole,
                        # against circle t+1's exact box or this same box
                        h = band[b]
                        lo_i, hi_i = i0 + e, i1 - e
                        if i - h < lo_i < i + h:
                            lo_i = i + h
                        if i - h < hi_i < i + h:
                            hi_i = i - h
                        h = band[a]
                        lo_j, hi_j = j0 + e, j1 - e
                        if j - h < lo_j < j + h:
                            lo_j = j + h
                        if j - h < hi_j < j + h:
                            hi_j = j - h
                        a0, a1, a2, a3 = cleared[0][2] if cleared else (lo_i, hi_i, lo_j, hi_j)
                        a = (a1 - lo_i if a1 - lo_i > hi_i - a0 else hi_i - a0) + e
                        b = (a3 - lo_j if a3 - lo_j > hi_j - a2 else hi_j - a2) + e
                        if a * a + b * b < pair_sq:
                            self.farthest_prunes += 1
                            break
                    rows ^= hit
                    cols ^= cols & (
                        pattern_cols << col_base if col_base >= 0 else pattern_cols >> -col_base
                    )
                    hi_i = (rows.bit_length() - 1) // s
                    hi_j = (cols.bit_length() - 1) // c
                    if band is not None:
                        # then with the exact highs, read in O(1)
                        if not cleared:
                            a1, a3 = hi_i, hi_j
                        a = (a1 - lo_i if a1 - lo_i > hi_i - a0 else hi_i - a0) + e
                        b = (a3 - lo_j if a3 - lo_j > hi_j - a2 else hi_j - a2) + e
                        if a * a + b * b < pair_sq:
                            self.farthest_prunes += 1
                            break
                    domain = rows, cols, (
                        ((rows & -rows).bit_length() - 1) // s,
                        hi_i,
                        ((cols & -cols).bit_length() - 1) // c,
                        hi_j,
                    )
                cleared.append(domain)
                if band is not None:
                    # last, the exact test of _farthest_prunes: the farthest
                    # pair of circles t+1 (the first run) and t+2 (this run)
                    a0, a1, a2, a3 = cleared[0][2]
                    b0, b1, b2, b3 = domain[2]
                    a = (a1 - b0 if a1 - b0 > b1 - a0 else b1 - a0) + e
                    b = (a3 - b2 if a3 - b2 > b3 - a2 else b3 - a2) + e
                    if a * a + b * b < pair_sq:
                        self.farthest_prunes += 1
                        break
            else:
                # the child descends: only now are its position and its
                # cleared domains written, and put back after
                positions[t] = (i, j)
                for (start, stop, domain), new in zip(spans, cleared):
                    if new is not domain:
                        masks[start:stop] = [new] * (stop - start)
                found = self._dfs(t + 1)
                for start, stop, domain in spans:
                    masks[start:stop] = [domain] * (stop - start)
                if found:
                    return True
                positions[t] = None
        return False

    def run(self) -> SolveOutcome:
        start = time.monotonic()
        status, reason, assignment = "infeasible", None, None
        try:
            found = not self._farthest_prunes(0) and self._dfs(0)
        except _LimitHit as hit:
            found, status, reason = False, "unknown", hit.reason
        elapsed = time.monotonic() - start
        if found:
            status = "feasible"
            assignment = {t + 1: self.positions[t] for t in range(self.n)}
            if not _assignment_satisfies(self.problem, assignment):
                raise RuntimeError("internal error: assignment failed re-verification")
        return SolveOutcome(
            status=status,
            assignment=assignment,
            reason=reason,
            nodes=self.nodes,
            elapsed=elapsed,
            farthest_pair=self.farthest_prunes,
            wipeout=self.wipeouts,
        )


def solve(
    problem: FeasibilityProblem,
    limits: SolveLimits | None = None,
) -> SolveOutcome:
    """Decide one feasibility problem within the given budget.

    The search is deterministic: the same problem and limits give the same
    status, assignment and node count.
    """
    if problem.trivially_infeasible:
        return SolveOutcome(status="infeasible", nodes=0, elapsed=0.0)
    return _Engine(problem, limits or SolveLimits()).run()
