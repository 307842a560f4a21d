"""Tests for the LP-format binary-program export.

Oracle, written before the tests that rely on it: a small text-LP parser
plus exhaustive enumeration of the exported model.  The enumeration walks
each circle's candidate selectors one-hot (the bit vectors are then pinned
by the integer-linking equality rows, which the enumeration still checks
arithmetically rather than trusting), and for every circle pair walks each
frontier selector together with all four sign-bit patterns; every parsed
constraint row is evaluated under the assembled 0/1 valuation.  Valuations
outside this family violate a one-hot or linking equality, so the verdict
equals satisfiability of the full binary program.  A single-circle model is
additionally checked against a truly unstructured sweep over all 2^k
valuations.
"""

from __future__ import annotations

import itertools
import re
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from circlepack.feasibility import (
    _assignment_satisfies,
    assignment_to_placement,
    build_problem,
    solve,
)
from circlepack.geometry import Instance, verify_placement
from circlepack.grid import Grid, build_grid
from circlepack.milp import build_encoding, export_milp

# ---------------------------------------------------------------------------
# Oracle: LP text parser


@dataclass
class LPRow:
    name: str
    coeffs: dict[str, int]
    sense: str
    rhs: int

    def holds(self, valuation: dict[str, int]) -> bool:
        total = sum(c * valuation.get(v, 0) for v, c in self.coeffs.items())
        if self.sense == "=":
            return total == self.rhs
        if self.sense == ">=":
            return total >= self.rhs
        if self.sense == "<=":
            return total <= self.rhs
        raise ValueError(f"unknown sense {self.sense!r}")


@dataclass
class LPModel:
    objective: str
    rows: list[LPRow]
    binaries: list[str]


_TERM = re.compile(r"([+-])?\s*(\d+)\s+([A-Za-z_]\w*)")
_TAIL = re.compile(r"(.*?)(<=|>=|=)\s*(-?\d+)\s*$")


def parse_lp(path: Path) -> LPModel:
    sections = {"minimize", "subject to", "binaries", "end"}
    current = None
    objective_lines: list[str] = []
    constraint_chunks: list[str] = []
    binary_tokens: list[str] = []
    for raw in path.read_text().splitlines():
        if raw.lstrip().startswith("\\"):
            continue
        marker = raw.strip().lower()
        if marker in sections:
            current = marker
            continue
        if not raw.strip():
            continue
        if current == "minimize":
            objective_lines.append(raw.strip())
        elif current == "subject to":
            if re.match(r"^\s*\w+\s*:", raw):
                constraint_chunks.append(raw.strip())
            else:
                assert constraint_chunks, "continuation line before any row"
                constraint_chunks[-1] += " " + raw.strip()
        elif current == "binaries":
            binary_tokens.extend(raw.split())
        elif current == "end":
            raise AssertionError(f"content after End: {raw!r}")
        else:
            raise AssertionError(f"content before any section: {raw!r}")

    rows: list[LPRow] = []
    for chunk in constraint_chunks:
        name, body = chunk.split(":", 1)
        tail = _TAIL.match(body.strip())
        assert tail is not None, f"row without sense/rhs: {chunk!r}"
        lhs, sense, rhs = tail.groups()
        coeffs: dict[str, int] = defaultdict(int)
        consumed = 0
        for match in _TERM.finditer(lhs):
            sign, magnitude, var = match.groups()
            coeffs[var] += (-1 if sign == "-" else 1) * int(magnitude)
            consumed += len(match.group(0).replace(" ", ""))
        leftovers = re.sub(r"\s+", "", lhs)
        assert len(leftovers) == consumed, f"unparsed tokens in row: {chunk!r}"
        rows.append(LPRow(name.strip(), dict(coeffs), sense, int(rhs)))
    return LPModel(" ".join(objective_lines), rows, binary_tokens)


# ---------------------------------------------------------------------------
# Oracle: exhaustive enumeration of the parsed model


@dataclass
class _ModelShape:
    selectors: dict[int, list[tuple[str, int, int]]]
    x_bits: dict[int, list[str]]
    y_bits: dict[int, list[str]]
    members: dict[tuple[int, int], list[str]]
    sign_x: dict[tuple[int, int], str]
    sign_y: dict[tuple[int, int], str]


def _decode_names(model: LPModel) -> _ModelShape:
    selectors: dict[int, list[tuple[str, int, int]]] = defaultdict(list)
    x_bits: dict[int, dict[int, str]] = defaultdict(dict)
    y_bits: dict[int, dict[int, str]] = defaultdict(dict)
    members: dict[tuple[int, int], dict[int, str]] = defaultdict(dict)
    sign_x: dict[tuple[int, int], str] = {}
    sign_y: dict[tuple[int, int], str] = {}
    for name in model.binaries:
        parts = name.split("_")
        kind, nums = parts[0], [int(p) for p in parts[1:]]
        if kind == "sel":
            selectors[nums[0]].append((name, nums[1], nums[2]))
        elif kind == "xb":
            x_bits[nums[0]][nums[1]] = name
        elif kind == "yb":
            y_bits[nums[0]][nums[1]] = name
        elif kind == "sep":
            members[(nums[0], nums[1])][nums[2]] = name
        elif kind == "sgx":
            sign_x[(nums[0], nums[1])] = name
        elif kind == "sgy":
            sign_y[(nums[0], nums[1])] = name
        else:
            raise AssertionError(f"unknown variable prefix: {name}")
    return _ModelShape(
        selectors={c: sorted(v) for c, v in selectors.items()},
        x_bits={c: [bits[b] for b in sorted(bits)] for c, bits in x_bits.items()},
        y_bits={c: [bits[b] for b in sorted(bits)] for c, bits in y_bits.items()},
        members={p: [m[k] for k in sorted(m)] for p, m in members.items()},
        sign_x=sign_x,
        sign_y=sign_y,
    )


def _bit_valuation(names: list[str], value: int) -> dict[str, int]:
    assert value < (1 << len(names))
    return {name: (value >> b) & 1 for b, name in enumerate(names)}


def enumerate_lp_feasible(
    model: LPModel,
) -> tuple[bool, dict[int, tuple[int, int]] | None]:
    """Exhaustively decide the exported binary program.

    Returns (satisfiable, selected-candidate-per-circle witness).
    """
    shape = _decode_names(model)
    circles = sorted(shape.x_bits)
    circle_vars = {
        c: {n for n, _, _ in shape.selectors.get(c, [])}
        | set(shape.x_bits[c])
        | set(shape.y_bits[c])
        for c in circles
    }
    pair_vars = {
        pair: set(shape.members[pair])
        | {shape.sign_x[pair], shape.sign_y[pair]}
        | set(shape.x_bits[pair[0]])
        | set(shape.y_bits[pair[0]])
        | set(shape.x_bits[pair[1]])
        | set(shape.y_bits[pair[1]])
        for pair in shape.members
    }
    circle_rows: dict[int, list[LPRow]] = {c: [] for c in circles}
    pair_rows: dict[tuple[int, int], list[LPRow]] = {p: [] for p in pair_vars}
    for row in model.rows:
        used = set(row.coeffs)
        home = next((c for c in circles if used <= circle_vars[c]), None)
        if home is not None:
            circle_rows[home].append(row)
            continue
        pair_home = next(
            (
                p
                for p in pair_vars
                if used <= pair_vars[p] and used & set(shape.members[p])
            ),
            None,
        )
        assert pair_home is not None, f"row {row.name} fits no variable group"
        pair_rows[pair_home].append(row)

    def circle_valuation(c: int, cand: tuple[str, int, int]) -> dict[str, int]:
        name, i, j = cand
        valuation = {n: 0 for n in circle_vars[c]}
        valuation[name] = 1
        valuation.update(_bit_valuation(shape.x_bits[c], i))
        valuation.update(_bit_valuation(shape.y_bits[c], j))
        return valuation

    circle_choices: dict[int, list[tuple[tuple[str, int, int], dict[str, int]]]] = {}
    for c in circles:
        kept = []
        for cand in shape.selectors.get(c, []):
            valuation = circle_valuation(c, cand)
            if all(row.holds(valuation) for row in circle_rows[c]):
                kept.append((cand, valuation))
        circle_choices[c] = kept
        if not kept:
            return False, None

    pair_cache: dict[tuple[tuple[int, int], int, int, int, int], bool] = {}

    def pair_ok(pair: tuple[int, int], va: dict[str, int], vb: dict[str, int]) -> bool:
        a, b = pair
        key = (
            pair,
            sum(va[n] << k for k, n in enumerate(shape.x_bits[a])),
            sum(va[n] << k for k, n in enumerate(shape.y_bits[a])),
            sum(vb[n] << k for k, n in enumerate(shape.x_bits[b])),
            sum(vb[n] << k for k, n in enumerate(shape.y_bits[b])),
        )
        cached = pair_cache.get(key)
        if cached is not None:
            return cached
        base = dict(va)
        base.update(vb)
        result = False
        for member in shape.members[pair]:
            for sx, sy in itertools.product((0, 1), repeat=2):
                valuation = dict(base)
                valuation.update({m: 0 for m in shape.members[pair]})
                valuation[member] = 1
                valuation[shape.sign_x[pair]] = sx
                valuation[shape.sign_y[pair]] = sy
                if all(row.holds(valuation) for row in pair_rows[pair]):
                    result = True
                    break
            if result:
                break
        pair_cache[key] = result
        return result

    pairs = sorted(pair_rows)

    def search(level: int, chosen: list[tuple[tuple[str, int, int], dict[str, int]]]):
        if level == len(circles):
            return {c: (cand[1], cand[2]) for c, (cand, _) in zip(circles, chosen)}
        c = circles[level]
        for cand, valuation in circle_choices[c]:
            ok = True
            for other_level in range(level):
                pair = (circles[other_level], c)
                if pair in pair_rows and not pair_ok(
                    pair, chosen[other_level][1], valuation
                ):
                    ok = False
                    break
            if ok:
                witness = search(level + 1, chosen + [(cand, valuation)])
                if witness is not None:
                    return witness
        return None

    unmatched = [p for p in pairs if p[0] not in circles or p[1] not in circles]
    assert not unmatched, f"pair rows over unknown circles: {unmatched}"
    witness = search(0, [])
    return (witness is not None), witness


def _export(problem, tmp_path: Path, stem: str) -> LPModel:
    path = export_milp(problem, tmp_path / f"{stem}.lp")
    return parse_lp(path)


# ---------------------------------------------------------------------------
# Parser self-test


def test_parser_roundtrip_small(tmp_path):
    text = (
        "\\ comment line\n"
        "Minimize\n obj: 0\n"
        "Subject To\n"
        " r1: 3 a + 2 b - 7 c >= -4\n"
        " r2: 1 a\n   + 1 b = 1\n"
        "Binaries\n a b\n c\n"
        "End\n"
    )
    path = tmp_path / "tiny.lp"
    path.write_text(text)
    model = parse_lp(path)
    assert model.objective == "obj: 0"
    assert model.binaries == ["a", "b", "c"]
    assert len(model.rows) == 2
    first, second = model.rows
    assert first.name == "r1"
    assert first.coeffs == {"a": 3, "b": 2, "c": -7}
    assert first.sense == ">=" and first.rhs == -4
    assert second.coeffs == {"a": 1, "b": 1}
    assert second.sense == "=" and second.rhs == 1
    assert first.holds({"a": 1, "b": 0, "c": 1})
    assert not second.holds({"a": 1, "b": 1, "c": 0})


# ---------------------------------------------------------------------------
# Export structure


def test_single_circle_counts(tmp_path):
    instance = Instance.from_radii("one", [1.0])
    grid = build_grid(1.5, 0.5, 1.0)
    problem = build_problem(instance, grid, "restricted")
    model = _export(problem, tmp_path, "one")
    encoding = build_encoding(problem)

    domain = problem.domains[1].count
    assert domain > 0
    bit_vars = [n for n in model.binaries if n.startswith(("xb_", "yb_"))]
    sel_vars = [n for n in model.binaries if n.startswith("sel_")]
    assert len(bit_vars) == 2 * grid.bit_width
    assert len(sel_vars) == domain
    assert not any(n.startswith(("sep_", "sgx_", "sgy_")) for n in model.binaries)
    assert {row.name for row in model.rows} == {"pick_1", "xlink_1", "ylink_1"}
    assert model.binaries == encoding.variable_names()


def test_single_circle_full_exhaustive(tmp_path):
    """Sweep all 2^k valuations of a one-circle model with numpy.

    Exactly one valuation per candidate may satisfy the model (selector
    one-hot plus the two linking equalities pin the bit vectors), so the
    count of satisfying valuations must equal the domain size.
    """
    instance = Instance.from_radii("one", [1.0])
    grid = build_grid(1.5, 0.5, 1.0)
    problem = build_problem(instance, grid, "restricted")
    model = _export(problem, tmp_path, "sweep")

    names = model.binaries
    k = len(names)
    assert k <= 16, "toy sized for a full sweep"
    index = {n: pos for pos, n in enumerate(names)}
    valuations = (np.arange(1 << k)[:, None] >> np.arange(k)[None, :]) & 1
    satisfied = np.ones(1 << k, dtype=bool)
    for row in model.rows:
        coeffs = np.zeros(k, dtype=np.int64)
        for var, coeff in row.coeffs.items():
            coeffs[index[var]] = coeff
        totals = valuations @ coeffs
        if row.sense == "=":
            satisfied &= totals == row.rhs
        elif row.sense == ">=":
            satisfied &= totals >= row.rhs
        else:
            satisfied &= totals <= row.rhs
    assert int(satisfied.sum()) == problem.domains[1].count

    feasible, witness = enumerate_lp_feasible(model)
    assert feasible and witness is not None
    assert solve(problem).is_feasible


# ---------------------------------------------------------------------------
# Equivalence with the built-in search


def _check_agreement(problem, tmp_path, stem):
    model = _export(problem, tmp_path, stem)
    lp_feasible, witness = enumerate_lp_feasible(model)
    outcome = solve(problem)
    assert outcome.status in ("feasible", "infeasible")
    assert lp_feasible == outcome.is_feasible, stem
    if lp_feasible:
        assert witness is not None
        assert _assignment_satisfies(problem, witness)
    return outcome


def test_two_circle_boundary_spacing_matches_solver(tmp_path):
    """Two unit circles in a radius-2 container at spacing 1.

    The spacing sits at the approximation-quality precondition boundary, so
    the lattice is built directly; the export and the search are both
    spacing-agnostic.  Offsets (1, 0) for one circle and (-1, 0) for the
    other give squared step distance 4 = ceil((2/1)^2), so the restricted
    model is satisfiable.
    """
    instance = Instance.from_radii("pair", [1.0, 1.0])
    grid = Grid(
        kind="circle",
        size=2.0,
        delta=1.0,
        theta=2,
        size_exact=Fraction(2),
        delta_exact=Fraction(1),
    )
    for mode in ("restricted", "relaxed"):
        problem = build_problem(instance, grid, mode)
        outcome = _check_agreement(problem, tmp_path, f"boundary-{mode}")
        if mode == "restricted":
            assert outcome.is_feasible


def test_three_circle_coarse_grid_infeasible(tmp_path):
    """Radii {1, 0.75, 0.5} in a radius-1.8 container at spacing 0.3: the
    largest pair needs squared step distance 35 but the lattice admits at
    most 29, so both the search and the exported model are infeasible."""
    instance = Instance.from_radii("trio", [1.0, 0.75, 0.5])
    grid = build_grid(1.8, 0.3, 0.5)
    assert grid.delta == pytest.approx(0.3)
    problem = build_problem(instance, grid, "restricted")
    model = _export(problem, tmp_path, "trio")
    lp_feasible, _ = enumerate_lp_feasible(model)
    assert not lp_feasible
    assert solve(problem).is_infeasible


def test_witness_decodes_to_verified_placement(tmp_path):
    instance = Instance.from_radii("snug", [1.0, 0.9])
    grid = build_grid(2.2, 0.32, 0.9)
    problem = build_problem(instance, grid, "restricted")
    model = _export(problem, tmp_path, "snug")
    lp_feasible, witness = enumerate_lp_feasible(model)
    assert lp_feasible and witness is not None
    assert _assignment_satisfies(problem, witness)
    placement = assignment_to_placement(grid, witness)
    report = verify_placement(instance, placement, tolerance=0.0)
    assert report.feasible, report


TOY_CASES = (
    ("kiss", [1.0, 1.0], 2.0, 0.45),
    ("loose", [1.0, 1.0], 2.4, 0.5),
    ("mixed", [1.2, 0.8], 2.2, 0.5),
    ("pinned", [1.0, 1.0], 2.02, 0.5),
    ("triple", [1.0, 1.0, 1.0], 1.6, 0.5),
)


def test_toy_models_match_solver(tmp_path):
    statuses = set()
    for name, radii, size, delta in TOY_CASES:
        instance = Instance.from_radii(name, radii)
        grid = build_grid(size, delta, min(radii))
        for mode in ("restricted", "relaxed"):
            problem = build_problem(instance, grid, mode)
            outcome = _check_agreement(problem, tmp_path, f"{name}-{mode}")
            statuses.add(outcome.status)
    assert statuses == {"feasible", "infeasible"}


def test_empty_domain_exports_infeasible_model(tmp_path):
    instance = Instance.from_radii("oversized", [1.7, 1.0])
    grid = build_grid(1.6, 0.4, 1.0)
    problem = build_problem(instance, grid, "restricted")
    assert problem.trivially_infeasible
    model = _export(problem, tmp_path, "oversized")
    lp_feasible, _ = enumerate_lp_feasible(model)
    assert not lp_feasible
    assert solve(problem).is_infeasible


# ---------------------------------------------------------------------------
# File discipline


def test_export_is_deterministic(tmp_path):
    instance = Instance.from_radii("det", [1.0, 0.9])
    grid = build_grid(2.2, 0.4, 0.9)
    problem = build_problem(instance, grid, "restricted")
    first = export_milp(problem, tmp_path / "a.lp").read_bytes()
    second = export_milp(problem, tmp_path / "b.lp").read_bytes()
    assert first == second


def test_variables_declared_once_and_used(tmp_path):
    instance = Instance.from_radii("decl", [1.0, 0.8])
    grid = build_grid(2.1, 0.45, 0.8)
    for mode in ("restricted", "relaxed"):
        problem = build_problem(instance, grid, mode)
        model = _export(problem, tmp_path, f"decl-{mode}")
        assert len(model.binaries) == len(set(model.binaries))
        declared = set(model.binaries)
        used = set()
        for row in model.rows:
            used |= set(row.coeffs)
        assert used <= declared
        encoding = build_encoding(problem)
        assert model.binaries == encoding.variable_names()
        # every candidate has a selector and every pair a frontier block
        for cid in (1, 2):
            assert len(encoding.selectors[cid]) == problem.domains[cid].count
        assert set(encoding.frontier_selectors) == set(problem.min_sq)
