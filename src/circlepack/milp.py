"""LP-format export of a grid feasibility problem as a pure binary program.

The exported model is feasibility-equivalent to the built-in search: it is
satisfiable exactly when the problem has an assignment.  Encoding layout:

* per circle — one selector binary per candidate (one-hot), plus two bit
  vectors (x and y lattice index) tied to the selected candidate by an
  equality row each;
* per circle pair — one selector binary per separation-frontier member
  (one-hot) and two sign binaries choosing the sign of the index
  difference along each axis; the member's offsets are enforced on the
  sign-adjusted differences through big-M rows, which realizes the
  absolute-value separation semantics with four sign patterns per pair.

The file uses the industry text LP syntax with a constant zero objective,
so any MILP solver that reads LP files can decide the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .feasibility import FeasibilityProblem
from .grid import Mode, separation_frontier

__all__ = ["BinaryEncoding", "build_encoding", "export_milp"]


@dataclass(frozen=True)
class BinaryEncoding:
    """Names and metadata of every binary variable of the exported model.

    ``selectors`` maps circle id to (variable name, i, j) per candidate;
    ``frontier_selectors`` maps a pair to (variable name, u1, u2) per
    frontier member; ``big_m`` is the per-pair relaxation constant, large
    enough to void a row whenever its selector or sign binary is off.
    """

    mode: Mode
    bit_width: int
    x_bits: Mapping[int, tuple[str, ...]]
    y_bits: Mapping[int, tuple[str, ...]]
    selectors: Mapping[int, tuple[tuple[str, int, int], ...]]
    frontier_selectors: Mapping[tuple[int, int], tuple[tuple[str, int, int], ...]]
    sign_x: Mapping[tuple[int, int], str]
    sign_y: Mapping[tuple[int, int], str]
    big_m: Mapping[tuple[int, int], int]

    def variable_names(self) -> list[str]:
        """Every binary variable in deterministic file order."""
        names: list[str] = []
        for cid in sorted(self.x_bits):
            names.extend(self.x_bits[cid])
            names.extend(self.y_bits[cid])
            names.extend(name for name, _, _ in self.selectors[cid])
        for pair in sorted(self.frontier_selectors):
            names.extend(name for name, _, _ in self.frontier_selectors[pair])
            names.append(self.sign_x[pair])
            names.append(self.sign_y[pair])
        return names


def build_encoding(problem: FeasibilityProblem) -> BinaryEncoding:
    """Lay out the binary variables for one feasibility problem."""
    width = problem.grid.bit_width
    x_bits: dict[int, tuple[str, ...]] = {}
    y_bits: dict[int, tuple[str, ...]] = {}
    selectors: dict[int, tuple[tuple[str, int, int], ...]] = {}
    for cid in range(1, problem.instance.n + 1):
        x_bits[cid] = tuple(f"xb_{cid}_{b}" for b in range(width))
        y_bits[cid] = tuple(f"yb_{cid}_{b}" for b in range(width))
        ii, jj = np.nonzero(problem.domains[cid])
        selectors[cid] = tuple(
            (f"sel_{cid}_{i}_{j}", i, j) for i, j in zip(ii.tolist(), jj.tolist())
        )

    frontier_selectors: dict[tuple[int, int], tuple[tuple[str, int, int], ...]] = {}
    sign_x: dict[tuple[int, int], str] = {}
    sign_y: dict[tuple[int, int], str] = {}
    big_m: dict[tuple[int, int], int] = {}
    for (a, b), min_sq in sorted(problem.min_sq.items()):
        frontier = separation_frontier(min_sq, problem.mode)
        frontier_selectors[(a, b)] = tuple(
            (f"sep_{a}_{b}_{m}", u1, u2) for m, (u1, u2) in enumerate(frontier)
        )
        sign_x[(a, b)] = f"sgx_{a}_{b}"
        sign_y[(a, b)] = f"sgy_{a}_{b}"
        max_u = max(max(u1, u2) for u1, u2 in frontier)
        big_m[(a, b)] = problem.grid.max_index + max_u + 1
    return BinaryEncoding(
        mode=problem.mode,
        bit_width=width,
        x_bits=x_bits,
        y_bits=y_bits,
        selectors=selectors,
        frontier_selectors=frontier_selectors,
        sign_x=sign_x,
        sign_y=sign_y,
        big_m=big_m,
    )


def _format_row(name: str, terms: list[tuple[int, str]], sense: str, rhs: int) -> str:
    """One constraint row, wrapped to keep lines well under length limits."""
    parts: list[str] = []
    for coeff, var in terms:
        if coeff == 0:
            continue
        sign = "-" if coeff < 0 else "+"
        magnitude = abs(coeff)
        parts.append(f"{sign} {magnitude} {var}")
    if not parts:
        raise ValueError(f"constraint {name} has no nonzero terms")
    body = parts[0].lstrip("+ ") if parts[0].startswith("+") else parts[0]
    pieces = [body] + parts[1:]
    lines: list[str] = []
    current = f" {name}: {pieces[0]}"
    for piece in pieces[1:]:
        if len(current) + len(piece) + 1 > 200:
            lines.append(current)
            current = "   " + piece
        else:
            current += " " + piece
    current += f" {sense} {rhs}"
    lines.append(current)
    return "\n".join(lines)


def export_milp(problem: FeasibilityProblem, destination: str | Path) -> Path:
    """Write the problem as an LP file; returns the written path.

    The model has no objective beyond a constant.  A circle with an empty
    candidate domain produces an unsatisfiable selector row, keeping the
    exported model infeasible exactly like the source problem.
    """
    encoding = build_encoding(problem)
    rows: list[str] = []

    for cid in range(1, problem.instance.n + 1):
        picks = encoding.selectors[cid]
        if picks:
            rows.append(
                _format_row(f"pick_{cid}", [(1, name) for name, _, _ in picks], "=", 1)
            )
        else:
            # empty domain: demand a bit-vector value one past its maximum,
            # keeping the exported model infeasible like the source problem
            impossible = [(1 << b, var) for b, var in enumerate(encoding.x_bits[cid])]
            rows.append(
                _format_row(f"pick_{cid}", impossible, "=", 1 << encoding.bit_width)
            )
            continue
        x_terms = [(1 << b, var) for b, var in enumerate(encoding.x_bits[cid])]
        x_terms += [(-i, name) for name, i, _ in picks]
        rows.append(_format_row(f"xlink_{cid}", x_terms, "=", 0))
        y_terms = [(1 << b, var) for b, var in enumerate(encoding.y_bits[cid])]
        y_terms += [(-j, name) for name, _, j in picks]
        rows.append(_format_row(f"ylink_{cid}", y_terms, "=", 0))

    for (a, b), members in encoding.frontier_selectors.items():
        rows.append(
            _format_row(
                f"pairpick_{a}_{b}", [(1, name) for name, _, _ in members], "=", 1
            )
        )
        big = encoding.big_m[(a, b)]
        sgx = encoding.sign_x[(a, b)]
        sgy = encoding.sign_y[(a, b)]
        x_a = [(1 << k, var) for k, var in enumerate(encoding.x_bits[a])]
        x_b = [(-(1 << k), var) for k, var in enumerate(encoding.x_bits[b])]
        y_a = [(1 << k, var) for k, var in enumerate(encoding.y_bits[a])]
        y_b = [(-(1 << k), var) for k, var in enumerate(encoding.y_bits[b])]
        for m, (sep_name, u1, u2) in enumerate(members):
            if u1 > 0:
                rows.append(
                    _format_row(
                        f"sxp_{a}_{b}_{m}",
                        x_a + x_b + [(-big, sep_name), (-big, sgx)],
                        ">=",
                        u1 - 2 * big,
                    )
                )
                rows.append(
                    _format_row(
                        f"sxn_{a}_{b}_{m}",
                        [(-c, v) for c, v in x_a]
                        + [(-c, v) for c, v in x_b]
                        + [(-big, sep_name), (big, sgx)],
                        ">=",
                        u1 - big,
                    )
                )
            if u2 > 0:
                rows.append(
                    _format_row(
                        f"syp_{a}_{b}_{m}",
                        y_a + y_b + [(-big, sep_name), (-big, sgy)],
                        ">=",
                        u2 - 2 * big,
                    )
                )
                rows.append(
                    _format_row(
                        f"syn_{a}_{b}_{m}",
                        [(-c, v) for c, v in y_a]
                        + [(-c, v) for c, v in y_b]
                        + [(-big, sep_name), (big, sgy)],
                        ">=",
                        u2 - big,
                    )
                )

    names = encoding.variable_names()
    binary_lines: list[str] = []
    current = ""
    for name in names:
        if len(current) + len(name) + 1 > 200:
            binary_lines.append(current)
            current = " " + name
        else:
            current += " " + name
    if current:
        binary_lines.append(current)

    destination = Path(destination)
    with destination.open("w", encoding="ascii") as fh:
        fh.write(f"\\ grid packing feasibility model: {problem.mode} mode,\n")
        fh.write(
            f"\\ {problem.instance.n} circles, container size "
            f"{problem.grid.size:.9g}, spacing {problem.grid.delta:.9g}\n"
        )
        fh.write("Minimize\n obj: 0\n")
        fh.write("Subject To\n")
        for row in rows:
            fh.write(row + "\n")
        fh.write("Binaries\n")
        for line in binary_lines:
            fh.write(line + "\n")
        fh.write("End\n")
    return destination
