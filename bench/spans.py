"""Spans around the solver's public functions, recorded from outside.

The solver's modules bind each other's functions with ``from .x import y``,
so a function is wrapped in every ``circlepack`` namespace that holds it
(``propagate`` in both ``circlepack.reduction`` and ``circlepack.driver``,
for example). ``compute_bounds`` runs ``lb3`` and ``lb4`` on a thread pool,
where no span is open; it hands its span to the tracer explicitly, and a
span opened on a thread with nothing open takes that span as its parent.

``README.md`` in this directory maps each layer to its metrics and to the
end-to-end metrics and workloads it should and should not move.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

# (layer, function, hands its span to a thread pool)
TRACED = (
    ("driver", "run", False),
    ("bounds", "compute_bounds", True),
    ("bounds", "initial_upper_bound", False),
    ("bounds", "lb3", False),
    ("bounds", "lb4", False),
    ("reduction", "region_feasible", False),
    ("reduction", "build_region_map", False),
    ("reduction", "propagate", False),
    ("grid", "grid_for_instance", False),
    ("feasibility", "build_problem", False),
    ("feasibility", "solve", False),
    ("geometry", "verify_placement", False),
)

@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run: int | None
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent, "run": self.run,
                "start": self.start, "end": self.end, **self.info}


def _span_info(name: str, args: tuple, kwargs: dict, result) -> dict:
    """Counts read from a traced call's arguments and return value."""
    if name == "reduction.propagate":
        cells_in = sum(int(m.sum()) for m in args[0].masks.values())
        cells_out = 0 if result is None else sum(int(m.sum()) for m in result.masks.values())
        return {"cells_in": cells_in, "cells_out": cells_out, "empty": result is None}
    if name == "reduction.region_feasible":
        return {"feasible": bool(result)}
    if name == "grid.grid_for_instance":
        return {"cells": result.cells_x * result.cells_y}
    if name == "feasibility.solve":
        problem = args[0] if args else kwargs["problem"]
        return {"mode": problem.mode, "nodes": result.nodes, "status": result.status}
    return {}


class Tracer:
    """Records spans while installed; restores every wrapped name on exit."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id: int | None = None
        self.pool_parent: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, hands_to_pool: bool, func):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer.pool_parent
            with tracer._lock:
                span_id = next(tracer._ids)
            span = Span(span_id, name, parent, tracer.run_id, time.perf_counter())
            stack.append(span_id)
            if hands_to_pool:
                outer, tracer.pool_parent = tracer.pool_parent, span_id
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if hands_to_pool:
                    tracer.pool_parent = outer
                with tracer._lock:
                    tracer.spans.append(span)
            span.info = _span_info(name, args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for layer, attr, hands_to_pool in TRACED:
            wrap = functools.partial(self._wrap, f"{layer}.{attr}", hands_to_pool)
            self._patched += patch_everywhere(layer, attr, wrap)
        return self

    def __exit__(self, *exc) -> None:
        unpatch(self._patched)


def patch_everywhere(layer: str, attr: str, make_wrapper) -> list[tuple[object, str, object]]:
    """Replace ``circlepack.<layer>.<attr>`` in every namespace that binds it.

    Returns the replaced bindings for ``unpatch``.
    """
    original = getattr(sys.modules[f"circlepack.{layer}"], attr)
    wrapper = make_wrapper(original)
    patched = []
    for key, module in list(sys.modules.items()):
        if key != "circlepack" and not key.startswith("circlepack."):
            continue
        if getattr(module, attr, None) is original:
            patched.append((module, attr, original))
            setattr(module, attr, wrapper)
    return patched


def unpatch(patched: list[tuple[object, str, object]]) -> None:
    for module, attr, original in reversed(patched):
        setattr(module, attr, original)
    patched.clear()


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def function_seconds(spans: list[Span]) -> dict[str, float]:
    """Inclusive seconds per traced function over one pass."""
    seconds = {f"{layer}.{attr}": 0.0 for layer, attr, _ in TRACED}
    for span in spans:
        seconds[span.name] += span.end - span.start
    return seconds


def layer_metrics(spans: list[Span], wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass that took ``wall`` seconds.

    Shares (``pct``) are of ``wall``: a function's is its inclusive time, a
    layer's ``self_pct`` is its spans' durations minus the part of each
    covered by child spans. Overlapping ``lb3``/``lb4`` spans can make the
    layer shares add up to slightly more than 100.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))

    def pct(seconds: float) -> float:
        return 100.0 * seconds / wall

    calls = Counter(span.name for span in spans)
    total = function_seconds(spans)
    layer_self = dict.fromkeys((layer for layer, _, _ in TRACED), 0.0)
    for span in spans:
        covered = _union_length(children.get(span.id, []))
        layer_self[span.name.split(".")[0]] += span.end - span.start - covered

    metrics: dict[str, float] = {}
    for name in total:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.pct"] = pct(total[name])
    for layer, seconds in layer_self.items():
        metrics[f"layer.{layer}.self_pct"] = pct(seconds)
    metrics["driver.run.self_pct"] = metrics["layer.driver.self_pct"]

    props = [s.info for s in spans if s.name == "reduction.propagate"]
    metrics["reduction.propagate.empty"] = sum(p["empty"] for p in props)
    cells_in = sum(p["cells_in"] for p in props)
    metrics["reduction.propagate.keep_frac"] = (
        sum(p["cells_out"] for p in props) / cells_in if cells_in else 0.0
    )
    metrics["grid.cells_max"] = max(
        (s.info["cells"] for s in spans if s.name == "grid.grid_for_instance"), default=0
    )

    all_nodes = 0
    all_seconds = 0.0
    for mode in ("restricted", "relaxed"):
        solves = [s for s in spans if s.name == "feasibility.solve" and s.info["mode"] == mode]
        nodes = sum(s.info["nodes"] for s in solves)
        seconds = sum(s.end - s.start for s in solves)
        decided = sum(s.info["status"] != "unknown" for s in solves)
        key = f"feasibility.solve.{mode}"
        metrics[f"{key}.calls"] = len(solves)
        metrics[f"{key}.pct"] = pct(seconds)
        metrics[f"{key}.nodes"] = nodes
        metrics[f"{key}.decided_frac"] = decided / len(solves) if solves else 0.0
        all_nodes += nodes
        all_seconds += seconds
    metrics["feasibility.nodes_per_s"] = all_nodes / all_seconds if all_seconds else 0.0
    return metrics
