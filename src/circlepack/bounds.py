"""Certified lower bounds and constructive upper bounds for packing instances.

Three lower-bound methods of increasing cost are provided, each returning
a value that provably cannot exceed the optimal container size:

- ``lb1``: the two largest circles must fit side by side.
- ``lb2``: total circle area must fit inside the container area.
- ``lb3``: bisection on the grid-based region-elimination test, which can
  certify infeasibility of candidate sizes between ``max(lb1, lb2)`` and the
  current upper bound.  On a disc the test is monotone within one lattice
  (sizes with the same ``theta``), so ``lb3`` first probes one size per
  lattice on the bisection's all-pass path and bisects only when one of
  them is refuted (the proof is in its docstring).

``idle_area_triple`` gives the area of the pocket between three mutually
tangent circles; no bound here uses it.

The constructive side (``initial_upper_bound``) builds a placement and
certifies it with ``_certify_placement``: a disc placement is scaled apart
about the origin, a strip's shelf rows are apart by construction, and the
size steps up one float at a time until ``geometry.verify_placement``
passes at tolerance 0.  So the returned value is a true upper bound, not a
float estimate.  Both exact checks (``_exact_pair_scale`` and
``verify_placement``) put every center and radius on one common
denominator and compare integers: squared lengths scaled by its square.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from itertools import combinations
from typing import Callable, Mapping, Sequence

import numpy as np

from .geometry import Instance, Placement, common_denominator, trivial_bounds, verify_placement
from .grid import build_grid
from .reduction import region_feasible

__all__ = [
    "BoundReport",
    "lb1",
    "lb2",
    "lb3",
    "idle_area_triple",
    "initial_upper_bound",
    "compute_bounds",
    "load_best_known",
]

_REPAIR_ATTEMPTS = 200


def lb1(instance: Instance) -> float:
    """Lower bound from the two largest circles.

    Disc containers must span the two largest circles placed side by side;
    strips must be long enough for the largest circle's diameter.
    """
    radii = instance.radii
    if instance.is_strip:
        return 2.0 * radii[0]
    if len(radii) == 1:
        return radii[0]
    return radii[0] + radii[1]


def _step(value: float, holds: Callable[[float], bool], toward: float) -> float:
    """``value``, stepped one float at a time toward ``toward`` until
    ``holds`` is true of it.  Every caller starts from a float estimate a
    few floats from the answer, so 64 failed steps are a ``RuntimeError``."""
    for _ in range(64):
        if holds(value):
            return value
        value = math.nextafter(value, toward)
    raise RuntimeError(f"no float within 64 steps toward {toward} holds")


def lb2(instance: Instance) -> float:
    """Lower bound from total area, rounded down to a certified float.

    The circles jointly cover ``sum(pi * r^2)``, so a disc container needs
    radius at least ``sqrt(sum(r^2))`` and a strip of fixed width ``W`` needs
    length at least ``sum(pi * r^2) / W``.  Both are evaluated exactly, the
    strip's with the float pi, which lies below pi.  The float estimate (the
    nearest float to the strip's length, the square root of the nearest
    float to the disc's sum) is one of the two floats either side of the
    exact value, and is stepped down when it lies above, so the result is
    the largest float that passes the exact check.
    """
    area = sum(Fraction(r) ** 2 for r in instance.radii)
    if instance.is_strip:
        length = Fraction(math.pi) * area / Fraction(instance.container.width)
        return _step(float(length), lambda v: Fraction(v) <= length, -math.inf)
    return _step(math.sqrt(area), lambda v: Fraction(v) ** 2 <= area, -math.inf)


def lb3(
    instance: Instance,
    *,
    upper_seed: float | None = None,
    deadline: float | None = None,
) -> float:
    """Lower bound from bisection on the region-elimination test.

    Searches for the largest container size at which the conservative region
    test (``region_feasible``) already certifies infeasibility, at cell
    spacing 0.45 * the smallest radius, to 1e-3 relative to ``max(lb1,
    lb2)``.  Sizes where the test passes prove nothing and shrink the search
    interval from above; only certified-empty sizes raise the returned
    bound, so the result is always valid.  Once ``time.perf_counter()``
    reaches ``deadline`` no further size is probed, and the bound certified
    so far is returned.

    On a disc the test is monotone within one lattice: for sizes s' < s
    whose grids have the same ``theta``, a refutation at s is one at s'.
    With ``theta`` fixed, the cell indices, the step arrays of
    ``grid.candidates`` and the symmetry masks are the same at both sizes,
    and ``delta = size / theta`` shrinks with the size.  So at s':

    * the containment limit ``floor(((size - r) / delta)^2)``, with
      ``(size - r) / delta = theta * (1 - r / size)``, is no larger;
    * the annulus's inner limit, from ``theta * max(0, (2*ref + r) / size
      - 1)``, is no smaller, and an annulus empty at s (``ref + r > size``)
      is empty at s';
    * so every start region is a subset of the one at s;
    * every ``pair_thresholds`` entry ``ceil(((r_a + r_b) / delta)^2)`` is
      no smaller, and ``forbidden`` only grows with the threshold.

    The propagation fixpoint is the largest arc-consistent family inside
    the start regions.  The fixpoint at s' is arc-consistent under the
    smaller forbidden sets of s too, and lies inside the start regions of
    s, so it lies inside the fixpoint at s: a region empty at s is empty
    at s'.

    When no size is refuted the bisection visits one fixed path of sizes,
    each the midpoint of ``base`` and the one before, and returns ``base``.
    By the lemma every size on that path passes once the smallest path size
    of each ``theta`` passes, so only those are probed, in ascending size.
    If one is refuted, the bisection runs, reusing the answers it has.
    Across lattices the test is not monotone, so a probe per ``theta`` is
    needed; a strip's width does not scale with its length, so strips
    always bisect.
    """
    base = max(lb1(instance), lb2(instance))
    delta_r = 0.45 * instance.min_radius
    tolerance = 1e-3 * base
    high = trivial_bounds(instance)[1] if upper_seed is None else upper_seed
    answers: dict[float, bool] = {}

    def out_of_time() -> bool:
        return deadline is not None and time.perf_counter() >= deadline

    if not instance.is_strip:
        # the bisection's own float expression, with no size refuted; the
        # theta is that of the disc grid region_feasible builds
        smallest: dict[int, float] = {}
        probe = high
        while probe - base > tolerance:
            probe = 0.5 * (base + probe)
            smallest[build_grid(probe, delta_r, instance.min_radius).theta] = probe
        for size in sorted(smallest.values()):
            if out_of_time():
                return base
            answers[size] = region_feasible(instance, size, delta_r)
            if not answers[size]:
                break
        else:
            return base
    certified = base
    while high - certified > tolerance and not out_of_time():
        mid = 0.5 * (certified + high)
        feasible = answers.get(mid)
        if feasible is None:
            feasible = region_feasible(instance, mid, delta_r)
        if feasible:
            high = mid
        else:
            certified = mid
    return max(base, certified)


def idle_area_triple(r_c: float, r_k: float, r_l: float) -> float:
    """Area of the pocket enclosed by three mutually tangent circles.

    The circle centers form a triangle with side lengths equal to the radius
    sums; the pocket is that triangle minus the three circular sectors cut
    off at its corners.
    """
    if min(r_c, r_k, r_l) <= 0:
        raise ValueError("radii must be positive")
    s = r_c + r_k + r_l
    total = math.sqrt(s * r_c * r_k * r_l)
    for a, b, c in ((r_c, r_k, r_l), (r_k, r_l, r_c), (r_l, r_c, r_k)):
        cos_angle = (a * s - b * c) / ((a + b) * (a + c))
        cos_angle = max(-1.0, min(1.0, cos_angle))
        total -= 0.5 * a * a * math.acos(cos_angle)
    return total


def lb4(instance: Instance) -> float | None:
    """``max(lb1, lb2)``, or None for a strip.  Nothing in the solver calls it.

    The bench tracer wraps ``circlepack.bounds.lb4`` by name, so it stays
    until ROADMAP item 1 deletes it together with its span and the
    ``bounds.lb4.*`` per-layer metrics.
    """
    if instance.is_strip:
        return None
    return max(lb1(instance), lb2(instance))


# ---------------------------------------------------------------------------
# Constructive upper bounds
# ---------------------------------------------------------------------------


def _exact_pair_scale(instance: Instance, centers: dict[int, tuple[float, float]]) -> float | None:
    """Smallest float factor that removes all exact pairwise overlaps, or
    None when no float factor exists: two centers coincide, or are so close
    that the worst ratio overflows a float.

    The worst ratio min_sq / dist_sq over the pairs is found exactly: the
    centers and radii are put on one common denominator, where both squares
    are integers (times the same D^2), and ratios compare by
    cross-multiplication.
    """
    values = []
    for c in instance.circles:
        values += [c.radius, *centers[c.id]]
    _, scaled = common_denominator(values)
    radii, xs, ys = scaled[0::3], scaled[1::3], scaled[2::3]
    worst_num, worst_den = 0, 1
    for a, b in combinations(range(len(radii)), 2):
        dx = xs[a] - xs[b]
        dy = ys[a] - ys[b]
        dist_sq = dx * dx + dy * dy
        if dist_sq == 0:
            return None
        reach = radii[a] + radii[b]
        min_sq = reach * reach
        if min_sq * worst_den > worst_num * dist_sq:
            worst_num, worst_den = min_sq, dist_sq
    if worst_num <= worst_den:
        return 1.0
    try:
        scale = math.sqrt(worst_num / worst_den)
    except OverflowError:
        return None
    for _ in range(4):
        p, q = scale.as_integer_ratio()
        if p * p * worst_den >= worst_num * q * q:
            break
        scale = math.nextafter(scale, math.inf)
    return scale


def _certify_placement(
    instance: Instance, centers: dict[int, tuple[float, float]]
) -> tuple[float, Placement]:
    """Return (size, placement) that passes ``verify_placement`` at tolerance 0.

    A disc placement is scaled about the origin until ``_exact_pair_scale``
    finds no overlap.  A strip placement (``_shelf_strip_centers``) needs no
    repair: its rows are apart by construction.  A pair whose float centres
    are less than ``1 + 1e-9`` times their float radius sum apart vertically
    is set at least ``1e-6`` of that sum beyond tangency horizontally, and
    any other pair is ``1e-9`` of it beyond tangency vertically.  Either
    slack adds at least ``1e-12`` of the squared sum to the squared
    distance, and the float error of the shelf's expressions is of order
    ``1e-16`` of it.  The only move here is a top row's ``y``, the float
    ``W - r``, which may lie one float above its exact value: it steps down
    to the largest float with ``y + r <= W`` exactly, and stays ``>= r``,
    since ``Instance`` holds ``W >= 2 * r_max``.  That step is at most one
    float of ``W``.  A bottom-top pair whose slack it could reach has ``W``
    within about twice its radius sum, so the pair stays apart.  Two
    top-row circles both step, and their horizontal slack holds while ``W``
    is below ``10^9`` times the smaller radius; past that a placement may
    fail to verify at any size, and this raises ``RuntimeError``.

    The size starts at the float reach and steps up until
    ``verify_placement`` passes, so that is the one exact containment test.
    """
    pts = {cid: (float(x), float(y)) for cid, (x, y) in centers.items()}
    if instance.is_strip:
        width = Fraction(instance.container.width)
        for c in instance.circles:
            x, y = pts[c.id]
            room = width - Fraction(c.radius)
            pts[c.id] = (x, _step(y, lambda v: Fraction(v) <= room, -math.inf))
        reach = max(pts[c.id][0] + c.radius for c in instance.circles)
    else:
        for _ in range(_REPAIR_ATTEMPTS):
            scale = _exact_pair_scale(instance, pts)
            if scale is None:
                raise RuntimeError("coincident or near-coincident centers in constructed placement")
            if scale == 1.0:
                break
            # A bare minimal scale can be cancelled by float rounding; grow
            # by at least 1e-12 relative so one application clears all dirt.
            scale = max(scale, 1.0 + 1e-12)
            pts = {cid: (x * scale, y * scale) for cid, (x, y) in pts.items()}
        else:
            raise RuntimeError("failed to certify constructed placement")
        reach = max(math.hypot(*pts[c.id]) + c.radius for c in instance.circles)

    def fits(size: float) -> bool:
        placement = Placement(centers=pts, container_size=size)
        return verify_placement(instance, placement, tolerance=0.0).feasible

    size = _step(reach, fits, math.inf)
    return size, Placement(centers=pts, container_size=size)


def _pair_tangent_positions(
    p: tuple[float, float], rp: float, q: tuple[float, float], rq: float, r: float
) -> list[tuple[float, float]]:
    """Centers of a circle of radius r tangent to two placed circles."""
    d1 = rp + r
    d2 = rq + r
    dx = q[0] - p[0]
    dy = q[1] - p[1]
    dist = math.hypot(dx, dy)
    if dist < 1e-12 or dist > d1 + d2 or dist < abs(d1 - d2):
        return []
    a = (d1 * d1 - d2 * d2 + dist * dist) / (2.0 * dist)
    h_sq = d1 * d1 - a * a
    if h_sq < 0:
        return []
    h = math.sqrt(max(0.0, h_sq))
    mx = p[0] + a * dx / dist
    my = p[1] + a * dy / dist
    ux, uy = -dy / dist, dx / dist
    return [(mx + h * ux, my + h * uy), (mx - h * ux, my - h * uy)]


# Relative margin of a numpy screen: its float error is a few ulps, far
# inside the margin, so only values within it need the scalar expression.
_SCREEN = 1e-12


def _clear_candidates(
    candidates: list[tuple[float, float]], limits: list[tuple[float, float, float]]
) -> list[tuple[float, float]]:
    """The candidates (x, y), in order, with (x - ox) ** 2 + (y - oy) ** 2 >=
    limit for every (ox, oy, limit) of ``limits``.

    One numpy test decides every pair whose squared distance is not within
    ``_SCREEN`` relative of its limit; a candidate with such a pair is
    decided by the scalar expression itself, so the answer is the scalar one.
    """
    points = np.array(candidates)
    centers = np.array(limits)
    dx = points[:, 0, None] - centers[:, 0]
    dy = points[:, 1, None] - centers[:, 1]
    dist_sq = dx * dx + dy * dy
    margin = _SCREEN * np.abs(centers[:, 2])
    hit = (dist_sq < centers[:, 2] - margin).any(axis=1)
    unsure = (dist_sq < centers[:, 2] + margin).any(axis=1)
    clear = []
    for i in np.flatnonzero(~hit):
        x, y = candidates[i]
        if unsure[i] and any((x - ox) ** 2 + (y - oy) ** 2 < limit for ox, oy, limit in limits):
            continue
        clear.append((x, y))
    return clear


def _greedy_disc_centers(instance: Instance, angles: int = 24) -> dict[int, tuple[float, float]]:
    """Place circles in decreasing radius, each minimizing the enclosing reach.

    The choice is the least (reach, x, y) key, each rounded to 1e-9.  Only
    a candidate whose reach is within 1e-8 of the least can share the least
    rounded reach, so a numpy screen keeps those, in order, for the exact
    ``min``; its float error is far inside the 1e-8.
    """
    circles = instance.circles
    positions: dict[int, tuple[float, float]] = {circles[0].id: (0.0, 0.0)}
    placed = [circles[0]]
    current = circles[0].radius  # the enclosing reach of `placed`
    slack = 1e-9
    angles_rad = [2.0 * math.pi * k / angles for k in range(angles)]
    turns = [(math.cos(a), math.sin(a)) for a in angles_rad]
    for circle in circles[1:]:
        r = circle.radius
        candidates: list[tuple[float, float]] = []
        for other in placed:
            ox, oy = positions[other.id]
            dist = other.radius + r
            candidates.extend((ox + dist * cos, oy + dist * sin) for cos, sin in turns)
        for first, second in combinations(placed, 2):
            candidates.extend(
                _pair_tangent_positions(
                    positions[first.id],
                    first.radius,
                    positions[second.id],
                    second.radius,
                    r,
                )
            )
        limits = [
            (*positions[other.id], (other.radius + r) * (other.radius + r) - slack)
            for other in placed
        ]
        feasible = _clear_candidates(candidates, limits)
        if not feasible:
            feasible = [(current + r, 0.0)]
        points = np.array(feasible)
        reach = np.maximum(current, np.sqrt(points[:, 0] ** 2 + points[:, 1] ** 2) + r)
        least = reach.min()
        near = np.flatnonzero(reach <= least + 1e-8 + _SCREEN * least)
        best = min(
            (feasible[i] for i in near),
            key=lambda pos: (
                round(max(current, math.hypot(pos[0], pos[1]) + r), 9),
                round(pos[0], 9),
                round(pos[1], 9),
            ),
        )
        positions[circle.id] = best
        placed.append(circle)
        current = max(current, math.hypot(*best) + r)
    return positions


# Relative margin of the reach bound in ``_reach_objective``: far above the
# few ulps by which each float side can differ from its exact value.
_REACH_MARGIN = 1e-12


def _reach_objective(
    discs: Sequence[tuple[float, float, float]],
) -> Callable[[Sequence[float]], float]:
    """The enclosing reach about a point z of the discs (x, y, r):
    ``objective(z)`` is the float ``max([hypot(x - zx, y - zy) + r for
    ...])``, bit for bit, without computing every term.

    By the triangle inequality a disc's term is at most ``|c| + r + |z|``,
    with ``|c| = hypot(x, y)``.  Both the term and the bound
    ``(|c| + r + |z|) * (1 + _REACH_MARGIN)`` are computed in a few
    roundings of relative error 2^-53 each, every sum adding nonnegative
    values, so the computed term never exceeds the computed bound.  The
    discs are visited in decreasing ``|c| + r``; once the bound of one disc
    is below the running max, so is the bound (rounding is monotone) and
    the term of every later disc, and the loop stops.  A max of floats does
    not depend on their order, so the result is the full max.
    """
    hypot = math.hypot
    ordered = sorted(((hypot(x, y) + r, x, y, r) for x, y, r in discs), reverse=True)
    grow = 1.0 + _REACH_MARGIN

    def objective(z) -> float:
        zx, zy = float(z[0]), float(z[1])
        lift = hypot(zx, zy)
        best = -math.inf
        for reach, x, y, r in ordered:
            if (reach + lift) * grow < best:
                break
            value = hypot(x - zx, y - zy) + r
            if value > best:
                best = value
        return best

    return objective


def _recenter(instance: Instance, positions: dict[int, tuple[float, float]]) -> dict[int, tuple[float, float]]:
    """Shift centers so the enclosing reach around the origin is minimized."""
    from scipy.optimize import minimize

    circles = instance.circles
    objective = _reach_objective([(*positions[c.id], c.radius) for c in circles])

    starts = [(0.0, 0.0)]
    starts.append(
        (
            sum(positions[c.id][0] for c in circles) / len(circles),
            sum(positions[c.id][1] for c in circles) / len(circles),
        )
    )
    best_z = (0.0, 0.0)
    best_val = objective((0.0, 0.0))
    for start in starts:
        result = minimize(objective, start, method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000})
        z = (float(result.x[0]), float(result.x[1]))
        for digits in (None, 12, 9, 6, 3):
            snapped = z if digits is None else (round(z[0], digits), round(z[1], digits))
            val = objective(snapped)
            if val < best_val - 1e-15 or (abs(val - best_val) <= 1e-15 and digits is not None):
                best_val = val
                best_z = snapped
    return {cid: (x - best_z[0], y - best_z[1]) for cid, (x, y) in positions.items()}


def _refine_disc(instance: Instance, positions: dict[int, tuple[float, float]]) -> dict[int, tuple[float, float]]:
    """One coordinate-wise pass pulling circles inward when strictly improving.

    A move of one circle is kept when the enclosing reach, the max of every
    circle's ``|p| + r``, drops by more than 1e-13.  The other circles stay
    put meanwhile, so their largest reach ``rest`` is one float, and a trial
    costs one hypot and one max of two; a max of floats does not depend on
    order, so this is the max over all circles.  No move is kept once
    ``rest >= current - 1e-13``, since the new max is at least ``rest``;
    ``current`` changes only when a move is kept, so the circle is done.

    A trial lies ``step <= slack/4`` from the circle's position, ``slack``
    being 4 times the first step.  Overlaps are tested only against the
    neighbours: the circles whose centre is nearer than ``r + r_o + slack``
    to the anchor, a position the circle held.  The list is rebuilt once
    the circle is ``slack/2`` or more from the anchor in the L1 norm, which
    is at least the distance.  So a trial is less than ``3*slack/4`` from
    the anchor, and a skipped circle is more than ``slack/4`` clear of it:
    its overlap test would be false.  The floats of these distances err by
    a few ulps of the coordinates, which stay within the largest starting
    reach (a kept move lowers the enclosing reach), so the argument holds
    with room to spare when ``slack/4 > 1e-9`` times that reach; otherwise
    ``slack`` is infinite and every circle is a neighbour.
    """
    pts = dict(positions)
    circles = instance.circles
    reach = [math.hypot(*pts[c.id]) + c.radius for c in circles]
    first = 0.25 * instance.min_radius
    slack = 4.0 * first if first > 1e-9 * max(reach) else math.inf
    for index, circle in enumerate(circles):
        r = circle.radius
        rest = max(reach[:index] + reach[index + 1 :], default=-math.inf)
        anchor = None
        for axis in (0, 1):
            step = first
            # current, the enclosing reach, is this circle's while it moves
            while step > 1e-9 and rest < reach[index] - 1e-13:
                x, y = pts[circle.id]
                if anchor is None or abs(x - anchor[0]) + abs(y - anchor[1]) >= 0.5 * slack:
                    anchor = (x, y)
                    near = []
                    for other in circles:
                        ox, oy = pts[other.id]
                        need = other.radius + r
                        if other.id != circle.id and math.hypot(ox - x, oy - y) < need + slack:
                            near.append((ox, oy, need * need))
                for sign in (-1.0, 1.0):
                    tx, ty = (x + sign * step, y) if axis == 0 else (x, y + sign * step)
                    for ox, oy, need_sq in near:
                        if (tx - ox) ** 2 + (ty - oy) ** 2 < need_sq:
                            break  # overlap: try the other sign
                    else:
                        moved = math.hypot(tx, ty) + r
                        if max(rest, moved) < reach[index] - 1e-13:
                            pts[circle.id] = (tx, ty)
                            reach[index] = moved
                            break
                else:
                    step *= 0.5
    return pts


def _chain_disc_centers(instance: Instance) -> dict[int, tuple[float, float]]:
    """Tangent chain along the x-axis, centered around the origin."""
    total = sum(Fraction(r) for r in instance.radii)
    cursor = -total
    out: dict[int, tuple[float, float]] = {}
    for circle in instance.circles:
        r = Fraction(circle.radius)
        out[circle.id] = (float(cursor + r), 0.0)
        cursor += 2 * r
    return out


def _shelf_strip_centers(instance: Instance) -> dict[int, tuple[float, float]]:
    """Greedy left-to-right shelf placement alternating bottom and top rows."""
    width = instance.container.width
    out: dict[int, tuple[float, float]] = {}
    placed: list[tuple[float, float, float]] = []
    for circle in instance.circles:
        r = circle.radius
        y_options = [r]
        if width - r > r:
            y_options.append(width - r)
        best = None
        for y in y_options:
            x = r
            for px, py, pr in placed:
                min_dist = pr + r
                # Demand an explicit horizontal slack unless the pair is
                # vertically separated with margin; both dominate the float
                # dirt of these expressions, so no repair follows.
                if abs(py - y) < min_dist * (1.0 + 1e-9):
                    need = max(min_dist * min_dist - (py - y) ** 2, 0.0)
                    x = max(x, px + math.sqrt(need) + 1e-6 * min_dist)
            if best is None or x < best[0] - 1e-15 or (
                abs(x - best[0]) <= 1e-15 and y < best[1]
            ):
                best = (x, y)
        assert best is not None
        out[circle.id] = best
        placed.append((best[0], best[1], r))
    return out


def initial_upper_bound(
    instance: Instance, *, deadline: float | None = None
) -> tuple[float, Placement]:
    """Initial upper bound from a certified constructive placement.

    A disc's placement is the better of greedy tangent candidates and a
    tangent chain, a strip's the shelf rows.  ``_certify_placement`` scales
    a disc's apart, keeps a strip's rows, which are apart by construction,
    and steps the size up until ``verify_placement`` passes.  So the
    returned placement verifies at the returned size at tolerance 0, and
    the bound carries its certificate.

    A disc's greedy placement is recentred, refined, and recentred again
    only when ``_refine_disc`` moved a circle: otherwise the second
    Nelder-Mead would restart from the centre it has just converged to.
    One circle, at the origin already, is not polished, so it loads no
    scipy.  Once ``time.perf_counter()`` reaches ``deadline``, the greedy
    placement is certified as it is, unpolished.
    """
    if instance.is_strip:
        return _certify_placement(instance, _shelf_strip_centers(instance))
    greedy = _greedy_disc_centers(instance)
    if instance.n > 1 and (deadline is None or time.perf_counter() < deadline):
        greedy = _recenter(instance, greedy)
        refined = _refine_disc(instance, greedy)
        if refined != greedy:
            greedy = _recenter(instance, refined)
    candidates = [
        _certify_placement(instance, greedy),
        _certify_placement(instance, _chain_disc_centers(instance)),
    ]
    return min(candidates, key=lambda item: item[0])


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """Certified bounds for one instance, with per-method wall times."""

    lb1: float
    lb2: float
    lb3: float
    chosen_lb: float
    ub: float
    ub_placement: Placement
    timings: Mapping[str, float]

    def as_dict(self) -> dict:
        """The named bounds, in the key order of the bounds report and of a
        result file's ``initial_bounds``."""
        return {
            "lb1": self.lb1,
            "lb2": self.lb2,
            "lb3": self.lb3,
            "chosen_lb": self.chosen_lb,
            "ub": self.ub,
        }


def compute_bounds(
    instance: Instance,
    *,
    deadline: float | None = None,
) -> BoundReport:
    """Compute every bound and join them into a BoundReport.

    ``chosen_lb`` is the largest of ``lb1``, ``lb2`` and ``lb3``.  The
    upper bound is computed first because ``lb3`` bisects below it.
    ``deadline``, a ``time.perf_counter()`` value, stops the polishing of
    the seed placement and ``lb3``'s probes once reached.
    """
    timings: dict[str, float] = {}

    start = time.perf_counter()
    value1 = lb1(instance)
    timings["lb1"] = time.perf_counter() - start

    start = time.perf_counter()
    value2 = lb2(instance)
    timings["lb2"] = time.perf_counter() - start

    start = time.perf_counter()
    ub, placement = initial_upper_bound(instance, deadline=deadline)
    timings["ub"] = time.perf_counter() - start

    start = time.perf_counter()
    value3 = lb3(instance, upper_seed=ub, deadline=deadline)
    timings["lb3"] = time.perf_counter() - start

    chosen = max(value1, value2, value3)
    return BoundReport(
        lb1=value1,
        lb2=value2,
        lb3=value3,
        chosen_lb=chosen,
        ub=ub,
        ub_placement=placement,
        timings=timings,
    )


def load_best_known(path: str | None = None) -> dict[str, float]:
    """Load the bundled (or user-supplied) best-known container size table."""
    if path is not None:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = (
            resources.files("circlepack")
            .joinpath("data/best_known.txt")
            .read_text(encoding="utf-8")
        )
    table: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, value = line.split()
        table[name] = float(value)
    return table
