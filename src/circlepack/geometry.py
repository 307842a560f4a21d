"""Problem statement types and the exact continuous-space feasibility verifier.

A packing instance consists of circles with fixed radii and a container that
is either a disc (whose radius is the quantity being minimized) or a
rectangular strip of fixed width (whose length is being minimized).  A
placement assigns a center to every circle at a concrete container size.

Verification is exact integer arithmetic: every input number (centers, radii,
container size, strip width, tolerance) is read as an exact ratio of integers
(exact for binary floats) and scaled to one common denominator ``D``, the lcm
of their denominators, so a placement whose coordinates satisfy the
constraints exactly is accepted at tolerance 0 with no rounding leakage.
Overlap and disc-containment comparisons compare squared lengths scaled by
``D^2``; strip containment is linear per axis, scaled by ``D``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence, Union

Coordinate = Union[int, float, Fraction]

__all__ = [
    "Circle",
    "CircleContainer",
    "StripContainer",
    "ContainerKind",
    "Instance",
    "Placement",
    "VerificationReport",
    "verify_placement",
    "common_denominator",
]


@dataclass(frozen=True)
class Circle:
    """One circle to be packed: 1-based id and a positive radius."""

    id: int
    radius: float

    def __post_init__(self) -> None:
        if self.id < 1:
            raise ValueError(f"circle id must be >= 1, got {self.id}")
        if not self.radius > 0:
            raise ValueError(f"circle {self.id}: radius must be > 0, got {self.radius}")


@dataclass(frozen=True)
class CircleContainer:
    """Disc container centered at the origin; its radius is the size variable."""

    kind: str = field(default="circle", init=False)


@dataclass(frozen=True)
class StripContainer:
    """Rectangular strip [0, length] x [0, width]; length is the size variable."""

    width: float
    kind: str = field(default="strip", init=False)

    def __post_init__(self) -> None:
        if not self.width > 0:
            raise ValueError(f"strip width must be > 0, got {self.width}")


ContainerKind = Union[CircleContainer, StripContainer]


@dataclass(frozen=True)
class Instance:
    """A packing problem: circles sorted by non-increasing radius + container."""

    name: str
    circles: tuple[Circle, ...]
    container: ContainerKind

    def __post_init__(self) -> None:
        if not self.circles:
            raise ValueError("instance must contain at least one circle")
        radii = [c.radius for c in self.circles]
        for a, b in zip(radii, radii[1:]):
            if a < b:
                raise ValueError("circles must be sorted by non-increasing radius")
        ids = sorted(c.id for c in self.circles)
        if ids != list(range(1, len(self.circles) + 1)):
            raise ValueError("circle ids must be exactly 1..n")
        if isinstance(self.container, StripContainer):
            if self.container.width < 2 * max(radii):
                raise ValueError(
                    "strip width %.17g cannot accommodate the largest circle "
                    "(needs width >= %.17g)" % (self.container.width, 2 * max(radii))
                )

    @staticmethod
    def from_radii(
        name: str, radii: Sequence[float], container: ContainerKind | None = None
    ) -> "Instance":
        """Build an instance from bare radii, sorting them non-increasing."""
        ordered = sorted((float(r) for r in radii), reverse=True)
        circles = tuple(Circle(i + 1, r) for i, r in enumerate(ordered))
        return Instance(name, circles, container or CircleContainer())

    @property
    def n(self) -> int:
        return len(self.circles)

    @property
    def radii(self) -> tuple[float, ...]:
        return tuple(c.radius for c in self.circles)

    @property
    def min_radius(self) -> float:
        return self.circles[-1].radius

    @property
    def max_radius(self) -> float:
        return self.circles[0].radius

    @property
    def is_strip(self) -> bool:
        return isinstance(self.container, StripContainer)


@dataclass(frozen=True)
class Placement:
    """Centers for every circle id at a concrete container size.

    Coordinates may be floats or exact Fractions; verification treats both
    exactly.  ``container_size`` is the disc radius or the strip length.
    """

    centers: Mapping[int, tuple[Coordinate, Coordinate]]
    container_size: Coordinate

    def as_float_centers(self) -> dict[int, tuple[float, float]]:
        return {i: (float(x), float(y)) for i, (x, y) in self.centers.items()}


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the exact feasibility check of a placement.

    ``worst_overlap_violation`` is the largest positive value of
    (r_c + r_k)^2 - dist^2 over all pairs (squared length units).
    ``worst_containment_violation`` is the largest containment excess:
    squared units for disc containers, linear units for strips.
    """

    feasible: bool
    worst_overlap_violation: float
    worst_containment_violation: float
    violating_pairs: tuple[tuple[int, int, float], ...]
    tolerance: float


def common_denominator(values: Sequence[Coordinate]) -> tuple[int, list[int]]:
    """One common denominator ``D`` of exact numbers, and each number times ``D``.

    ``D`` is the lcm of the denominators of the numbers read as exact
    ratios (floats are dyadic), so every ``value * D`` is an integer.
    Non-finite floats are a ``ValueError``.
    """
    ratios = []
    for value in values:
        if isinstance(value, float):
            if not math.isfinite(value):
                raise ValueError(f"not a finite number: {value}")
            ratios.append(value.as_integer_ratio())
        else:
            q = Fraction(value)
            ratios.append((q.numerator, q.denominator))
    den = math.lcm(*(q for _, q in ratios))
    return den, [p * (den // q) for p, q in ratios]


def verify_placement(
    instance: Instance,
    placement: Placement,
    tolerance: float = 1e-9,
) -> VerificationReport:
    """Exactly check non-overlap and containment for a placement.

    A pair (c, k) passes when dist^2 >= (r_c + r_k)^2 - tolerance.  A circle
    passes disc containment when x^2 + y^2 <= (R - r)(R - r)|sign| +
    tolerance (the signed square makes an oversized circle a violation even
    at the origin) and strip containment when its center stays inside the
    inset rectangle within tolerance per axis.  Every input is scaled to one
    common denominator ``D``, so all comparisons are between integers:
    squared lengths times ``D^2``, strip excesses times ``D``.  Only the
    reported magnitudes are rounded to float, from the exact rationals.
    Non-finite inputs are a ``ValueError``.
    """
    if isinstance(tolerance, float) and not math.isfinite(tolerance):
        raise ValueError(f"tolerance must be finite, got {tolerance}")
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    missing = [c.id for c in instance.circles if c.id not in placement.centers]
    if missing:
        raise ValueError(f"placement is missing circles {missing}")

    ordered = [c.id for c in instance.circles]
    strip = isinstance(instance.container, StripContainer)
    values = [tolerance, placement.container_size, instance.container.width if strip else 0]
    for c in instance.circles:
        values += [c.radius, *placement.centers[c.id]]
    den, (tol, size, width, *rest) = common_denominator(values)
    radii, xs, ys = rest[0::3], rest[1::3], rest[2::3]
    den_sq = den * den  # int / int rounds correctly, as float(Fraction) does
    tol_sq = tol * den  # tolerance in D^2-scaled squared units

    worst_overlap = 0
    violating: list[tuple[int, int, float]] = []
    for a in range(len(ordered)):
        xa, ya, ra = xs[a], ys[a], radii[a]
        for b in range(a + 1, len(ordered)):
            dx = xa - xs[b]
            dy = ya - ys[b]
            reach = ra + radii[b]
            gap = reach * reach - (dx * dx + dy * dy)
            if gap > worst_overlap:
                worst_overlap = gap
            if gap > tol_sq:
                violating.append((ordered[a], ordered[b], gap / den_sq))

    worst_containment = 0
    if strip:
        for x, y, r in zip(xs, ys, radii):
            for excess in (r - x, x - (size - r), r - y, y - (width - r)):
                if excess > worst_containment:
                    worst_containment = excess
        containment_tol, containment_den = tol, den
    else:
        for x, y, r in zip(xs, ys, radii):
            room = size - r
            excess = x * x + y * y - room * abs(room)
            if excess > worst_containment:
                worst_containment = excess
        containment_tol, containment_den = tol_sq, den_sq

    feasible = worst_overlap <= tol_sq and worst_containment <= containment_tol
    return VerificationReport(
        feasible=feasible,
        worst_overlap_violation=worst_overlap / den_sq,
        worst_containment_violation=worst_containment / containment_den,
        violating_pairs=tuple(violating),
        tolerance=tolerance,
    )
