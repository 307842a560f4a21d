"""Tests for instance types, the exact placement verifier, and trivial bounds."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlepack.geometry import (
    Circle,
    CircleContainer,
    Instance,
    Placement,
    StripContainer,
    VerificationReport,
    trivial_bounds,
    verify_placement,
)


def disc_instance(name, radii):
    return Instance.from_radii(name, radii, CircleContainer())


def test_two_tangent_unit_circles_verify_exactly():
    """Tangent pair on a diameter passes at tolerance zero."""
    inst = disc_instance("pair", [1, 1])
    placement = Placement({1: (-1, 0), 2: (1, 0)}, 2)
    report = verify_placement(inst, placement, tolerance=0)
    assert report.feasible
    assert report.worst_overlap_violation == 0.0
    assert report.worst_containment_violation == 0.0
    assert report.violating_pairs == ()


def test_overlapping_pair_reported_infeasible():
    """Two circles closer than the sum of radii produce an overlap violation."""
    inst = disc_instance("overlap", [1, 0.75, 0.5])
    placement = Placement(
        {1: (0, 0), 2: (1.5, 0), 3: (0, 2.25)},  # big/mid distance 1.5 < 1.75
        3.0,
    )
    report = verify_placement(inst, placement, tolerance=1e-9)
    assert not report.feasible
    assert any(pair[:2] == (1, 2) for pair in report.violating_pairs)
    # violation is in squared units: 1.75^2 - 1.5^2 = 0.8125
    assert math.isclose(report.worst_overlap_violation, 1.75**2 - 1.5**2, rel_tol=1e-12)


def test_seven_unit_circles_hexagonal_layout():
    """Hexagonal flower of 7 unit circles fits a container of radius 3."""
    inst = disc_instance("hex7", [1] * 7)
    centers = {1: (0.0, 0.0)}
    for k in range(6):
        ang = math.pi * k / 3
        centers[k + 2] = (2 * math.cos(ang), 2 * math.sin(ang))
    # independent direct check of all 21 pair distances and 7 containments
    pts = list(centers.values())
    for a in range(7):
        for b in range(a + 1, 7):
            d = math.dist(pts[a], pts[b])
            assert d >= 2 - 1e-12
        assert math.hypot(*pts[a]) + 1 <= 3 + 1e-12
    report = verify_placement(inst, Placement(centers, 3.0), tolerance=1e-9)
    assert report.feasible


def test_missing_circle_is_an_error():
    inst = disc_instance("pair", [1, 1])
    with pytest.raises(ValueError, match="missing"):
        verify_placement(inst, Placement({1: (0, 0)}, 2.0))


def test_oversized_circle_is_infeasible_not_an_error():
    """Container smaller than the circle reports infeasible even at the origin."""
    inst = disc_instance("big", [2])
    report = verify_placement(inst, Placement({1: (0, 0)}, 1.0), tolerance=0)
    assert not report.feasible
    assert report.worst_containment_violation > 0


def test_strip_tangent_row_verifies_exactly():
    inst = Instance.from_radii("strip2", [1, 1], StripContainer(width=2))
    placement = Placement({1: (1, 1), 2: (3, 1)}, 4)
    assert verify_placement(inst, placement, tolerance=0).feasible
    shifted = Placement({1: (Fraction(1, 2), 1), 2: (3, 1)}, 4)
    report = verify_placement(inst, shifted, tolerance=0)
    assert not report.feasible
    assert report.worst_containment_violation == pytest.approx(0.5)


def test_tolerance_is_on_squared_distance_for_discs():
    """An overlap of 5e-10 in squared units passes at 1e-9, fails at 1e-10."""
    inst = disc_instance("near", [1, 1])
    x = math.sqrt(4 - 5e-10)
    placement = Placement({1: (0, 0), 2: (x, 0)}, 10.0)
    gap = float(Fraction(2) ** 2 - Fraction(x) ** 2)
    assert 0 < gap < 1e-9
    assert verify_placement(inst, placement, tolerance=1e-9).feasible
    assert not verify_placement(inst, placement, tolerance=1e-10).feasible


def test_instance_validation():
    with pytest.raises(ValueError):
        Instance("bad", (Circle(1, 1.0), Circle(2, 2.0)), CircleContainer())  # unsorted
    with pytest.raises(ValueError):
        Circle(1, 0.0)
    with pytest.raises(ValueError):
        Instance.from_radii("wide", [3], StripContainer(width=5))  # 2*3 > 5
    inst = Instance.from_radii("ok", [0.5, 2, 1], CircleContainer())
    assert inst.radii == (2, 1, 0.5)
    assert [c.id for c in inst.circles] == [1, 2, 3]


def test_trivial_bounds_examples():
    assert trivial_bounds(disc_instance("z2", [3, 4])) == (7, 7)
    assert trivial_bounds(disc_instance("z5", [1, 2, 3, 4, 5])) == (9, 15)
    assert trivial_bounds(disc_instance("one", [5])) == (5, 5)
    strip = Instance.from_radii("s", [2, 1], StripContainer(width=4))
    assert trivial_bounds(strip) == (4, 6)


@given(
    radii=st.lists(
        st.integers(min_value=1, max_value=8).map(lambda k: Fraction(k, 2)),
        min_size=2,
        max_size=5,
    ),
    scale_num=st.integers(min_value=1, max_value=9),
    scale_den=st.integers(min_value=1, max_value=9),
)
def test_exact_tangent_chain_scales_exactly(radii, scale_num, scale_den):
    """A tangent chain across the diameter verifies at tolerance 0 at any scale.

    Circles are laid out in a row, consecutive circles tangent, spanning a
    container of radius half the total diameter; all coordinates rational,
    so the verifier must accept with zero tolerance at every rational scale.
    """
    lam = Fraction(scale_num, scale_den)
    radii = sorted((Fraction(r) for r in radii), reverse=True)
    size = sum(radii)
    inst = Instance.from_radii("chain", [float(r) for r in radii])
    # instance sorts non-increasing, so radii align with ids 1..n
    centers = {}
    x = -size
    for idx, r in enumerate(radii, start=1):
        centers[idx] = (x + r, Fraction(0))
        x += 2 * r
    assert verify_placement(inst, Placement(centers, size), tolerance=0).feasible

    scaled_inst = Instance.from_radii("chain-s", [float(r * lam) for r in radii])
    # float radii of scaled circles are inexact; rebuild instance exactly via
    # Fractions through Circle construction instead
    scaled_centers = {i: (x * lam, y * lam) for i, (x, y) in centers.items()}
    exact_inst = Instance(
        "chain-exact",
        tuple(Circle(i + 1, r * lam) for i, r in enumerate(radii)),
        CircleContainer(),
    )
    report = verify_placement(
        exact_inst, Placement(scaled_centers, size * lam), tolerance=0
    )
    assert report.feasible
    del scaled_inst


@given(
    n_equal=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_relabeling_equal_circles_preserves_feasibility(n_equal, seed):
    """Swapping centers among equal-radius circles cannot change the verdict."""
    import random

    rng = random.Random(seed)
    radii = [1.0] * n_equal + [0.5]
    inst = disc_instance("perm", radii)
    pts = {}
    for cid in range(1, len(radii) + 1):
        pts[cid] = (rng.uniform(-2, 2), rng.uniform(-2, 2))
    base = verify_placement(inst, Placement(pts, 3.0), tolerance=1e-9)
    perm = list(range(1, n_equal + 1))
    rng.shuffle(perm)
    permuted = {**pts}
    for new_id, old_id in enumerate(perm, start=1):
        permuted[new_id] = pts[old_id]
    swapped = verify_placement(inst, Placement(permuted, 3.0), tolerance=1e-9)
    assert base.feasible == swapped.feasible
    assert base.worst_containment_violation == pytest.approx(
        swapped.worst_containment_violation, abs=1e-12
    )


def test_non_finite_tolerance_is_an_error():
    inst = disc_instance("pair", [1, 1])
    placement = Placement({1: (-1, 0), 2: (1, 0)}, 2)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="tolerance must be finite"):
            verify_placement(inst, placement, tolerance=bad)


def test_non_finite_coordinate_is_an_error():
    inst = disc_instance("pair", [1, 1])
    with pytest.raises(ValueError, match="finite"):
        verify_placement(inst, Placement({1: (-1, 0), 2: (math.inf, 0)}, 2))


# ---------------------------------------------------------------------------
# integer kernel against the rational reference
# ---------------------------------------------------------------------------


def _reference_verify(instance, placement, tolerance):
    """The verifier written directly in Fraction arithmetic, as the oracle."""
    tol = Fraction(tolerance)
    size = Fraction(placement.container_size)
    points = {
        c.id: (Fraction(placement.centers[c.id][0]), Fraction(placement.centers[c.id][1]))
        for c in instance.circles
    }
    radii = {c.id: Fraction(c.radius) for c in instance.circles}
    worst_overlap = Fraction(0)
    violating = []
    ordered = [c.id for c in instance.circles]
    for a_pos, cid in enumerate(ordered):
        xa, ya = points[cid]
        for kid in ordered[a_pos + 1 :]:
            xb, yb = points[kid]
            gap = (radii[cid] + radii[kid]) ** 2 - ((xa - xb) ** 2 + (ya - yb) ** 2)
            worst_overlap = max(worst_overlap, gap)
            if gap > tol:
                violating.append((cid, kid, float(gap)))
    worst_containment = Fraction(0)
    if isinstance(instance.container, CircleContainer):
        for cid in ordered:
            x, y = points[cid]
            room = size - radii[cid]
            worst_containment = max(worst_containment, x * x + y * y - room * abs(room))
    else:
        width = Fraction(instance.container.width)
        for cid in ordered:
            x, y = points[cid]
            r = radii[cid]
            for excess in (r - x, x - (size - r), r - y, y - (width - r)):
                worst_containment = max(worst_containment, excess)
    return VerificationReport(
        feasible=worst_overlap <= tol and worst_containment <= tol,
        worst_overlap_violation=float(worst_overlap),
        worst_containment_violation=float(worst_containment),
        violating_pairs=tuple(violating),
        tolerance=tolerance,
    )


def _numbers(low, high):
    """Floats, Fractions and ints in [low, high]: every coordinate type."""
    return st.one_of(
        st.floats(low, high, allow_nan=False),
        st.fractions(low, high, max_denominator=10**6),
        st.integers(math.ceil(low), math.floor(high)),
    )


@st.composite
def _placements(draw):
    radii = draw(st.lists(_numbers(0.25, 2), min_size=1, max_size=6))
    radii = sorted(radii, reverse=True)
    if draw(st.booleans()):
        container = StripContainer(width=2 * Fraction(radii[0]) + Fraction(draw(_numbers(0, 3))))
    else:
        container = CircleContainer()
    inst = Instance("h", tuple(Circle(i + 1, r) for i, r in enumerate(radii)), container)
    centers = {c.id: (draw(_numbers(-4, 4)), draw(_numbers(-4, 4))) for c in inst.circles}
    if centers and draw(st.booleans()):
        centers[inst.n] = centers[1]  # coincident centers: the largest violation
    size = draw(_numbers(0.5, 8))
    tolerance = draw(st.one_of(st.just(0), st.just(0.0), _numbers(0, 0.5)))
    return inst, Placement(centers, size), tolerance


@settings(max_examples=300, deadline=None)
@given(_placements())
def test_integer_verifier_matches_rational_reference(case):
    """Every report field, violating pairs included, equals the Fraction
    reference over float, Fraction and int inputs, discs and strips."""
    inst, placement, tolerance = case
    assert verify_placement(inst, placement, tolerance) == _reference_verify(
        inst, placement, tolerance
    )


def test_integer_verifier_matches_reference_on_violations():
    """A fixed case with overlap, disc excess and a tolerance that spares
    one pair: the reference and the kernel agree field by field."""
    inst = disc_instance("v", [1.0, 0.75, 0.5])
    placement = Placement({1: (0.1, 0), 2: (Fraction(3, 2), 0), 3: (0, 1.4)}, 2.25)
    for tolerance in (0, 0.5, 1e-9):
        report = verify_placement(inst, placement, tolerance)
        assert report == _reference_verify(inst, placement, tolerance)
    assert verify_placement(inst, placement, 0).violating_pairs
    assert not verify_placement(inst, placement, 0).feasible
