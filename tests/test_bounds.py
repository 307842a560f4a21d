"""Tests for lower bounds, the triple pocket formula, and constructive upper bounds.

The oracle comes first and is independent of the implementation under
test: ``triple_idle_slices``, conditional Monte Carlo for the pocket between
three mutually tangent circles — scrambled Sobol abscissas with exact
vertical slice lengths inside the center triangle.
"""

from __future__ import annotations

import hashlib
import math
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import qmc

import circlepack
from circlepack.bounds import (
    BoundReport,
    _certify_placement,
    _chain_disc_centers,
    _exact_pair_scale,
    _greedy_disc_centers,
    _pair_tangent_positions,
    _reach_objective,
    _recenter,
    _refine_disc,
    _shelf_strip_centers,
    compute_bounds,
    idle_area_triple,
    initial_upper_bound,
    lb1,
    lb2,
    lb3,
    lb4,
    load_best_known,
)
from circlepack.files import read_instance
from circlepack.geometry import Instance, StripContainer, trivial_bounds, verify_placement
from circlepack.grid import grid_for_instance, pair_thresholds
from circlepack.reduction import build_region_map, region_feasible

INSTANCE_DIR = Path(circlepack.__file__).parent / "data" / "instances"


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def _triple_triangle(r_a: float, r_b: float, r_c: float):
    """Vertices of the center triangle of three mutually tangent circles."""
    ab, ac, bc = r_a + r_b, r_a + r_c, r_b + r_c
    cx = (ac * ac + ab * ab - bc * bc) / (2.0 * ab)
    cy = math.sqrt(max(ac * ac - cx * cx, 0.0))
    return (0.0, 0.0), (ab, 0.0), (cx, cy)


def triple_idle_slices(r_a: float, r_b: float, r_c: float, power: int = 16, seed: int = 0) -> float:
    """Conditional Monte Carlo estimate of the triple pocket area.

    Samples abscissas with a scrambled Sobol stream and measures the exact
    length of the free vertical slice (triangle slice minus the disjoint
    disc slices) at each abscissa.
    """
    verts = _triple_triangle(r_a, r_b, r_c)
    radii = (r_a, r_b, r_c)
    xs = np.array([v[0] for v in verts])
    xmin, xmax = xs.min(), xs.max()
    u = qmc.Sobol(1, scramble=True, seed=seed).random_base2(power)[:, 0]
    x = xmin + u * (xmax - xmin)

    ylo = np.full(x.shape, np.inf)
    yhi = np.full(x.shape, -np.inf)
    for (px, py), (qx, qy) in ((verts[0], verts[1]), (verts[1], verts[2]), (verts[2], verts[0])):
        if qx == px:
            continue
        lo, hi = (px, qx) if px < qx else (qx, px)
        inside = (x >= lo) & (x <= hi)
        t = np.where(inside, (x - px) / (qx - px), 0.0)
        y = py + t * (qy - py)
        ylo = np.where(inside, np.minimum(ylo, y), ylo)
        yhi = np.where(inside, np.maximum(yhi, y), yhi)
    valid = yhi >= ylo
    ylo = np.where(valid, ylo, 0.0)
    yhi = np.where(valid, yhi, 0.0)
    free = yhi - ylo
    for (vx, vy), r in zip(verts, radii):
        gap = r * r - (x - vx) ** 2
        half = np.sqrt(np.clip(gap, 0.0, None))
        lo = np.maximum(vy - half, ylo)
        hi = np.minimum(vy + half, yhi)
        free -= np.where(gap > 0, np.clip(hi - lo, 0.0, None), 0.0)
    return float((xmax - xmin) * np.clip(free, 0.0, None).mean())


# ---------------------------------------------------------------------------
# idle_area_triple
# ---------------------------------------------------------------------------


def test_unit_triple_pocket_matches_closed_form():
    exact = math.sqrt(3.0) - math.pi / 2.0
    assert abs(idle_area_triple(1.0, 1.0, 1.0) - exact) <= 1e-9


def test_triple_pocket_three_four_five_independent():
    # Radii 1, 2, 3 put the centers on a 3-4-5 right triangle: area 6, and
    # the corner angles come straight from the classic ratios.
    area = 6.0
    sector_small = 0.5 * 1.0 * (math.pi / 2.0)
    sector_mid = 0.5 * 4.0 * math.acos(0.6)
    sector_big = 0.5 * 9.0 * math.acos(0.8)
    expected = area - sector_small - sector_mid - sector_big
    assert abs(idle_area_triple(1.0, 2.0, 3.0) - expected) <= 1e-9


@pytest.mark.parametrize(
    "radii",
    [
        (1.0, 1.0, 1.0),
        (2.0, 1.0, 1.0),
        (0.5, 3.0, 3.0),  # obtuse center triangle
        (1.5, 2.5, 0.5),
        (3.0, 0.5, 2.0),
    ],
)
def test_triple_pocket_matches_slice_oracle(radii):
    value = idle_area_triple(*radii)
    estimate = triple_idle_slices(*radii)
    assert value > 0
    assert abs(value - estimate) <= 1e-4 * value


def test_triple_pocket_random_sample_against_slice_oracle():
    rng = np.random.default_rng(1234)
    for trial in range(20):
        radii = rng.uniform(0.5, 3.0, size=3)
        value = idle_area_triple(*radii)
        estimate = triple_idle_slices(*radii, seed=trial)
        assert abs(value - estimate) <= 1e-3 * value


@settings(deadline=None)
@given(
    r_a=st.floats(0.5, 3.0),
    r_b=st.floats(0.5, 3.0),
    r_c=st.floats(0.5, 3.0),
    scale=st.floats(0.25, 4.0),
)
def test_triple_pocket_scales_quadratically(r_a, r_b, r_c, scale):
    base = idle_area_triple(r_a, r_b, r_c)
    scaled = idle_area_triple(scale * r_a, scale * r_b, scale * r_c)
    assert scaled == pytest.approx(scale * scale * base, rel=1e-9)


@settings(deadline=None)
@given(r_a=st.floats(0.5, 3.0), r_b=st.floats(0.5, 3.0), r_c=st.floats(0.5, 3.0))
def test_triple_pocket_positive_and_symmetric(r_a, r_b, r_c):
    value = idle_area_triple(r_a, r_b, r_c)
    assert value > 0
    assert idle_area_triple(r_b, r_c, r_a) == pytest.approx(value, rel=1e-12)
    assert idle_area_triple(r_c, r_a, r_b) == pytest.approx(value, rel=1e-12)


def test_triple_pocket_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        idle_area_triple(1.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# lb1 and lb2
# ---------------------------------------------------------------------------


def test_lb1_examples():
    assert lb1(Instance.from_radii("a", [3, 4])) == 7.0
    assert lb1(Instance.from_radii("b", [1, 2, 3, 4, 5])) == 9.0
    assert lb1(Instance.from_radii("c", [5])) == 5.0
    strip = Instance.from_radii("s", [1, 1], StripContainer(width=4.0))
    assert lb1(strip) == 2.0


def test_lb2_examples():
    assert lb2(Instance.from_radii("a", [1, 1])) == pytest.approx(math.sqrt(2.0))
    assert lb2(Instance.from_radii("b", [3, 4])) == pytest.approx(5.0)
    twenty = lb2(Instance.from_radii("c", [1.0] * 20))
    assert twenty == pytest.approx(math.sqrt(20.0))
    assert twenty < 5.122
    strip = Instance.from_radii("s", [1, 1, 1], StripContainer(width=3.0))
    assert lb2(strip) == pytest.approx(3.0 * math.pi / 3.0)


@settings(deadline=None)
@given(st.lists(st.floats(0.5, 3.0), min_size=1, max_size=6))
def test_lb1_lb2_never_exceed_sum_of_radii(radii):
    instance = Instance.from_radii("h", radii)
    total = sum(instance.radii)
    assert lb1(instance) <= total + 1e-12
    assert lb2(instance) <= total + 1e-12


def _assert_lb2_is_certified_floor(instance):
    """The ``Fraction`` oracle of ``lb2``: the value passes the exact area
    check, with the float pi (below pi) for a strip, and the next float up
    fails it, so no larger float is certified."""
    area = sum(Fraction(r) ** 2 for r in instance.radii)
    if instance.is_strip:
        exact = Fraction(math.pi) * area / Fraction(instance.container.width)
        holds = lambda v: Fraction(v) <= exact  # noqa: E731
    else:
        holds = lambda v: Fraction(v) ** 2 <= area  # noqa: E731
    value = lb2(instance)
    assert holds(value)
    assert not holds(math.nextafter(value, math.inf))


@pytest.mark.parametrize(
    "path", sorted(INSTANCE_DIR.glob("*.json")), ids=lambda path: path.stem
)
def test_lb2_is_the_certified_floor_on_bundled_instance(path):
    _assert_lb2_is_certified_floor(read_instance(path).instance)


@given(
    st.lists(st.floats(0.05, 30.0), min_size=1, max_size=40),
    st.one_of(st.none(), st.floats(0.0, 10.0)),
)
def test_lb2_is_the_certified_floor_on_drawn_instance(radii, strip):
    """Drawn radii have full mantissas, so the float sum of their squares
    is not exact, and the float expressions can land several ulps either
    side of the bound."""
    container = None if strip is None else StripContainer(width=2.0 * max(radii) + strip)
    _assert_lb2_is_certified_floor(Instance.from_radii("h", radii, container))


# ---------------------------------------------------------------------------
# lb3
# ---------------------------------------------------------------------------


def test_lb3_two_circle_pair_is_tight():
    assert lb3(Instance.from_radii("p", [3, 4])) == pytest.approx(7.0)


def test_lb3_single_circle():
    assert lb3(Instance.from_radii("s", [5])) == pytest.approx(5.0)


def test_lb3_unit_triple_at_least_pair_bound():
    value = lb3(Instance.from_radii("t", [1, 1, 1]))
    optimum = 1.0 + 2.0 / math.sqrt(3.0)
    assert 2.0 - 1e-12 <= value <= optimum + 1e-9


def test_lb3_stays_below_best_known_for_benchmark_seed():
    value = lb3(Instance.from_radii("zimm-05", [1, 2, 3, 4, 5]))
    assert 9.0 - 1e-12 <= value <= 9.001 + 1e-9


def _reference_lb3(instance, *, upper_seed=None, probe=region_feasible):
    """``lb3`` as a plain bisection that probes every midpoint with
    ``probe``: the oracle that ``lb3`` must match bit for bit."""
    base = max(lb1(instance), lb2(instance))
    delta_r = 0.45 * instance.min_radius
    tolerance = 1e-3 * base
    high = trivial_bounds(instance)[1] if upper_seed is None else upper_seed
    certified = base
    while high - certified > tolerance:
        mid = 0.5 * (certified + high)
        if probe(instance, mid, delta_r):
            high = mid
        else:
            certified = mid
    return max(base, certified)


def _recording(sizes: list[float]):
    """``region_feasible``, appending each size it is asked about to
    ``sizes``."""

    def probe(instance, size, delta_r):
        sizes.append(size)
        return region_feasible(instance, size, delta_r)

    return probe


@settings(deadline=None)
@given(radii=st.lists(st.floats(0.5, 3.0), min_size=2, max_size=7), data=st.data())
def test_region_test_is_monotone_within_one_lattice(radii, data):
    """The lemma of ``lb3``: at sizes s' < s with one ``theta``, every
    start region at s' lies in the one at s, every pair threshold at s' is
    at least the one at s, and a refutation at s is one at s'."""
    instance = Instance.from_radii("h", radii)
    delta_r = 0.45 * instance.min_radius
    size = max(lb1(instance), lb2(instance)) * data.draw(st.floats(0.95, 1.25))
    grid = grid_for_instance(instance, size, delta_r)
    # the sizes with this theta lie in ((theta - 1) * delta_r, theta * delta_r]
    low = (grid.theta - 1) * delta_r
    smaller = low + data.draw(st.floats(0.0, 1.0, exclude_max=True)) * (size - low)
    small_grid = grid_for_instance(instance, smaller, delta_r)
    assume(smaller < size and small_grid.theta == grid.theta)

    masks = build_region_map(instance, size, grid).masks
    small_masks = build_region_map(instance, smaller, small_grid).masks
    for cid, mask in small_masks.items():
        assert not (mask & ~masks[cid]).any()
    thresholds = pair_thresholds(instance.radii, grid.delta_exact)
    small_thresholds = pair_thresholds(instance.radii, small_grid.delta_exact)
    for row, small_row in zip(thresholds, small_thresholds):
        assert all(s >= t for s, t in zip(small_row, row))
    if not region_feasible(instance, size, delta_r):
        assert not region_feasible(instance, smaller, delta_r)


# Across lattices the region test is not monotone: these radii pass at the
# smallest size of the all-pass path (theta 21) and are refuted at a larger
# one (theta 22), so a probe at the smallest size alone cannot confirm the
# bound.
CROSS_LATTICE_RADII = [2.568, 2.395, 2.293, 2.092, 0.742, 0.591, 0.533]
CROSS_LATTICE_UB = 6.173835098287276  # its initial_upper_bound


def test_region_test_is_not_monotone_across_lattices():
    instance = Instance.from_radii("cross", CROSS_LATTICE_RADII)
    delta_r = 0.45 * instance.min_radius
    base = max(lb1(instance), lb2(instance))
    path = [CROSS_LATTICE_UB]
    while path[-1] - base > 1e-3 * base:
        path.append(0.5 * (base + path[-1]))
    floor, refuted = path[-1], path[4]
    assert (floor, refuted) == (4.967729824602685, 5.038677193642954)
    assert grid_for_instance(instance, floor, delta_r).theta == 21
    assert region_feasible(instance, floor, delta_r)
    assert grid_for_instance(instance, refuted, delta_r).theta == 22
    assert not region_feasible(instance, refuted, delta_r)
    value = lb3(instance, upper_seed=CROSS_LATTICE_UB)
    assert repr(value) == repr(5.067056141259062)
    assert value > max(lb1(instance), lb2(instance))


# ---------------------------------------------------------------------------
# lb4: a stub that nothing in the solver calls
# ---------------------------------------------------------------------------


def test_lb4_defaults_degenerate_to_pairwise_and_area_bounds():
    triple = Instance.from_radii("t", [1, 1, 1])
    assert lb4(triple) == pytest.approx(2.0)
    zimm = Instance.from_radii("z", [1, 2, 3, 4, 5])
    value = lb4(zimm)
    assert value == pytest.approx(9.0)
    assert value >= math.sqrt(55.0)


def test_lb4_skips_strips():
    strip = Instance.from_radii("s", [1, 1], StripContainer(width=4.0))
    assert lb4(strip) is None


# ---------------------------------------------------------------------------
# initial_upper_bound
# ---------------------------------------------------------------------------


def test_upper_bound_tangent_pair_is_exactly_two():
    value, placement = initial_upper_bound(Instance.from_radii("p", [1, 1]))
    assert value == 2.0
    assert placement is not None
    instance = Instance.from_radii("p", [1, 1])
    assert verify_placement(instance, placement, tolerance=0.0).feasible


@pytest.mark.parametrize("radius", [5.0, 0.1, math.pi])
@pytest.mark.parametrize("room", [None, 0.0, 0.7], ids=["disc", "tight-strip", "strip"])
def test_upper_bound_single_circle(radius, room):
    """One circle takes the general path: a disc as large as the circle,
    centred, or a strip (``room`` is its width beyond the diameter) as
    long as the diameter, with the circle in its corner."""
    container = None if room is None else StripContainer(width=2.0 * radius + room)
    instance = Instance.from_radii("s", [radius], container)
    value, placement = initial_upper_bound(instance)
    if room is None:
        assert (value, placement.centers[1]) == (radius, (0.0, 0.0))
    else:
        assert (value, placement.centers[1]) == (2.0 * radius, (radius, radius))
    assert verify_placement(instance, placement, tolerance=0.0).feasible


def test_upper_bound_two_circle_chain_exact():
    instance = Instance.from_radii("c", [3, 4])
    value, placement = initial_upper_bound(instance)
    assert value == 7.0
    assert verify_placement(instance, placement, tolerance=0.0).feasible


def test_upper_bound_seven_unit_circles_is_hexagonal():
    instance = Instance.from_radii("eq-07", [1.0] * 7)
    value, placement = initial_upper_bound(instance)
    assert placement is not None
    assert verify_placement(instance, placement, tolerance=0.0).feasible
    assert value <= 3.0 + 1e-9


def test_upper_bound_strip_shelf_rows():
    instance = Instance.from_radii("s", [1.0, 1.0, 1.0], StripContainer(width=4.0))
    value, placement = initial_upper_bound(instance)
    assert placement is not None
    assert verify_placement(instance, placement, tolerance=0.0).feasible
    assert value <= 4.01  # two stacked rows beat the three-long chain


@pytest.mark.parametrize(
    "path", sorted(INSTANCE_DIR.glob("*.json")), ids=lambda path: path.stem
)
def test_upper_bound_certifies_bundled_instance(path):
    """The seed upper end is exactly the size of a placement that verifies
    at tolerance zero, on every bundled disc and strip instance."""
    instance = read_instance(path).instance
    value, placement = initial_upper_bound(instance)
    assert verify_placement(instance, placement, tolerance=0.0).feasible
    assert Fraction(placement.container_size) == Fraction(value)
    assert value >= lb1(instance)


@settings(deadline=None, max_examples=30)
@given(st.lists(st.floats(0.5, 3.0), min_size=2, max_size=5))
def test_upper_bound_placement_always_verifies(radii):
    instance = Instance.from_radii("h", radii)
    value, placement = initial_upper_bound(instance)
    assert placement is not None
    report = verify_placement(instance, placement, tolerance=0.0)
    assert report.feasible
    assert value >= max(lb1(instance), lb2(instance)) - 1e-9


@settings(deadline=None, max_examples=20)
@given(st.lists(st.floats(0.5, 2.0), min_size=2, max_size=4))
def test_upper_bound_strip_placement_always_verifies(radii):
    instance = Instance.from_radii("h", radii, StripContainer(width=2.0 * max(radii) + 1.0))
    value, placement = initial_upper_bound(instance)
    assert placement is not None
    assert verify_placement(instance, placement, tolerance=0.0).feasible
    assert value >= lb1(instance) - 1e-9


# The seed upper bound of every bundled instance, pinned: ``repr`` of the
# value and a SHA-256 of ``repr(sorted(placement.centers.items()))``.  A
# faster heuristic or certification kernel leaves both bit for bit, unless
# the change re-records them with old -> new rows in CHANGES.md.
PINNED_UPPER_BOUNDS = {
    "eq-07": (3.0000000000020006, "1add786153084f1b6274657d68046391b1f1fc66bd193b4dcabd099ac9f6e1dd"),
    "eq-20": (5.613025037873521, "497b28757df6702b545c6b74f3e83d65e6028cbc0d1e15ae407e425273dc7496"),
    "eq-25": (6.19615242271183, "f63fc92e0851d57d8764bb60dfd1fb6c3b51a632d55f3b596dcb3fa4aafb6e0d"),
    "eq-30": (6.291502622134474, "cb5fabb01c5255a703f8fa4e2d48eb6ec42d91a984ce2228cb4f2e4410d78015"),
    "eq-35": (7.000000000006001, "2142ec2b317b5dff95af5c1f661bba774167b30e8cde02cadba72de01fd7e872"),
    "eq-40": (7.609084656750762, "7db31b643136f89cf2d942e72911cea8c4921aa50459b46a4fcc25d770d2d015"),
    "strip-a": (10.611775402951558, "66f79ed3ac2e186130b841ee19adcbe2d6b0a8728d9a53646a2c3cfb46b324cb"),
    "strip-b": (6.000006000000001, "07394c958db74cd712aadb78f284b24e4ce1d425055455c10a415d865bdbceac"),
    "strip-c": (12.892204006283928, "3c94effd94573df551f988d7a8e45b129728ccb956b577a7d8ac3b1fb7bfdc0a"),
    "zimm-05": (9.70036315449433, "ecb95666ff41db186b93d98b23763cafbbf0b9632f1f4cc195907cd7a215742b"),
    "zimm-06": (12.92594381652012, "89d01d5291dc9d1c93b71e7be004829095ba26a46e8cb9ad084797adef4b384e"),
    "zimm-07": (16.11058608550718, "a40031aa43105ada72ada89d06783e68662dcda121158ab044d6877d134c951b"),
    "zimm-08": (20.385277155808545, "cd0e61aa68d2babcbb2f3c7af306bd9897f4fb96001df4a1ae47fbed85d75316"),
    "zimm-09": (23.725068661885842, "384ceac2fa8aeb26eb7d182d853aaabd46ffbef2d18eed6a1221d9d83d203f8e"),
    "zimm-10": (26.41632173954256, "716108d31a33c830ad511ca14c978c010bebe331c7ed44bc3805f13352270d89"),
    "zimm-11": (30.117937197587157, "7ee8de7f2c1632050baeeb315d8618fac0fbed7c01bba2d7fc7a88611caeaedd"),
    "zimm-12": (33.840762958657685, "07cd608f4fe32f769255baedf4a1d6c6b1d3d40de84ab2488e52b00dec6449ed"),
    "zimm-13": (35.62875293515064, "4886d422c250e33c8f235287ae1227bb5a20f940bb6dccfd5c7640cdda39d11a"),
    "zimm-14": (38.36190472450535, "43b0dc65df7e2b1fda3026ee6e0f634628046bdf6dd97f69e57b3921d47ec670"),
    "zimm-15": (41.858967633899866, "9cfeab48091ed16ec9af51a4d17e963232fda80f5773137163eb72f820908ed0"),
    "zimm-16": (45.89674315338504, "bc24860b75efd1f2302f9b4823cb86494c66140c904288b51dd521f4002d3071"),
    "zimm-17": (50.7977516485223, "90cae864500e2b53f0d3f98f45e84ac84c92d8d3ca3b1af3506a68891d95e413"),
    "zimm-18": (55.53791463736455, "0b85a2fb6940f10932991533635982bc6ea35cbc0e86eecbd657d378a81b13b0"),
    "zimm-19": (60.16697154310488, "fbf26d66007f2769a465a1b6d9d1a0dbf56a84dffb2e74a2092a1dc1a3be194c"),
    "zimm-20": (64.96257898811052, "8604a214685182a701b33dac78ae9522c837a8199c882d8283661fec2fca3b1a"),
}


@pytest.mark.parametrize("name", sorted(PINNED_UPPER_BOUNDS))
def test_upper_bound_is_pinned_on_bundled_instance(name):
    instance = read_instance(INSTANCE_DIR / f"{name}.json").instance
    value, placement = initial_upper_bound(instance)
    pinned_value, pinned_digest = PINNED_UPPER_BOUNDS[name]
    digest = hashlib.sha256(repr(sorted(placement.centers.items())).encode()).hexdigest()
    assert repr(value) == repr(pinned_value)
    assert digest == pinned_digest


def test_pins_cover_every_bundled_instance():
    assert set(PINNED_UPPER_BOUNDS) == {path.stem for path in INSTANCE_DIR.glob("*.json")}


def _reference_initial_upper_bound(instance):
    """The disc path of ``initial_upper_bound`` with both recenterings run
    unconditionally, and whether ``_refine_disc`` kept a move."""
    centred = _recenter(instance, _greedy_disc_centers(instance))
    refined = _refine_disc(instance, centred)
    candidates = [
        _certify_placement(instance, _recenter(instance, refined)),
        _certify_placement(instance, _chain_disc_centers(instance)),
    ]
    return min(candidates, key=lambda item: item[0]), refined != centred


def _counting_recenter(calls: list[int]):
    """``_recenter``, appending 1 to ``calls`` on every call."""

    def recenter(instance, positions):
        calls.append(1)
        return _recenter(instance, positions)

    return recenter


@pytest.mark.parametrize(
    "path",
    sorted(p for p in INSTANCE_DIR.glob("*.json") if not p.stem.startswith("strip")),
    ids=lambda path: path.stem,
)
def test_second_recentering_runs_only_after_a_kept_move(path, monkeypatch):
    """``_refine_disc`` keeps a move on zimm-05 and zimm-15 alone: there
    the recentering runs twice, and the bound and placement are the
    two-pass pipeline's bit for bit; elsewhere it runs once."""
    instance = read_instance(path).instance
    (reference, reference_placement), moved = _reference_initial_upper_bound(instance)
    calls: list[int] = []
    monkeypatch.setattr(circlepack.bounds, "_recenter", _counting_recenter(calls))
    value, placement = initial_upper_bound(instance)
    assert moved == (path.stem in ("zimm-05", "zimm-15"))
    assert len(calls) == (2 if moved else 1)
    if moved:
        assert repr(value) == repr(reference)
        assert repr(placement.centers) == repr(reference_placement.centers)


@settings(max_examples=30)
@given(st.lists(st.one_of(st.sampled_from([1.0, 2.0]), st.floats(0.5, 3.0)), min_size=2, max_size=12))
def test_one_recentering_keeps_the_two_pass_bound(radii):
    """After a kept move the bound and placement are the two-pass
    pipeline's bit for bit; without one, the second Nelder-Mead would
    restart from the centre it converged to, and the bounds agree to 1e-10
    relative."""
    instance = Instance.from_radii("h", radii)
    (reference, reference_placement), moved = _reference_initial_upper_bound(instance)
    value, placement = initial_upper_bound(instance)
    assert verify_placement(instance, placement, tolerance=0.0).feasible
    if moved:
        assert repr(value) == repr(reference)
        assert repr(placement.centers) == repr(reference_placement.centers)
    else:
        assert abs(value - reference) <= 1e-10 * reference


def test_passed_deadline_certifies_the_greedy_placement(monkeypatch):
    """With no time left the greedy placement is certified as it is: no
    recentering, no refinement."""

    def unreachable(*args):
        raise AssertionError("polished past the deadline")

    instance = read_instance(INSTANCE_DIR / "zimm-20.json").instance
    greedy = _certify_placement(instance, _greedy_disc_centers(instance))
    monkeypatch.setattr(circlepack.bounds, "_recenter", unreachable)
    monkeypatch.setattr(circlepack.bounds, "_refine_disc", unreachable)
    value, placement = initial_upper_bound(instance, deadline=time.perf_counter())
    assert (value, placement.centers) == (greedy[0], greedy[1].centers)
    assert verify_placement(instance, placement, tolerance=0.0).feasible


# ---------------------------------------------------------------------------
# lb3 against the plain bisection
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(PINNED_UPPER_BOUNDS))
def test_lb3_is_the_bisection_on_bundled_instance(name):
    """Bit for bit, below the pinned seed ``U`` (as ``compute_bounds`` runs
    it) and below the trivial upper bound."""
    instance = read_instance(INSTANCE_DIR / f"{name}.json").instance
    for upper_seed in (PINNED_UPPER_BOUNDS[name][0], None):
        value = lb3(instance, upper_seed=upper_seed)
        assert repr(value) == repr(_reference_lb3(instance, upper_seed=upper_seed))


@settings(deadline=None)
@given(
    large=st.lists(st.floats(0.5, 3.0), min_size=1, max_size=4),
    small=st.lists(st.floats(0.5, 0.8), max_size=3),
    strip=st.one_of(st.none(), st.floats(0.0, 3.0)),
    seed=st.one_of(st.none(), st.floats(0.9, 1.6)),
)
def test_lb3_is_the_bisection_on_drawn_instance(large, small, strip, seed):
    """Discs and strips (``strip`` is the width beyond the largest
    diameter), below a drawn seed ``U`` or the trivial upper bound.  A few
    large circles with small ones, like ``CROSS_LATTICE_RADII``, are where
    the region test lifts a disc's bound and ``lb3`` bisects."""
    radii = large + small
    container = None if strip is None else StripContainer(width=2.0 * max(radii) + strip)
    instance = Instance.from_radii("h", radii, container)
    upper_seed = None if seed is None else seed * max(lb1(instance), lb2(instance))
    value = lb3(instance, upper_seed=upper_seed)
    assert repr(value) == repr(_reference_lb3(instance, upper_seed=upper_seed))


@pytest.mark.parametrize("name, probes", [("eq-20", 3), ("zimm-05", 1), ("strip-c", None)])
def test_lb3_probe_counts(name, probes, monkeypatch):
    """One probe per lattice of the all-pass path on a disc whose bound is
    not lifted (eq-20's path crosses 3 lattices, zimm-05's one); a strip
    probes what the bisection probes."""
    instance = read_instance(INSTANCE_DIR / f"{name}.json").instance
    upper_seed = PINNED_UPPER_BOUNDS[name][0]
    reference: list[float] = []
    _reference_lb3(instance, upper_seed=upper_seed, probe=_recording(reference))
    sizes: list[float] = []
    monkeypatch.setattr(circlepack.bounds, "region_feasible", _recording(sizes))
    lb3(instance, upper_seed=upper_seed)
    if probes is None:
        assert sizes == reference
    else:
        assert len(sizes) == probes < len(reference)
        assert sorted(sizes) == sizes and set(sizes) <= set(reference)


def test_lb3_probes_nothing_past_the_deadline(monkeypatch):
    """A deadline already passed leaves ``max(lb1, lb2)``, disc or strip."""
    sizes: list[float] = []
    monkeypatch.setattr(circlepack.bounds, "region_feasible", _recording(sizes))
    for name in ("zimm-10", "strip-c"):
        instance = read_instance(INSTANCE_DIR / f"{name}.json").instance
        value = lb3(instance, deadline=time.perf_counter())
        assert value == max(lb1(instance), lb2(instance))
    assert sizes == []


def _reference_pair_scale(instance, centers):
    """``_exact_pair_scale`` written directly in Fraction arithmetic."""
    worst = Fraction(0)
    for a, b in combinations(instance.circles, 2):
        dx = Fraction(centers[a.id][0]) - Fraction(centers[b.id][0])
        dy = Fraction(centers[a.id][1]) - Fraction(centers[b.id][1])
        dist_sq = dx * dx + dy * dy
        if dist_sq == 0:
            return None
        worst = max(worst, (Fraction(a.radius) + Fraction(b.radius)) ** 2 / dist_sq)
    if worst <= 1:
        return 1.0
    try:
        scale = math.sqrt(float(worst))
    except OverflowError:  # a near-coincident pair: the ratio has no float
        return None
    for _ in range(4):
        if Fraction(scale) ** 2 >= worst:
            break
        scale = math.nextafter(scale, math.inf)
    return scale


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(0.25, 3.0), min_size=2, max_size=6),
    st.data(),
)
def test_exact_pair_scale_matches_rational_reference(radii, data):
    instance = Instance.from_radii("s", radii)
    coordinate = st.floats(-6.0, 6.0, allow_nan=False)
    centers = {c.id: (data.draw(coordinate), data.draw(coordinate)) for c in instance.circles}
    if data.draw(st.booleans()):
        centers[instance.n] = centers[1]  # coincident centers give None
    assert _exact_pair_scale(instance, centers) == _reference_pair_scale(instance, centers)


def test_exact_pair_scale_none_when_the_ratio_overflows():
    # distinct centers 1e-163 apart: the worst ratio, about 4e326, has no
    # float, so no float factor exists and the certifier refuses the layout
    centers = {1: (0.0, 0.0), 2: (0.0, 1.0089e-163)}
    disc = Instance.from_radii("p", [1.0, 1.0])
    assert _exact_pair_scale(disc, centers) is None
    with pytest.raises(RuntimeError, match="near-coincident"):
        _certify_placement(disc, centers)


@pytest.mark.parametrize(
    "centers",
    [{1: (1.0, 1.0), 2: (1.0 + 1.0089e-163, 1.0)}, {1: (1.0, 1.0), 2: (2.5, 1.0)}],
    ids=["near-coincident", "overlapping"],
)
def test_overlapping_strip_layout_raises(centers):
    """Nothing moves a strip's circles apart: an overlap fails
    verification at every size, and the certifier refuses the layout."""
    strip = Instance.from_radii("p", [1.0, 1.0], StripContainer(2.0))
    with pytest.raises(RuntimeError):
        _certify_placement(strip, centers)


@st.composite
def _long_mantissa_strips(draw):
    """Strips of up to 10 circles whose radii use every bit of the
    mantissa, a few of them equal, and widths from exactly ``2 * r_max``
    up to a million times it."""
    mantissa = st.integers(2**52 + 1, 2**53 - 1)
    pool = draw(
        st.lists(st.builds(math.ldexp, mantissa, st.integers(-55, -50)), min_size=1, max_size=4)
    )
    radii = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))
    widest = 2.0 * max(radii)
    room = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e6 * widest)))
    return Instance.from_radii("h", radii, StripContainer(width=widest + room))


@settings(deadline=None, max_examples=200)
@given(_long_mantissa_strips())
def test_shelf_rows_are_apart_by_construction(strip):
    """The shelf leaves no exact overlap, so the certifier does no pair
    repair; stepping a top row down to its exact wall moves a ``y`` by at
    most one float and keeps every pair apart, so only the length grows."""
    centers = _shelf_strip_centers(strip)
    assert _exact_pair_scale(strip, centers) == 1.0
    _, placement = _certify_placement(strip, centers)
    assert verify_placement(strip, placement, tolerance=0.0).feasible
    for cid, (x, y) in placement.centers.items():
        assert x == centers[cid][0]
        assert y in (centers[cid][1], math.nextafter(centers[cid][1], 0.0))


def test_exact_pair_scale_tangent_and_overlapping_pairs():
    instance = Instance.from_radii("p", [1.0, 1.0])
    assert _exact_pair_scale(instance, {1: (-1.0, 0.0), 2: (1.0, 0.0)}) == 1.0
    centers = {1: (0.0, 0.0), 2: (0.3, 0.1)}
    scale = _exact_pair_scale(instance, centers)
    assert scale == _reference_pair_scale(instance, centers)
    assert isinstance(scale, float) and scale > 1.0
    assert (Fraction(scale) ** 2) * (Fraction(0.3) ** 2 + Fraction(0.1) ** 2) >= 4


def _reference_greedy(instance, angles=24):
    """``_greedy_disc_centers`` with every candidate tested and keyed by
    the scalar expressions alone, as the oracle of the numpy screens."""
    positions = {1: (0.0, 0.0)}
    placed = [instance.circles[0]]
    for circle in instance.circles[1:]:
        r = circle.radius
        candidates = []
        for other in placed:
            ox, oy = positions[other.id]
            dist = other.radius + r
            for k in range(angles):
                ang = 2.0 * math.pi * k / angles
                candidates.append((ox + dist * math.cos(ang), oy + dist * math.sin(ang)))
        for first, second in combinations(placed, 2):
            candidates.extend(
                _pair_tangent_positions(
                    positions[first.id], first.radius, positions[second.id], second.radius, r
                )
            )
        feasible = [
            (x, y)
            for x, y in candidates
            if all(
                (x - positions[o.id][0]) ** 2 + (y - positions[o.id][1]) ** 2
                >= (o.radius + r) * (o.radius + r) - 1e-9
                for o in placed
            )
        ]
        current = max(math.hypot(*positions[o.id]) + o.radius for o in placed)
        feasible = feasible or [(current + r, 0.0)]
        positions[circle.id] = min(
            feasible,
            key=lambda pos: (
                round(max(current, math.hypot(pos[0], pos[1]) + r), 9),
                round(pos[0], 9),
                round(pos[1], 9),
            ),
        )
        placed.append(circle)
    return positions


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.one_of(st.sampled_from([1.0, 1.0 + 3e-10, 2.0]), st.floats(0.5, 3.0)),
        min_size=2,
        max_size=12,
    )
)
def test_greedy_screens_match_scalar_reference(radii):
    """Equal and near-equal radii give ties in the rounded key; the
    screened greedy must still pick the scalar reference's centers, bit for
    bit."""
    instance = Instance.from_radii("g", radii)
    assert repr(_greedy_disc_centers(instance)) == repr(_reference_greedy(instance))


_coordinate = st.floats(-10.0, 10.0, allow_nan=False)
_disc = st.tuples(_coordinate, _coordinate, st.floats(0.1, 3.0))
# equal |c| + r: four centres on the circle of radius 5, two radii
_tied_disc = st.tuples(
    st.sampled_from([(3.0, 4.0), (-4.0, 3.0), (0.0, -5.0), (5.0, 0.0)]),
    st.sampled_from([1.0, 2.0]),
).map(lambda item: (*item[0], item[1]))


def _full_reach(discs, z):
    return max([math.hypot(x - z[0], y - z[1]) + r for x, y, r in discs])


@given(
    st.lists(st.one_of(_disc, _tied_disc), min_size=1, max_size=12),
    st.one_of(
        st.just((0.0, 0.0)),
        st.tuples(st.floats(-1e-6, 1e-6), st.floats(-1e-6, 1e-6)),
        st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)),
    ),
)
def test_reach_objective_matches_the_full_max(discs, z):
    """The bounded objective of ``_recenter`` returns the float of the full
    list's max, for z near the origin and far from it, and with ties."""
    assert repr(_reach_objective(discs)(z)) == repr(_full_reach(discs, z))


@given(
    st.floats(1.0, 20.0),
    st.floats(0.1, 3.0),
    st.floats(0.0, 10.0),
    st.floats(0.0, 2.0 * math.pi),
    st.integers(-20, 20),
)
def test_reach_objective_near_tight_bound(a, r, s, angle, ulps):
    """Disc j at distance a behind z makes the triangle inequality tight:
    its term is a + s + r.  Disc i, with the larger |c| + r, is set up so
    that its term is within about 1e-13 relative of disc j's, so the loop
    reaches disc j with a running max just below or above its bound."""
    cos, sin = math.cos(angle), math.sin(angle)
    z = (s * cos, s * sin)
    disc_j = (-a * cos, -a * sin, r)
    target = (a + s + r) * (1.0 + ulps * 1e-14)
    b = a + r + 1.0  # |c_i| + r_i > |c_j| + r_j
    disc_i = (-b * sin, b * cos, target - math.hypot(z[0] + b * sin, z[1] - b * cos))
    if disc_i[2] <= 0:
        return
    discs = [disc_i, disc_j]
    assert repr(_reach_objective(discs)(z)) == repr(_full_reach(discs, z))


def test_reach_objective_reads_a_disc_past_a_close_running_max():
    """Disc i comes first and its term is 12 less about 1e-13 relative;
    disc j's term is exactly 12, within the margin of its bound 12."""
    z = (1.0, 0.0)
    disc_j = (-10.0, 0.0, 1.0)
    disc_i = (0.0, 10.5, 12.0 * (1.0 - 1e-13) - math.hypot(1.0, 10.5))
    objective = _reach_objective([disc_i, disc_j])
    assert objective(z) == 12.0 == _full_reach([disc_i, disc_j], z)


def _reference_refine(instance, positions):
    """``_refine_disc`` without its shortcuts: every other circle's overlap
    is tested at every trial, and the enclosing reach is the max of the
    whole list at every trial."""
    pts = dict(positions)
    circles = instance.circles
    reach = [math.hypot(*pts[c.id]) + c.radius for c in circles]
    for index, circle in enumerate(circles):
        r = circle.radius
        others = [
            (*pts[other.id], (other.radius + r) * (other.radius + r))
            for other in circles
            if other.id != circle.id
        ]
        for axis in (0, 1):
            step = 0.25 * instance.min_radius
            while step > 1e-9:
                x, y = pts[circle.id]
                current = max(reach)
                for sign in (-1.0, 1.0):
                    tx, ty = (x + sign * step, y) if axis == 0 else (x, y + sign * step)
                    for ox, oy, need_sq in others:
                        if (tx - ox) ** 2 + (ty - oy) ** 2 < need_sq:
                            break
                    else:
                        kept = reach[index]
                        reach[index] = math.hypot(tx, ty) + r
                        if max(reach) < current - 1e-13:
                            pts[circle.id] = (tx, ty)
                            break
                        reach[index] = kept
                else:
                    step *= 0.5
    return pts


@given(
    st.lists(
        st.one_of(st.sampled_from([1.0, 2.0]), st.floats(0.5, 3.0)), min_size=2, max_size=12
    ),
    st.data(),
)
def test_refine_disc_matches_full_reference(radii, data):
    """The neighbour list and the one-float ``rest`` leave ``_refine_disc``
    bit for bit: on greedy placements (touching circles), spread out so
    that the outermost circle travels far, shifted, and on random
    placements."""
    instance = Instance.from_radii("r", radii)
    if data.draw(st.booleans()):
        spread = data.draw(st.sampled_from([1.0, 1.25, 2.0, 4.0]))
        sx, sy = data.draw(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)))
        positions = {
            cid: (x * spread + sx, y * spread + sy)
            for cid, (x, y) in _greedy_disc_centers(instance).items()
        }
    else:
        coordinate = st.floats(-15.0, 15.0, allow_nan=False)
        positions = {c.id: (data.draw(coordinate), data.draw(coordinate)) for c in instance.circles}
    assert repr(_refine_disc(instance, positions)) == repr(_reference_refine(instance, positions))


# ---------------------------------------------------------------------------
# compute_bounds and the bundled table
# ---------------------------------------------------------------------------


def test_compute_bounds_report_for_pair():
    report = compute_bounds(Instance.from_radii("p", [3, 4]))
    assert isinstance(report, BoundReport)
    assert report.lb1 == 7.0
    assert report.lb2 == pytest.approx(5.0)
    assert report.lb3 == pytest.approx(7.0)
    assert report.chosen_lb == pytest.approx(7.0)
    assert report.ub == 7.0
    assert report.chosen_lb <= report.ub
    assert report.ub_placement is not None
    assert set(report.timings) == {"lb1", "lb2", "lb3", "ub"}


def test_compute_bounds_ub_is_the_placement_size():
    instance = Instance.from_radii("zimm-05", [1, 2, 3, 4, 5])
    report = compute_bounds(instance)
    assert Fraction(report.ub_placement.container_size) == Fraction(report.ub)
    assert verify_placement(instance, report.ub_placement, tolerance=0.0).feasible
    assert report.chosen_lb <= report.ub


def test_compute_bounds_strip_has_no_lb4():
    strip = Instance.from_radii("s", [1, 1], StripContainer(width=4.0))
    report = compute_bounds(strip)
    assert "lb4" not in report.as_dict()
    assert "lb4" not in report.timings
    assert report.chosen_lb <= report.ub


@pytest.mark.parametrize(
    "path", sorted(INSTANCE_DIR.glob("*.json")), ids=lambda path: path.stem
)
def test_chosen_lb_is_the_largest_of_lb1_to_lb3(path):
    """Bit for bit: no other bound, and no float round trip of one, enters
    ``chosen_lb``; on zimm-10 it is lb2 = sqrt(385) as the float sqrt gives it."""
    report = compute_bounds(read_instance(path).instance)
    assert repr(report.chosen_lb) == repr(max(report.lb1, report.lb2, report.lb3))


def test_load_best_known_bundled_table():
    table = load_best_known()
    assert table["zimm-05"] == pytest.approx(9.001)
    assert table["eq-07"] == pytest.approx(3.0)
    assert table["eq-20"] == pytest.approx(5.122)
    assert all(value > 0 for value in table.values())
    assert len(table) >= 15


def test_report_as_dict_holds_the_named_bounds_in_order():
    report = compute_bounds(Instance.from_radii("p", [1, 1]))
    data = report.as_dict()
    assert list(data) == ["lb1", "lb2", "lb3", "chosen_lb", "ub"]
    assert data["lb1"] == 2.0
    assert data["ub"] == 2.0
    assert isinstance(data["lb3"], float)
    assert set(report.timings) == {"lb1", "lb2", "ub", "lb3"}
