"""Tests for annulus regions, arc-consistency propagation, and the
region-emptiness lower-bound certificate."""

import hashlib
import math
import subprocess
import sys
from fractions import Fraction
from itertools import combinations_with_replacement, count
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import circlepack
from circlepack.feasibility import build_problem
from circlepack.files import read_instance
from circlepack.geometry import Circle, CircleContainer, Instance, exact
from circlepack.grid import (
    Grid,
    _pack,
    _packed_patterns,
    _pattern,
    _row_extents,
    _stride,
    _unpack,
    build_grid,
    candidates,
    forbidden,
    forbidden_reach,
    grid_for_instance,
)
from circlepack.reduction import (
    RegionMap,
    _extreme_cells,
    _forbidden_from_all,
    _hull,
    _spread,
    annulus_region,
    build_region_map,
    propagate,
    region_feasible,
    write_region_pgm,
)

from test_bounds import _reference_lb3


INSTANCE_DIR = Path(circlepack.__file__).parent / "data" / "instances"


def disc_instance(name, radii):
    return Instance.from_radii(name, radii, CircleContainer())


def brute_annulus(grid, radius, reference, size):
    """Oracle: exact Fraction cell-vs-annulus intersection test."""
    r, ref, size_q = exact(radius), exact(reference), exact(size)
    outer, inner = size_q - r, max(Fraction(0), 2 * ref + r - size_q)
    got = set()
    if outer < 0 or inner > outer:
        return got
    for i in range(grid.cells_x):
        for j in range(grid.cells_y):
            x0, y0, x1, y1 = grid.cell_bounds_exact(i, j)
            nx = min(max(Fraction(0), x0), x1)
            ny = min(max(Fraction(0), y0), y1)
            fx = max(abs(x0), abs(x1))
            fy = max(abs(y0), abs(y1))
            if nx * nx + ny * ny <= outer**2 and fx * fx + fy * fy >= inner**2:
                got.add((i, j))
    return got


def test_annulus_reference_example():
    """radii 7 and 6 in a container of 13.6: ring 5.4 <= |p| <= 6.6."""
    grid = build_grid(13.6, 1.0, 6.0)
    mask = annulus_region(Circle(1, 7.0), 13.6, 6.0, grid)
    got = {(i, j) for i, j in zip(*np.nonzero(mask))}
    assert got == brute_annulus(grid, 7.0, 6.0, 13.6)
    assert got  # ring is nonempty at this resolution
    with pytest.raises(ValueError, match="different container size"):
        annulus_region(Circle(1, 7.0), 13.5, 6.0, grid)


@settings(max_examples=40, deadline=None)
@given(
    radius=st.floats(0.5, 3.0),
    reference=st.floats(0.5, 3.0),
    slack=st.floats(-0.5, 2.0),
    spacing=st.floats(0.4, 0.7),
)
def test_annulus_matches_brute_oracle(radius, reference, slack, spacing):
    """The integer thresholds give the cells of the Fraction oracle, with
    the step arrays built per call or shared through one memo per grid."""
    size = max(radius, reference) + slack
    if size <= 0:
        return
    grid = build_grid(size, spacing * min(radius, reference), min(radius, reference))
    mask = annulus_region(Circle(1, radius), size, reference, grid)
    got = {(i, j) for i, j in zip(*np.nonzero(mask))}
    assert got == brute_annulus(grid, radius, reference, size)
    steps = {}
    for _ in range(2):  # the second call reads the memo the first filled
        shared = annulus_region(Circle(1, radius), size, reference, grid, steps)
        assert np.array_equal(mask, shared)


def test_annulus_degenerates_to_full_disk():
    """When 2*ref + r <= size the inner bound vanishes: full containment disk."""
    grid = build_grid(4.0, 0.5, 1.0)
    mask = annulus_region(Circle(1, 1.0), 4.0, 1.0, grid)
    got = {(i, j) for i, j in zip(*np.nonzero(mask))}
    assert got == brute_annulus(grid, 1.0, 1.0, 4.0)
    # inner radius is 0: every cell within the containment disk survives
    rel = candidates(grid, Circle(1, 1.0), CircleContainer(), "relaxed")
    assert np.array_equal(mask, rel.mask)


def test_annulus_circle_filling_container():
    """r = size pins the center to the origin: only the four cells at it."""
    grid = build_grid(2.0, 0.5, 2.0)
    mask = annulus_region(Circle(1, 2.0), 2.0, 0.0, grid)
    got = {(i, j) for i, j in zip(*np.nonzero(mask))}
    t = grid.theta
    assert got == {(t - 1, t - 1), (t - 1, t), (t, t - 1), (t, t)}


def test_empty_annulus_kills_straddling_cells():
    """inner > outer must yield an empty region even though a wide cell would
    pass both one-sided tests separately."""
    grid = build_grid(1.9, 0.7, 1.0)
    mask = annulus_region(Circle(1, 1.0), 1.9, 1.0, grid)
    assert not mask.any()
    # sanity: the one-sided tests alone would have kept something
    outer = (exact(1.9) - 1) / grid.delta_exact
    inner = (2 + 1 - exact(1.9)) / grid.delta_exact
    assert inner > outer  # the annulus is truly empty


def test_region_feasible_two_circle_threshold():
    """{3,4}: impossible below 7 = r1 + r2, possible at 7 (tangent pair).
    Below the largest radius the empty containment set alone refutes it."""
    inst = disc_instance("pair34", [3, 4])
    assert not region_feasible(inst, 6.9, 0.5)
    assert region_feasible(inst, 7.0, 0.5)
    assert not region_feasible(inst, 3.9, 0.5)


def test_region_feasible_monotone_in_size():
    """Once the region test stops proving infeasibility it must not resume."""
    inst = disc_instance("pair34", [3, 4])
    outcomes = [region_feasible(inst, 6.0 + 0.1 * k, 0.4) for k in range(16)]
    first_true = outcomes.index(True)
    assert all(outcomes[first_true:])
    assert not any(outcomes[:first_true])


def test_region_feasible_is_one_sided():
    """{1,1,1} at 2.15 < optimum 1 + 2/sqrt(3): coarse cells cannot refute it."""
    optimum = 1 + 2 / math.sqrt(3)
    assert 2.15 < optimum
    inst = disc_instance("eq3", [1, 1, 1])
    assert region_feasible(inst, 2.15, 0.4)


def test_single_circle_propagate_is_identity():
    inst = disc_instance("one", [2])
    grid = build_grid(2.0, 0.5, 2.0)
    base = build_region_map(inst, 2.0, grid, symmetry=False)
    result = propagate(base, inst.radii)
    assert result is not None
    assert np.array_equal(result.masks[1], base.masks[1])


def test_propagate_trims_arcs_with_symmetry():
    """Two large circles: the second circle's ring shrinks to the arc opposite
    the first circle's symmetry-restricted quadrant arc."""
    inst = disc_instance("fig3", [7, 6])
    grid = build_grid(13.6, 0.85, 6.0)
    base = build_region_map(inst, 13.6, grid, symmetry=True)
    result = propagate(base, inst.radii)
    assert result is not None
    assert result.cell_count(2) < base.cell_count(2)
    # shrinking and idempotent at the fixpoint
    again = propagate(result, inst.radii)
    assert again is not None
    for cid in (1, 2):
        assert np.array_equal(again.masks[cid], result.masks[cid])
        assert np.all(result.masks[cid] <= base.masks[cid])


def test_propagate_empty_when_pair_cannot_fit():
    """Radii whose sum exceeds the container: the reduction proves it."""
    inst = disc_instance("tight", [2, 1.5])
    assert not region_feasible(inst, 3.4, 0.5)  # 3.4 < 2 + 1.5
    grid = build_grid(3.4, 0.5, 1.5)
    base = build_region_map(inst, 3.4, grid, symmetry=True)
    assert propagate(base, inst.radii) is None


def test_conservativeness_without_symmetry():
    """Every known continuous packing keeps every center in a surviving cell."""
    inst = disc_instance("pair", [1, 1])
    grid = build_grid(2.0, 0.4, 1.0)
    base = build_region_map(inst, 2.0, grid, symmetry=False)
    result = propagate(base, inst.radii)
    assert result is not None
    for angle_deg in (0, 30, 45, 60, 90, 135, 180, 270):
        a = math.radians(angle_deg)
        centers = {
            1: (math.cos(a), math.sin(a)),
            2: (-math.cos(a), -math.sin(a)),
        }
        for cid, (x, y) in centers.items():
            found = False
            for i in range(grid.cells_x):
                for j in range(grid.cells_y):
                    x0, y0, x1, y1 = grid.cell_bounds_exact(i, j)
                    if x0 <= exact(x) <= x1 and y0 <= exact(y) <= y1:
                        found = found or bool(result.masks[cid][i, j])
            assert found, (cid, angle_deg)


def test_region_pgm_dump(tmp_path):
    inst = disc_instance("pair", [1, 1])
    grid = build_grid(2.0, 0.4, 1.0)
    base = build_region_map(inst, 2.0, grid, symmetry=True)
    paths = write_region_pgm(base, tmp_path, prefix="probe")
    assert [p.name for p in paths] == ["probe-circle01.pgm", "probe-circle02.pgm"]
    blob = paths[0].read_bytes()
    assert blob.startswith(b"P5\n")
    header, rest = blob.split(b"\n255\n", 1)
    dims = header.split(b"\n")[1].split()
    assert int(dims[0]) == grid.cells_x and int(dims[1]) == grid.cells_y
    assert len(rest) == grid.cells_x * grid.cells_y
    # deterministic bytes
    paths2 = write_region_pgm(base, tmp_path / "again", prefix="probe")
    assert paths2[0].read_bytes() == blob


def _cells(mask):
    return {(int(i), int(j)) for i, j in zip(*np.nonzero(mask))}


def _mask(shape, cells):
    mask = np.zeros(shape, dtype=bool)
    for i, j in cells:
        mask[i, j] = True
    return mask


def brute_propagate(masks, radii, delta):
    """Oracle: arc consistency straight from the definition, in plain Python.

    A cell of circle k survives a sweep when every other circle c has a
    current cell whose farthest corners are at least r_k + r_c apart.  Same
    sweep rules as ``propagate``: all circles update from the previous
    sweep until the fixpoint, None as soon as a region is empty.  Returns
    the surviving cells and the sweeps, the last of which changed nothing;
    every sweep checks every pair, with no worklist and no classes.
    """
    ids = sorted(masks)
    r = dict(zip(ids, radii))
    cells = {cid: _cells(masks[cid]) for cid in ids}
    if any(not c for c in cells.values()):
        return None

    def apart(p, q, r_sum):
        far_i = (abs(p[0] - q[0]) + 1) * delta
        far_j = (abs(p[1] - q[1]) + 1) * delta
        return far_i * far_i + far_j * far_j >= r_sum * r_sum

    for sweeps in count(1):
        new = {}
        for k in ids:
            new[k] = {
                p
                for p in cells[k]
                if all(
                    any(apart(p, q, r[k] + r[c]) for q in cells[c])
                    for c in ids
                    if c != k
                )
            }
            if not new[k]:
                return None
        if new == cells:
            return cells, sweeps
        cells = new


def strip_grid(nx, ny, delta):
    """A bare nx-by-ny cell grid; propagate reads only its spacing."""
    return Grid(
        kind="strip",
        size=float(nx * delta),
        delta=float(delta),
        theta=nx,
        size_exact=nx * delta,
        delta_exact=delta,
        width=float(ny * delta),
        width_exact=ny * delta,
        theta_y=ny,
    )


@st.composite
def region_problems(draw):
    """Random regions and radii, with the cases that form equal-circle
    classes: a circle may repeat an earlier circle's mask, as the same
    array or as a copy, and its radius, each independently.  So tied radii
    come with equal masks (a class) and with different masks, and equal
    masks with different radii."""
    nx = draw(st.integers(1, 8))
    ny = draw(st.integers(1, 8))
    n = draw(st.integers(2, 5))
    cell = st.tuples(st.integers(0, nx - 1), st.integers(0, ny - 1))
    radius = st.fractions(Fraction(1, 10), Fraction(2), max_denominator=16)
    masks, radii = {}, []
    for cid in range(1, n + 1):
        earlier = st.integers(1, cid - 1) if cid > 1 else st.nothing()
        how = draw(st.sampled_from(["dense", "sparse", "shared", "copied"]))
        if how in ("shared", "copied") and cid > 1:
            mask = masks[draw(earlier)]
            masks[cid] = mask if how == "shared" else mask.copy()
        elif how == "dense":
            masks[cid] = draw(arrays(bool, (nx, ny), elements=st.booleans()))
        else:
            # sparse regions are where cells lose support; dense ones test the hull
            masks[cid] = _mask((nx, ny), draw(st.sets(cell, min_size=1, max_size=6)))
        if cid > 1 and draw(st.booleans()):
            radii.append(radii[draw(earlier) - 1])
        else:
            radii.append(draw(radius))
    delta = draw(st.fractions(Fraction(1, 3), Fraction(2), max_denominator=12))
    return masks, radii, delta


@settings(max_examples=200)
@given(region_problems())
def test_propagate_matches_brute_force_oracle(problem):
    """Random bitmaps (non-convex, disconnected, touching the grid edge,
    some shared among circles of equal radius) and rational radii and
    spacing: same surviving cells and the same sweeps, or both EMPTY."""
    masks, radii, delta = problem
    nx, ny = masks[1].shape
    before = {cid: m.copy() for cid, m in masks.items()}
    region_map = RegionMap(grid=strip_grid(nx, ny, delta), size=1.0, masks=masks)
    got = propagate(region_map, radii)
    want = brute_propagate(masks, radii, delta)
    for cid in masks:
        assert np.array_equal(masks[cid], before[cid])  # input left untouched
    if want is None:
        assert got is None
        return
    assert got is not None
    cells, sweeps = want
    for cid in masks:
        assert got.masks[cid].dtype == bool
        assert _cells(got.masks[cid]) == cells[cid]
    assert got.sweeps == sweeps


@settings(max_examples=100)
@given(region_problems())
def test_propagate_stops_at_a_fixpoint_within_the_sweep_bound(problem):
    """A returned map took at most (total cells + 1) sweeps, and propagating
    it again changes nothing in one sweep."""
    masks, radii, delta = problem
    nx, ny = masks[1].shape
    grid = strip_grid(nx, ny, delta)
    got = propagate(RegionMap(grid=grid, size=1.0, masks=masks), radii)
    if got is None:
        return
    assert 1 <= got.sweeps <= sum(int(m.sum()) for m in masks.values()) + 1
    again = propagate(got, radii)
    assert again is not None
    assert again.sweeps == 1
    for cid in masks:
        assert np.array_equal(again.masks[cid], got.masks[cid])


def _in_hull(point, hull):
    """Point-in-convex-polygon for counter-clockwise vertices (k >= 1)."""
    if len(hull) == 1:
        return point == hull[0]
    px, py = point
    for k in range(len(hull)):
        (ax, ay), (bx, by) = hull[k], hull[(k + 1) % len(hull)]
        cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
        if cross < 0:
            return False
        if len(hull) == 2 and cross == 0:
            # a segment: the point must also lie between its ends
            return (
                min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by)
            )
    return True


def _numpy_row_extents(mask):
    """Oracle: (i, first, last) column of each nonempty row, from numpy row
    reductions."""
    rows = np.flatnonzero(mask.any(axis=1))
    sub = mask[rows]
    first = sub.argmax(axis=1)
    last = mask.shape[1] - 1 - sub[:, ::-1].argmax(axis=1)
    return list(zip(rows.tolist(), first.tolist(), last.tolist()))


def _check_hull(mask):
    hull = _hull(_numpy_row_extents(mask))
    assert hull
    for i, j in hull:
        assert mask[i, j]
    assert len(set(hull)) == len(hull)
    for cell in _cells(mask):
        assert _in_hull(cell, hull)
    return set(hull)


@pytest.mark.parametrize(
    "cells, vertices",
    [
        ([(3, 4)], {(3, 4)}),
        ([(2, j) for j in range(1, 6)], {(2, 1), (2, 5)}),
        ([(i, 0) for i in range(7)], {(0, 0), (6, 0)}),
        ([(k, k) for k in range(6)], {(0, 0), (5, 5)}),
        ([(2, 0), (2, 3), (2, 6)], {(2, 0), (2, 6)}),  # gaps inside a row
        ([(0, 0), (2, 1), (4, 2), (6, 3)], {(0, 0), (6, 3)}),  # collinear, one per row
        (
            [(i, j) for i in range(1, 5) for j in range(2, 7)],
            {(1, 2), (1, 6), (4, 2), (4, 6)},
        ),
        ([(0, 0), (1, 1), (2, 2), (2, 0)], {(0, 0), (2, 2), (2, 0)}),
        (
            [(i, j) for i in range(7) for j in range(7)],
            {(0, 0), (0, 6), (6, 0), (6, 6)},
        ),
    ],
    ids=[
        "cell", "row", "column", "diagonal",
        "row-gaps", "collinear", "rectangle", "triangle", "full-grid",
    ],
)
def test_hull_edge_cases(cells, vertices):
    assert _check_hull(_mask((7, 7), cells)) == vertices


@given(arrays(bool, st.tuples(st.integers(1, 9), st.integers(1, 9))))
def test_hull_contains_every_cell(mask):
    if mask.any():
        _check_hull(mask)


# Real propagate calls of the bundled instances, recorded before regions
# were bit-packed: (instance, size, grid spacing, theta, surviving cells per
# circle, digest of the surviving masks, sweeps); None for an EMPTY result.
PINNED_REGIONS = [
    # a zimm-10 lb3 probe: 104x104 cells, reach up to 43
    ("zimm-10", 23.018869304945227, 0.442670563556639, 52,
     (652, 949, 2208, 2974, 3753, 4606, 5438, 6291, 7104, 7920), "81bf2e0f8a18631e", 3),
    # eq-07 at its first driver trial, the relaxed-search size
    ("eq-07", 2.822875655533296, 0.04410743211770775, 64,
     (1455, 2317, 4474, 4474, 4474, 4474, 4474), "7b879cc4b2b3f74e", 3),
    # zimm-06 at its first driver trial and at an lb3 probe
    ("zimm-06", 11.962971908260059, 0.23925943816520118, 50,
     (317, 406, 1455, 2796, 4450, 6159), "630095815c4f6149", 3),
    ("zimm-06", 11.962971908260059, 0.4430730336392614, 27,
     (112, 148, 499, 929, 1416, 1888), "86d86baead268cc7", 3),
    # strip-c at two refinements, one EMPTY, and at an EMPTY lb3 probe
    ("strip-c", 12.488930292310283, 0.10071717977669582, 124, None, None, None),
    ("strip-c", 12.690567149297106, 0.10071878689918339, 126,
     (94, 11, 11, 2824), "e240294c3c44247b", 3),
    ("strip-c", 10.795999523497063, 0.44983331347904426, 24, None, None, None),
    # eq-20 at an lb3 probe: 20 equal circles, one threshold
    ("eq-20", 5.042580496436345, 0.42021504136969545, 12,
     (104, 188, *[332] * 18), "d894e6835137e14a", 1),
    # a mixed-radius zimm-10 lb3 probe of the seed bracket, recorded before
    # the worklist and the equal-circle classes
    ("zimm-10", 19.634688168921226, 0.4462429129300279, 44,
     (132, 142, 327, 698, 1185, 1798, 2543, 3406, 4288, 5159), "82c3a39e33f12f9d", 3),
    # the nonempty driver-trial map with the most sweeps found in short
    # runs of the 25 bundled instances: strip-a's first trial
    ("strip-a", 8.388941144314678, 0.17476960717322246, 48,
     (41, 2, 2, 205, 205), "3fd7b32e69aaefb4", 5),
]


def _digest(masks):
    h = hashlib.sha256()
    for cid in sorted(masks):
        h.update(np.packbits(masks[cid]).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize(
    "name, size, delta, theta, counts, digest, sweeps",
    PINNED_REGIONS,
    ids=[f"{p[0]}-{p[3]}" for p in PINNED_REGIONS],
)
def test_pinned_region_trace(name, size, delta, theta, counts, digest, sweeps):
    """The surviving cells of real calls are pinned, not only checked
    against an oracle: cell counts, a digest of the masks and the sweeps."""
    instance = read_instance(INSTANCE_DIR / f"{name}.json").instance
    grid = grid_for_instance(instance, size, delta)
    assert grid.theta == theta
    base = build_region_map(instance, size, grid)
    result = propagate(base, instance.radii)
    if counts is None:
        assert result is None
        return
    assert result is not None
    assert tuple(result.cell_count(cid) for cid in sorted(result.masks)) == counts
    assert _digest(result.masks) == digest
    assert result.sweeps == sweeps


@pytest.mark.parametrize("path", sorted(INSTANCE_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_region_feasible_is_the_propagate_answer(path):
    """``region_feasible`` answers from the packed fixpoint without
    unpacking; at every size the plain bisection of ``lb3`` probes (``lb3``
    itself skips most of them on a disc) it agrees with propagating the
    built regions.  strip-c's probes include EMPTY ones."""
    instance = read_instance(path).instance
    probes = []

    def recording(inst, size, delta_r):
        answer = region_feasible(inst, size, delta_r)
        probes.append((size, delta_r, answer))
        return answer

    _reference_lb3(instance, probe=recording)
    assert probes
    for size, delta_r, answer in probes:
        grid = grid_for_instance(instance, size, delta_r)
        regions = propagate(build_region_map(instance, size, grid), instance.radii)
        assert answer == (regions is not None)
    if path.stem == "strip-c":
        assert not all(answer for _, _, answer in probes)


def test_region_feasible_empty_strip_probe():
    """strip-c at 10.796, the EMPTY lb3 probe pinned above; below the
    largest diameter the empty containment set alone refutes it."""
    instance = read_instance(INSTANCE_DIR / "strip-c.json").instance
    delta_r = 0.45 * instance.min_radius
    assert not region_feasible(instance, 10.795999523497063, delta_r)
    assert region_feasible(instance, 12.690567149297106, delta_r)
    assert not region_feasible(instance, 1.9 * instance.max_radius, delta_r)


def test_propagated_masks_are_read_only(tmp_path):
    """Circles of one class share one mask array, so every returned mask is
    read-only and an in-place write raises.  The consumers only read them:
    ``build_problem`` in both modes, the driver's cell count and
    ``write_region_pgm`` run on the map and leave it unchanged."""
    instance = read_instance(INSTANCE_DIR / "eq-07.json").instance
    size = 2.822875655533296
    grid = grid_for_instance(instance, size, 0.04410743211770775)
    base = build_region_map(instance, size, grid)
    result = propagate(base, instance.radii)
    assert result is not None
    assert result.masks[3] is result.masks[7]  # one class: circles 3 to 7
    before = _digest(result.masks)
    for regions in (base, result):
        for mask in regions.masks.values():
            with pytest.raises(ValueError, match="read-only"):
                mask[0, 0] = True
            with pytest.raises(ValueError, match="read-only"):
                mask &= False
    for mode in ("restricted", "relaxed"):
        build_problem(instance, grid, mode, result)
    assert sum(map(result.cell_count, result.masks)) == 1455 + 2317 + 5 * 4474
    write_region_pgm(result, tmp_path)
    assert _digest(result.masks) == before


def test_propagate_runs_to_the_fixpoint():
    """Three unit circles at a driver trial size just below the optimum
    1 + 2/sqrt(3): the regions shrink by a few cells per sweep and empty
    only after 60 sweeps, so a sweep cap would stop short with 97 cells
    left and send the trial on to both searches."""
    instance = disc_instance("eq3", [1.0] * 3)
    size, delta = 2.1353629710828557, 0.019337567297550817
    grid = grid_for_instance(instance, size, delta)
    assert grid.theta == 111
    assert propagate(build_region_map(instance, size, grid), instance.radii) is None


@st.composite
def tall_masks(draw):
    """A mask of up to 40 rows, so the row halving of ``_extreme_cells``
    runs several odd and even steps, and a reach for its layout."""
    nx = draw(st.integers(1, 40))
    ny = draw(st.integers(1, 12))
    mask = draw(arrays(bool, (nx, ny), elements=st.booleans()))
    return mask, draw(st.integers(0, 12))


@given(tall_masks())
def test_extreme_cells_match_numpy(problem):
    """The extreme cells read off the bits are numpy's: the last cell of
    the last row, the first cell of the first row and the first cell of the
    leftmost and of the rightmost column, without repeats.  Each is a
    vertex of the hull."""
    mask, reach = problem
    if not mask.any():
        return
    stride = _stride(mask.shape[1], reach)
    column = _pack(np.ones((mask.shape[0], 1), dtype=bool), stride)
    got = [divmod(v, stride) for v in _extreme_cells(_pack(mask, stride), stride, column)]
    ii, jj = np.nonzero(mask)  # row-major order
    left, right = jj.min(), jj.max()
    want = [
        (ii[-1], jj[-1]),
        (ii[0], jj[0]),
        (ii[jj == left].min(), left),
        (ii[jj == right].min(), right),
    ]
    assert got == list(dict.fromkeys((int(i), int(j)) for i, j in want))
    assert set(got) <= set(_hull(_numpy_row_extents(mask)))


@st.composite
def packed_masks(draw):
    """A mask with some 1-row, 1-column and non-square shapes, and a reach
    whose pattern is often wider than the grid (2m + 1 > ny)."""
    nx = draw(st.integers(1, 9))
    ny = draw(st.integers(1, 9))
    mask = draw(arrays(bool, (nx, ny), elements=st.booleans()))
    return mask, draw(st.integers(0, 12))


@pytest.mark.parametrize(
    "shape, cells",
    [
        ((1, 1), [(0, 0)]),
        ((1, 7), [(0, 0), (0, 6)]),
        ((1, 7), [(0, 3)]),
        ((7, 1), [(0, 0), (3, 0), (6, 0)]),
        ((3, 11), [(0, 10), (2, 0)]),
        ((11, 3), [(1, 2), (9, 0), (9, 1)]),
    ],
    ids=["1x1", "1xn-ends", "1xn-one", "nx1", "wide", "tall"],
)
@pytest.mark.parametrize("reach", [0, 1, 6])
def test_row_extents_edge_cases(shape, cells, reach):
    mask = _mask(shape, cells)
    stride = _stride(shape[1], reach)
    assert _row_extents(_pack(mask, stride), stride) == _numpy_row_extents(mask)


@given(packed_masks())
def test_row_extents_match_numpy(problem):
    """The row scan gives numpy's first and last column of each nonempty
    row, hence the mask's bounding box and its hull."""
    mask, reach = problem
    stride = _stride(mask.shape[1], reach)
    extents = _row_extents(_pack(mask, stride), stride)
    assert extents == _numpy_row_extents(mask)
    if not mask.any():
        assert extents == []
        return
    ii, jj = np.nonzero(mask)
    box = (
        extents[0][0],
        extents[-1][0],
        min(lo for _, lo, _ in extents),
        max(hi for _, _, hi in extents),
    )
    assert box == (ii.min(), ii.max(), jj.min(), jj.max())


def _to_grid(frame_bits, base):
    """Bits of a frame whose bit 0 is cell bit ``base``, as cell bits."""
    return frame_bits << base if base >= 0 else frame_bits >> -base


@settings(max_examples=150)
@given(packed_masks(), st.integers(1, 200), st.integers(0, 2), st.integers(0, 80))
def test_shifted_pattern_is_the_forbidden_set(problem, min_sq, extra, top_index):
    """On the grid's cells, the pattern shifted onto any cell is exactly the
    cells at a forbidden offset from it, also when the forbidden square is
    wider than the grid; so ANDs of shifted patterns are exact.  In the
    frame of a higher cell, where ``propagate`` intersects them, the
    pattern moved onto a lower cell is the pattern shifted down
    (``_forbidden_from_all``), with the same cells."""
    mask, _ = problem
    nx, ny = mask.shape
    reach = forbidden_reach(min_sq, "relaxed")
    if reach < 0:
        return
    reach += extra  # the layout may reach further than the threshold
    stride = _stride(ny, reach)
    pattern = _pattern(min_sq, "relaxed", reach, stride)
    bits = _pack(mask, stride)
    ii, jj = np.indices(mask.shape)
    centre = reach * (stride + 1)

    def cells_of(cell_bits):
        got = _unpack(bits & cell_bits, nx, stride)
        assert not got[:, ny:].any()
        return got[:, :ny]

    ti, tj = divmod(top_index % (nx * ny), ny)
    top = ti * stride + tj
    from_top = forbidden(ii - ti, jj - tj, min_sq, "relaxed")
    for i in range(nx):
        for j in range(ny):
            want = mask & forbidden(ii - i, jj - j, min_sq, "relaxed")
            shifted = _to_grid(pattern, i * stride + j - centre)
            assert np.array_equal(cells_of(shifted), want)
            if i * stride + j <= top:
                common = _forbidden_from_all(pattern, top, [i * stride + j], pattern)
                assert np.array_equal(
                    cells_of(_to_grid(common, top - centre)), want & from_top
                )


@pytest.mark.parametrize("mode", ["restricted", "relaxed"])
@pytest.mark.parametrize("cells", [1, 5, 40])
def test_packed_patterns_share_one_layout(mode, cells):
    """One reach and stride for all thresholds, the largest reach among
    them; a threshold that forbids nothing (0 on the diagonal, 2 in
    relaxed mode) gets the empty pattern, which callers skip."""
    thresholds = {0, 1, 2, 17, 50}
    reach, stride, patterns = _packed_patterns(thresholds, mode, cells)
    assert reach == forbidden_reach(50, mode)
    assert stride == _stride(cells, reach)
    assert set(patterns) == thresholds
    for t in thresholds:
        assert patterns[t] == _pattern(t, mode, reach, stride)
        assert (patterns[t] == 0) == (forbidden_reach(t, mode) < 0)
    assert _packed_patterns(set(), mode, cells) == (0, _stride(cells, 0), {})


@pytest.mark.parametrize("mode", ["restricted", "relaxed"])
def test_pattern_at_its_own_reach_is_the_full_square(mode):
    """``_pattern`` builds the square at the threshold's own reach and
    shifts it into the shared frame; the int is that of the whole
    [-reach, reach]^2 square, for every threshold up to 400, at its own
    reach and beyond it, and at several strides."""
    for t in range(401):
        own = max(0, forbidden_reach(t, mode))
        for reach in (own, own + 1, own + 4):
            offsets = np.arange(-reach, reach + 1)
            square = forbidden(offsets[:, None], offsets[None, :], t, mode)
            for cells in (1, 2 * reach + 1, 50):
                for stride in (_stride(cells, reach), _stride(cells, reach) + 3):
                    assert _pattern(t, mode, reach, stride) == _pack(square, stride), (
                        t, reach, stride
                    )


@given(st.integers(3, 80), st.lists(st.integers(0, 6400), min_size=1, max_size=4))
def test_spread_matches_its_formula(stride, cells):
    coords = [divmod(v, stride) for v in cells]
    want = max(
        (abs(ai - bi) + 2) ** 2 + (abs(aj - bj) + 2) ** 2
        for (ai, aj), (bi, bj) in combinations_with_replacement(coords, 2)
    )
    assert _spread(cells, stride) == want


def test_import_does_not_load_scipy_signal():
    """The package import stays free of scipy.signal (and of scipy at all:
    only the upper-bound heuristic uses scipy.optimize, imported lazily),
    and of the MILP exporter and the SVG renderer, which are imported from
    their own modules."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, circlepack; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
        "print(sorted(m for m in sys.modules if m in ('circlepack.milp', 'circlepack.render')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=src,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    loaded, exporters = out.stdout.strip().splitlines()
    assert "scipy.signal" not in loaded
    assert loaded == "[]"
    assert exporters == "[]"
