"""Cascade oracle: grid iteration, reproduction sums, empirical accuracy."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from crystacc.accuracy import fhat0, max_accuracy
import crystacc.cascade as cascade_mod
from crystacc.cascade import (CascadeError, _probe_block, _seed_direction,
                              cascade_iterate, empirical_accuracy,
                              empirical_level, grid_bytes,
                              refinement_residual, reproduce,
                              sample_points, support_box)
from crystacc.crystal import (catalog_names, catalog_triple, check_admissible,
                              validate_triple)
from crystacc.linalg import Mat
from crystacc.mask import Mask, lift_scalar_to_matrix
from crystacc.multiidx import _acted_rows, build_A_s, dim_degree

from conftest import (former_plan, former_step, held_arrays,
                      reproduction_values)


def _sample(field, points):
    """Field values at grid nodes given as x points, zero off the box."""
    return field.read(field.node_index(points))


def _float_witness(cert):
    """The certificate's witness as the cascade takes it: a tuple of
    complex arrays, one per degree."""
    return tuple(b.np() for b in cert.witness.blocks)


@pytest.fixture(scope="module")
def hat_field(line, hat):
    t, dil = line
    return cascade_iterate(hat, t, dil, iterations=12, grid_exponent=8)


@pytest.fixture(scope="module")
def haar_field(line, haar):
    t, dil = line
    return cascade_iterate(haar, t, dil, iterations=4, grid_exponent=6)


@pytest.fixture(scope="module")
def plane():
    """2D integer lattice, trivial point group, dyadic dilation."""
    t = catalog_triple("p1", 2)
    dil = check_admissible(Mat.from_rows([[2, 0], [0, 2]]), t)
    return t, dil


def test_support_boxes_of_classic_masks(line, haar, hat, bspline4):
    """Each box is the hull of the refinable function's support, which
    lies on the lattice of every spacing used here."""
    _, dil = line
    for h in (1.0, 2.0 ** -4, 2.0 ** -7):
        assert support_box(haar, dil, h) == [(0, 1)]
        assert support_box(hat, dil, h) == [(-1, 1)]
        assert support_box(bspline4, dil, h) == [(-2, 2)]


def test_haar_seed_is_already_fixed(haar_field):
    """The unit-box indicator is the exact fixed point of the Haar mask,
    so every sup difference vanishes from the first step."""
    assert haar_field.converged
    assert all(d == 0.0 for d in haar_field.sup_diffs)
    f = haar_field.field
    assert abs(_sample(f, [[0.5]])[0, 0] - 1.0) < 1e-12
    assert abs(_sample(f, [[-0.5]])[0, 0]) < 1e-12


def test_hat_cascade_reaches_exact_fixed_point(hat_field):
    assert hat_field.converged
    assert hat_field.sup_diffs[-1] <= 1e-12
    # differences halve until the iterate lands exactly on the hat
    assert hat_field.sup_diffs[0] > hat_field.sup_diffs[4]
    f = hat_field.field
    ax = f.nodes()[:, 0]
    expected = np.maximum(0.0, 1.0 - np.abs(ax))
    assert float(np.max(np.abs(f.data[:, 0] - expected))) < 1e-9


def test_grid_geometry(line, hat):
    """The hat's grid is its certified support box [-1, 1]: 33 nodes at
    h = 2^-4, and the margin size is the box's diagonal, 2."""
    t, dil = line
    res = cascade_iterate(hat, t, dil, iterations=1, grid_exponent=4)
    f = res.field
    assert f.h == 2.0 ** -4
    assert f.shape == (33,)
    assert f.lo[0] == -1.0 and f.hi[0] == 1.0
    assert f.support_radius == 2.0


def test_sample_zero_outside_box(hat_field):
    f = hat_field.field
    assert _sample(f, [[10.0]])[0, 0] == 0.0
    assert _sample(f, [[-3.0]])[0, 0] == 0.0


def test_sample_is_node_exact(hat_field):
    f = hat_field.field
    vals = _sample(f, f.nodes())
    assert float(np.max(np.abs(vals[:, 0] - f.data[:, 0]))) < 1e-14


def test_cascade_input_checks(line, pm, hat):
    t, dil = line
    with pytest.raises(ValueError):
        cascade_iterate(hat, t, dil, iterations=0)
    with pytest.raises(ValueError):
        cascade_iterate(hat, t, dil, iterations=2, grid_exponent=-1)
    u, dil_u = pm
    with pytest.raises(ValueError):
        cascade_iterate(hat, u, dil_u, iterations=2)


def test_refinement_residual_at_fixed_points(line, haar, hat, bspline4,
                                             hat_field, haar_field):
    t, dil = line
    assert refinement_residual(hat_field.field, hat, dil) <= 1e-12
    assert refinement_residual(haar_field.field, haar, dil) <= 1e-12
    res = cascade_iterate(bspline4, t, dil, iterations=12, grid_exponent=8)
    assert res.converged
    assert refinement_residual(res.field, bspline4, dil) < 1e-6


def test_unnormalized_mask_does_not_converge(line, ones3):
    t, dil = line
    res = cascade_iterate(ones3, t, dil, iterations=10, grid_exponent=5)
    assert not res.converged
    assert res.sup_diffs[-1] > 1e-3


def test_sample_points_are_margin_nodes(hat_field):
    f = hat_field.field
    pts = sample_points(f, count=16, seed=7)
    assert pts.shape == (16, 1)
    margin = f.support_radius * f.h
    assert np.all(pts >= margin - 1e-12)
    assert np.all(pts < 1.0 - margin + 1e-12)
    # every coordinate sits on a grid node
    rel = (pts - f.lo) / f.h
    assert float(np.max(np.abs(rel - np.round(rel)))) < 1e-9
    again = sample_points(f, count=16, seed=7)
    assert np.array_equal(pts, again)
    other = sample_points(f, count=16, seed=8)
    assert not np.array_equal(pts, other)


def test_sample_points_contract_on_a_sheared_lattice():
    """On pm over the shear R = [[1, 1/2], [0, 1]]: a count at least the
    number of margin nodes of the lattice cell gives every one of them
    exactly once, a smaller count gives distinct margin nodes, each point
    is x = R y for its node y = h J, a seed repeats its array, seeds 7
    and 8 differ, and a negative seed is refused."""
    R = [[1, Fraction(1, 2)], [0, 1]]
    t = validate_triple(Mat.from_rows(R), catalog_triple("pm", 2).group)
    dil = check_admissible(Mat.from_rows([[2, 0], [0, 2]]), t)
    hat = {-1: Fraction(1, 2), 0: Fraction(1), 1: Fraction(1, 2)}
    mask = Mask.scalar(t, {(0, (i, j)): a * b for i, a in hat.items()
                           for j, b in hat.items()})
    field = cascade_iterate(mask, t, dil, iterations=2,
                            grid_exponent=4).field
    n = 2 ** field.q
    ok = [j for j in range(n) if min(j, n - j) >= field.support_radius]
    margin = set(itertools.product(ok, repeat=2))
    assert len(margin) > 32
    r = np.array(R, dtype=float)

    def nodes(pts):
        J = np.rint(pts @ np.linalg.inv(r).T / field.h).astype(np.int64)
        assert np.array_equal(pts, (J * field.h) @ r.T)
        return [tuple(int(x) for x in j) for j in J]

    every = nodes(sample_points(field, count=len(margin) + 5, seed=3))
    assert len(every) == len(margin) and set(every) == margin
    pts = sample_points(field, count=32, seed=7)
    picked = nodes(pts)
    assert len(set(picked)) == 32 and set(picked) <= margin
    assert np.array_equal(pts, sample_points(field, count=32, seed=7))
    assert not np.array_equal(pts, sample_points(field, count=32, seed=8))
    with pytest.raises(ValueError):
        sample_points(field, seed=-1)


def test_sample_points_margin_guard(line, hat):
    t, dil = line
    res = cascade_iterate(hat, t, dil, iterations=1, grid_exponent=1)
    with pytest.raises(CascadeError):
        sample_points(res.field)


def test_reproduction_marks_truncated_points(line, hat):
    t, dil = line
    res = cascade_iterate(hat, t, dil, iterations=8, grid_exponent=4)
    assert res.field.hi[0] == 1.0
    cert = max_accuracy(hat, t, dil, p_max=2)
    v = _float_witness(cert)
    # the node 0.0625 + 1 lands one node h = 1/16 off the box [-1, 1], so
    # its sum is flagged; the translates of 0.5 land on the grid or at
    # least h away from it (1.5), so its sum is fully covered
    vals, excluded = reproduction_values(res.field, v, 0, [[0.0625], [0.5]])
    assert excluded.tolist() == [True, False]
    assert abs(vals[1, 0] - 1.0) < 1e-6
    # the field is read at nodes only: 1/32 lies between two
    with pytest.raises(ValueError, match="node"):
        reproduction_values(res.field, v, 0, [[0.03125], [0.5]])
    with pytest.raises(ValueError, match="node"):
        _sample(res.field, [[0.03125]])


def test_reproduce_refuses_a_sample_with_nothing_to_compare(line, hat):
    """An empty sample is refused as such, before any walk; a sample
    whose every node may be cut (the node 1/16 of the 4-step hat, whose
    translate lands one node off the box) loses its coverage."""
    t, dil = line
    res = cascade_iterate(hat, t, dil, iterations=8, grid_exponent=4)
    v = _float_witness(max_accuracy(hat, t, dil, p_max=2))
    with pytest.raises(ValueError, match="^no sample points$") as info:
        reproduce(res.field, v, [])
    assert not isinstance(info.value, CascadeError)
    walk = cascade_mod._walk(res.field, res.field.node_index([[0.0625]]))
    assert walk[1].tolist() == [True]
    for given_walk in (None, walk):
        with pytest.raises(CascadeError, match="every sample point lost "
                           "coverage"):
            reproduce(res.field, v, [[0.0625]], walk=given_walk)


def test_reproduce_haar_partition_of_unity(line, haar, haar_field):
    t, dil = line
    cert = max_accuracy(haar, t, dil, p_max=1)
    pts = sample_points(haar_field.field, count=16)
    rep = reproduce(haar_field.field, _float_witness(cert), pts)[0]
    assert rep.verdict
    assert rep.residual < 1e-9
    assert abs(rep.C - 1.0) < 1e-9
    assert rep.cell_volume == 1.0
    assert rep.matched_form == "volume-over-gate and gate-over-volume"
    assert rep.excluded == 0


def test_reproduce_hat_linear_polynomials(line, hat, hat_field):
    t, dil = line
    cert = max_accuracy(hat, t, dil, p_max=2)
    pts = sample_points(hat_field.field, count=24)
    for s in (0, 1):
        rep = reproduce(hat_field.field, _float_witness(cert), pts)[s]
        assert rep.verdict
        assert rep.residual < 1e-12
        assert abs(rep.C - 1.0) < 1e-9


def test_fit_from_a_single_sample_node_does_not_pass(line, hat, hat_field):
    """With one sample node the degree-2 fit has as many equations as
    unknowns, so it is exact by construction and shows nothing; so does
    the s = 0 test, whose C is that node's own degree-0 sum."""
    t, dil = line
    cert = max_accuracy(hat, t, dil, p_max=3)
    assert cert.p == 2
    checks = list(cascade_mod.verify_degrees(hat_field.field, cert.witness,
                                             3, 1e-5, 1, 2026))
    assert [c.s for c in checks] == [0, 1, 2]
    fitted = checks[2]
    assert fitted.report is None and fitted.residual < 1e-5
    assert not fitted.verdict
    assert empirical_level(hat_field, checks, "ok") == 0


def test_empirical_accuracy_classic_masks(line, haar, hat, bspline4):
    t, dil = line
    assert empirical_accuracy(hat, t, dil, p_max=4) == 2
    assert empirical_accuracy(haar, t, dil, p_max=3,
                              grid_exponent=6, iterations=6) == 1
    assert empirical_accuracy(bspline4, t, dil, p_max=5) == 4


def test_empirical_accuracy_divergent_mask(line, ones3):
    t, dil = line
    with pytest.raises(CascadeError):
        empirical_accuracy(ones3, t, dil, p_max=2, iterations=8,
                           grid_exponent=5)
    assert empirical_accuracy(ones3, t, dil, p_max=2, iterations=8,
                              grid_exponent=5, strict=False) is None


def test_seed_directions(line, hat, p1m, sym_hat):
    _, dil = line
    v = _seed_direction(hat, dil)
    assert abs(v[0] - 1.0) < 1e-6
    _, dil1 = p1m
    lifted = lift_scalar_to_matrix(sym_hat, dil1)
    lat_dil = check_admissible(Mat.from_rows([[2]]), lifted.triple)
    w = _seed_direction(lifted, lat_dil)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    assert abs(w[0] - inv_sqrt2) < 1e-6
    assert abs(w[1] - inv_sqrt2) < 1e-6


def test_lifted_hat_matches_gate_over_volume(p1m, sym_hat):
    """The lifted mask integrates each component to 1/2, so the constant
    reproduced from the (1, 1) witness is sqrt(2) after the unit-norm gate
    estimate, matching exactly one of the two closed forms."""
    _, dil1 = p1m
    lifted = lift_scalar_to_matrix(sym_hat, dil1)
    lat = lifted.triple
    lat_dil = check_admissible(Mat.from_rows([[2]]), lat)
    res = cascade_iterate(lifted, lat, lat_dil, iterations=12,
                          grid_exponent=6)
    assert res.converged
    cert = max_accuracy(lifted, lat, lat_dil, p_max=2)
    pts = sample_points(res.field, count=16)
    rep = reproduce(res.field, _float_witness(cert), pts)[0]
    assert rep.verdict
    assert abs(rep.C - math.sqrt(2.0)) < 1e-3
    assert rep.matched_form == "gate-over-volume"
    assert empirical_accuracy(lifted, lat, lat_dil, p_max=3,
                              grid_exponent=6) == 2


def test_dilation_covariance_of_reproduction_sums(line, hat, hat_field):
    """G_[s](A x) = A_[s] G_[s](x) wherever both sides are fully covered."""
    t, dil = line
    v = _float_witness(max_accuracy(hat, t, dil, p_max=2))
    f = hat_field.field
    pts = sample_points(f, count=12)
    for s in (0, 1):
        left, ex1 = reproduction_values(f, v, s, 2.0 * pts)
        right, ex2 = reproduction_values(f, v, s, pts)
        keep = ~(ex1 | ex2)
        assert keep.any()
        scale = 2.0 ** s
        assert float(np.max(np.abs(left[keep] - scale * right[keep]))) < 1e-12


def test_2d_tensor_hat(plane):
    t, dil = plane
    half = Fraction(1, 2)
    entries = {}
    for k1, c1 in ((-1, half), (0, Fraction(1)), (1, half)):
        for k2, c2 in ((-1, half), (0, Fraction(1)), (1, half)):
            entries[(k1, k2)] = c1 * c2
    mask = Mask.scalar(t, entries)
    res = cascade_iterate(mask, t, dil, iterations=12, grid_exponent=6)
    assert res.converged
    assert empirical_accuracy(mask, t, dil, p_max=3, iterations=12,
                              grid_exponent=6) == 2


def test_grid_bytes_estimate():
    """Per node, d int64 of integer work, four live iterates (r entries of
    8 bytes on float64, 16 on complex128) and one int64 read index per
    point part; plus the one buffer u, in the iterates' dtype, and per
    node of a field coset's copy r entries, taken by strided slices with
    no index.  The 2D tensor quadratic B-spline (one point part, shifts
    0..3 per axis, real) on its certified box [0, 3]^2 at the default
    spacing 2^-8 has 769^2 nodes, reads its even nodes, 385^2 of them,
    and keeps u on the even nodes of the widened box, 769^2 of them and
    one zero row: about 39 MB on float64, 64 MB on complex128 (52 and
    90 MB with u on the whole widened box, 1537^2 nodes)."""
    assert grid_bytes(1, 1, 3, 10, 0, 0, 16) == 10 * (8 + 64 + 3 * 8)
    assert grid_bytes(1, 1, 3, 10, 0, 0, 8) == 10 * (8 + 32 + 3 * 8)
    assert grid_bytes(2, 3, 5, 7, 11, 13, 16) == \
        7 * (16 + 3 * 64 + 5 * 8) + 11 * 48 + 13 * 48
    assert grid_bytes(2, 3, 5, 7, 11, 13, 8) == \
        7 * (16 + 3 * 32 + 5 * 8) + 11 * 24 + 13 * 24
    n, u, c = 769 ** 2, 769 ** 2 + 1, 385 ** 2
    assert grid_bytes(2, 1, 1, n, u, c, 16) == \
        n * (16 + 64 + 8) + 16 * u + 16 * c
    assert 0.063e9 < grid_bytes(2, 1, 1, n, u, c, 16) < 0.064e9
    assert grid_bytes(2, 1, 1, n, u, c, 8) == \
        n * (16 + 32 + 8) + 8 * u + 8 * c
    assert 0.039e9 < grid_bytes(2, 1, 1, n, u, c, 8) < 0.0391e9


def _quadratic_bspline_2d(t):
    """Tensor square of the quadratic B-spline mask (1, 3, 3, 1) / 4 on
    the 2D lattice; its refinable function lives on [0, 3]^2."""
    c = [Fraction(1, 4), Fraction(3, 4), Fraction(3, 4), Fraction(1, 4)]
    return Mask.scalar(t, {(i, j): a * b for i, a in enumerate(c)
                           for j, b in enumerate(c)})


def _spy_on_the_estimate(monkeypatch, budget):
    """Record the arguments of every grid_bytes call of cascade_iterate and
    of every box it certifies, under the given memory budget."""
    seen, boxes = [], []
    certify = cascade_mod._certified_box

    def spy(*args):
        seen.append(args)
        return grid_bytes(*args)

    def box(*args):
        boxes.append(args)
        return certify(*args)

    monkeypatch.setattr(cascade_mod, "grid_bytes", spy)
    monkeypatch.setattr(cascade_mod, "_certified_box", box)
    monkeypatch.setattr(cascade_mod, "memory_budget", lambda: budget)
    return seen, boxes


def test_default_grid_of_the_quadratic_bspline_fits_in_1_gib(plane,
                                                             monkeypatch):
    """The default --grid 8 is sized through cascade_iterate's own path, on
    float64 for this real mask: a zero budget refuses the least grid,
    257^2 nodes on [0, 1]^2, before the box is certified (with u at
    least its zero row and no coset copied), and a budget that holds that
    grid refuses the certified box's estimate (u on the 769^2 even nodes
    of the widened box, the 385^2 even box nodes copied, 8 bytes each:
    about 39 MB), both before anything is allocated."""
    t, dil = plane
    mask = _quadratic_bspline_2d(t)
    assert support_box(mask, dil, 2.0 ** -8) == [(0, 3), (0, 3)]
    least = (2, 1, 1, 257 ** 2, 1, 0, 8)
    seen, boxes = _spy_on_the_estimate(monkeypatch, 0)
    with pytest.raises(CascadeError, match="memory"):
        cascade_iterate(mask, t, dil, iterations=12, grid_exponent=8)
    assert seen == [least] and boxes == []
    seen, boxes = _spy_on_the_estimate(monkeypatch, grid_bytes(*least))
    with pytest.raises(CascadeError, match="memory"):
        cascade_iterate(mask, t, dil, iterations=12, grid_exponent=8)
    assert seen == [least, (2, 1, 1, 769 ** 2, 769 ** 2 + 1, 385 ** 2, 8)]
    assert len(boxes) == 1
    assert grid_bytes(*seen[1]) == 769 ** 2 * (16 + 32 + 8) + \
        8 * (769 ** 2 + 1) + 8 * 385 ** 2 < 2 ** 30


def test_sparse_wide_hull_mask_pays_for_its_buffer(plane, monkeypatch):
    """Four elements at the corners of [0, 3]^2 under A = 4I: the box is
    [0, 1]^2 and the shifted copies span [0, 4]^2, but u lives on the
    nodes 4z its gathers read, the 65^2 of them in that span, and the
    copy holds the 17^2 box nodes 4w the elements read: u is about the
    box, not 16 times it, and costs less than the four int64 indices per
    node that a gather per element would hold.  The estimate counts u
    and the copy before the refusal."""
    t, _ = plane
    dil = check_admissible(Mat.from_rows([[4, 0], [0, 4]]), t)
    mask = Mask.scalar(t, {(i, j): 4 for i in (0, 3) for j in (0, 3)})
    assert support_box(mask, dil, 2.0 ** -6) == [(0, 1), (0, 1)]
    n, u, c = 65 ** 2, 65 ** 2 + 1, 17 ** 2
    # the box is the least grid [0, 1]^2: a budget that holds that grid
    # and u's zero row is refused for u and the copy
    least = (2, 1, 1, n, 1, 0, 8)
    seen, _ = _spy_on_the_estimate(monkeypatch, grid_bytes(*least))
    with pytest.raises(CascadeError, match="memory"):
        cascade_iterate(mask, t, dil, iterations=2, grid_exponent=6)
    assert seen == [least, (2, 1, 1, n, u, c, 8)]
    assert grid_bytes(*seen[1]) == n * (16 + 32 + 8) + 8 * u + 8 * c
    # the float64 buffer costs less than the per-element indices
    assert 8 * u < 4 * 8 * n


# -- the certified box against a reference cascade --------------------------

QUINCUNX = [[1, 1], [1, -1]]
ROTATION = [[1, -1], [1, 1]]


def _random_case(case, rnd):
    """(mask, dilation, grid exponent) of one seeded case."""
    def coef():
        return Fraction(rnd.randint(-4, 8), rnd.randint(1, 4))

    def factor():
        start = rnd.randint(-3, 2)
        return {start + i: coef() for i in range(rnd.randint(2, 5))}

    if case == "p1-1d":
        t = catalog_triple("p1", 1)
        entries = factor()
        a, q = [[2]], rnd.randint(2, 6)
    elif case == "p1-2d":
        t = catalog_triple("p1", 2)
        f1, f2 = factor(), factor()
        entries = {(i, j): x * y for i, x in f1.items()
                   for j, y in f2.items()}
        a, q = [[2, 0], [0, 2]], rnd.randint(2, 4)
    elif case == "lattice":  # R != I: p1 on diag(1/3, 1) or pm on a shear
        if rnd.random() < 0.5:
            t = validate_triple(Mat.from_rows([[Fraction(1, 3), 0], [0, 1]]),
                                catalog_triple("p1", 2).group)
            f1, f2 = factor(), factor()
            entries = {(0, (i, j)): x * y for i, x in f1.items()
                       for j, y in f2.items()}
        else:
            t = validate_triple(Mat.from_rows([[1, Fraction(1, 2)], [0, 1]]),
                                catalog_triple("pm", 2).group)
            entries = {(g, (rnd.randint(-2, 2), rnd.randint(-2, 2))): coef()
                       for g in (0, 1) for _ in range(rnd.randint(1, 3))}
        a, q = [[2, 0], [0, 2]], rnd.randint(2, 4)
    elif case == "quincunx":
        t = catalog_triple("p1", 2)
        entries = {(0, 0): coef(), (1, 0): coef()}
        for _ in range(rnd.randint(0, 3)):
            entries[(rnd.randint(-2, 2), rnd.randint(-2, 2))] = coef()
        a, q = QUINCUNX, rnd.randint(2, 3)
    else:  # a p4 or p4m spread: rotated and reflected copies
        t = catalog_triple(rnd.choice(["p4", "p4m"]) if case == "rotation"
                           else case, 2)
        entries = {(0, (0, 0)): coef()}
        for _ in range(rnd.randint(1, 5)):
            k = (rnd.randint(-2, 2), rnd.randint(-2, 2))
            entries[(rnd.randrange(t.order), k)] = coef()
        a = ROTATION if case == "rotation" else [[2, 0], [0, 2]]
        q = rnd.randint(2, 4)
    dil = check_admissible(Mat.from_rows(a), t)
    # coefficients summing to m make the seed direction 1
    total = sum(entries.values())
    if total == 0:
        key = next(iter(entries))
        entries[key] += 1
        total = 1
    entries = {key: c * dil.m / total for key, c in entries.items()}
    return Mask.scalar(t, entries), dil, q


def _reference_cascade(mask, dil, q, iterations, first, n):
    """Plain cascade of a scalar mask on the cube of n nodes per axis whose
    node j sits at y = (first + j) h in lattice coordinates y = R^{-1} x,
    h = 2^-q: node J reads G_{g^{-1}} M J - 2^q k, an integer index since
    M = R^{-1} A R and G = R^{-1} g R are integral.  Returns the node
    positions in units of h and the last iterate."""
    t = mask.triple
    d = t.d
    scale = 2 ** q
    m = np.array(dil.M)
    pos = np.stack(np.meshgrid(*[np.arange(first, first + n)] * d,
                               indexing="ij"), axis=-1).reshape(-1, d)
    f = np.all((pos >= 0) & (pos < scale), axis=1).astype(float)  # seed 1
    reads = []
    for e, blk in mask.items():
        g_inv = np.array(t.int_reps[t.inverse_table[e.g]])
        idx = pos @ (g_inv @ m).T - scale * np.array(e.k) - first
        ok = np.all((idx >= 0) & (idx < n), axis=1)
        flat = np.ravel_multi_index(tuple(np.where(ok[:, None], idx, 0).T),
                                    (n,) * d)
        reads.append((ok, flat, float(blk.entry(0, 0))))
    for _ in range(iterations):
        f = sum(np.where(ok, c * f[flat], 0.0) for ok, flat, c in reads)
    return pos, f


@seed(2026)
@settings(max_examples=48, deadline=None)
@given(st.sampled_from(["p1-1d", "p1-2d", "p4", "p4m", "quincunx",
                        "rotation", "lattice"]),
       st.randoms(use_true_random=False))
def test_box_grid_matches_a_reference_cascade(case, rnd):
    """The grid is the certified box in lattice coordinates, for A = 2I
    and for the quincunx and rotation dilations alike, on R = I and on
    R != I; the iterate on it equals a plain cascade on a cube two units
    wider on every side at every common node, and the plain one is zero at
    every node off the box."""
    mask, dil, q = _random_case(case, rnd)
    t = mask.triple
    h = 2.0 ** -q
    iterations = 5
    field = cascade_iterate(mask, t, dil, iterations, grid_exponent=q).field
    box = support_box(mask, dil, h)
    box_idx = np.array([[lo / Fraction(h), hi / Fraction(h)]
                        for lo, hi in box], dtype=np.int64)
    assert np.all(field.lo == box_idx[:, 0] * h)
    assert field.shape == tuple(box_idx[:, 1] - box_idx[:, 0] + 1)
    # the box holds [0,1]^d and, when one step certifies (A = 2I), its
    # image under every map y -> M^{-1} G_g (y + k)
    lo, hi = box_idx[:, 0] * h, box_idx[:, 1] * h
    assert np.all(lo <= 0) and np.all(hi >= 1)
    m_inv = np.linalg.inv(np.array(dil.M, dtype=float))
    for e in mask.support() if case not in ("quincunx", "rotation") else ():
        lin = m_inv @ np.array(t.int_reps[e.g], dtype=float)
        centre = lin @ ((lo + hi) / 2 + np.array(e.k))
        reach = np.abs(lin) @ ((hi - lo) / 2)
        assert np.all(centre - reach >= lo - 1e-12)
        assert np.all(centre + reach <= hi + 1e-12)
    pad = 2 * 2 ** q
    first = int(box_idx[:, 0].min()) - pad
    n = int(box_idx[:, 1].max()) + pad - first + 1
    pos, ref = _reference_cascade(mask, dil, q, iterations, first, n)
    on_box = np.all((pos >= box_idx[:, 0]) & (pos <= box_idx[:, 1]), axis=1)
    assert np.all(ref[~on_box] == 0.0)
    r_inv = np.linalg.inv(t.R.np().real)
    nodes = np.rint(field.nodes() @ r_inv.T / h).astype(np.int64)
    common = ref[np.ravel_multi_index(tuple((nodes - first).T), (n,) * t.d)]
    got = field.data.reshape(-1)
    assert got.dtype == np.float64
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert np.allclose(got, common, rtol=0, atol=1e-12 * scale)


# -- the one-gather-per-point-part step against the per-element one ---------


def _per_element_reads(mask, dil, first, shape, q):
    """The reads of the per-element step: per mask element (g, k), the
    padded-field row that every node J reads, G_{g^{-1}} M J - 2^q k, with
    the block d_(g,k) transposed."""
    t = mask.triple
    m = np.array(dil.M, dtype=np.int64)
    nodes = cascade_mod._node_grid(first, shape)
    reads = []
    for e, blk in mask.items():
        lin = np.array(t.int_reps[t.inverse_table[e.g]], dtype=np.int64) @ m
        target = nodes @ lin.T - (np.array(e.k, dtype=np.int64) << q)
        reads.append((cascade_mod._rows(first, shape, target),
                      blk.np().T.copy()))
    return reads


def _per_element_step(reads, padded):
    """One refinement step with one gather per mask element, on
    complex128."""
    out = np.zeros(padded.shape, dtype=complex)
    for rows, d_t in reads:
        out[:-1] += padded[rows] @ d_t
    return out


STEP_CASES = {
    # name: (catalog group, dimension, R or None for I, dilation, r)
    "p1-1d": ("p1", 1, None, [[2]], 1),
    "p1-2d": ("p1", 2, None, [[2, 0], [0, 2]], 1),
    "p1-quincunx": ("p1", 2, None, QUINCUNX, 1),
    "p1m": ("p1m", 1, None, [[2]], 1),
    "pm": ("pm", 2, None, [[2, 0], [0, 2]], 1),
    "p4m": ("p4m", 2, None, [[2, 0], [0, 2]], 1),
    "p4m-quincunx": ("p4m", 2, None, QUINCUNX, 1),
    "pm-diagonal": ("pm", 2, [[Fraction(1, 2), 0], [0, Fraction(1, 3)]],
                    [[2, 0], [0, 2]], 1),
    "p2-shear": ("p2", 2, [[1, Fraction(1, 2)], [0, 1]], [[2, 0], [0, 2]],
                 1),
    "complex-1d": ("p1", 1, None, [[2]], 2),
    "complex-pm": ("pm", 2, None, [[2, 0], [0, 2]], 2),
    "complex-p4m": ("p4m", 2, None, [[2, 0], [0, 2]], 2),
    # diagonal dilations with unequal or negative entries: S = |M|
    "p1-diag-2-3": ("p1", 2, None, [[2, 0], [0, 3]], 1),
    "pm-diag-neg": ("pm", 2, None, [[-2, 0], [0, 2]], 1),
    "complex-p4m-neg": ("p4m", 2, None, [[-2, 0], [0, -2]], 2),
    "p1m-neg3": ("p1m", 1, None, [[-3]], 1),
}


def _step_mask(case, rnd, shared=False):
    """(mask, dilation, q) of a random mask of one STEP_CASES case: random
    point parts with several shifts each; with shared, most point parts
    carry one common element list, shifts and blocks."""
    name, dim, lattice, a, r = STEP_CASES[case]
    t = catalog_triple(name, dim)
    if lattice is not None:
        t = validate_triple(Mat.from_rows(lattice), t.group)
    dil = check_admissible(Mat.from_rows(a), t)

    def coef():
        x = Fraction(rnd.randint(-6, 6), rnd.randint(1, 4))
        return [x, Fraction(rnd.randint(-3, 3), 2)] if r > 1 else x

    def element_list():
        return {tuple(rnd.randint(-2, 2) for _ in range(dim)):
                [[coef() for _ in range(r)] for _ in range(r)]
                for _ in range(rnd.randint(1, 4))}

    common = element_list() if shared else None
    blocks = {}
    for g in rnd.sample(range(t.order), rnd.randint(1, t.order)):
        elements = (common if shared and rnd.random() < 0.7
                    else element_list())
        for k, blk in elements.items():
            blocks[t.element(g, k)] = blk
    return Mask(t, blocks, r=r), dil, rnd.randint(1, 3)


def _new_plan(parts, dil, first, shape, q, r, dtype):
    """cascade._plan of the placement on a box given by its first node (an
    int64 array) and node counts."""
    return cascade_mod._plan(cascade_mod._placement(
        parts, dil, tuple(int(x) for x in first), shape, q), r, dtype)


def _box_grid(mask, dil, q):
    """First node and per-axis node counts of the certified box."""
    box = support_box(mask, dil, Fraction(1, 2 ** q))
    first = np.array([int(lo * 2 ** q) for lo, _ in box], dtype=np.int64)
    return first, tuple(int((hi - lo) * 2 ** q) + 1 for lo, hi in box)


def _random_field(gen, shape, r, dtype):
    """A padded field of random values in dtype, zero on its last row."""
    out = np.zeros((math.prod(shape) + 1, r), dtype=dtype)
    out[:-1] = gen.normal(size=(len(out) - 1, r))
    if dtype == np.complex128:
        out[:-1] += 1j * gen.normal(size=(len(out) - 1, r))
    return out


@seed(2026)
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(STEP_CASES)), st.randoms(use_true_random=False))
def test_point_part_step_matches_the_per_element_step(case, rnd):
    """On random masks (several shifts per point part, complex r = 2
    blocks included) and random fields in the mask's dtype, float64 on a
    real mask, the step with one gather per point part matches the
    per-element complex step to 1e-12 relative after four steps, and
    refinement_residual reads the same plan."""
    mask, dil, q = _step_mask(case, rnd)
    t, r = mask.triple, mask.r
    first, shape = _box_grid(mask, dil, q)
    parts = cascade_mod._point_parts(mask)
    dtype = cascade_mod._dtype(cascade_mod._blocks(parts))
    plan = _new_plan(parts, dil, first, shape, q, r, dtype)
    assert sum(len(part.rows) for part in plan.parts) == \
        len({e.g for e in mask.support()})
    reads = _per_element_reads(mask, dil, first, shape, q)
    gen = np.random.default_rng(rnd.randrange(2 ** 32))
    start = _random_field(gen, shape, r, dtype)
    got, want = start, start
    for _ in range(4):
        got = cascade_mod._step(plan, got)
        want = _per_element_step(reads, want)
        assert got.dtype == dtype and np.all(got[-1] == 0)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale
    field = cascade_mod.GridField(t, q, first, shape, start)
    defect = float(np.max(np.abs(_per_element_step(reads, start) - start)))
    assert abs(refinement_residual(field, mask, dil) - defect) <= \
        1e-12 * max(1.0, defect)


# The step before it ran on float64 and shared u between point parts: one
# u per point part, every array complex128.  The reference for the step in
# the mask's dtype with one u per distinct element list.

def _complex_plan(mask, dil, first, shape, q):
    """Per point part: u's node counts, its (window, d^T) adds and the
    row of u that every node reads."""
    t, r = mask.triple, mask.r
    parts = {}
    for e, blk in mask.items():
        parts.setdefault(e.g, []).append((e.k, blk))
    m = np.array(dil.M, dtype=np.int64)
    nodes = cascade_mod._node_grid(first, shape)
    plan = []
    for g, elements in parts.items():
        ks = np.array([k for k, _ in elements], dtype=np.int64)
        low = ks.min(axis=0)
        grid = tuple(int(n) for n in
                     np.asarray(shape) + ((ks.max(axis=0) - low) << q))
        adds = [(tuple(slice(o, o + n)
                       for o, n in zip((np.array(k) - low) << q, shape)),
                 blk.np().T.copy()) for k, blk in elements]
        lin = np.array(t.int_reps[t.inverse_table[g]], dtype=np.int64) @ m
        rows = cascade_mod._rows(first + (low << q), grid, nodes @ lin.T)
        plan.append((grid, adds, rows))
    return plan, r


def _complex_step(plan, shape, padded):
    grids, r = plan
    out = np.zeros(padded.shape, dtype=complex)
    term = np.empty((len(padded) - 1, r), dtype=complex)
    for grid, adds, rows in grids:
        u = np.zeros((math.prod(grid) + 1, r), dtype=complex)
        for window, d_t in adds:
            np.dot(padded[:-1], d_t, out=term)
            u[:-1].reshape(*grid, r)[window] += term.reshape(*shape, r)
        out[:-1] += u[rows]
    return out


@seed(2026)
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(STEP_CASES)), st.booleans(),
       st.randoms(use_true_random=False))
def test_step_in_the_mask_dtype_matches_the_complex_step(case, shared, rnd):
    """Real and complex masks, r = 1 and 2, whose point parts share their
    element list or not: the step runs on float64 exactly when every block
    is real, plans one u per distinct element list and one index array
    per point part, and matches the complex step with one u per point part
    to 1e-12 relative after four steps.  refinement_residual agrees with
    that step on a field in the mask's dtype, on its complex128 copy and,
    for a real mask, on a field with non-zero imaginary parts."""
    mask, dil, q = _step_mask(case, rnd, shared)
    t, r = mask.triple, mask.r
    first, shape = _box_grid(mask, dil, q)
    parts = cascade_mod._point_parts(mask)
    real = all(not blk.np().imag.any() for _, blk in mask.items())
    dtype = cascade_mod._dtype(cascade_mod._blocks(parts))
    assert dtype == (np.float64 if real else np.complex128)
    plan = _new_plan(parts, dil, first, shape, q, r, dtype)
    lists = {tuple((e.k, blk) for e, blk in mask.items() if e.g == g)
             for g in parts}
    assert len(plan.parts) == len(lists)
    assert sum(len(part.rows) for part in plan.parts) == len(parts)
    ref = _complex_plan(mask, dil, first, shape, q)
    gen = np.random.default_rng(rnd.randrange(2 ** 32))
    start = _random_field(gen, shape, r, dtype)
    got, want = start, start.astype(complex)
    for _ in range(4):
        got = cascade_mod._step(plan, got)
        want = _complex_step(ref, shape, want)
        assert got.dtype == dtype and np.all(got[-1] == 0)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale
    fields = [start, start.astype(complex)]
    if real:
        fields.append(_random_field(gen, shape, r, np.complex128))
    for values in fields:
        defect = float(np.max(np.abs(
            _complex_step(ref, shape, values.astype(complex)) - values)))
        field = cascade_mod.GridField(t, q, first, shape, values)
        assert abs(refinement_residual(field, mask, dil) - defect) <= \
            1e-12 * max(1.0, defect)


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


@seed(2026)
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(STEP_CASES)), st.booleans(),
       st.randoms(use_true_random=False))
def test_coset_step_matches_the_former_step_bit_for_bit(case, shared, rnd):
    """The step of _placement's one placement, u on the nodes |M| z that
    its gathers read when M is diagonal and on every node otherwise, with
    the one coset's window a unit-step slice of the whole box, gives bit
    for bit the iterates of the former step, u on the whole widened box
    (conftest), over four steps: real and complex masks, r = 1 and 2,
    point parts that share their element list or not, a field in the
    mask's dtype and, for a real mask, a complex field too.  Every coset
    grid fits in the box.  refinement_residual gives the former step's
    defect exactly."""
    mask, dil, q = _step_mask(case, rnd, shared)
    t, r = mask.triple, mask.r
    first, shape = _box_grid(mask, dil, q)
    parts = cascade_mod._point_parts(mask)
    dtype = cascade_mod._dtype(cascade_mod._blocks(parts))
    placement = cascade_mod._placement(
        parts, dil, tuple(int(x) for x in first), shape, q)
    m = np.array(dil.M)
    diagonal = np.array_equal(m, np.diag(np.diag(m)))
    assert placement.basis == (tuple(abs(int(x)) for x in np.diag(m))
                               if diagonal else (1,) * t.d)
    unit = [window == (slice(0, None, 1),) * t.d
            for _, window in placement.cosets]
    assert unit == [not diagonal] * len(placement.cosets)
    assert diagonal or len(placement.cosets) == 1
    assert all(n <= b for grid, _ in placement.cosets
               for n, b in zip(grid, shape))
    gen = np.random.default_rng(rnd.randrange(2 ** 32))
    fields = [_random_field(gen, shape, r, dtype)]
    if dtype == np.float64:
        fields.append(_random_field(gen, shape, r, np.complex128))
    for values in fields:
        ref = former_plan(parts, dil, first, shape, q, r, values.dtype)
        plan = cascade_mod._plan(placement, r, values.dtype)
        got, want = values, values
        for _ in range(4):
            got = cascade_mod._step(plan, got)
            want = former_step(ref, want)
            assert _bits(got) == _bits(want)
        field = cascade_mod.GridField(t, q, first, shape, values)
        defect = float(np.max(np.abs(former_step(ref, values) - values)))
        assert refinement_residual(field, mask, dil) == defect


def _former_buffer(mask, dil, q):
    """Rows of the former step's u, on the whole widened box."""
    first, shape = _box_grid(mask, dil, q)
    parts = cascade_mod._point_parts(mask)
    return len(former_plan(parts, dil, first, shape, q, mask.r,
                           np.float64).buffer)


def _plan_of(mask, dil, q):
    first, shape = _box_grid(mask, dil, q)
    parts = cascade_mod._point_parts(mask)
    return _new_plan(parts, dil, first, shape, q, mask.r, np.float64)


def test_u_of_the_quadratic_bspline_lives_on_its_even_nodes(plane):
    """The 2D quadratic B-spline at h = 2^-5 (the cascade-grid benchmark's
    grid, 97^2 box nodes): 2^5 k is even, so every element reads the 49^2
    even box nodes, read by a slice of step 2 from box node 0, and u lives
    on the 97^2 even nodes of the box widened by 2^5 * 3 per axis:
    97^2 + 1 rows, not 193^2 + 1."""
    t, dil = plane
    mask = _quadratic_bspline_2d(t)
    plan = _plan_of(mask, dil, 5)
    assert plan.shape == (97, 97)
    [(grid, window)] = plan.cosets
    assert grid == (49, 49) and window == (slice(0, None, 2),) * 2
    box = np.zeros((*plan.shape, 1))
    assert box[window].shape == (49, 49, 1)
    assert len(plan.buffer) == 97 ** 2 + 1
    assert _former_buffer(mask, dil, 5) == 193 ** 2 + 1
    assert len(plan.parts[0].adds) == 16


@pytest.mark.parametrize("a, q, n_cosets", [(QUINCUNX, 3, 1),
                                             ([[2, 0], [0, 2]], 0, 4)])
def test_step_reads_each_coset_through_its_window(a, q, n_cosets,
                                                  monkeypatch):
    """A step reads each field coset as box[window].reshape(-1, r), the
    rows its products multiply.  Under the quincunx the one coset is the
    box itself, and the products read the field in place.  Under A = 2I
    at q = 0, the quadratic B-spline's shifts 0..3 read the four cosets of
    2 Z^2, and each is read into a new array of its grid's nodes: a
    temporary of its step, sharing memory with neither the field, nor any
    array the plan holds, nor an earlier step's copy."""
    t = catalog_triple("p1", 2)
    dil = check_admissible(Mat.from_rows(a), t)
    plan = _plan_of(_quadratic_bspline_2d(t), dil, q)
    sources, dot = [], np.dot

    def spy(src, d_t, out):
        sources.append(src)
        return dot(src, d_t, out=out)

    monkeypatch.setattr(np, "dot", spy)
    field = _random_field(np.random.default_rng(5), plan.shape, 1,
                          np.float64)
    kept = []
    for _ in range(2):
        sources.clear()
        nxt = cascade_mod._step(plan, field)
        srcs = list({id(src): src for src in sources}.values())
        assert len(srcs) == len(plan.cosets) == n_cosets
        assert sorted(src.shape for src in srcs) == \
            sorted((math.prod(grid), 1) for grid, _ in plan.cosets)
        if n_cosets == 1:
            assert np.shares_memory(srcs[0], field)
        else:
            assert not any(np.shares_memory(src, x) for src in srcs
                           for x in [field] + held_arrays(plan) + kept)
        kept += srcs
        field = nxt


def test_u_of_the_four_corner_mask_is_about_its_box(plane):
    """The four corners of [0, 3]^2 under A = 4I at h = 2^-6: the box is
    [0, 1]^2, 65^2 nodes, and u holds the 65^2 nodes 4z of [0, 4]^2, not
    the 257^2 nodes of that square."""
    t, _ = plane
    dil = check_admissible(Mat.from_rows([[4, 0], [0, 4]]), t)
    mask = Mask.scalar(t, {(i, j): 4 for i in (0, 3) for j in (0, 3)})
    plan = _plan_of(mask, dil, 6)
    assert plan.shape == (65, 65)
    assert len(plan.buffer) == 65 ** 2 + 1
    assert _former_buffer(mask, dil, 6) == 257 ** 2 + 1


@pytest.mark.parametrize("a", [QUINCUNX, ROTATION])
@pytest.mark.parametrize("elements", [
    {(0, 0): 1, (1, 0): 1},
    {(i, j): Fraction(4 - 2 * abs(i) - 2 * abs(j) + abs(i * j), 8)
     for i in (-1, 0, 1) for j in (-1, 0, 1)}])
def test_u_under_slanted_dilations_is_no_larger(elements, a):
    """Under the quincunx and rotation dilations the cosets of M Z^d are
    slanted, their bounding grids save nothing, and u is no larger than
    the former step's."""
    t = catalog_triple("p1", 2)
    dil = check_admissible(Mat.from_rows(a), t)
    mask = Mask.scalar(t, elements)
    for q in (3, 5):
        assert len(_plan_of(mask, dil, q).buffer) <= \
            _former_buffer(mask, dil, q)


@pytest.mark.parametrize("case", sorted(STEP_CASES))
def test_grid_bytes_bounds_the_traced_peak(case):
    """The estimate cascade_iterate makes before it allocates bounds the
    peak that tracemalloc sees over the whole call, plan and iterations,
    on seeded masks of every STEP_CASES case (quincunx and complex ones
    among them), shared element lists or not, at h = 2^-11 in 1D and
    2^-6 in 2D, where the box has at least 2^11 and 65^2 nodes.  The
    estimate counts the grid's arrays: the few kB of Python objects a
    run also makes (the box, the seed, the plan's lists) are left to the
    margin, which such a grid leaves them."""
    estimates = []

    def spy(*args):
        estimates.append(grid_bytes(*args))
        return estimates[-1]

    rnd = random.Random(f"peak {case}")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cascade_mod, "grid_bytes", spy)
        for shared in (False, True):
            mask, dil, _ = _step_mask(case, rnd, shared)
            q = 11 if mask.triple.d == 1 else 6
            estimates.clear()
            tracemalloc.start()
            try:
                cascade_iterate(mask, mask.triple, dil, 2, grid_exponent=q)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(estimates) == 2 and peak <= estimates[-1]


@pytest.fixture(scope="module")
def quincunx_pair():
    """The p1 mask with support {(0,0), (1,0)} under the quincunx A."""
    t = catalog_triple("p1", 2)
    dil = check_admissible(Mat.from_rows(QUINCUNX), t)
    return Mask.scalar(t, {(0, 0): 1, (1, 0): 1}), t, dil


def test_quincunx_box_certifies_at_two_steps(quincunx_pair):
    """The quincunx A = [[1, 1], [1, -1]] widens every box in one step, so
    its box comes from the 2-step map (A^-2 = I/2): 41^2 nodes at h = 2^-4,
    where the old fallback cube around an estimated ball took 157^2."""
    mask, t, dil = quincunx_pair
    box = support_box(mask, dil, 2.0 ** -4)
    assert box == [(Fraction(-1, 4), Fraction(9, 4)),
                   (Fraction(-3, 4), Fraction(7, 4))]
    field = cascade_iterate(mask, t, dil, 1, grid_exponent=4).field
    assert field.shape == (41, 41)


def test_box_step_bound_raises(quincunx_pair, monkeypatch):
    """With one step allowed per n, up to n = 1, the quincunx box does not
    certify: the search stops with a CascadeError."""
    mask, t, dil = quincunx_pair
    monkeypatch.setattr(cascade_mod, "MAX_BOX_STEPS", 1)
    with pytest.raises(CascadeError, match="support box"):
        cascade_iterate(mask, t, dil, 2, grid_exponent=3)


def test_probe_block_skips_zero_reads(plane, monkeypatch):
    """A wider gamma cover adds only gammas whose targets all lie off the
    grid box; _probe_block skips them, their blocks (b^{-1})_[t] included,
    so the fitted block and residual are the default cover's exactly."""
    t, dil = plane
    mask = _quadratic_bspline_2d(t)
    field = cascade_iterate(mask, t, dil, iterations=12,
                            grid_exponent=4).field
    v = _float_witness(max_accuracy(mask, t, dil, p_max=2))
    pts = sample_points(field, count=12)
    calls = []
    real_a = cascade_mod.build_A_s

    def counting_a(*args):
        calls.append(args)
        return real_a(*args)

    monkeypatch.setattr(cascade_mod, "build_A_s", counting_a)
    J = field.node_index(pts)
    default_cover = cascade_mod._gamma_cover(field, J)
    res_default, v_default, _ = _probe_block(
        field, cascade_mod._walk(field, J)[0], v, 2, pts, 1.0)
    n_default = len(calls)
    assert n_default > 0
    wide = [t.element(g, k) for g in range(t.order)
            for k in itertools.product(range(-6, 7), repeat=2)]
    assert set(default_cover) < set(wide)
    monkeypatch.setattr(cascade_mod, "_gamma_cover", lambda f, p: wide)
    res_wide, v_wide, _ = _probe_block(
        field, cascade_mod._walk(field, J)[0], v, 2, pts, 1.0)
    assert res_wide == res_default
    assert np.array_equal(v_wide[2], v_default[2])
    assert len(calls) == 2 * n_default


def test_probe_block_builds_one_block_per_point_part(monkeypatch):
    """_probe_block converts (b^{-1})_[s] once for each point part b that
    its reads hold, not once per gamma: the p4m hat spread over its 8
    point parts reads many more gammas than 8."""
    t = catalog_triple("p4m", 2)
    dil = check_admissible(Mat.from_rows([[2, 0], [0, 2]]), t)
    hat = {-1: 1, 0: 2, 1: 1}
    mask = Mask.scalar(t, {(g, (i, j)): Fraction(a * b, 32) for g in range(8)
                           for i, a in hat.items() for j, b in hat.items()})
    field = cascade_iterate(mask, t, dil, iterations=2,
                            grid_exponent=3).field
    pts = sample_points(field, count=6)
    reads = cascade_mod._walk(field, field.node_index(pts))[0]
    parts = {e.g for e, _, _ in reads}
    assert len(parts) == 8 < len(reads)
    calls = []
    real_a = cascade_mod.build_A_s

    def counting_a(m, s):
        calls.append(s)
        return real_a(m, s)

    monkeypatch.setattr(cascade_mod, "build_A_s", counting_a)
    _, v, C = _probe_block(field, reads, None, 0, pts, None)
    assert calls == [0] * 8
    _probe_block(field, reads, v, 1, pts, C)
    assert calls == [0] * 8 + [1] * 8


def test_cascade_refuses_a_grid_beyond_the_memory_budget(line, hat,
                                                         monkeypatch):
    t, dil = line
    # the hat (support box [-1, 1]) at spacing 2^-6: 2 * 64 + 1 nodes, one
    # point part reading its 65 even nodes, u on the 129 even nodes of the
    # box widened by 2 * 64 nodes for the shifts -1..1
    need = grid_bytes(1, 1, 1, 129, 129 + 1, 65, 8)
    monkeypatch.setattr(cascade_mod, "memory_budget", lambda: need - 1)
    with pytest.raises(CascadeError, match="memory"):
        cascade_iterate(hat, t, dil, iterations=2, grid_exponent=6)
    monkeypatch.setattr(cascade_mod, "memory_budget", lambda: need)
    data = cascade_iterate(hat, t, dil, iterations=2,
                           grid_exponent=6).field.data
    assert data.size == 129 and data.dtype == np.float64


def test_cascade_without_eigenvalue_one_diverges_visibly(line):
    """The p1 mask (8, 8) averages to T = 8: the flat seed grows eightfold
    per step, so the run reports non-convergence on a non-zero field (a
    float power iteration used to overflow here into a zero seed)."""
    t, dil = line
    res = cascade_iterate(Mask.scalar(t, {0: 8, 1: 8}), t, dil,
                          iterations=3, grid_exponent=4)
    assert not res.converged
    assert res.sup_diffs == (7.0, 56.0, 448.0)
    assert np.max(np.abs(res.field.data)) > 0


def test_diverging_cascade_claims_no_empirical_accuracy(line):
    """The same (8, 8) mask: without strict the estimate is None, not a
    level read off a diverging field; with strict it raises."""
    t, dil = line
    mask = Mask.scalar(t, {0: 8, 1: 8})
    assert empirical_accuracy(mask, t, dil, p_max=2, iterations=3,
                              grid_exponent=4, strict=False) is None
    with pytest.raises(CascadeError, match="converge"):
        empirical_accuracy(mask, t, dil, p_max=2, iterations=3,
                           grid_exponent=4)
    res = cascade_iterate(mask, t, dil, iterations=3, grid_exponent=4)
    assert empirical_level(res, iter(()), "ok") is None


def test_a_shrinking_field_claims_no_empirical_accuracy(line):
    """The p1 mask {0: 1/2, 1: 1/2}: the averaged coefficient sum has no
    eigenvalue 1, so the integral must vanish, and the iterate, the cell
    indicator halved at every step, converges to within the tolerance
    without vanishing identically.  The library claims no accuracy, as
    the CLI does, strict or not; a field that does vanish still reads
    0."""
    t, dil = line
    mask = Mask.scalar(t, {0: Fraction(1, 2), 1: Fraction(1, 2)})
    assert fhat0(mask, dil.m).status == "empty"
    for strict in (True, False):
        assert empirical_accuracy(mask, t, dil, p_max=3, iterations=21,
                                  grid_exponent=6, strict=strict) is None
    res = cascade_iterate(mask, t, dil, iterations=21, grid_exponent=6)
    assert res.converged and not res.field.degenerate()
    assert empirical_level(res, iter(()), "empty") is None
    assert empirical_level(res, iter(()), "ok") == 0
    zero = cascade_iterate(Mask.scalar(t, {0: 0}), t, dil, iterations=2,
                           grid_exponent=4)
    assert zero.field.degenerate()
    assert empirical_level(zero, iter(()), "empty") == 0


def test_cascade_refuses_an_overflowing_iterate(line):
    t, dil = line
    huge = Mask.scalar(t, {-1: 0.5, 0: 1e308, 1: 0.5})
    with pytest.raises(CascadeError, match="not finite"):
        with np.errstate(all="ignore"):
            cascade_iterate(huge, t, dil, iterations=4, grid_exponent=4)


def test_verify_degrees_tests_only_the_degrees_below_p_max(line, hat,
                                                          hat_field):
    """p_max = 0 yields nothing, with a witness or without; a p_max below
    the witness's accuracy tests only its degrees below p_max and fits no
    block."""
    t, dil = line
    cert = max_accuracy(hat, t, dil, p_max=3)
    assert cert.p == 2
    field = hat_field.field
    for witness in (cert.witness, None):
        assert list(cascade_mod.verify_degrees(field, witness, 0, 1e-5, 16,
                                               2026)) == []
    checks = list(cascade_mod.verify_degrees(field, cert.witness, 1, 1e-5,
                                             16, 2026))
    assert [c.s for c in checks] == [0]
    assert checks[0].report is not None and checks[0].verdict


# The oracle before its gamma cover was walked once: every degree walked
# the cover, recomputed the degree-0 sums and the closed forms, and the
# probe walked it again.  The reference for the one-walk oracle, which
# must give the same floats.

def _old_reproduction_values(field, v, s, points):
    J = field.node_index(points)
    out = np.zeros((len(J), dim_degree(field.d, s)), dtype=complex)
    excluded = np.zeros(len(J), dtype=bool)
    acted = _acted_rows(field.triple.inverses, [b.tolist() for b in v[:s + 1]])
    for e in cascade_mod._gamma_cover(field, J):
        moved = cascade_mod._translate(field, e, J)
        inside = cascade_mod._near(field, moved, 0)
        excluded |= ~inside & cascade_mod._near(field, moved, 1)
        if inside.any():
            terms = cascade_mod._y_terms(e, s, acted)
            out += field.read(moved) @ sum(terms[1:], terms[0]).T
    return out, excluded


def _old_reproduce(field, v, s, sample_points, tol):
    pts = np.asarray(sample_points, dtype=float).reshape(-1, field.d)
    g0, ex0 = _old_reproduction_values(field, v, 0, pts)
    if s == 0:
        gs, exs = g0, ex0
    else:
        gs, exs = _old_reproduction_values(field, v, s, pts)
    excluded = ex0 | exs
    keep = ~excluded
    if not keep.any():
        raise CascadeError("every sample point lost coverage")
    C = complex(np.mean(g0[keep, 0]))
    target = C * cascade_mod._monomial_matrix(pts[keep], s)
    residual = float(np.max(np.abs(gs[keep] - target)))
    det_r = abs(np.linalg.det(field.triple.R.np().real))
    integral = field._flat.sum(axis=0) * field.h ** field.d * det_r
    gate = complex(np.dot(v[0].ravel(), integral))
    vol = det_r / field.triple.order
    form_vg = vol / gate if abs(gate) > 1e-12 else complex("inf")
    form_gv = gate / vol
    matches = []
    for name, val in (("volume-over-gate", form_vg),
                      ("gate-over-volume", form_gv)):
        if abs(val - C) <= 1e-2 * max(1.0, abs(C)):
            matches.append(name)
    return cascade_mod.ReproductionReport(
        s=s, C=C, residual=residual,
        verdict=bool(residual < tol and (s > 0 or keep.sum() > 1)),
        excluded=int(excluded.sum()), gate_estimate=gate, cell_volume=vol,
        form_volume_over_gate=form_vg, form_gate_over_volume=form_gv,
        matched_form=" and ".join(matches) if matches else "neither")


def _old_probe_block(field, v, s, pts, C):
    d_s, r = dim_degree(field.d, s), field.r
    J = field.node_index(pts)
    n = len(J)
    base = np.zeros((n, d_s), dtype=complex)
    design = np.zeros((n, d_s, d_s * r), dtype=complex)
    acted = (_acted_rows(field.triple.inverses, [b.tolist() for b in v[:s]])
             if v is not None and s > 0 else None)
    for e in cascade_mod._gamma_cover(field, J):
        moved = cascade_mod._translate(field, e, J)
        if not cascade_mod._near(field, moved, 1).any():
            continue
        vals = field.read(moved)
        if acted is not None:
            terms = [vals @ y.T for y in cascade_mod._y_terms(e, s, acted)]
            base += sum(terms[1:], terms[0])
        q_ss = build_A_s(e.point_matrix_inverse(), s).np()
        design += np.einsum("ab,nc->nabc", q_ss, vals).reshape(n, d_s,
                                                               d_s * r)
    target = (np.ones((n, 1), dtype=complex) if C is None
              else C * cascade_mod._monomial_matrix(pts, s))
    lhs = design.reshape(n * d_s, d_s * r)
    sol, *_ = np.linalg.lstsq(lhs, (target - base).reshape(n * d_s),
                              rcond=None)
    fit = (design @ sol).reshape(n, d_s)
    residual = float(np.max(np.abs(base + fit - target)))
    block = sol.reshape(d_s, r)
    if v is None:
        return residual, (block,), complex(1.0)
    return residual, v + (block,), C


def _old_verify_degrees(field, witness, p_max, tolerance, sample_count,
                        seed_):
    pts = sample_points(field, sample_count, seed_)
    v = (tuple(b.np() for b in witness.blocks) if witness is not None
         else None)
    C = None
    for s in range(p_max):
        if v is not None and s < len(v):
            rep = _old_reproduce(field, v, s, pts, tolerance)
            if s == 0:
                C = rep.C
            yield cascade_mod.DegreeCheck(s, rep.residual, rep.verdict, rep)
        else:
            residual, v, C = _old_probe_block(field, v, s, pts, C)
            yield cascade_mod.DegreeCheck(
                s, residual, residual < tolerance and len(pts) > field.r,
                None)


@pytest.fixture(scope="module")
def oracle_cases(line, p1m, pm):
    """(field, certificate) of four masks of accuracy 2 built on the
    factor c = (2, 5, 4, 1) / 6 = (1 + z)^2 (2 + z) / 6, whose thirds make
    the sums round: c on p1, c split over p1m, c times the hat spread over
    pm, and the p1m mask lifted to r = 2."""
    c = {k: Fraction(n, 6) for k, n in enumerate((2, 5, 4, 1))}
    tent = {-1: Fraction(1, 2), 0: Fraction(1), 1: Fraction(1, 2)}
    t1, dil1 = p1m
    split = Mask.scalar(t1, {(g, (k,)): a / 2 for g in (0, 1)
                             for k, a in c.items()})
    lifted = lift_scalar_to_matrix(split, dil1)
    lat_dil = check_admissible(Mat.from_rows([[2]]), lifted.triple)
    tp, dilp = pm
    spread = Mask.scalar(tp, {(g, (i, j)): a * b / 2 for g in (0, 1)
                              for i, a in c.items() for j, b in tent.items()})
    cases = []
    for mask, t, dil, q in ((Mask.scalar(line[0], c), *line, 6),
                            (split, t1, dil1, 6), (spread, tp, dilp, 4),
                            (lifted, lifted.triple, lat_dil, 6)):
        field = cascade_iterate(mask, t, dil, 12, grid_exponent=q).field
        cases.append((field, max_accuracy(mask, t, dil, p_max=4)))
    assert [cert.p for _, cert in cases] == [2, 2, 2, 2]
    assert [f.r for f, _ in cases] == [1, 1, 1, 2]
    return cases


@seed(2026)
@settings(max_examples=40, deadline=None)
@given(case=st.integers(0, 3), offset=st.integers(-2, 2),
       with_witness=st.booleans(), count=st.integers(1, 24),
       sample_seed=st.integers(0, 2 ** 16))
def test_one_walk_oracle_matches_the_per_degree_oracle(
        oracle_cases, case, offset, with_witness, count, sample_seed):
    """The oracle that walks its sample's gamma cover once gives every
    report field, residual and verdict of the per-degree oracle, floats
    equal, with p_max below, at and above the witness's accuracy and with
    no witness; the first fitted block and its residual are equal too."""
    field, cert = oracle_cases[case]
    witness = cert.witness if with_witness else None
    p_max = cert.p + offset
    args = (field, witness, p_max, 1e-5, count, sample_seed)
    new = list(cascade_mod.verify_degrees(*args))
    old = list(_old_verify_degrees(*args))
    assert len(new) == len(old) == max(p_max, 0)
    for a, b in zip(new, old):
        assert (a.s, a.residual, a.verdict) == (b.s, b.residual, b.verdict)
        assert a.report == b.report
    pts = sample_points(field, count, sample_seed)
    v = _float_witness(cert) if with_witness else None
    C = _old_reproduce(field, v, 0, pts, 1e-5).C if with_witness else None
    s = len(v) if v is not None else 0
    reads, _ = cascade_mod._walk(field, field.node_index(pts))
    got, want = (_probe_block(field, reads, v, s, pts, C),
                 _old_probe_block(field, v, s, pts, C))
    assert got[0] == want[0] and got[2] == want[2]
    assert np.array_equal(got[1][s], want[1][s])


# -- the certified box on ints against the Fraction box it replaced ---------

def _fraction_box(parts, dilation, h):
    """_certified_box as it stepped on Fractions: each part's map
    M^{-1} G_g and its box of shifts in rationals, the n-step maps
    composed in rationals and every box snapped to multiples of h."""
    t, m = dilation.triple, dilation.m
    adj = [[int(x * m) for x in row] for row in dilation.M_inv.plain()]
    step = {}
    for g, elements in parts.items():
        scaled = [[sum(a * b for a, b in zip(row, col))
                   for col in zip(*t.int_reps[g])] for row in adj]
        key = tuple(tuple(Fraction(x, m) for x in row) for row in scaled)
        step[key] = [(Fraction(min(v), m), Fraction(max(v), m))
                     for v in ([sum(a * b for a, b in zip(row, k))
                                for k, _ in elements] for row in scaled)]

    def image(lin, shifts, box):
        out = []
        for row, (lo, hi) in zip(lin, shifts):
            for a, (l, u) in zip(row, box):
                lo += min(a * l, a * u)
                hi += max(a * l, a * u)
            out.append((lo, hi))
        return out

    def hull(boxes):
        return [(min(lo for lo, _ in axis), max(hi for _, hi in axis))
                for axis in zip(*boxes)]

    def snap(box):
        return [(math.floor(lo / h) * h, math.ceil(hi / h) * h)
                for lo, hi in box]

    def map_box(maps, box):
        return hull([unit] + [image(lin, shifts, box)
                              for lin, shifts in maps.items()])

    def compose(outer, inner):
        out = {}
        for l1, c1 in outer.items():
            for l2, c2 in inner.items():
                lin = tuple(tuple(sum(a * b for a, b in zip(row, col))
                                  for col in zip(*l2)) for row in l1)
                shifts = image(l1, c1, c2)
                out[lin] = hull([out[lin], shifts]) if lin in out else shifts
        return out

    unit = [(Fraction(0), Fraction(1))] * t.d
    maps = step
    for n in range(1, cascade_mod.MAX_BOX_STEPS + 1):
        box = snap(unit)
        for _ in range(cascade_mod.MAX_BOX_STEPS):
            new = map_box(maps, box)
            if all(lo <= a and b <= hi
                   for (lo, hi), (a, b) in zip(box, new)):
                boxes = [box]
                for _ in range(n - 1):
                    boxes.append(map_box(step, boxes[-1]))
                return snap(hull(boxes))
            box = snap(hull([box, new]))
        maps = compose(step, maps)
    raise CascadeError("no box")


# m = 3 on Z^2: no box is certified before n = 3
SLOW_BOX = [[-3, -3], [1, 0]]
BOX_CASES = ([(name, 1, [[2]]) for name in catalog_names(1)]
             + [(name, 2, [[2, 0], [0, 2]]) for name in catalog_names(2)]
             + [("p1", 2, QUINCUNX), ("p4m", 2, QUINCUNX),
                ("p4", 2, ROTATION), ("sheared", 2, [[2, 0], [0, 2]]),
                ("p1", 2, SLOW_BOX)])


@seed(2026)
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(BOX_CASES), st.randoms(use_true_random=False))
def test_int_box_matches_the_fraction_box(case, rnd):
    """The support box stepped on ints equals the one stepped on
    Fractions, corner for corner and as Fractions, on every catalog
    triple under 2I, under the quincunx and rotation dilations (n = 2),
    on pm over a sheared lattice, and on Z^2 under [[-3, -3], [1, 0]]
    (n = 3), for drawn supports and for dyadic and non-dyadic spacings
    h."""
    name, d, a = case
    if name == "sheared":
        t = validate_triple(Mat.from_rows([[1, Fraction(1, 2)], [0, 1]]),
                            catalog_triple("pm", 2).group)
    else:
        t = catalog_triple(name, d)
    dil = check_admissible(Mat.from_rows(a), t)
    entries = {(rnd.randrange(t.order),
                tuple(rnd.randint(-4, 4) for _ in range(d))): 1
               for _ in range(rnd.randint(1, 6))}
    parts = cascade_mod._point_parts(Mask.scalar(t, entries))
    h = rnd.choice([Fraction(1, 2 ** rnd.randint(0, 6)), Fraction(1, 3),
                    Fraction(2, 3), Fraction(3, 2)])
    box = cascade_mod._certified_box(parts, dil, h)
    assert box == _fraction_box(parts, dil, h)
    assert all(isinstance(x, Fraction) for corners in box for x in corners)
