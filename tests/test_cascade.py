"""Cascade oracle: grid iteration, reproduction sums, empirical accuracy."""

import math
from fractions import Fraction

import numpy as np
import pytest

from crystacc.accuracy import max_accuracy
import crystacc.cascade as cascade_mod
from crystacc.cascade import (CascadeError, cascade_iterate, empirical_accuracy,
                              estimate_fhat0, estimate_support, grid_bytes,
                              refinement_residual, reproduce,
                              reproduction_values, sample_points)
from crystacc.crystal import catalog_triple, check_admissible
from crystacc.linalg import Mat
from crystacc.mask import Mask, lift_scalar_to_matrix


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


def test_support_radius_estimates(line, haar, hat, bspline4):
    _, dil = line
    assert abs(estimate_support(haar, dil) - 2.0) < 1e-6
    assert abs(estimate_support(hat, dil) - 2.0) < 1e-6
    assert abs(estimate_support(bspline4, dil) - 4.0) < 1e-6


def test_haar_seed_is_already_fixed(haar_field):
    """The unit-box indicator is the exact fixed point of the Haar mask,
    so every sup difference vanishes from the first step."""
    assert haar_field.converged
    assert all(d == 0.0 for d in haar_field.sup_diffs)
    f = haar_field.field
    assert abs(f.sample([[0.5]])[0, 0] - 1.0) < 1e-12
    assert abs(f.sample([[-0.5]])[0, 0]) < 1e-12


def test_hat_cascade_reaches_exact_fixed_point(hat_field):
    assert hat_field.converged
    assert hat_field.sup_diffs[-1] <= 1e-12
    # differences halve until the iterate lands exactly on the hat
    assert hat_field.sup_diffs[0] > hat_field.sup_diffs[4]
    f = hat_field.field
    ax = f.axes()[0]
    expected = np.maximum(0.0, 1.0 - np.abs(ax))
    assert float(np.max(np.abs(f.data[:, 0] - expected))) < 1e-9


def test_grid_geometry(line, hat):
    t, dil = line
    res = cascade_iterate(hat, t, dil, iterations=1, grid_exponent=4)
    f = res.field
    assert f.h == 2.0 ** -4
    assert f.shape == (65,)
    assert f.lo[0] == -2.0 and f.hi[0] == 2.0
    assert f.support_radius == 2.0


def test_sample_zero_outside_box(hat_field):
    f = hat_field.field
    assert f.sample([[10.0]])[0, 0] == 0.0
    assert f.sample([[-3.0]])[0, 0] == 0.0


def test_sample_is_node_exact(hat_field):
    f = hat_field.field
    ax = f.axes()[0]
    vals = f.sample(ax.reshape(-1, 1))
    assert float(np.max(np.abs(vals[:, 0] - f.data[:, 0]))) < 1e-14


def test_cascade_input_checks(line, pm, hat):
    t, dil = line
    with pytest.raises(ValueError):
        cascade_iterate(hat, t, dil, iterations=0)
    with pytest.raises(ValueError):
        cascade_iterate(hat, t, dil, iterations=2, spacing=-0.5)
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


def test_sample_points_margin_guard(line, hat):
    t, dil = line
    res = cascade_iterate(hat, t, dil, iterations=1, spacing=0.5)
    with pytest.raises(CascadeError):
        sample_points(res.field)


def test_reproduction_marks_truncated_points(line, hat):
    t, dil = line
    res = cascade_iterate(hat, t, dil, iterations=8, grid_exponent=4)
    cert = max_accuracy(hat, t, dil, p_max=2)
    # 0.03125 + 2 lands just beyond the box edge but within reach of the
    # support ball, so its sum is flagged; 0.5 is fully covered
    vals, excluded = reproduction_values(res.field, cert.witness, 0,
                                         [[0.03125], [0.5]])
    assert excluded.tolist() == [True, False]
    assert abs(vals[1, 0] - 1.0) < 1e-6


def test_reproduce_haar_partition_of_unity(line, haar, haar_field):
    t, dil = line
    cert = max_accuracy(haar, t, dil, p_max=1)
    pts = sample_points(haar_field.field, count=16)
    rep = reproduce(haar_field.field, cert.witness, 0, pts)
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
        rep = reproduce(hat_field.field, cert.witness, s, pts)
        assert rep.verdict
        assert rep.residual < 1e-12
        assert abs(rep.C - 1.0) < 1e-9


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
    level = empirical_accuracy(ones3, t, dil, p_max=2, iterations=8,
                               grid_exponent=5, strict=False)
    assert level == 0


def test_estimate_fhat0_directions(line, hat, p1m, sym_hat):
    t, dil = line
    v = estimate_fhat0(hat, t, dil)
    assert abs(v.entry(0, 0) - 1.0) < 1e-6
    _, dil1 = p1m
    lifted = lift_scalar_to_matrix(sym_hat, dil1)
    lat = lifted.triple
    lat_dil = check_admissible(Mat.from_rows([[2]]), lat)
    w = estimate_fhat0(lifted, lat, lat_dil)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    assert abs(w.entry(0, 0) - inv_sqrt2) < 1e-6
    assert abs(w.entry(1, 0) - inv_sqrt2) < 1e-6


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
    rep = reproduce(res.field, cert.witness, 0, pts)
    assert rep.verdict
    assert abs(rep.C - math.sqrt(2.0)) < 1e-3
    assert rep.matched_form == "gate-over-volume"
    assert empirical_accuracy(lifted, lat, lat_dil, p_max=3,
                              grid_exponent=6) == 2


def test_dilation_covariance_of_reproduction_sums(line, hat, hat_field):
    """G_[s](A x) = A_[s] G_[s](x) wherever both sides are fully covered."""
    t, dil = line
    cert = max_accuracy(hat, t, dil, p_max=2)
    f = hat_field.field
    pts = sample_points(f, count=12)
    for s in (0, 1):
        left, ex1 = reproduction_values(f, cert.witness, s, 2.0 * pts)
        right, ex2 = reproduction_values(f, cert.witness, s, pts)
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
    """Nodes, live iterates and one plan per mask element, per node; the
    2D tensor quadratic B-spline (16 elements, radius 8.49) at the default
    spacing 2^-8 has 4349^2 nodes and about 19.4 GB of plans."""
    assert grid_bytes(1, 1, 3, 10) == 10 * (8 + 64 + 3 * 2 * 16)
    assert grid_bytes(2, 3, 5, 7) == 7 * (16 + 3 * 64 + 5 * 4 * 16)
    n = 4349 ** 2
    plans = 16 * 4 * 16 * n
    assert 19.3e9 < plans < 19.5e9
    assert grid_bytes(2, 1, 16, n) == plans + n * (16 + 64)


def test_cascade_refuses_a_grid_beyond_the_memory_budget(line, hat,
                                                         monkeypatch):
    t, dil = line
    # the hat (support radius 2) at spacing 2^-6: 2 * 128 + 1 nodes
    need = grid_bytes(1, 1, 3, 257)
    monkeypatch.setattr(cascade_mod, "memory_budget", lambda: need - 1)
    with pytest.raises(CascadeError, match="memory"):
        cascade_iterate(hat, t, dil, iterations=2, grid_exponent=6)
    monkeypatch.setattr(cascade_mod, "memory_budget", lambda: need)
    assert cascade_iterate(hat, t, dil, iterations=2,
                           grid_exponent=6).field.data.size == 257


def test_cascade_refuses_an_overflowing_iterate(line):
    t, dil = line
    huge = Mask.scalar(t, {-1: 0.5, 0: 1e308, 1: 0.5})
    with pytest.raises(CascadeError, match="not finite"):
        with np.errstate(all="ignore"):
            cascade_iterate(huge, t, dil, iterations=4, grid_exponent=4)
