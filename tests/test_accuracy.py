"""Accuracy solvers: exact kernels, sum rules, and cross-verification."""

from fractions import Fraction

import pytest

from crystacc.accuracy import (condition_d_residual, fhat0, max_accuracy,
                               sufficient_check, verify_equivalence)
from crystacc.crystal import check_admissible
from crystacc.linalg import Mat, QC
from crystacc.mask import Mask, MaskShapeError, lift_scalar_to_matrix
from crystacc.multiidx import VCollection


def _witness_entries(cert):
    """Flatten a 1D multiplicity-1 witness into a tuple of QC entries."""
    return tuple(cert.witness.block(s).entry(0, 0)
                 for s in range(cert.witness.p))


def test_fhat0_haar(line, haar):
    _, dil = line
    res = fhat0(haar, dil.m)
    assert res.status == "ok"
    assert res.dimension == 1
    assert not res.vector.entry(0, 0).is_zero()


def test_fhat0_empty_for_unnormalized_sum(line, ones3):
    _, dil = line
    res = fhat0(ones3, dil.m)
    assert res.status == "empty"
    assert res.vector is None
    assert res.dimension == 0


def test_fhat0_of_lifted_mask_is_constant_vector(p1m, sym_hat):
    _, dil = p1m
    lifted = lift_scalar_to_matrix(sym_hat, dil)
    res = fhat0(lifted, dil.m)
    assert res.status == "ok"
    v = res.vector
    assert v.entry(0, 0) == v.entry(1, 0)
    assert not v.entry(0, 0).is_zero()


def test_haar_accuracy_one(line, haar):
    t, dil = line
    cert = max_accuracy(haar, t, dil, p_max=2)
    assert cert.p == 1
    assert _witness_entries(cert) == (QC(1),)
    assert cert.gate == QC(1)
    assert cert.diagnostics["kernel_dims"] == {0: 1, 1: 0}
    assert cert.diagnostics["first_failing_degree"] == 1


def test_hat_accuracy_two(line, hat):
    t, dil = line
    cert = max_accuracy(hat, t, dil, p_max=3)
    assert cert.p == 2
    assert _witness_entries(cert) == (QC(1), QC(0))
    assert cert.gate == QC(1)
    assert cert.diagnostics["kernel_dims"] == {0: 1, 1: 1, 2: 0}
    assert cert.diagnostics["first_failing_degree"] == 2


def test_bspline4_accuracy_four(line, bspline4):
    t, dil = line
    cert = max_accuracy(bspline4, t, dil, p_max=5)
    assert cert.p == 4
    assert _witness_entries(cert) == (QC(1), QC(0), QC(Fraction(-1, 3)),
                                      QC(0))
    assert cert.gate == QC(1)
    assert cert.diagnostics["kernel_dims"] == {0: 1, 1: 1, 2: 1, 3: 1, 4: 0}


def test_unnormalized_mask_has_accuracy_zero(line, ones3):
    t, dil = line
    cert = max_accuracy(ones3, t, dil, p_max=3)
    assert cert.p == 0
    assert cert.witness is None
    assert cert.gate is None
    assert cert.diagnostics["fhat0_status"] == "empty"
    assert cert.diagnostics["kernel_dims"] == {}
    assert cert.diagnostics["first_failing_degree"] == 0


def test_point_symmetric_hat_accuracy(p1m, sym_hat):
    t, dil = p1m
    cert = max_accuracy(sym_hat, t, dil, p_max=3)
    assert cert.p == 2
    assert _witness_entries(cert) == (QC(1), QC(0))


def test_lifted_mask_accuracy_matches_scalar(p1m, sym_hat):
    _, dil = p1m
    lifted = lift_scalar_to_matrix(sym_hat, dil)
    lat = lifted.triple
    lat_dil = check_admissible(Mat.from_rows([[2]]), lat)
    cert = max_accuracy(lifted, lat, lat_dil, p_max=3)
    assert cert.p == 2
    w = cert.witness
    assert [w.block(0).entry(0, j) for j in range(2)] == [QC(1), QC(1)]
    assert [w.block(1).entry(0, j) for j in range(2)] == [QC(0), QC(0)]


def test_accuracy_monotone_in_search_bound(line, hat):
    t, dil = line
    assert max_accuracy(hat, t, dil, p_max=1).p == 1
    assert max_accuracy(hat, t, dil, p_max=2).p == 2
    assert max_accuracy(hat, t, dil, p_max=4).p == 2


def test_max_accuracy_input_checks(line, pm, hat):
    t, dil = line
    with pytest.raises(ValueError):
        max_accuracy(hat, t, dil, p_max=0)
    u, dil_u = pm
    with pytest.raises(ValueError):
        max_accuracy(hat, u, dil_u, p_max=2)
    with pytest.raises(ValueError):
        max_accuracy(hat, t, dil_u, p_max=2)


def test_independent_flag_changes_direction_label(line, hat):
    t, dil = line
    weak = max_accuracy(hat, t, dil, p_max=2)
    strong = max_accuracy(hat, t, dil, p_max=2, independent=True)
    assert weak.diagnostics["direction"] == "sufficient direction"
    assert strong.diagnostics["direction"] == "maximal (independent translates)"
    assert weak.p == strong.p


def test_witness_satisfies_per_coset_conditions(line, bspline4):
    t, dil = line
    cert = max_accuracy(bspline4, t, dil, p_max=4)
    for s in range(cert.p):
        for i in range(dil.m):
            assert condition_d_residual(bspline4, dil, cert.witness,
                                        s, i).is_zero()


def test_scaled_witness_still_in_kernel(line, hat):
    """The constraint system is homogeneous, so any rescaling of a witness
    remains a witness."""
    t, dil = line
    cert = max_accuracy(hat, t, dil, p_max=2)
    scaled = cert.witness.scale(QC(Fraction(7, 3)))
    for s in range(cert.p):
        for i in range(dil.m):
            assert condition_d_residual(hat, dil, scaled, s, i).is_zero()


def test_corrupted_witness_has_nonzero_residual(line, hat):
    t, dil = line
    bad = VCollection(1, (Mat.from_rows([[QC(1)]]),
                          Mat.from_rows([[QC(1)]])))
    nonzero = any(
        not condition_d_residual(hat, dil, bad, s, i).is_zero()
        for s in range(2) for i in range(dil.m))
    assert nonzero


def test_sufficient_check_hat(line, hat):
    t, dil = line
    rep = sufficient_check(hat, t, dil, p=2)
    assert rep.passed
    assert rep.sum_total == QC(2)
    assert rep.sum_rule_ok and rep.moments_ok and rep.eigen_ok
    assert rep.beta0_consistent
    assert rep.eigen_flags == {1: True}
    assert rep.beta[(0, (0,))] == QC(1)
    assert rep.beta[(0, (1,))] == QC(0)
    assert rep.chain_residual_zero is True
    chain = tuple(rep.v_chain.block(s).entry(0, 0) for s in range(2))
    assert chain == (QC(1), QC(0))


def test_sufficient_chain_matches_solver_witness(line, bspline4):
    t, dil = line
    rep = sufficient_check(bspline4, t, dil, p=4)
    cert = max_accuracy(bspline4, t, dil, p_max=4)
    assert rep.passed
    assert rep.eigen_flags == {1: True, 2: True, 3: True}
    assert rep.beta[(0, (2,))] == QC(1)
    assert rep.beta[(0, (3,))] == QC(0)
    for s in range(4):
        assert rep.v_chain.block(s) == cert.witness.block(s)


def test_sufficient_check_fails_beyond_true_accuracy(line, hat):
    t, dil = line
    rep = sufficient_check(hat, t, dil, p=3)
    assert not rep.passed
    assert not rep.moments_ok
    assert rep.v_chain is None


def test_sufficient_check_unnormalized_mask(line, ones3):
    t, dil = line
    rep = sufficient_check(ones3, t, dil, p=1)
    assert not rep.passed
    assert rep.sum_total == QC(3)
    assert not rep.sum_rule_ok
    assert not rep.moments_ok


def test_sufficient_check_point_symmetric_hat(p1m, sym_hat):
    t, dil = p1m
    rep = sufficient_check(sym_hat, t, dil, p=2)
    assert rep.passed
    half = QC(Fraction(1, 2))
    assert rep.beta[(0, (0,))] == half
    assert rep.beta[(1, (0,))] == half
    assert rep.beta[(0, (1,))] == QC(0)
    assert rep.beta[(1, (1,))] == QC(0)
    assert rep.eigen_flags == {1: True}
    chain = tuple(rep.v_chain.block(s).entry(0, 0) for s in range(2))
    assert chain == (QC(1), QC(0))


def test_sufficient_check_rejects_matrix_masks(p1m, sym_hat):
    _, dil = p1m
    lifted = lift_scalar_to_matrix(sym_hat, dil)
    lat = lifted.triple
    lat_dil = check_admissible(Mat.from_rows([[2]]), lat)
    with pytest.raises(MaskShapeError):
        sufficient_check(lifted, lat, lat_dil, p=1)


def test_sufficient_check_input_validation(line, hat):
    t, dil = line
    with pytest.raises(ValueError):
        sufficient_check(hat, t, dil, p=0)


def test_verify_equivalence_exact_zeros(line, hat):
    t, dil = line
    cert = max_accuracy(hat, t, dil, p_max=2)
    sample = [t.translation((k,)) for k in range(-5, 6)]
    rep = verify_equivalence(hat, dil, cert.witness, sample)
    assert rep.passed
    assert rep.max_residual_d == 0
    assert rep.max_residual_b == 0
    assert rep.max_residual_c == 0
    assert all(val == 0 for val in rep.details.values())


def test_verify_equivalence_flags_bad_witness(line, hat):
    t, dil = line
    bad = VCollection(1, (Mat.from_rows([[QC(1)]]),
                          Mat.from_rows([[QC(1)]])))
    sample = [t.translation((k,)) for k in range(-3, 4)]
    rep = verify_equivalence(hat, dil, bad, sample)
    assert not rep.passed
    assert max(rep.max_residual_d, rep.max_residual_b,
               rep.max_residual_c) > 0


def test_float_backend_solver_agrees_with_exact(line, hat):
    t, dil = line
    cert = max_accuracy(hat.to_float(), t, dil, p_max=3)
    assert cert.p == 2
    w0 = cert.witness.block(0).entry(0, 0)
    assert abs(w0 - 1.0) < 1e-9


def test_float_copy_reaches_the_exact_verdicts(line, bspline4):
    t, dil = line
    exact = max_accuracy(bspline4, t, dil, p_max=6)
    assert exact.p == 4
    assert exact.witness.backend == "exact"
    assert isinstance(exact.gate, QC)
    fmask = bspline4.to_float()
    cert = max_accuracy(fmask, t, dil, p_max=6)
    assert cert.p == exact.p
    assert cert.witness.backend == "float"
    for p in (4, 5):
        want = sufficient_check(bspline4, t, dil, p)
        got = sufficient_check(fmask, t, dil, p)
        assert got.passed == want.passed == (p == 4)
    assert sufficient_check(bspline4, t, dil, 4).v_chain.backend == "exact"
    sample = [t.translation((k,)) for k in range(-3, 4)]
    # the exact witness against the float mask mixes backends
    for mask, v in ((bspline4, exact.witness), (fmask, cert.witness),
                    (fmask, exact.witness)):
        assert verify_equivalence(mask, dil, v, sample).passed


def test_float_mask_with_a_rounding_size_row_keeps_its_accuracy(line):
    """The float copy of (1/6, 1/2, 2/3, 1/2, 1/6) has a degree-0 system
    row of size ~1e-16; counted as a zero row, not scaled to unit norm, it
    leaves the float solver at the exact accuracy 2."""
    t, dil = line
    coefs = [Fraction(1, 6), Fraction(1, 2), Fraction(2, 3), Fraction(1, 2),
             Fraction(1, 6)]
    exact = Mask.scalar(t, dict(enumerate(coefs)))
    floats = Mask.scalar(t, {k: float(c) for k, c in enumerate(coefs)})
    assert floats.backend == "float"
    for mask in (exact, floats):
        assert max_accuracy(mask, t, dil, p_max=4).p == 2
