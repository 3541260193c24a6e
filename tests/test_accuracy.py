"""Accuracy solvers: exact kernels, sum rules, and cross-verification."""

from fractions import Fraction
from functools import cache
from math import gcd, lcm
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

import crystacc.accuracy as accuracy_mod
import crystacc.multiidx as multiidx_mod
from crystacc.accuracy import (condition_d_residuals, fhat0, max_accuracy,
                               sufficient_check, verify_equivalence)
from crystacc.crystal import (Dilation, apply_element, catalog_triple,
                              check_admissible, validate_triple)
from crystacc.linalg import (Mat, QC, _rref, det, kernel_basis, rank,
                             solve_affine)
from crystacc.mask import Mask, MaskShapeError, lift_scalar_to_matrix
from crystacc.multiidx import (VCollection, build_A_s, build_Q_tilde,
                               dim_degree)

from conftest import (_common_denominator, _condition_d_reference,
                      _fraction_moments, _leibniz_det, _reference_block_row,
                      _reference_scan, _reference_sums, _sum_rule_reference,
                      assert_stored_face, coset_differences,
                      positive_multiple, qc_face, stored_report)


def _witness_entries(cert):
    """Flatten a 1D multiplicity-1 witness into a tuple of its entries."""
    return tuple(cert.witness.block(s).entry(0, 0)
                 for s in range(cert.witness.p))


def test_fhat0_haar(line, haar):
    _, dil = line
    res = fhat0(haar, dil.m)
    assert res.status == "ok"
    assert res.dimension == 1
    assert res.vector.entry(0, 0) != 0


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
    assert v.entry(0, 0) != 0


def _diagonal_mask(t, components):
    """p1 matrix mask whose i-th diagonal entry at k is components[i][k]
    (zero elsewhere): r uncoupled scalar masks."""
    r = len(components)
    blocks = {}
    for k in sorted({k for c in components for k in c}):
        blocks[t.translation((k,))] = [
            [components[i].get(k, 0) if i == j else 0 for j in range(r)]
            for i in range(r)]
    return Mask(t, blocks)


def _mask_of_sum(t, m, t_op):
    """p1 mask with one block, m * T at k = 0, so its averaged coefficient
    sum (1/m) sum d_gamma is T."""
    return Mask(t, {t.translation((0,)): t_op.scale(m)})


BOX = {0: 1, 1: 1}
HAT = {-1: Fraction(1, 2), 0: 1, 1: Fraction(1, 2)}


def test_uncoupled_box_and_hat_decide_the_gate_exactly(line):
    """T = I: the eigenspace is everything, the projection of the ones
    vector is itself, and the hat component carries accuracy 2 with an
    exact gate."""
    t, dil = line
    mask = _diagonal_mask(t, [BOX, HAT])
    res = fhat0(mask, dil.m)
    assert res.status == "indeterminate" and res.dimension == 2
    assert res.vector == Mat.column([1, 1])
    cert = max_accuracy(mask, t, dil, p_max=3)
    assert cert.p == 2
    assert type(cert.gate) is int and cert.gate == 1
    assert "gate_estimate" not in cert.diagnostics
    assert cert.diagnostics["fhat0_status"] == "indeterminate"


def test_growing_component_leaves_the_gate_on_the_eigenspace(line):
    """T = diag(1, 1, 3): the float power iteration diverged here and read
    accuracy 0; the exact projection (1, 1, 0) keeps the box and the hat."""
    t, dil = line
    mask = _diagonal_mask(t, [BOX, HAT, {0: 3, 1: 3}])
    res = fhat0(mask, dil.m)
    assert res.status == "indeterminate"
    assert res.vector == Mat.column([1, 1, 0])
    cert = max_accuracy(mask, t, dil, p_max=3)
    assert cert.p >= 1
    assert cert.gate != 0


def test_defective_eigenvalue_one_has_no_gate(line):
    """T = I (+) J_2: ker(T - I) has dimension 2, but 1 is not semisimple,
    so no projection exists and the accuracy is 0."""
    t, dil = line
    t_op = Mat.from_rows([[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    mask = _mask_of_sum(t, dil.m, t_op)
    res = fhat0(mask, dil.m)
    assert res.status == "defective"
    assert res.vector is None and res.dimension == 2
    cert = max_accuracy(mask, t, dil, p_max=2)
    assert cert.p == 0 and cert.witness is None and cert.gate is None
    assert cert.diagnostics["first_failing_degree"] == 0
    assert cert.diagnostics["kernel_dims"] == {}
    assert "defective" in cert.diagnostics["note"]


def _power_reference(t_op: np.ndarray, steps: int = 200) -> np.ndarray:
    """Float power iteration of T from the all-ones vector: the integral
    the cascade seeded with the flat vector tends to."""
    u = np.ones(t_op.shape[0], dtype=complex)
    for _ in range(steps):
        u = t_op @ u
    return u


@seed(2026)
@settings(max_examples=40, deadline=None)
@given(st.integers(3, 4), st.data())
def test_exact_gate_vector_matches_power_iteration(line, r, data):
    """T = S diag(1, 1, lambda...) S^{-1} with rational |lambda| < 1: the
    exact projection has the direction of the float power limit."""
    t, dil = line
    s_rows = [[data.draw(st.integers(-2, 2)) for _ in range(r)]
              for _ in range(r)]
    s_mat = Mat.from_rows(s_rows)
    assume(det(s_mat) != 0)
    lams = [data.draw(st.integers(-3, 3)) for _ in range(r - 2)]
    diag = Mat.from_rows([[(1 if i < 2 else Fraction(lams[i - 2], 4))
                           if i == j else 0 for j in range(r)]
                          for i in range(r)])
    t_op = s_mat @ diag @ s_mat.inverse()
    res = fhat0(_mask_of_sum(t, dil.m, t_op), dil.m)
    assert res.status == "indeterminate" and res.dimension == 2
    assert (t_op @ res.vector) == res.vector
    ref = _power_reference(t_op.np())
    exact = res.vector.np().ravel()
    if res.vector.is_zero():
        assert np.linalg.norm(ref) < 1e-9
        return
    np.testing.assert_allclose(ref / np.linalg.norm(ref),
                               exact / np.linalg.norm(exact), atol=1e-9)


# -- fhat0 on the plain view against the dense QC sum it replaced -----------

def _fhat0_reference(mask, m):
    """(vector, status, dimension) of fhat0 as it was before the mask's
    plain view: T = (1/m) sum d_gamma formed by adding the blocks as
    dense QC Mats, and the kernels read off T - I itself."""
    total = None
    for _, blk in mask.items():
        total = blk if total is None else total + blk
    n_op = total.scale(Fraction(1, m)) - Mat.identity(mask.r)
    basis = kernel_basis(n_op)
    if not basis:
        return None, "empty", 0
    if len(basis) == 1:
        return basis[0], "ok", 1
    k = Mat.hstack(basis)
    w = Mat.hstack(kernel_basis(n_op.transpose())).transpose()
    wk = w @ k
    if det(wk) == 0:
        return None, "defective", len(basis)
    ones = Mat.column([1] * mask.r)
    return k @ wk.inverse() @ (w @ ones), "indeterminate", len(basis)


def _same_fhat0(mask, m):
    res = fhat0(mask, m)
    assert (res.vector, res.status, res.dimension) == \
        _fhat0_reference(mask, m)
    return res


# number of eigenvalues 1 of T for each status; "defective" joins the
# last two of its three in a Jordan block, so ker(T - I) has dimension 2
ONES_OF_STATUS = {"ok": 1, "empty": 0, "indeterminate": 2, "defective": 3}


@seed(2026)
@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(ONES_OF_STATUS)),
       st.sampled_from(["real", "complex", "float"]), st.integers(2, 4),
       st.data())
def test_fhat0_matches_the_dense_sum_on_every_status(line, status, kind, r,
                                                     data):
    """T = S J S^{-1}, J holding 0, 1, 2 or 3 eigenvalues 1 (1 (+) J_2(1)
    for "defective") and other eigenvalues in (-1, 1), S drawn with
    small integer entries, complex ones for "complex": the vector, status
    and dimension of fhat0 equal the dense QC sum's exactly, on the
    exact mask (whose status is the designed one) and on its float
    copy read back."""
    t, dil = line
    ones = ONES_OF_STATUS[status]
    assume(ones <= r)
    part = st.integers(-2, 2)
    s_rows = [[QC(data.draw(part), data.draw(part) if kind == "complex"
                  else 0) for _ in range(r)] for _ in range(r)]
    s_mat = Mat.from_rows(s_rows)
    assume(det(s_mat) != 0)
    lams = [data.draw(st.fractions(Fraction(-3, 4), Fraction(3, 4),
                                   max_denominator=4))
            for _ in range(r - ones)]
    j_rows = [[(1 if i < ones else lams[i - ones]) if i == c else 0
               for c in range(r)] for i in range(r)]
    if status == "defective":
        j_rows[1][2] = 1
    t_op = s_mat @ Mat.from_rows(j_rows) @ s_mat.inverse()
    mask = _mask_of_sum(t, dil.m, t_op)
    if kind == "float":
        mask = mask.to_float()
    res = _same_fhat0(mask, dil.m)
    if kind != "float":
        assert res.status == status


@seed(2026)
@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["line", "pm", "pm-scaled", "p2-sheared", "lifted"]),
       st.sampled_from([1, 2]), st.booleans(), st.booleans(), st.data())
def test_fhat0_matches_the_dense_sum_on_the_geometric_masks(
        line, p1m, pm, where, r, real, read_float, data):
    """Real and complex masks with r = 1, 2 (a scalar base times the
    identity) and r = 8 (the lifted p4m hat), a few entries changed, over
    R = I, pm on diag(1/2, 1/3) and p2 on a sheared lattice, exact or
    read back from floats: fhat0 equals the dense QC sum's exactly."""
    _, dil, mask = _changed_mask(line, p1m, pm, where, r, real, data)
    _same_fhat0(mask.to_float() if read_float else mask, dil.m)


def test_fhat0_matches_the_dense_sum_on_the_lifted_hat():
    _, dil, lifted = _lifted_hat()
    for mask in (lifted, lifted.to_float()):
        assert _same_fhat0(mask, dil.m).status == "ok"


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


def test_witness_satisfies_per_coset_conditions(line, bspline4):
    t, dil = line
    cert = max_accuracy(bspline4, t, dil, p_max=4)
    for s in range(cert.p):
        residuals = condition_d_residuals(bspline4, dil, cert.witness, s)
        assert len(residuals) == dil.m
        assert all(res.is_zero() for res in residuals)


def test_scaled_witness_still_in_kernel(line, hat):
    """The constraint system is homogeneous, so any rescaling of a witness
    remains a witness."""
    t, dil = line
    cert = max_accuracy(hat, t, dil, p_max=2)
    scaled = cert.witness.scale(QC(Fraction(7, 3)))
    for s in range(cert.p):
        assert all(res.is_zero()
                   for res in condition_d_residuals(hat, dil, scaled, s))


def test_corrupted_witness_has_nonzero_residual(line, hat):
    t, dil = line
    bad = VCollection(1, (Mat.from_rows([[QC(1)]]),
                          Mat.from_rows([[QC(1)]])))
    residuals = [condition_d_residuals(hat, dil, bad, s) for s in range(2)]
    assert any(not res.is_zero() for per_s in residuals for res in per_s)
    assert residuals == [[_condition_d_reference(hat, dil, bad, s, i)
                          for i in range(dil.m)] for s in range(2)]


def test_sufficient_check_hat(line, hat):
    t, dil = line
    rep = sufficient_check(hat, t, dil, p=2)
    assert rep.passed
    assert rep.sum_total == 2 and type(rep.sum_total) is int
    assert rep.sum_rule_ok and rep.moments_ok and rep.eigen_ok
    assert rep.beta0_consistent
    assert rep.eigen_flags == {1: True}
    assert rep.beta == {(0, (0,)): 1, (0, (1,)): 0}
    assert all(type(x) is int for x in rep.beta.values())
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
    half = Fraction(1, 2)
    assert rep.beta[(0, (0,))] == half
    assert rep.beta[(1, (0,))] == half
    assert rep.beta[(0, (1,))] == QC(0)
    assert rep.beta[(1, (1,))] == QC(0)
    assert rep.eigen_flags == {1: True}
    chain = tuple(rep.v_chain.block(s).entry(0, 0) for s in range(2))
    assert chain == (QC(1), QC(0))


def test_sufficient_check_refuses_a_mismatched_triple(line, pm, hat):
    """The mask, the triple and the dilation must belong together."""
    t, dil = line
    u, dil_u = pm
    for triple, dilation in ((u, dil_u), (t, dil_u)):
        with pytest.raises(ValueError, match="must match"):
            sufficient_check(hat, triple, dilation, p=2)


def test_sufficient_check_notes_a_chain_that_fails_the_walk(line, hat,
                                                           monkeypatch):
    """The walk of the support that re-checks the witness chain guards
    against an internal inconsistency: when it reports a non-zero
    residual, the report fails with its note, though every condition it
    screens holds."""
    t, dil = line
    walk = accuracy_mod._residual_walk

    def off_by_one(mask, dilation, v, degrees):
        scale, out = walk(mask, dilation, v, degrees)
        out[max(degrees)][0][0][0] += 1
        return scale, out

    monkeypatch.setattr(accuracy_mod, "_residual_walk", off_by_one)
    rep = sufficient_check(hat, t, dil, p=2)
    assert rep.sum_rule_ok and rep.moments_ok and rep.eigen_ok
    assert rep.beta0_consistent and rep.v_chain is not None
    assert rep.chain_residual_zero is False and not rep.passed
    assert rep.notes[-1].startswith("the recursive witness fails the "
                                    "per-coset conditions")


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


def test_weighted_pm_hat_fails_the_eigenvalue_screen(pm):
    """The tensor hat spread over pm with weights 3/4 and 1/4 has
    accuracy 2 and moments that agree across cosets, but its degree-1
    screened matrix 2 (3/4 I + 1/4 diag(1, -1)) = diag(2, 1) has the
    eigenvalue 1: the sum-rule test flags degree 1 and builds no chain,
    while the exact solver certifies p = 2."""
    t, dil = pm
    c = {-1: Fraction(1, 2), 0: Fraction(1), 1: Fraction(1, 2)}
    w = (Fraction(3, 4), Fraction(1, 4))
    mask = Mask.scalar(t, {(g, (i, j)): w[g] * a * b for g in range(2)
                           for i, a in c.items() for j, b in c.items()})
    rep = sufficient_check(mask, t, dil, p=2)
    assert rep.sum_rule_ok and rep.moments_ok and rep.beta0_consistent
    assert rep.eigen_flags == {1: False}
    assert not rep.eigen_ok and not rep.passed
    assert rep.v_chain is None and rep.chain_residual_zero is None
    assert max_accuracy(mask, t, dil, p_max=4).p == 2


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


def test_verify_equivalence_deconjugates_once_per_point(line, hat,
                                                        monkeypatch):
    """The support terms of the two-scale relation do not depend on the
    degree: each sampled element and each digit finds them with at most
    one deconj call per support element, whatever the witness's p."""
    t, dil = line
    cert = max_accuracy(hat, t, dil, p_max=3)
    assert cert.witness.p == 2
    sample = [t.translation((k,)) for k in range(-5, 6)]
    calls = []
    deconj = Dilation.deconj

    def counted(self, e):
        calls.append(e)
        return deconj(self, e)

    monkeypatch.setattr(Dilation, "deconj", counted)
    rep = verify_equivalence(hat, dil, cert.witness, sample)
    assert rep.passed
    support = len(list(hat.items()))
    assert 0 < len(calls) <= support * (len(sample) + dil.m)


def test_verify_equivalence_flags_bad_witness(line, hat):
    t, dil = line
    bad = VCollection(1, (Mat.from_rows([[QC(1)]]),
                          Mat.from_rows([[QC(1)]])))
    sample = [t.translation((k,)) for k in range(-3, 4)]
    rep = verify_equivalence(hat, dil, bad, sample)
    assert not rep.passed
    assert max(rep.max_residual_d, rep.max_residual_b,
               rep.max_residual_c) > 0


def test_verify_equivalence_passes_a_certificate_of_accuracy_zero(pm):
    """The pm mask of the CLI tests has accuracy 0, so max_accuracy gives
    no witness; verify_equivalence then checks nothing and passes with
    p = 0 instead of failing on the missing witness."""
    t, dil = pm
    mask = Mask.scalar(t, {(0, (0, 0)): 1, (0, (1, 0)): Fraction(1, 2),
                           (1, (0, 1)): Fraction(-2, 3), (1, (1, 1)): 5})
    cert = max_accuracy(mask, t, dil, p_max=3)
    assert cert.p == 0 and cert.witness is None
    rep = verify_equivalence(mask, dil, cert.witness,
                             [t.translation((1, 0))])
    assert rep.p == 0 and rep.passed and rep.details == {}
    assert (rep.max_residual_d, rep.max_residual_b,
            rep.max_residual_c) == (0.0, 0.0, 0.0)


def test_float_hat_certificate_equals_the_exact_one(line, hat):
    """The float copy of the hat reads back to the hat: accuracy 2 and the
    exact witness, normalized to 1 in its first entry."""
    t, dil = line
    exact = max_accuracy(hat, t, dil, p_max=3)
    cert = max_accuracy(hat.to_float(), t, dil, p_max=3)
    assert cert.p == exact.p == 2
    assert _witness_entries(cert) == _witness_entries(exact)
    assert cert.witness.block(0).entry(0, 0) == QC(1)
    assert cert.diagnostics.pop("float_max_relative_change") == 0.0
    assert cert.diagnostics == exact.diagnostics
    assert "float_max_relative_change" not in exact.diagnostics


def test_float_copy_reaches_the_exact_verdicts(line, bspline4):
    t, dil = line
    exact = max_accuracy(bspline4, t, dil, p_max=6)
    assert exact.p == 4
    assert type(exact.gate) is int and exact.gate == 1
    fmask = bspline4.to_float()
    assert fmask == bspline4
    cert = max_accuracy(fmask, t, dil, p_max=6)
    assert cert.p == exact.p
    assert cert.witness == exact.witness and cert.gate == exact.gate
    for p in (4, 5):
        want = sufficient_check(bspline4, t, dil, p)
        got = sufficient_check(fmask, t, dil, p)
        assert got.passed == want.passed == (p == 4)
    sample = [t.translation((k,)) for k in range(-3, 4)]
    for mask in (bspline4, fmask):
        assert verify_equivalence(mask, dil, exact.witness, sample).passed


def test_float_mask_with_a_rounding_size_row_keeps_its_accuracy(line):
    """The float copy of (1/6, 1/2, 2/3, 1/2, 1/6) sums to 2 - 2^-54 as
    dyadic values; the reading rule snaps it back to the sixths, which
    keeps the exact accuracy 2."""
    t, dil = line
    coefs = [Fraction(1, 6), Fraction(1, 2), Fraction(2, 3), Fraction(1, 2),
             Fraction(1, 6)]
    exact = Mask.scalar(t, dict(enumerate(coefs)))
    floats = Mask.scalar(t, {k: float(c) for k, c in enumerate(coefs)})
    assert floats == exact
    assert 0 < floats.float_change < 2 ** -53
    for mask in (exact, floats):
        assert max_accuracy(mask, t, dil, p_max=4).p == 2


def test_float_order_6_mask_certifies_6(line):
    """Float copy of a dyadic order-6 mask: its coefficients are read back
    unchanged, so p_max=7 certifies 6, as the exact copy does."""
    t, dil = line
    coefs = [Fraction(c, 128)
             for c in (-4, -23, -47, -23, 65, 131, 107, 43, 7)]
    exact = Mask.scalar(t, dict(enumerate(coefs)))
    floats = Mask.scalar(t, {k: float(c) for k, c in enumerate(coefs)})
    assert floats == exact
    assert floats.float_change == 0.0
    for mask in (exact, floats):
        cert = max_accuracy(mask, t, dil, p_max=7)
        assert cert.p == 6
        assert cert.diagnostics["first_failing_degree"] == 6


# -- the sparse block rows against the dense assembly they replace ----------

def _dense(rows, width):
    """Sparse rows as a dense Mat with ``width`` columns."""
    return Mat.from_rows([[row.get(j, 0) for j in range(width)]
                          for row in rows], cols=width)


def _assert_matches_dense_assembly(mask, triple, dilation, s_top):
    """The systems built from block rows equal, entry for entry for every
    degree up to s_top, D times the dense stacked reference with each
    degree's coset blocks put through :func:`coset_differences` (coset 0's
    block, then the non-empty rows of B_i - B_0), D the common
    denominator of the coefficients; the basis max_accuracy
    carries out of solve_affine equals, column for column, the rref
    kernel basis of the whole reference system at every degree; and the
    certificate equals the one read off the reference kernels."""
    table = accuracy_mod._moments(mask, dilation, s_top + 1)
    rows, reference, width = [], [], 0
    for s in range(s_top + 1):
        rows += accuracy_mod._block_row(mask, dilation, table, s)
        reference += coset_differences(
            _reference_block_row(mask, dilation, s), dilation.m)
        width += dim_degree(triple.d, s) * mask.r
        assert all(x != 0 for row in rows for x in row.values())
        assert _dense(rows, width) == _dense(reference, width)

    carried = []

    def spy(system, basis):
        carried.append(solve_affine(system, basis))
        return carried[-1]

    with mock.patch.object(accuracy_mod, "solve_affine", spy):
        cert = max_accuracy(mask, triple, dilation, p_max=s_top + 1)
    kernels, ref = _reference_scan(mask, dilation, s_top)
    assert [[Mat.column([v.get(j, 0) for j in range(basis.cols)])
             for v in basis.data] for basis in carried] == kernels
    assert (cert.p, cert.witness, cert.gate,
            cert.diagnostics["kernel_dims"],
            cert.diagnostics["first_failing_degree"]) == ref


def _triple_on(group, lattice, dilation=((2, 0), (0, 2))):
    """A catalog point group over the lattice basis ``lattice``, with the
    dilation ``dilation`` (default 2I)."""
    t = catalog_triple(group, 2)
    t = validate_triple(Mat.from_rows(lattice), t.group, name=group)
    return t, check_admissible(Mat.from_rows(dilation), t)


P4M = _triple_on("p4m", [[1, 0], [0, 1]])
PM_SCALED = _triple_on("pm", [[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
P2_SHEARED = _triple_on("p2", [[1, Fraction(1, 2)], [0, 1]])
# Z^2 / M Z^2 is cyclic of order 4 for M = [[2, 1], [0, 2]], and Z / 3Z has
# order 3: there, unlike under 2I and the quincunx, the coset of -k is
# not always that of k
P2_CYCLIC = _triple_on("p2", [[1, 0], [0, 1]], ((2, 1), (0, 2)))
LINE_3 = (catalog_triple("p1", 1),)
LINE_3 += (check_admissible(Mat.from_rows([[3]]), LINE_3[0]),)


def _spread(where, lattice_mask):
    """The lattice mask spread evenly over the point parts of a triple."""
    t, dil = where
    return t, dil, {t.element(g, k): c / t.order for g in range(t.order)
                    for k, c in lattice_mask.items()}


def _scalar_bases(line, p1m, pm):
    """(triple, dilation, {element: scalar}) of masks with accuracy 2 to
    4, so that the scan reaches the higher degrees, and the tile of the
    digits of p2-cyclic.  The 2D and 3D tensor hats are invariant under
    every point group here, so their spreads keep accuracy 2, on a scaled
    lattice too; the hat under A = 3 has accuracy 2."""
    h = Fraction(1, 2)
    cubic = {(-2,): Fraction(1, 8), (-1,): h, (0,): Fraction(3, 4),
             (1,): h, (2,): Fraction(1, 8)}
    hat = {(-1,): h, (0,): Fraction(1), (1,): h}
    hat2 = {(i, j): a * b for (i,), a in hat.items()
            for (j,), b in hat.items()}
    hat3 = {(i, *k): a * b for (i,), a in hat.items()
            for k, b in hat2.items()}
    return {
        "line": _spread(line, cubic),
        "p1m": _spread(p1m, hat),
        "pm": _spread(pm, hat2),
        "p4m": _spread(P4M, hat2),
        "pm-scaled": _spread(PM_SCALED, hat2),
        "p2-sheared": _spread(P2_SHEARED, hat2),
        "line-3": _spread(LINE_3, {(k,): Fraction(3 - abs(k), 3)
                                   for k in range(-2, 3)}),
        "p2-cyclic": _spread(P2_CYCLIC, {
            k: Fraction(1) for k in P2_CYCLIC[1].lattice_digits}),
        "p1-3d": _spread(P1_3D, hat3),
        "pm-3d": _spread(PM_3D, hat3),
    }


@seed(2026)
@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["line", "p1m", "pm", "p4m", "pm-scaled",
                        "p2-sheared"]),
       st.sampled_from([1, 2]), st.booleans(), st.data())
def test_block_rows_match_the_dense_assembly(line, p1m, pm, where, r, real,
                                             data):
    """Real and complex masks with r = 1, 2: a scalar base of known
    accuracy, times the r x r identity, with a few drawn entries
    changed; with none changed the scan runs up to degree 3.  The bases
    include a p4m spread, pm over the lattice diag(1/2, 1/3) and p2 over
    a sheared lattice."""
    t, dil, base = _scalar_bases(line, p1m, pm)[where]
    part = st.fractions(-2, 2, max_denominator=4)
    value = (st.builds(QC, part) if real
             else st.builds(QC, part, part.filter(lambda x: x != 0)))
    support = sorted(base, key=lambda e: (e.g, e.k))
    blocks = {e: [[c if a == b else 0 for b in range(r)] for a in range(r)]
              for e, c in base.items()}
    changes = data.draw(st.lists(
        st.tuples(st.sampled_from(support), st.integers(0, r - 1),
                  st.integers(0, r - 1), value),
        min_size=0 if real else 1, max_size=3))
    for e, a, b, x in changes:
        blocks[e][a][b] = x
    mask = Mask(t, blocks, r=r)
    s_top = 3 if t.d == 1 else 2
    _assert_matches_dense_assembly(mask, t, dil, s_top)


@cache
def _lifted_hat():
    """(lattice triple, dilation 2I, mask): the p4m tensor hat lifted to
    an r = 8 lattice mask."""
    t = catalog_triple("p4m", 2)
    dil = check_admissible(Mat.from_rows([[2, 0], [0, 2]]), t)
    hat = {-1: Fraction(1, 2), 0: Fraction(1), 1: Fraction(1, 2)}
    scalar = Mask.scalar(t, {(g, (i, j)): a * b / 8 for g in range(8)
                             for i, a in hat.items() for j, b in hat.items()})
    lifted = lift_scalar_to_matrix(scalar, dil)
    lat = lifted.triple
    return lat, check_admissible(Mat.from_rows([[2, 0], [0, 2]]), lat), lifted


def test_lifted_hat_block_rows_match_the_dense_assembly():
    """The p4m hat lifted to an r = 8 lattice mask, degrees up to 3: the
    rows, the carried kernel bases and the certificate."""
    lat, lat_dil, lifted = _lifted_hat()
    assert lifted.r == 8
    _assert_matches_dense_assembly(lifted, lat, lat_dil, 3)


# -- the integer moment table against the per-element Fraction moments -----

def _nonzero(sums):
    """A moment table's sums without their zero entries, zero moments and
    empty keys: the table keeps the non-zero entries of each N_mu only, an
    N_mu only where one is left, and a key only where an N_mu is."""
    out = {key: {mu: n for mu, entries in moments.items()
                 if (n := {ac: x for ac, x in entries.items() if x != 0})}
           for key, moments in sums.items()}
    return {key: moments for key, moments in out.items() if moments}


def _scaled(sums, scale):
    """A moment table's sums, each entry times scale."""
    return {key: {mu: {ac: scale * x for ac, x in n.items()}
                  for mu, n in moments.items()}
            for key, moments in sums.items()}


def _coset_sums(table, m):
    """Every digit coset's moments read off the one moment dict, in the
    form of :func:`_nonzero`: coset 0's, plus coset i's differences from
    them, entry by entry."""
    out = {}
    for i in range(m):
        for b in {b for _, b in table.moments}:
            base = table.moments.get((0, b), {})
            delta = table.moments.get((i, b), {}) if i else {}
            sums = {}
            for mu in {**base, **delta}:
                n_0, n_i = base.get(mu, {}), delta.get(mu, {})
                n = {ac: x for ac in {**n_0, **n_i}
                     if (x := n_0.get(ac, 0) + n_i.get(ac, 0)) != 0}
                if n:
                    sums[mu] = n
            if sums:
                out[(i, b)] = sums
    return out


def _changed_mask(line, p1m, pm, where, r, real, data):
    """(triple, dilation, mask): a scalar base of :func:`_scalar_bases`
    times the r x r identity, or the lifted p4m hat (r = 8) when
    ``where`` is "lifted", with a few drawn entries changed to real
    values, or to complex ones (at least one) when ``real`` is false."""
    if where == "lifted":
        t, dil, lifted = _lifted_hat()
        blocks = {e: [list(row) for row in blk.plain()]
                  for e, blk in lifted.items()}
        r = lifted.r
    else:
        t, dil, base = _scalar_bases(line, p1m, pm)[where]
        blocks = {e: [[c if a == b else 0 for b in range(r)]
                      for a in range(r)] for e, c in base.items()}
    part = st.fractions(-2, 2, max_denominator=6)
    value = (st.builds(QC, part) if real
             else st.builds(QC, part, part.filter(lambda x: x != 0)))
    support = sorted(blocks, key=lambda e: (e.g, e.k))
    changes = data.draw(st.lists(
        st.tuples(st.sampled_from(support), st.integers(0, r - 1),
                  st.integers(0, r - 1), value),
        min_size=0 if real else 1, max_size=3))
    for e, a, b, x in changes:
        blocks[e][a][b] = x
    return t, dil, Mask(t, blocks, r=r)


@seed(2026)
@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["line", "p1m", "pm", "p4m", "pm-scaled",
                        "p2-sheared", "line-3", "p2-cyclic", "lifted"]),
       st.sampled_from([1, 2]), st.booleans(), st.data())
def test_integer_rows_are_the_fraction_rows_times_the_denominator(
        line, p1m, pm, where, r, real, data):
    """The moment table and the block rows built on the common
    denominator D equal, exactly, D times the per-element Fraction
    moments (every coset's moments read off the one dict by
    :func:`_coset_sums`, without their zero entries) and D times the
    block rows of the dense reference system (put through
    :func:`coset_differences`), and D is the lcm of the denominators of
    the coefficients.  Real and complex masks
    with r = 1, 2 (a scalar base times the identity) and r = 8 (the
    lifted p4m hat), with a few drawn entries changed, over R = I, pm on
    diag(1/2, 1/3) and p2 on a sheared lattice, and under A = 3 and
    M = [[2, 1], [0, 2]], where the cosets of k and -k differ."""
    t, dil, mask = _changed_mask(line, p1m, pm, where, r, real, data)
    s_top = 3 if t.d == 1 else 2
    scale = _common_denominator(mask)
    table = accuracy_mod._moments(mask, dil, s_top + 1)
    reference = _fraction_moments(mask, dil, s_top + 1)
    assert table.scale == scale
    assert _coset_sums(table, dil.m) == _scaled(_nonzero(reference), scale)
    for s in range(s_top + 1):
        assert accuracy_mod._block_row(mask, dil, table, s) == \
            coset_differences(_reference_block_row(mask, dil, s), dil.m)


# -- the sum-rule test's moments against the per-element loops -------------

@seed(2026)
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["line", "p1m", "pm", "p4m", "pm-scaled",
                        "p2-sheared"]),
       st.integers(1, 3), st.booleans(), st.data())
def test_sum_rule_moments_match_the_per_element_loops(line, p1m, pm, where,
                                                      p, real, data):
    """sufficient_check's per-coset sums, beta and moments_ok equal the
    per-element reference, and the first coset's block rows are
    D (I - M_[s,s] A_[s]) and -D M_[s,t] A_[t] for the reference moment
    matrices, D the common denominator of the coefficients.  Scalar bases
    of accuracy 2 to 4 with up to three entries changed, so that the
    moments often disagree across cosets, on lattices with R = I and
    R != I."""
    t, dil, base = _scalar_bases(line, p1m, pm)[where]
    part = st.fractions(-2, 2, max_denominator=4)
    value = (st.builds(QC, part) if real else st.builds(
        QC, part, st.fractions(Fraction(1, 4), 2, max_denominator=4)))
    entries = dict(base)
    for e, x in data.draw(st.lists(
            st.tuples(st.sampled_from(sorted(base, key=lambda e: (e.g, e.k))),
                      value), max_size=3)):
        entries[e] = x
    mask = Mask.scalar(t, entries)
    rep = sufficient_check(mask, t, dil, p)
    per_coset, mats = _reference_sums(mask, t, dil, p)

    assert rep.per_coset == per_coset
    agree = all(len(set(sums)) == 1 for sums in per_coset.values())
    assert rep.moments_ok == agree
    assert rep.beta == {key: sums[0] for key, sums in per_coset.items()
                        if len(set(sums)) == 1}

    table = accuracy_mod._moments(mask, dil, p)
    scale = _common_denominator(mask)
    width = 0
    for s in range(p):
        ds = dim_degree(t.d, s)
        width += ds
        rows = accuracy_mod._block_row(mask, dil, table, s)[:ds]
        dense = _dense(rows, width)
        start = 0
        for tt in range(s + 1):
            dt = dim_degree(t.d, tt)
            got = Mat.from_rows([[dense.entry(j, start + k)
                                  for k in range(dt)] for j in range(ds)])
            lead = mats[(s, tt)] @ build_A_s(dil.A, tt)
            want = Mat.identity(ds) - lead if tt == s else -lead
            assert got == want.scale(scale)
            start += dt


# -- the eigenvalue screen against the beta-built matrix it replaced -------

QUINCUNX = ((1, 1), (1, -1))
SCREEN_CASES = {
    "p1": _triple_on("p1", [[1, 0], [0, 1]]),
    "pm": _triple_on("pm", [[1, 0], [0, 1]]),
    "p4m": P4M,
    "pm-scaled": PM_SCALED,
    "p1-quincunx": _triple_on("p1", [[1, 0], [0, 1]], QUINCUNX),
    "p4m-quincunx": _triple_on("p4m", [[1, 0], [0, 1]], QUINCUNX),
    "p4m-half-quincunx": _triple_on(
        "p4m", [[Fraction(1, 2), 0], [0, Fraction(1, 2)]], QUINCUNX),
}


def _screen_base(dilation):
    """A lattice mask whose per-coset moments agree: the tensor cubic
    B-spline (accuracy 4) under 2I, the quincunx hat (accuracy 2) under
    the quincunx."""
    if dilation.m == 2:
        q = Fraction(1, 4)
        return {(0, 0): Fraction(1), (1, 0): q, (-1, 0): q, (0, 1): q,
                (0, -1): q}
    cubic = dict(zip(range(-2, 3), (Fraction(1, 8), Fraction(1, 2),
                                    Fraction(3, 4), Fraction(1, 2),
                                    Fraction(1, 8))))
    return {(i, j): a * b for i, a in cubic.items()
            for j, b in cubic.items()}


def _beta_screen(rep, triple, dilation):
    """The screened matrices sum_b beta_{b,0} b_[s] A_[s] for 1 <= s < p,
    built from beta as sufficient_check did before it read the chain's
    blocks, and their flags: True when 1 is not an eigenvalue."""
    if not rep.moments_ok:
        return {}, {}
    zero = (0,) * triple.d
    mats, flags = {}, {}
    for s in range(1, rep.p):
        ds = dim_degree(triple.d, s)
        mat = Mat.zeros(ds, ds)
        for b in range(triple.order):
            term = build_A_s(triple.group[b], s) @ build_A_s(dilation.A, s)
            mat = mat + term.scale(rep.beta[(b, zero)])
        mats[s] = mat
        flags[s] = rank(mat - Mat.identity(ds)) == ds
    return mats, flags


# weights w with 2w or 4w equal to 1 make the screened matrices of p1 and
# pm singular under 2I, so that false flags are common
SCREEN_WEIGHTS = [Fraction(n, 4) for n in (-2, -1, 1, 2, 3, 4)]


@pytest.mark.parametrize("where", sorted(SCREEN_CASES))
@seed(2026)
@settings(max_examples=12, deadline=None)
@given(p=st.integers(2, 3), data=st.data())
def test_eigen_flags_match_the_beta_built_screen(where, p, data):
    """A base mask with agreeing moments, spread over the point group
    with drawn weights w_g: the flags of sufficient_check equal those of
    the beta-built screen, and the first coset's diagonal block of
    degree s is D times I minus the screened matrix, D the common
    denominator of the coefficients.  p1, pm and p4m under 2I
    and the quincunx, over Z^2 and over non-integer lattices."""
    t, dil = SCREEN_CASES[where]
    weights = data.draw(st.lists(st.sampled_from(SCREEN_WEIGHTS),
                                 min_size=t.order, max_size=t.order))
    base = _screen_base(dil)
    mask = Mask.scalar(t, {(g, k): w * c for g, w in enumerate(weights)
                           for k, c in base.items()})
    rep = sufficient_check(mask, t, dil, p)
    mats, flags = _beta_screen(rep, t, dil)
    assert rep.eigen_flags == flags
    table = accuracy_mod._moments(mask, dil, p)
    start = 1
    for s, mat in mats.items():
        ds = dim_degree(t.d, s)
        rows = accuracy_mod._block_row(mask, dil, table, s)[:ds]
        block = Mat.from_rows([[row.get(start + k, 0) for k in range(ds)]
                               for row in rows])
        assert block == (Mat.identity(ds) - mat).scale(
            _common_denominator(mask))
        start += ds


# -- the one-walk witness guard against the per-coset dense reference ------

def _guard_bases(line, p1m, pm):
    """The scalar bases of _scalar_bases, plus the tensor cubic B-spline
    on p1 over Z^2 under 2I and the quincunx hat spread over p4m, whose
    dilation is not diagonal."""
    bases = _scalar_bases(line, p1m, pm)
    for name in ("p1", "p4m-quincunx"):
        where = SCREEN_CASES[name]
        bases[name] = _spread(where, _screen_base(where[1]))
    return bases


def _guard_case(line, p1m, pm, where, real, use_witness, reweight, data):
    """(triple, dilation, mask, v) for the witness guard: a base of
    :func:`_guard_bases`, or the lifted r = 8 p4m hat, with up to two
    drawn entries changed, complex ones among them.  With reweight, the
    blocks of each point part are scaled by a drawn weight: an even
    spread sums the same over b as over b^{-1}, and would hide a lead
    built from the wrong one.  v is the solver's witness when there is
    one and use_witness holds, else drawn at random, so that most
    residuals are not zero."""
    if where == "lifted":
        t, dil, lifted = _lifted_hat()
        blocks = {e: [list(row) for row in blk.plain()]
                  for e, blk in lifted.items()}
        r = lifted.r
    else:
        t, dil, base = _guard_bases(line, p1m, pm)[where]
        weights = (data.draw(st.lists(st.sampled_from(SCREEN_WEIGHTS),
                                      min_size=t.order, max_size=t.order))
                   if reweight else [1] * t.order)
        blocks = {e: [[c * weights[e.g]]] for e, c in base.items()}
        r = 1
    part = st.fractions(-2, 2, max_denominator=4)
    value = (st.builds(QC, part) if real
             else st.builds(QC, part, part.filter(lambda x: x != 0)))
    support = sorted(blocks, key=lambda e: (e.g, e.k))
    changes = data.draw(st.lists(
        st.tuples(st.sampled_from(support), st.integers(0, r - 1),
                  st.integers(0, r - 1), value),
        min_size=0 if real else 1, max_size=2))
    for e, a, b, x in changes:
        blocks[e][a][b] = x
    mask = Mask(t, blocks, r=r)
    s_top = 3 if t.d == 1 else 2
    v = max_accuracy(mask, t, dil, p_max=s_top + 1).witness \
        if use_witness else None
    if v is None:
        v = VCollection(t.d, tuple(
            Mat.from_rows([[data.draw(value) for _ in range(r)]
                           for _ in range(dim_degree(t.d, s))])
            for s in range(s_top + 1)))
    return t, dil, mask, v


GUARD_CASES = ["line", "p1m", "pm", "p4m", "p1", "p4m-quincunx", "pm-scaled",
               "p2-sheared", "line-3", "p2-cyclic", "lifted"]


@seed(2026)
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(GUARD_CASES), st.booleans(), st.booleans(),
       st.booleans(), st.data())
def test_one_walk_residuals_equal_the_per_coset_reference(
        line, p1m, pm, where, real, use_witness, reweight, data):
    """condition_d_residuals gives, exactly, the dense per-coset
    residual of every coset at every degree: on p1, p1m, pm and p4m
    scalar masks (under 2I and the quincunx), pm on diag(1/2, 1/3) and
    p2 on a sheared lattice, p1 under A = 3 and p2 under
    M = [[2, 1], [0, 2]] (where the cosets of k and -k differ), and the
    lifted r = 8 p4m hat, with up to two drawn entries changed
    (:func:`_guard_case`)."""
    _, dil, mask, v = _guard_case(line, p1m, pm, where, real, use_witness,
                                  reweight, data)
    for s in range(v.p):
        assert condition_d_residuals(mask, dil, v, s) == [
            _condition_d_reference(mask, dil, v, s, i)
            for i in range(dil.m)]


@seed(2026)
@settings(max_examples=40, deadline=None)
@given(st.sampled_from(GUARD_CASES), st.booleans(), st.booleans(),
       st.booleans(), st.data())
def test_one_walk_for_every_degree_equals_the_walk_per_degree(
        line, p1m, pm, where, real, use_witness, reweight, data):
    """One walk of the support for every degree s < p gives, degree by
    degree, the residuals of condition_d_residuals, and its scaled rows
    are its scale times them; the walk's scale is the lcm of the
    witness's denominators times the mask's common denominator.  The
    cases of :func:`_guard_case`, so real and complex witnesses, zero
    and non-zero residuals."""
    _, dil, mask, v = _guard_case(line, p1m, pm, where, real, use_witness,
                                  reweight, data)
    scale, walk = accuracy_mod._residual_walk(mask, dil, v, range(v.p))
    assert list(walk) == list(range(v.p))
    assert scale == _common_denominator(mask) * lcm(*(
        q.denominator for blk in v.blocks for row in blk.plain()
        for x in map(qc_face, row) for q in (x.re, x.im)))
    for s in range(v.p):
        per_degree = condition_d_residuals(mask, dil, v, s)
        assert accuracy_mod._residual_mats(scale, walk[s], mask.r) == \
            per_degree
        assert [Mat.from_rows(rows, cols=mask.r) for rows in walk[s]] == [
            res.scale(scale) for res in per_degree]


def test_lifted_residuals_equal_the_reference():
    """The lifted r = 8 p4m hat: its own witness has zero residuals at
    degrees 0 and 1; a witness with one changed entry per block does
    not; both equal the dense reference."""
    lat, dil, lifted = _lifted_hat()
    cert = max_accuracy(lifted, lat, dil, p_max=3)
    assert cert.p == 2
    bad = VCollection(2, tuple(
        blk + Mat.from_rows([[QC(Fraction(1, 3)) if (i, j) == (0, s) else 0
                              for j in range(blk.cols)]
                             for i in range(blk.rows)])
        for s, blk in enumerate(cert.witness.blocks)))
    for v, zero in ((cert.witness, True), (bad, False)):
        for s in range(v.p):
            residuals = condition_d_residuals(lifted, dil, v, s)
            assert all(res.is_zero() for res in residuals) == zero
            assert residuals == [_condition_d_reference(lifted, dil, v, s, i)
                                 for i in range(dil.m)]


def test_sufficient_check_walks_the_support_once(line, bspline4,
                                                 monkeypatch):
    """The witness guard of sufficient_check checks every degree s < p in
    one walk of the support, which finds the digit coset of each support
    element once and builds no dense Q-tilde block."""
    t, dil = line
    support = len(list(bspline4.items()))
    cosets, q_calls, walks = [], [], []
    real_coset = Dilation.translation_coset
    real_walk = accuracy_mod._residual_walk

    def counting_coset(self, kvec):
        cosets.append(kvec)
        return real_coset(self, kvec)

    def counting_q(*args):
        q_calls.append(args)
        return build_Q_tilde(*args)

    def counting_walk(mask, dilation, v, degrees):
        before = len(cosets)
        out = real_walk(mask, dilation, v, degrees)
        walks.append((list(degrees), len(cosets) - before))
        return out

    monkeypatch.setattr(Dilation, "translation_coset", counting_coset)
    monkeypatch.setattr(accuracy_mod, "build_Q_tilde", counting_q)
    monkeypatch.setattr(multiidx_mod, "build_Q_tilde", counting_q)
    monkeypatch.setattr(accuracy_mod, "_residual_walk", counting_walk)
    rep = sufficient_check(bspline4, t, dil, p=4)
    assert rep.passed and rep.chain_residual_zero
    assert walks == [([0, 1, 2, 3], support)]
    assert q_calls == []


# -- the sum-rule test against the one from its definition ------------------

def _assert_same_report(got, want):
    """Every SufficientReport field equal, and of the same type: in
    sum_total, beta and per_coset each scalar of the type of want's, a
    VCollection of Mats or None in v_chain, bools in the flags.  The
    reference is compared as :func:`stored_report` maps it: ints or
    Fractions where a scalar is real, QCs where it is complex."""
    assert vars(got) == vars(want)
    for name, value in vars(want).items():
        assert type(getattr(got, name)) is type(value), name
    assert all(type(got.beta[key]) is type(x)
               for key, x in want.beta.items())
    assert all(type(x) is type(y) for key, ys in want.per_coset.items()
               for x, y in zip(got.per_coset[key], ys, strict=True))
    assert all(type(x) is bool for x in got.eigen_flags.values())
    if got.v_chain is not None:
        assert all(type(blk) is Mat for blk in got.v_chain.blocks)


# weights of the point parts but the last, which makes them sum to |G|:
# 3/2 and 1/2 over p1m and pm give the degree-1 screened matrices 1 and
# diag(2, 1), which have the eigenvalue 1; complex weights keep the sum
# rule and the moments, and run the screen and the chain on QCs
REPORT_WEIGHTS = [Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2),
                  QC(1, 1), QC(Fraction(3, 2), Fraction(1, 2))]


@pytest.mark.parametrize("change", ["none", "real", "complex"])
@seed(2026)
@settings(max_examples=60, deadline=None)
@given(where=st.sampled_from(["line", "p1m", "pm", "p4m", "pm-scaled",
                              "p2-sheared", "line-3", "p2-cyclic"]),
       p=st.integers(1, 4), reweight=st.booleans(), data=st.data())
def test_sufficient_report_equals_the_qc_reference(line, p1m, pm, change,
                                                   where, p, reweight, data):
    """sufficient_check on plain values gives the report of the test
    from its definition (:func:`conftest._sum_rule_reference`), field for
    field and type for type.  A scalar base of
    :func:`_scalar_bases` (R = I and R != I; under A = 3 and
    M = [[2, 1], [0, 2]] the cosets of k and -k differ); with
    reweight, point part g is scaled by a drawn weight w_g, real or
    complex, and the last weight makes them sum to |G|, so the sum rule
    holds and the eigenvalue screen often fails; with a real or complex
    change, one or
    two drawn entries are changed (at least one complex for a complex
    change), so that the moments often disagree across cosets and the
    sum rule fails.  Unchanged bases are tested up to their accuracy
    (4 on the line, else 2), where their moments agree."""
    t, dil, base = _scalar_bases(line, p1m, pm)[where]
    if change == "none":
        p = min(p, 4 if where == "line" else 2)
    weights = [1] * t.order
    if reweight and t.order > 1:
        weights[:-1] = data.draw(st.lists(
            st.sampled_from(REPORT_WEIGHTS), min_size=t.order - 1,
            max_size=t.order - 1))
        weights[-1] = t.order - sum(weights[:-1])
    entries = {e: c * weights[e.g] for e, c in base.items()}
    if change != "none":
        part = st.fractions(-2, 2, max_denominator=4)
        value = (st.builds(QC, part) if change == "real"
                 else st.builds(QC, part, part.filter(lambda x: x != 0)))
        for e, x in data.draw(st.lists(st.tuples(
                st.sampled_from(sorted(base, key=lambda e: (e.g, e.k))),
                value), min_size=1, max_size=2)):
            entries[e] = x
    mask = Mask.scalar(t, entries)
    _assert_same_report(sufficient_check(mask, t, dil, p), stored_report(
        _sum_rule_reference(mask, t, dil, p)))


@pytest.mark.parametrize("where", sorted(SCREEN_CASES))
def test_sufficient_report_equals_the_qc_reference_on_the_screen_cases(
        where):
    """The masks of the eigenvalue-screen cases, with weights that make
    the screen fail and pass, under 2I and the quincunx, over Z^2 and
    over non-integer lattices: the report equals the reference's, field
    for field."""
    t, dil = SCREEN_CASES[where]
    base = _screen_base(dil)
    for w0 in (Fraction(1, 2), Fraction(3, 2), 1):
        weights = [w0] + [(t.order - w0) / (t.order - 1)] * (t.order - 1) \
            if t.order > 1 else [1]
        mask = Mask.scalar(t, {(g, k): w * c / t.order
                               for g, w in enumerate(weights)
                               for k, c in base.items()})
        for p in (2, 3):
            _assert_same_report(sufficient_check(mask, t, dil, p),
                                stored_report(_sum_rule_reference(
                                    mask, t, dil, p)))


@seed(2026)
@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["line", "p1m", "pm", "p4m", "pm-scaled",
                        "p2-sheared"]),
       st.sampled_from([1, 2]), st.booleans(), st.data())
def test_public_scalars_are_the_stored_values_of_the_former_qc_face(
        line, p1m, pm, where, r, real, data):
    """Mat.entry, det (of a mask block, of a block with a repeated row
    and of zero), apply_element (at a real or complex point), the gate
    and, for r = 1, the sum-rule report's sum_total, beta and per_coset
    hand out the values computed on Fractions and QCs (the permutation
    expansion, R (x + l), v_[0] . fhat0 and the sum-rule reference), as
    Mat stores them: an int or Fraction where a value is real, a QC with
    a non-zero imaginary part otherwise.  Real and complex masks with
    r = 1, 2 of :func:`_changed_mask`, over R = I, pm on diag(1/2, 1/3)
    and p2 on a sheared lattice."""
    t, dil, mask = _changed_mask(line, p1m, pm, where, r, real, data)
    part = st.fractions(-2, 2, max_denominator=4)
    coordinate = part if real else st.builds(QC, part, part)
    for e, blk in mask.items():
        for i in range(r):
            for j in range(r):
                assert_stored_face(blk.entry(i, j), blk.plain()[i][j])
        for m in (blk, Mat.from_rows([blk.plain()[0]] * r), Mat.zeros(r, r)):
            assert_stored_face(det(m), _leibniz_det(m.plain()))
        x = [data.draw(coordinate) for _ in range(t.d)]
        shifted = [y + l for y, l in zip(map(qc_face, x),
                                         e.true_translation())]
        g = t.group[e.g]
        want = [sum((g.entry(i, j) * y for j, y in enumerate(shifted)),
                    QC(0)) for i in range(t.d)]
        for got, w in zip(apply_element(e, x), want, strict=True):
            assert_stored_face(got, w)
    cert = max_accuracy(mask, t, dil, p_max=2)
    if cert.witness is not None:
        fh = fhat0(mask, dil.m).vector
        assert_stored_face(cert.gate, sum(
            (cert.witness.block(0).entry(0, j) * fh.entry(j, 0)
             for j in range(r)), QC(0)))
    if r == 1:
        p = data.draw(st.integers(1, 2))
        rep = sufficient_check(mask, t, dil, p)
        ref = _sum_rule_reference(mask, t, dil, p)
        assert_stored_face(rep.sum_total, ref.sum_total)
        assert rep.beta.keys() == ref.beta.keys()
        for key, want in ref.beta.items():
            assert_stored_face(rep.beta[key], want)
        assert rep.per_coset.keys() == ref.per_coset.keys()
        for key, wants in ref.per_coset.items():
            for got, want in zip(rep.per_coset[key], wants, strict=True):
                assert_stored_face(got, want)


# -- block rows on the shared shift pattern, and the kept moment table ------

P1_3D = validate_triple(Mat.identity(3), [Mat.identity(3)], name="p1")
P1_3D = (P1_3D, check_admissible(Mat.from_rows([[2, 0, 0], [0, 2, 0],
                                                [0, 0, 2]]), P1_3D))
PM_3D = validate_triple(Mat.identity(3), [
    Mat.identity(3), Mat.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, -1]])],
    name="pm-3d")
PM_3D = (PM_3D, check_admissible(Mat.from_rows([[2, 0, 0], [0, 2, 0],
                                                [0, 0, 2]]), PM_3D))
KEPT_CASES = ["line", "line-3", "p1m", "pm", "p4m", "pm-scaled",
              "p2-sheared", "p2-cyclic", "p1-3d", "pm-3d"]


def _kept_case(line, p1m, where):
    """(triple, dilation) of a case of :data:`KEPT_CASES`."""
    named = {"line": line, "line-3": LINE_3, "p1m": p1m, "p4m": P4M,
             "pm-scaled": PM_SCALED, "p2-sheared": P2_SHEARED,
             "p2-cyclic": P2_CYCLIC, "p1-3d": P1_3D, "pm-3d": PM_3D,
             "pm": _triple_on("pm", [[1, 0], [0, 1]])}
    return named[where]


def _random_blocks(t, r, kind, rnd):
    """{element: r x r rows} on up to six drawn elements of t, entries
    ints, rationals or complex rationals as ``kind`` says."""
    def coef():
        if kind == "int":
            return rnd.randint(-3, 3)
        x = Fraction(rnd.randint(-4, 4), rnd.randint(1, 6))
        return x if kind == "rational" else QC(
            x, Fraction(rnd.randint(-3, 3), rnd.randint(1, 4)))

    blocks = {}
    for _ in range(rnd.randint(1, 6)):
        e = t.element(rnd.randrange(t.order),
                      [rnd.randint(-2, 2) for _ in range(t.d)])
        blocks[e] = [[coef() for _ in range(r)] for _ in range(r)]
    return blocks


@seed(2026)
@settings(max_examples=40, deadline=None)
@given(st.sampled_from(KEPT_CASES), st.sampled_from([1, 2]),
       st.sampled_from(["int", "rational", "complex"]),
       st.randoms(use_true_random=False))
def test_block_rows_on_the_shift_pattern_match_the_inline_loop(
        line, p1m, where, r, kind, rnd):
    """_block_row, which reads the binomial shift's pattern and skips an
    empty N_mu, equals for every degree s < 5 D times the block row of the
    dense reference system, its stacked coset blocks put through
    :func:`coset_differences`, on d = 1, 2 and 3, r = 1 and 2, int,
    rational and complex masks, R = I and R != I."""
    t, dil = _kept_case(line, p1m, where)
    mask = Mask(t, _random_blocks(t, r, kind, rnd), r=r)
    table = accuracy_mod._moments(mask, dil, 5)
    for s in range(5):
        assert accuracy_mod._block_row(mask, dil, table, s) == \
            coset_differences(_reference_block_row(mask, dil, s), dil.m)


@seed(2026)
@settings(max_examples=40, deadline=None)
@given(st.sampled_from(KEPT_CASES), st.sampled_from([1, 2]),
       st.sampled_from(["int", "rational", "complex"]),
       st.integers(1, 4), st.randoms(use_true_random=False))
def test_the_kept_table_serves_every_smaller_degree_bound(line, p1m, where,
                                                          r, kind, p_max,
                                                          rnd):
    """The table kept with a mask for p_max is what every request for
    p <= p_max gets, and it gives the block rows of every degree s < p
    that a table a fresh mask with the same coefficients builds for p
    gives; a larger request builds a table equal to a fresh one and keeps
    it."""
    t, dil = _kept_case(line, p1m, where)
    blocks = _random_blocks(t, r, kind, rnd)
    mask = Mask(t, blocks, r=r)
    kept = accuracy_mod._moments(mask, dil, p_max)
    for p in range(1, p_max + 1):
        assert accuracy_mod._moments(mask, dil, p) is kept
        fresh_mask = Mask(t, blocks, r=r)
        fresh = accuracy_mod._moments(fresh_mask, dil, p)
        for s in range(p):
            assert (accuracy_mod._block_row(mask, dil, kept, s)
                    == accuracy_mod._block_row(fresh_mask, dil, fresh, s))
    assert mask._moment_tables == {dil: kept}
    more = accuracy_mod._moments(mask, dil, p_max + 1)
    assert more == accuracy_mod._moments(Mask(t, blocks, r=r), dil,
                                         p_max + 1)
    assert mask._moment_tables == {dil: more}


def test_the_scan_builds_the_leads_of_the_degrees_it_reads(line, p1m, pm):
    """max_accuracy on the p4m hat at p_max 40 stops at its first failing
    degree, 2, and the table it keeps holds the leads of t <= 2 only, for
    every point part it reads: a lead is built when a block row first
    reads it.  The certificate is the one of p_max 6."""
    t, dil, entries = _scalar_bases(line, p1m, pm)["p4m"]
    certs = []
    for p_max in (6, 40):
        mask = Mask.scalar(t, entries)
        certs.append(max_accuracy(mask, t, dil, p_max))
        table = mask._moment_tables[dil]
        assert table.p_max == p_max
        assert set(table.leads) == {(b, s) for b in {b for _, b in
                                                     table.moments}
                                    for s in range(3)}
    small, large = ((c.p, c.witness, c.gate, c.diagnostics["kernel_dims"],
                     c.diagnostics["first_failing_degree"]) for c in certs)
    assert large == small and large[0] == 2 and large[4] == 2


# -- moments once per lattice point, and the integral carried kernel --------

@seed(2026)
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KEPT_CASES), st.sampled_from([1, 2]),
       st.sampled_from(["int", "rational", "complex"]), st.integers(1, 5),
       st.randoms(use_true_random=False))
def test_moments_per_lattice_point_match_the_per_element_loop(
        line, p1m, where, r, kind, p_max, rnd):
    """The moment table read once per lattice point, summed in dense
    lists, has the scale D, the common denominator of the coefficients,
    no leads until the block rows read them and the rows of
    (b^{-1} A)_[t] after, and one dict of moments, without zero entries,
    zero moments or empty keys: coset 0's sums, D times the per-element
    moments (:func:`conftest._fraction_moments`), and every other coset's
    differences from them, entry by entry, so that coset 0's sum plus a
    coset's difference is that coset's sum, for every coset: d = 1, 2 and
    3, r = 1 and 2, int, rational and complex masks, R = I and R != I,
    with several point parts on one lattice point."""
    t, dil = _kept_case(line, p1m, where)
    blocks = _random_blocks(t, r, kind, rnd)
    for e in list(blocks):
        blocks[t.element(rnd.randrange(t.order), e.k)] = blocks[e]
    mask = Mask(t, blocks, r=r)
    table = accuracy_mod._moments(mask, dil, p_max)
    scale = _common_denominator(mask)
    ref = _scaled(_nonzero(_fraction_moments(mask, dil, p_max)), scale)
    assert (table.p_max, table.scale, table.leads) == (p_max, scale, {})
    assert _nonzero(table.moments) == table.moments
    assert {key: n for key, n in table.moments.items() if key[0] == 0} \
        == {key: n for key, n in ref.items() if key[0] == 0}
    assert _coset_sums(table, dil.m) == ref
    for s in range(p_max):
        accuracy_mod._block_row(mask, dil, table, s)
    assert table.leads == {
        (b, s): [[(k, x) for k, x in enumerate(row) if x] for row in
                 build_A_s(t.group[t.inverse_table[b]] @ dil.A, s).plain()]
        for b in {b for _, b in table.moments} for s in range(p_max)}


def _assert_scan_matches_the_reference(mask, triple, dilation, p_max):
    """max_accuracy gives the accuracy, witness, gate, kernel dimensions
    and first failing degree read off the rref kernels of the dense
    reference system (:func:`conftest._reference_scan`), and carries, at
    every degree, a positive multiple of each of those kernel vectors, in
    order, with integral parts: coprime ints on real masks."""
    carried = []

    def spy(system, basis):
        carried.append(solve_affine(system, basis))
        return carried[-1]

    with mock.patch.object(accuracy_mod, "solve_affine", spy):
        cert = max_accuracy(mask, triple, dilation, p_max)
    kernels, ref = _reference_scan(mask, dilation, p_max - 1)
    assert (cert.p, cert.witness, cert.gate,
            cert.diagnostics["kernel_dims"],
            cert.diagnostics["first_failing_degree"]) == ref
    real = all(qc_face(x).im == 0 for _, blk in mask.items()
               for row in blk.plain() for x in row)
    assert [basis.shape for basis in carried] == [
        (len(kernel), sum(dim_degree(triple.d, t) for t in range(s + 1))
         * mask.r) for s, kernel in enumerate(kernels)]
    for basis, kernel in zip(carried, kernels):
        for v, want in zip(basis.data, kernel):
            assert positive_multiple(v, {j: x for j in range(want.rows)
                                         if (x := want.entry(j, 0)) != 0})
            parts = [q for x in map(qc_face, v.values()) for q in (x.re, x.im)]
            assert all(q.denominator == 1 for q in parts)
            if real:
                assert {type(x) for x in v.values()} == {int}
                assert gcd(*v.values()) == 1


@seed(2026)
@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["line", "p1m", "pm", "p4m", "pm-scaled",
                        "p2-sheared"]),
       st.sampled_from([1, 2]), st.booleans(), st.data())
def test_max_accuracy_on_the_integral_kernel_matches_the_rref_kernel(
        line, p1m, pm, where, r, real, data):
    """max_accuracy carrying the integral kernel gives the accuracy,
    kernel dimensions, first failing degree, witness and gate of the rref
    kernels of the dense reference system, and carries positive
    multiples of them (:func:`_assert_scan_matches_the_reference`):
    masks of accuracy 2 to 4 with drawn entries changed, real and
    complex, r = 1 and 2, over p1, p1m, pm, p4m, a scaled pm lattice and
    a sheared p2 one."""
    t, dil, mask = _changed_mask(line, p1m, pm, where, r, real, data)
    _assert_scan_matches_the_reference(mask, t, dil, 4 if t.d == 1 else 3)


@seed(2026)
@settings(max_examples=40, deadline=None)
@given(st.sampled_from(KEPT_CASES), st.sampled_from([1, 2]),
       st.sampled_from(["int", "rational", "complex"]),
       st.randoms(use_true_random=False))
def test_max_accuracy_on_random_masks_matches_the_rref_kernel(
        line, p1m, where, r, kind, rnd):
    """As above, on masks of drawn blocks, mostly of accuracy 0, whose
    kernels are wider than those of the designed masks."""
    t, dil = _kept_case(line, p1m, where)
    _assert_scan_matches_the_reference(
        Mask(t, _random_blocks(t, r, kind, rnd), r=r), t, dil, 3)


# -- coset 0 and the coset differences against the dense reference --------

@seed(2026)
@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["line", "p1m", "pm", "p4m", "pm-scaled",
                        "p2-sheared", "line-3", "p2-cyclic", "lifted"]),
       st.sampled_from([1, 2]), st.booleans(), st.data())
def test_coset_differences_match_the_stacked_coset_blocks(
        line, p1m, pm, where, r, real, data):
    """The block rows of coset 0 and of the coset differences span the
    row space of the m stacked coset blocks of the dense reference system
    (the systems up to every degree have one rref), and max_accuracy on
    them gives the certificate of that system's rref kernels and carries
    positive multiples of them, coprime ints on real masks
    (:func:`_assert_scan_matches_the_reference`): masks of accuracy 2 to
    4 with drawn entries changed, real and complex, r = 1, 2 and 8 (the
    lifted p4m hat), over p1, p1m, pm, p4m, a scaled pm lattice and a
    sheared p2 one, and under A = 3 and M = [[2, 1], [0, 2]]."""
    t, dil, mask = _changed_mask(line, p1m, pm, where, r, real, data)
    s_top = 3 if t.d == 1 else 2
    table = accuracy_mod._moments(mask, dil, s_top + 1)
    rows, stacked, width = [], [], 0
    for s in range(s_top + 1):
        rows += accuracy_mod._block_row(mask, dil, table, s)
        stacked += _reference_block_row(mask, dil, s)
        width += dim_degree(t.d, s) * mask.r
        assert _rref(rows, width) == _rref(stacked, width)
    _assert_scan_matches_the_reference(mask, t, dil, s_top + 1)


@seed(2026)
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KEPT_CASES + ["lifted"]), st.sampled_from([1, 2]),
       st.booleans(), st.data())
def test_one_moment_dict_matches_the_two_field_table(line, p1m, pm, where,
                                                     r, real, data):
    """The one moment dict and the one-pass block row give, for all cosets
    at once, D times the block rows of the dense reference system put
    through :func:`coset_differences`, and max_accuracy and
    sufficient_check on them give the certificate and carried bases of
    the reference scan (:func:`_assert_scan_matches_the_reference`) and
    the report of the sum-rule reference, field for field and type for
    type: masks of accuracy 2 to 4 with drawn entries changed, real and
    complex, r = 1, 2 and 8 (the lifted p4m hat), on d = 1, 2 and 3,
    R = I and R != I, and under A = 3 and M = [[2, 1], [0, 2]].  The
    report is checked at every p up to the scan's bound, on the table
    the scan kept, built for a larger degree than most p ask."""
    t, dil, mask = _changed_mask(line, p1m, pm, where, r, real, data)
    p_max = 4 if t.d == 1 else 3
    table = accuracy_mod._moments(mask, dil, p_max)
    for s in range(p_max):
        assert accuracy_mod._block_row(mask, dil, table, s) == \
            coset_differences(_reference_block_row(mask, dil, s), dil.m)
    _assert_scan_matches_the_reference(mask, t, dil, p_max)
    if mask.r == 1:
        for p in range(1, p_max + 1):
            _assert_same_report(sufficient_check(mask, t, dil, p),
                                stored_report(_sum_rule_reference(
                                    mask, t, dil, p)))
