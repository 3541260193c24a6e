"""Accuracy solvers: exact kernels, sum rules, and cross-verification."""

from collections import Counter
from fractions import Fraction
from functools import cache
from math import comb, lcm, prod
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
                              check_admissible, inverse, validate_triple)
from crystacc.linalg import (Mat, QC, _rref, det, kernel_basis, kron, rank,
                             solve_affine)
from crystacc.mask import Mask, MaskShapeError, lift_scalar_to_matrix
from crystacc.multiidx import (VCollection, build_A_s, build_Q_st,
                               build_Q_tilde, dim_degree, enumerate_degree,
                               eval_X)

from conftest import (assert_stored_face, coset_differences,
                      former_apply_element, former_det, former_gate,
                      per_element_moments, qc_face, reference_leads,
                      rref_solve_affine, stacked_block_row, stored_report,
                      two_field_block_row, two_field_moments,
                      two_field_sufficient_check, without_repeats)


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


def _condition_d_reference(mask, dilation, v, s, i):
    """The defect of the degree-s constraint on digit coset i as it was
    computed before one walk served every coset: v_[s] minus the sum,
    over the support elements whose inverse lies in coset i, of
    Qt_[s,t](alpha) (A_[t] v_[t]) d_alpha, with Qt a dense QC block."""
    acc = v.block(s)
    av = [build_A_s(dilation.A, t) @ v.block(t) for t in range(s + 1)]
    for alpha, d_blk in mask.items():
        if dilation.coset_index(inverse(alpha)) != i:
            continue
        for t in range(s + 1):
            acc = acc - build_Q_tilde(alpha, s, t) @ av[t] @ d_blk
    return acc


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

def _assemble_reference(mask, dilation, s_max):
    """Dense stacked constraint matrix over vec(v_[0]), ..., vec(v_[s_max]):
    the block in row (s, i) and column t is delta_{t,s} I minus the sum
    over coset-i support terms of kron(Qt_[s,t] A_[t], d^T), built with
    dense zero blocks and one subtraction per entry."""
    tri = mask.triple
    d, r = tri.d, mask.r
    A = dilation.A
    widths = [dim_degree(d, t) * r for t in range(s_max + 1)]
    coset_of = {alpha: dilation.coset_index(inverse(alpha))
                for alpha, _ in mask.items()}
    rows = []
    for s in range(s_max + 1):
        ds = dim_degree(d, s)
        for i in range(dilation.m):
            blocks = []
            for t in range(s_max + 1):
                if t > s:
                    blocks.append(Mat.zeros(ds * r, widths[t]))
                    continue
                acc = (Mat.identity(ds * r) if t == s
                       else Mat.zeros(ds * r, widths[t]))
                for alpha, d_blk in mask.items():
                    if coset_of[alpha] != i:
                        continue
                    lead = build_Q_tilde(alpha, s, t) @ build_A_s(A, t)
                    acc = acc - kron(lead, d_blk.transpose())
                blocks.append(acc)
            rows.append(Mat.hstack(blocks))
    return Mat.vstack(rows)


def _dense(rows, width):
    """Sparse rows as a dense Mat with ``width`` columns."""
    return Mat.from_rows([[row.get(j, 0) for j in range(width)]
                          for row in rows], cols=width)


def _reference_scan(mask, dilation, s_top):
    """max_accuracy's scan as it was before the kernel was carried: the
    rref kernel basis of the whole dense reference system at every degree,
    and the first basis column whose first r entries (v_[0]) meet the
    gate.  Returns the kernels and the certificate fields
    (p, witness, gate, kernel_dims, first_failing_degree)."""
    d, r = mask.triple.d, mask.r
    fh = fhat0(mask, dilation.m)
    if fh.vector is None:
        return [], (0, None, None, {}, 0)
    kernels, dims, chosen, failing = [], {}, None, None
    for s in range(s_top + 1):
        basis = kernel_basis(_assemble_reference(mask, dilation, s))
        kernels.append(basis)
        dims[s] = len(basis)
        pick = next((b for b in basis if not sum(
            (b.entry(j, 0) * fh.vector.entry(j, 0) for j in range(r)),
            QC(0)).is_zero()), None)
        if pick is None:
            failing = s
            break
        entries = [pick.entry(i, 0) for i in range(pick.rows)]
        blocks, off = [], 0
        for t in range(s + 1):
            dt = dim_degree(d, t)
            blocks.append(Mat.from_rows(
                [entries[off + a * r:off + (a + 1) * r] for a in range(dt)]))
            off += dt * r
        chosen = VCollection(d, tuple(blocks))
    if chosen is None:
        return kernels, (0, None, None, dims, failing)
    lead = next(x for x in chosen.block(0).row_list(0) if not x.is_zero())
    witness = chosen.scale(1 / lead)
    gate = sum((witness.block(0).entry(0, j) * fh.vector.entry(j, 0)
                for j in range(r)), QC(0))
    return kernels, (witness.p, witness, gate, dims, failing)


def _common_denominator(mask):
    """D: the lcm of the denominators of the real and imaginary parts of
    every coefficient of the mask."""
    return lcm(*(q.denominator for _, blk in mask.items()
                 for i in range(blk.rows) for x in blk.row_list(i)
                 for q in (x.re, x.im)))


def _sparse(mat):
    """The rows of a Mat as sparse rows of their non-zero plain values."""
    return [{j: x for j, x in enumerate(row) if x != 0}
            for row in mat.plain()]


def _coset_differences_by_degree(rows, d, r, m, s_top):
    """Stacked rows of degrees 0..s_top, m coset blocks per degree, with
    each degree's block row put through :func:`coset_differences`."""
    out, start = [], 0
    for s in range(s_top + 1):
        size = m * dim_degree(d, s) * r
        out += coset_differences(rows[start:start + size], m)
        start += size
    return out


def _assert_matches_dense_assembly(mask, triple, dilation, s_top):
    """The systems built from block rows equal, entry for entry for every
    degree up to s_top, D times the dense stacked reference with each
    degree's coset blocks put through :func:`coset_differences` (coset 0's
    block, then the non-empty rows of B_i - B_0), D the common
    denominator of the coefficients; the basis max_accuracy
    carries out of solve_affine equals, column for column, the rref
    kernel basis of the whole reference system at every degree; and the
    certificate equals the one read off the reference kernels."""
    d, r = triple.d, mask.r
    table = accuracy_mod._moments(mask, dilation, s_top + 1)
    scale = _common_denominator(mask)
    rows, width = [], 0
    for s in range(s_top + 1):
        rows += accuracy_mod._block_row(mask, dilation, table, s)
        width += dim_degree(d, s) * r
        assert all(x != 0 for row in rows for x in row.values())
        reference = _sparse(_assemble_reference(mask, dilation, s)
                            .scale(scale))
        assert _dense(rows, width) == _dense(_coset_differences_by_degree(
            reference, d, r, dilation.m, s), width)

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


# -- the integer moment table against the Fraction one it replaced ----------

def _fraction_moments(mask, dilation, p_max):
    """The moment table as it was built before the common denominator:
    (i, b) -> {mu: {(a, c): N_mu}}, entries Fractions, or QCs where not
    real, accumulated one Fraction multiply-add at a time."""
    d, r = mask.triple.d, mask.r
    mus = [mu for s in range(p_max) for mu in enumerate_degree(d, s)]
    table = {}
    for e, blk in mask.items():
        key = (dilation.coset_index(inverse(e)), e.g)
        moments = table.setdefault(key, {mu: {} for mu in mus})
        neg = [-x for x in e.true_translation()]
        d_t = [(a, c, x.re if x.im == 0 else x) for c in range(r)
               for a, x in enumerate(blk.row_list(c)) if not x.is_zero()]
        for mu in mus:
            w = prod(y ** n for y, n in zip(neg, mu))
            if w == 0:
                continue
            n_mu = moments[mu]
            for a, c, x in d_t:
                n_mu[(a, c)] = n_mu.get((a, c), 0) + w * x
    return table


def _nonzero(sums):
    """A moment table's sums without their zero entries, zero moments and
    empty keys: the table keeps the non-zero entries of each N_mu only, an
    N_mu only where one is left, and a key only where an N_mu is."""
    out = {key: {mu: n for mu, entries in moments.items()
                 if (n := {ac: x for ac, x in entries.items() if x != 0})}
           for key, moments in sums.items()}
    return {key: moments for key, moments in out.items() if moments}


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


def _fraction_block_row(mask, dilation, moments, s):
    """Block row s from the Fraction moment table, with 1 on the diagonal
    and the leads (b^{-1})_[t] A_[t] rebuilt for every coset and point
    part, as it was built before the common denominator."""
    tri = mask.triple
    d, r = tri.d, mask.r
    starts = [0]
    for t in range(s):
        starts.append(starts[-1] + dim_degree(d, t) * r)
    alphas = enumerate_degree(d, s)
    rows = [[{starts[s] + k: Fraction(1)} for k in range(len(alphas) * r)]
            for _ in range(dilation.m)]
    for (i, b), moment in moments.items():
        block = rows[i]
        for t in range(s + 1):
            lead = (build_A_s(tri.group[tri.inverse_table[b]], t)
                    @ build_A_s(dilation.A, t))
            for j, beta in enumerate(enumerate_degree(d, t)):
                cols = [(starts[t] + k * r, x.re)
                        for k, x in enumerate(lead.row_list(j))
                        if not x.is_zero()]
                for row0, alpha in enumerate(alphas):
                    if any(k > n for n, k in zip(alpha, beta)):
                        continue
                    n_mu = moment[tuple(n - k for n, k in zip(alpha, beta))]
                    binom = prod(comb(n, k) for n, k in zip(alpha, beta))
                    for col0, x in cols:
                        for (a, c), y in n_mu.items():
                            row = block[row0 * r + a]
                            value = row.get(col0 + c, 0) - binom * x * y
                            if value == 0:
                                row.pop(col0 + c, None)
                            else:
                                row[col0 + c] = value
    return [row for block in rows for row in block]


def _changed_mask(line, p1m, pm, where, r, real, data):
    """(triple, dilation, mask): a scalar base of :func:`_scalar_bases`
    times the r x r identity, or the lifted p4m hat (r = 8) when
    ``where`` is "lifted", with a few drawn entries changed to real
    values, or to complex ones (at least one) when ``real`` is false."""
    if where == "lifted":
        t, dil, lifted = _lifted_hat()
        blocks = {e: [blk.row_list(a) for a in range(blk.rows)]
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
    denominator D equal D times the Fraction ones, exactly (the rows put
    through :func:`coset_differences`, every coset's moments read off the
    one dict by :func:`_coset_sums`, without their zero entries), and D
    is the lcm of the denominators of the coefficients.  Real and complex masks
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
    assert _coset_sums(table, dil.m) == {
        key: {mu: {ac: scale * x for ac, x in n.items()}
              for mu, n in moments.items()}
        for key, moments in _nonzero(reference).items()}
    for s in range(s_top + 1):
        assert accuracy_mod._block_row(mask, dil, table, s) == \
            coset_differences([{j: scale * x for j, x in row.items()}
                               for row in _fraction_block_row(
                                   mask, dil, reference, s)], dil.m)


# -- the sum-rule test's moments against the per-element loops they replace --

def _reference_sums(mask, triple, dilation, p):
    """The per-coset sums and the moment matrices M_[s,t] of the sum-rule
    test, accumulated element by element as sufficient_check did before
    it read the moment table: per_coset over the coset of the inverse's
    bare translation, and M_[s,t] = sum_b inner_b b_[t] from the sums on
    the coset of the translation itself (label 0 on both sides is the
    coset of the lattice M Z^d)."""
    d, r, m = triple.d, triple.order, dilation.m
    per_coset = {(b, a): [QC(0)] * m for b in range(r)
                 for s in range(p) for a in enumerate_degree(d, s)}
    inner = {}
    for e, blk in mask.items():
        sigma = inverse(e)
        i = dilation.translation_coset(sigma.k)
        c = blk.entry(0, 0)
        for s in range(p):
            x_s = eval_X(sigma.true_translation(), s)
            for j, a in enumerate(enumerate_degree(d, s)):
                key = (sigma.g, a)
                per_coset[key][i] = per_coset[key][i] + x_s.entry(j, 0) * c
        b = triple.inverse_table[e.g]
        i = dilation.translation_coset(e.k)
        for s in range(p):
            for t in range(s + 1):
                parts = inner.setdefault((b, s, t), [
                    Mat.zeros(dim_degree(d, s), dim_degree(d, t))
                    for _ in range(m)])
                q = build_Q_st(e.true_translation(), s, t)
                parts[i] = parts[i] + q.scale(c)
    mats = {}
    for s in range(p):
        for t in range(s + 1):
            acc = Mat.zeros(dim_degree(d, s), dim_degree(d, t))
            for b in range(r):
                if (b, s, t) in inner:
                    acc = acc + (inner[(b, s, t)][0]
                                 @ build_A_s(triple.group[b], t))
            mats[(s, t)] = acc
    return per_coset, mats


@seed(2026)
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["line", "p1m", "pm", "p4m", "pm-scaled",
                        "p2-sheared"]),
       st.integers(1, 3), st.booleans(), st.data())
def test_sum_rule_moments_match_the_per_element_loops(line, p1m, pm, where,
                                                      p, real, data):
    """sufficient_check's per-coset sums (per key, as multisets: the
    table labels a coset by the element, the reference by its bare
    translation), beta and moments_ok equal the per-element reference,
    and the first coset's block rows are D (I - M_[s,s] A_[s]) and
    -D M_[s,t] A_[t] for the reference moment matrices, D the common
    denominator of the coefficients.  Scalar bases of
    accuracy 2 to 4 with up to three entries changed, so that the
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

    assert rep.per_coset.keys() == per_coset.keys()
    assert all(Counter(rep.per_coset[key]) == Counter(sums)
               for key, sums in per_coset.items())
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
        blocks = {e: [blk.row_list(a) for a in range(blk.rows)]
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
        q.denominator for blk in v.blocks for i in range(blk.rows)
        for x in blk.row_list(i) for q in (x.re, x.im)))
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


# -- the sum-rule test on plain values against the QC one it replaced -------

def _reference_sufficient_check(mask, triple, dilation, p):
    """sufficient_check as it was on QC Mats: per-coset sums of the
    per-element moments from a build_A_s @ Mat.column product and a QC
    division per entry, every coset's block rows built, det of each diagonal block, then
    lhs.inverse() @ rhs for the chain, re-checked per degree against the
    dense per-coset reference (:func:`_condition_d_reference`)."""
    if mask.r != 1:
        raise MaskShapeError("the sum-rule test applies to multiplicity-1 "
                             f"masks, got r={mask.r}")
    if triple is not mask.triple or dilation.triple is not triple:
        raise ValueError("mask, triple and dilation must match")
    if p < 1:
        raise ValueError("target accuracy must be at least 1")
    d, r = triple.d, triple.order
    m = dilation.m
    notes = ["degree-s eigenvalue screen runs over 1 <= s < p; at s = 0 "
             "the screened matrix equals the scalar 1 whenever the sum "
             "rule holds"]

    total = sum((qc_face(blk.entry(0, 0)) for _, blk in mask.items()),
                QC(0))
    sum_rule_ok = total == m

    table = accuracy_mod._moments(mask, dilation, p)
    per_coset = {(b, a): [QC(0)] * m for b in range(r)
                 for s in range(p) for a in enumerate_degree(d, s)}
    for (i, g), moment in per_element_moments(mask, dilation,
                                              p).sums.items():
        for s in range(p):
            alphas = enumerate_degree(d, s)
            col = build_A_s(triple.group[g], s) @ Mat.column(
                [moment.get(a, {}).get((0, 0), 0) for a in alphas])
            for j, a in enumerate(alphas):
                key = (triple.inverse_table[g], a)
                per_coset[key][i] = qc_face(col.entry(j, 0)) / table.scale
    beta = {key: sums[0] for key, sums in per_coset.items()
            if len(set(sums)) == 1}
    moments_ok = len(beta) == len(per_coset)
    if not moments_ok:
        notes.append("per-coset moments disagree; see per_coset for the "
                     "offending sums")

    zero_alpha = (0,) * d
    beta0_consistent = True
    if moments_ok and sum_rule_ok:
        direct = {b: [QC(0)] * m for b in range(r)}
        for e, blk in mask.items():
            b = triple.inverse_table[e.g]
            i = dilation.translation_coset(e.k)
            direct[b][i] = direct[b][i] + qc_face(blk.entry(0, 0))
        beta0_consistent = all(
            len(set(direct[b] + [beta[(b, zero_alpha)]])) == 1
            for b in range(r))
        if not beta0_consistent:
            notes.append("alpha = 0 moments disagree between the two "
                         "coefficient indexings; the coset permutation "
                         "argument failed for this input")

    eigen_flags = {}
    degree_rows = []
    if moments_ok:
        start = 1
        for s in range(1, p):
            ds = dim_degree(d, s)
            rows = accuracy_mod._block_row(mask, dilation, table, s)[:ds]
            lhs = Mat.from_rows([[row.get(start + k, 0) for k in range(ds)]
                                 for row in rows])
            eigen_flags[s] = det(lhs) != 0
            degree_rows.append((start, rows, lhs))
            start += ds
    eigen_ok = all(eigen_flags.values())

    v_chain = None
    chain_zero = None
    conditions_ok = (sum_rule_ok and moments_ok and eigen_ok
                     and beta0_consistent)
    if conditions_ok:
        blocks = [Mat.identity(1)]
        chain = [QC(1)]
        for start, rows, lhs in degree_rows:
            rhs = Mat.column([sum((-x * chain[j] for j, x in row.items()
                                   if j < start), QC(0)) for row in rows])
            blocks.append(lhs.inverse() @ rhs)
            chain += [qc_face(blocks[-1].entry(k, 0))
                      for k in range(lhs.rows)]
        v_chain = VCollection(d, tuple(blocks))
        chain_zero = all(
            _condition_d_reference(mask, dilation, v_chain, s, i).is_zero()
            for s in range(p) for i in range(m))
        if not chain_zero:
            notes.append("the recursive witness fails the per-coset "
                         "conditions; this indicates an internal "
                         "inconsistency")

    passed = bool(conditions_ok and chain_zero)
    return accuracy_mod.SufficientReport(
        p=p, sum_total=total, sum_rule_ok=sum_rule_ok, beta=beta,
        per_coset=per_coset, moments_ok=moments_ok,
        eigen_flags=eigen_flags, eigen_ok=eigen_ok,
        beta0_consistent=beta0_consistent, v_chain=v_chain,
        chain_residual_zero=chain_zero, passed=passed, notes=tuple(notes))


def _assert_same_report(got, want):
    """Every SufficientReport field equal, and of the same type: in
    sum_total, beta and per_coset each scalar of the type of want's, a
    VCollection of Mats or None in v_chain, bools in the flags.  A QC
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
    """sufficient_check on plain values gives the report of the QC
    reference, field for field and type for type.  A scalar base of
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
        _reference_sufficient_check(mask, t, dil, p)))


@pytest.mark.parametrize("where", sorted(SCREEN_CASES))
def test_sufficient_report_equals_the_qc_reference_on_the_screen_cases(
        where):
    """The masks of the eigenvalue-screen cases, with weights that make
    the screen fail and pass, under 2I and the quincunx, over Z^2 and
    over non-integer lattices: the report equals the QC reference's,
    field for field."""
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
                                stored_report(_reference_sufficient_check(
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
    hand out the values the former QC face gave (kept in conftest), as
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
                assert_stored_face(blk.entry(i, j), qc_face(blk.plain()[i][j]))
        for m in (blk, Mat.from_rows([blk.plain()[0]] * r), Mat.zeros(r, r)):
            assert_stored_face(det(m), former_det(m))
        x = [data.draw(coordinate) for _ in range(t.d)]
        for got, former in zip(apply_element(e, x),
                               former_apply_element(e, x), strict=True):
            assert_stored_face(got, former)
    cert = max_accuracy(mask, t, dil, p_max=2)
    if cert.witness is not None:
        assert_stored_face(cert.gate, former_gate(mask, dil, cert.witness))
    if r == 1:
        p = data.draw(st.integers(1, 2))
        rep = sufficient_check(mask, t, dil, p)
        ref = _reference_sufficient_check(mask, t, dil, p)
        assert_stored_face(rep.sum_total, ref.sum_total)
        assert rep.beta.keys() == ref.beta.keys()
        for key, former in ref.beta.items():
            assert_stored_face(rep.beta[key], former)
        assert rep.per_coset.keys() == ref.per_coset.keys()
        for key, formers in ref.per_coset.items():
            for got, former in zip(rep.per_coset[key], formers, strict=True):
                assert_stored_face(got, former)


# -- block rows on the shared shift pattern, and the kept moment table ------

def _inline_block_row(mask, dilation, table, s):
    """Block row s as _block_row built it before it read the shift
    pattern, every coset's block stacked: the test beta <= alpha,
    alpha - beta and the binomial recomputed for every (coset, point
    part, t, beta, alpha), the per-coset sums read off
    :func:`per_element_moments`."""
    d, r = mask.triple.d, mask.r
    starts = [0]
    for t in range(s):
        starts.append(starts[-1] + dim_degree(d, t) * r)
    alphas = enumerate_degree(d, s)
    rows = [[{starts[s] + k: table.scale} for k in range(len(alphas) * r)]
            for _ in range(dilation.m)]
    sums = per_element_moments(mask, dilation, table.p_max).sums
    leads = reference_leads(mask.triple, dilation, {b for _, b in sums},
                            s + 1)
    for (i, b), moment in sums.items():
        block = rows[i]
        for t in range(s + 1):
            for beta, lead in zip(enumerate_degree(d, t), leads[(b, t)]):
                for row0, alpha in enumerate(alphas):
                    if any(k > n for n, k in zip(alpha, beta)):
                        continue
                    n_mu = moment.get(
                        tuple(n - k for n, k in zip(alpha, beta)), {})
                    binom = prod(comb(n, k) for n, k in zip(alpha, beta))
                    for k, x in lead:
                        col0, bx = starts[t] + k * r, binom * x
                        for (a, c), y in n_mu.items():
                            row = block[row0 * r + a]
                            value = row.get(col0 + c, 0) - bx * y
                            if value == 0:
                                row.pop(col0 + c, None)
                            else:
                                row[col0 + c] = value
    return [row for block in rows for row in block]


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
    empty N_mu, equals for every degree s < 5 the inline loop it replaced,
    its stacked blocks put through :func:`coset_differences`, on d = 1, 2
    and 3, r = 1 and 2, int, rational and complex masks, R = I and
    R != I."""
    t, dil = _kept_case(line, p1m, where)
    mask = Mask(t, _random_blocks(t, r, kind, rnd), r=r)
    table = accuracy_mod._moments(mask, dil, 5)
    for s in range(5):
        assert accuracy_mod._block_row(mask, dil, table, s) == \
            coset_differences(_inline_block_row(mask, dil, table, s),
                              dil.m)


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
    lists, has the scale of the per-element loop it replaced, no leads
    until the block rows read them and that loop's leads after, and one
    dict of moments: coset 0's non-zero sums (the per-element loop
    kept an empty N_mu for every mu and every exact-zero sum it reached),
    and every other coset's differences from them, entry by entry.  Coset
    0's sum plus a coset's difference is that coset's sum, for every
    coset: d = 1, 2 and 3, r = 1 and 2, int, rational and complex masks,
    R = I and R != I, with several point parts on one lattice point."""
    t, dil = _kept_case(line, p1m, where)
    blocks = _random_blocks(t, r, kind, rnd)
    for e in list(blocks):
        blocks[t.element(rnd.randrange(t.order), e.k)] = blocks[e]
    mask = Mask(t, blocks, r=r)
    table = accuracy_mod._moments(mask, dil, p_max)
    ref = per_element_moments(mask, dil, p_max)
    assert (table.p_max, table.scale, table.leads) == \
        (ref.p_max, ref.scale, {})
    coset_0 = {key: moments for key, moments in _nonzero(ref.sums).items()
               if key[0] == 0}
    assert table.moments == {**coset_0, **ref.diffs}
    assert _coset_sums(table, dil.m) == _nonzero(ref.sums)
    for s in range(p_max):
        accuracy_mod._block_row(mask, dil, table, s)
    assert table.leads == {(b, t): ref.leads[(b, t)]
                           for b in {b for _, b in table.moments}
                           for t in range(p_max)}


def _assert_same_certificate(cert, ref):
    assert cert.p == ref.p and cert.gate == ref.gate
    assert cert.witness == ref.witness
    assert cert.diagnostics == ref.diagnostics


@seed(2026)
@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["line", "p1m", "pm", "p4m", "pm-scaled",
                        "p2-sheared"]),
       st.sampled_from([1, 2]), st.booleans(), st.data())
def test_max_accuracy_on_the_integral_kernel_matches_the_rref_kernel(
        line, p1m, pm, where, r, real, data):
    """max_accuracy carrying the integral kernel gives the accuracy,
    kernel dimensions, first failing degree, witness and gate that it gave
    carrying the rref kernel (the reference solve_affine): masks of
    accuracy 2 to 4 with drawn entries changed, real and complex, r = 1
    and 2, over p1, p1m, pm, p4m, a scaled pm lattice and a sheared p2
    one."""
    t, dil, mask = _changed_mask(line, p1m, pm, where, r, real, data)
    p_max = 4 if t.d == 1 else 3
    cert = max_accuracy(mask, t, dil, p_max)
    with mock.patch.object(accuracy_mod, "solve_affine", rref_solve_affine):
        ref = max_accuracy(Mask(t, dict(mask.items()), r=r), t, dil, p_max)
    _assert_same_certificate(cert, ref)


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
    blocks = _random_blocks(t, r, kind, rnd)
    cert = max_accuracy(Mask(t, blocks, r=r), t, dil, 3)
    with mock.patch.object(accuracy_mod, "solve_affine", rref_solve_affine):
        ref = max_accuracy(Mask(t, blocks, r=r), t, dil, 3)
    _assert_same_certificate(cert, ref)


# -- coset 0 and the coset differences against the stacked coset blocks ----

def _typed(rows):
    """Sparse rows with each value paired with its type."""
    return [{j: (type(x), x) for j, x in row.items()} for row in rows]


@seed(2026)
@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["line", "p1m", "pm", "p4m", "pm-scaled",
                        "p2-sheared", "line-3", "p2-cyclic", "lifted"]),
       st.sampled_from([1, 2]), st.booleans(), st.data())
def test_coset_differences_match_the_stacked_coset_blocks(
        line, p1m, pm, where, r, real, data):
    """The block rows of coset 0 and of the coset differences span the
    row space of the m stacked coset blocks they replace (the systems up
    to every degree have one rref), and max_accuracy on them gives the
    certificate and, type for type, the carried bases it gives on the
    stacked blocks (the reference _block_row): masks of accuracy 2 to 4
    with drawn entries changed, real and complex, r = 1, 2 and 8 (the
    lifted p4m hat), over p1, p1m, pm, p4m, a scaled pm lattice and a
    sheared p2 one, and under A = 3 and M = [[2, 1], [0, 2]]."""
    t, dil, mask = _changed_mask(line, p1m, pm, where, r, real, data)
    s_top = 3 if t.d == 1 else 2
    table = accuracy_mod._moments(mask, dil, s_top + 1)
    rows, stacked, width = [], [], 0
    for s in range(s_top + 1):
        rows += accuracy_mod._block_row(mask, dil, table, s)
        stacked += stacked_block_row(mask, dil, table, s)
        width += dim_degree(t.d, s) * mask.r
        assert _rref(rows, width) == _rref(stacked, width)

    def scan(block_row):
        bases = []

        def spy(system, basis):
            bases.append(solve_affine(system, basis))
            return bases[-1]

        with mock.patch.object(accuracy_mod, "solve_affine", spy), \
                mock.patch.object(accuracy_mod, "_block_row", block_row):
            cert = max_accuracy(Mask(t, dict(mask.items()), r=mask.r), t,
                                dil, s_top + 1)
        return cert, [(b.cols, _typed(b.data)) for b in bases]

    cert, bases = scan(accuracy_mod._block_row)
    ref, ref_bases = scan(stacked_block_row)
    _assert_same_certificate(cert, ref)
    assert bases == ref_bases


@seed(2026)
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KEPT_CASES + ["lifted"]), st.sampled_from([1, 2]),
       st.booleans(), st.data())
def test_one_moment_dict_matches_the_two_field_table(line, p1m, pm, where,
                                                     r, real, data):
    """The one moment dict and the one-pass block row give, for all cosets
    at once, the rows of the two-field table and the coset-forked block
    row they replace (both kept in conftest), and max_accuracy and
    sufficient_check on them give the certificate, the carried bases and
    the report, field for field and type for type, that they give on the
    two-field path: masks of accuracy 2 to 4 with drawn entries changed,
    real and complex, r = 1, 2 and 8 (the lifted p4m hat), on d = 1, 2
    and 3, R = I and R != I, and under A = 3 and M = [[2, 1], [0, 2]].
    The report is checked at every p up to the scan's bound, on the
    table the scan kept, built for a larger degree than most p ask."""
    t, dil, mask = _changed_mask(line, p1m, pm, where, r, real, data)
    p_max = 4 if t.d == 1 else 3
    old = two_field_moments(mask, dil, p_max)
    new = accuracy_mod._moments(mask, dil, p_max)
    for s in range(p_max):
        assert accuracy_mod._block_row(mask, dil, new, s) == \
            without_repeats(two_field_block_row(mask, dil, old, s),
                            dim_degree(t.d, s) * mask.r)

    def scan(moments, block_row):
        bases = []

        def spy(system, basis):
            bases.append(solve_affine(system, basis))
            return bases[-1]

        with mock.patch.object(accuracy_mod, "solve_affine", spy), \
                mock.patch.object(accuracy_mod, "_moments", moments), \
                mock.patch.object(accuracy_mod, "_block_row", block_row):
            cert = max_accuracy(Mask(t, dict(mask.items()), r=mask.r), t,
                                dil, p_max)
        return cert, [(b.cols, _typed(b.data)) for b in bases]

    cert, bases = scan(accuracy_mod._moments, accuracy_mod._block_row)
    ref, ref_bases = scan(two_field_moments, two_field_block_row)
    _assert_same_certificate(cert, ref)
    assert bases == ref_bases
    if mask.r == 1:
        for p in range(1, p_max + 1):
            _assert_same_report(sufficient_check(mask, t, dil, p),
                                two_field_sufficient_check(mask, t, dil, p))
