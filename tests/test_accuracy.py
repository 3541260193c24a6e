"""Accuracy solvers: exact kernels, sum rules, and cross-verification."""

from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

import crystacc.accuracy as accuracy_mod
from crystacc.accuracy import (condition_d_residual, fhat0, max_accuracy,
                               sufficient_check, verify_equivalence)
from crystacc.crystal import (catalog_triple, check_admissible, inverse,
                              validate_triple)
from crystacc.linalg import Mat, QC, det, kron, solve_affine
from crystacc.mask import Mask, MaskShapeError, lift_scalar_to_matrix
from crystacc.multiidx import (VCollection, build_A_s, build_Q_st,
                               build_Q_tilde, dim_degree, enumerate_degree,
                               eval_X)


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
    assert isinstance(cert.gate, QC) and cert.gate == QC(1)
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
    assert not cert.gate.is_zero()


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
    assume(not det(s_mat).is_zero())
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
    assert isinstance(exact.gate, QC)
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


def _assert_matches_dense_assembly(mask, triple, dilation, s_top):
    """The stacked systems built from block rows equal the dense reference
    entry for entry for every degree up to s_top, and max_accuracy gives
    the same certificate whether it solves its own systems or the
    reference ones."""
    d, r = triple.d, mask.r
    moments = accuracy_mod._moments(mask, dilation, s_top + 1)
    rows, width = [], 0
    for s in range(s_top + 1):
        rows += accuracy_mod._block_row(mask, dilation, moments, s)
        width += dim_degree(d, s) * r
        assert all(not x.is_zero() for row in rows for x in
                   map(QC.parse, row.values()))
        assert (accuracy_mod._layout(rows, width)
                == _assemble_reference(mask, dilation, s))

    seen = []

    def reference_solve(system, selected):
        ref = _assemble_reference(mask, dilation, len(seen))
        seen.append(system == ref)
        return solve_affine(ref, selected)

    cert = max_accuracy(mask, triple, dilation, p_max=s_top + 1)
    with mock.patch.object(accuracy_mod, "solve_affine", reference_solve):
        ref = max_accuracy(mask, triple, dilation, p_max=s_top + 1)
    assert all(seen)
    assert (cert.p, cert.witness, cert.gate, cert.diagnostics) == \
        (ref.p, ref.witness, ref.gate, ref.diagnostics)


def _triple_on(group, lattice):
    """A catalog point group over the lattice basis ``lattice``, A = 2I."""
    t = catalog_triple(group, 2)
    t = validate_triple(Mat.from_rows(lattice), t.group, name=group)
    return t, check_admissible(Mat.from_rows([[2, 0], [0, 2]]), t)


P4M = _triple_on("p4m", [[1, 0], [0, 1]])
PM_SCALED = _triple_on("pm", [[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
P2_SHEARED = _triple_on("p2", [[1, Fraction(1, 2)], [0, 1]])


def _spread(where, lattice_mask):
    """The lattice mask spread evenly over the point parts of a triple."""
    t, dil = where
    return t, dil, {t.element(g, k): c / t.order for g in range(t.order)
                    for k, c in lattice_mask.items()}


def _scalar_bases(line, p1m, pm):
    """(triple, dilation, {element: scalar}) of masks with accuracy 2 to
    4, so that the scan reaches the higher degrees.  The 2D tensor hat
    is invariant under every point group here, so its spreads keep
    accuracy 2, on a scaled lattice too."""
    h = Fraction(1, 2)
    cubic = {(-2,): Fraction(1, 8), (-1,): h, (0,): Fraction(3, 4),
             (1,): h, (2,): Fraction(1, 8)}
    hat = {(-1,): h, (0,): Fraction(1), (1,): h}
    hat2 = {(i, j): a * b for (i,), a in hat.items()
            for (j,), b in hat.items()}
    return {
        "line": _spread(line, cubic),
        "p1m": _spread(p1m, hat),
        "pm": _spread(pm, hat2),
        "p4m": _spread(P4M, hat2),
        "pm-scaled": _spread(PM_SCALED, hat2),
        "p2-sheared": _spread(P2_SHEARED, hat2),
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


def test_lifted_hat_block_rows_match_the_dense_assembly():
    """The p4m hat lifted to an r = 8 lattice mask, degrees up to 3."""
    t = catalog_triple("p4m", 2)
    dil = check_admissible(Mat.from_rows([[2, 0], [0, 2]]), t)
    hat = {-1: Fraction(1, 2), 0: Fraction(1), 1: Fraction(1, 2)}
    scalar = Mask.scalar(t, {(g, (i, j)): a * b / 8 for g in range(8)
                             for i, a in hat.items() for j, b in hat.items()})
    lifted = lift_scalar_to_matrix(scalar, dil)
    lat = lifted.triple
    lat_dil = check_admissible(Mat.from_rows([[2, 0], [0, 2]]), lat)
    assert lifted.r == 8
    _assert_matches_dense_assembly(lifted, lat, lat_dil, 3)


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
    and the first coset's block rows are I - M_[s,s] A_[s] and
    -M_[s,t] A_[t] for the reference moment matrices.  Scalar bases of
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

    moments = accuracy_mod._moments(mask, dil, p)
    width = 0
    for s in range(p):
        ds = dim_degree(t.d, s)
        width += ds
        rows = accuracy_mod._block_row(mask, dil, moments, s)[:ds]
        dense = accuracy_mod._layout(rows, width)
        start = 0
        for tt in range(s + 1):
            dt = dim_degree(t.d, tt)
            got = Mat.from_rows([[dense.entry(j, start + k)
                                  for k in range(dt)] for j in range(ds)])
            lead = mats[(s, tt)] @ build_A_s(dil.A, tt)
            assert got == (Mat.identity(ds) - lead if tt == s else -lead)
            start += dt
