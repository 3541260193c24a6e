"""Graded monomial bases and the shift/dilation operator blocks."""

import gc
import random
import re
import weakref
from fractions import Fraction

import hypothesis
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystacc import cascade
from crystacc.accuracy import max_accuracy
from crystacc.crystal import (catalog_triple, check_admissible, compose,
                              generate_group, validate_triple)
from crystacc.linalg import Mat, QC
from crystacc.mask import Mask
from crystacc.multiidx import (VCollection, _acted_rows, _shift_rows,
                               build_A_s, build_Q_st, build_Q_tilde,
                               dim_degree, enumerate_degree, eval_X, eval_y)

from conftest import rand_fraction, rand_point


def test_enumerate_counts():
    assert len(enumerate_degree(2, 3)) == 4
    assert len(enumerate_degree(1, 7)) == 1
    assert len(enumerate_degree(3, 2)) == 6


def test_enumerate_descending_lex():
    # documented global ordering: in d=2, s=2 it reads x^2, xy, y^2
    assert list(enumerate_degree(2, 2)) == [(2, 0), (1, 1), (0, 2)]
    idx = list(enumerate_degree(3, 2))
    assert idx == sorted(idx, reverse=True)


def test_dim_degree_matches_enumeration():
    for d in (1, 2, 3):
        for s in range(5):
            assert dim_degree(d, s) == len(enumerate_degree(d, s))


def test_eval_X_basics():
    assert eval_X((Fraction(7, 3),), 0).entry(0, 0) == QC(1)
    x = (Fraction(2), Fraction(-5, 2))
    col = eval_X(x, 1)
    assert [col.entry(i, 0) for i in range(2)] == list(x)
    col2 = eval_X((Fraction(2), Fraction(3)), 2)
    assert [col2.entry(i, 0) for i in range(3)] == [4, 6, 9]


def test_build_A_s_examples():
    two_i = Mat.from_rows([[2, 0], [0, 2]])
    a2 = build_A_s(two_i, 2)
    assert a2 == Mat.identity(3).scale(QC(4))
    any_a = Mat.from_rows([[1, 2], [3, 4]])
    assert build_A_s(any_a, 1) == any_a
    shear = Mat.from_rows([[1, 1], [0, 1]])
    assert build_A_s(shear, 2) == Mat.from_rows([[1, 2, 1], [0, 1, 1],
                                                 [0, 0, 1]])


def test_build_Q_st_examples():
    y = (Fraction(1, 3), Fraction(2))
    assert build_Q_st(y, 2, 2) == Mat.identity(3)
    q20 = build_Q_st(y, 2, 0)
    expect = eval_X(y, 2)
    for i in range(3):
        assert q20.entry(i, 0) == expect.entry(i, 0)  # (-1)^2 = +1
    q10 = build_Q_st((Fraction(5),), 1, 0)
    assert q10.entry(0, 0) == QC(-5)
    q21 = build_Q_st((Fraction(3, 2),), 2, 1)
    assert q21.entry(0, 0) == QC(-3)  # -2y


def test_build_Q_st_rejects_t_above_s():
    with pytest.raises(ValueError):
        build_Q_st((Fraction(1),), 1, 2)


def test_q_tilde_translation_only(line):
    t, _ = line
    gamma = t.element(0, (4,))
    for s in range(3):
        for tt in range(s + 1):
            assert build_Q_tilde(gamma, s, tt) == \
                build_Q_st(gamma.true_translation(), s, tt)


def test_q_tilde_point_only(p1m):
    t, _ = p1m
    gamma = t.element(1, (0,))  # reflection, no translation
    assert build_Q_tilde(gamma, 2, 1).is_zero()
    b_inv = gamma.point_matrix_inverse()
    assert build_Q_tilde(gamma, 2, 2) == build_A_s(b_inv, 2)


def test_eval_y_degree_zero(line, rng):
    t, _ = line
    v = VCollection(1, (Mat.from_rows([[1]]), Mat.from_rows([[7]])))
    for _ in range(5):
        gamma = t.element(0, (rng.randint(-9, 9),))
        assert eval_y(gamma, v, 0) == v.block(0)


def test_eval_y_identity_element(p1m):
    t, _ = p1m
    v = VCollection(1, (Mat.from_rows([[1]]), Mat.from_rows([[Fraction(2, 3)]])))
    ident = t.identity()
    assert eval_y(ident, v, 1) == v.block(1)


def test_eval_y_unit_translation(line):
    """v = (1, 0) against the unit shift: y_[1] = Q_[1,0](1) = -1."""
    t, _ = line
    v = VCollection(1, (Mat.from_rows([[1]]), Mat.from_rows([[0]])))
    tau1 = t.element(0, (1,))
    assert eval_y(tau1, v, 1).entry(0, 0) == QC(-1)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(0, 4), st.integers(0, 10 ** 6))
def test_shift_expansion_identity(d, s, seed):
    """X_[s](x - y) = sum_t Q_[s,t](y) X_[t](x) exactly."""
    rng = random.Random(seed)
    x = rand_point(rng, d)
    y = rand_point(rng, d)
    shifted = eval_X(tuple(a - b for a, b in zip(x, y)), s)
    acc = Mat.zeros(dim_degree(d, s), 1)
    for t in range(s + 1):
        acc = acc + build_Q_st(y, s, t) @ eval_X(x, t)
    assert shifted == acc


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 10 ** 6))
def test_q_dilation_covariance(d, s, seed):
    """Q_[s,t](Az) = A_[s] Q_[s,t](z) A_[t]^{-1} for invertible A."""
    rng = random.Random(seed)
    while True:
        a = Mat.from_rows([[rand_fraction(rng, 3, 2) for _ in range(d)]
                           for _ in range(d)])
        from crystacc.linalg import det
        if det(a) != 0:
            break
    z = rand_point(rng, d)
    az = tuple((a @ Mat.column(list(z))).entry(i, 0) for i in range(d))
    for t in range(s + 1):
        lhs = build_Q_st(az, s, t)
        rhs = build_A_s(a, s) @ build_Q_st(z, s, t) @ build_A_s(a, t).inverse()
        assert lhs == rhs


@settings(max_examples=25, deadline=None)
@given(s=st.integers(0, 3), seed=st.integers(0, 10 ** 6))
def test_cocycle_on_pm(pm, s, seed):
    """y_[s](g1 g2) = sum_t Qt_[s,t](g2) y_[t](g1)."""
    t, _ = pm
    rng = random.Random(seed)
    blocks = tuple(Mat.from_rows([[rand_fraction(rng) for _ in range(1)]
                                  for _ in range(dim_degree(2, j))])
                   for j in range(s + 1))
    v = VCollection(2, blocks)
    g1 = t.element(rng.randrange(t.order), (rng.randint(-4, 4),
                                            rng.randint(-4, 4)))
    g2 = t.element(rng.randrange(t.order), (rng.randint(-4, 4),
                                            rng.randint(-4, 4)))
    lhs = eval_y(compose(g1, g2), v, s)
    acc = Mat.zeros(dim_degree(2, s), 1)
    for tt in range(s + 1):
        acc = acc + build_Q_tilde(g2, s, tt) @ eval_y(g1, v, tt)
    assert lhs == acc


def _q_tilde_triple(case):
    """A fresh triple with rotations and reflections, on an integral or a
    non-integral lattice."""
    if case == "oh-3d":
        gens = [[[0, 1, 0], [1, 0, 0], [0, 0, 1]],
                [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
                [[-1, 0, 0], [0, 1, 0], [0, 0, 1]]]
        return validate_triple(Mat.identity(3), generate_group(
            [Mat.from_rows(g) for g in gens]))
    name, dim, lattice = {
        "p1m": ("p1m", 1, None),
        "p1m-thirds": ("p1m", 1, [[Fraction(2, 3)]]),
        "p4m": ("p4m", 2, None),
        "p4m-thirds": ("p4m", 2, [[Fraction(1, 3), 0], [0, Fraction(1, 3)]]),
        "pm-diagonal": ("pm", 2, [[Fraction(1, 2), 0],
                                  [0, Fraction(1, 3)]]),
        "p2-shear": ("p2", 2, [[1, Fraction(1, 2)], [0, 1]]),
    }[case]
    t = catalog_triple(name, dim)
    if lattice is None:
        return t
    return validate_triple(Mat.from_rows(lattice), t.group)


@hypothesis.seed(2026)
@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["oh-3d", "p1m", "p1m-thirds", "p4m", "p4m-thirds",
                        "pm-diagonal", "p2-shear"]),
       st.integers(0, 3), st.randoms(use_true_random=False))
def test_plain_q_tilde_equals_the_dense_product(case, s, rnd):
    """build_Q_tilde, built on plain values, equals the dense exact product
    Q_[s,t](l) (b^{-1})_[t] for every t <= s, on integral and non-integral
    lattices alike."""
    t = _q_tilde_triple(case)
    gamma = t.element(rnd.randrange(t.order),
                      [rnd.randint(-4, 4) for _ in range(t.d)])
    for tt in range(s + 1):
        want = (build_Q_st(gamma.true_translation(), s, tt)
                @ build_A_s(gamma.point_matrix_inverse(), tt))
        assert build_Q_tilde(gamma, s, tt) == want


@hypothesis.seed(2026)
@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 3), st.integers(1, 3),
       st.randoms(use_true_random=False))
def test_shift_rows_sums_the_dense_shifts(d, s, width, rnd):
    """_shift_rows over several degrees at once equals the sum of the
    dense products Q_[s,t](l) B_t, with l and B_t mixing ints and
    Fractions."""
    def value():
        return rnd.choice([rnd.randint(-3, 3),
                           Fraction(rnd.randint(-3, 3), rnd.randint(1, 4))])

    l = [value() for _ in range(d)]
    degrees = [t for t in range(s + 1) if rnd.random() < 0.7] or [s]
    blocks = {t: [[value() for _ in range(width)]
                  for _ in range(dim_degree(d, t))] for t in degrees}
    want = None
    for t, rows in blocks.items():
        term = build_Q_st(l, s, t) @ Mat.from_rows(rows)
        want = term if want is None else want + term
    got = _shift_rows([-x for x in l], s, blocks)
    assert Mat.from_rows(got, cols=width) == want


@hypothesis.seed(2026)
@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["oh-3d", "p1m", "p1m-thirds", "p4m", "p4m-thirds",
                        "pm-diagonal", "p2-shear"]),
       st.integers(0, 3), st.integers(1, 2), st.booleans(),
       st.randoms(use_true_random=False))
def test_eval_y_equals_the_dense_q_tilde_sum(case, s, r, complex_v, rnd):
    """eval_y, the binomial shift of the rows (b^{-1})_[t] v_[t], equals
    sum_t build_Q_tilde(gamma, s, t) @ v_[t] exactly, and the cascade's
    float y_[s] equals the same sum in floats to 1e-12 relative, on
    integral and non-integral lattices, for real and complex v and
    r = 1, 2."""
    t = _q_tilde_triple(case)

    def value():
        def part():
            return Fraction(rnd.randint(-5, 5), rnd.randint(1, 4))
        return QC(part(), part()) if complex_v else QC(part())

    v = VCollection(t.d, tuple(
        Mat.from_rows([[value() for _ in range(r)]
                       for _ in range(dim_degree(t.d, j))])
        for j in range(s + 1)))
    gamma = t.element(rnd.randrange(t.order),
                      [rnd.randint(-4, 4) for _ in range(t.d)])
    want = None
    for tt in range(s + 1):
        term = build_Q_tilde(gamma, s, tt) @ v.block(tt)
        want = term if want is None else want + term
    assert eval_y(gamma, v, s) == want
    fv = tuple(b.np() for b in v.blocks)
    acted = _acted_rows(t.inverses, [b.tolist() for b in fv])
    got = sum(cascade._y_terms(gamma, s, acted))
    ref = sum(build_Q_tilde(gamma, s, tt).np() @ fv[tt]
              for tt in range(s + 1))
    assert got.shape == ref.shape == (dim_degree(t.d, s), r)
    assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0,
                                                    np.max(np.abs(ref)))


def test_vcollection_shape_checks():
    with pytest.raises(ValueError):
        VCollection(2, (Mat.from_rows([[1]]), Mat.from_rows([[1]])))


def test_dropped_triple_is_garbage_collected():
    """No module-level cache keeps a triple alive after its last user
    lets go."""
    t = catalog_triple("p1m", 1)
    dil = check_admissible(Mat.from_rows([[2]]), t)
    mask = Mask.scalar(t, {(g, (k,)): Fraction(c, 4) for g in (0, 1)
                           for k, c in ((-1, 1), (0, 2), (1, 1))})
    assert max_accuracy(mask, t, dil, p_max=3).p == 2
    ref = weakref.ref(t)
    del t, dil, mask
    gc.collect()
    assert ref() is None


def _v(*blocks):
    return VCollection(1, tuple(Mat.from_rows(b) for b in blocks))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: enumerate_degree(0, 1),
                 "dimension must be positive", id="dimension-0"),
    pytest.param(lambda: enumerate_degree(1, -1),
                 "degree must be nonnegative", id="negative-degree"),
    pytest.param(lambda: build_A_s(Mat.from_rows([[1, 2]]), 1),
                 "square matrix required", id="non-square-action"),
    pytest.param(lambda: build_Q_tilde(
        catalog_triple("p1", 1).identity(), 0, 1),
                 "Q~_[s,t] requires t <= s", id="q-tilde-above-s"),
    pytest.param(lambda: _v(), "empty collection", id="empty-collection"),
    pytest.param(lambda: _v([[1]], [[1, 2]]), "inconsistent blocks",
                 id="blocks-of-two-widths"),
    pytest.param(lambda: eval_y(catalog_triple("p1", 1).identity(),
                                _v([[1]]), 1),
                 "degree 1 needs v blocks up to 1", id="y-above-v"),
])
def test_library_refusals(call, message):
    """The degree builders, VCollection and eval_y refuse arguments out of
    their range with ValueError and their own message."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        call()
    assert info.type is ValueError
