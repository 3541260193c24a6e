"""Exact and floating linear algebra: kernels, Smith form, eigenvalue-1."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from crystacc.linalg import (Mat, QC, det, has_eigenvalue_one, integer_rows,
                             kernel_basis, kron, rank, smith_normal_form,
                             solve_affine)


def test_qc_exact_arithmetic():
    a = QC(Fraction(1, 3))
    b = QC(Fraction(1, 6))
    assert a + b == QC(Fraction(1, 2))
    assert (a * b).re == Fraction(1, 18)
    # complex multiplication stays exact
    z = QC(Fraction(1, 2), Fraction(1, 2))
    w = z * z
    assert w.re == 0 and w.im == Fraction(1, 2)


def test_qc_rejects_floats():
    with pytest.raises(TypeError):
        QC(0.5)


def test_qc_parse_forms():
    assert QC.parse("3/4").re == Fraction(3, 4)
    assert QC.parse(2) == QC(2)
    assert QC.parse(["1/2", "-1/3"]) == QC(Fraction(1, 2), Fraction(-1, 3))


def test_mat_inverse_det_exact():
    m = Mat.from_rows([[1, 2], [3, 4]])
    assert det(m) == QC(-2)
    inv = m.inverse()
    assert (m @ inv) == Mat.identity(2)


def test_kernel_identity_trivial():
    assert kernel_basis(Mat.identity(2)) == []


def test_kernel_zero_matrix():
    basis = kernel_basis(Mat.zeros(2, 2))
    assert len(basis) == 2


def test_kernel_rank_one():
    m = Mat.from_rows([[1, 1], [1, 1]])
    basis = kernel_basis(m)
    assert len(basis) == 1
    v = basis[0]
    # proportional to (1, -1)
    assert v.entry(0, 0) == -v.entry(1, 0)
    assert (m @ v).is_zero()


def test_kernel_float_backend():
    m = Mat.from_array(np.array([[1.0, 1.0], [1.0, 1.0]]))
    basis = kernel_basis(m)
    assert len(basis) == 1
    assert np.max(np.abs((m @ basis[0]).np())) < 1e-9


def test_has_eigenvalue_one_cases():
    assert has_eigenvalue_one(Mat.identity(3))
    assert not has_eigenvalue_one(Mat.identity(3).scale(QC(2)))
    assert has_eigenvalue_one(Mat.from_rows([[0, 1], [1, 0]]))


def test_has_eigenvalue_one_rejects_nonsquare():
    with pytest.raises(ValueError):
        has_eigenvalue_one(Mat.zeros(2, 3))


def test_smith_diag():
    u, s, v = smith_normal_form([[2, 0], [0, 2]])
    assert s == [[2, 0], [0, 2]]


def test_smith_triangular():
    m = [[1, 1], [0, 2]]
    u, s, v = smith_normal_form(m)
    assert s == [[1, 0], [0, 2]]
    assert _mul(_mul(u, m), v) == s
    assert abs(_int_det(u)) == 1 and abs(_int_det(v)) == 1


def test_smith_1x1():
    _, s, _ = smith_normal_form([[3]])
    assert s == [[3]]


def test_smith_rejects_singular():
    with pytest.raises(ValueError):
        smith_normal_form([[1, 1], [1, 1]])


def _mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def _int_det(m):
    return round(det(Mat.from_rows(m)).re)


def test_solve_affine_examples():
    basis, proj = solve_affine(Mat.zeros(1, 2), [0])
    assert proj == 1
    _, proj = solve_affine(Mat.from_rows([[1, 0]]), [0])
    assert proj == 0
    basis, proj = solve_affine(Mat.from_rows([[1, -1]]), [0])
    assert proj == 1
    assert basis[0].entry(0, 0) == basis[0].entry(1, 0)


def test_kron_mixed_products():
    a = Mat.from_rows([[1, 2], [0, 1]])
    b = Mat.from_rows([[3, 0], [1, 1]])
    x = Mat.column([1, 2])
    y = Mat.column([Fraction(1, 2), 1])
    left = kron(a, b) @ kron_vec(x, y)
    right = kron_vec(a @ x, b @ y)
    assert left == right


def kron_vec(x: Mat, y: Mat) -> Mat:
    rows = []
    for i in range(x.rows):
        for j in range(y.rows):
            rows.append([x.entry(i, 0) * y.entry(j, 0)])
    return Mat.from_rows(rows)


small_fraction = st.fractions(min_value=-3, max_value=3,
                              max_denominator=4)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(2, 8), st.data())
def test_rank_nullity(rows, cols, data):
    """rank + kernel dimension = column count for exact matrices."""
    entries = [[QC(data.draw(small_fraction)) for _ in range(cols)]
               for _ in range(rows)]
    m = Mat.from_rows(entries)
    assert rank(m) + len(kernel_basis(m)) == cols


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10 ** 6))
def test_smith_random_integer(n, seed):
    rng = random.Random(seed)
    while True:
        m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        if det(Mat.from_rows(m)) != QC(0):
            break
    u, s, v = smith_normal_form(m)
    assert _mul(_mul(u, m), v) == s
    assert abs(_int_det(u)) == 1 and abs(_int_det(v)) == 1
    divisors = [s[i][i] for i in range(n)]
    assert all(x > 0 for x in divisors)
    for a, b in zip(divisors, divisors[1:]):
        assert b % a == 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_eigenvalue_one_vs_characteristic(data):
    """Agreement with a direct det(M - I) = 0 evaluation on 3x3."""
    entries = [[QC(data.draw(small_fraction)) for _ in range(3)]
               for _ in range(3)]
    m = Mat.from_rows(entries)
    shifted = m - Mat.identity(3)
    assert has_eigenvalue_one(m) == (det(shifted) == QC(0))


def test_mixed_backends_promote_to_float():
    e = Mat.from_rows([[1, Fraction(1, 3)], [0, QC(2, -1)]])
    f = Mat.from_rows([[0.5, 1j], [2.0, -0.25]], backend="float")
    ea, fa = e.np(), f.np()
    for out, ref in ((e @ f, ea @ fa), (f @ e, fa @ ea), (e + f, ea + fa),
                     (f - e, fa - ea), (kron(e, f), np.kron(ea, fa)),
                     (kron(f, e), np.kron(fa, ea)),
                     (e.scale(0.5), ea * 0.5), (e.scale(2j), ea * 2j)):
        assert out.backend == "float"
        assert np.array_equal(out.np(), ref)
    # exact operands and exact scalars stay exact
    assert (e @ e).backend == "exact"
    assert kron(e, e).backend == "exact"
    assert e.scale(Fraction(1, 2)).backend == "exact"
    i_e = Mat.from_rows([[QC(0, 1), QC(0, Fraction(1, 3))], [0, QC(1, 2)]])
    assert e.scale(QC(0, 1)) == i_e


def _leibniz_det(rows) -> QC:
    """Reference determinant: the sum over permutations, no elimination."""
    n = len(rows)
    total = QC(0)
    for perm in itertools.permutations(range(n)):
        odd = sum(perm[i] > perm[j]
                  for i in range(n) for j in range(i + 1, n)) % 2
        term = QC(-1 if odd else 1)
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term
    return total


small_qc = st.one_of(st.just(QC(0)), st.builds(QC, small_fraction),
                     st.builds(QC, small_fraction, small_fraction))


@seed(2026)
@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.booleans(), st.data())
def test_elimination_against_leibniz(n, repeat_row, data):
    """det, the eigenvalue-1 test and inverse, all served by one
    Gauss-Jordan elimination, against a permutation-sum determinant; a
    repeated row makes singular inputs common."""
    rows = [[data.draw(small_qc) for _ in range(n)] for _ in range(n)]
    if repeat_row and n > 1:
        rows[-1] = [data.draw(small_qc) * x for x in rows[0]]
    m = Mat.from_rows(rows)
    ref = _leibniz_det(rows)
    assert det(m) == ref
    shifted = [[x - (1 if i == j else 0) for j, x in enumerate(row)]
               for i, row in enumerate(rows)]
    assert has_eigenvalue_one(m) == (_leibniz_det(shifted) == QC(0))
    if ref == QC(0):
        with pytest.raises(ValueError):
            m.inverse()
    else:
        inv = m.inverse()
        assert m @ inv == Mat.identity(n)
        assert inv @ m == Mat.identity(n)


@seed(2026)
@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_integer_rows_reads_real_integers_only(rows, cols, data):
    entry = st.one_of(st.builds(QC, st.integers(-9, 9)), small_qc)
    m = Mat.from_rows([[data.draw(entry) for _ in range(cols)]
                       for _ in range(rows)])
    ints = integer_rows(m)
    entries = [m.entry(i, j) for i in range(rows) for j in range(cols)]
    if any(x.im != 0 or x.re.denominator != 1 for x in entries):
        assert ints is None
    else:
        assert ints == [[int(m.entry(i, j).re) for j in range(cols)]
                        for i in range(rows)]
    assert integer_rows(m.to_float()) is None
