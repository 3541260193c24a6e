"""Exact linear algebra: elimination, kernels, float reading."""

import itertools
import math
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from crystacc.crystal import catalog_triple
from crystacc.linalg import (FLOAT_DENOMINATOR_CAP, Mat, QC, SparseRows,
                             _kernel, _parts, _rref, det, kernel_basis, kron,
                             rank, read_float, read_scalar, solve_affine)
from crystacc.mask import Mask

from conftest import (_leibniz_det, _reference_kernel, _reference_reading,
                      _rref_reference, _stores_plain_values,
                      assert_stored_face, positive_multiple, qc_face)


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


def test_read_scalar_forms():
    """Exact literals are read to their stored form, with no change."""
    assert read_scalar("3/4") == (Fraction(3, 4), None)
    assert read_scalar(2) == read_scalar(QC(2)) == read_scalar("4/2") == \
        (2, None)
    assert read_scalar(["1/2", "-1/3"]) == (QC(Fraction(1, 2),
                                               Fraction(-1, 3)), None)
    assert read_scalar(("1/2", 0)) == (Fraction(1, 2), None)


def test_mat_inverse_det_exact():
    m = Mat.from_rows([[1, 2], [3, 4]])
    assert det(m) == -2 and type(det(m)) is int
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


def test_kernel_refuses_a_float_matrix():
    """No float matrix reaches the exact solver: Mat.from_rows refuses a
    float entry; the same matrix read exactly has the one kernel vector
    the float solver used to find."""
    rows = [[1.0, 1.0], [1.0, 1.0]]
    for bad in (rows, [[1, 1], [1, 1.0]], [[1, 1j], [1, 1]]):
        with pytest.raises(TypeError):
            Mat.from_rows(bad)
    exact = Mat.from_rows([[read_float(x) for x in row] for row in rows])
    basis = kernel_basis(exact)
    assert len(basis) == 1
    assert (exact @ basis[0]).is_zero()


@seed(2026)
@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_read_float_rounds_back_to_the_float(x):
    q = read_float(x)
    assert isinstance(q, Fraction)
    assert float(q) == x


@seed(2026)
@settings(max_examples=300, deadline=None)
@given(st.fractions(min_value=-1000, max_value=1000, max_denominator=1000))
def test_read_float_recovers_small_rationals(q):
    assert read_float(float(q)) == q


@seed(2026)
@settings(max_examples=300, deadline=None)
@given(st.integers(-2 ** 40, 2 ** 40), st.integers(0, 19))
def test_read_float_keeps_dyadic_values(num, k):
    q = Fraction(num, 2 ** k)
    assert read_float(float(q)) == q


def test_read_float_edge_values():
    assert read_float(1e308) == Fraction(1e308)
    assert read_float(-0.0) == 0
    assert read_float(1 / 3) == Fraction(1, 3)
    # no rational within the cap rounds to 2**-30 + 2**-80 except itself
    x = 2.0 ** -30 * (1 + 2.0 ** -50)
    assert read_float(x) == Fraction(x)
    assert read_float(x).denominator > FLOAT_DENOMINATOR_CAP
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            read_float(bad)


def _reading(x):
    """read_scalar(x), or the text of its refusal."""
    try:
        return read_scalar(x)
    except ValueError as exc:
        return str(exc)


def _same_reading(got, want) -> bool:
    """Equal stored values of the same type and bit-equal changes."""
    if isinstance(got, str) or isinstance(want, str):
        return got == want
    (x, dx), (y, dy) = got, want
    return (type(x) is type(y) and x == y
            and (dx is None if dy is None else
                 dx is not None and dx.hex() == dy.hex()))


def _random_float(rng: random.Random) -> float:
    return rng.choice([
        rng.uniform(-4, 4), 1 / rng.randint(1, 999), 0.0, -0.0,
        rng.randint(-2 ** 40, 2 ** 40) / 2 ** rng.randint(0, 60),
        5e-324 * rng.randint(1, 2 ** 20),
        rng.uniform(1, 2) * 2.0 ** rng.randint(900, 1023),
        -rng.uniform(1, 2) * 2.0 ** rng.randint(-1074, -1000),
        1e308, 1e-308, float("nan"), float("inf"), -float("inf")])


def _random_literal(rng: random.Random, depth: int = 0):
    """A random scalar literal, well formed or not: ints, Fractions, "p/q"
    strings, floats (subnormal, huge and exact dyadic ones included),
    complex values, QCs, booleans, [re, im] lists and tuples of these, and
    things that are no scalar."""
    kind = rng.randrange(14 if depth == 0 else 10)
    if kind == 0:
        return rng.choice([0, 1, -1, rng.randint(-10 ** 6, 10 ** 6),
                           rng.randint(-2 ** 80, 2 ** 80)])
    if kind == 1:
        return Fraction(rng.randint(-999, 999), rng.randint(1, 999))
    if kind == 2:
        num, den = rng.randint(-99, 99), rng.randint(0, 99)
        return rng.choice([f"{num}/{den}", f" {num}/{den} ", str(num),
                           f"{num}.{den}", "x", "", "1/", f"{num}e-3"])
    if kind in (3, 4, 5):
        return _random_float(rng)
    if kind == 6:
        return rng.choice([True, False])
    if kind == 7:
        return rng.choice([None, {}, {"re": 1}, b"1", object()])
    if kind == 8:
        return QC(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                  rng.choice([0, Fraction(rng.randint(-9, 9),
                                          rng.randint(1, 9))]))
    if kind == 9:
        return complex(_random_float(rng),
                       rng.choice([0.0, -0.0, _random_float(rng)]))
    pair = [_random_literal(rng, depth + 1) for _ in range(2)]
    if kind == 10:
        return pair
    if kind == 11:
        return tuple(pair)
    if kind == 12:
        return rng.choice([[], [pair[0]], pair + [0], [pair, 0]])
    return [rng.uniform(-1, 1), rng.choice(["1/3", 0, Fraction(1, 7),
                                            0.0, rng.uniform(-1, 1)])]


def test_read_scalar_matches_the_former_reading_chains():
    """read_scalar against the reading from the definition
    (:func:`conftest._reference_reading`: Fraction and QC arithmetic, float
    parts by read_float) on 24 000 seeded literals: the same stored type
    and value and the same change bits, or a refusal with the same text;
    with floats=False, a float part is refused by TypeError, as
    Mat.from_rows refuses it, and any other literal is read alike."""
    rng = random.Random(2026)
    read = refused = 0
    for _ in range(24000):
        x = _random_literal(rng)
        got, want = _reading(x), _reference_reading(x)
        assert _same_reading(got, want), x
        refused += isinstance(want, str)
        read += not isinstance(want, str)
        try:
            exact = read_scalar(x, floats=False)
        except TypeError:
            assert isinstance(x, (float, complex)) or any(
                isinstance(p, float) for p in x), x
        except ValueError:
            assert isinstance(want, str), x
        else:
            assert exact == got and exact[1] is None, x
    assert read > 8000 and refused > 4000


def test_a_decimal_exponent_beyond_the_digit_limit_is_refused():
    """A literal whose decimal exponent exceeds sys.get_int_max_str_digits()
    in magnitude is refused with the text of a literal of too many
    digits, by read_scalar, Mat.from_rows and Mask alike, before Fraction
    builds the power of ten; one at the limit is read exactly."""
    limit = sys.get_int_max_str_digits()
    assert read_scalar(f"1e{limit}") == (10 ** limit, None)
    assert read_scalar(f"1e-{limit}") == (Fraction(1, 10 ** limit), None)
    triple = catalog_triple("p1", 1)
    for bad in (f"1e{limit + 1}", "1e-999999999"):
        text = f"^bad rational '{bad}': Exceeds the limit \\({limit} digits\\)"
        for read in (read_scalar, lambda x: Mat.from_rows([[x]]),
                     lambda x: Mask.scalar(triple, {0: x})):
            with pytest.raises(ValueError, match=text):
                read(bad)


def _sparse(rows):
    """Dense rows of exact values as SparseRows, zeros left out."""
    return SparseRows([{j: x for j, x in enumerate(row) if x != 0}
                       for row in rows], len(rows[0]))


def _columns(vectors: SparseRows) -> list[Mat]:
    return [Mat.column([v.get(j, 0) for j in range(vectors.cols)])
            for v in vectors.data]


def test_solve_affine_examples():
    # no carried basis: the rref kernel basis of k itself
    k = [[1, -1, 0]]
    none = SparseRows([], 0)
    assert _columns(solve_affine(_sparse(k), none)) == kernel_basis(
        Mat.from_rows(k))
    # B is the rref kernel basis of [1 -1 0]; the new row [0 0 1 | 1]
    # reduces to [0 1 | 1], whose first column, K_old B e_1, is zero
    basis = solve_affine(_sparse(k), none)
    assert _columns(basis) == [Mat.column([1, 1, 0]), Mat.column([0, 0, 1])]
    lifted = solve_affine(_sparse([[0, 1, 1]]), basis)
    assert lifted.shape == (2, 4)
    assert _columns(lifted) == [Mat.column([1, 1, 0, 0]),
                                Mat.column([0, 0, -1, 1])]
    assert _columns(lifted) == kernel_basis(Mat.from_rows([[1, -1, 0, 0],
                                                           [0, 0, 1, 1]]))
    # the entries stay plain: ints here, no QC
    assert {type(x) for v in lifted.data for x in v.values()} == {int}
    # an empty kernel, with and without a carried basis
    assert solve_affine(_sparse([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
                        basis).data == []
    assert solve_affine(_sparse([[1, 0], [0, 1]]), none).data == []


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


small_qc = st.one_of(st.just(QC(0)), st.builds(QC, small_fraction),
                     st.builds(QC, small_fraction, small_fraction))


@seed(2026)
@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.booleans(), st.data())
def test_elimination_against_leibniz(n, repeat_row, data):
    """det and inverse, both served by one Gauss-Jordan elimination,
    against a permutation-sum determinant; a repeated row makes singular
    inputs common."""
    rows = [[data.draw(small_qc) for _ in range(n)] for _ in range(n)]
    if repeat_row and n > 1:
        rows[-1] = [data.draw(small_qc) * x for x in rows[0]]
    m = Mat.from_rows(rows)
    ref = _leibniz_det(rows)
    assert_stored_face(det(m), ref)
    if ref == QC(0):
        with pytest.raises(ValueError):
            m.inverse()
    else:
        inv = m.inverse()
        assert m @ inv == Mat.identity(n)
        assert inv @ m == Mat.identity(n)


@seed(2026)
@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.integers(1, 8), st.booleans(),
       st.sampled_from(["plain", "repeat", "combine", "wide"]), st.data())
def test_fraction_free_elimination_against_gauss_jordan(n_rows, n_cols, real,
                                                         shape, data):
    """The fraction-free elimination gives the rref, pivots and determinant
    of a textbook Gauss-Jordan elimination; repeated and combined rows force
    rank deficiency, and ``[A | I]`` blocks are the inverse's input."""
    entry = st.builds(QC, small_fraction) if real else small_qc
    if shape == "wide":
        n_cols = n_rows
    rows = [[data.draw(entry) for _ in range(n_cols)] for _ in range(n_rows)]
    if n_rows > 1 and shape == "repeat":
        rows[-1] = list(rows[0])
    elif n_rows > 2 and shape == "combine":
        c0, c1 = data.draw(entry), data.draw(entry)
        rows[-1] = [c0 * x + c1 * y for x, y in zip(rows[0], rows[1])]
    if shape == "wide":
        rows = [row + [QC(int(i == j)) for j in range(n_rows)]
                for i, row in enumerate(rows)]
    m = Mat.from_rows(rows)
    got, pivots, got_det = _rref(_sparse(rows).data, m.cols, with_det=True)
    want, want_pivots, prod = _rref_reference(rows, m.cols)
    assert pivots == want_pivots
    assert _dense(got, m.rows, m.cols) == want
    if m.rows == m.cols and len(pivots) == m.rows:
        assert got_det == prod
    for v in kernel_basis(m):
        assert (m @ v).is_zero()


def _dense(rref, n_rows, n_cols):
    """Sparse rref rows as dense QC rows, padded with zero rows."""
    return ([[qc_face(row.get(j, 0)) for j in range(n_cols)]
             for row in rref]
            + [[QC(0)] * n_cols for _ in range(len(rref), n_rows)])


small_int = st.integers(-5, 5)
real_entry = st.one_of(small_int, small_fraction,
                       st.builds(QC, small_fraction))
complex_entry = st.one_of(real_entry,
                          st.builds(QC, small_fraction, small_fraction))


@seed(2026)
@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7), st.integers(1, 7), st.booleans(),
       st.sampled_from(["square", "tall", "wide", "deficient", "sparse"]),
       st.data())
def test_sparse_elimination_against_dense_bareiss(n_rows, n_cols, real,
                                                  shape, data):
    """The sparse routine gives the rref, pivots, determinant and inverse
    of the textbook Gauss-Jordan elimination (the inverse as the rref of
    [A | I]), on int, Fraction and QC entries, real or complex, for
    square, tall, wide, rank-deficient and mostly-zero matrices."""
    entry = real_entry if real else complex_entry
    if shape == "square":
        n_cols = n_rows
    elif shape == "tall":
        n_rows = n_cols + data.draw(st.integers(1, 4))
    elif shape == "wide":
        n_cols = n_rows + data.draw(st.integers(1, 4))
    cells = list(itertools.product(range(n_rows), range(n_cols)))
    if shape == "sparse":
        # at least 80 % of the entries are zero
        filled = data.draw(st.lists(st.sampled_from(cells), unique=True,
                                    max_size=len(cells) // 5))
    else:
        filled = cells
    rows = [[0] * n_cols for _ in range(n_rows)]
    for i, j in filled:
        rows[i][j] = data.draw(entry)
    if shape == "deficient" and n_rows > 1:
        c0, c1 = data.draw(entry), data.draw(entry)
        rows[-1] = [c0 * x + c1 * y for x, y in zip(rows[0], rows[-2])]
    m = Mat.from_rows(rows)
    got, pivots, got_det = _rref(_sparse(rows).data, n_cols,
                                 with_det=True)
    q = [[qc_face(x) for x in row] for row in m.plain()]
    want, want_pivots, prod = _rref_reference(q, n_cols)
    assert pivots == want_pivots
    assert _dense(got, n_rows, n_cols) == want
    assert rank(m) == len(pivots)
    if n_rows != n_cols:
        return
    full = len(pivots) == n_rows
    assert_stored_face(det(m), prod if full else 0)
    assert got_det == (prod if full else None)
    if full:
        inverse, _, _ = _rref_reference(
            [row + [QC(int(i == j)) for j in range(n_rows)]
             for i, row in enumerate(q)], 2 * n_rows)
        assert m.inverse() == Mat.from_rows([row[n_rows:]
                                             for row in inverse])
    else:
        with pytest.raises(ValueError):
            m.inverse()


@seed(2026)
@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 4), st.data())
def test_kron_against_its_definition(m, n, p, q, data):
    """kron(a, b) has a[i][j] * b[k][l] at (i p + k, j q + l), for zero,
    real and complex entries on either side."""
    a = Mat.from_rows([[data.draw(small_qc) for _ in range(n)]
                       for _ in range(m)])
    b = Mat.from_rows([[data.draw(small_qc) for _ in range(q)]
                       for _ in range(p)])
    got = kron(a, b)
    assert got.shape == (m * p, n * q)
    for i, j, k, l in itertools.product(range(m), range(n), range(p),
                                        range(q)):
        assert got.entry(i * p + k, j * q + l) == a.entry(i, j) * b.entry(k, l)


def _qc_rows(m: Mat) -> list:
    """The entries of m as QCs."""
    return [[qc_face(x) for x in row] for row in m.plain()]


def _reference_product(a, b):
    """a @ b on QC lists, the textbook sum."""
    return [[sum((x * y for x, y in zip(row, col)), QC(0))
             for col in zip(*b)] for row in a]


@seed(2026)
@settings(max_examples=120, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3),
       st.sampled_from(["int", "rational", "complex"]), st.data())
def test_mat_against_qc_lists(n, k, j, kind, data):
    """Mat stores plain values and agrees with a QC-list reference on +,
    -, @, scale, transpose, inverse, det, rank and kernel_basis, for int,
    rational and complex matrices; the same matrix built from QC
    literals and from plain literals is equal, hashes equal and stores
    no QC whose imaginary part is zero, and so does every result."""
    entry = {"int": small_int, "rational": real_entry,
             "complex": complex_entry}[kind]

    def draw(rows, cols):
        return [[data.draw(entry) for _ in range(cols)] for _ in range(rows)]

    rows_a, rows_b, rows_c, rows_sq = (draw(n, k), draw(n, k), draw(k, j),
                                       draw(n, n))
    s = data.draw(entry)
    q = {name: [[qc_face(x) for x in row] for row in rows]
         for name, rows in (("a", rows_a), ("b", rows_b), ("c", rows_c),
                            ("sq", rows_sq))}
    a, b, c, sq = (Mat.from_rows(rows)
                   for rows in (rows_a, rows_b, rows_c, rows_sq))
    for rows, m in ((rows_a, a), (rows_sq, sq)):
        plain = Mat.from_rows([[qc_face(x).re if qc_face(x).im == 0
                                else qc_face(x) for x in row]
                               for row in rows])
        from_qc = Mat.from_rows([[qc_face(x) for x in row] for row in rows])
        assert plain == from_qc == m
        assert hash(plain) == hash(from_qc) == hash(m)
        assert _stores_plain_values(from_qc) and _stores_plain_values(plain)
    results = {
        "+": (a + b, [[x + y for x, y in zip(r, t)]
                      for r, t in zip(q["a"], q["b"])]),
        "-": (a - b, [[x - y for x, y in zip(r, t)]
                      for r, t in zip(q["a"], q["b"])]),
        "@": (a @ c, _reference_product(q["a"], q["c"])),
        "scale": (a.scale(s), [[qc_face(s) * x for x in r]
                               for r in q["a"]]),
        "transpose": (a.transpose(), [list(col) for col in zip(*q["a"])]),
    }
    for name, (got, want) in results.items():
        assert _qc_rows(got) == want, name
        assert _stores_plain_values(got), name
    assert ((a + b) - b) == a and hash((a + b) - b) == hash(a)
    assert_stored_face(det(sq), _leibniz_det(q["sq"]))
    rref, pivots, _ = _rref_reference(
        [row + [QC(int(i == t)) for t in range(n)]
         for i, row in enumerate(q["sq"])], 2 * n)
    if pivots == list(range(n)):
        inv = sq.inverse()
        assert _qc_rows(inv) == [row[n:] for row in rref]
        assert _stores_plain_values(inv)
    else:
        with pytest.raises(ValueError, match="singular matrix"):
            sq.inverse()
    assert rank(a) == len(_rref_reference(q["a"], k)[1])
    basis = kernel_basis(a)
    assert [[v.entry(t, 0) for t in range(k)] for v in basis] \
        == _reference_kernel(q["a"], k)
    assert all(_stores_plain_values(v) for v in basis)


def _copy(row, kind, data):
    """A row that the intake reads as a repeat of ``row`` (an exact copy,
    a positive multiple, or one that is equal only after scaling to
    integers, as [1/2, 1] is to [1, 2]) or as a different row (the
    negation)."""
    if kind == "exact":
        return list(row)
    if kind == "multiple":
        c = data.draw(st.integers(2, 5))
    elif kind == "halved":
        c = Fraction(1, data.draw(st.integers(2, 5)))
    else:
        c = -1
    return [c * x for x in row]


@seed(2026)
@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), st.integers(1, 6),
       st.sampled_from(["int", "rational", "complex"]),
       st.sampled_from(["exact", "multiple", "halved", "negated", "mixed"]),
       st.data())
def test_repeated_rows_read_once_against_every_row(n_rows, n_cols, copies,
                                                   kind, repeat, data):
    """_rref, which drops a row equal to one already read, gives the rref,
    pivots and determinant (of the leading square block, None where it is
    singular or the rows outnumber the columns) of the textbook
    Gauss-Jordan elimination, which reads every row, on
    int, rational and complex rows: square blocks with one repeated row,
    and tall block-row-shaped systems (one block stacked ``copies`` times,
    each copy an exact repeat, a positive multiple, a multiple that
    repeats only after scaling to integers, a negation, or a mix of
    those; rows far outnumber columns), given sparse or with their zeros.
    On each, kernel_basis is the textbook reference's kernel; square
    blocks with a repeat have det 0 and no inverse."""
    entry = {"int": small_int, "rational": real_entry,
             "complex": complex_entry}[kind]
    block = [[data.draw(entry) for _ in range(n_cols)]
             for _ in range(n_rows)]
    kinds = (["exact", "multiple", "halved", "negated"] if repeat == "mixed"
             else [repeat])
    square = None
    if n_rows == n_cols and n_rows > 1:
        square = list(block)
        i, j = data.draw(st.lists(st.integers(0, n_rows - 1), min_size=2,
                                  max_size=2, unique=True))
        square[j] = _copy(square[i], data.draw(st.sampled_from(kinds)), data)
    tall = [list(row) for row in block]
    for _ in range(copies):
        tall += [_copy(row, data.draw(st.sampled_from(kinds)), data)
                 for row in block]
    tall = data.draw(st.permutations(tall))
    for rows in (block, square, tall):
        if rows is None:
            continue
        q = [[qc_face(x) for x in row] for row in rows]
        want, want_pivots, prod = _rref_reference(q, n_cols)
        n = len(rows)
        full = n <= n_cols and want_pivots == list(range(n))
        # sparse rows, and dense ones whose zeros the intake drops
        for given_rows in (_sparse(rows).data,
                           [dict(enumerate(row)) for row in rows]):
            for with_det in (False, True):
                got, pivots, got_det = _rref(given_rows, n_cols, with_det)
                assert pivots == want_pivots
                assert _dense(got, n, n_cols) == want
                assert got_det == (prod if with_det and full else None)
        m = Mat.from_rows(rows)
        assert rank(m) == len(want_pivots)
        assert [[v.entry(t, 0) for t in range(n_cols)]
                for v in kernel_basis(m)] == _reference_kernel(q, n_cols)
    if square is not None:
        m = Mat.from_rows(square)
        assert _rref(_sparse(square).data, n_cols, True)[2] is None
        assert det(m) == 0 and type(det(m)) is int
        with pytest.raises(ValueError, match="singular matrix"):
            m.inverse()


def test_equal_public_values_hash_equal():
    """A QC equal to an int or a Fraction hashes as it, so sets and dict
    keys mixing public and plain values hold each value once; QCs with a
    non-zero imaginary part hash by both parts."""
    pairs = [(QC(1), 1), (QC(Fraction(1, 2)), Fraction(1, 2)),
             (QC(Fraction(4, 2)), 2), (QC(-3), Fraction(-6, 2)),
             (QC(0), 0), (QC(Fraction(1, 3), 0), Fraction(1, 3)),
             (QC(Fraction(1, 2), Fraction(-1, 4)),
              QC(Fraction(2, 4), Fraction(-2, 8))),
             (QC(0, 1), QC(Fraction(0), Fraction(3, 3)))]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1 and {a: 1}[b] == 1
    assert len({QC(1, 1), QC(1, -1), QC(1), 1}) == 3


def _sparse_rows(n_rows, n_cols, entry, shape, data):
    """Seeded sparse rows (about half the entries zero): as drawn, with a
    combination of the first two rows last (rank deficient), or with rows
    repeated up to a positive scale."""
    rows = [{j: x for j in range(n_cols)
             if (x := data.draw(st.one_of(st.just(0), entry))) != 0}
            for _ in range(n_rows)]
    if shape == "deficient" and n_rows > 2:
        c0, c1 = data.draw(entry), data.draw(entry)
        combined = {j: c0 * rows[0].get(j, 0) + c1 * rows[1].get(j, 0)
                    for j in range(n_cols)}
        rows[-1] = {j: x for j, x in combined.items() if x != 0}
    elif shape == "repeat":
        c = data.draw(st.integers(1, 3))
        rows += [{j: c * x for j, x in row.items()} for row in rows[:2]]
    return rows


def _sparse_reference_kernel(rows, n_cols):
    """The rref kernel basis of sparse rows (:func:`_reference_kernel`),
    as sparse vectors."""
    dense = [[qc_face(row.get(j, 0)) for j in range(n_cols)] for row in rows]
    return [{j: x for j, x in enumerate(v) if x != 0}
            for v in _reference_kernel(dense, n_cols)]


def _assert_integral(v, real):
    """Real entries are coprime ints; complex ones have integral parts."""
    parts = [q for x in v.values() for q in _parts(x)]
    assert all(q == int(q) for q in parts)
    if real:
        assert {type(x) for x in v.values()} == {int}
        assert math.gcd(*v.values()) == 1


@seed(2026)
@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 7),
       st.sampled_from(["int", "rational", "complex"]),
       st.sampled_from(["drawn", "deficient", "repeat"]), st.data())
def test_integral_kernel_against_the_rref_kernel(n_rows, n_cols, kind, shape,
                                                 data):
    """_kernel gives, in the rref kernel's order, a positive multiple of
    each of its vectors: coprime ints on int and rational rows, integral
    parts on complex ones; kernel_basis, which divides each by its entry
    at its free column, is the rref kernel basis itself."""
    entry = {"int": small_int, "rational": real_entry,
             "complex": complex_entry}[kind]
    rows = _sparse_rows(n_rows, n_cols, entry, shape, data)
    got, want = _kernel(rows, n_cols), _sparse_reference_kernel(rows, n_cols)
    assert len(got) == len(want)
    real = all(_parts(x)[1] == 0 for row in rows for x in row.values())
    for v, ref in zip(got, want):
        assert positive_multiple(v, ref)
        _assert_integral(v, real)
    m = Mat.from_rows([[row.get(j, 0) for j in range(n_cols)]
                       for row in rows])
    assert kernel_basis(m) == [Mat.column([ref.get(j, 0)
                                           for j in range(n_cols)])
                               for ref in want]


def _reduced(rows, basis, start, cols):
    """Rows over the unknowns 0..cols-1 as the exact solver hands them to
    solve_affine: the part left of ``start`` taken through the carried
    basis, the rest shifted behind its ``basis.rows`` coordinates."""
    out = []
    for row in rows:
        line = {}
        for j, x in row.items():
            if j < start:
                for c, b in enumerate(basis.data):
                    if j in b:
                        line[c] = line.get(c, 0) + x * b[j]
            else:
                line[basis.rows + j - start] = x
        out.append({c: x for c, x in line.items() if x != 0})
    return SparseRows(out, basis.rows + cols - start)


@seed(2026)
@settings(max_examples=120, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 3)), min_size=1,
                max_size=3),
       st.sampled_from(["int", "rational", "complex"]),
       st.sampled_from(["drawn", "deficient", "repeat"]), st.data())
def test_carried_kernel_against_the_rref_kernel(stages, kind, shape, data):
    """Block rows solved one after the other against the carried kernel,
    as max_accuracy does: each carried basis of solve_affine is, in order,
    a positive multiple of the rref kernel basis of all the rows so far,
    and on real rows every carried vector is coprime ints."""
    entry = {"int": small_int, "rational": real_entry,
             "complex": complex_entry}[kind]
    got, stacked = SparseRows([], 0), []
    start, real = 0, True
    for n_rows, width in stages:
        cols = start + width
        rows = _sparse_rows(n_rows, cols, entry, shape, data)
        got = solve_affine(_reduced(rows, got, start, cols), got)
        stacked += rows
        want = _sparse_reference_kernel(stacked, cols)
        start = cols
        assert got.shape == (len(want), cols)
        real = real and all(_parts(x)[1] == 0 for row in rows
                            for x in row.values())
        for v, ref in zip(got.data, want):
            assert positive_multiple(v, ref)
            if real:
                _assert_integral(v, True)


def test_a_carried_vector_is_divided_by_its_content():
    """B c can share a factor that neither B's vectors nor c have: here
    the last lifted kernel vector of the second block row is
    2 (-3, -3, -3, 0, 0, 1) before solve_affine divides it by its
    content; each carried vector is the rref one, which is integral."""
    first = [{0: -2, 1: -1, 2: 3}]
    second = [{0: -2, 1: 3, 3: 2, 4: -2, 5: 3},
              {0: -1, 1: -2, 2: 3, 3: 3, 4: 3}]
    got = SparseRows([], 0)
    for rows, start, cols in ((first, 0, 3), (second, 3, 6)):
        got = solve_affine(_reduced(rows, got, start, cols), got)
    assert got.data == [{0: -11, 1: -8, 2: -10, 3: 1},
                        {0: -7, 1: -4, 2: -6, 4: 1},
                        {0: -3, 1: -3, 2: -3, 5: 1}] \
        == _sparse_reference_kernel(first + second, 6)


def _assign_to_qc():
    QC(1).re = 2


@pytest.mark.parametrize("call, exc, message", [
    pytest.param(lambda: Mat.from_rows([]), ValueError,
                 "cols required for an empty matrix", id="empty-no-cols"),
    pytest.param(lambda: Mat.from_rows([[1, 2], [3]]), ValueError,
                 "ragged rows", id="ragged-rows"),
    pytest.param(lambda: Mat.from_rows([[1, 2]]) @ Mat.from_rows([[1, 2]]),
                 ValueError, "shape mismatch (1, 2) @ (1, 2)",
                 id="matmul-mismatch"),
    pytest.param(lambda: Mat.from_rows([[1, 2]]) + Mat.from_rows([[1]]),
                 ValueError, "shape mismatch (1, 2) + (1, 1)",
                 id="add-mismatch"),
    pytest.param(lambda: Mat.from_rows([[1, 2]]) - Mat.from_rows([[1]]),
                 ValueError, "shape mismatch (1, 2) - (1, 1)",
                 id="sub-mismatch"),
    pytest.param(lambda: Mat.vstack([]), ValueError, "nothing to stack",
                 id="vstack-empty"),
    pytest.param(lambda: Mat.vstack([Mat.identity(1), Mat.identity(2)]),
                 ValueError, "incompatible blocks", id="vstack-mismatch"),
    pytest.param(lambda: Mat.hstack([]), ValueError, "nothing to stack",
                 id="hstack-empty"),
    pytest.param(lambda: Mat.hstack([Mat.identity(1), Mat.identity(2)]),
                 ValueError, "incompatible blocks", id="hstack-mismatch"),
    pytest.param(lambda: Mat.from_rows([[1, 2]]).inverse(), ValueError,
                 "inverse of a non-square matrix", id="inverse-non-square"),
    pytest.param(lambda: det(Mat.from_rows([[1, 2]])), ValueError,
                 "determinant of a non-square matrix", id="det-non-square"),
    pytest.param(_assign_to_qc, AttributeError, "QC is immutable",
                 id="qc-assignment"),
    pytest.param(lambda: QC(1, 1) / 0, ZeroDivisionError,
                 "division by zero", id="qc-division-by-zero"),
])
def test_library_refusals(call, exc, message):
    """Mat and QC refuse malformed shapes, empty stacks and exact division
    by zero with the exception type and message a library caller can
    read."""
    with pytest.raises(exc, match=f"^{re.escape(message)}$") as info:
        call()
    assert info.type is exc
