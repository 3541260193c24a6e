"""Exact linear algebra: elimination, kernels, float reading."""

import itertools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from crystacc.linalg import (FLOAT_DENOMINATOR_CAP, Mat, QC, QC_ZERO,
                             SparseRows, _kernel, _parts, _qc, _rref, det,
                             kernel_basis, kron, rank, read_float,
                             read_scalar, solve_affine)

from conftest import positive_multiple, rref_kernel, rref_solve_affine


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


# -- the reading chains that read_scalar replaced, kept as the reference ----


class _Refused(Exception):
    """A refusal of the former CLI reader, with the text it printed."""


def _former_as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"not an exact rational: {x!r}")


def _former_qc_parse(obj):
    if isinstance(obj, QC):
        return obj
    if isinstance(obj, (list, tuple)):
        if len(obj) != 2:
            raise ValueError(f"complex literal needs two parts: {obj!r}")
        return QC(_former_as_fraction(obj[0]), _former_as_fraction(obj[1]))
    return QC(_former_as_fraction(obj))


def _former_stored(x):
    """linalg._stored as it read literals through QC.parse."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, QC):
        return x if x.im != 0 else _former_stored(x.re)
    if isinstance(x, str):
        return _former_stored(_former_as_fraction(x))
    return _former_stored(_former_qc_parse(x))


def _former_read_entry(x, changes):
    """mask._read_entry: float parts read one by one."""
    parts = ((x, 0) if isinstance(x, float)
             else (x.real, x.imag or 0) if isinstance(x, complex) else x)
    if not (isinstance(parts, (list, tuple))
            and any(isinstance(p, float) for p in parts)):
        return x
    (re, given_re), (im, given_im) = (
        (read_float(p), Fraction(p)) if isinstance(p, float)
        else (p, p) if isinstance(p, (int, Fraction)) else (Fraction(p),) * 2
        for p in parts)
    size = given_re * given_re + given_im * given_im
    if size:
        changes.append(float(((re - given_re) ** 2 + (im - given_im) ** 2)
                             / size) ** 0.5)
    return QC(re, im) if im else re


def _former_parse_scalar(value):
    """cli._parse_scalar: one JSON coefficient, floats left to the mask."""
    if isinstance(value, bool):
        raise _Refused("boolean is not a coefficient")
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise _Refused(f"bad rational {value!r}: {exc}")
    if isinstance(value, (int, float)):
        return value
    if (isinstance(value, list) and len(value) == 2
            and not any(isinstance(v, list) for v in value)):
        re, im = map(_former_parse_scalar, value)
        if isinstance(re, float) or isinstance(im, float):
            return re, im
        return QC(re, im) if im else re
    raise _Refused(f"cannot read coefficient {value!r}")


def _former_library(x):
    """(stored, change) by mask._read_entry then linalg._stored."""
    changes = []
    return _former_stored(_former_read_entry(x, changes)), \
        (changes[0] if changes else None)


def _former_cli(x):
    """(stored, change) by the CLI chain, or the error text it printed."""
    try:
        return _former_library(_former_parse_scalar(x))
    except _Refused as exc:
        return str(exc)
    except ValueError as exc:  # the mask's refusal, as the CLI wrapped it
        return f"bad coefficient: {exc}"


def _new_cli(x):
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


def _json_literal(x) -> bool:
    """Whether x is a value json.load can give: no tuple, complex,
    Fraction, QC or other object, at any depth."""
    if isinstance(x, list):
        return all(map(_json_literal, x))
    if isinstance(x, dict):
        return all(map(_json_literal, x.values()))
    return x is None or isinstance(x, (bool, int, float, str))


def _has_boolean(x) -> bool:
    return isinstance(x, bool) or (isinstance(x, (list, tuple))
                                   and any(map(_has_boolean, x)))


def test_read_scalar_matches_the_former_reading_chains():
    """read_scalar against the chains it replaced, on 24 000 seeded
    literals.  On what the CLI reads (JSON values), the former
    cli._parse_scalar -> mask._read_entry -> linalg._stored chain and
    read_scalar give the same stored type and value and the same change
    bits, or refuse with the same text.  On anything, the former library
    chain (mask._read_entry -> linalg._stored) and read_scalar agree the
    same way, and every literal it refused is refused, as is now every
    literal with a boolean in it; with floats=False, a float part is
    refused by TypeError, as Mat.from_rows refused it."""
    rng = random.Random(2026)
    cli_read = library_read = 0
    for _ in range(24000):
        x = _random_literal(rng)
        if _json_literal(x):
            assert _same_reading(_new_cli(x), _former_cli(x)), x
            cli_read += 1
        try:
            want = _former_library(x)
        except Exception:
            want = None
        try:
            got = read_scalar(x)
        except ValueError:
            got = None
        if want is None or _has_boolean(x):
            assert got is None, x
        else:
            assert _same_reading(got, want), x
            library_read += 1
        try:
            exact = read_scalar(x, floats=False)
        except TypeError:
            assert isinstance(x, (float, complex)) or any(
                isinstance(p, float) for p in x), x
        except ValueError:
            assert got is None
        else:
            assert exact == got and exact[1] is None
    assert cli_read > 8000 and library_read > 8000


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
    """det and inverse, both served by one Gauss-Jordan elimination,
    against a permutation-sum determinant; a repeated row makes singular
    inputs common."""
    rows = [[data.draw(small_qc) for _ in range(n)] for _ in range(n)]
    if repeat_row and n > 1:
        rows[-1] = [data.draw(small_qc) * x for x in rows[0]]
    m = Mat.from_rows(rows)
    ref = _leibniz_det(rows)
    assert det(m) == ref
    if ref == QC(0):
        with pytest.raises(ValueError):
            m.inverse()
    else:
        inv = m.inverse()
        assert m @ inv == Mat.identity(n)
        assert inv @ m == Mat.identity(n)


def _rref_reference(rows, n_cols):
    """Reference rref: textbook Gauss-Jordan on QC values, dividing each
    pivot row by its pivot and clearing the column with fractions."""
    a = [list(row) for row in rows]
    pivots, prod, r = [], QC(1), 0
    for col in range(n_cols):
        pivot = next((i for i in range(r, len(a)) if a[i][col] != QC(0)),
                     None)
        if pivot is None:
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
            prod = -prod
        p = a[r][col]
        prod = prod * p
        a[r] = [x / p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col] != QC(0):
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
    return a, pivots, prod


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
    return ([[_qc(row.get(j, 0)) for j in range(n_cols)]
             for row in rref]
            + [[QC_ZERO] * n_cols for _ in range(len(rref), n_rows)])


def _dense_bareiss(m: Mat) -> tuple[list[list[QC]], list[int], QC]:
    """The package's former elimination, kept as the reference: dense
    fraction-free Gauss-Jordan (Bareiss) on the integer-scaled rows.
    After pivot ``p`` every other row ``x`` becomes
    ``(p*x - f*y) / prev``, with ``y`` the pivot row, ``f`` the row's
    entry in the pivot column and ``prev`` the previous pivot; a row with
    ``f = 0`` is still rescaled by ``p / prev``, and one division by the
    last pivot at the end gives the rref.  Returns (rows, pivot columns,
    determinant)."""
    rows = [m.row_list(i) for i in range(m.rows)]
    scales = [math.lcm(*(q.denominator for x in row for q in (x.re, x.im)))
              for row in rows]
    real = all(x.im == 0 for row in rows for x in row)
    if real:
        zero, div = 0, operator.floordiv
        a = [[x.re.numerator * (s // x.re.denominator) for x in row]
             for row, s in zip(rows, scales)]
    else:
        zero, div = QC_ZERO, operator.truediv
        a = [[x * s for x in row] for row, s in zip(rows, scales)]
    pivots = []
    sign, prev, r = 1, 1, 0
    for col in range(m.cols):
        pivot = next((i for i in range(r, m.rows) if a[i][col] != zero),
                     None)
        if pivot is None:
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
            sign = -sign
        y = a[r]
        p = y[col]
        for i, x in enumerate(a):
            if i == r:
                continue
            f = x[col]
            if f == zero:
                a[i] = [div(p * e, prev) for e in x]
            else:
                a[i] = [div(p * e - f * g, prev) for e, g in zip(x, y)]
        prev = p
        pivots.append(col)
        r += 1
        if r == m.rows:
            break
    out = [[QC_ZERO if e == zero else QC(Fraction(e, prev)) if real
            else e / prev for e in x] for x in a[:r]]
    out += [[QC_ZERO] * m.cols for _ in range(r, m.rows)]
    return out, pivots, QC(Fraction(sign, math.prod(scales))) * prev


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
    of the former dense Bareiss elimination and of a textbook
    Gauss-Jordan one, on int, Fraction and QC entries, real or complex,
    for square, tall, wide, rank-deficient and mostly-zero matrices."""
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
    dense, dense_pivots, dense_det = _dense_bareiss(m)
    want, want_pivots, prod = _rref_reference(
        [m.row_list(i) for i in range(n_rows)], n_cols)
    assert pivots == dense_pivots == want_pivots
    assert _dense(got, n_rows, n_cols) == dense == want
    assert rank(m) == len(pivots)
    if n_rows != n_cols:
        return
    full = len(pivots) == n_rows
    assert det(m) == (dense_det if full else QC_ZERO)
    assert got_det == (prod if full else None)
    if full:
        inverse, _, _ = _dense_bareiss(Mat.hstack([m, Mat.identity(n_rows)]))
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
    """The entries of m through its QC face."""
    return [m.row_list(i) for i in range(m.rows)]


def _stores_plain_values(m: Mat) -> bool:
    """Every stored entry is an int where it is integral, a Fraction
    where it is real, and a QC only where its imaginary part is
    non-zero."""
    return all(type(x) is int
               or (type(x) is Fraction and x.denominator != 1)
               or (type(x) is QC and x.im != 0)
               for row in m.plain() for x in row)


def _reference_product(a, b):
    """a @ b on QC lists, the textbook sum."""
    return [[sum((x * y for x, y in zip(row, col)), QC(0))
             for col in zip(*b)] for row in a]


def _reference_kernel(rows, n_cols):
    """The rref kernel basis of QC rows, from :func:`_rref_reference`:
    one vector per free column f, 1 at f and minus the rref's column f at
    the pivots."""
    rref, pivots, _ = _rref_reference(rows, n_cols)
    basis = []
    for f in range(n_cols):
        if f in pivots:
            continue
        v = [QC(0)] * n_cols
        v[f] = QC(1)
        for row, col in zip(rref, pivots):
            v[col] = -row[f]
        basis.append(v)
    return basis


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
    q = {name: [[_qc(x) for x in row] for row in rows]
         for name, rows in (("a", rows_a), ("b", rows_b), ("c", rows_c),
                            ("sq", rows_sq))}
    a, b, c, sq = (Mat.from_rows(rows)
                   for rows in (rows_a, rows_b, rows_c, rows_sq))
    for rows, m in ((rows_a, a), (rows_sq, sq)):
        plain = Mat.from_rows([[_qc(x).re if _qc(x).im == 0
                                else _qc(x) for x in row]
                               for row in rows])
        from_qc = Mat.from_rows([[_qc(x) for x in row] for row in rows])
        assert plain == from_qc == m
        assert hash(plain) == hash(from_qc) == hash(m)
        assert _stores_plain_values(from_qc) and _stores_plain_values(plain)
    results = {
        "+": (a + b, [[x + y for x, y in zip(r, t)]
                      for r, t in zip(q["a"], q["b"])]),
        "-": (a - b, [[x - y for x, y in zip(r, t)]
                      for r, t in zip(q["a"], q["b"])]),
        "@": (a @ c, _reference_product(q["a"], q["c"])),
        "scale": (a.scale(s), [[_qc(s) * x for x in r]
                               for r in q["a"]]),
        "transpose": (a.transpose(), [list(col) for col in zip(*q["a"])]),
    }
    for name, (got, want) in results.items():
        assert _qc_rows(got) == want, name
        assert _stores_plain_values(got), name
    assert ((a + b) - b) == a and hash((a + b) - b) == hash(a)
    assert det(sq) == _leibniz_det(q["sq"])
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


def _rref_every_row(rows, n_cols, with_det=False):
    """The elimination as it was before repeated rows were dropped at
    intake, kept as the reference: every row, repeated or not, is scaled
    to integers through its parts, divided by its content and eliminated.
    Returns what :func:`_rref` returns."""
    real = all(_parts(x)[1] == 0 for row in rows for x in row.values())
    if real:
        def content(x):
            return math.gcd(*x.values())

        def divide(e, c):
            return e // c

        def ratio(e, p):
            q = Fraction(e, p)
            return q.numerator if q.denominator == 1 else q
    else:
        def content(x):
            return math.gcd(*(q.numerator for e in x.values()
                              for q in (e.re, e.im)))

        def divide(e, c):
            return QC(e.re.numerator // c, e.im.numerator // c)

        def ratio(e, p):
            return e / p
    track = with_det and len(rows) <= n_cols
    grown, shrunk = 1, 1
    a = []
    for row in rows:
        parts = [(j, *_parts(x)) for j, x in row.items()]
        s = math.lcm(*(q.denominator for _, re, im in parts
                       for q in (re, im)))
        if real:
            x = {j: re.numerator * (s // re.denominator)
                 for j, re, _ in parts if re != 0}
        else:
            x = {j: QC(re * s, im * s) for j, re, im in parts
                 if re != 0 or im != 0}
        c = content(x) or 1
        if c > 1:
            x = {j: divide(e, c) for j, e in x.items()}
        a.append(x)
        grown, shrunk = grown * s, shrunk * c
    used = [False] * len(a)
    pivots: list[int] = []
    owners: list[int] = []
    for col in range(n_cols):
        hits = [i for i, x in enumerate(a) if col in x]
        k = min((i for i in hits if not used[i]), key=lambda i: len(a[i]),
                default=None)
        if k is None:
            continue
        y = a[k]
        p = y[col]
        for i in hits:
            if i == k:
                continue
            x = a[i]
            f = x[col]
            z = {j: p * e for j, e in x.items()}
            for j, g in y.items():
                e = z.get(j, 0) - f * g
                if e != 0:
                    z[j] = e
                else:
                    del z[j]
            c = content(z)
            if c > 1:
                z = {j: divide(e, c) for j, e in z.items()}
            a[i] = z
            if track:
                grown, shrunk = grown * p, shrunk * c
        used[k] = True
        pivots.append(col)
        owners.append(k)
        if len(owners) == len(a):
            break
    out = []
    for col, k in zip(pivots, owners):
        p = a[k][col]
        out.append({j: ratio(e, p) for j, e in a[k].items()})
    det = None
    if track and pivots == list(range(len(a))):
        odd = sum(owners[i] > owners[j] for i in range(len(a))
                  for j in range(i + 1, len(a))) % 2
        scaled = math.prod(a[k][col] for col, k in zip(pivots, owners))
        det = ratio((-shrunk if odd else shrunk) * scaled, grown)
    return out, pivots, det


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
    pivots and determinant of the elimination that reads every row, on
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
        # sparse rows, and dense ones whose zeros the intake drops
        for given_rows in (_sparse(rows).data,
                           [dict(enumerate(row)) for row in rows]):
            for with_det in (False, True):
                want = _rref_every_row(given_rows, n_cols, with_det)
                assert _rref(given_rows, n_cols, with_det) == want
        m = Mat.from_rows(rows)
        assert rank(m) == len(want[1])
        assert [[v.entry(t, 0) for t in range(n_cols)]
                for v in kernel_basis(m)] == _reference_kernel(
                    [[_qc(x) for x in row] for row in rows], n_cols)
    if square is not None:
        m = Mat.from_rows(square)
        assert _rref(_sparse(square).data, n_cols, True)[2] is None
        assert det(m) == QC_ZERO
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
    got, want = _kernel(rows, n_cols), rref_kernel(rows, n_cols)
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
    a positive multiple of the one the rref kernel gives, and on real rows
    every carried vector is coprime ints."""
    entry = {"int": small_int, "rational": real_entry,
             "complex": complex_entry}[kind]
    got = want = SparseRows([], 0)
    start, real = 0, True
    for n_rows, width in stages:
        cols = start + width
        rows = _sparse_rows(n_rows, cols, entry, shape, data)
        got = solve_affine(_reduced(rows, got, start, cols), got)
        want = rref_solve_affine(_reduced(rows, want, start, cols), want)
        start = cols
        assert got.shape == want.shape
        real = real and all(_parts(x)[1] == 0 for row in rows
                            for x in row.values())
        for v, ref in zip(got.data, want.data):
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
    got = want = SparseRows([], 0)
    for rows, start, cols in ((first, 0, 3), (second, 3, 6)):
        got = solve_affine(_reduced(rows, got, start, cols), got)
        want = rref_solve_affine(_reduced(rows, want, start, cols), want)
    assert got.data == [{0: -11, 1: -8, 2: -10, 3: 1},
                        {0: -7, 1: -4, 2: -6, 4: 1},
                        {0: -3, 1: -3, 2: -3, 5: 1}] == want.data
