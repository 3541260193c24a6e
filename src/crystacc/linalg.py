"""Exact linear algebra kernels.

One matrix type, :class:`Mat`, stores complex numbers with rational real
and imaginary parts (:class:`QC`), and every operation on it is exact.
Floats cross the boundary once in each direction: :meth:`Mat.np` is the one
way out (the cascade oracle computes on those arrays), and
:func:`read_float` the one way in.  :func:`read_float` reads a finite float
``x`` as the rational closest to it with denominator at most
``FLOAT_DENOMINATOR_CAP`` (10**6), kept only when its nearest double is
``x`` itself, so the change is at most half an ulp; otherwise as the exact
dyadic value of ``x``.  NaN and infinities are refused.

One Gauss-Jordan elimination, ``_rref_exact``, serves :func:`rank`,
:func:`kernel_basis`, :func:`det` and :meth:`Mat.inverse` (the rref of
``[A | I]``).  It is fraction-free: each row is scaled to integers by the
lcm of its denominators, every elimination step divides exactly by the
previous pivot (Bareiss), and the pivot rows are divided by the last pivot
once, at the end; real data runs on Python ints, complex data on QC with
integer parts, through the same loop.  The determinant is the sign of the
row swaps times the last pivot, over the product of the row scales.
:func:`integer_rows` is the one reader of integer matrices, and
:meth:`QC.is_zero` (with :meth:`Mat.is_zero`) the one zero test.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

FLOAT_DENOMINATOR_CAP = 10 ** 6


def read_float(x: float) -> Fraction:
    """The exact rational a float stands for: the fraction closest to ``x``
    with denominator at most ``FLOAT_DENOMINATOR_CAP`` when it rounds back
    to ``x``, else the exact dyadic value of ``x``.  NaN and infinities
    raise ``ValueError``."""
    if not math.isfinite(x):
        raise ValueError(f"not a finite number: {x!r}")
    q = Fraction(x).limit_denominator(FLOAT_DENOMINATOR_CAP)
    return q if float(q) == x else Fraction(x)


def _as_fraction(x) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to Fraction. Floats are
    rejected so inexact data cannot leak into an exact matrix."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"not an exact rational: {x!r}")


class QC:
    """A complex number with Fraction real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("QC is immutable")

    @staticmethod
    def parse(obj) -> "QC":
        """Accept QC, int, Fraction, 'p/q' strings, or a [re, im] pair."""
        if isinstance(obj, QC):
            return obj
        if isinstance(obj, (list, tuple)):
            if len(obj) != 2:
                raise ValueError(f"complex literal needs two parts: {obj!r}")
            return QC(_as_fraction(obj[0]), _as_fraction(obj[1]))
        return QC(_as_fraction(obj))

    def __add__(self, other):
        other = QC.parse(other)
        return QC(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = QC.parse(other)
        return QC(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return QC.parse(other) - self

    def __neg__(self):
        return QC(-self.re, -self.im)

    def __mul__(self, other):
        other = QC.parse(other)
        return QC(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = QC.parse(other)
        den = other.re * other.re + other.im * other.im
        if den == 0:
            raise ZeroDivisionError("division by zero")
        return QC(
            (self.re * other.re + self.im * other.im) / den,
            (self.im * other.re - self.re * other.im) / den,
        )

    def __rtruediv__(self, other):
        return QC.parse(other) / self

    def __eq__(self, other):
        try:
            other = QC.parse(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def abs2(self) -> Fraction:
        """Exact squared modulus."""
        return self.re * self.re + self.im * self.im

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    __complex__ = to_complex

    def __repr__(self):
        if self.im == 0:
            return f"QC({self.re})"
        return f"QC({self.re}, {self.im})"


QC_ZERO = QC(0)


class Mat:
    """Dense exact matrix with QC entries.

    Construct through :meth:`from_rows`, :meth:`identity`, :meth:`zeros`
    or :meth:`column`; :meth:`np` is the one way out to floats.
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows, cols, data):
        self.rows = rows
        self.cols = cols
        self._data = data

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence], cols: int | None = None) -> "Mat":
        """Matrix of exact entries (QC, int, Fraction or "p/q"); a float
        entry raises ``TypeError``."""
        rows = list(rows)
        n_rows = len(rows)
        if n_rows == 0:
            if cols is None:
                raise ValueError("cols required for an empty matrix")
            n_cols = cols
        else:
            n_cols = len(rows[0])
        data = []
        for row in rows:
            if len(row) != n_cols:
                raise ValueError("ragged rows")
            data.append([QC.parse(x) for x in row])
        return Mat(n_rows, n_cols, data)

    @staticmethod
    def identity(n: int) -> "Mat":
        data = [[QC(1) if i == j else QC(0) for j in range(n)]
                for i in range(n)]
        return Mat(n, n, data)

    @staticmethod
    def zeros(rows: int, cols: int) -> "Mat":
        data = [[QC(0) for _ in range(cols)] for _ in range(rows)]
        return Mat(rows, cols, data)

    @staticmethod
    def column(entries: Sequence) -> "Mat":
        return Mat.from_rows([[e] for e in entries], cols=1)

    # -- access -----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def entry(self, i: int, j: int) -> QC:
        return self._data[i][j]

    def row_list(self, i: int) -> list:
        return list(self._data[i])

    def col(self, j: int) -> "Mat":
        return Mat.column([self._data[i][j] for i in range(self.rows)])

    def np(self) -> np.ndarray:
        """complex128 copy of the matrix: the one exact-to-float step."""
        return np.array([[x.to_complex() for x in row] for row in self._data],
                        dtype=np.complex128)

    # -- arithmetic -------------------------------------------------------

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        out = []
        for i in range(self.rows):
            row_i = self._data[i]
            out_row = []
            for j in range(other.cols):
                acc = QC_ZERO
                for k in range(self.cols):
                    a = row_i[k]
                    if a.is_zero():
                        continue
                    acc = acc + a * other._data[k][j]
                out_row.append(acc)
            out.append(out_row)
        return Mat(self.rows, other.cols, out)

    def _entrywise(self, other: "Mat", op, symbol: str) -> "Mat":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} {symbol} "
                             f"{other.shape}")
        data = [[op(x, y) for x, y in zip(row, other_row)]
                for row, other_row in zip(self._data, other._data)]
        return Mat(self.rows, self.cols, data)

    def __add__(self, other: "Mat") -> "Mat":
        return self._entrywise(other, operator.add, "+")

    def __sub__(self, other: "Mat") -> "Mat":
        return self._entrywise(other, operator.sub, "-")

    def __neg__(self) -> "Mat":
        return self.scale(-1)

    def scale(self, s) -> "Mat":
        """Entrywise product with an exact scalar."""
        s = QC.parse(s)
        data = [[s * x for x in row] for row in self._data]
        return Mat(self.rows, self.cols, data)

    def transpose(self) -> "Mat":
        data = [[self._data[i][j] for i in range(self.rows)]
                for j in range(self.cols)]
        return Mat(self.cols, self.rows, data)

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self.shape != other.shape:
            return False
        return all(self._data[i][j] == other._data[i][j]
                   for i in range(self.rows) for j in range(self.cols))

    def __hash__(self):
        return hash(tuple(tuple(row) for row in self._data))

    def is_zero(self) -> bool:
        """Whether every entry is zero."""
        return all(x.is_zero() for row in self._data for x in row)

    def max_abs(self) -> float:
        """Largest entry modulus, as a float."""
        if self.rows == 0 or self.cols == 0:
            return 0.0
        return max(float(x.abs2()) for row in self._data for x in row) ** 0.5

    # -- stacking ---------------------------------------------------------

    @staticmethod
    def vstack(mats: Iterable["Mat"]) -> "Mat":
        mats = list(mats)
        if not mats:
            raise ValueError("nothing to stack")
        cols = mats[0].cols
        for m in mats:
            if m.cols != cols:
                raise ValueError("incompatible blocks")
        data = []
        for m in mats:
            data.extend([list(row) for row in m._data])
        return Mat(len(data), cols, data)

    @staticmethod
    def hstack(mats: Iterable["Mat"]) -> "Mat":
        mats = list(mats)
        if not mats:
            raise ValueError("nothing to stack")
        return Mat.vstack([m.transpose() for m in mats]).transpose()

    # -- inverse ----------------------------------------------------------

    def inverse(self) -> "Mat":
        """Exact inverse: the right half of the rref of [A | I]."""
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        a, pivots, _ = _rref_exact(Mat.hstack([self, Mat.identity(n)]))
        if pivots != list(range(n)):
            raise ValueError("singular matrix")
        return Mat(n, n, [row[n:] for row in a])

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols})"


# -- elimination-based queries ---------------------------------------------


def _rref_exact(m: Mat) -> tuple[list[list[QC]], list[int], QC]:
    """Reduced row echelon form by fraction-free Gauss-Jordan elimination,
    the one exact elimination in the package; returns (rows, pivot column
    indices, determinant); the determinant is meaningful only for a square
    matrix with pivots in every column.

    After pivot ``p`` every other row ``x`` of the integer-scaled matrix
    becomes ``(p*x - f*y) / prev``, with ``y`` the pivot row, ``f`` the
    row's entry in the pivot column and ``prev`` the previous pivot; by
    Sylvester's identity every division is exact.  A row with ``f = 0`` is
    still rescaled by ``p / prev``, so every pivot row carries the latest
    pivot and one division by the last pivot at the end gives the rref."""
    rows = m._data
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
    pivots: list[int] = []
    sign, prev = 1, 1
    r = 0
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


def rank(m: Mat) -> int:
    if m.rows == 0 or m.cols == 0:
        return 0
    return len(_rref_exact(m)[1])


def kernel_basis(m: Mat) -> list[Mat]:
    """Basis of the right null space, as a list of column matrices: one
    basis column per free column of the rref."""
    if m.cols == 0:
        return []
    if m.rows == 0:
        return [Mat.identity(m.cols).col(j) for j in range(m.cols)]
    a, pivots, _ = _rref_exact(m)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for f in free:
        v = [QC(0)] * m.cols
        v[f] = QC(1)
        for r, pc in enumerate(pivots):
            v[pc] = -a[r][f]
        basis.append(Mat.column(v))
    return basis


def det(m: Mat) -> QC:
    """Exact determinant."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    _, pivots, prod = _rref_exact(m)
    return prod if len(pivots) == m.rows else QC_ZERO


def kron(a: Mat, b: Mat) -> Mat:
    """Kronecker product a (x) b.

    A zero entry on either side gives ``QC_ZERO`` without a product, and
    two real entries are multiplied with one ``Fraction`` product."""
    data = []
    for i in range(a.rows):
        for p in range(b.rows):
            row = []
            for x in a._data[i]:
                if x.is_zero():
                    row.extend([QC_ZERO] * b.cols)
                else:
                    row.extend(QC_ZERO if y.is_zero()
                               else QC(x.re * y.re) if x.im == 0 == y.im
                               else x * y for y in b._data[p])
            data.append(row)
    return Mat(a.rows * b.rows, a.cols * b.cols, data)


def solve_affine(k: Mat, basis: Sequence[Mat]) -> list[Mat]:
    """Kernel of a block row ``k = [K_old B | K_new]`` reduced against
    the columns B of ``basis`` (none at the first block row): ``(B c, v)``
    for each rref kernel column ``(c, v)`` of ``k``.  When B is the rref
    kernel basis of the rows above, this is the rref kernel basis of the
    stacked rows, as B is the identity on its free coordinates."""
    kernel = kernel_basis(k)
    if not basis:
        return kernel
    b, w = Mat.hstack(basis), k.cols - len(basis)
    lift = Mat.vstack([Mat.hstack([b, Mat.zeros(b.rows, w)]),
                       Mat.hstack([Mat.zeros(w, b.cols), Mat.identity(w)])])
    return [lift @ x for x in kernel]


# -- integer matrices -------------------------------------------------------


def integer_rows(m: Mat) -> list[list[int]] | None:
    """Entries as nested int lists when every entry is a real integer;
    None otherwise."""
    if any(x.im != 0 or x.re.denominator != 1 for row in m._data for x in row):
        return None
    return [[int(x.re) for x in row] for row in m._data]
