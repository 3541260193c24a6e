"""Exact and floating-point linear algebra kernels.

Two matrix backends share one interface: ``exact`` stores complex numbers
with rational real and imaginary parts and every operation is exact, while
``float`` stores a complex128 numpy array and rank decisions go through an
absolute singular-value tolerance (default 1e-9, after scaling rows to unit
norm).  Arithmetic on mixed operands (``@``, ``+``, ``-``, :func:`kron`, and
:meth:`Mat.scale` by a float or complex scalar) promotes to float, so the
float backend wins; exact inputs never meet a float and stay exact end to
end.

Exact arithmetic is decided here once.  One Gauss-Jordan elimination,
``_rref_exact``, serves :func:`rank`, :func:`kernel_basis`, :func:`det` (the
signed product of its pivots) and :meth:`Mat.inverse` (the rref of
``[A | I]``); :func:`integer_rows` is the one reader of integer matrices;
and :func:`negligible` is the one scalar zero test: exact values are zero
only when they equal zero, floats when their modulus is within a tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

DEFAULT_TOL = 1e-9


def _as_fraction(x) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to Fraction. Floats are
    rejected so inexact data cannot leak into the exact backend."""
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

    def conjugate(self) -> "QC":
        return QC(self.re, -self.im)

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
QC_ONE = QC(1)


def negligible(x, tol: float) -> bool:
    """The one scalar zero test: an exact QC is zero only when it equals
    zero (``tol`` is ignored); a float or complex is zero when
    ``|x| <= tol``."""
    if isinstance(x, QC):
        return x.is_zero()
    return abs(x) <= tol


class Mat:
    """Dense matrix on one of the two backends.

    Construct through :meth:`from_rows`, :meth:`identity` or :meth:`zeros`.
    Entries of an exact matrix are QC; entries of a float matrix are
    complex.
    """

    __slots__ = ("rows", "cols", "backend", "_exact", "_arr")

    def __init__(self, rows, cols, backend, exact_data=None, arr=None):
        self.rows = rows
        self.cols = cols
        self.backend = backend
        self._exact = exact_data
        self._arr = arr

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence], backend: str = "exact",
                  cols: int | None = None) -> "Mat":
        rows = list(rows)
        n_rows = len(rows)
        if n_rows == 0:
            if cols is None:
                raise ValueError("cols required for an empty matrix")
            n_cols = cols
        else:
            n_cols = len(rows[0])
        if backend == "exact":
            data = []
            for row in rows:
                if len(row) != n_cols:
                    raise ValueError("ragged rows")
                data.append([QC.parse(x) for x in row])
            return Mat(n_rows, n_cols, "exact", exact_data=data)
        if backend == "float":
            arr = np.asarray(rows, dtype=np.complex128).reshape(n_rows, n_cols)
            return Mat(n_rows, n_cols, "float", arr=arr)
        raise ValueError(f"unknown backend {backend!r}")

    @staticmethod
    def from_array(arr: np.ndarray) -> "Mat":
        arr = np.asarray(arr, dtype=np.complex128)
        if arr.ndim != 2:
            raise ValueError("need a 2-d array")
        return Mat(arr.shape[0], arr.shape[1], "float", arr=arr)

    @staticmethod
    def identity(n: int, backend: str = "exact") -> "Mat":
        if backend == "exact":
            data = [[QC(1) if i == j else QC(0) for j in range(n)]
                    for i in range(n)]
            return Mat(n, n, "exact", exact_data=data)
        return Mat(n, n, "float", arr=np.eye(n, dtype=np.complex128))

    @staticmethod
    def zeros(rows: int, cols: int, backend: str = "exact") -> "Mat":
        if backend == "exact":
            data = [[QC(0) for _ in range(cols)] for _ in range(rows)]
            return Mat(rows, cols, "exact", exact_data=data)
        return Mat(rows, cols, "float",
                   arr=np.zeros((rows, cols), dtype=np.complex128))

    @staticmethod
    def column(entries: Sequence, backend: str = "exact") -> "Mat":
        return Mat.from_rows([[e] for e in entries], backend=backend, cols=1)

    # -- access -----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def entry(self, i: int, j: int):
        if self.backend == "exact":
            return self._exact[i][j]
        return complex(self._arr[i, j])

    def row_list(self, i: int) -> list:
        if self.backend == "exact":
            return list(self._exact[i])
        return [complex(x) for x in self._arr[i]]

    def col(self, j: int) -> "Mat":
        if self.backend == "exact":
            return Mat.column([self._exact[i][j] for i in range(self.rows)])
        return Mat.from_array(self._arr[:, j].reshape(-1, 1))

    def np(self) -> np.ndarray:
        """complex128 view of the matrix (copies the exact backend)."""
        if self.backend == "float":
            return self._arr
        return np.array([[x.to_complex() for x in row] for row in self._exact],
                        dtype=np.complex128)

    def to_float(self) -> "Mat":
        if self.backend == "float":
            return self
        return Mat.from_array(self.np())

    # -- arithmetic -------------------------------------------------------

    def __matmul__(self, other: "Mat") -> "Mat":
        self, other = _promote(self, other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        if self.backend == "float":
            return Mat.from_array(self._arr @ other._arr)
        out = []
        for i in range(self.rows):
            row_i = self._exact[i]
            out_row = []
            for j in range(other.cols):
                acc = QC_ZERO
                for k in range(self.cols):
                    a = row_i[k]
                    if a.is_zero():
                        continue
                    acc = acc + a * other._exact[k][j]
                out_row.append(acc)
            out.append(out_row)
        return Mat(self.rows, other.cols, "exact", exact_data=out)

    def __add__(self, other: "Mat") -> "Mat":
        self, other = _promote(self, other)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} + {other.shape}")
        if self.backend == "float":
            return Mat.from_array(self._arr + other._arr)
        data = [[self._exact[i][j] + other._exact[i][j]
                 for j in range(self.cols)] for i in range(self.rows)]
        return Mat(self.rows, self.cols, "exact", exact_data=data)

    def __sub__(self, other: "Mat") -> "Mat":
        return self + (-other)

    def __neg__(self) -> "Mat":
        return self.scale(-1)

    def scale(self, s) -> "Mat":
        """Entrywise product with a scalar; a float or complex scalar
        promotes an exact matrix to float."""
        if self.backend == "float" or isinstance(s, (float, complex)):
            return Mat.from_array(self.np() * complex(s))
        s = QC.parse(s)
        data = [[s * x for x in row] for row in self._exact]
        return Mat(self.rows, self.cols, "exact", exact_data=data)

    def transpose(self) -> "Mat":
        if self.backend == "float":
            return Mat.from_array(self._arr.T.copy())
        data = [[self._exact[i][j] for i in range(self.rows)]
                for j in range(self.cols)]
        return Mat(self.cols, self.rows, "exact", exact_data=data)

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self.backend != other.backend or self.shape != other.shape:
            return False
        if self.backend == "float":
            return bool(np.array_equal(self._arr, other._arr))
        return all(self._exact[i][j] == other._exact[i][j]
                   for i in range(self.rows) for j in range(self.cols))

    def __hash__(self):
        if self.backend == "exact":
            return hash(tuple(tuple(row) for row in self._exact))
        return hash(self._arr.tobytes())

    def is_zero(self, tol: float = DEFAULT_TOL) -> bool:
        if self.backend == "exact":
            return all(x.is_zero() for row in self._exact for x in row)
        if self._arr.size == 0:
            return True
        return float(np.max(np.abs(self._arr))) <= tol

    def max_abs(self) -> float:
        """Largest entry modulus, as a float on either backend."""
        if self.rows == 0 or self.cols == 0:
            return 0.0
        if self.backend == "float":
            return float(np.max(np.abs(self._arr)))
        return max(float(x.abs2()) for row in self._exact for x in row) ** 0.5

    # -- stacking ---------------------------------------------------------

    @staticmethod
    def vstack(mats: Iterable["Mat"]) -> "Mat":
        mats = list(mats)
        if not mats:
            raise ValueError("nothing to stack")
        backend = mats[0].backend
        cols = mats[0].cols
        for m in mats:
            if m.backend != backend or m.cols != cols:
                raise ValueError("incompatible blocks")
        if backend == "float":
            return Mat.from_array(np.vstack([m._arr for m in mats]))
        data = []
        for m in mats:
            data.extend([list(row) for row in m._exact])
        return Mat(len(data), cols, "exact", exact_data=data)

    @staticmethod
    def hstack(mats: Iterable["Mat"]) -> "Mat":
        mats = list(mats)
        if not mats:
            raise ValueError("nothing to stack")
        return Mat.vstack([m.transpose() for m in mats]).transpose()

    # -- inverse ----------------------------------------------------------

    def inverse(self) -> "Mat":
        """Exact: the right half of the rref of [A | I]; float: numpy."""
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        if self.backend == "float":
            return Mat.from_array(np.linalg.inv(self._arr))
        n = self.rows
        a, pivots, _ = _rref_exact(Mat.hstack([self, Mat.identity(n)]))
        if pivots != list(range(n)):
            raise ValueError("singular matrix")
        return Mat(n, n, "exact", exact_data=[row[n:] for row in a])

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols}, {self.backend})"


def _promote(a: Mat, b: Mat) -> tuple[Mat, Mat]:
    """The two operands on one backend: float when either one is float."""
    if a.backend == b.backend:
        return a, b
    return a.to_float(), b.to_float()


# -- elimination-based queries ---------------------------------------------


def _rref_exact(m: Mat) -> tuple[list[list[QC]], list[int], QC]:
    """Reduced row echelon form by Gauss-Jordan elimination, the one exact
    elimination in the package; returns (rows, pivot column indices, signed
    product of the pivots).  For a square matrix with pivots in every column
    that product is the determinant."""
    a = [list(row) for row in (m._exact or [])]
    pivots: list[int] = []
    prod = QC_ONE
    r = 0
    for col in range(m.cols):
        pivot = next((i for i in range(r, m.rows) if not a[i][col].is_zero()),
                     None)
        if pivot is None:
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
            prod = -prod
        p = a[r][col]
        prod = prod * p
        a[r] = [x / p for x in a[r]]
        for i in range(m.rows):
            if i == r or a[i][col].is_zero():
                continue
            f = a[i][col]
            a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
        if r == m.rows:
            break
    return a, pivots, prod


def _scaled_svd(m: Mat, tol: float):
    """Singular values and right singular vectors after rows are scaled to
    unit norm.  Rows of norm at most ``tol`` are zero up to rounding: they
    are set to zero rather than blown up to unit norm, since they do not
    constrain anything."""
    arr = m.np().copy()
    if arr.shape[0]:
        norms = np.linalg.norm(arr, axis=1)
        nz = norms > tol
        arr[nz] = arr[nz] / norms[nz, None]
        arr[~nz] = 0
    _, s, vh = np.linalg.svd(arr, full_matrices=True)
    full = np.zeros(arr.shape[1])
    full[: s.shape[0]] = s
    return full, vh


def rank(m: Mat, tol: float = DEFAULT_TOL) -> int:
    if m.rows == 0 or m.cols == 0:
        return 0
    if m.backend == "exact":
        return len(_rref_exact(m)[1])
    s, _ = _scaled_svd(m, tol)
    return int(np.sum(s > tol))


def kernel_basis(m: Mat, tol: float = DEFAULT_TOL) -> list[Mat]:
    """Basis of the right null space, as a list of column matrices.

    Exact backend: Gaussian elimination, one basis column per free column.
    Float backend: right singular vectors whose singular value is at most
    ``tol`` after row scaling.
    """
    if m.cols == 0:
        return []
    if m.rows == 0:
        return [Mat.identity(m.cols, m.backend).col(j) for j in range(m.cols)]
    if m.backend == "exact":
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
    s, vh = _scaled_svd(m, tol)
    basis = []
    for i in range(m.cols):
        if s[i] <= tol:
            basis.append(Mat.from_array(vh[i].conj().reshape(-1, 1)))
    return basis


def det(m: Mat):
    """Determinant; QC on the exact backend, complex on the float backend."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    if m.backend == "float":
        return complex(np.linalg.det(m._arr))
    _, pivots, prod = _rref_exact(m)
    return prod if len(pivots) == m.rows else QC_ZERO


def kron(a: Mat, b: Mat) -> Mat:
    """Kronecker product a (x) b; mixed backends promote to float."""
    a, b = _promote(a, b)
    if a.backend == "float":
        return Mat.from_array(np.kron(a.np(), b.np()))
    data = []
    for i in range(a.rows):
        for p in range(b.rows):
            row = []
            for j in range(a.cols):
                x = a._exact[i][j]
                row.extend(x * y for y in b._exact[p])
            data.append(row)
    return Mat(a.rows * b.rows, a.cols * b.cols, "exact", exact_data=data)


def has_eigenvalue_one(m: Mat, tol: float = DEFAULT_TOL) -> bool:
    """True when 1 is an eigenvalue: rank deficiency of M - I (exact) or a
    near-zero smallest singular value of M - I (float)."""
    if m.rows != m.cols:
        raise ValueError("eigenvalue test needs a square matrix")
    shifted = m - Mat.identity(m.rows, m.backend)
    if m.backend == "exact":
        return rank(shifted) < m.rows
    if m.rows == 0:
        return False
    s = np.linalg.svd(shifted._arr, compute_uv=False)
    return bool(s[-1] <= tol)


def solve_affine(k: Mat, selected: Sequence[int],
                 tol: float = DEFAULT_TOL) -> tuple[list[Mat], int]:
    """Kernel of ``k`` together with the dimension of its projection onto
    the coordinates listed in ``selected``."""
    basis = kernel_basis(k, tol=tol)
    if not basis:
        return [], 0
    proj = Mat.hstack([b for b in basis])
    rows = [proj.row_list(i) for i in selected]
    pm = Mat.from_rows(rows, backend=proj.backend, cols=len(basis))
    return basis, rank(pm, tol=tol)


# -- integer matrices -------------------------------------------------------


def integer_rows(m: Mat) -> list[list[int]] | None:
    """Entries as nested int lists when every entry is a real integer;
    None otherwise, and for every float matrix."""
    if m.backend != "exact":
        return None
    if any(x.im != 0 or x.re.denominator != 1 for row in m._exact for x in row):
        return None
    return [[int(x.re) for x in row] for row in m._exact]


def smith_normal_form(m: list[list[int]]) -> tuple[list[list[int]],
                                                  list[list[int]],
                                                  list[list[int]]]:
    """Smith normal form of an integer matrix given as nested int lists:
    U @ M @ V = S with U, V unimodular and S diagonal, nonnegative, each
    diagonal entry dividing the next.  Returns (U, S, V) as nested integer
    lists."""
    a = [list(row) for row in m]
    n_rows = len(a)
    n_cols = len(a[0]) if n_rows else 0
    u = [[1 if i == j else 0 for j in range(n_rows)] for i in range(n_rows)]
    v = [[1 if i == j else 0 for j in range(n_cols)] for i in range(n_cols)]

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in a:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(n_rows, n_cols):
        # move the submatrix entry of least nonzero magnitude to (t, t)
        best = None
        for i in range(t, n_rows):
            for j in range(t, n_cols):
                if a[i][j] != 0 and (best is None
                                     or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        dirty = False
        for i in range(t + 1, n_rows):
            if a[i][t] != 0:
                q = a[i][t] // a[t][t]
                row_op(i, t, q)
                if a[i][t] != 0:
                    dirty = True
        for j in range(t + 1, n_cols):
            if a[t][j] != 0:
                q = a[t][j] // a[t][t]
                col_op(j, t, q)
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # pivot must divide the rest of the submatrix
        stuck = None
        for i in range(t + 1, n_rows):
            for j in range(t + 1, n_cols):
                if a[i][j] % a[t][t] != 0:
                    stuck = i
                    break
            if stuck is not None:
                break
        if stuck is not None:
            row_op(t, stuck, -1)  # fold the offending row into the pivot row
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    if n_rows == n_cols and any(a[i][i] == 0 for i in range(n_rows)):
        raise ValueError("smith_normal_form needs a nonsingular matrix")
    return u, a, v
