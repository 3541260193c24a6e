"""Exact linear algebra kernels.

One matrix type, :class:`Mat`, and every operation on it is exact.  It stores
each entry as a plain value: an int where it is integral, a Fraction where it
is real, and a complex number with rational parts (:class:`QC`) only where its
imaginary part is non-zero.  :meth:`Mat.plain` gives those rows, the one exact
way in for the package's solvers.  The public QC face is :meth:`Mat.entry`,
:meth:`Mat.row_list`, :func:`det` and the report scalars of
:mod:`crystacc.accuracy`; elsewhere the package builds a QC only for a value
with a non-zero imaginary part.  Floats cross the boundary once in each
direction: :meth:`Mat.np` is the one way out (the cascade oracle computes on
those arrays), and :func:`read_scalar`, the reader of every scalar literal, the
one way in: it keeps exact parts and reads each float part with
:func:`read_float`, which reads a finite float ``x`` as the rational closest to
it with denominator at most ``FLOAT_DENOMINATOR_CAP`` (10**6), kept only when
its nearest double is ``x`` itself, so the change is at most half an ulp;
otherwise as the exact dyadic value of ``x``.  Booleans, NaN and infinities are
refused.

One Gauss-Jordan elimination, ``_rref``, serves :func:`rank`,
:func:`kernel_basis`, :func:`det`, :meth:`Mat.inverse` (the rref of
``[A | I]``) and :func:`solve_affine`.  It runs on sparse rows, one dict column
-> value per row, and is fraction-free: each row is scaled to integers by the
lcm of its denominators (a row of ints as it is) and kept divided by its
content, a row equal to one already read is dropped (so a row that repeats
another up to a positive scale is eliminated once), only the rows with a
non-zero in the pivot column are updated, the pivot row is the unused
candidate with the fewest non-zeros (Markowitz), and the pivot rows are
divided by their pivots once, at the end, but for :func:`_kernel`, whose
vectors are positive multiples of the rref ones, coprime ints on real data.
Real data run on Python ints, complex data on QCs with integer parts, through
the same loop.  The columns are taken in order, so the rref is the textbook
one.  The determinant is tracked through the row scalings and the order of the
pivot rows.  :class:`Mat` is the dense exact matrix of the public API;
:class:`SparseRows` carries the exact solver's rows and kernels as plain
values in sparse form.  :meth:`QC.is_zero` (with :meth:`Mat.is_zero`) is the
one zero test of the public scalars.
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


def read_scalar(x, floats: bool = True) -> tuple:
    """An int, Fraction, "p/q" string, float, complex, QC, or [re, im] list
    or tuple of real parts, as (its stored form, as :class:`Mat` keeps it;
    |read - given| / |given| when a part was a float and the value is not
    zero, else None).  Float parts are read by :func:`read_float` once
    every part is parsed, or raise ``TypeError`` when ``floats`` is false.
    Booleans, bad strings, NaN, infinities and the rest raise ValueError."""
    if type(x) is int or isinstance(x, (Fraction, QC)):
        return _stored(x), None
    if isinstance(x, complex):
        parts = [x.real, x.imag or 0]
    elif isinstance(x, (list, tuple)):
        if len(x) != 2 or any(isinstance(p, (list, tuple)) for p in x):
            raise ValueError(f"cannot read coefficient {x!r}")
        parts = [_parse_part(p) for p in x]
    else:
        parts = [_parse_part(x), 0]
    re, im = parts
    change = None
    if isinstance(re, float) or isinstance(im, float):
        if not floats:
            raise TypeError(f"not an exact rational: {x!r}")
        try:
            (re, given_re), (im, given_im) = [
                (read_float(p), Fraction(p)) if isinstance(p, float)
                else (p, p) for p in parts]
        except ValueError as exc:
            raise ValueError(f"bad coefficient: {exc}") from None
        size = given_re * given_re + given_im * given_im
        if size:
            change = float(((re - given_re) ** 2 + (im - given_im) ** 2)
                           / size) ** 0.5
    return (QC(re, im) if im else _stored(re)), change


def _parse_part(p):
    """A real part of a literal: a float as it is, else a Fraction."""
    if isinstance(p, bool):
        raise ValueError("boolean is not a coefficient")
    if isinstance(p, float):
        return p
    if isinstance(p, (int, Fraction, str)):
        try:
            return Fraction(p)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad rational {p!r}: {exc}") from None
    raise ValueError(f"cannot read coefficient {p!r}")


class QC:
    """A complex number with Fraction real and imaginary parts; its
    arithmetic reads an int or Fraction operand as its parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        for name, part in (("re", re), ("im", im)):
            if type(part) is int:
                part = Fraction(part)
            elif not isinstance(part, Fraction):
                raise TypeError(f"not an exact rational: {part!r}")
            object.__setattr__(self, name, part)

    def __setattr__(self, name, value):
        raise AttributeError("QC is immutable")

    def __add__(self, other):
        re, im = _parts(other)
        return QC(self.re + re, self.im + im)

    __radd__ = __add__

    def __sub__(self, other):
        re, im = _parts(other)
        return QC(self.re - re, self.im - im)

    def __rsub__(self, other):
        re, im = _parts(other)
        return QC(re - self.re, im - self.im)

    def __neg__(self):
        return QC(-self.re, -self.im)

    def __mul__(self, other):
        re, im = _parts(other)
        return QC(self.re * re - self.im * im, self.re * im + self.im * re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _quotient((self.re, self.im), _parts(other))

    def __rtruediv__(self, other):
        return _quotient(_parts(other), (self.re, self.im))

    def __eq__(self, other):
        if not isinstance(other, (int, Fraction, QC)):
            return NotImplemented
        re, im = _parts(other)
        return self.re == re and self.im == im

    def __hash__(self):  # a real QC hashes as the int or Fraction it equals
        return hash((self.re, self.im) if self.im else self.re)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def abs2(self) -> Fraction:
        """Exact squared modulus."""
        return self.re * self.re + self.im * self.im

    def __complex__(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        if self.im == 0:
            return f"QC({self.re})"
        return f"QC({self.re}, {self.im})"


def _parts(x) -> tuple:
    """Real and imaginary parts of an int, a Fraction or a QC."""
    return (x.re, x.im) if isinstance(x, QC) else (x, 0)


def _quotient(a: tuple, b: tuple) -> QC:
    """The quotient of two complex numbers given as (re, im) parts."""
    (a_re, a_im), (b_re, b_im) = a, b
    den = b_re * b_re + b_im * b_im
    if den == 0:
        raise ZeroDivisionError("division by zero")
    return QC((a_re * b_re + a_im * b_im) / den,
              (a_im * b_re - a_re * b_im) / den)


QC_ZERO = QC(0)


def _stored(x):
    """A scalar as :class:`Mat` stores it: an int where it is integral, a
    Fraction where it is real, else a QC; a literal is read by
    :func:`read_scalar`, and a float part raises ``TypeError``."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, QC):
        return x if x.im != 0 else _stored(x.re)
    return read_scalar(x, floats=False)[0]


def _qc(x) -> QC:
    """A stored entry as a QC, the type of :meth:`Mat.entry`."""
    return x if isinstance(x, QC) else QC(x)


class Mat:
    """Dense exact matrix.

    Each entry is stored as a plain value: an int where it is integral, a
    Fraction where it is real, and a QC only where its imaginary part is
    non-zero.  Entries are brought to that form once, where they enter
    (:meth:`from_rows`) or are computed, so equal matrices store equal
    rows.  :meth:`plain` is the one exact way in to those rows, as
    :meth:`np` is the one way out to floats; :meth:`entry` and
    :meth:`row_list` give the entries as QCs, the public face.
    :meth:`row_list` has no reader in the package: it stays because the
    benchmark (``perfbench/worker.py``) reads ``x.re`` from it.
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows, cols, data):
        self.rows = rows
        self.cols = cols
        self._data = data

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence], cols: int | None = None) -> "Mat":
        """Matrix of exact entries (int, Fraction, QC, or a literal that
        :func:`read_scalar` reads exactly); an entry with a float part
        raises ``TypeError``."""
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
            data.append(tuple(map(_stored, row)))
        return Mat(n_rows, n_cols, tuple(data))

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat(n, n, tuple(tuple(int(i == j) for j in range(n))
                               for i in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "Mat":
        return Mat(rows, cols, ((0,) * cols,) * rows)

    @staticmethod
    def column(entries: Sequence) -> "Mat":
        return Mat.from_rows([[e] for e in entries], cols=1)

    # -- access -----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def plain(self) -> tuple:
        """The stored rows, a tuple of row tuples of plain values."""
        return self._data

    def entry(self, i: int, j: int) -> QC:
        return _qc(self._data[i][j])

    def row_list(self, i: int) -> list:
        return [_qc(x) for x in self._data[i]]

    def np(self) -> np.ndarray:
        """complex128 copy of the matrix: the one exact-to-float step."""
        return np.array([[complex(x) for x in row] for row in self._data],
                        dtype=np.complex128)

    # -- arithmetic -------------------------------------------------------

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        cols = list(zip(*other._data)) or [()] * other.cols
        return Mat(self.rows, other.cols, tuple(
            tuple(_stored(sum([a * b for a, b in zip(row, col) if a and b]))
                  for col in cols)
            for row in self._data))

    def _entrywise(self, other: "Mat", op, symbol: str) -> "Mat":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} {symbol} "
                             f"{other.shape}")
        data = tuple(tuple(_stored(op(x, y)) for x, y in zip(row, row_o))
                     for row, row_o in zip(self._data, other._data))
        return Mat(self.rows, self.cols, data)

    def __add__(self, other: "Mat") -> "Mat":
        return self._entrywise(other, operator.add, "+")

    def __sub__(self, other: "Mat") -> "Mat":
        return self._entrywise(other, operator.sub, "-")

    def __neg__(self) -> "Mat":
        return self.scale(-1)

    def scale(self, s) -> "Mat":
        """Entrywise product with an exact scalar."""
        s = _stored(s)
        data = tuple(tuple(_stored(s * x) for x in row) for row in self._data)
        return Mat(self.rows, self.cols, data)

    def transpose(self) -> "Mat":
        data = tuple(tuple(row[j] for row in self._data)
                     for j in range(self.cols))
        return Mat(self.cols, self.rows, data)

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.shape == other.shape and self._data == other._data

    def __hash__(self):
        return hash(self._data)

    def is_zero(self) -> bool:
        """Whether every entry is zero."""
        return not any(any(row) for row in self._data)

    def max_abs(self) -> float:
        """Largest entry modulus, as a float."""
        if self.rows == 0 or self.cols == 0:
            return 0.0
        return max(float(x.abs2() if isinstance(x, QC) else x * x)
                   for row in self._data for x in row) ** 0.5

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
        data = tuple(row for m in mats for row in m._data)
        return Mat(len(data), cols, data)

    @staticmethod
    def hstack(mats: Iterable["Mat"]) -> "Mat":
        mats = list(mats)
        if not mats:
            raise ValueError("nothing to stack")
        return Mat.vstack([m.transpose() for m in mats]).transpose()

    # -- inverse ----------------------------------------------------------

    def inverse(self) -> "Mat":
        """Exact inverse, from :func:`_det_inverse` of the stored rows."""
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        inv = _det_inverse(self._data)[1]
        if inv is None:
            raise ValueError("singular matrix")
        return Mat.from_rows(inv, cols=self.cols)

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols})"


# -- elimination-based queries ---------------------------------------------


class SparseRows:
    """Exact rows kept sparse: ``data`` holds one dict per row, column ->
    value, a value being an int, a Fraction or a QC and a missing column a
    zero; ``rows``, ``cols`` and ``shape`` read as on :class:`Mat`.
    :func:`solve_affine` takes its block row and its carried basis in this
    form and returns its kernel in it, so rows built on Python ints reach
    the elimination without being wrapped in QCs."""

    __slots__ = ("data", "cols")

    def __init__(self, data: list[dict], cols: int):
        self.data = data
        self.cols = cols

    @property
    def rows(self) -> int:
        return len(self.data)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)


def _dict_rows(m: Mat) -> list[dict]:
    return [{j: x for j, x in enumerate(row) if x} for row in m._data]


def _rref(rows: list[dict], n_cols: int, with_det: bool = False,
          unit: bool = True) -> tuple[list[dict], list[int], QC | None]:
    """Reduced row echelon form of sparse exact rows by fraction-free
    Gauss-Jordan elimination, the one exact elimination in the package.
    Returns (the rref's non-zero rows, each a dict column -> value, an int or
    Fraction on real data and a QC otherwise, or with ``unit`` false the pivot
    rows undivided, integral; their pivot columns; and with ``with_det``, the
    determinant of the leading square block, the first ``len(rows)`` columns,
    in the same form as the entries, which is None unless that block has a
    pivot in every column).

    Each row is scaled to integers by the lcm of its denominators (real data
    then run on Python ints, complex data on QCs with integer parts; a row of
    ints on real data is read as it is) and divided by its content, the gcd of
    all its real and imaginary parts.  A row equal to one already read is then
    dropped: the row space, so the rref, the pivots and every kernel, stays the
    same, and each distinct constraint is eliminated once (the exact solver's
    block rows leave out exact repeats themselves; the rows that reach here
    may still repeat up to scale, or once reduced against the carried
    kernel).  A dropped row makes the leading square block singular, and
    the determinant is then None.
    The columns are taken in their order, so the rref, which is unique for a
    fixed column order, is that of the textbook elimination.  Among the rows
    not yet used with a non-zero ``p`` in the pivot column, the one with the
    fewest non-zeros is the pivot row ``y`` (Markowitz, Management Sci. 3,
    1957); only the rows ``x`` with a non-zero ``f`` in the column change, to
    ``(p*x - f*y) / content``.  The pivot rows are divided by their pivots
    once, at the end, if ``unit``.  For a square matrix each change scales the
    determinant by p / content and each row's first scaling by its lcm over its
    content; the rows end as a permutation of the diagonal of their pivots,
    whose sign and product give the determinant of the scaled matrix.  Columns
    past the square block, such as the identity of [A | I], change none of
    this.  The determinant is tracked only on request, as the kernel queries
    and :meth:`Mat.inverse` do not read it.
    """
    real = not any(type(x) is QC and x.im for row in rows
                   for x in row.values())
    if real:
        def content(x):
            return math.gcd(*x.values())

        def divide(e, c):
            return e // c

        def ratio(e, p):
            return Fraction(e, p) if e % p else e // p
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
    a, seen = [], set()
    for row in rows:
        if real and all(type(e) is int for e in row.values()):
            s, x = 1, {j: e for j, e in row.items() if e}
        else:
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
        key = frozenset(x.items())
        if key in seen:
            track = False
            continue
        seen.add(key)
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
    out = [a[k] for k in owners]
    if unit:
        out = [{j: ratio(e, x[col]) for j, e in x.items()}
               for x, col in zip(out, pivots)]
    det = None
    if track and pivots == list(range(len(a))):
        odd = sum(owners[i] > owners[j] for i in range(len(a))
                  for j in range(i + 1, len(a))) % 2
        scaled = math.prod(a[k][col] for col, k in zip(pivots, owners))
        det = ratio((-shrunk if odd else shrunk) * scaled, grown)
    return out, pivots, det


def _kernel(rows: list[dict], n_cols: int) -> list[dict]:
    """A kernel basis of sparse rows: for each free column f of the rref, in
    order, a positive multiple of the rref kernel vector (1 at f and minus the
    rref's column f at the pivots).  From the undivided pivot rows of
    :func:`_rref`, a complex one times its pivot's conjugate, so each pivot p
    is an int: L at f and -x L / p at the pivot of each row with x at f, L the
    lcm of those p, over its content (coprime ints on real data, QCs with
    integer parts otherwise)."""
    pivot_rows, pivots, _ = _rref(rows, n_cols, unit=False)
    taken = set(pivots)
    basis = {f: {} for f in range(n_cols) if f not in taken}
    for row, col in zip(pivot_rows, pivots):
        p = row[col]
        if type(p) is QC:
            q = QC(p.re, -p.im)
            row, p = {j: x * q for j, x in row.items()}, p.abs2().numerator
        for j, x in row.items():
            if j != col:
                basis[j][col] = (x, p)
    out = []
    for f, terms in basis.items():
        s = math.lcm(*(p for _, p in terms.values()))
        out.append(_primitive({f: s} | {col: -x * (s // p)
                                        for col, (x, p) in terms.items()}))
    return out


def _primitive(v: dict) -> dict:
    """A sparse vector of integral parts divided by their gcd."""
    c = math.gcd(*(q.numerator for x in v.values() for q in _parts(x)))
    return v if c == 1 else {j: x // c if type(x) is int else QC(
        x.re / c, x.im / c) for j, x in v.items()}


def rank(m: Mat) -> int:
    return len(_rref(_dict_rows(m), m.cols)[1])


def kernel_basis(m: Mat) -> list[Mat]:
    """Basis of the right null space, as a list of column matrices: one basis
    column per free column of the rref, 1 there and minus the rref's column at
    the pivots (the rref kernel basis): each vector of :func:`_kernel` divided
    by its entry at its free column, its last."""
    return [Mat.column([v.get(j, 0) for j in range(m.cols)]).scale(
        Fraction(1, v[max(v)])) for v in _kernel(_dict_rows(m), m.cols)]


def det(m: Mat) -> QC:
    """Exact determinant."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    value = _rref(_dict_rows(m), m.cols, with_det=True)[2]
    return QC_ZERO if value is None else _qc(value)


def _det_inverse(rows) -> tuple:
    """The determinant and the inverse of a square matrix given as plain
    rows (as :meth:`Mat.plain` gives them), from one :func:`_rref` of
    [rows | I]: (det, the inverse's rows as tuples, ints where integral,
    else Fractions on real data and QCs otherwise), or (0, None) when the
    matrix is singular."""
    n = len(rows)
    a, _, value = _rref([{**{j: x for j, x in enumerate(row) if x}, n + i: 1}
                         for i, row in enumerate(rows)], 2 * n, with_det=True)
    if value is None:
        return 0, None
    return value, tuple(tuple(row.get(j, 0) for j in range(n, 2 * n))
                        for row in a)


def kron(a: Mat, b: Mat) -> Mat:
    """Kronecker product a (x) b."""
    data = tuple(tuple(_stored(x * y) for x in row_a for y in row_b)
                 for row_a in a._data for row_b in b._data)
    return Mat(a.rows * b.rows, a.cols * b.cols, data)


def solve_affine(k: SparseRows, basis: SparseRows) -> SparseRows:
    """Kernel of a block row ``k = [K_old B | K_new]`` reduced against the
    carried basis B, whose ``basis.rows`` vectors have ``basis.cols`` entries
    each (none at the first block row): ``(B c, v)`` over its content for each
    vector ``(c, v)`` of the :func:`_kernel` of ``k``, as sparse vectors of
    ``basis.cols + k.cols - basis.rows`` entries.  When B is the rref kernel
    basis of the rows above, each vector scaled by its own positive factor, so
    is the result for the stacked rows, in order: B is then a positive diagonal
    on its free coordinates.  Only the non-zero entries of B and of the kernel
    are combined, on plain values: on real data no QC is made, and on int
    rows no Fraction."""
    n, start = basis.rows, basis.cols
    out = []
    for x in _kernel(k.data, k.cols):
        v = {}
        for c, y in x.items():
            if c < n:
                for j, b in basis.data[c].items():
                    v[j] = v.get(j, 0) + y * b
            else:
                v[start + c - n] = y
        out.append(_primitive({j: e for j, e in v.items() if e != 0}))
    return SparseRows(out, start + k.cols - n)
