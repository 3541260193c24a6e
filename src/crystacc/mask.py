"""Refinement masks and the lift between scalar and matrix form.

A mask is the finite coefficient family (d_gamma) of a refinement equation

    f(x) = sum_gamma d_gamma f(gamma^{-1} A x)

indexed by crystal group elements.  A multiplicity-1 mask over a triple
with point group G can be traded for an |G| x |G| matrix mask over the bare
translation lattice and back; the lift is faithful exactly when the matrix
mask carries the symmetry checked by :func:`check_gamma_A_symmetry`.

:class:`Mask` reads every coefficient literal, from the CLI's JSON rows
or :meth:`Mask.to_float`'s doubles alike, by ``linalg.read_scalar``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .crystal import (CrystalElement, CrystalTriple, Dilation, _int_apply,
                      validate_triple)
from .linalg import Mat, QC, read_scalar


class MaskShapeError(ValueError):
    """Coefficient data does not match the stated mask multiplicity."""


class Mask:
    """Finite family of r x r coefficient blocks keyed by group elements.

    Blocks absent from the mapping are exact zeros, so every sum over the whole
    group reduces to a finite sum over :meth:`support`.  A block is a square
    :class:`Mat` or a list of rows of coefficients; a coefficient is exact
    (int, Fraction, "p/q" string, QC), a float or complex, or an [re, im] pair
    whose parts are each exact or float.  A mask is immutable once built and
    always exact: each coefficient is read by
    :func:`~crystacc.linalg.read_scalar`, a distinct string or float once per
    construction, and ``float_change`` keeps the largest relative change
    |read - given| / |given| of a non-zero entry with a float part (None when
    there was none).  Booleans are refused.  Each element keeps the rows it
    was read to, as plain values (ints where integral, Fractions where real,
    QCs only where complex), and :meth:`plain` scales them by their common
    denominator, the one view the exact solvers read; :meth:`block` and
    :meth:`items` wrap them in a :class:`Mat` on request.
    """

    def __init__(self, triple: CrystalTriple, coefficients: dict,
                 r: int | None = None):
        if not coefficients:
            raise MaskShapeError("mask needs at least one coefficient")
        size, blocks, readings, changes = None, {}, {}, []

        def read(x):
            # parsed once per (type, value), so true and 1, or 1.0 and 1,
            # apart; a string, the common literal, is keyed by itself and
            # looked up before the isinstance test, whose Fraction case is
            # an ABCMeta check; exact values and containers are read where
            # they stand
            if type(x) is str:
                hit = readings.get(x)
                if hit is None:
                    hit = readings[x] = read_scalar(x)
                stored, change = hit
            elif isinstance(x, (int, Fraction, QC, list, tuple, dict)):
                stored, change = read_scalar(x)
            else:
                key = (type(x), x)
                if key not in readings:
                    readings[key] = read_scalar(x)
                stored, change = readings[key]
            if change is not None:
                changes.append(change)
            return stored

        for key, blk in coefficients.items():
            if not isinstance(key, CrystalElement) or key.triple is not triple:
                raise MaskShapeError(f"key {key!r} is not an element of the "
                                     "mask's own triple")
            if isinstance(blk, Mat) and blk.rows == blk.cols:
                rows = blk.plain()
            elif (isinstance(blk, list) and blk and all(
                    isinstance(row, list) and len(row) == len(blk)
                    for row in blk)):
                rows = tuple(tuple([read(x) for x in row]) for row in blk)
            else:
                raise MaskShapeError(f"coefficient at {key} is not a square "
                                     "matrix")
            if size is None:
                size = len(rows)
            elif len(rows) != size:
                raise MaskShapeError("coefficient blocks differ in size")
            blocks[key] = rows
        if r is not None and size != r:
            raise MaskShapeError(f"expected {r}x{r} blocks, got {size}x{size}")
        self.triple = triple
        self.r = size
        self.float_change = max(changes, default=None)
        self._rows = blocks
        self._support = tuple(sorted(blocks, key=lambda e: (e.g, e.k)))
        self._view = None
        # Dilation -> the moment table of accuracy._moments, kept likewise
        self._moment_tables = {}

    @classmethod
    def scalar(cls, triple: CrystalTriple, entries: dict) -> "Mask":
        """Multiplicity-1 mask from a mapping of elements to scalars.

        Keys may be CrystalElements, (point index, lattice tuple) pairs,
        lattice tuples, or bare integers in one dimension; the last two default
        the point part to the identity.  Values are coefficients as in the
        class docstring: float parts are read as rationals.  Two keys that name
        one element raise MaskShapeError.
        """
        coeffs = {}
        for key, val in entries.items():
            if isinstance(key, CrystalElement):
                e = key
            elif (isinstance(key, tuple) and len(key) == 2
                  and isinstance(key[1], tuple)):
                e = triple.element(key[0], key[1])
            elif isinstance(key, tuple):
                e = triple.translation(key)
            else:
                e = triple.translation((key,))
            if e in coeffs:
                raise MaskShapeError(f"duplicate element {e}")
            coeffs[e] = [[val]]
        return cls(triple, coeffs, r=1)

    def support(self) -> tuple:
        """Stored elements in canonical order (point index, then lattice
        point lexicographically)."""
        return self._support

    def items(self):
        """(element, block) pairs in support order."""
        return [(e, Mat(self.r, self.r, self._rows[e]))
                for e in self._support]

    def block(self, gamma: CrystalElement) -> Mat | None:
        rows = self._rows.get(gamma)
        return None if rows is None else Mat(self.r, self.r, rows)

    def plain(self) -> "PlainCoefficients":
        """The coefficients as plain values over their common denominator
        (:class:`PlainCoefficients`), built on the first call and kept
        with the mask, which never changes."""
        if self._view is None:
            nonzero = [(e, [(i, j, x) for i, row in enumerate(self._rows[e])
                            for j, x in enumerate(row) if x])
                       for e in self._support]
            scale = lcm(*{q.denominator for _, xs in nonzero
                          for _, _, x in xs
                          for q in ((x.re, x.im) if type(x) is QC
                                    else (x,))})
            self._view = PlainCoefficients(scale, tuple(
                (e, tuple((i, j, x * scale if type(x) is QC
                           else x.numerator * (scale // x.denominator))
                          for i, j, x in xs))
                for e, xs in nonzero))
        return self._view

    def to_float(self) -> "Mask":
        """The mask read back from double copies of its coefficients."""
        return Mask(self.triple,
                    {e: [[complex(x) if isinstance(x, QC) else float(x)
                          for x in row] for row in rows]
                     for e, rows in self._rows.items()}, r=self.r)

    def __eq__(self, other):
        """Coefficient-wise equality; absent blocks count as zero and the
        underlying triples are compared by content, not identity."""
        if not isinstance(other, Mask):
            return NotImplemented
        if self.r != other.r:
            return False
        t, u = self.triple, other.triple
        if t is not u and (t.d != u.d or t.R != u.R or t.group != u.group):
            return False
        mine = {(e.g, e.k): rows for e, rows in self._rows.items()}
        theirs = {(e.g, e.k): rows for e, rows in other._rows.items()}
        zero = ((0,) * self.r,) * self.r
        for key in set(mine) | set(theirs):
            if mine.get(key, zero) != theirs.get(key, zero):
                return False
        return True

    __hash__ = None

    def __repr__(self):
        return f"Mask(r={self.r}, support={len(self._support)})"


@dataclass(frozen=True)
class PlainCoefficients:
    """A mask's coefficients scaled to plain values: ``scale`` is the
    common denominator D, the lcm of the denominators of the real and
    imaginary parts of every coefficient, and ``entries`` holds one
    (element, entries) pair per support element, in support order, the
    entries being (i, j, D d[i][j]) for the non-zero entries of the block
    d, row by row: a Python int where the entry is real, else a QC with
    integer parts."""

    scale: int
    entries: tuple


def lattice_triple(triple: CrystalTriple) -> CrystalTriple:
    """Translation-only companion of a triple: same lattice, trivial point
    group."""
    name = f"{triple.name}-lattice" if triple.name else "lattice"
    return validate_triple(triple.R, [Mat.identity(triple.d)], name=name)


def lift_scalar_to_matrix(scalar_mask: Mask, dilation: Dilation) -> Mask:
    """Trade a multiplicity-1 mask over the full group for an r x r matrix
    mask over the bare translation lattice, r the point group order.

    Entry (i, j) of the block at lattice point k is the scalar coefficient
    at the element (g_{h(i)}^{-1} g_j, g_j^{-1} k).  The output always
    passes :func:`check_gamma_A_symmetry` for the same dilation and
    :func:`extract_scalar` restores the input exactly.
    """
    if scalar_mask.r != 1:
        raise MaskShapeError("lift starts from a multiplicity-1 mask, got "
                             f"r={scalar_mask.r}")
    t = scalar_mask.triple
    if dilation.triple is not t:
        raise MaskShapeError("dilation belongs to a different triple")
    r = t.order
    inv = t.inverse_table
    scalars = {(e.g, e.k): rows[0][0]
               for e, rows in scalar_mask._rows.items()}
    points = {_int_apply(t.int_reps[j], e.k)
              for e in scalar_mask.support() for j in range(r)}
    out_triple = lattice_triple(t)
    blocks = {}
    for k in sorted(points):
        rows = []
        seen_nonzero = False
        for i in range(r):
            row = []
            for j in range(r):
                w = _int_apply(t.int_reps[inv[j]], k)
                val = scalars.get((dilation.rho[i][j], w), 0)
                seen_nonzero = seen_nonzero or val != 0
                row.append(val)
            rows.append(row)
        if seen_nonzero:
            blocks[out_triple.translation(k)] = Mat.from_rows(rows)
    if not blocks:
        raise MaskShapeError("cannot lift a zero mask")
    return Mask(out_triple, blocks, r=r)


def extract_scalar(matrix_mask: Mask, triple: CrystalTriple,
                   dilation: Dilation) -> Mask:
    """Rebuild the multiplicity-1 mask over the full group from a matrix
    mask on the lattice: the scalar at (g_i, l) is first-row entry i of the
    block stored at lattice point g_i(l).

    Inverse to :func:`lift_scalar_to_matrix`.  A matrix mask without the
    lattice symmetry of :func:`check_gamma_A_symmetry` is no lift, and
    raises MaskShapeError naming the first lattice point and entry that
    fail.
    """
    if matrix_mask.r != triple.order:
        raise MaskShapeError(
            f"matrix mask multiplicity {matrix_mask.r} does not equal the "
            f"point group order {triple.order}")
    if dilation.triple is not triple:
        raise MaskShapeError("dilation belongs to a different triple")
    bad = _first_asymmetry(matrix_mask, dilation)
    if bad is not None:
        k, i, j = bad
        raise MaskShapeError(
            f"matrix mask is not a lift: entry ({i}, {j}) at lattice point "
            f"{list(k)} breaks its lattice symmetry")
    entries = {}
    for e, rows in matrix_mask._rows.items():
        for i, val in enumerate(rows[0]):
            if val == 0:
                continue
            l = _int_apply(triple.int_reps[triple.inverse_table[i]], e.k)
            entries[triple.element(i, l)] = Mat.from_rows([[val]])
    if not entries:
        raise MaskShapeError("cannot extract from a zero mask")
    return Mask(triple, entries, r=1)


def _first_asymmetry(matrix_mask: Mask, dilation: Dilation) -> tuple | None:
    """The first lattice point k and entry (i, j), in sorted order of k,
    where entry (i, j) at k differs from first-row entry rho_i(j) at
    g_{h(i)}^{-1}(k); None when there is none.  Absent blocks are zero, and
    the scan covers every stored point and all its images under those
    point maps, so a nonzero first-row block cannot hide behind an absent
    partner.  Entries compare exactly."""
    t = dilation.triple
    r = t.order
    if matrix_mask.r != r:
        raise MaskShapeError(
            f"mask multiplicity {matrix_mask.r} does not match the point "
            f"group order {r}")
    stored = {}
    for e, rows in matrix_mask._rows.items():
        if e.g != 0:
            raise MaskShapeError("matrix mask must live on the bare lattice")
        stored[e.k] = rows
    maps = [t.int_reps[t.inverse_table[dilation.h[i]]] for i in range(r)]
    points = {_int_apply(pm, k) for k in stored for pm in maps} | set(stored)
    zero = ((0,) * r,) * r
    for k in sorted(points):
        rows = stored.get(k, zero)
        for i in range(r):
            first = stored.get(_int_apply(maps[i], k), zero)[0]
            for j in range(r):
                if rows[i][j] != first[dilation.rho[i][j]]:
                    return k, i, j
    return None


def check_gamma_A_symmetry(matrix_mask: Mask, dilation: Dilation) -> bool:
    """Whether entry (i, j) at lattice point k always equals first-row
    entry rho_i(j) at the point g_{h(i)}^{-1}(k), for the permutations h
    and rho of the dilation over the crystal triple; absent blocks are
    zero.  Every lift passes, so a matrix mask that fails is no lift."""
    return _first_asymmetry(matrix_mask, dilation) is None
