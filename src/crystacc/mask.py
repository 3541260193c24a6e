"""Refinement masks and the lift between scalar and matrix form.

A mask is the finite coefficient family (d_gamma) of a refinement equation

    f(x) = sum_gamma d_gamma f(gamma^{-1} A x)

indexed by crystal group elements.  A multiplicity-1 mask over a triple
with point group G can be traded for an |G| x |G| matrix mask over the bare
translation lattice and back; the lift is faithful exactly when the matrix
mask carries the symmetry checked by :func:`check_gamma_A_symmetry`.
"""

from __future__ import annotations

from fractions import Fraction

from .crystal import (CrystalElement, CrystalTriple, Dilation, _int_apply,
                      compose, inverse, validate_triple)
from .linalg import Mat, QC, read_float


class MaskShapeError(ValueError):
    """Coefficient data does not match the stated mask multiplicity."""


class Mask:
    """Finite family of r x r coefficient blocks keyed by group elements.

    Blocks absent from the mapping are exact zeros, so every sum over the
    whole group reduces to a finite sum over :meth:`support`.  A block is a
    square :class:`Mat` or a list of rows of coefficients; a coefficient is
    exact (int, Fraction, "p/q" string, QC), a float or complex, or an
    (re, im) pair whose parts are each exact or float.  A mask is
    immutable once built and always exact: float parts are read one by one
    through :func:`~crystacc.linalg.read_float`, exact parts are kept, and
    ``float_change`` keeps the largest relative change |read - given| /
    |given| of an entry with a float part (None when there was none).
    """

    def __init__(self, triple: CrystalTriple, coefficients: dict,
                 r: int | None = None):
        if not coefficients:
            raise MaskShapeError("mask needs at least one coefficient")
        size = None
        blocks = {}
        changes = []
        for key, blk in coefficients.items():
            if not isinstance(key, CrystalElement) or key.triple is not triple:
                raise MaskShapeError(f"key {key!r} is not an element of the "
                                     "mask's own triple")
            if (isinstance(blk, list) and blk
                    and all(isinstance(row, list) for row in blk)):
                blk = Mat.from_rows([[_read_entry(x, changes) for x in row]
                                     for row in blk])
            if not isinstance(blk, Mat) or blk.rows != blk.cols:
                raise MaskShapeError(f"coefficient at {key} is not a square "
                                     "matrix")
            if size is None:
                size = blk.rows
            elif blk.rows != size:
                raise MaskShapeError("coefficient blocks differ in size")
            blocks[key] = blk
        if r is not None and size != r:
            raise MaskShapeError(f"expected {r}x{r} blocks, got {size}x{size}")
        self.triple = triple
        self.r = size
        self.float_change = max(changes, default=None)
        self._blocks = blocks
        self._support = tuple(sorted(blocks, key=lambda e: (e.g, e.k)))

    @classmethod
    def scalar(cls, triple: CrystalTriple, entries: dict) -> "Mask":
        """Multiplicity-1 mask from a mapping of elements to scalars.

        Keys may be CrystalElements, (point index, lattice tuple) pairs,
        lattice tuples, or bare integers in one dimension; the last two
        default the point part to the identity.  Values are coefficients as
        in the class docstring: float parts are read as rationals.
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
            coeffs[e] = [[val]]
        return cls(triple, coeffs, r=1)

    def support(self) -> tuple:
        """Stored elements in canonical order (point index, then lattice
        point lexicographically)."""
        return self._support

    def items(self):
        """(element, block) pairs in support order."""
        return [(e, self._blocks[e]) for e in self._support]

    def block(self, gamma: CrystalElement) -> Mat | None:
        return self._blocks.get(gamma)

    def to_float(self) -> "Mask":
        """The mask read back from double copies of its coefficients."""
        return Mask(self.triple,
                    {e: b.np().tolist() for e, b in self._blocks.items()},
                    r=self.r)

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
        mine = {(e.g, e.k): blk for e, blk in self._blocks.items()}
        theirs = {(e.g, e.k): blk for e, blk in other._blocks.items()}
        zero = Mat.zeros(self.r, self.r)
        for key in set(mine) | set(theirs):
            if mine.get(key, zero) != theirs.get(key, zero):
                return False
        return True

    __hash__ = None

    def __repr__(self):
        return f"Mask(r={self.r}, support={len(self._support)})"


def _read_entry(x, changes: list) -> QC:
    """One coefficient as an exact QC by the reading rule; when it has a
    float part and is nonzero, appends its relative change to
    ``changes``."""
    parts = (x.real, x.imag) if isinstance(x, (float, complex)) else x
    if not (isinstance(parts, (list, tuple))
            and any(isinstance(p, float) for p in parts)):
        return QC.parse(x)
    q = QC(*(read_float(p) if isinstance(p, float) else p for p in parts))
    given = QC(*(Fraction(p) if isinstance(p, float) else p for p in parts))
    if not given.is_zero():
        changes.append(float((q - given).abs2() / given.abs2()) ** 0.5)
    return q


def coefficient(mask: Mask, gamma: CrystalElement) -> Mat:
    """The block stored at gamma, or the zero block when gamma is outside
    the support."""
    blk = mask.block(gamma)
    if blk is None:
        return Mat.zeros(mask.r, mask.r)
    return blk


def transfer_entry(mask: Mask, gamma: CrystalElement, sigma: CrystalElement,
                   dilation: Dilation) -> Mat:
    """Entry (gamma, sigma) of the two-scale transfer matrix: the mask
    coefficient at (A gamma A^{-1}) sigma^{-1}.

    For fixed gamma at most |support| choices of sigma give a nonzero
    block, namely sigma = alpha^{-1} (A gamma A^{-1}) over support
    elements alpha.
    """
    return coefficient(mask, compose(dilation.conj(gamma), inverse(sigma)))


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
        raise MaskShapeError("lift starts from a multiplicity-1 mask")
    t = scalar_mask.triple
    if dilation.triple is not t:
        raise MaskShapeError("dilation belongs to a different triple")
    r = t.order
    inv = t.inverse_table
    scalars = {(e.g, e.k): blk.entry(0, 0)
               for e, blk in scalar_mask.items()}
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
    for e, blk in matrix_mask.items():
        for i in range(triple.order):
            val = blk.entry(0, i)
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
    for e, blk in matrix_mask.items():
        if e.g != 0:
            raise MaskShapeError("matrix mask must live on the bare lattice")
        stored[e.k] = blk
    maps = [t.int_reps[t.inverse_table[dilation.h[i]]] for i in range(r)]
    points = {_int_apply(pm, k) for k in stored for pm in maps} | set(stored)
    zero = Mat.zeros(r, r)
    for k in sorted(points):
        blk = stored.get(k, zero)
        for i in range(r):
            partner = stored.get(_int_apply(maps[i], k), zero)
            for j in range(r):
                if blk.entry(i, j) != partner.entry(0, dilation.rho[i][j]):
                    return k, i, j
    return None


def check_gamma_A_symmetry(matrix_mask: Mask, dilation: Dilation) -> bool:
    """Whether entry (i, j) at lattice point k always equals first-row
    entry rho_i(j) at the point g_{h(i)}^{-1}(k), for the permutations h
    and rho of the dilation over the crystal triple; absent blocks are
    zero.  Every lift passes, so a matrix mask that fails is no lift."""
    return _first_asymmetry(matrix_mask, dilation) is None


def l2_budget(scalar_mask: Mask, m: int) -> bool:
    """Strict coefficient bound sum |c|^2 < m.

    The sum is a rational, so the boundary case (the sum equal to m) is
    false, not a rounding accident.
    """
    if scalar_mask.r != 1:
        raise MaskShapeError("the bound applies to multiplicity-1 masks")
    return sum(blk.entry(0, 0).abs2() for _, blk in scalar_mask.items()) < m
