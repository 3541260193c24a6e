"""Refinement masks and the lift between scalar and matrix form.

A mask is the finite coefficient family (d_gamma) of a refinement equation

    f(x) = sum_gamma d_gamma f(gamma^{-1} A x)

indexed by crystal group elements.  A multiplicity-1 mask over a triple
with point group G can be traded for an |G| x |G| matrix mask over the bare
translation lattice and back; the lift is faithful exactly when the matrix
mask carries the symmetry checked by :func:`check_gamma_A_symmetry`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .crystal import (CrystalElement, CrystalTriple, Dilation, _int_apply,
                      compose, inverse, validate_triple)
from .linalg import DEFAULT_TOL, Mat, QC, negligible


class MaskShapeError(ValueError):
    """Coefficient data does not match the stated mask multiplicity."""


class Mask:
    """Finite family of r x r coefficient blocks keyed by group elements.

    Blocks absent from the mapping are exact zeros, so every sum over the
    whole group reduces to a finite sum over :meth:`support`.  A mask is
    immutable once built; all blocks share one backend (any float block
    converts the rest to float).
    """

    def __init__(self, triple: CrystalTriple, coefficients: dict,
                 r: int | None = None):
        if not coefficients:
            raise MaskShapeError("mask needs at least one coefficient")
        backend = "exact"
        size = None
        for key, blk in coefficients.items():
            if not isinstance(key, CrystalElement) or key.triple is not triple:
                raise MaskShapeError(f"key {key!r} is not an element of the "
                                     "mask's own triple")
            if not isinstance(blk, Mat) or blk.rows != blk.cols:
                raise MaskShapeError(f"coefficient at {key} is not a square "
                                     "matrix")
            if size is None:
                size = blk.rows
            elif blk.rows != size:
                raise MaskShapeError("coefficient blocks differ in size")
            if blk.backend == "float":
                backend = "float"
        if r is not None and size != r:
            raise MaskShapeError(f"expected {r}x{r} blocks, got {size}x{size}")
        blocks = dict(coefficients)
        if backend == "float":
            blocks = {k: b.to_float() for k, b in blocks.items()}
        self.triple = triple
        self.r = size
        self.backend = backend
        self._blocks = blocks
        self._support = tuple(sorted(blocks, key=lambda e: (e.g, e.k)))

    @classmethod
    def scalar(cls, triple: CrystalTriple, entries: dict) -> "Mask":
        """Multiplicity-1 mask from a mapping of elements to scalars.

        Keys may be CrystalElements, (point index, lattice tuple) pairs,
        lattice tuples, or bare integers in one dimension; the last two
        default the point part to the identity.  Values go through QC.parse
        (ints, Fractions, 'p/q' strings, [re, im] pairs); float or complex
        values switch the whole mask to the float backend.
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
            if isinstance(val, (float, complex)) and not isinstance(val, bool):
                blk = Mat.from_rows([[val]], backend="float")
            else:
                blk = Mat.from_rows([[QC.parse(val)]])
            coeffs[e] = blk
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
        if self.backend == "float":
            return self
        return Mask(self.triple,
                    {e: b.to_float() for e, b in self._blocks.items()},
                    r=self.r)

    def __eq__(self, other):
        """Coefficient-wise equality; absent blocks count as zero and the
        underlying triples are compared by content, not identity."""
        if not isinstance(other, Mask):
            return NotImplemented
        if self.r != other.r or self.backend != other.backend:
            return False
        t, u = self.triple, other.triple
        if t is not u and (t.d != u.d or t.R != u.R or t.group != u.group):
            return False
        mine = {(e.g, e.k): blk for e, blk in self._blocks.items()}
        theirs = {(e.g, e.k): blk for e, blk in other._blocks.items()}
        zero = Mat.zeros(self.r, self.r, backend=self.backend)
        for key in set(mine) | set(theirs):
            if mine.get(key, zero) != theirs.get(key, zero):
                return False
        return True

    __hash__ = None

    def __repr__(self):
        return (f"Mask(r={self.r}, support={len(self._support)}, "
                f"{self.backend})")


def coefficient(mask: Mask, gamma: CrystalElement) -> Mat:
    """The block stored at gamma, or the zero block when gamma is outside
    the support."""
    blk = mask.block(gamma)
    if blk is None:
        return Mat.zeros(mask.r, mask.r, backend=mask.backend)
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
            blocks[out_triple.translation(k)] = Mat.from_rows(
                rows, backend=scalar_mask.backend)
    if not blocks:
        raise MaskShapeError("cannot lift a zero mask")
    return Mask(out_triple, blocks, r=r)


def extract_scalar(matrix_mask: Mask, triple: CrystalTriple,
                   dilation: Dilation) -> Mask:
    """Rebuild the multiplicity-1 mask over the full group from a matrix
    mask on the lattice: the scalar at (g_i, l) is first-row entry i of the
    block stored at lattice point g_i(l).

    Inverse to :func:`lift_scalar_to_matrix`; on matrix masks without the
    lattice symmetry it keeps only what the first rows say.
    """
    if matrix_mask.r != triple.order:
        raise MaskShapeError(
            f"matrix mask multiplicity {matrix_mask.r} does not equal the "
            f"point group order {triple.order}")
    if dilation.triple is not triple:
        raise MaskShapeError("dilation belongs to a different triple")
    entries = {}
    for e, blk in matrix_mask.items():
        if e.g != 0:
            raise MaskShapeError("matrix mask must live on the bare lattice")
        for i in range(triple.order):
            val = blk.entry(0, i)
            if val == 0:
                continue
            l = _int_apply(triple.int_reps[triple.inverse_table[i]], e.k)
            entries[triple.element(i, l)] = Mat.from_rows(
                [[val]], backend=matrix_mask.backend)
    if not entries:
        raise MaskShapeError("cannot extract from a zero mask")
    return Mask(triple, entries, r=1)


@dataclass(frozen=True)
class SymmetryData:
    """Index data for the matrix-mask symmetry check.

    h and rho are the conjugation permutations of an admissible dilation,
    r the point group order, and point_maps[i] the integer lattice action
    of g_{h(i)}^{-1}, the map applied to the lattice point on the
    right-hand side of the symmetry identity.
    """

    h: tuple
    rho: tuple
    r: int
    point_maps: tuple

    @classmethod
    def from_dilation(cls, dilation: Dilation) -> "SymmetryData":
        t = dilation.triple
        maps = tuple(
            tuple(tuple(row)
                  for row in t.int_reps[t.inverse_table[dilation.h[i]]])
            for i in range(t.order))
        return cls(h=tuple(dilation.h), rho=tuple(dilation.rho),
                   r=t.order, point_maps=maps)


def check_gamma_A_symmetry(matrix_mask: Mask, symmetry: SymmetryData,
                           tol: float = DEFAULT_TOL) -> bool:
    """Whether entry (i, j) at lattice point k always equals first-row
    entry rho_i(j) at the point g_{h(i)}^{-1}(k); absent blocks are zero.

    The scan covers every stored point and all its images under the point
    maps, so a nonzero first-row block cannot hide behind an absent
    partner.  Exact masks compare exactly, float masks within tol.
    """
    if matrix_mask.r != symmetry.r:
        raise MaskShapeError(
            f"mask multiplicity {matrix_mask.r} does not match the point "
            f"group order {symmetry.r}")
    stored = {}
    for e, blk in matrix_mask.items():
        if e.g != 0:
            raise MaskShapeError("matrix mask must live on the bare lattice")
        stored[e.k] = blk
    points = set(stored)
    for k in list(points):
        for i in range(symmetry.r):
            points.add(_int_apply(symmetry.point_maps[i], k))
    zero = Mat.zeros(symmetry.r, symmetry.r, backend=matrix_mask.backend)
    for k in points:
        blk = stored.get(k, zero)
        for i in range(symmetry.r):
            partner = stored.get(_int_apply(symmetry.point_maps[i], k), zero)
            for j in range(symmetry.r):
                if not negligible(blk.entry(i, j)
                                  - partner.entry(0, symmetry.rho[i][j]), tol):
                    return False
    return True


def l2_budget(scalar_mask: Mask, m: int) -> bool:
    """Strict coefficient bound sum |c|^2 < m.

    Exact masks compare as rationals, so the boundary case (the sum equal
    to m) is false, not a rounding accident.
    """
    if scalar_mask.r != 1:
        raise MaskShapeError("the bound applies to multiplicity-1 masks")
    if scalar_mask.backend == "exact":
        total = Fraction(0)
        for _, blk in scalar_mask.items():
            total += blk.entry(0, 0).abs2()
        return total < m
    total = 0.0
    for _, blk in scalar_mask.items():
        total += abs(blk.entry(0, 0)) ** 2
    return total < m
