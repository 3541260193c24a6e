"""Crystal groups of splitting type and admissible dilations.

A triple consists of a lattice basis R (so the translation lattice is
R·Z^d), a finite point group G of exact orthogonal matrices preserving that
lattice, and the group Gamma = G ⋉ R·Z^d they generate.  Elements are stored
as (point index, integer lattice coordinates) and act by
x ↦ g(x + R·k).  The composition convention is

    (g_j, l) · (g_i, k) = (g_j g_i, k + g_i^{-1}(l))

with translations in integer coordinates, and (g, k)^{-1} = (g^{-1}, -g(k)).

A dilation A is admissible when it is expansive, maps the lattice into
itself (M = R^{-1} A R integer) and conjugation by A maps the point group
into itself.  The index-m subgroup A·Gamma·A^{-1} then has pure-translation
coset representatives (digits) computed from the Smith normal form of M.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import Mat, QC, det, integer_rows, smith_normal_form


class GroupValidationError(ValueError):
    """The proposed (R, G) data does not form a valid splitting triple."""


class AdmissibilityError(ValueError):
    """The proposed dilation is not admissible for the triple."""


def _int_apply(m: list[list[int]], k) -> tuple[int, ...]:
    return tuple(sum(row[j] * k[j] for j in range(len(k))) for row in m)


def _is_real(m: Mat) -> bool:
    return all(m.entry(i, j).im == 0
               for i in range(m.rows) for j in range(m.cols))


class CrystalTriple:
    """Validated (lattice basis, point group) pair with composition tables.

    Instances compare by identity; elements carry a reference to their
    triple and refuse to combine across triples.
    """

    def __init__(self, R: Mat, R_inv: Mat, group: list[Mat],
                 int_reps: list[list[list[int]]], name: str | None = None):
        self.d = R.rows
        self.R = R
        self.R_inv = R_inv
        self.group = list(group)
        self.name = name
        # R^{-1} g R for each point element, as validate_triple found them
        self.int_reps = int_reps
        self.product_table = [
            [self._find(self.group[i] @ self.group[j]) for j in range(len(group))]
            for i in range(len(group))
        ]
        ident = Mat.identity(self.d)
        self.inverse_table = []
        for i in range(len(group)):
            j = next((j for j in range(len(group))
                      if self.group[self.product_table[i][j]] == ident), None)
            if j is None:
                raise GroupValidationError(f"no inverse for point element {i}")
            self.inverse_table.append(j)
        self._float_cache: dict | None = None
        # build_Q_tilde blocks keyed by (g, k, s, t); they die with the triple
        self.q_tilde_cache: dict = {}

    def _find(self, m: Mat) -> int:
        for i, g in enumerate(self.group):
            if g == m:
                return i
        raise GroupValidationError("point group is not closed under products")

    @property
    def order(self) -> int:
        return len(self.group)

    def element(self, g: int, k) -> "CrystalElement":
        return CrystalElement(self, g, tuple(int(x) for x in k))

    def identity(self) -> "CrystalElement":
        return self.element(0, (0,) * self.d)

    def translation(self, k) -> "CrystalElement":
        return self.element(0, k)

    def floats(self) -> dict:
        """Cached float copies of R and the group matrices."""
        if self._float_cache is None:
            self._float_cache = {
                "R": self.R.np().real,
                "group": [g.np().real for g in self.group],
            }
        return self._float_cache

    def __repr__(self):
        label = self.name or f"order-{self.order}"
        return f"CrystalTriple(d={self.d}, {label})"


def validate_triple(R: Mat, group: list[Mat], name: str | None = None) -> CrystalTriple:
    """Check the defining properties and build the triple.

    Raises GroupValidationError when R is not an invertible real rational
    matrix, when any g is not orthogonal or does not preserve the lattice,
    when the identity is missing or not first, or when G is not closed.
    """
    if R.rows != R.cols:
        raise GroupValidationError("lattice basis must be a square exact matrix")
    if not _is_real(R):
        raise GroupValidationError("lattice basis must be real")
    if det(R).is_zero():
        raise GroupValidationError("lattice basis is singular")
    d = R.rows
    ident = Mat.identity(d)
    if not group:
        raise GroupValidationError("point group is empty")
    for idx, g in enumerate(group):
        if g.shape != (d, d) or not _is_real(g):
            raise GroupValidationError(f"point element {idx} is not a real "
                                       f"exact {d}x{d} matrix")
    if group[0] != ident:
        raise GroupValidationError("point group must list the identity first")
    R_inv = R.inverse()
    seen = set()
    int_reps = []
    for idx, g in enumerate(group):
        if g.transpose() @ g != ident:
            raise GroupValidationError(f"point element {idx} is not orthogonal")
        key = tuple(tuple((e.re, e.im) for e in g.row_list(i)) for i in range(d))
        if key in seen:
            raise GroupValidationError(f"point element {idx} is a duplicate")
        seen.add(key)
        rep = integer_rows(R_inv @ g @ R)
        if rep is None:
            raise GroupValidationError(f"point element {idx} does not "
                                       "preserve the lattice")
        int_reps.append(rep)
    # closure checked in _find
    return CrystalTriple(R, R_inv, group, int_reps, name=name)


def generate_group(generators: list[Mat], max_order: int = 48) -> list[Mat]:
    """Closure of a generator list under products, identity first."""
    if not generators:
        raise GroupValidationError("no generators given")
    d = generators[0].rows
    if any(g.shape != (d, d) for g in generators):
        raise GroupValidationError("generators must be square matrices of "
                                   "one size")
    elements = [Mat.identity(d)]
    frontier = list(elements)
    while frontier:
        nxt = []
        for a in frontier:
            for g in generators:
                prod = a @ g
                if all(prod != e for e in elements):
                    elements.append(prod)
                    nxt.append(prod)
                    if len(elements) > max_order:
                        raise GroupValidationError(
                            f"group did not close within {max_order} elements")
        frontier = nxt
    return elements


@dataclass(frozen=True)
class CrystalElement:
    """Group element (g, k): the map x ↦ g(x + R·k), k in integer
    coordinates of the lattice."""

    triple: CrystalTriple
    g: int
    k: tuple[int, ...]

    def point_matrix(self) -> Mat:
        return self.triple.group[self.g]

    def point_matrix_inverse(self) -> Mat:
        return self.triple.group[self.triple.inverse_table[self.g]]

    def true_translation(self) -> tuple[QC, ...]:
        """R·k, the translation as a point of R^d."""
        col = self.triple.R @ Mat.column(self.k)
        return tuple(col.entry(i, 0) for i in range(self.triple.d))

    def __repr__(self):
        return f"({self.g}, {self.k})"


def compose(left: CrystalElement, right: CrystalElement) -> CrystalElement:
    """Product left·right: apply right first."""
    if left.triple is not right.triple:
        raise ValueError("elements from different triples")
    t = left.triple
    g = t.product_table[left.g][right.g]
    gi_inv = t.int_reps[t.inverse_table[right.g]]
    k = tuple(a + b for a, b in zip(right.k, _int_apply(gi_inv, left.k)))
    return CrystalElement(t, g, k)


def inverse(e: CrystalElement) -> CrystalElement:
    t = e.triple
    k = tuple(-x for x in _int_apply(t.int_reps[e.g], e.k))
    return CrystalElement(t, t.inverse_table[e.g], k)


def apply_element(e: CrystalElement, x) -> tuple:
    """Evaluate the isometry at a point; exact in, exact out."""
    t = e.triple
    if any(isinstance(v, (float, complex, np.floating)) for v in x):
        f = t.floats()
        vec = f["group"][e.g] @ (np.asarray(x, dtype=float)
                                 + f["R"] @ np.asarray(e.k, dtype=float))
        return tuple(float(v) for v in vec)
    shifted = [QC.parse(v) + ti for v, ti in zip(x, e.true_translation())]
    col = t.group[e.g] @ Mat.column(shifted)
    return tuple(col.entry(i, 0) for i in range(t.d))


def elements_in_ball(triple: CrystalTriple, radius: int) -> list[CrystalElement]:
    """All (g, k) with |k|_inf <= radius; a finite test window."""
    rng = range(-radius, radius + 1)
    return [triple.element(g, k)
            for g in range(triple.order)
            for k in itertools.product(rng, repeat=triple.d)]


class Dilation:
    """Admissible dilation with its digit data.

    Fields: the matrix A, m = |det A|, the integer lattice matrix
    M = R^{-1} A R, the permutation h with g_{h(i)} = A g_i A^{-1}, the
    permutations rho_i(j) = index of g_{h(i)}^{-1} g_j, and m
    pure-translation coset representatives (digits) of Gamma / A Gamma
    A^{-1} derived from the Smith normal form U M V = S: representatives
    are U^{-1} t for t running row-major over prod(range(S_ii)).
    """

    def __init__(self, triple: CrystalTriple, A: Mat, A_inv: Mat,
                 M: list[list[int]], h: tuple[int, ...]):
        self.triple = triple
        self.A = A
        self.A_inv = A_inv
        self.M = M
        self.M_mat = Mat.from_rows(M)
        self.M_inv = self.M_mat.inverse()
        self.h = h
        self.h_inv = tuple(h.index(i) for i in range(len(h)))
        pt = triple.product_table
        inv = triple.inverse_table
        self.rho = tuple(tuple(pt[inv[h[i]]][j] for j in range(triple.order))
                         for i in range(triple.order))
        u, s, v = smith_normal_form(M)
        self._snf = (u, s, v)
        diag = [s[i][i] for i in range(len(s))]
        self.m = 1
        for x in diag:
            self.m *= abs(x)
        self._diag = diag
        self._u = u
        # U^{-1} = M V S^{-1}: columns of M @ V divided by the diagonal
        mv = [[sum(M[i][t] * v[t][j] for t in range(len(v)))
               for j in range(len(v))] for i in range(len(M))]
        self._u_inv = [[mv[i][j] // diag[j] for j in range(len(diag))]
                       for i in range(len(M))]
        assert all(mv[i][j] == self._u_inv[i][j] * diag[j]
                   for i in range(len(M)) for j in range(len(diag)))
        self.lattice_digits = tuple(
            _int_apply(self._u_inv, t)
            for t in itertools.product(*[range(x) for x in diag]))
        self.digits = tuple(triple.translation(k) for k in self.lattice_digits)
        self._digit_index = {k: i for i, k in enumerate(self.lattice_digits)}

    def residue(self, kvec) -> tuple[int, ...]:
        """Canonical representative of kvec modulo M·Z^d."""
        t = [a % b for a, b in zip(_int_apply(self._u, kvec), self._diag)]
        return _int_apply(self._u_inv, t)

    def coset_index(self, e: CrystalElement) -> int:
        """Index i with digit_i^{-1}·e in A·Gamma·A^{-1}."""
        v = _int_apply(self.triple.int_reps[e.g], e.k)
        return self._digit_index[self.residue(v)]

    def translation_coset(self, kvec) -> int:
        """Digit coset of a bare lattice vector, kvec modulo M·Z^d."""
        return self._digit_index[self.residue(tuple(kvec))]

    def conj(self, e: CrystalElement) -> CrystalElement:
        """A e A^{-1}; always lands in Gamma for admissible A."""
        k = _int_apply(self.M, e.k)
        return CrystalElement(self.triple, self.h[e.g], k)

    def deconj(self, e: CrystalElement) -> CrystalElement | None:
        """A^{-1} e A when that lies in Gamma, else None."""
        col = integer_rows(self.M_inv @ Mat.column(e.k))
        if col is None:
            return None
        return CrystalElement(self.triple, self.h_inv[e.g],
                              tuple(row[0] for row in col))

    def __repr__(self):
        return f"Dilation(m={self.m})"


def check_admissible(A: Mat, triple: CrystalTriple) -> Dilation:
    """Validate A against the triple and compute the digit data.

    Raises AdmissibilityError when A is singular or not expansive, when it
    does not map the lattice into itself, or when A G A^{-1} leaves G.
    """
    if A.shape != (triple.d, triple.d):
        raise AdmissibilityError("dilation must be an exact d x d matrix")
    if not _is_real(A):
        raise AdmissibilityError("dilation must be real")
    det_a = det(A)
    if det_a.is_zero():
        raise AdmissibilityError("dilation is singular")
    eigs = np.linalg.eigvals(A.np())
    if np.min(np.abs(eigs)) <= 1 + 1e-9:
        raise AdmissibilityError("dilation is not expansive")
    # cross-check expansiveness: powers of A^{-1} must contract
    b = np.linalg.matrix_power(np.linalg.inv(A.np()), 64)
    if np.linalg.norm(b, 2) ** (1 / 64) >= 1 + 1e-6:
        raise AdmissibilityError("inverse powers of the dilation do not contract")
    M = integer_rows(triple.R_inv @ A @ triple.R)
    if M is None:
        raise AdmissibilityError("dilation does not map the lattice into itself")
    A_inv = A.inverse()
    h = []
    for i, g in enumerate(triple.group):
        conj = A @ g @ A_inv
        match = next((j for j, gj in enumerate(triple.group) if gj == conj),
                     None)
        if match is None:
            raise AdmissibilityError(
                f"conjugation by the dilation maps point element {i} "
                "outside the group")
        h.append(match)
    dil = Dilation(triple, A, A_inv, M, tuple(h))
    if abs(det_a.re) != dil.m:
        raise AdmissibilityError("digit count does not match |det A|")
    return dil


# -- catalog -----------------------------------------------------------------

_R90 = [[0, -1], [1, 0]]
_CATALOG: dict[tuple[int, str], list] = {
    (1, "p1"): [[[1]]],
    (1, "p1m"): [[[1]], [[-1]]],
    (2, "p1"): [[[1, 0], [0, 1]]],
    (2, "pm"): [[[1, 0], [0, 1]], [[1, 0], [0, -1]]],
    (2, "p2"): [[[1, 0], [0, 1]], [[-1, 0], [0, -1]]],
    (2, "pmm"): [[[1, 0], [0, 1]], [[1, 0], [0, -1]],
                 [[-1, 0], [0, 1]], [[-1, 0], [0, -1]]],
    (2, "p4"): [[[1, 0], [0, 1]], _R90,
                [[-1, 0], [0, -1]], [[0, 1], [-1, 0]]],
    (2, "p4m"): [[[1, 0], [0, 1]], _R90,
                 [[-1, 0], [0, -1]], [[0, 1], [-1, 0]],
                 [[1, 0], [0, -1]], [[-1, 0], [0, 1]],
                 [[0, 1], [1, 0]], [[0, -1], [-1, 0]]],
}


def catalog_names(dim: int | None = None) -> list[str]:
    return sorted({n for (d, n) in _CATALOG if dim is None or d == dim})


def catalog_triple(name: str, dim: int) -> CrystalTriple:
    """Built-in triple on the integer lattice: 1D p1, p1m; 2D p1, pm, p2,
    pmm, p4, p4m."""
    try:
        mats = _CATALOG[(dim, name)]
    except KeyError:
        raise GroupValidationError(
            f"unknown catalog group {name!r} in dimension {dim}") from None
    R = Mat.identity(dim)
    return validate_triple(R, [Mat.from_rows(g) for g in mats], name=name)
