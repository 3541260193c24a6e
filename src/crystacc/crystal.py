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
into itself.  Every test is exact: expansiveness is certified by an exact
power of A^{-1} with max-row-sum norm below 1, and points are moved in
exact rationals.  The index-m subgroup A·Gamma·A^{-1} then has
pure-translation coset representatives (digits): the lattice points of the
half-open parallelepiped M[0,1)^d, the standard residue system of
Z^d / M·Z^d (Gröchenig and Madych, IEEE Trans. Inf. Theory 38, 1992).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import mul

from .linalg import Mat, QC, _det_inverse


class GroupValidationError(ValueError):
    """The proposed (R, G) data does not form a valid splitting triple."""


class AdmissibilityError(ValueError):
    """The proposed dilation is not admissible for the triple."""


def _int_apply(m: list[list[int]], k) -> tuple[int, ...]:
    return tuple([sum(map(mul, row, k)) for row in m])


def _int_product(a, b) -> tuple:
    """The product a·b of plain rows, as a tuple of row tuples."""
    cols = list(zip(*b))
    return tuple(tuple([sum(map(mul, row, col)) for col in cols])
                 for row in a)


def _is_real(m: Mat) -> bool:
    """Whether every entry of m is real: no stored entry is a QC."""
    return not any(isinstance(x, QC) for row in m.plain() for x in row)


def _integral(rows) -> list[list[int]] | None:
    """Plain rows as int lists when they are integral, else None."""
    if any(x.denominator != 1 for row in rows for x in row):
        return None
    return [[int(x) for x in row] for row in rows]


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
        # R^{-1} g R for each point element, as validate_triple found them;
        # g -> R^{-1} g R is one-to-one and multiplicative, so the tables
        # are read off these integer matrices
        self.int_reps = int_reps
        index = {}
        for i, rep in enumerate(int_reps):
            index.setdefault(tuple(map(tuple, rep)), i)
        self.product_table = []
        for rep_i in int_reps:
            row = [index.get(_int_product(rep_i, rep_j)) for rep_j in int_reps]
            if None in row:
                raise GroupValidationError(
                    "point group is not closed under products")
            self.product_table.append(row)
        ident = index.get(tuple(tuple(int(i == j) for j in range(self.d))
                                for i in range(self.d)))
        self.inverse_table = []
        for i, row in enumerate(self.product_table):
            if ident not in row:
                raise GroupValidationError(f"no inverse for point element {i}")
            self.inverse_table.append(row.index(ident))
        # the rows of R, entries ints where integral, for true_translation
        self.R_rows = R.plain()

    @property
    def order(self) -> int:
        return len(self.group)

    def element(self, g: int, k) -> "CrystalElement":
        """(g, k); a bool or non-integral coordinate raises ValueError."""
        k = tuple(k)
        if not all(type(x) is int for x in k):
            if any(isinstance(x, bool) or int(x) != x for x in k):
                raise ValueError(f"not an integral lattice point: {k!r}")
            k = tuple(map(int, k))
        return CrystalElement(self, g, k)

    def identity(self) -> "CrystalElement":
        return self.element(0, (0,) * self.d)

    def translation(self, k) -> "CrystalElement":
        return self.element(0, k)

    def __repr__(self):
        label = self.name or f"order-{self.order}"
        return f"CrystalTriple(d={self.d}, {label})"


def validate_triple(R: Mat, group: list[Mat], name: str | None = None) -> CrystalTriple:
    """Check the defining properties and build the triple.

    Raises GroupValidationError when R is not an invertible real rational
    matrix, when any g is not orthogonal or does not preserve the lattice,
    when the identity is missing or not first, or when G is not closed.
    g^T g and R^{-1} g R are formed on the stored rows
    (:meth:`Mat.plain`), and R^{-1} comes from one elimination of them.
    """
    if R.rows != R.cols:
        raise GroupValidationError("lattice basis must be a square exact matrix")
    d = R.rows
    if not group:
        raise GroupValidationError("point group is empty")
    for idx, g in enumerate(group):
        if g.shape != (d, d) or not _is_real(g):
            raise GroupValidationError(f"point element {idx} is not a real "
                                       f"exact {d}x{d} matrix")
    if not _is_real(R):
        raise GroupValidationError("lattice basis must be real")
    rows = [g.plain() for g in group]
    r_rows = R.plain()
    r_inv = _det_inverse(r_rows)[1]
    if r_inv is None:
        raise GroupValidationError("lattice basis is singular")
    ident = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
    if rows[0] != ident:
        raise GroupValidationError("point group must list the identity first")
    seen = set()
    int_reps = []
    for idx, g in enumerate(rows):
        if _int_product(tuple(zip(*g)), g) != ident:
            raise GroupValidationError(f"point element {idx} is not orthogonal")
        if g in seen:
            raise GroupValidationError(f"point element {idx} is a duplicate")
        seen.add(g)
        rep = _integral(_int_product(_int_product(r_inv, g), r_rows))
        if rep is None:
            raise GroupValidationError(f"point element {idx} does not "
                                       "preserve the lattice")
        int_reps.append(rep)
    # closure checked by CrystalTriple
    return CrystalTriple(R, Mat.from_rows(r_inv), group, int_reps, name=name)


# the largest order of a 3D crystallographic point group (m-3m)
MAX_GROUP_ORDER = 48


def generate_group(generators: list[Mat]) -> list[Mat]:
    """Closure of a generator list under products, identity first; more
    than ``MAX_GROUP_ORDER`` elements is no point group."""
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
                    if len(elements) > MAX_GROUP_ORDER:
                        raise GroupValidationError(
                            "group did not close within "
                            f"{MAX_GROUP_ORDER} elements")
        frontier = nxt
    return elements


@dataclass(frozen=True)
class CrystalElement:
    """Group element (g, k): the map x ↦ g(x + R·k), k in integer
    coordinates of the lattice."""

    triple: CrystalTriple
    g: int
    k: tuple[int, ...]

    def point_matrix_inverse(self) -> Mat:
        return self.triple.group[self.triple.inverse_table[self.g]]

    def true_translation(self) -> tuple:
        """R·k, the translation as a point of R^d, on plain values: one dot
        product with each row of the real matrix R, read as an int where
        it is one, else a Fraction."""
        xs = [sum(map(mul, row, self.k)) for row in self.triple.R_rows]
        return tuple(x.numerator if x.denominator == 1 else x for x in xs)

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
    """Evaluate the isometry at an exact point; exact in, exact out."""
    t = e.triple
    shifted = [v + ti for (v,), ti in zip(Mat.column(x).plain(),
                                          e.true_translation())]
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
    A^{-1}: the lattice points of M[0,1)^d, the zero vector first and the
    rest in lexicographic order.  ``det_m`` is det M = det A, which the
    caller has already computed.
    """

    def __init__(self, triple: CrystalTriple, A: Mat, A_inv: Mat,
                 M: list[list[int]], h: tuple[int, ...], det_m: int):
        self.triple = triple
        self.A = A
        self.A_inv = A_inv
        self.M = M
        self.M_mat = Mat.from_rows(M)
        m_inv = _det_inverse(M)[1]
        self.M_inv = Mat.from_rows(m_inv)
        # adj M = det M · M^{-1} is integral, so M^{-1} k = (adj M · k) / det M
        self._det = det_m
        self._adj = [[int(x * det_m) for x in row] for row in m_inv]
        self.h = h
        self.h_inv = tuple(h.index(i) for i in range(len(h)))
        pt = triple.product_table
        inv = triple.inverse_table
        self.rho = tuple(tuple(pt[inv[h[i]]][j] for j in range(triple.order))
                         for i in range(triple.order))
        # the unit vectors generate Z^d, so the closure of 0 under
        # k -> residue(k + e_i) is every residue: d·m residue calls
        zero = (0,) * triple.d
        found = {zero}
        frontier = [zero]
        while frontier:
            k = frontier.pop()
            for i in range(triple.d):
                nxt = self.residue(k[:i] + (k[i] + 1,) + k[i + 1:])
                if nxt not in found:
                    found.add(nxt)
                    frontier.append(nxt)
        self.lattice_digits = tuple(sorted(found,
                                           key=lambda t: (t != zero, t)))
        self.m = len(self.lattice_digits)
        self.digits = tuple(triple.translation(k) for k in self.lattice_digits)
        self._digit_index = {k: i for i, k in enumerate(self.lattice_digits)}
        # lattice vector -> digit coset, filled by translation_coset
        self._cosets = {}

    def residue(self, kvec) -> tuple[int, ...]:
        """The point of kvec + M·Z^d in M[0,1)^d: kvec - M·floor(M^{-1}
        kvec), with floor division by det M exact for either sign."""
        q = [x // self._det for x in _int_apply(self._adj, kvec)]
        return tuple(a - b for a, b in zip(kvec, _int_apply(self.M, q)))

    def coset_index(self, e: CrystalElement) -> int:
        """Index i with digit_i^{-1}·e in A·Gamma·A^{-1}."""
        v = _int_apply(self.triple.int_reps[e.g], e.k)
        return self._digit_index[self.residue(v)]

    def translation_coset(self, kvec) -> int:
        """Digit coset of a bare lattice vector, kvec modulo M·Z^d, kept
        per vector on the dilation (the exact solvers ask for that of -k,
        the coset of the inverse of (b, k))."""
        kvec = tuple(kvec)
        i = self._cosets.get(kvec)
        if i is None:
            i = self._cosets[kvec] = self._digit_index[self.residue(kvec)]
        return i

    def conj(self, e: CrystalElement) -> CrystalElement:
        """A e A^{-1}; always lands in Gamma for admissible A."""
        k = _int_apply(self.M, e.k)
        return CrystalElement(self.triple, self.h[e.g], k)

    def deconj(self, e: CrystalElement) -> CrystalElement | None:
        """A^{-1} e A when that lies in Gamma, else None."""
        parts = [divmod(x, self._det) for x in _int_apply(self._adj, e.k)]
        if any(rem for _, rem in parts):
            return None
        return CrystalElement(self.triple, self.h_inv[e.g],
                              tuple(q for q, _ in parts))

    def __repr__(self):
        return f"Dilation(m={self.m})"


def check_admissible(A: Mat, triple: CrystalTriple) -> Dilation:
    """Validate A against the triple and compute the digit data.

    A is expansive exactly when the powers of A^{-1} tend to 0 (Gelfand's
    formula), so one power A^{-n} with max-row-sum norm below 1 certifies
    it.  The exact A^{-1} is squared until that norm, in exact rationals,
    drops below 1, at most six times (n <= 64).  An A that is not
    expansive is always refused; so is an expansive one whose inverse
    powers are still large at n = 64, such as the shear [[2, 10**18],
    [0, 2]].

    Raises AdmissibilityError when A is singular or not certified
    expansive, when it does not map the lattice into itself, or when
    A G A^{-1} leaves G.  det A and A^{-1} come from one elimination of
    the stored rows of A (:meth:`Mat.plain`), on which the powers of
    A^{-1} and R^{-1} A R are formed.
    """
    if A.shape != (triple.d, triple.d):
        raise AdmissibilityError("dilation must be an exact d x d matrix")
    if not _is_real(A):
        raise AdmissibilityError("dilation must be real")
    a_rows = A.plain()
    det_a, a_inv = _det_inverse(a_rows)
    if a_inv is None:
        raise AdmissibilityError("dilation is singular")
    power, n = a_inv, 1
    while max(sum(map(abs, row)) for row in power) >= 1:
        if n == 64:
            raise AdmissibilityError(
                "dilation not certified expansive: no power A^-n with "
                "n <= 64 has max-row-sum norm below 1")
        power, n = _int_product(power, power), 2 * n
    M = _integral(_int_product(_int_product(triple.R_inv.plain(), a_rows),
                               triple.R_rows))
    if M is None:
        raise AdmissibilityError("dilation does not map the lattice into itself")
    # A g_i A^{-1} = g_j exactly when M rep_i = rep_j M, R being invertible
    right = {}
    for j, rep in enumerate(triple.int_reps):
        right.setdefault(_int_product(rep, M), j)
    h = []
    for i, rep in enumerate(triple.int_reps):
        match = right.get(_int_product(M, rep))
        if match is None:
            raise AdmissibilityError(
                f"conjugation by the dilation maps point element {i} "
                "outside the group")
        h.append(match)
    dil = Dilation(triple, A, Mat.from_rows(a_inv), M, tuple(h), int(det_a))
    if len(dil.digits) != abs(det_a):
        raise AdmissibilityError("digit count does not match |det A|")
    return dil


# -- catalog -----------------------------------------------------------------

_R90 = [[0, -1], [1, 0]]
_CATALOG: dict[tuple[int, str], list] = {
    (1, "p1m"): [[[1]], [[-1]]],
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
    """The catalog groups in dimension ``dim`` (any when None); p1 is in
    every dimension from 1 up."""
    return sorted({n for (d, n) in _CATALOG if dim is None or d == dim}
                  | ({"p1"} if dim is None or dim >= 1 else set()))


def catalog_triple(name: str, dim: int) -> CrystalTriple:
    """Built-in triple on the integer lattice: p1 in every dimension d >= 1;
    1D p1m; 2D pm, p2, pmm, p4, p4m."""
    if name == "p1" and dim >= 1:
        group = [Mat.identity(dim)]
    elif (dim, name) in _CATALOG:
        group = [Mat.from_rows(g) for g in _CATALOG[(dim, name)]]
    else:
        raise GroupValidationError(
            f"unknown catalog group {name!r} in dimension {dim}")
    return validate_triple(Mat.identity(dim), group, name=name)
