"""Floating-point cascade oracle for refinement masks.

Iterates the refinement operator on a dyadic grid to approximate the
refinable function, then tests polynomial reproduction empirically.  This
is the floating-point cross-check for the exact solvers.  It computes on
arrays taken once from exact data through ``Mat.np()``: the mask blocks,
the seed's integral direction (the exact :func:`~crystacc.accuracy.fhat0`
vector, or the flat vector when there is none) and the exact solver's
witness, which :func:`verify_degrees` turns into a tuple of arrays, one
per degree.  The cascade's field is float64 when every mask block and the
seed direction are real, and complex128 otherwise, chosen once before
anything is allocated (:func:`_dtype`); the oracle's sums are complex
either way.

The cascade runs in lattice coordinates y = R^{-1} x.  Admissibility makes
M = R^{-1} A R and every G_g = R^{-1} g R integral, so the read
gamma^{-1}(A x) of the mask element gamma = (g, k) is
y -> G_{g^{-1}} M y - k, and on the grid y = h J (J an integer vector,
h = 2^-q) node J reads node G_{g^{-1}} M J - 2^q k (Cavaretta, Dahmen and
Micchelli, *Stationary Subdivision*, 1991).  The elements of one point
part g differ by whole shifts 2^q k, so a step first sums the field's
shifted copies u = sum_k f(. - 2^q k) d_(g,k)^T by slice adds, then
reads u at G_{g^{-1}} M J: one integer gather, and one index array, per
point part.  Point parts with equal element lists share one u, built
once per step (the cubic hat spread over its 48 point parts builds one u
from 27 elements and gathers it 48 times).  Admissibility makes
G_{g^{-1}} M Z^d = M Z^d, so every gather reads u on the sublattice
M Z^d alone, and u is built there only, indexed by z = M^{-1} X: the
polyphase form of subdivision, split by the residue of a node modulo M
(the same paper).  Element k then reads the field on one coset of
M Z^d; each such coset is gathered once per step onto its own grid, and
each element adds its product by one slice add (:func:`_placement`).
Under A = 2I at q >= 1 every element reads the even nodes, so a step
multiplies 1/m of the field per element and builds u on about the box,
not on the box widened by 2^q times the hull of the shifts.  Where M is
not diagonal the cosets' bounding grids save nothing, and u stays on
that widened box, with the field read in place.  The oracle reads the
finished field at nodes only and refuses any other point.  It walks the
gamma cover of its sample nodes once for every degree it checks
(:func:`verify_degrees`): the witness degrees share the degree-0 sums, C
and the two closed forms, each s >= 1 adds one sum, and each fitted
degree past them reads the same walk.

The grid is the one box :func:`support_box` certifies for every
admissible dilation: the n-step box map, whose maps y -> M^{-n} G' y + c
compose the maps y -> M^{-1} G_g (y + k) of the mask's support n times,
is iterated in rationals on multiples of h until a box contains [0,1]^d
and its own n-step image, checked exactly (n = 1 unless the one-step map
does not contract, as for the quincunx A = [[1, 1], [1, -1]]).  The grid
is the hull of that box and its first n - 1 one-step images, so every
iterate and the limit vanish outside it (the attractor of those maps;
Hutchinson, 1981).
"""

from __future__ import annotations

import itertools
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import index, mul

import numpy as np

from .accuracy import fhat0, max_accuracy
from .crystal import CrystalTriple, Dilation, _int_product
from .mask import Mask
from .multiidx import (VCollection, _acted_rows, _y_rows, build_A_s,
                       dim_degree, enumerate_degree)

CONVERGENCE_TOL = 1e-6
MAX_BOX_STEPS = 64
# a field with every entry below this in modulus vanishes identically
DEGENERATE_MAX = 1e-12


class CascadeError(RuntimeError):
    """The grid iteration cannot proceed or did not behave as required."""


class GridField:
    """The cascade's field on its box grid, in lattice coordinates.

    Node J, an integer vector with first <= J <= last, sits at y = h J,
    that is at x = R y, with h = 2^-q; data has shape (*shape, r), and
    lo = h first, hi = h last bound the box in y.  The field is read at
    nodes only, zero outside the box, matching compact support: the box
    is the one :func:`support_box` proved to hold every iterate.
    support_radius, the length of the box's diagonal in y, sets
    :func:`sample_points`' margin.
    """

    def __init__(self, triple: CrystalTriple, q: int, first: np.ndarray,
                 shape: tuple, padded: np.ndarray):
        self.triple = triple
        self.d = triple.d
        self.q = q
        self.h = 2.0 ** -q
        self.first = first
        self.last = first + np.asarray(shape) - 1
        self.lo = self.first * self.h
        self.hi = self.last * self.h
        self.shape = tuple(shape)
        self.r = padded.shape[-1]
        # one zero row past the last node answers every read off the box
        self._padded = padded
        self._flat = padded[:-1]
        self.data = self._flat.reshape(*shape, self.r)
        self.support_radius = math.hypot(*(self.hi - self.lo))

    def max_abs(self) -> float:
        """Largest entry modulus of the field."""
        return float(np.max(np.abs(self.data)))

    def degenerate(self) -> bool:
        """Whether the field vanishes identically: every entry below
        ``DEGENERATE_MAX`` in modulus."""
        return self.max_abs() < DEGENERATE_MAX

    def nodes(self) -> np.ndarray:
        """x coordinates of every node, one row each, in the row order of
        ``data.reshape(-1, r)``."""
        return self._x(_node_grid(self.first, self.shape))

    def _x(self, J: np.ndarray) -> np.ndarray:
        return (J * self.h) @ self.triple.R.np().real.T

    def node_index(self, points) -> np.ndarray:
        """Integer node J of each point x = R h J; ValueError for a point
        that is not (the float image of) a node."""
        pts = np.asarray(points, dtype=float).reshape(-1, self.d)
        y = pts @ self.triple.R_inv.np().real.T
        J = np.rint(y / self.h).astype(np.int64)
        if not np.array_equal(self._x(J), pts):
            raise ValueError(f"points off the grid nodes (h = {self.h:g} in "
                             "lattice coordinates)")
        return J

    def read(self, J: np.ndarray) -> np.ndarray:
        """Values at the integer nodes J, zero off the box."""
        return self._padded[_rows(self.first, self.shape, J)]


@dataclass
class CascadeResult:
    """Final iterate plus the per-iteration sup differences; converged
    means the last difference is at most 1e-6."""

    field: GridField
    sup_diffs: tuple
    converged: bool


@dataclass
class ReproductionReport:
    """Empirical polynomial reproduction at one degree.

    C is estimated from the degree-0 sums (which must be constant);
    residual is the largest deviation of the degree-s sums from C times
    the monomial vector over the non-excluded sample points.  The two
    closed-form candidates for C, cell volume over the integral gate and
    its reciprocal, are evaluated for comparison and matched_form records
    which of them (if either) agrees with the estimate.
    """

    s: int
    C: complex
    residual: float
    verdict: bool
    excluded: int
    gate_estimate: complex
    cell_volume: float
    form_volume_over_gate: complex
    form_gate_over_volume: complex
    matched_form: str


def support_box(mask: Mask, dilation: Dilation, h) -> list:
    """Exact box in lattice coordinates, with corners on multiples of h,
    certified to contain every cascade iterate; per-axis (lo, hi) Fraction
    pairs.

    A read through mask element gamma = (g, k) at y is non-zero only if y
    lies in M^{-1} G_g (S + k), S the support of the iterate read (the read
    y -> G_{g^{-1}} M y - k of :func:`cascade_iterate`).  Elements with the
    same linear part M^{-1} G_g share one box of shifts, so the one-step
    box map F sends B to hull([0,1]^d and every M^{-1} G_g B + shifts).
    Composed n times, the maps have linear parts M^{-n} G' with g' in the
    point group (A normalizes it): at most |G| of them, each with one box
    of shifts.

    For n = 1, 2, ... this n-step box map is iterated exactly from
    [0,1]^d, each box snapped outward to multiples of h, until a box B
    contains its own n-step image (which includes [0,1]^d).  The seed lies
    in B and a support inside B is back inside it after n steps, so
    iterate jn + i lies in F^i(B), and the hull of B, F(B), ...,
    F^{n-1}(B), snapped to h, is returned.  n = 1 gives B itself; the
    quincunx A = [[1, 1], [1, -1]], whose F widens every box, needs n = 2.
    Every expanding A has such an n, since A^{-n} tends to 0.  Each n gets
    ``MAX_BOX_STEPS`` steps, up to n = ``MAX_BOX_STEPS``; past that,
    :class:`CascadeError`.
    """
    return _certified_box(_point_parts(mask), dilation, Fraction(h))


def _point_parts(mask: Mask) -> dict:
    """The support grouped by point part: g -> [(k, d_(g,k)), ...], in
    support order, each block converted once by ``Mat.np()``.  The
    support box reads the shifts, the cascade plan the blocks."""
    parts = {}
    for e, blk in mask.items():
        parts.setdefault(e.g, []).append((e.k, blk.np()))
    return parts


def _blocks(parts: dict) -> list:
    return [d for elements in parts.values() for _, d in elements]


def _dtype(arrays) -> type:
    """The cascade's one dtype choice: float64 when no array has a non-zero
    imaginary part, else complex128."""
    if any(np.iscomplexobj(a) and a.imag.any() for a in arrays):
        return np.complex128
    return np.float64


def _as(a: np.ndarray, dtype) -> np.ndarray:
    """A C-contiguous copy of a in dtype; float64 keeps the real part, all
    there is of a when :func:`_dtype` chose it."""
    return np.array(a.real if dtype == np.float64 else a, dtype=dtype,
                    order="C")


def _certified_box(parts: dict, dilation: Dilation, h: Fraction) -> list:
    """:func:`support_box` of the mask whose :func:`_point_parts` are
    given, stepped on ints.  Each part's linear part M^{-1} G_g is formed
    once: as m M^{-1} = +-adj M is integral, m M^{-1} G_g is an integer
    product, and m times its shifts M^{-1} G_g k are integer dot products,
    bounded per axis.  The n-step maps are kept as m^n times themselves,
    ints too, and a box as ints over one denominator: corners snapped to
    h = a/b count multiples of h, and a box of ints over den maps to one
    over m^n den."""
    t, m = dilation.triple, dilation.m
    adj = [[int(x * m) for x in row] for row in dilation.M_inv.plain()]
    step = {}
    for g, elements in parts.items():
        lin = tuple(tuple(sum(map(mul, row, col))
                          for col in zip(*t.int_reps[g])) for row in adj)
        step[lin] = [(min(v), max(v))
                     for v in ([sum(map(mul, row, k)) for k, _ in elements]
                               for row in lin)]
    a, b = h.numerator, h.denominator
    unit = _snap([(0, 1)] * t.d, 1, a, b)
    maps, scale = step, m
    for n in range(1, MAX_BOX_STEPS + 1):
        box = unit
        for _ in range(MAX_BOX_STEPS):
            image = _snap(_map_box(maps, scale, _over(box, a), b),
                          scale * b, a, b)
            if all(lo <= x and y <= hi
                   for (lo, hi), (x, y) in zip(box, image)):
                # iterate jn + i lies in F^i(box), unsnapped for i < n
                boxes, den = [_over(box, a)], b
                for _ in range(n - 1):
                    boxes.append(_map_box(step, m, boxes[-1], den))
                    den *= m
                snapped = _hull([_snap(x, b * m ** i, a, b)
                                 for i, x in enumerate(boxes)])
                return [(lo * h, hi * h) for lo, hi in snapped]
            box = _hull([box, image])
        maps, scale = _compose(step, maps, scale), scale * m
    raise CascadeError(f"no support box certified within {MAX_BOX_STEPS} "
                       f"steps for any n up to {MAX_BOX_STEPS}")


def _over(box: list, a: int) -> list:
    """A box counted in multiples of h = a/b, as ints over b."""
    return [(lo * a, hi * a) for lo, hi in box]


def _box_image(lin: tuple, shifts: list, box: list) -> list:
    """Bounding box of {lin x + c : x in box, c in shifts}, exactly."""
    out = []
    for row, (lo, hi) in zip(lin, shifts):
        for a, (l, u) in zip(row, box):
            lo += min(a * l, a * u)
            hi += max(a * l, a * u)
        out.append((lo, hi))
    return out


def _map_box(maps: dict, scale: int, box: list, den: int) -> list:
    """hull([0,1]^d and every lin box + shifts) over maps {lin: shifts}
    given as scale times themselves, for a box of ints over den: ints
    over scale den."""
    return _hull([[(0, scale * den)] * len(box)]
                 + [_box_image(lin, _over(shifts, den), box)
                    for lin, shifts in maps.items()])


def _compose(outer: dict, inner: dict, scale: int) -> dict:
    """The maps x -> l1 (l2 x + c2) + c1 of every outer (l1, c1) after every
    inner (l2, c2), one box of shifts per distinct linear part l1 l2.  The
    outer maps are given as m times themselves and the inner ones as
    scale times themselves; the result is m scale times the composed
    maps."""
    out = {}
    for l1, c1 in outer.items():
        for l2, c2 in inner.items():
            lin = tuple(tuple(sum(a * b for a, b in zip(row, col))
                              for col in zip(*l2)) for row in l1)
            shifts = _box_image(l1, _over(c1, scale), c2)
            out[lin] = _hull([out[lin], shifts]) if lin in out else shifts
    return out


def _hull(boxes: list) -> list:
    return [(min(lo for lo, _ in axis), max(hi for _, hi in axis))
            for axis in zip(*boxes)]


def _snap(box: list, den: int, a: int, b: int) -> list:
    """A box of ints over den snapped outward to multiples of h = a/b,
    counted in multiples of h."""
    q = den * a
    return [((lo * b) // q, -((-hi * b) // q)) for lo, hi in box]


def _fix_phase(u: np.ndarray) -> np.ndarray:
    for x in u:
        if abs(x) > 1e-9:
            return u * (abs(x) / x)
    return u


def _seed_direction(mask: Mask, dilation: Dilation) -> np.ndarray:
    """Unit-norm, phase-fixed integral direction of the cascade seed: the
    exact :func:`~crystacc.accuracy.fhat0` vector when there is one (the
    eigenspace of T = (1/m) sum of mask blocks for eigenvalue 1, or the
    projection of the flat vector onto it), else the flat vector."""
    fh = fhat0(mask, dilation.m)
    if fh.vector is None or fh.vector.is_zero():
        return np.ones(mask.r, dtype=complex) / math.sqrt(mask.r)
    u = fh.vector.np().ravel()
    return _fix_phase(u / np.linalg.norm(u))


def _node_grid(first: np.ndarray, shape: tuple) -> np.ndarray:
    """Integer nodes J of the box grid, one row each, in the row order of
    ``data.reshape(-1, r)``."""
    axes = [first[j] + np.arange(shape[j], dtype=np.int64)
            for j in range(len(shape))]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _rows(first: np.ndarray, shape: tuple, J: np.ndarray) -> np.ndarray:
    """Padded-field row of each node J: its flat index on the box grid, or
    the zero row past the last node when J is off the box."""
    rel = J - first
    inside = np.all((rel >= 0) & (rel < shape), axis=1)
    flat = np.ravel_multi_index(tuple(rel.T), shape, mode="clip")
    return np.where(inside, flat, math.prod(shape))


def grid_bytes(d: int, r: int, n_parts: int, n_nodes: int,
               buffer_nodes: int, coset_nodes: int, itemsize: int) -> int:
    """Estimated peak bytes of a cascade run on ``n_nodes`` grid nodes: per
    node, d int64 for the plan's integer work, four live iterates (the
    current and next one, the plan's term and a difference, r entries of
    ``itemsize`` bytes each: 8 on float64, 16 on complex128) and one int64
    read index per point part; plus the one buffer u, r entries on each of
    its ``buffer_nodes`` nodes, and the copies of the field's cosets, r
    entries and one int64 index on each of their ``coset_nodes`` nodes
    (:func:`_placement`).

    u lives on the nodes its gathers read, one coset of the sublattice
    M Z^d, so under a diagonal M it holds about 1/m of the box widened by
    2^q times the hull of a point part's shifts: about the box itself for
    A = lambda I, where the whole widened box is about |lambda|^d box
    nodes.  Where the coset's bounding grid saves nothing (the quincunx and
    rotation dilations) u is that widened box, and no coset is copied."""
    per_node = 8 * d + 4 * itemsize * r + 8 * n_parts
    return (n_nodes * per_node + itemsize * r * buffer_nodes
            + (8 + itemsize * r) * coset_nodes)


def memory_budget() -> int:
    """Half of the physical memory, in bytes: the most a cascade run may
    be estimated to need."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2


def _gib(n: int) -> str:
    """n bytes in GiB to one decimal, on ints: n may exceed any float."""
    tenths = (10 * n + 2 ** 29) >> 30
    return f"{tenths // 10}.{tenths % 10} GiB"


def _grid_rows(lin, offset, src_first, src_shape, first,
               shape) -> np.ndarray:
    """Row of y = lin x + offset on the grid of node counts ``shape`` from
    node ``first`` (its flat index, or the zero row past its last node
    when y is off that grid) for every node x of the grid of node counts
    ``src_shape`` from node ``src_first``, in that grid's row order.  lin
    is an integer matrix; one int64 coordinate of y is formed at a time,
    and no node array is built."""
    d = len(src_shape)
    axes = [np.arange(a, a + n, dtype=np.int64).reshape(
        [n if j == i else 1 for j in range(d)])
        for i, (a, n) in enumerate(zip(src_first, src_shape))]
    flat = np.zeros(src_shape, dtype=np.int64)
    inside = np.ones(src_shape, dtype=bool)
    y = np.empty(src_shape, dtype=np.int64)
    for row, c, f, n in zip(lin, offset, first, shape):
        y.fill(c - f)
        for a, axis in zip(row, axes):
            if a:
                y += a * axis
        inside &= y >= 0
        inside &= y < n
        flat *= n
        flat += y
    flat[~inside] = math.prod(shape)
    return flat.reshape(-1)


@dataclass
class _Placement:
    """Where a cascade step reads and writes on the box of node counts
    ``shape`` from node ``first``, before any grid array is allocated
    (:func:`_placement`).

    ``basis`` S is M or the identity, and u is kept on the nodes Sz.
    ``cosets`` holds one (rho, lo, shape) per coset rho + S Z^d of field
    nodes that some element reads: the grid of z from lo whose nodes
    rho + S z cover the coset's box nodes.  ``parts`` holds one
    (lo, shape, adds, reads) per distinct element list: u's grid of z,
    one (coset, start, d_(g,k)) per element, adding the coset's copy
    times d_(g,k)^T to u from z = lo + start, and one integer matrix
    S^{-1} G_{g^{-1}} M per point part g carrying the list, the node z of
    u that box node J reads.  ``products`` counts the coset nodes that
    the elements' products cover, all lists together.  With the identity
    basis (``inplace``) there is one coset, the box itself, read in
    place."""

    first: tuple
    shape: tuple
    basis: list
    inplace: bool
    cosets: list
    parts: list
    products: int

    def u_nodes(self) -> int:
        """Nodes of the largest u, without its zero row."""
        return max((math.prod(shape) for _, shape, _, _ in self.parts),
                   default=0)

    def coset_nodes(self) -> int:
        """Nodes of the field's coset copies: none when read in place."""
        return 0 if self.inplace else sum(math.prod(shape)
                                          for _, _, shape in self.cosets)

    def work(self) -> int:
        """Nodes a step touches outside the gathers: every coset copied,
        every u cleared, and every element's product and add."""
        return (self.coset_nodes() + self.products
                + sum(math.prod(shape) for _, shape, _, _ in self.parts))


def _placement(parts: dict, dilation: Dilation, first, shape: tuple,
               q: int) -> _Placement:
    """Where a step on the box of node counts ``shape`` from node ``first``
    keeps u: on the coset of M Z^d that its gathers read, unless the
    identity basis (u on the whole box widened by 2^q times the hull of
    the shifts, the field read in place) touches fewer nodes per step
    (:meth:`_Placement.work`), as it does where M is not diagonal and the
    coset grids are the bounding grids of slanted cosets, or unless a
    coset grid would outgrow the box, whose term holds every product.

    Node J reads u at X = G_{g^{-1}} M J, and admissibility makes
    G_{g^{-1}} M Z^d = M Z^d: every gather reads u on the coset M Z^d
    itself, at z = M^{-1} X = (M^{-1} G_{g^{-1}} M) J, an integer map
    (Cavaretta, Dahmen and Micchelli's polyphase split of subdivision by
    the residue of a node modulo M).  u(M z) = sum_k f(M z - 2^q k)
    d_(g,k)^T reads, for element k, the field on the one coset
    rho_k = -2^q k + M Z^d of the box, at w = z - M^{-1}(rho_k + 2^q k):
    each used field coset is copied once per step onto its grid of w, and
    each element adds its product by one slice add at the integer offset
    M^{-1}(rho_k + 2^q k)."""
    split, whole = _placements(parts, dilation, first, shape, q)
    n = math.prod(shape)
    if split.work() < whole.work() and all(
            math.prod(grid) <= n for _, _, grid in split.cosets):
        return split
    return whole


def _placements(parts: dict, dilation: Dilation, first, shape: tuple,
                q: int) -> tuple:
    """The two placements :func:`_placement` chooses from: u on the nodes
    of M Z^d, and on every node (the identity basis).  Point parts whose
    element lists, shifts and converted blocks in support order, are
    equal build the same u, so it is placed once and gathered for each of
    them."""
    d, m = len(shape), dilation.m
    lists = {}
    for g, elements in parts.items():
        key = tuple((k, blk.tobytes()) for k, blk in elements)
        lists.setdefault(key, (elements, []))[1].append(g)
    lists = list(lists.values())
    adj = [[int(x * m) for x in row] for row in dilation.M_inv.plain()]
    eye = [[int(i == j) for j in range(d)] for i in range(d)]
    return (_coset_placement(lists, dilation, dilation.M, adj, m, first,
                             shape, q),
            _coset_placement(lists, dilation, eye, eye, 1, first, shape, q))


def _coset_placement(lists: list, dilation: Dilation, basis: list,
                     adj: list, det: int, first, shape: tuple,
                     q: int) -> _Placement:
    """:func:`_placement` with u on the nodes S z of the given basis S, adj
    = det S^{-1} integral.  Element k reads the field on the coset of
    y = -2^q k, whose representative is rho = y - S floor(S^{-1} y) (that
    of ``Dilation.residue``), at the offset S^{-1}(rho + 2^q k) =
    -floor(S^{-1} y).  The shifts of a list are read as one small array
    of Python ints (object dtype: exact, whatever the shifts, as the
    memory estimate that reads this placement must be), so the calls per
    list do not grow with its elements; an element whose coset holds no
    box node adds nothing and is left out."""
    t = dilation.triple
    s, a = np.array(basis, dtype=object), np.array(adj, dtype=object)
    box = [(f, f + n - 1) for f, n in zip(first, shape)]
    index, cosets, out, products = {}, [], [], 0
    for elements, gs in lists:
        y = -(np.array([k for k, _ in elements], dtype=object) << q)
        floor = (y @ a.T) // det
        ids = []
        for rho in map(tuple, (y - floor @ s.T).tolist()):
            i = index.get(rho)
            if i is None:
                image = _box_image(adj, [(0, 0)] * len(shape),
                                   [(lo - c, hi - c)
                                    for (lo, hi), c in zip(box, rho)])
                lo = tuple(-(-x // det) for x, _ in image)
                i = index[rho] = len(cosets)
                cosets.append((rho, lo, tuple(
                    b // det - x + 1 for x, (_, b) in zip(lo, image))))
            ids.append(i)
        grid = np.array([c[2] for c in cosets], dtype=object)[ids]
        keep = grid.prod(axis=1) > 0
        start = (np.array([c[1] for c in cosets], dtype=object)[ids]
                 - floor)[keep]
        grid = grid[keep]
        products += int(grid.prod(axis=1).sum())
        low = high = np.array(first, dtype=object)
        if keep.any():
            low, high = start.min(axis=0), (start + grid).max(axis=0)
        reads = [[[x // det for x in row] for row in _int_product(
            _int_product(adj, t.int_reps[t.inverse_table[g]]),
            dilation.M)] for g in gs]
        blocks = [blk for (_, blk), kept in zip(elements, keep.tolist())
                  if kept]
        out.append((tuple(low.tolist()), tuple((high - low).tolist()),
                    list(zip(np.array(ids)[keep].tolist(),
                             map(tuple, (start - low).tolist()), blocks)),
                    reads))
    return _Placement(tuple(first), tuple(shape), basis, det == 1, cosets,
                      out, products)


@dataclass
class _Coset:
    """One field coset as a step reads it: its grid's node counts, and
    the padded-field row of each grid node with the copy it is gathered
    into once per step, or None for both when the field is read in
    place."""

    shape: tuple
    rows: np.ndarray | None
    copy: np.ndarray | None


@dataclass
class _Part:
    """The reads of one distinct element list [(k, d_(g,k)), ...] and of
    the point parts g that carry it: u's grid of node counts ``shape``,
    ``adds`` one (window of u, coset, d_(g,k)^T) per element, adding the
    coset's copy times d_(g,k)^T to that window, and ``rows`` one int64
    index array per such point part g, the row of u (flat, with the zero
    row past its last node) that every box node J reads."""

    shape: tuple
    adds: list
    rows: list


@dataclass
class _Plan:
    """The cascade's reads on a box of node counts ``shape``, in the
    field's one dtype: the field cosets the elements read, one
    :class:`_Part` per distinct element list, the one buffer the parts
    share, sized for the largest u plus its zero row, and one term the
    size of the field, which each product d_(g,k)^T and each gather
    reuses."""

    shape: tuple
    cosets: list
    parts: list
    buffer: np.ndarray
    term: np.ndarray


def _plan(placement: _Placement, r: int, dtype) -> _Plan:
    """The arrays of a :func:`_placement` for a field of r columns in the
    given dtype: the box row of every node of each field coset's grid, u's
    row that every box node reads for each point part (a read off u's grid
    lands on its zero row), the slice windows of the elements' adds, and
    the buffers.  The box's term is allocated last, after the integer work
    of the index arrays."""
    first, shape = placement.first, placement.shape
    cosets = []
    for rho, lo, grid in placement.cosets:
        if placement.inplace:
            cosets.append(_Coset(shape, None, None))
        else:
            rows = _grid_rows(placement.basis, rho, lo, grid, first, shape)
            cosets.append(_Coset(grid, rows,
                                 np.empty((len(rows), r), dtype=dtype)))
    parts = []
    for lo, grid, adds, reads in placement.parts:
        windows = [(tuple(slice(s, s + n)
                          for s, n in zip(start, cosets[i].shape)),
                    i, _as(blk.T, dtype)) for i, start, blk in adds]
        rows = [_grid_rows(lin, (0,) * len(shape), first, shape, lo, grid)
                for lin in reads]
        parts.append(_Part(grid, windows, rows))
    buffer = np.zeros((placement.u_nodes() + 1, r), dtype=dtype)
    return _Plan(shape, cosets, parts, buffer,
                 np.empty((math.prod(shape), r), dtype=dtype))


def _step(plan: _Plan, padded: np.ndarray) -> np.ndarray:
    """One refinement step of a padded field in the plan's dtype: each
    field coset gathered once (or read in place), one u per distinct
    element list, built by one product and one slice add per element, and
    one gather per point part; the zero row stays zero."""
    out = np.zeros_like(padded)
    term = plan.term
    r = term.shape[1]
    sources = []
    for coset in plan.cosets:
        # every row lies in the padded field, so "clip" changes no index;
        # unlike "raise" it writes into the copy without a temporary
        src = (padded[:-1] if coset.rows is None else
               np.take(padded, coset.rows, axis=0, out=coset.copy,
                       mode="clip"))
        flat = term[:len(src)]
        sources.append((src, flat, flat.reshape(*coset.shape, r)))
    gather = term[:len(padded) - 1]
    for part in plan.parts:
        u = plan.buffer[:math.prod(part.shape) + 1]
        u.fill(0)
        grid = u[:-1].reshape(*part.shape, r)
        for window, i, d_t in part.adds:
            src, flat, shaped = sources[i]
            # np.dot, not np.matmul: the faster of the two on these
            # products
            np.dot(src, d_t, out=flat)
            grid[window] += shaped
        for rows in part.rows:
            np.take(u, rows, axis=0, out=gather, mode="clip")
            out[:-1] += gather
    return out


def cascade_iterate(mask: Mask, triple: CrystalTriple, dilation: Dilation,
                    iterations: int, grid_exponent: int = 8) -> CascadeResult:
    """Iterate f -> sum_gamma d_gamma f(gamma^{-1}(A x)) on the node grid
    y = h J of lattice coordinates, h = 2^-q for q = grid_exponent.

    The seed is the indicator of the lattice cell [0,1)^d in y (the cell
    R [0,1)^d in x) times the normalized integral direction, so the
    integral starts in the right eigenspace.  The field is float64 when
    every mask block and that direction are real, else complex128
    (:func:`_dtype`).  The grid spans the box of :func:`support_box`
    (per-axis node counts), and every node reads one node per point part
    (:func:`_plan`).  Non-convergence (last sup difference above 1e-6) is
    reported in the result, not raised.  A support box that does not
    certify within the step bound, a grid whose :func:`grid_bytes`
    estimate exceeds :func:`memory_budget` and an iterate that overflows
    to a non-finite value all raise :class:`CascadeError`; a q that is
    not an integer >= 0 raises ValueError.  The estimate is made on
    Python ints before any array is allocated, and first for the least
    grid, (2^q + 1)^d nodes on the cell [0, 1]^d that every box holds,
    before the box is certified.
    """
    if triple is not mask.triple or dilation.triple is not triple:
        raise ValueError("mask, triple and dilation must match")
    if iterations < 1:
        raise ValueError("need at least one iteration")
    q = grid_exponent
    if not isinstance(q, int) or q < 0:
        raise ValueError("grid_exponent must be an integer >= 0")
    scale, d = 2 ** q, triple.d
    parts = _point_parts(mask)
    direction = _seed_direction(mask, dilation)
    dtype = _dtype([direction] + _blocks(parts))
    itemsize = np.dtype(dtype).itemsize
    budget = memory_budget()
    least = (scale + 1) ** d
    # a lower bound of the box's estimate: u holds at least its zero row
    if grid_bytes(d, mask.r, len(parts), least, 1, 0, itemsize) > budget:
        raise CascadeError(
            f"a grid of spacing 2^-{q} has at least (2^{q} + 1)^{d} nodes "
            f"(its box holds [0, 1]^{d}), more than half of physical memory "
            f"({_gib(budget)}) can hold; use a coarser grid")
    box = _certified_box(parts, dilation, Fraction(1, scale))
    first = [int(lo * scale) for lo, _ in box]
    shape = tuple(int((hi - lo) * scale) + 1 for lo, hi in box)
    n_nodes = math.prod(shape)
    placement = _placement(parts, dilation, first, shape, q)
    need = grid_bytes(d, mask.r, len(parts), n_nodes,
                      placement.u_nodes() + 1, placement.coset_nodes(),
                      itemsize)
    if need > budget:
        raise CascadeError(
            f"a grid of {n_nodes} nodes (spacing 2^-{q}) needs about "
            f"{_gib(need)}, more than half of physical memory "
            f"({_gib(budget)}); use a coarser grid")
    first = np.array(first, dtype=np.int64)
    data = np.zeros((n_nodes + 1, mask.r), dtype=dtype)
    # the box holds the cell [0, 1]^d: its nodes 0 <= J < 2^q form a slice
    cell = tuple(slice(-f, scale - f) for f in first)
    data[:-1].reshape(*shape, mask.r)[cell] = _as(direction, dtype)
    plan = _plan(placement, mask.r, dtype)
    sup_diffs = []
    for _ in range(iterations):
        nxt = _step(plan, data)
        # the old iterate is spent: its array takes the difference
        data -= nxt
        sup_diffs.append(float(np.max(np.abs(data))))
        if not math.isfinite(sup_diffs[-1]):
            raise CascadeError(f"cascade iterate {len(sup_diffs)} is not "
                               "finite: the mask's coefficients overflow "
                               "floating point")
        data = nxt
    field = GridField(triple, q, first, shape, data)
    return CascadeResult(field, tuple(sup_diffs),
                         sup_diffs[-1] <= CONVERGENCE_TOL)


def refinement_residual(field: GridField, mask: Mask,
                        dilation: Dilation) -> float:
    """Largest node defect of the refinement equation for the field: the
    sup difference between the field and one more refinement step, on
    float64 when the field's array and every mask block are real, else
    on complex128."""
    parts = _point_parts(mask)
    padded = field._padded
    dtype = np.result_type(padded, _dtype(_blocks(parts)))
    first = tuple(int(x) for x in field.first)
    plan = _plan(_placement(parts, dilation, first, field.shape, field.q),
                 mask.r, dtype)
    padded = padded.astype(dtype, copy=False)
    return float(np.max(np.abs(_step(plan, padded) - padded)))


def sample_points(field: GridField, count: int = 32,
                  seed: int = 2026) -> np.ndarray:
    """``count`` distinct grid nodes of the lattice cell [0,1)^d in y (all
    of them when there are fewer), returned as x = R y, keeping a margin
    of support_radius * h, h times the length of the support box's
    diagonal, from the cell boundary in y.

    The nodes are drawn by Python's ``random.Random(seed)``, so a seed
    gives the same sample on a given Python version, as it did on a given
    numpy version when numpy's generator drew it; the same seed picks
    other nodes than it did then.  A seed must be a nonnegative integer.
    The oracle reads the field at nodes only: from a node every translate
    gamma(x) is again a node, so the comparison measures the cascade
    itself.
    """
    seed = index(seed)
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    scale = 2 ** field.q
    # node j keeps the margin when min(j, 2^q - j) >= support_radius; both
    # sides squared and scaled by 4^q are integers
    diag2 = sum(int(n) ** 2 for n in field.last - field.first)
    ok = np.array([j for j in range(scale)
                   if min(j, scale - j) ** 2 << 2 * field.q >= diag2],
                  dtype=np.int64)
    if len(ok) == 0:
        raise CascadeError("grid too coarse for the sampling margin")
    total = len(ok) ** field.d
    picks = np.array(random.Random(seed).sample(range(total),
                                                min(count, total)),
                     dtype=np.int64)
    J = ok[np.stack(np.unravel_index(picks, (len(ok),) * field.d), axis=1)]
    return field._x(J)


def _translate(field: GridField, e, J: np.ndarray) -> np.ndarray:
    """Nodes of gamma(x) = g(x + R k) for the nodes J of x: G_g (J + 2^q k)."""
    rep = np.array(field.triple.int_reps[e.g], dtype=np.int64)
    return (J + (np.array(e.k, dtype=np.int64) << field.q)) @ rep.T


def _near(field: GridField, J: np.ndarray, pad: int) -> np.ndarray:
    """Rows of J within pad nodes of the box on every axis."""
    return np.all((J >= field.first - pad) & (J <= field.last + pad), axis=1)


def _gamma_cover(field: GridField, J: np.ndarray) -> list:
    """Group elements gamma that may carry a node J within one node of the
    box: G_g (J + 2^q k) lands there only if 2^q k lies in
    G_{g^{-1}} (the box widened by one node) - J, bounded per axis over
    the nodes, in exact integers.  Everything else reads zero."""
    if len(J) == 0:
        return []
    t = field.triple
    # twice the box centre and twice its half-width plus one node
    centre2 = field.first + field.last
    half2 = field.last - field.first + 2
    den = 2 ** (field.q + 1)
    cover = []
    for g in range(t.order):
        m = np.array(t.int_reps[t.inverse_table[g]], dtype=np.int64)
        mid, reach = m @ centre2, np.abs(m) @ half2
        low = -((reach - mid + 2 * J.max(axis=0)) // den)
        high = (mid + reach - 2 * J.min(axis=0)) // den
        ranges = [range(a, b + 1) for a, b in zip(low, high)]
        cover += [t.element(g, k) for k in itertools.product(*ranges)]
    return cover


def _y_terms(gamma, s: int, acted) -> list:
    """The terms Qt_[s,t](gamma) v_[t] of y_[s](gamma), one complex d_s x r
    array per block t <= s of acted(b) (:func:`~crystacc.multiidx._acted_rows`
    of the rows of a float witness v): the binomial shift by gamma's
    translation.  Kept apart, each term is rounded as the product
    Qt_[s,t](gamma) v_[t] alone; the callers sum them in t.  A float64
    field's reads meet these terms as complex values with zero imaginary
    parts, so its sums equal those of the same field held in complex128."""
    return [np.array(_y_rows(gamma, {t: rows}, s), dtype=complex)
            for t, rows in acted(gamma.g).items() if t <= s]


def _walk(field: GridField, J: np.ndarray) -> tuple:
    """The gamma cover of the nodes J, walked once: (reads, excluded).
    reads holds (gamma, field.read(gamma(J)), whether one of those lies on
    the box) for each gamma whose reads land within one node of the box
    (every other gamma reads zeros only); excluded marks the nodes with a
    read off the box but within one node of it: their sums may be cut."""
    reads, excluded = [], np.zeros(len(J), dtype=bool)
    for e in _gamma_cover(field, J):
        moved = _translate(field, e, J)
        inside, near = _near(field, moved, 0), _near(field, moved, 1)
        excluded |= ~inside & near
        if near.any():
            reads.append((e, field.read(moved), inside.any()))
    return reads, excluded


def _sums(field: GridField, reads: list, n: int, s: int,
          acted) -> np.ndarray:
    """G_[s](x) = sum_gamma y_[s](gamma) f(gamma(x)) at n nodes, over the
    reads of :func:`_walk` that touch the box, in the order of the walk."""
    out = np.zeros((n, dim_degree(field.d, s)), dtype=complex)
    for e, vals, on_box in reads:
        if on_box:
            terms = _y_terms(e, s, acted)
            out += vals @ sum(terms[1:], terms[0]).T
    return out


def _monomial_matrix(pts: np.ndarray, s: int) -> np.ndarray:
    cols = [np.prod(pts ** np.asarray(alpha), axis=1)
            for alpha in enumerate_degree(pts.shape[1], s)]
    return np.stack(cols, axis=1)


def reproduce(field: GridField, v: tuple, sample_points,
              tol: float = 1e-5, walk: tuple | None = None) -> list:
    """Test G_[s] = C X_[s] on the sample points for every degree s of a
    float witness v (a tuple of complex arrays, at least one): a list of
    :class:`ReproductionReport`, one per block of v.  One walk of the
    sample's gamma cover (:func:`_walk`) serves every degree, the given
    ``walk`` of these points when the caller made it, else a new one; C,
    the excluded points, the field integral, the gate and the closed forms
    are computed once.  C is the mean of the degree-0 sums (exact
    reproduction makes them constant), the very sums the s = 0 test
    compares with it, so with fewer than two kept nodes that test shows
    nothing and never passes."""
    pts = np.asarray(sample_points, dtype=float).reshape(-1, field.d)
    reads, excluded = (walk if walk is not None
                       else _walk(field, field.node_index(pts)))
    keep = ~excluded
    if not keep.any():
        raise CascadeError("every sample point lost coverage; enlarge the "
                           "grid or shrink the sample region")
    acted = _acted_rows(field.triple, [b.tolist() for b in v])
    sums = [_sums(field, reads, len(pts), s, acted) for s in range(len(v))]
    C = complex(np.mean(sums[0][keep, 0]))

    # closed-form candidates for C from the field integral; dx = |det R| dy
    det_r = abs(np.linalg.det(field.triple.R.np().real))
    integral = field._flat.sum(axis=0) * field.h ** field.d * det_r
    gate = complex(np.dot(v[0].ravel(), integral))
    vol = det_r / field.triple.order
    form_vg = vol / gate if abs(gate) > 1e-12 else complex("inf")
    form_gv = gate / vol
    matches = [name for name, val in (("volume-over-gate", form_vg),
                                      ("gate-over-volume", form_gv))
               if abs(val - C) <= 1e-2 * max(1.0, abs(C))]
    matched = " and ".join(matches) if matches else "neither"
    reports = []
    for s, gs in enumerate(sums):
        target = C * _monomial_matrix(pts[keep], s)
        residual = float(np.max(np.abs(gs[keep] - target)))
        reports.append(ReproductionReport(
            s=s, C=C, residual=residual,
            verdict=bool(residual < tol and (s > 0 or keep.sum() > 1)),
            excluded=int(excluded.sum()),
            gate_estimate=gate, cell_volume=vol,
            form_volume_over_gate=form_vg, form_gate_over_volume=form_gv,
            matched_form=matched))
    return reports


def _probe_block(field: GridField, reads: list, v: tuple | None, s: int,
                 pts: np.ndarray, C: complex) -> tuple:
    """Best-fitting degree-s block given the lower blocks (a float
    witness: a tuple of complex arrays): least squares for v_[s] in
    G_[s] = C X_[s] on the points pts, whose gamma cover ``reads`` holds
    (:func:`_walk`).  Returns (residual, extended v, C).

    With no blocks at all (solver accuracy 0) the degree-0 row itself is
    fitted against the constant 1, fixing the scale.  A gamma whose
    targets all lie more than one node off the grid box reads only zeros
    and is not in reads, nor are its blocks (b^{-1})_[t] built.
    """
    d_s, r, n = dim_degree(field.d, s), field.r, len(pts)
    base = np.zeros((n, d_s), dtype=complex)
    design = np.zeros((n, d_s, d_s * r), dtype=complex)
    acted = (_acted_rows(field.triple, [b.tolist() for b in v[:s]])
             if v is not None and s > 0 else None)
    for e, vals, _ in reads:
        if acted is not None:
            terms = [vals @ y.T for y in _y_terms(e, s, acted)]
            base += sum(terms[1:], terms[0])
        # unknown W is d_s x r; the gamma term is Qt_[s,s] @ W @ vals[x],
        # and Qt_[s,s] = (b^{-1})_[s] as Q_[s,s] = I
        q_ss = build_A_s(e.point_matrix_inverse(), s).np()
        design += np.einsum("ab,nc->nabc", q_ss, vals).reshape(n, d_s,
                                                               d_s * r)
    target = (np.ones((n, 1), dtype=complex) if C is None
              else C * _monomial_matrix(pts, s))
    lhs = design.reshape(n * d_s, d_s * r)
    rhs = (target - base).reshape(n * d_s)
    sol, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    fit = (design @ sol).reshape(n, d_s)
    residual = float(np.max(np.abs(base + fit - target)))
    block = sol.reshape(d_s, r)
    if v is None:
        return residual, (block,), complex(1.0)
    return residual, v + (block,), C


@dataclass
class DegreeCheck:
    """Outcome of the cascade check at one degree s: report is the
    reproduction test of a witness block, or None when the block was
    fitted by least squares."""

    s: int
    residual: float
    verdict: bool
    report: ReproductionReport | None


def verify_degrees(field: GridField, witness: VCollection | None, p_max: int,
                   tolerance: float, sample_count: int, seed: int):
    """Yield a :class:`DegreeCheck` for each degree s < p_max on sampled
    nodes of the field.

    Witness blocks from the exact solver drive the reproduction test for
    the degrees below p_max they cover, in one :func:`reproduce` call;
    past them, each degree gets its best-fitting block (least squares,
    with that call's C), so a failure is a failure of every possible
    extension, not of one candidate.  The sample's gamma cover is walked
    once for all of them (:func:`_walk`).  A fit with no more sample
    equations than unknowns (at most r sample nodes) is exact by
    construction and shows nothing, so it never passes.  A failing degree
    does not stop the scan; the fitted blocks keep extending the
    collection.
    """
    pts = sample_points(field, sample_count, seed)
    if p_max < 1:
        return
    walk = _walk(field, field.node_index(pts))
    # the oracle is float throughout: convert the witness once, not in
    # every y_[s] over the gamma cover
    v = (tuple(b.np() for b in witness.blocks) if witness is not None
         else None)
    tested = min(len(v), p_max) if v is not None else 0
    reports = (reproduce(field, v[:tested], pts, tol=tolerance, walk=walk)
               if tested else [])
    C = reports[0].C if reports else None
    for s in range(p_max):
        if s < tested:
            rep = reports[s]
            yield DegreeCheck(s, rep.residual, rep.verdict, rep)
        else:
            residual, v, C = _probe_block(field, walk[0], v, s, pts, C)
            yield DegreeCheck(s, residual,
                              residual < tolerance and len(pts) > field.r,
                              None)


def empirical_level(result: CascadeResult, checks,
                    fhat0_status: str) -> int | None:
    """Empirical accuracy of a cascade run: the largest s+1 such that every
    degree up to s passes among checks (:class:`DegreeCheck` objects in
    order of s, as :func:`verify_degrees` yields them), or None when the
    cascade did not converge, since a diverging field supports no claim.
    It is None too when the exact gate says the integral must vanish
    (``fhat0_status`` 'empty', :func:`accuracy.fhat0`) but the field is
    not degenerate: a field that shrinks without vanishing identically
    supports no claim either.  A failing degree stops the reading of
    checks."""
    if not result.converged:
        return None
    if fhat0_status == "empty" and not result.field.degenerate():
        return None
    level = 0
    for check in checks:
        if not check.verdict:
            break
        level = check.s + 1
    return level


def empirical_accuracy(mask: Mask, triple: CrystalTriple, dilation: Dilation,
                       p_max: int, iterations: int = 12,
                       grid_exponent: int = 8, tolerance: float = 1e-5,
                       sample_count: int = 32, seed: int = 2026,
                       strict: bool = True) -> int | None:
    """Brute-force accuracy estimate from the cascade field: the largest
    s+1 at or below p_max for which every degree up to s passes
    :func:`verify_degrees` with the exact solver's witness
    (:func:`empirical_level`, which also reads the solver's ``fhat0``
    status).  When the cascade does not converge, strict raises
    :class:`CascadeError`; otherwise the return value is None.
    """
    cert = max_accuracy(mask, triple, dilation, p_max)
    result = cascade_iterate(mask, triple, dilation, iterations,
                             grid_exponent=grid_exponent)
    if not result.converged and strict:
        raise CascadeError("cascade did not converge: last sup difference "
                           f"{result.sup_diffs[-1]:.3g}")
    return empirical_level(result, verify_degrees(
        result.field, cert.witness, p_max, tolerance, sample_count, seed),
        cert.diagnostics["fhat0_status"])
