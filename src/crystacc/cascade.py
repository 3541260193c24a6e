"""Floating-point cascade oracle for refinement masks.

Iterates the refinement operator on a dyadic grid to approximate the
refinable function, then tests polynomial reproduction empirically.  This
is the floating-point cross-check for the exact solvers.  It computes on
complex arrays taken once from exact data through ``Mat.np()``: the mask
blocks, the seed's integral direction (the exact
:func:`~crystacc.accuracy.fhat0` vector, or the flat vector when there is
none) and the exact solver's witness, which :func:`verify_degrees` turns
into a tuple of arrays, one per degree.

The grid is the one box :func:`support_box` certifies for every
admissible dilation: the n-step box map, whose maps x -> A^{-n} g' x + c
compose the maps x -> A^{-1} g (x + R k) of the mask's support n times,
is iterated in rationals on multiples of the spacing until a box contains
[0,1]^d and its own n-step image, checked exactly (n = 1 unless the
one-step map does not contract, as for the quincunx A = [[1, 1], [1, -1]]).
The grid is the hull of that box and its first n - 1 one-step images, so
every iterate and the limit vanish outside it (the attractor of the maps
x -> A^{-1} g (x + R k); Hutchinson, 1981; Cavaretta, Dahmen and
Micchelli, *Stationary Subdivision*, 1991).

The grid iteration is node-exact whenever the dilation, the point group
and the lattice are integral and the spacing is dyadic, because every read
location is then itself a node; multilinear interpolation only enters for
genuinely off-grid reads (non-integral data) and for off-node sampling of
the finished field.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .accuracy import fhat0, max_accuracy
from .crystal import CrystalTriple, Dilation
from .linalg import Mat
from .mask import Mask
from .multiidx import (VCollection, build_Q_tilde, dim_degree,
                       enumerate_degree)

CONVERGENCE_TOL = 1e-6
MAX_BOX_STEPS = 64
# slack of the float tests of where a target lands against the grid box
_EPS = 1e-9


class CascadeError(RuntimeError):
    """The grid iteration cannot proceed or did not behave as required."""


class GridField:
    """Sampled approximation of the refinable function on a box grid.

    data has shape (*shape, r); node j of axis i sits at lo[i] + h*j.
    Reads outside the box [lo, hi] are zero, matching compact support:
    [lo, hi] is the box :func:`support_box` proved to hold every iterate.
    support_radius, the length of its diagonal, sets
    :func:`sample_points`' margin.
    """

    def __init__(self, triple: CrystalTriple, h: float, lo: np.ndarray,
                 shape: tuple, data: np.ndarray):
        self.triple = triple
        self.d = triple.d
        self.h = float(h)
        self.lo = np.asarray(lo, dtype=float)
        self.shape = tuple(shape)
        self.data = data
        self.r = data.shape[-1]
        self.hi = self.lo + self.h * (np.asarray(self.shape) - 1)
        self.support_radius = math.hypot(*(self.hi - self.lo))
        self._flat = data.reshape(-1, self.r)

    def axes(self) -> list:
        return [self.lo[j] + self.h * np.arange(self.shape[j])
                for j in range(self.d)]

    def nodes(self) -> np.ndarray:
        """Coordinates of every node, one row each, in the row order of
        ``data.reshape(-1, r)``."""
        return _node_points(self.lo, self.h, self.shape)

    def sample(self, points) -> np.ndarray:
        """Multilinear interpolation at arbitrary points, zero outside."""
        pts = np.asarray(points, dtype=float).reshape(-1, self.d)
        plan = _interp_plan(pts, self.lo, self.h, self.shape)
        return _apply_plan(plan, self._flat)


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
    tolerance: float
    verdict: bool
    excluded: int
    gate_estimate: complex
    cell_volume: float
    form_volume_over_gate: complex
    form_gate_over_volume: complex
    matched_form: str


def support_box(mask: Mask, dilation: Dilation, h) -> list:
    """Exact box, with corners on multiples of h, certified to contain
    every cascade iterate; per-axis (lo, hi) Fraction pairs.

    A read through mask element gamma = (g, k) at x is non-zero only if x
    lies in A^{-1} g (S + R k), S the support of the iterate read (the read
    map of :func:`_build_plans`).  Elements with the same linear part
    A^{-1} g share one box of shifts, so the one-step box map F sends B to
    hull([0,1]^d and every A^{-1} g B + shifts).  Composed n times, the
    maps have linear parts A^{-n} g' with g' in the point group (A
    normalizes it): at most |G| of them, each with one box of shifts.

    For n = 1, 2, ... this n-step box map is iterated in rationals from
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
    h = Fraction(h)
    t = mask.triple
    step = {}
    for e in mask.support():
        lin = dilation.A_inv @ t.group[e.g]
        shift = lin @ (t.R @ Mat.column(e.k))
        key = tuple(tuple(x.re for x in lin.row_list(i)) for i in range(t.d))
        point = [(shift.entry(i, 0).re,) * 2 for i in range(t.d)]
        step[key] = _hull([step[key], point]) if key in step else point
    unit = [(Fraction(0), Fraction(1))] * t.d
    maps = step
    for n in range(1, MAX_BOX_STEPS + 1):
        box = _snap(unit, h)
        for _ in range(MAX_BOX_STEPS):
            image = _map_box(maps, box, unit)
            if all(lo <= a and b <= hi
                   for (lo, hi), (a, b) in zip(box, image)):
                boxes = [box]
                for _ in range(n - 1):
                    boxes.append(_map_box(step, boxes[-1], unit))
                return _snap(_hull(boxes), h)
            box = _snap(_hull([box, image]), h)
        maps = _compose(step, maps)
    raise CascadeError(f"no support box certified within {MAX_BOX_STEPS} "
                       f"steps for any n up to {MAX_BOX_STEPS}")


def _box_image(lin: tuple, shifts: list, box: list) -> list:
    """Bounding box of {lin x + c : x in box, c in shifts}, exactly."""
    out = []
    for row, (lo, hi) in zip(lin, shifts):
        for a, (l, u) in zip(row, box):
            lo += min(a * l, a * u)
            hi += max(a * l, a * u)
        out.append((lo, hi))
    return out


def _map_box(maps: dict, box: list, unit: list) -> list:
    """hull([0,1]^d and every lin box + shifts) over maps {lin: shifts}."""
    return _hull([unit] + [_box_image(lin, shifts, box)
                           for lin, shifts in maps.items()])


def _compose(outer: dict, inner: dict) -> dict:
    """The maps x -> l1 (l2 x + c2) + c1 of every outer (l1, c1) after every
    inner (l2, c2), one box of shifts per distinct linear part l1 l2."""
    out = {}
    for l1, c1 in outer.items():
        for l2, c2 in inner.items():
            lin = tuple(tuple(sum(a * b for a, b in zip(row, col))
                              for col in zip(*l2)) for row in l1)
            shifts = _box_image(l1, c1, c2)
            out[lin] = _hull([out[lin], shifts]) if lin in out else shifts
    return out


def _hull(boxes: list) -> list:
    return [(min(lo for lo, _ in axis), max(hi for _, hi in axis))
            for axis in zip(*boxes)]


def _snap(box: list, h: Fraction) -> list:
    return [(math.floor(lo / h) * h, math.ceil(hi / h) * h) for lo, hi in box]


def _interp_plan(points: np.ndarray, lo: np.ndarray, h: float,
                 shape: tuple) -> list:
    """Per-corner (flat node index, weight) pairs for multilinear
    interpolation; out-of-box corners get weight zero."""
    d = points.shape[1]
    rel = (points - lo) / h
    base = np.floor(rel).astype(np.int64)
    frac = rel - base
    dims = np.asarray(shape)
    strides = np.ones(d, dtype=np.int64)
    for j in range(d - 2, -1, -1):
        strides[j] = strides[j + 1] * shape[j + 1]
    plan = []
    for corner in itertools.product((0, 1), repeat=d):
        idx = base + np.asarray(corner)
        w = np.ones(len(points))
        for j in range(d):
            w = w * (frac[:, j] if corner[j] else 1.0 - frac[:, j])
        valid = np.all((idx >= 0) & (idx < dims), axis=1)
        w = np.where(valid, w, 0.0)
        flat = np.where(valid, idx @ strides, 0)
        plan.append((flat, w))
    return plan


def _apply_plan(plan: list, flat_data: np.ndarray) -> np.ndarray:
    out = None
    for flat, w in plan:
        term = w[:, None] * flat_data[flat]
        out = term if out is None else out + term
    return out


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


def _node_points(lo: np.ndarray, h: float, shape: tuple) -> np.ndarray:
    axes = [lo[j] + h * np.arange(shape[j]) for j in range(len(shape))]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def grid_bytes(d: int, r: int, n_elements: int, n_nodes: int) -> int:
    """Estimated peak bytes of a cascade run on ``n_nodes`` grid nodes: the
    node coordinates (d float64 each), four live iterates (the current and
    next one, a term and a gather, r complex128 each) and one
    interpolation plan per mask element (2^d corners, an int64 index and a
    float64 weight per corner)."""
    return n_nodes * (8 * d + 4 * 16 * r + n_elements * 2 ** d * 16)


def memory_budget() -> int:
    """Half of the physical memory, in bytes: the most a cascade run may
    be estimated to need."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2


def _build_plans(mask: Mask, dilation: Dilation, nodes: np.ndarray,
                 lo: np.ndarray, h: float, shape: tuple) -> list:
    """One interpolation plan per mask element for the read locations
    gamma^{-1}(A x) = g^{-1}(A x) - R k over all nodes x."""
    t = mask.triple
    f = t.floats()
    Af = dilation.A.np().real
    plans = []
    for e, blk in mask.items():
        g_inv = f["group"][t.inverse_table[e.g]]
        shift = f["R"] @ np.asarray(e.k, dtype=float)
        target = nodes @ (g_inv @ Af).T - shift
        plans.append((_interp_plan(target, lo, h, shape),
                      blk.np().T.copy()))
    return plans


def cascade_iterate(mask: Mask, triple: CrystalTriple, dilation: Dilation,
                    iterations: int, spacing: float | None = None,
                    grid_exponent: int | None = None) -> CascadeResult:
    """Iterate f -> sum_gamma d_gamma f(gamma^{-1}(A x)) on a node grid.

    The seed is the indicator of the unit box [0,1)^d times the normalized
    integral direction, so the integral starts in the right eigenspace.
    The grid spans the box of :func:`support_box` at spacing h (per-axis
    node counts).  Non-convergence (last sup difference above 1e-6) is
    reported in the result, not raised.  A support box that does not
    certify within the step bound, a grid whose :func:`grid_bytes`
    estimate exceeds :func:`memory_budget` (refused before anything is
    allocated) and an iterate that overflows to a non-finite value all
    raise :class:`CascadeError`.
    """
    if triple is not mask.triple or dilation.triple is not triple:
        raise ValueError("mask, triple and dilation must match")
    if iterations < 1:
        raise ValueError("need at least one iteration")
    if spacing is not None:
        h = float(spacing)
        if h <= 0:
            raise ValueError("spacing must be positive")
    else:
        q = 8 if grid_exponent is None else int(grid_exponent)
        h = 2.0 ** -q
    d = triple.d
    box = support_box(mask, dilation, h)
    lo = np.array([float(l) for l, _ in box])
    shape = tuple(int((u - l) / Fraction(h)) + 1 for l, u in box)
    n_nodes = math.prod(shape)
    need = grid_bytes(d, mask.r, len(mask.support()), n_nodes)
    budget = memory_budget()
    if need > budget:
        raise CascadeError(
            f"a grid of {n_nodes} nodes (spacing {h:g}) needs about "
            f"{need / 2 ** 30:.1f} GiB, more than half of physical memory "
            f"({budget / 2 ** 30:.1f} GiB); use a coarser grid")
    nodes = _node_points(lo, h, shape)
    seed = _seed_direction(mask, dilation)
    inside = np.all((nodes >= -1e-12) & (nodes < 1.0 - 1e-12), axis=1)
    data = np.zeros((len(nodes), mask.r), dtype=complex)
    data[inside] = seed
    plans = _build_plans(mask, dilation, nodes, lo, h, shape)
    sup_diffs = []
    for _ in range(iterations):
        nxt = None
        for plan, d_t in plans:
            term = _apply_plan(plan, data) @ d_t
            nxt = term if nxt is None else nxt + term
        if nxt is None:
            nxt = np.zeros_like(data)
        sup_diffs.append(float(np.max(np.abs(nxt - data))))
        if not math.isfinite(sup_diffs[-1]):
            raise CascadeError(f"cascade iterate {len(sup_diffs)} is not "
                               "finite: the mask's coefficients overflow "
                               "floating point")
        data = nxt
    field = GridField(triple, h, lo, shape, data.reshape(*shape, mask.r))
    return CascadeResult(field, tuple(sup_diffs),
                         sup_diffs[-1] <= CONVERGENCE_TOL)


def refinement_residual(field: GridField, mask: Mask,
                        dilation: Dilation) -> float:
    """Largest node defect of the refinement equation for the field: the
    sup difference between the field and one more refinement step."""
    plans = _build_plans(mask, dilation, field.nodes(), field.lo, field.h,
                         field.shape)
    nxt = None
    for plan, d_t in plans:
        term = _apply_plan(plan, field._flat) @ d_t
        nxt = term if nxt is None else nxt + term
    return float(np.max(np.abs(nxt - field._flat)))


def sample_points(field: GridField, count: int = 32,
                  seed: int = 2026) -> np.ndarray:
    """Random grid nodes in the central unit cell, keeping a margin of
    support_radius * h, h times the length of the support box's diagonal,
    from the cell boundary.

    Nodes rather than arbitrary points: at a node every lattice translate
    is read node-exactly, so the comparison measures the cascade itself
    and not the interpolation of the target polynomial between nodes.
    """
    rng = np.random.default_rng(seed)
    margin = field.support_radius * field.h
    axes = field.axes()
    eligible = []
    for ax in axes:
        ok = np.where((ax >= margin - 1e-12) & (ax < 1.0 - margin + 1e-12))[0]
        if len(ok) == 0:
            raise CascadeError("grid too coarse for the sampling margin")
        eligible.append(ok)
    sizes = [len(ok) for ok in eligible]
    total = int(np.prod(sizes))
    take = min(count, total)
    picks = rng.choice(total, size=take, replace=False)
    coords = np.empty((take, field.d))
    for row, flat in enumerate(picks):
        rest = int(flat)
        for j in range(field.d - 1, -1, -1):
            rest, pos = divmod(rest, sizes[j])
            coords[row, j] = axes[j][eligible[j][pos]]
    return coords


def _gamma_cover(field: GridField, pts: np.ndarray) -> list:
    """Group elements gamma that may carry a point within h of the grid
    box: gamma(x) = g(x + R k) lands there only if k lies in
    R^{-1} g^{-1} (the box widened by h) - R^{-1} x, bounded per axis over
    the points.  Everything else reads zero."""
    if len(pts) == 0:
        return []
    t = field.triple
    f = t.floats()
    r_inv = np.linalg.inv(f["R"])
    centre = (field.lo + field.hi) / 2
    half = (field.hi - field.lo) / 2 + field.h + _EPS
    y = pts @ r_inv.T
    cover = []
    for g in range(t.order):
        m = r_inv @ f["group"][t.inverse_table[g]]
        reach = np.abs(m) @ half
        low = np.ceil(m @ centre - reach - y.max(axis=0)).astype(int)
        high = np.floor(m @ centre + reach - y.min(axis=0)).astype(int)
        ranges = [range(a, b + 1) for a, b in zip(low, high)]
        cover += [t.element(g, k) for k in itertools.product(*ranges)]
    return cover


def _within(field: GridField, target: np.ndarray, margin: float) -> np.ndarray:
    """Rows of target within margin of the grid box on every axis."""
    return np.all((target >= field.lo - margin)
                  & (target <= field.hi + margin), axis=1)


def _eval_y(gamma, v: tuple, s: int) -> np.ndarray:
    """y_[s](gamma) = sum_{t<=s} Qt_[s,t](gamma) v_[t] for a float
    witness v (a tuple of complex arrays, block t of shape d_t x r)."""
    terms = [build_Q_tilde(gamma, s, t).np() @ v[t] for t in range(s + 1)]
    return sum(terms[1:], terms[0])


def reproduction_values(field: GridField, v: tuple, s: int,
                        points) -> tuple:
    """Degree-s reproduction sums G_[s](x) = sum_gamma y_[s](gamma)
    f(gamma(x)) at the given points, for a float witness v (a tuple of
    complex arrays, block t of shape d_t x r).

    Returns (values (N, d_s), excluded) where excluded marks points with a
    translate that lands off the grid box but within h of it, so their sum
    may be truncated.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, field.d)
    t = field.triple
    f = t.floats()
    out = np.zeros((len(pts), dim_degree(field.d, s)), dtype=complex)
    excluded = np.zeros(len(pts), dtype=bool)
    for e in _gamma_cover(field, pts):
        g = f["group"][e.g]
        shift = f["R"] @ np.asarray(e.k, dtype=float)
        target = (pts + shift) @ g.T
        outside = ~_within(field, target, _EPS)
        excluded |= outside & _within(field, target, field.h + _EPS)
        if outside.all():
            continue
        vals = field.sample(target)
        out += vals @ _eval_y(e, v, s).T
    return out, excluded


def _monomial_matrix(pts: np.ndarray, s: int) -> np.ndarray:
    cols = [np.prod(pts ** np.asarray(alpha), axis=1)
            for alpha in enumerate_degree(pts.shape[1], s)]
    return np.stack(cols, axis=1)


def reproduce(field: GridField, v: tuple, s: int, sample_points,
              tol: float = 1e-5) -> ReproductionReport:
    """Test G_[s] = C X_[s] on the sample points for a float witness v (a
    tuple of complex arrays), with C estimated from the degree-0 sums
    (exact reproduction makes those constant)."""
    pts = np.asarray(sample_points, dtype=float).reshape(-1, field.d)
    g0, ex0 = reproduction_values(field, v, 0, pts)
    if s == 0:
        gs, exs = g0, ex0
    else:
        gs, exs = reproduction_values(field, v, s, pts)
    excluded = ex0 | exs
    keep = ~excluded
    if not keep.any():
        raise CascadeError("every sample point lost coverage; enlarge the "
                           "grid or shrink the sample region")
    C = complex(np.mean(g0[keep, 0]))
    target = C * _monomial_matrix(pts[keep], s)
    residual = float(np.max(np.abs(gs[keep] - target)))

    # closed-form candidates for C from the field integral
    integral = field._flat.sum(axis=0) * field.h ** field.d
    v0 = v[0].ravel()
    gate = complex(np.dot(v0, integral))
    det_r = abs(np.linalg.det(field.triple.floats()["R"]))
    vol = det_r / field.triple.order
    form_vg = vol / gate if abs(gate) > 1e-12 else complex("inf")
    form_gv = gate / vol
    matches = []
    for name, val in (("volume-over-gate", form_vg),
                      ("gate-over-volume", form_gv)):
        if abs(val - C) <= 1e-2 * max(1.0, abs(C)):
            matches.append(name)
    matched = " and ".join(matches) if matches else "neither"
    return ReproductionReport(
        s=s, C=C, residual=residual, tolerance=tol,
        verdict=bool(residual < tol), excluded=int(excluded.sum()),
        gate_estimate=gate, cell_volume=vol,
        form_volume_over_gate=form_vg, form_gate_over_volume=form_gv,
        matched_form=matched)


def _probe_block(field: GridField, v: tuple | None, s: int,
                 pts: np.ndarray, C: complex) -> tuple:
    """Best-fitting degree-s block given the lower blocks (a float
    witness: a tuple of complex arrays): least squares for v_[s] in
    G_[s] = C X_[s].  Returns (residual, extended v, C).

    With no blocks at all (solver accuracy 0) the degree-0 row itself is
    fitted against the constant 1, fixing the scale.  A gamma whose
    targets all lie farther than h from the grid box reads only zeros and
    is skipped, with its exact Q-tilde blocks.
    """
    t = field.triple
    f = t.floats()
    d_s = dim_degree(field.d, s)
    r = field.r
    gammas = _gamma_cover(field, pts)
    n = len(pts)

    base = np.zeros((n, d_s), dtype=complex)
    design = np.zeros((n, d_s, d_s * r), dtype=complex)
    for e in gammas:
        g = f["group"][e.g]
        shift = f["R"] @ np.asarray(e.k, dtype=float)
        target = (pts + shift) @ g.T
        if not _within(field, target, field.h + _EPS).any():
            continue
        vals = field.sample(target)
        if v is not None:
            partial = None
            for tt in range(min(s, len(v))):
                q = build_Q_tilde(e, s, tt).np()
                term = vals @ (q @ v[tt]).T
                partial = term if partial is None else partial + term
            if partial is not None:
                base += partial
        q_ss = build_Q_tilde(e, s, s).np()
        # unknown W is d_s x r; the gamma term is q_ss @ W @ vals[x]
        design += np.einsum("ab,nc->nabc", q_ss, vals).reshape(n, d_s,
                                                               d_s * r)
    if C is None:
        target = np.ones((n, 1), dtype=complex)
    else:
        target = C * _monomial_matrix(pts, s)
    lhs = design.reshape(n * d_s, d_s * r)
    rhs = (target - base).reshape(n * d_s)
    sol, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    fit = (design @ sol).reshape(n, d_s)
    residual = float(np.max(np.abs(base + fit - target)))
    block = sol.reshape(d_s, r)
    if v is None:
        new_v = (block,)
        new_c = complex(1.0)
    else:
        new_v = v + (block,)
        new_c = C
    return residual, new_v, new_c


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
    the degrees they cover; past them, each degree gets its best-fitting
    block (least squares), so a failure is a failure of every possible
    extension, not of one candidate.  A failing degree does not stop the
    scan; the fitted blocks keep extending the collection.
    """
    pts = sample_points(field, sample_count, seed)
    # the oracle is float throughout: convert the witness once, not in
    # every y_[s] over the gamma cover
    v = (tuple(b.np() for b in witness.blocks) if witness is not None
         else None)
    C = None
    for s in range(p_max):
        if v is not None and s < len(v):
            rep = reproduce(field, v, s, pts, tol=tolerance)
            if s == 0:
                C = rep.C
            yield DegreeCheck(s, rep.residual, rep.verdict, rep)
        else:
            residual, v, C = _probe_block(field, v, s, pts, C)
            yield DegreeCheck(s, residual, residual < tolerance, None)


def empirical_level(result: CascadeResult, checks) -> int | None:
    """Empirical accuracy of a cascade run: the largest s+1 such that every
    degree up to s passes among checks (:class:`DegreeCheck` objects in
    order of s, as :func:`verify_degrees` yields them), or None when the
    cascade did not converge, since a diverging field supports no claim.
    A failing degree stops the reading of checks."""
    if not result.converged:
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
    (:func:`empirical_level`).  When the cascade does not converge, strict
    raises :class:`CascadeError`; otherwise the return value is None.
    """
    cert = max_accuracy(mask, triple, dilation, p_max)
    result = cascade_iterate(mask, triple, dilation, iterations,
                             grid_exponent=grid_exponent)
    if not result.converged and strict:
        raise CascadeError("cascade did not converge: last sup difference "
                           f"{result.sup_diffs[-1]:.3g}")
    return empirical_level(result, verify_degrees(
        result.field, cert.witness, p_max, tolerance, sample_count, seed))
