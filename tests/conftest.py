"""Shared fixtures: catalog triples, dilations, and the classic 1D masks."""

import random
from dataclasses import dataclass, is_dataclass, replace
from fractions import Fraction
from functools import cache
from math import prod
from operator import getitem

import numpy as np
import pytest

from crystacc import accuracy, cascade
from crystacc.crystal import catalog_triple, check_admissible
from crystacc.linalg import QC, Mat, SparseRows, _rref
from crystacc.mask import Mask, MaskShapeError
from crystacc.multiidx import (VCollection, _acted_rows, _shift_pattern,
                               build_A_s, dim_degree, enumerate_degree)


def rand_fraction(rng, num=9, den=5):
    """Small random nonzero-denominator rational."""
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def rand_point(rng, d):
    return tuple(rand_fraction(rng) for _ in range(d))


def reproduction_values(field, v, s, points):
    """Degree-s reproduction sums G_[s](x) = sum_gamma y_[s](gamma)
    f(gamma(x)) at the given grid nodes, for a float witness v (a tuple
    of complex arrays, block t of shape d_t x r), from one walk of the
    gamma cover as cascade.reproduce makes it.  Returns (values (N, d_s),
    excluded), excluded marking the points with a translate that lands
    off the grid box but within one node of it, whose sum may be
    truncated; a point that is not a grid node raises ValueError.  Kept
    in the tests, as no library code reads it."""
    reads, excluded = cascade._walk(field, field.node_index(points))
    acted = _acted_rows(field.triple.inverses, [b.tolist() for b in v[:s + 1]])
    return cascade._sums(field, reads, len(excluded), s, acted), excluded


def rref_kernel(rows, n_cols):
    """The kernel routine as it was before its vectors were made
    integral, kept as the reference: for each free column f of the rref,
    1 at f and minus the rref's column f at the pivot columns."""
    rref, pivots, _ = _rref(rows, n_cols)
    taken = set(pivots)
    basis = {f: {f: 1} for f in range(n_cols) if f not in taken}
    for row, col in zip(rref, pivots):
        for j, x in row.items():
            if j != col:
                basis[j][col] = -x
    return list(basis.values())


def rref_solve_affine(k, basis):
    """linalg.solve_affine as it was on :func:`rref_kernel`, kept as the
    reference: (B c, v) for each rref kernel vector (c, v) of k."""
    n, start = basis.rows, basis.cols
    out = []
    for x in rref_kernel(k.data, k.cols):
        v = {}
        for c, y in x.items():
            if c < n:
                for j, b in basis.data[c].items():
                    v[j] = v.get(j, 0) + y * b
            else:
                v[start + c - n] = y
        out.append({j: e for j, e in v.items() if e != 0})
    return SparseRows(out, start + k.cols - n)


@dataclass
class TwoFieldTable:
    """The moment table as it was kept before it held each moment once:
    every coset's D-scaled moments (``sums``) and their differences from
    coset 0 (``diffs``), besides the degree bound, D and the leads."""

    p_max: int
    scale: int
    sums: dict
    diffs: dict
    leads: dict


def two_field_moments(mask, dilation, p_max):
    """accuracy._moments as it was before it kept each moment once, kept as
    the reference: every coset's sums in ``sums``, summed in dense lists
    once per lattice point, and their differences from coset 0 in
    ``diffs``.  Unlike the solver's, the table is not kept with the mask."""
    tri, d, r = mask.triple, mask.triple.d, mask.r
    view = mask.plain()
    mus = [mu for s in range(p_max) for mu in enumerate_degree(d, s)]
    dense, points = {}, {}
    for e, entries in view.entries:
        if e.k not in points:
            powers = [[(-y) ** n for n in range(p_max)]
                      for y in e.true_translation()]
            points[e.k] = (dilation.translation_coset([-x for x in e.k]),
                           [(mu, w) for mu in mus
                            if (w := prod(map(getitem, powers, mu)))])
        i, weights = points[e.k]
        moments = dense.setdefault((i, e.g), {})
        terms = [(a * r + c, x) for c, a, x in entries]
        for mu, w in weights:
            acc = moments.get(mu)
            if acc is None:
                acc = moments[mu] = [0] * (r * r)
            for n, x in terms:
                acc[n] += w * x
    pairs = [divmod(n, r) for n in range(r * r)]

    def sparse(moments):
        if r == 1:
            return {mu: {(0, 0): acc[0]} for mu, acc in moments.items()
                    if acc[0] != 0}
        return {mu: n_mu for mu, acc in moments.items()
                if (n_mu := {pairs[n]: y for n, y in enumerate(acc)
                             if y != 0})}

    sums = {key: sparse(moments) for key, moments in dense.items()}
    parts = dict.fromkeys(b for _, b in dense)
    zero, diffs = [0] * (r * r), {}
    for i in range(1, dilation.m):
        for b in parts:
            ours, base = dense.get((i, b), {}), dense.get((0, b), {})
            delta = {}
            for mu in mus:
                n_i, n_0 = ours.get(mu, zero), base.get(mu, zero)
                if n_i != n_0:
                    delta[mu] = [x - y for x, y in zip(n_i, n_0)]
            if delta:
                diffs[(i, b)] = sparse(delta)
    return TwoFieldTable(p_max, view.scale, sums, diffs, reference_leads(
        tri, dilation, parts, p_max))


def reference_leads(tri, dilation, parts, p_max):
    """(b, t) -> the rows of (b^{-1} A)_[t] as (column, non-zero) pairs."""
    leads = {}
    for b in parts:
        b_inv_a = tri.group[tri.inverse_table[b]] @ dilation.A
        for t in range(p_max):
            leads[(b, t)] = [[(k, x) for k, x in enumerate(row) if x]
                             for row in build_A_s(b_inv_a, t).plain()]
    return leads


def two_field_block_row(mask, dilation, table, s, coset=None):
    """accuracy._block_row as it was on the two-field table, kept as the
    reference: with ``coset``, the plain block B_i of that digit coset,
    read off ``sums``; without, B_0 followed, for each coset i > 0 in
    turn, by the non-empty rows of B_i - B_0, read off ``diffs``."""
    d, r = mask.triple.d, mask.r
    starts = [0]
    for t in range(s):
        starts.append(starts[-1] + dim_degree(d, t) * r)
    patterns = [_shift_pattern(d, s, t) for t in range(s + 1)]
    size = dim_degree(d, s) * r
    first = coset or 0
    rows = {first: [{starts[s] + k: table.scale} for k in range(size)]}
    work = [(i, b, moment) for (i, b), moment in table.sums.items()
            if i == first]
    if coset is None:
        work += [(i, b, delta) for (i, b), delta in table.diffs.items()]
    for i, b, moment in work:
        block = rows.get(i)
        if block is None:
            block = rows[i] = [{} for _ in range(size)]
        for t, pattern in enumerate(patterns):
            leads = table.leads[(b, t)]
            for row0, terms in enumerate(pattern):
                for j, binom, mu in terms:
                    n_mu = moment.get(mu)
                    if not n_mu:
                        continue
                    for k, x in leads[j]:
                        col0, bx = starts[t] + k * r, binom * x
                        for (a, c), y in n_mu.items():
                            row = block[row0 * r + a]
                            value = row.get(col0 + c, 0) - bx * y
                            if value == 0:
                                row.pop(col0 + c, None)
                            else:
                                row[col0 + c] = value
    return [row for i, block in rows.items() for row in block
            if row or i == first]


def two_field_sufficient_check(mask, triple, dilation, p):
    """accuracy.sufficient_check as it was on the two-field table, kept as
    the reference: each coset's sums read off ``sums``, and the block
    rows of coset 0 alone (``coset=0``)."""
    if mask.r != 1:
        raise MaskShapeError("the sum-rule test applies to multiplicity-1 "
                             f"masks, got r={mask.r}")
    if triple is not mask.triple or dilation.triple is not triple:
        raise ValueError("mask, triple and dilation must match")
    if p < 1:
        raise ValueError("target accuracy must be at least 1")
    d, m = triple.d, dilation.m
    notes = ["degree-s eigenvalue screen runs over 1 <= s < p; at s = 0 "
             "the screened matrix equals the scalar 1 whenever the sum "
             "rule holds"]
    view = mask.plain()
    total = sum(x for _, entries in view.entries for _, _, x in entries)
    sum_rule_ok = total == m * view.scale

    table = two_field_moments(mask, dilation, p)
    sums = {(b, a): [0] * m for b in range(triple.order)
            for s in range(p) for a in enumerate_degree(d, s)}
    act = cache(lambda g, s: build_A_s(triple.group[g], s).plain())
    for (i, g), moment in table.sums.items():
        b = triple.inverse_table[g]
        for s in range(p):
            alphas = enumerate_degree(d, s)
            for a, row in zip(alphas, act(g, s)):
                sums[(b, a)][i] = sum(x * moment.get(alphas[k], {}).get(
                    (0, 0), 0) for k, x in enumerate(row) if x)
    per_coset = {key: [accuracy._exact(x, view.scale) for x in xs]
                 for key, xs in sums.items()}
    beta = {key: xs[0] for key, xs in per_coset.items() if len(set(xs)) == 1}
    moments_ok = len(beta) == len(per_coset)
    if not moments_ok:
        notes.append("per-coset moments disagree; see per_coset for the "
                     "offending sums")

    zero_alpha = (0,) * d
    beta0_consistent = True
    if moments_ok and sum_rule_ok:
        direct = {b: [0] * m for b in range(triple.order)}
        for e, entries in view.entries:
            i = dilation.translation_coset(e.k)
            for _, _, x in entries:
                direct[triple.inverse_table[e.g]][i] += x
        beta0_consistent = all(x == sums[(b, zero_alpha)][0]
                               for b, xs in direct.items() for x in xs)
        if not beta0_consistent:
            notes.append("alpha = 0 moments disagree between the two "
                         "coefficient indexings; the coset permutation "
                         "argument failed for this input")

    eigen_flags = {}
    chain = [[1]] if sum_rule_ok and beta0_consistent else None
    if moments_ok:
        start = 1
        for s in range(1, p):
            ds = dim_degree(d, s)
            flat = [x for blk in chain or () for x in blk]
            system = []
            for row in two_field_block_row(mask, dilation, table, s, coset=0):
                line = {j - start: x for j, x in row.items() if j >= start}
                if chain is not None:
                    line[ds] = -sum(x * flat[j] for j, x in row.items()
                                    if j < start)
                system.append(line)
            rref, pivots, _ = _rref(system, ds + 1)
            eigen_flags[s] = pivots[:ds] == list(range(ds))
            chain = (chain + [[line.get(ds, 0) for line in rref[:ds]]]
                     if chain is not None and eigen_flags[s] else None)
            start += ds
    eigen_ok = all(eigen_flags.values())

    v_chain = None
    chain_zero = None
    conditions_ok = (sum_rule_ok and moments_ok and eigen_ok
                     and beta0_consistent)
    if conditions_ok:
        v_chain = VCollection(d, tuple(Mat.column(blk) for blk in chain))
        _, walk = accuracy._residual_walk(mask, dilation, v_chain, range(p))
        chain_zero = all(x == 0 for cosets in walk.values()
                         for rows in cosets for row in rows for x in row)
        if not chain_zero:
            notes.append("the recursive witness fails the per-coset "
                         "conditions; this indicates an internal "
                         "inconsistency")

    passed = bool(conditions_ok and chain_zero)
    return accuracy.SufficientReport(
        p=p, sum_total=accuracy._exact(total, view.scale),
        sum_rule_ok=sum_rule_ok, beta=beta, per_coset=per_coset,
        moments_ok=moments_ok, eigen_flags=eigen_flags, eigen_ok=eigen_ok,
        beta0_consistent=beta0_consistent, v_chain=v_chain,
        chain_residual_zero=chain_zero, passed=passed, notes=tuple(notes))


def per_element_moments(mask, dilation, p_max):
    """accuracy._moments as it was before it read each lattice point once,
    kept as the reference: the coset of -k, R k and every monomial weight
    are recomputed for each support element, and each (coset, point part)
    starts with an empty N_mu for every mu; the differences from coset 0
    are taken entry by entry (:func:`_reference_diffs`)."""
    d = mask.triple.d
    view = mask.plain()
    mus = [mu for s in range(p_max) for mu in enumerate_degree(d, s)]
    sums = {}
    for e, entries in view.entries:
        key = (dilation.translation_coset([-x for x in e.k]), e.g)
        moments = sums.setdefault(key, {mu: {} for mu in mus})
        powers = [[(-y) ** n for n in range(p_max)]
                  for y in e.true_translation()]
        for mu in mus:
            w = prod(p[n] for p, n in zip(powers, mu))
            if w == 0:
                continue
            n_mu = moments[mu]
            for c, a, x in entries:
                n_mu[(a, c)] = n_mu.get((a, c), 0) + w * x
    return TwoFieldTable(p_max, view.scale, sums,
                         _reference_diffs(sums, dilation.m),
                         reference_leads(mask.triple, dilation,
                                         {b for _, b in sums}, p_max))


def _reference_diffs(sums, m):
    """(i, b) -> {mu: N_mu(i, b) - N_mu(0, b)} for 0 < i < m, from a
    moment table's sums, entry by entry, without the zero entries, the
    zero moments and the keys left with none."""
    out = {}
    for i in range(1, m):
        for b in {b for _, b in sums}:
            ours, base = sums.get((i, b), {}), sums.get((0, b), {})
            delta = {}
            for mu in {**ours, **base}:
                n_i, n_0 = ours.get(mu, {}), base.get(mu, {})
                n = {ac: x for ac in {**n_i, **n_0}
                     if (x := n_i.get(ac, 0) - n_0.get(ac, 0)) != 0}
                if n:
                    delta[mu] = n
            if delta:
                out[(i, b)] = delta
    return out


def stacked_block_row(mask, dilation, table, s):
    """accuracy._block_row as it was before it built the coset
    differences, kept as the reference: D times block row s of the
    stacked system, one block per digit coset, each with its diagonal
    D I, read off the per-coset sums of :func:`per_element_moments`."""
    sums = per_element_moments(mask, dilation, table.p_max)
    return [row for i in range(dilation.m)
            for row in two_field_block_row(mask, dilation, sums, s, i)]


def coset_differences(rows, m):
    """Stacked rows [B_0; B_1; ...; B_(m-1)] of m equal-sized coset blocks
    as [B_0; B_1 - B_0; ...]: the block of coset 0 as it is, then for
    each coset i > 0 in turn the rows of B_i - B_0, without their zero
    entries, the empty ones left out (:func:`without_repeats`)."""
    size = len(rows) // m
    out = list(rows[:size])
    for i in range(1, m):
        for ours, base in zip(rows[i * size:(i + 1) * size], rows[:size]):
            out.append({j: x for j in {**ours, **base}
                        if (x := ours.get(j, 0) - base.get(j, 0)) != 0})
    return without_repeats(out, size)


def without_repeats(rows, size):
    """rows with its first ``size`` rows (coset 0's block) kept as they
    are, and every later row that is empty or equal to an earlier one
    left out."""
    out = list(rows[:size])
    for row in rows[size:]:
        if row and row not in out:
            out.append(row)
    return out


def positive_multiple(v, ref):
    """Whether the sparse vector v is a positive rational multiple of the
    non-zero sparse vector ref (entries ints, Fractions or QCs)."""
    if set(v) != set(ref):
        return False
    j = next(iter(ref))
    ratio = qc_face(v[j]) / qc_face(ref[j])
    return (ratio.im == 0 and ratio.re > 0
            and all(v[i] == x * ratio.re for i, x in ref.items()))


# The public face as it was before it handed out stored values, kept as
# the reference: Mat.entry, det, apply_element and the report scalars gave
# every value as a QC, a real one too.

def qc_face(x):
    """A stored value as the former face gave it: a QC, real or not."""
    return x if isinstance(x, QC) else QC(x)


def stored_value(x):
    """A QC of the former face as the library hands it out now: an int
    where it is integral, a Fraction where it is real, else the QC."""
    if x.im != 0:
        return x
    return x.re.numerator if x.re.denominator == 1 else x.re


def former_det(m):
    """linalg.det as it was: QC(0) for a singular matrix, else a QC."""
    rows = [{j: x for j, x in enumerate(row) if x} for row in m.plain()]
    value = _rref(rows, m.cols, with_det=True)[2]
    return QC(0) if value is None else qc_face(value)


def former_apply_element(e, x):
    """crystal.apply_element as it was: each coordinate a QC."""
    t = e.triple
    shifted = [v + ti for (v,), ti in zip(Mat.column(x).plain(),
                                          e.true_translation())]
    col = t.group[e.g] @ Mat.column(shifted)
    return tuple(qc_face(y) for y, in col.plain())


def former_gate(mask, dilation, witness):
    """The gate v_[0] . fhat(0) of max_accuracy as it was: a QC."""
    fh = accuracy.fhat0(mask, dilation.m)
    return qc_face((witness.block(0) @ fh.vector).plain()[0][0])


def stored_report(rep):
    """A SufficientReport of the former face, its sum_total, beta and
    per_coset QCs mapped to the values the library hands out now."""
    return replace(
        rep, sum_total=stored_value(rep.sum_total),
        beta={key: stored_value(x) for key, x in rep.beta.items()},
        per_coset={key: [stored_value(x) for x in xs]
                   for key, xs in rep.per_coset.items()})


def assert_stored_face(got, former):
    """got is the former face's QC as a stored value: equal to it, an int
    or Fraction where it is real, and a QC with a non-zero imaginary part
    otherwise, type for type as :func:`stored_value` maps it."""
    assert type(former) is QC
    want = stored_value(former)
    assert got == former and type(got) is type(want), (got, former)
    assert not isinstance(got, QC) or got.im != 0


def held_arrays(x):
    """Every numpy array that x holds, through dataclass fields, lists and
    tuples, in field order."""
    if isinstance(x, np.ndarray):
        return [x]
    if is_dataclass(x):
        x = list(vars(x).values())
    if isinstance(x, (list, tuple)):
        return [a for y in x for a in held_arrays(y)]
    return []


# The cascade step as it was before u moved onto the one coset of M Z^d
# that its gathers read, kept as the reference: u on the whole box widened
# by 2^q times the hull of a point part's shifts, every element's product
# taken over the whole field.

def _former_shifted_grid(shape, elements, q):
    """Lowest shift k_min of a point part's elements and the node counts
    of its u: the box widened by 2^q times the hull of the shifts k."""
    axes = list(zip(*(k for k, _ in elements)))
    low = tuple(min(axis) for axis in axes)
    return low, tuple(n + ((max(axis) - lo) << q)
                      for n, axis, lo in zip(shape, axes, low))


@dataclass
class FormerPart:
    shape: tuple
    adds: list
    rows: list


@dataclass
class FormerPlan:
    shape: tuple
    parts: list
    buffer: np.ndarray
    term: np.ndarray


def former_plan(parts, dilation, first, shape, q, r, dtype):
    """cascade._plan as it was: one u per distinct element list on the
    widened box, read by one gather per point part at G_{g^{-1}} M J."""
    t = dilation.triple
    m = np.array(dilation.M, dtype=np.int64)
    nodes = cascade._node_grid(first, shape)
    shared, largest = {}, 0
    for g, elements in parts.items():
        blocks = [(k, cascade._as(d.T, dtype)) for k, d in elements]
        key = tuple((k, b.tobytes()) for k, b in blocks)
        low, grid = _former_shifted_grid(shape, elements, q)
        if key not in shared:
            adds = [(tuple(slice((kj - lj) << q, ((kj - lj) << q) + n)
                           for kj, lj, n in zip(k, low, shape)), b)
                    for k, b in blocks]
            shared[key] = FormerPart(grid, adds, [])
            largest = max(largest, prod(grid))
        lin = np.array(t.int_reps[t.inverse_table[g]], dtype=np.int64) @ m
        shift = np.array(low, dtype=np.int64) << q
        shared[key].rows.append(
            cascade._rows(first + shift, grid, nodes @ lin.T))
    return FormerPlan(shape, list(shared.values()),
                      np.zeros((largest + 1, r), dtype=dtype),
                      np.empty((len(nodes), r), dtype=dtype))


def former_step(plan, padded):
    """cascade._step as it was, on a :func:`former_plan`."""
    out = np.zeros_like(padded)
    field, term = padded[:-1], plan.term
    r = term.shape[1]
    shaped = term.reshape(*plan.shape, r)
    for part in plan.parts:
        u = plan.buffer[:prod(part.shape) + 1]
        u.fill(0)
        grid = u[:-1].reshape(*part.shape, r)
        for window, d_t in part.adds:
            np.dot(field, d_t, out=term)
            grid[window] += shaped
        for rows in part.rows:
            np.take(u, rows, axis=0, out=term, mode="clip")
            out[:-1] += term
    return out


@pytest.fixture(scope="session")
def line():
    """1D integer lattice with trivial point group and its doubling."""
    t = catalog_triple("p1", 1)
    dil = check_admissible(Mat.from_rows([[2]]), t)
    return t, dil


@pytest.fixture(scope="session")
def pm():
    """2D pm triple (reflection across the x-axis) with A = 2I."""
    t = catalog_triple("pm", 2)
    dil = check_admissible(Mat.from_rows([[2, 0], [0, 2]]), t)
    return t, dil


@pytest.fixture(scope="session")
def p1m():
    """1D point-symmetric triple with A = 2."""
    t = catalog_triple("p1m", 1)
    dil = check_admissible(Mat.from_rows([[2]]), t)
    return t, dil


def _scalar(triple, entries):
    return Mask.scalar(triple, entries)


@pytest.fixture(scope="session")
def haar(line):
    t, _ = line
    return _scalar(t, {(0,): 1, (1,): 1})


@pytest.fixture(scope="session")
def hat(line):
    t, _ = line
    h = Fraction(1, 2)
    return _scalar(t, {(-1,): h, (0,): 1, (1,): h})


@pytest.fixture(scope="session")
def bspline4(line):
    t, _ = line
    return _scalar(t, {(-2,): Fraction(1, 8), (-1,): Fraction(1, 2),
                       (0,): Fraction(3, 4), (1,): Fraction(1, 2),
                       (2,): Fraction(1, 8)})


@pytest.fixture(scope="session")
def ones3(line):
    """Unnormalized mask whose coefficient sum is 3, not m = 2."""
    t, _ = line
    return _scalar(t, {(0,): 1, (1,): 1, (2,): 1})


@pytest.fixture(scope="session")
def sym_hat(p1m):
    """Hat-like mask split evenly over both point parts of p1m."""
    t, _ = p1m
    q = Fraction(1, 4)
    entries = {}
    for g in (0, 1):
        for k, c in ((-1, q), (0, Fraction(1, 2)), (1, q)):
            entries[(g, (k,))] = c
    return _scalar(t, entries)


@pytest.fixture()
def rng():
    return random.Random(90125)
