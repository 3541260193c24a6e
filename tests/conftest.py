"""Shared fixtures: catalog triples, dilations, and the classic 1D masks;
and the one reference of each exact kernel, written from its definition:
the elimination (:func:`_rref_reference`, :func:`_reference_kernel`,
:func:`_leibniz_det`), the constraint rows and the scan
(:func:`_assemble_reference`, :func:`_reference_scan`, the per-element
moments :func:`_fraction_moments` and the row form
:func:`coset_differences`), the sum-rule test
(:func:`_sum_rule_reference`) and the scalar face
(:func:`_reference_reading`, :func:`assert_stored_face`).  No reference
calls the code it checks (``tests/test_design.py`` reads them)."""

import random
from dataclasses import dataclass, is_dataclass, replace
from fractions import Fraction
from itertools import permutations
from math import lcm, prod

import numpy as np
import pytest

from crystacc import accuracy, cascade
from crystacc.crystal import catalog_triple, check_admissible, inverse
from crystacc.linalg import QC, Mat, det, kernel_basis, kron, read_float
from crystacc.mask import Mask
from crystacc.multiidx import (VCollection, _acted_rows, build_A_s,
                               build_Q_st, build_Q_tilde, dim_degree,
                               enumerate_degree, eval_X)


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


# -- the elimination: rref, kernel and determinant ---------------------------

def _rref_reference(rows, n_cols):
    """Reference rref: textbook Gauss-Jordan on QC values, dividing each
    pivot row by its pivot and clearing the column with fractions.
    Returns (the rref's rows, zero rows included; the pivot columns; the
    product of the pivots and the row swaps' signs, the determinant of a
    square input with a pivot in every column)."""
    a = [list(row) for row in rows]
    pivots, sign, r = [], QC(1), 0
    for col in range(n_cols):
        pivot = next((i for i in range(r, len(a)) if a[i][col] != QC(0)),
                     None)
        if pivot is None:
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
            sign = -sign
        p = a[r][col]
        sign = sign * p
        a[r] = [x / p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col] != QC(0):
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
    return a, pivots, sign


def _reference_kernel(rows, n_cols):
    """The rref kernel basis of QC rows, from :func:`_rref_reference`:
    one dense vector per free column f, in order, 1 at f and minus the
    rref's column f at the pivots."""
    rref, pivots, _ = _rref_reference(rows, n_cols)
    basis = []
    for f in range(n_cols):
        if f in pivots:
            continue
        v = [QC(0)] * n_cols
        v[f] = QC(1)
        for row, col in zip(rref, pivots):
            v[col] = -row[f]
        basis.append(v)
    return basis


def _leibniz_det(rows) -> QC:
    """Reference determinant of square rows of exact values: the sum over
    permutations, no elimination."""
    n = len(rows)
    total = QC(0)
    for perm in permutations(range(n)):
        odd = sum(perm[i] > perm[j]
                  for i in range(n) for j in range(i + 1, n)) % 2
        term = QC(-1 if odd else 1)
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term
    return total


def positive_multiple(v, ref):
    """Whether the sparse vector v is a positive rational multiple of the
    non-zero sparse vector ref (entries ints, Fractions or QCs)."""
    if set(v) != set(ref):
        return False
    j = next(iter(ref))
    ratio = qc_face(v[j]) / qc_face(ref[j])
    return (ratio.im == 0 and ratio.re > 0
            and all(v[i] == x * ratio.re for i, x in ref.items()))


# -- the scalar face: values as Mat stores them, and the literal reader ------

def qc_face(x):
    """An exact value as a QC, real or not."""
    return x if isinstance(x, QC) else QC(x)


def stored_value(x):
    """An exact value in the form Mat stores it: an int where it is
    integral, a Fraction where it is real, else a QC."""
    x = qc_face(x)
    if x.im != 0:
        return x
    return x.re.numerator if x.re.denominator == 1 else x.re


def assert_stored_face(got, want):
    """got equals the reference value want and is of the type Mat stores
    it as (:func:`stored_value`): an int or a Fraction where it is real, a
    QC with a non-zero imaginary part otherwise."""
    assert got == want and type(got) is type(stored_value(want)), (got, want)


def _stores_plain_values(m: Mat) -> bool:
    """Every stored entry is an int where it is integral, a Fraction
    where it is real, and a QC only where its imaginary part is
    non-zero."""
    return all(type(x) is int
               or (type(x) is Fraction and x.denominator != 1)
               or (type(x) is QC and x.im != 0)
               for row in m.plain() for x in row)


def _reference_reading(x):
    """A scalar literal read from its definition on Fractions and QCs: an
    int, Fraction or QC as it is; a complex, an [re, im] list or tuple, or
    one real part (float, int, Fraction or "p/q" string) read part by part,
    a float part by ``read_float``.  Returns (the value as Mat stores it,
    |read - given| / |given| where a part was a float and the value is not
    zero, else None), or the text of the refusal: of the first boolean,
    bad string or part that is no number, in part order, of a pair that is
    not two parts, or of a part that is not finite."""
    if type(x) is int or isinstance(x, (Fraction, QC)):
        return stored_value(x), None
    if isinstance(x, complex):
        parts = [x.real, x.imag or 0]
    elif isinstance(x, (list, tuple)):
        if len(x) != 2 or any(isinstance(p, (list, tuple)) for p in x):
            return f"cannot read coefficient {x!r}"
        parts = list(x)
    else:
        parts = [x, 0]
    given = []
    for p in parts:
        if isinstance(p, bool):
            return "boolean is not a coefficient"
        if not isinstance(p, (float, int, Fraction, str)):
            return f"cannot read coefficient {p!r}"
        try:
            given.append(p if isinstance(p, float) else Fraction(p))
        except (ValueError, ZeroDivisionError) as exc:
            return f"bad rational {p!r}: {exc}"
    try:
        read = [read_float(p) if isinstance(p, float) else p for p in given]
    except ValueError as exc:
        return f"bad coefficient: {exc}"
    change = None
    if any(isinstance(p, float) for p in given):
        exact = [Fraction(p) for p in given]
        size = sum(p * p for p in exact)
        if size:
            change = float(sum((a - b) ** 2 for a, b in zip(read, exact))
                           / size) ** 0.5
    return stored_value(QC(*read)), change


def stored_report(rep):
    """A SufficientReport of :func:`_sum_rule_reference` with its
    sum_total, beta and per_coset values in the form Mat stores them."""
    return replace(
        rep, sum_total=stored_value(rep.sum_total),
        beta={key: stored_value(x) for key, x in rep.beta.items()},
        per_coset={key: [stored_value(x) for x in xs]
                   for key, xs in rep.per_coset.items()})


# -- the constraint rows, the scan and the moments ----------------------------

def _common_denominator(mask):
    """D: the lcm of the denominators of the real and imaginary parts of
    every coefficient of the mask."""
    return lcm(*(q.denominator for _, blk in mask.items()
                 for i in range(blk.rows) for j in range(blk.cols)
                 for x in (qc_face(blk.entry(i, j)),) for q in (x.re, x.im)))


def _assemble_reference(mask, dilation, s_max, s_min=0):
    """Dense stacked constraint matrix of the degrees s_min..s_max over
    vec(v_[0]), ..., vec(v_[s_max]): the block in row (s, i) and column t
    is delta_{t,s} I minus the sum over the support terms whose inverse
    lies in digit coset i of kron(Qt_[s,t] A_[t], d^T), built with dense
    zero blocks and one subtraction per entry."""
    d, r = mask.triple.d, mask.r
    A = dilation.A
    widths = [dim_degree(d, t) * r for t in range(s_max + 1)]
    coset_of = {alpha: dilation.coset_index(inverse(alpha))
                for alpha, _ in mask.items()}
    rows = []
    for s in range(s_min, s_max + 1):
        ds = dim_degree(d, s)
        for i in range(dilation.m):
            blocks = []
            for t in range(s_max + 1):
                if t > s:
                    blocks.append(Mat.zeros(ds * r, widths[t]))
                    continue
                acc = (Mat.identity(ds * r) if t == s
                       else Mat.zeros(ds * r, widths[t]))
                for alpha, d_blk in mask.items():
                    if coset_of[alpha] != i:
                        continue
                    lead = build_Q_tilde(alpha, s, t) @ build_A_s(A, t)
                    acc = acc - kron(lead, d_blk.transpose())
                blocks.append(acc)
            rows.append(Mat.hstack(blocks))
    return Mat.vstack(rows)


def _reference_block_row(mask, dilation, s):
    """D times block row s of :func:`_assemble_reference`, its m coset
    blocks stacked, as sparse rows of the non-zero entries (an empty one
    for a zero row), D the common denominator of the coefficients."""
    block = _assemble_reference(mask, dilation, s, s).scale(
        _common_denominator(mask))
    return [{j: x for j in range(block.cols)
             if (x := block.entry(i, j)) != 0}
            for i in range(block.rows)]


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


def _reference_scan(mask, dilation, s_top):
    """The scan of max_accuracy from its definition: the rref kernel basis
    of the whole dense reference system at every degree s <= s_top, and
    the first basis column whose first r entries (v_[0]) meet the gate
    against fhat0, scaled so its first non-zero degree-0 entry is 1.
    Returns the kernels and the certificate fields
    (p, witness, gate, kernel_dims, first_failing_degree)."""
    d, r = mask.triple.d, mask.r
    fh = accuracy.fhat0(mask, dilation.m).vector
    if fh is None:
        return [], (0, None, None, {}, 0)
    kernels, dims, chosen, failing, rows = [], {}, None, None, []
    for s in range(s_top + 1):
        new = _assemble_reference(mask, dilation, s, s)
        rows = [Mat.hstack([b, Mat.zeros(b.rows, new.cols - b.cols)])
                for b in rows] + [new]
        basis = kernel_basis(Mat.vstack(rows))
        kernels.append(basis)
        dims[s] = len(basis)
        pick = next((b for b in basis if sum(
            (b.entry(j, 0) * fh.entry(j, 0) for j in range(r)),
            QC(0)) != 0), None)
        if pick is None:
            failing = s
            break
        entries = [pick.entry(i, 0) for i in range(pick.rows)]
        blocks, off = [], 0
        for t in range(s + 1):
            dt = dim_degree(d, t)
            blocks.append(Mat.from_rows(
                [entries[off + a * r:off + (a + 1) * r] for a in range(dt)]))
            off += dt * r
        chosen = VCollection(d, tuple(blocks))
    if chosen is None:
        return kernels, (0, None, None, dims, failing)
    lead = next(x for j in range(r)
                if (x := chosen.block(0).entry(0, j)) != 0)
    witness = chosen.scale(Fraction(1) / lead)
    gate = sum((witness.block(0).entry(0, j) * fh.entry(j, 0)
                for j in range(r)), QC(0))
    return kernels, (witness.p, witness, gate, dims, failing)


def _fraction_moments(mask, dilation, p_max):
    """The moment table from its definition: (i, b) -> {mu: {(a, c): N_mu}}
    for every |mu| < p_max, N_mu the sum of (-l)^mu d^T over the support
    elements (b, l) whose inverse lies in digit coset i, entries Fractions,
    or QCs where not real, one multiply-add per element and entry."""
    d, r = mask.triple.d, mask.r
    mus = [mu for s in range(p_max) for mu in enumerate_degree(d, s)]
    table = {}
    for e, blk in mask.items():
        key = (dilation.coset_index(inverse(e)), e.g)
        moments = table.setdefault(key, {mu: {} for mu in mus})
        neg = [-x for x in e.true_translation()]
        d_t = [(a, c, blk.entry(c, a)) for c in range(r) for a in range(r)
               if blk.entry(c, a) != 0]
        for mu in mus:
            w = prod(y ** n for y, n in zip(neg, mu))
            if w == 0:
                continue
            n_mu = moments[mu]
            for a, c, x in d_t:
                n_mu[(a, c)] = n_mu.get((a, c), 0) + w * x
    return table


# -- the sum-rule test --------------------------------------------------------

def _condition_d_reference(mask, dilation, v, s, i):
    """The defect of the degree-s constraint on digit coset i: v_[s] minus
    the sum, over the support elements whose inverse lies in coset i, of
    Qt_[s,t](alpha) (A_[t] v_[t]) d_alpha, with Qt a dense block."""
    acc = v.block(s)
    av = [build_A_s(dilation.A, t) @ v.block(t) for t in range(s + 1)]
    for alpha, d_blk in mask.items():
        if dilation.coset_index(inverse(alpha)) != i:
            continue
        for t in range(s + 1):
            acc = acc - build_Q_tilde(alpha, s, t) @ av[t] @ d_blk
    return acc


def _reference_sums(mask, triple, dilation, p):
    """The per-coset sums and the moment matrices M_[s,t] of the sum-rule
    test of a multiplicity-1 mask, element by element: per_coset[(b,
    alpha)][i] sums X_[s](l)[alpha] c over the support elements whose
    inverse sigma = (b, l) lies in digit coset i, c the coefficient, and
    M_[s,t] sums c Q_[s,t](l) (b^{-1})_[t] over the support elements
    (b, l) whose inverse lies in coset 0."""
    d, m = triple.d, dilation.m
    per_coset = {(b, a): [QC(0)] * m for b in range(triple.order)
                 for s in range(p) for a in enumerate_degree(d, s)}
    mats = {(s, t): Mat.zeros(dim_degree(d, s), dim_degree(d, t))
            for s in range(p) for t in range(s + 1)}
    for e, blk in mask.items():
        sigma, c = inverse(e), blk.entry(0, 0)
        i = dilation.coset_index(sigma)
        for s in range(p):
            x_s = eval_X(sigma.true_translation(), s)
            for j, a in enumerate(enumerate_degree(d, s)):
                per_coset[(sigma.g, a)][i] += x_s.entry(j, 0) * c
        if i == 0:
            b_inv = triple.group[triple.inverse_table[e.g]]
            for s, t in mats:
                mats[(s, t)] += build_Q_st(e.true_translation(), s, t) \
                    .scale(c) @ build_A_s(b_inv, t)
    return per_coset, mats


def _sum_rule_reference(mask, triple, dilation, p):
    """sufficient_check from its definition, on Fractions, QCs and Mats:
    the sum rule (the coefficients sum to m), the per-coset sums and
    M_[s,t] of :func:`_reference_sums` (beta where every coset's sum
    agrees), the alpha = 0 sums over the cosets of the translations, the
    screen det(I - M_[s,s] A_[s]) != 0 for 1 <= s < p, and the chain
    v_[0] = 1, v_[s] = (I - M_[s,s] A_[s])^{-1} sum_{t<s} M_[s,t] A_[t]
    v_[t] by Mat.inverse, checked by :func:`_condition_d_reference`.  The
    report's scalars are the sums as computed, QCs and Fractions
    (:func:`stored_report` maps them)."""
    d, m, A = triple.d, dilation.m, dilation.A
    notes = ["degree-s eigenvalue screen runs over 1 <= s < p; at s = 0 "
             "the screened matrix equals the scalar 1 whenever the sum "
             "rule holds"]
    total = sum((blk.entry(0, 0) for _, blk in mask.items()), QC(0))
    sum_rule_ok = total == m
    per_coset, mats = _reference_sums(mask, triple, dilation, p)
    beta = {key: xs[0] for key, xs in per_coset.items() if len(set(xs)) == 1}
    moments_ok = len(beta) == len(per_coset)
    if not moments_ok:
        notes.append("per-coset moments disagree; see per_coset for the "
                     "offending sums")
    beta0_consistent = True
    if moments_ok and sum_rule_ok:
        direct = {}
        for e, blk in mask.items():
            key = (triple.inverse_table[e.g], dilation.translation_coset(e.k))
            direct[key] = direct.get(key, 0) + blk.entry(0, 0)
        beta0_consistent = all(direct.get((b, i), 0) == beta[(b, (0,) * d)]
                               for b in range(triple.order)
                               for i in range(m))
        if not beta0_consistent:
            notes.append("alpha = 0 moments disagree between the two "
                         "coefficient indexings; the coset permutation "
                         "argument failed for this input")
    screened = {s: Mat.identity(dim_degree(d, s))
                - mats[(s, s)] @ build_A_s(A, s) for s in range(1, p)}
    eigen_flags = ({s: det(lhs) != 0 for s, lhs in screened.items()}
                   if moments_ok else {})
    eigen_ok = all(eigen_flags.values())
    v_chain = chain_zero = None
    conditions_ok = (sum_rule_ok and moments_ok and eigen_ok
                     and beta0_consistent)
    if conditions_ok:
        blocks = [Mat.identity(1)]
        for s, lhs in screened.items():
            rhs = Mat.zeros(lhs.rows, 1)
            for t in range(s):
                rhs = rhs + mats[(s, t)] @ build_A_s(A, t) @ blocks[t]
            blocks.append(lhs.inverse() @ rhs)
        v_chain = VCollection(d, tuple(blocks))
        chain_zero = all(
            _condition_d_reference(mask, dilation, v_chain, s, i).is_zero()
            for s in range(p) for i in range(m))
        if not chain_zero:
            notes.append("the recursive witness fails the per-coset "
                         "conditions; this indicates an internal "
                         "inconsistency")
    return accuracy.SufficientReport(
        p=p, sum_total=total, sum_rule_ok=sum_rule_ok, beta=beta,
        per_coset=per_coset, moments_ok=moments_ok, eigen_flags=eigen_flags,
        eigen_ok=eigen_ok, beta0_consistent=beta0_consistent,
        v_chain=v_chain, chain_residual_zero=chain_zero,
        passed=bool(conditions_ok and chain_zero), notes=tuple(notes))


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
