"""Solvers for the accuracy of refinable functions over crystal groups.

The order of polynomial reproduction is decided by a finite homogeneous linear
system: one block of constraints per polynomial degree and per digit coset of
the dilation, in the unknown coefficient vectors v_[0], ..., v_[s].
:func:`max_accuracy` solves the stacked system exactly and certifies the
largest degree with a usable witness; the system is block triangular in the
degree, so each degree's block row is built and eliminated once, against the
kernel carried from the degrees below.  Both solvers read one table of
moments, :func:`_moments`, scaled by the common denominator D of the mask's
coefficients, which keeps each moment once: digit coset 0's, and every other
coset's non-zero differences from them, as the sum rules ask those to vanish
below the accuracy.  A block row is one pass over that table
(:func:`_block_row`): coset 0's block, then the non-empty rows of each other
coset's difference from it, which have the row space of the m stacked coset
blocks, and below the accuracy coset 0's block alone.
:func:`sufficient_check` evaluates the cheaper sum-rule criterion on the same
table and block rows and builds its explicit witness chain, one plain
elimination per degree.  The table is kept with the mask, one per dilation,
built for the largest degree asked for and read as it is for a smaller one,
so a sum-rule test after a scan of the same mask and dilation builds nothing;
its leads (b^{-1})_[t] A_[t] are built when a block row first reads them.
On an integral lattice with real coefficients the table, the constraint rows,
their reduction and the elimination with its carried kernel, in coprime ints,
run on Python ints (the fraction-free idea of Bareiss, Math. Comp. 22, 1968),
and they fall back to Fractions or QCs by themselves where the data are not
integral.
:func:`verify_equivalence` re-derives the witness relations in three
independent forms, element by element, which is the main guard against index
bookkeeping bugs.  Its per-coset form, :func:`condition_d_residuals`, is also
the witness guard of :func:`sufficient_check`: one walk of the support
(:func:`_residual_walk`) gives the residuals of every coset at every degree
asked for, on ints over the witness's and the mask's common denominators where
the data are integral, and never reads the moment table it checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import lcm, prod
from operator import getitem

from .crystal import CrystalTriple, Dilation, compose
# kron and build_Q_tilde are unused here: perfbench/tracing.py wraps them
# by name in this module
from .linalg import (Mat, SparseRows, _det_inverse, _parts, _rref, _stored,
                     kernel_basis, kron, solve_affine)
from .mask import Mask, MaskShapeError
from .multiidx import (VCollection, _acted_rows, _shift_pattern, _shift_rows,
                       _y_rows, build_A_s, build_Q_tilde, dim_degree,
                       enumerate_degree)


@dataclass
class Fhat0Result:
    """Zero-frequency value (the integral) of the refinable function, up
    to scale: a fixed vector of T = (1/m) sum of the mask blocks.

    status is 'ok' when the eigenvalue-1 eigenspace is one-dimensional and
    vector spans it; 'empty' when 1 is not an eigenvalue (the integral
    must vanish); 'indeterminate' when the eigenspace has dimension two or
    more and 1 is semisimple, vector then being the projection of the
    all-ones vector onto the eigenspace along the range of T - I; and
    'defective' when the eigenspace has dimension two or more but 1 is not
    semisimple, with no vector.  dimension is the eigenspace's dimension.
    """

    vector: Mat | None
    status: str
    dimension: int


@dataclass
class AccuracyCertificate:
    """Outcome of max_accuracy: the accuracy p, a witness coefficient
    collection for degrees 0..p-1 (None when p = 0), the solver used, the
    gate value v_[0] . fhat(0) of the witness, and solver diagnostics
    (per-degree kernel dimensions, first failing degree, direction label,
    and for a mask read from floats the largest relative change of a
    coefficient).
    """

    p: int
    witness: VCollection | None
    method: str
    gate: object
    diagnostics: dict = field(default_factory=dict)


@dataclass
class SufficientReport:
    """Audit trail of the sum-rule sufficiency test at target accuracy p.

    sum_total is the plain coefficient sum (must equal the digit count m);
    beta maps (point index b, multi-index alpha) to the common per-coset
    moment, with the raw per-coset sums kept for audit (per_coset[key][i]
    sums over the support elements (g, k) whose inverse lies in digit
    coset i, that is the coset of the lattice vector -k,
    ``Dilation.translation_coset``);
    eigen_flags[s] is True when 1 is not an eigenvalue of the degree-s
    obstruction matrix; v_chain is the recursively built witness when
    everything passes.
    """

    p: int
    sum_total: object
    sum_rule_ok: bool
    beta: dict
    per_coset: dict
    moments_ok: bool
    eigen_flags: dict
    eigen_ok: bool
    beta0_consistent: bool
    v_chain: VCollection | None
    chain_residual_zero: bool | None
    passed: bool
    notes: tuple


@dataclass
class EquivalenceReport:
    """Residuals of the three equivalent witness relations: the per-coset
    form ('d'), the two-scale relation at sampled group elements ('b') and
    at the digits ('c').  details maps (condition, degree, where) to the
    largest entry of that residual."""

    p: int
    max_residual_d: float
    max_residual_b: float
    max_residual_c: float
    passed: bool
    details: dict


def fhat0(mask: Mask, m: int) -> Fhat0Result:
    """Integral direction forced by the refinement equation, exactly.

    Integrating both sides shows the vector of integrals is fixed by
    T = (1/m) sum_gamma d_gamma.  A one-dimensional eigenspace determines
    the direction up to scale; no eigenvalue 1 forces integral zero.  A
    larger eigenspace ker N, N = T - I, does not; there the direction is
    the projection K (W K)^{-1} W 1 of the all-ones vector onto ker N along
    range N, with the columns of K spanning ker N and the rows of W
    spanning ker N^T.  T fixes it, so it is exactly the integral of the
    cascade seeded with it, whatever the rest of the spectrum, and it is
    the limit of T^n 1 (the integral of the cascade seeded with the flat
    vector) wherever that limit exists.  The projection exists exactly
    when W K is invertible, that is when 1 is semisimple (Cabrelli, Heil
    and Molter, J. Approx. Theory 95, 1998).

    N is taken as (m D)(T - I) = D sum_gamma d_gamma - m D I, summed
    entry by entry from the mask's plain view (:meth:`Mask.plain`), D its
    common denominator: on rational real data every entry is a Python int.
    A non-zero scale changes neither ker N nor ker N^T, so the rref bases
    K and W, the vector, the status and the dimension are those of T - I.
    Whether W K is singular, and its inverse, come from one elimination of
    its stored rows (:func:`~crystacc.linalg._det_inverse`).
    """
    view, r = mask.plain(), mask.r
    total = [[0] * r for _ in range(r)]
    for _, entries in view.entries:
        for i, j, x in entries:
            total[i][j] += x
    for i in range(r):
        total[i][i] -= m * view.scale
    n_op = Mat.from_rows(total)
    basis = kernel_basis(n_op)
    if not basis:
        return Fhat0Result(None, "empty", 0)
    if len(basis) == 1:
        return Fhat0Result(basis[0], "ok", 1)
    k = Mat.hstack(basis)
    w = Mat.hstack(kernel_basis(n_op.transpose())).transpose()
    inv = _det_inverse((w @ k).plain())[1]
    if inv is None:
        return Fhat0Result(None, "defective", len(basis))
    ones = Mat.column([1] * mask.r)
    return Fhat0Result(k @ Mat.from_rows(inv) @ (w @ ones), "indeterminate",
                       len(basis))


_NO_GATE = {
    "empty": ("the averaged coefficient sum has no eigenvalue 1, so the "
              "integral vanishes and the gate cannot be met"),
    "defective": ("the eigenvalue 1 of the averaged coefficient sum is "
                  "defective, so no integral direction is determined and "
                  "the gate cannot be met"),
}


def _exact(x, scale: int):
    """The plain value x divided by scale, in the stored form of a
    :class:`Mat` entry."""
    return _stored(x * Fraction(1, scale))


def _residual_walk(mask: Mask, dilation: Dilation, v: VCollection,
                   degrees) -> tuple[int, dict]:
    """(S, {s: the rows of S times the degree-s residual of every digit
    coset}) for the given degrees, from one walk of the support.

    The residual of coset i is v_[s] minus the coset-i part of its
    two-scale expansion; a witness of accuracy p has every one zero for
    every s < p.  Only group elements whose inverse carries a mask
    coefficient contribute, so the sums are finite.  A support element
    (b, l), l = R k, adds to the coset of its inverse, that of the lattice
    vector -k, the term sum_{t<=s} Qt_[s,t](b, l) A_[t] v_[t] d_(b,l)
    = sum_{t<=s} Q_[s,t](l) w_{b,t} d_(b,l), with
    w_{b,t} = (b^{-1} A)_[t] v_[t] formed once per point part b
    (:func:`~crystacc.multiidx._acted_rows`).  Q_[s,t](l) is applied as
    the polynomial shift (:func:`~crystacc.multiidx._shift_rows`): row
    alpha gathers sum_beta binom(alpha, beta) (-l)^(alpha-beta)
    w_{b,t}[beta].  Each element's coset, entries and acted rows are
    looked up once for every degree.  v is read over the lcm L of its
    denominators, the mask through its plain view over D: S = L D, and
    the sums run on ints where the data are integral.
    """
    top = max(degrees)
    view = mask.plain()
    blocks = v.blocks[:top + 1]
    lv = lcm(*(q.denominator for b in blocks for row in b.plain()
               for x in row for q in _parts(x)))
    vs = [b.scale(lv).plain() for b in blocks]
    out = {s: [[[x * view.scale for x in row] for row in vs[s]]
               for _ in range(dilation.m)] for s in degrees}
    w = _acted_rows(dilation.inverse_times_A, vs)
    for e, entries in view.entries:
        i = dilation.translation_coset([-x for x in e.k])
        neg = [-x for x in e.true_translation()]
        acted = w(e.g)
        for s in degrees:
            for row, u in zip(out[s][i], _shift_rows(neg, s, acted)):
                for a, c, y in entries:
                    if u[a] != 0:
                        row[c] -= u[a] * y
    return lv * view.scale, out


def _residual_mats(scale: int, cosets: list, r: int) -> list[Mat]:
    """One degree's rows of :func:`_residual_walk`, unscaled, as Mats."""
    return [Mat.from_rows(rows, cols=r).scale(Fraction(1, scale))
            for rows in cosets]


def condition_d_residuals(mask: Mask, dilation: Dilation, v: VCollection,
                          s: int) -> list[Mat]:
    """Defects of the degree-s reproduction constraint on every digit
    coset, exact, from one walk of the support (:func:`_residual_walk`),
    which never reads the moment table it checks."""
    scale, out = _residual_walk(mask, dilation, v, (s,))
    return _residual_mats(scale, out[s], mask.r)


@dataclass
class _MomentTable:
    """The degree bound ``p_max``, the common denominator D (``scale``),
    the D-scaled ``moments`` of :func:`_moments` and the ``leads`` that
    :func:`_block_row` has read."""

    p_max: int
    scale: int
    moments: dict
    leads: dict


def _moments(mask: Mask, dilation: Dilation, p_max: int) -> _MomentTable:
    """The mask's moments below degree p_max, by digit coset and point part.

    Let N_mu(i, b) = sum (-l)^mu d_(b,l)^T over the support elements (b, l)
    whose inverse lies in digit coset i, l the true translation R k, for
    the |mu| < p_max reached.  These are the per-coset sums of the sum rules
    (Jia, Math. Comp. 67, 1998; Cabrelli, Heil and Molter, J. Approx.
    Theory 95, 1998), which ask that below the accuracy every coset's
    agree with coset 0's.  ``moments`` keeps each once: (0, b) maps to
    {mu: N_mu(0, b) D}, and (i, b), 0 < i < m, to the differences
    {mu: (N_mu(i, b) - N_mu(0, b)) D}, D the common denominator of the
    mask's plain view (:meth:`Mask.plain`), whose D-scaled non-zero entries
    are read as they are.  Each N_mu is kept as the dict (a, c) -> entry of
    its non-zero entries; a zero one is left out, so a missing one is zero,
    and a key is kept only where one is left: where the coset moments agree,
    the keys are coset 0's alone.  The inverse (b^{-1}, -b k) lies in the
    coset of -k, and the monomials are products of powers of -l's
    coordinates.  A translation coordinate is read as an int where it is
    one, so the entries are Python ints on an integral lattice and fall back
    to Fractions (R not integral) or QCs (complex masks) by themselves.  The
    coset, R k and the non-zero monomials are read once per lattice point,
    for every b on it, and each (i, b, mu) is summed in one dense list of
    r r entries, index a r + c, once per table.  ``leads`` maps (b, t) to
    the rows of (b^{-1})_[t] A_[t] = (b^{-1} A)_[t], each a list of
    (column, non-zero entry) pairs; it starts empty, and a lead is built
    when :func:`_block_row` first reads it, so a scan that stops at its
    first failing degree builds none above it.

    The table is kept with the mask, one per dilation, and built for the
    largest p_max asked for: a request for a smaller p_max gets the kept table
    itself, as every reader indexes only the degrees it needs.
    """
    d, r = mask.triple.d, mask.r
    kept = mask._moment_tables.get(dilation)
    if kept is not None and kept.p_max >= p_max:
        return kept
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
    parts = dict.fromkeys(b for _, b in dense)
    zero, moments = [0] * (r * r), {}
    for i in range(dilation.m):
        for b in parts:
            ours = dense.get((i, b), {})
            base = dense.get((0, b), {}) if i else {}
            delta = {}
            for mu in mus:
                n_i, n_0 = ours.get(mu, zero), base.get(mu, zero)
                if n_i != n_0:
                    delta[mu] = {pairs[n]: x - y for n, (x, y)
                                 in enumerate(zip(n_i, n_0)) if x != y}
            if delta:
                moments[(i, b)] = delta
    table = _MomentTable(p_max, view.scale, moments, {})
    mask._moment_tables[dilation] = table
    return table


def _block_row(mask: Mask, dilation: Dilation, table: _MomentTable,
               s: int) -> list[dict]:
    """Block row s of the constraint system, scaled by the table's D, as
    sparse rows: one dict (column -> non-zero exact value: an int on
    integral data, else a Fraction or a QC) per row.  It is the block B_0
    of digit coset 0, then, for each coset i > 0 in turn, the non-empty
    rows of B_i - B_0, read in one pass over the table's moments, less
    any row equal to one already emitted (B_0 is kept whole, the square
    block that :func:`sufficient_check` reads).  [B_0; B_1; ...] and
    [B_0; B_1 - B_0; ...] have one row space, so one kernel, and where the
    coset moments agree, as the sum rules ask below the accuracy, the
    second is B_0 alone.  On the lifted p4m hat at degree 2 the 32
    difference rows are copies of one row: 25 rows are built, not 56.

    The unknowns are vec(v_[0]), vec(v_[1]), ..., row-major within each
    block.  A product B v_[t] C acts on vec(v_[t]) as kron(B, C^T), so the
    block B_i in row (s, i) and column t <= s is D times
    delta_{t,s} I - sum over coset-i support terms of
    kron(Qt_[s,t] A_[t], d^T); the blocks right of column s are zero.
    A row scale leaves the kernel as it is.  As
    Qt_[s,t](b, l) = Q_[s,t](l) (b^{-1})_[t], the terms of one point
    part b sum to its moments N (:func:`_moments`): entry
    ((alpha, a), (beta', c)) loses sum_beta binom(alpha, beta)
    B[beta, beta'] N_(alpha-beta)[a, c] D, B = (b^{-1})_[t] A_[t] the
    table's lead.  B_i - B_0 is built the same way from coset i's moment
    differences, without the diagonal D I, which cancels.  The
    (beta, binom(alpha, beta), alpha - beta) of each row alpha are the
    polynomial shift's own (``multiidx._shift_pattern``), and an empty
    N_(alpha-beta) adds nothing.  Column t starts at r (d_0 + ... + d_{t-1})
    whatever the highest degree, so block row s serves every system of
    degree s or more.
    """
    d, r = mask.triple.d, mask.r
    starts = [0]
    for t in range(s):
        starts.append(starts[-1] + dim_degree(d, t) * r)
    patterns = [_shift_pattern(d, s, t) for t in range(s + 1)]
    size = dim_degree(d, s) * r
    rows = {0: [{starts[s] + k: table.scale} for k in range(size)]}
    for (i, b), moment in table.moments.items():
        block = rows.get(i)
        if block is None:
            block = rows[i] = [{} for _ in range(size)]
        for t, pattern in enumerate(patterns):
            leads = table.leads.get((b, t))
            if leads is None:
                # (b^{-1})_[t] A_[t] = (b^{-1} A)_[t], as X_[t] is
                # multiplicative
                leads = table.leads[(b, t)] = [
                    [(k, x) for k, x in enumerate(row) if x] for row in
                    build_A_s(dilation.inverse_times_A[b], t).plain()]
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
    out, seen = rows.pop(0), None
    for row in (row for block in rows.values() for row in block if row):
        if seen is None:
            seen = {frozenset(x.items()) for x in out}
        key = frozenset(row.items())
        if key not in seen:
            seen.add(key)
            out.append(row)
    return out


def _unpack_witness(vector: dict, d: int, r: int, s_max: int) -> VCollection:
    """The coefficient collection of a sparse kernel vector of the stacked
    system: vec(v_[t]) for t = 0..s_max, row-major within each block."""
    blocks, start = [], 0
    for t in range(s_max + 1):
        dt = dim_degree(d, t)
        blocks.append(Mat.from_rows([[vector.get(start + a * r + c, 0)
                                      for c in range(r)] for a in range(dt)],
                                    cols=r))
        start += dt * r
    return VCollection(d, tuple(blocks))


def max_accuracy(mask: Mask, triple: CrystalTriple, dilation: Dilation,
                 p_max: int) -> AccuracyCertificate:
    """Largest accuracy p <= p_max certified by the per-coset conditions.

    All degrees 0..s and all digit cosets are stacked into one homogeneous
    system, block triangular in the degree.  Block row s is built once, as
    sparse rows scaled by the moment table's common denominator D (a row scale
    leaves the kernel as it is): coset 0's block, then the non-empty rows of
    each other coset's difference from it (:func:`_block_row`), which span the
    rows of the m stacked coset blocks, so the kernel, and are coset 0's block
    alone where the coset moments agree.  It is reduced to [K_(s,<s) B | K_ss]
    with B the kernel basis of the rows below it, and solved exactly by
    :func:`solve_affine`, whose kernel vectors are positive multiples of the
    stacked rows' rref kernel vectors, in order, coprime ints on real data.
    Rows, basis and kernel stay plain sparse values (:class:`SparseRows`), so
    on integral data the reduction, the elimination and the lift run on Python
    ints.  Candidate accuracy s+1 is feasible when a kernel vector meets the
    gate v_[0] . fhat(0) != 0, decided exactly on the vector's degree-0 entries
    against the vector of :func:`fhat0`; the first one met is the witness, the
    one vector wrapped in Mats.  Feasibility is monotone in s, so the scan
    stops at the first failure.  The witness is scaled so its first nonzero
    degree-0 entry is 1, whatever the scale of its kernel vector.  When fhat(0)
    must vanish (status 'empty') or is not determined (status 'defective'), the
    gate cannot be met and p is 0.

    The certificate proves polynomial reproduction (the sufficient direction);
    it is also maximal whenever the translates of the refinable function are
    independent.
    """
    if p_max < 1:
        raise ValueError("p_max must be at least 1")
    if triple is not mask.triple:
        raise ValueError("mask belongs to a different triple")
    if dilation.triple is not triple:
        raise ValueError("dilation belongs to a different triple")
    d, r = triple.d, mask.r
    fh = fhat0(mask, dilation.m)
    diagnostics = {
        "kernel_dims": {},
        "first_failing_degree": None,
        "direction": "sufficient direction",
        "fhat0_status": fh.status,
    }
    if mask.float_change is not None:
        diagnostics["float_max_relative_change"] = mask.float_change
    if fh.vector is None:
        diagnostics["first_failing_degree"] = 0
        diagnostics["note"] = _NO_GATE[fh.status]
        return AccuracyCertificate(0, None, "condition-d", None, diagnostics)
    fh0 = [x for x, in fh.vector.plain()]
    chosen = None
    table = _moments(mask, dilation, p_max)
    basis, start = SparseRows([], 0), 0
    for s in range(p_max):
        n, width = basis.rows, dim_degree(d, s) * r
        # lower[j]: the non-zero j-th entries of the basis vectors
        lower = [[] for _ in range(start)]
        for c, b in enumerate(basis.data):
            for j, x in b.items():
                lower[j].append((c, x))
        system = []
        for row in _block_row(mask, dilation, table, s):
            line = {}
            for j, x in row.items():
                if j < start:
                    for c, y in lower[j]:
                        line[c] = line.get(c, 0) + x * y
                else:
                    line[n + j - start] = x
            system.append(line)
        basis = solve_affine(SparseRows(system, n + width), basis)
        start += width
        diagnostics["kernel_dims"][s] = basis.rows
        pick = next((b for b in basis.data
                     if sum(b[j] * fh0[j] for j in range(r) if j in b) != 0),
                    None)
        if pick is None:
            diagnostics["first_failing_degree"] = s
            break
        chosen = (pick, s)
    if chosen is None:
        return AccuracyCertificate(0, None, "condition-d", None, diagnostics)
    pick = _unpack_witness(chosen[0], d, r, chosen[1])
    lead = next(x for x in pick.block(0).plain()[0] if x)
    witness = pick.scale(Fraction(1) / lead)
    gate = (witness.block(0) @ fh.vector).entry(0, 0)
    return AccuracyCertificate(witness.p, witness, "condition-d", gate,
                               diagnostics)


def sufficient_check(mask: Mask, triple: CrystalTriple, dilation: Dilation,
                     p: int) -> SufficientReport:
    """Sum-rule sufficiency test for accuracy p on a multiplicity-1 mask.

    Checks (i) the total coefficient sum equals the digit count m,
    (ii) for every point element b and |alpha| < p the per-coset moments
    sum_{l in coset_i} l^alpha c at (b,l)^{-1} agree across the m cosets,
    and (iii) 1 is not an eigenvalue of the degree-s obstruction matrix
    sum_b beta_{b,0} b_[s] A_[s] for 1 <= s < p.  The degree-0 case is
    excluded: under the sum rule that matrix is the scalar 1, so the
    printed form of the test can never hold there and the witness
    recursion below never needs it.

    Every stage runs on plain values over the mask's common denominator
    D (:meth:`Mask.plain`), ints on real rational data.  The sums of (ii)
    are the rows of g_[s] applied to the moments of :func:`_moments`, as
    the inverse of (g, l) is (g^{-1}, -g l): coset 0's sum in every coset,
    plus that coset's difference from it; they are divided by D once each,
    as they enter the report.  When they agree, every moment difference of
    degree below p is zero, as g_[s] is invertible, so block row s < p of
    :func:`_block_row` is coset 0's block alone: D times the left side of
    (I - M_[s,s] A_[s]) v_[s] - sum_{t<s} M_[s,t] A_[t] v_[t] = 0,
    with M_[s,t] the binomial moment matrices of the mask, and
    M_[s,s] A_[s] is the matrix of (iii).  One elimination per
    degree (:func:`~crystacc.linalg._rref`) of the diagonal block, with
    the right side appended while the chain goes on, decides (iii) by its
    pivots and gives the witness chain v_[0] = 1,
    v_[s] = (I - M_[s,s] A_[s])^{-1} sum_{t<s} M_[s,t] A_[t] v_[t]; the
    scale D changes neither.  One walk of the support
    (:func:`_residual_walk`) re-checks the chain at every degree s < p.
    """
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

    # Per-coset moments of the inverse-indexed coefficients, D-scaled
    table = _moments(mask, dilation, p)
    sums = {(b, a): [0] * m for b in range(triple.order)
            for s in range(p) for a in enumerate_degree(d, s)}
    act = cache(lambda g, s: build_A_s(triple.group[g], s).plain())
    for (i, g), moment in table.moments.items():
        b = triple.inverse_table[g]
        for s in range(p):
            alphas = enumerate_degree(d, s)
            for a, row in zip(alphas, act(g, s)):
                y = sum(x * moment.get(alphas[k], {}).get((0, 0), 0)
                        for k, x in enumerate(row) if x)
                xs = sums[(b, a)]
                for c in (range(m) if i == 0 else (i,)):
                    xs[c] += y
    per_coset = {key: [_exact(x, view.scale) for x in xs]
                 for key, xs in sums.items()}
    beta = {key: xs[0] for key, xs in per_coset.items() if len(set(xs)) == 1}
    moments_ok = len(beta) == len(per_coset)
    if not moments_ok:
        notes.append("per-coset moments disagree; see per_coset for the "
                     "offending sums")

    # alpha = 0 reconciliation between the two coefficient indexings used
    # by the test and by the moment matrices: sums of c at (b^{-1}, l)
    # over cosets of l must reproduce beta_{b,0}.
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

    # block rows of degrees 1..p-1, coset 0's alone as the moments agree:
    # their diagonal blocks I - M_[s,s] A_[s], with the chain's right sides
    # while it goes on
    eigen_flags = {}
    chain = [[1]] if sum_rule_ok and beta0_consistent else None
    if moments_ok:
        start = 1
        for s in range(1, p):
            ds = dim_degree(d, s)
            flat = [x for blk in chain or () for x in blk]
            system = []
            for row in _block_row(mask, dilation, table, s):
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
        _, walk = _residual_walk(mask, dilation, v_chain, range(p))
        chain_zero = all(x == 0 for cosets in walk.values()
                         for rows in cosets for row in rows for x in row)
        if not chain_zero:
            notes.append("the recursive witness fails the per-coset "
                         "conditions; this indicates an internal "
                         "inconsistency")

    passed = bool(conditions_ok and chain_zero)
    return SufficientReport(p, _exact(total, view.scale), sum_rule_ok, beta,
                            per_coset, moments_ok, eigen_flags, eigen_ok,
                            beta0_consistent, v_chain, chain_zero, passed,
                            tuple(notes))


def verify_equivalence(mask: Mask, dilation: Dilation, v: VCollection | None,
                       sample) -> EquivalenceReport:
    """Re-check a witness through the three equivalent relations.

    'd': the per-coset conditions (the solver's own form, checked first);
    'b': y_[s](sigma) = A_[s] sum_gamma y_[s](gamma) d at
    (A gamma A^{-1}) sigma^{-1}, evaluated at every sampled sigma — the sum
    collapses to support terms alpha with gamma = A^{-1}(alpha sigma)A in
    the group; 'c': the same relation at the digit representatives.  Those
    support terms do not depend on the degree, so each sampled element
    and each digit finds them once; y_[s](gamma) is the binomial shift of
    the rows (b^{-1})_[t] v_[t], formed once per point part b and call.
    The witness passes only when every residual is exactly zero; with no
    witness (v None, accuracy 0) the report passes with p = 0.
    """
    if v is None:
        return EquivalenceReport(0, 0.0, 0.0, 0.0, True, {})
    details = {}
    zero = []
    blocks = mask.items()

    def record(kind, s, where, mat):
        details[(kind, s, where)] = mat.max_abs()
        zero.append(mat.is_zero())

    scale, walk = _residual_walk(mask, dilation, v, range(v.p))
    for s, cosets in walk.items():
        for i, res in enumerate(_residual_mats(scale, cosets, v.r)):
            record("d", s, i, res)

    def support_terms(sigma):
        """(gamma, d_alpha) for the support elements alpha whose
        alpha sigma is A gamma A^{-1}, gamma in the group."""
        terms = []
        for alpha, d_blk in blocks:
            gamma = dilation.deconj(compose(alpha, sigma))
            if gamma is not None:
                terms.append((gamma, d_blk))
        return terms

    acted = _acted_rows(mask.triple.inverses, v.plain(v.p - 1))

    def y(gamma, s):
        return Mat.from_rows(_y_rows(gamma, acted(gamma.g), s), cols=v.r)

    def relation_residual(sigma, terms, s):
        total = sum((y(gamma, s) @ d_blk for gamma, d_blk in terms),
                    Mat.zeros(dim_degree(mask.triple.d, s), v.r))
        return y(sigma, s) - build_A_s(dilation.A, s) @ total

    sampled = [(sigma, support_terms(sigma)) for sigma in sample]
    digits = [(digit, support_terms(digit)) for digit in dilation.digits]
    for s in range(v.p):
        for sigma, terms in sampled:
            record("b", s, sigma, relation_residual(sigma, terms, s))
        for i, (digit, terms) in enumerate(digits):
            record("c", s, i, relation_residual(digit, terms, s))

    def cap(kind):
        vals = [val for (k, _, _), val in details.items() if k == kind]
        return max(vals) if vals else 0.0

    md, mb, mc = cap("d"), cap("b"), cap("c")
    return EquivalenceReport(p=v.p, max_residual_d=md, max_residual_b=mb,
                             max_residual_c=mc, passed=all(zero),
                             details=details)
