"""Solvers for the accuracy of refinable functions over crystal groups.

The order of polynomial reproduction is decided by a finite homogeneous
linear system: one block of constraints per polynomial degree and per digit
coset of the dilation, in the unknown coefficient vectors v_[0], ..., v_[s].
:func:`max_accuracy` solves the stacked system exactly and certifies the
largest degree with a usable witness; it builds the system block row by
block row, each degree's rows once and as sparse rows, and keeps them for
every later degree.  :func:`sufficient_check` evaluates the cheaper
sum-rule criterion and builds its explicit witness chain.  Both read one
table of per-coset moments, :func:`_moments`.  :func:`verify_equivalence`
re-derives the witness relations in three independent forms, element by
element, which is the main guard against index bookkeeping bugs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, prod

from .crystal import CrystalTriple, Dilation, compose, inverse
# kron is unused here: perfbench/tracing.py wraps it by name in this module
from .linalg import (Mat, QC, QC_ZERO, det, has_eigenvalue_one,
                     kernel_basis, kron, solve_affine)
from .mask import Mask, MaskShapeError
from .multiidx import (VCollection, build_A_s, build_Q_tilde, dim_degree,
                       enumerate_degree, eval_y)


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
    sums over the elements in digit coset i, ``Dilation.coset_index``);
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
    """
    total = None
    for _, blk in mask.items():
        total = blk if total is None else total + blk
    n_op = total.scale(Fraction(1, m)) - Mat.identity(mask.r)
    basis = kernel_basis(n_op)
    if not basis:
        return Fhat0Result(None, "empty", 0)
    if len(basis) == 1:
        return Fhat0Result(basis[0], "ok", 1)
    k = Mat.hstack(basis)
    w = Mat.hstack(kernel_basis(n_op.transpose())).transpose()
    wk = w @ k
    if det(wk).is_zero():
        return Fhat0Result(None, "defective", len(basis))
    ones = Mat.column([1] * mask.r)
    return Fhat0Result(k @ wk.inverse() @ (w @ ones), "indeterminate",
                       len(basis))


_NO_GATE = {
    "empty": ("the averaged coefficient sum has no eigenvalue 1, so the "
              "integral vanishes and the gate cannot be met"),
    "defective": ("the eigenvalue 1 of the averaged coefficient sum is "
                  "defective, so no integral direction is determined and "
                  "the gate cannot be met"),
}


def condition_d_residual(mask: Mask, dilation: Dilation, v: VCollection,
                         s: int, i: int) -> Mat:
    """Defect of the degree-s reproduction constraint on digit coset i.

    Returns v_[s] minus the coset-i part of its two-scale expansion; a
    witness of accuracy p has this zero for every digit and every s < p.
    Only group elements whose inverse carries a mask coefficient
    contribute, so the sum is finite.
    """
    acc = v.block(s)
    A = dilation.A
    for alpha, d_blk in mask.items():
        if dilation.coset_index(inverse(alpha)) != i:
            continue
        for t in range(s + 1):
            lead = build_Q_tilde(alpha, s, t) @ build_A_s(A, t)
            acc = acc - lead @ v.block(t) @ d_blk
    return acc


def _moments(mask: Mask, dilation: Dilation, p_max: int) -> dict:
    """The mask's moments below degree p_max, by digit coset and point part.

    Maps (i, b) to {mu: N_mu} for every |mu| < p_max, where
    N_mu = sum (-l)^mu d_(b,l)^T over the support elements (b, l) whose
    inverse lies in digit coset i, l the true translation R k.  N_mu is a
    dict (a, c) -> entry, without the entries no term reaches; an entry is
    a Fraction where it is real, else a QC.  These are the per-coset sums
    of the sum rules (Jia, Math. Comp. 67, 1998; Cabrelli, Heil and
    Molter, J. Approx. Theory 95, 1998).
    """
    d, r = mask.triple.d, mask.r
    mus = [mu for s in range(p_max) for mu in enumerate_degree(d, s)]
    table = {}
    for e, blk in mask.items():
        key = (dilation.coset_index(inverse(e)), e.g)
        moments = table.setdefault(key, {mu: {} for mu in mus})
        neg = [-x.re for x in e.true_translation()]
        d_t = [(a, c, x.re if x.im == 0 else x) for c in range(r)
               for a, x in enumerate(blk.row_list(c)) if not x.is_zero()]
        for mu in mus:
            w = prod(y ** n for y, n in zip(neg, mu))
            if w == 0:
                continue
            n_mu = moments[mu]
            for a, c, x in d_t:
                n_mu[(a, c)] = n_mu.get((a, c), 0) + w * x
    return table


def _block_row(mask: Mask, dilation: Dilation, moments: dict,
               s: int) -> list[dict]:
    """Block row s of the stacked constraint system, as sparse rows: one
    dict (column -> non-zero exact value, a Fraction or a QC) per row.

    The unknowns are vec(v_[0]), vec(v_[1]), ..., row-major within each
    block.  A product B v_[t] C acts on vec(v_[t]) as kron(B, C^T), so the
    block in row (s, i) and column t <= s is
    delta_{t,s} I - sum over coset-i support terms of
    kron(Qt_[s,t] A_[t], d^T); the blocks right of column s are zero.
    As Qt_[s,t](b, l) = Q_[s,t](l) (b^{-1})_[t], the terms of one point
    part b sum to its moments N (:func:`_moments`): entry
    ((alpha, a), (beta', c)) loses sum_beta binom(alpha, beta)
    B[beta, beta'] N_(alpha-beta)[a, c], B = (b^{-1})_[t] A_[t].  Column t
    starts at r (d_0 + ... + d_{t-1}) whatever the highest degree, so
    block row s serves every system of degree s or more.
    """
    tri = mask.triple
    d, r = tri.d, mask.r
    starts = [0]
    for t in range(s):
        starts.append(starts[-1] + dim_degree(d, t) * r)
    alphas = enumerate_degree(d, s)
    rows = [[{starts[s] + k: Fraction(1)} for k in range(len(alphas) * r)]
            for _ in range(dilation.m)]
    for (i, b), moment in moments.items():
        block = rows[i]
        for t in range(s + 1):
            lead = (build_A_s(tri.group[tri.inverse_table[b]], t)
                    @ build_A_s(dilation.A, t))
            for j, beta in enumerate(enumerate_degree(d, t)):
                cols = [(starts[t] + k * r, x.re)
                        for k, x in enumerate(lead.row_list(j))
                        if not x.is_zero()]
                for row0, alpha in enumerate(alphas):
                    if any(k > n for n, k in zip(alpha, beta)):
                        continue
                    n_mu = moment[tuple(n - k for n, k in zip(alpha, beta))]
                    binom = prod(comb(n, k) for n, k in zip(alpha, beta))
                    for col0, x in cols:
                        for (a, c), y in n_mu.items():
                            row = block[row0 * r + a]
                            value = row.get(col0 + c, 0) - binom * x * y
                            if value == 0:
                                row.pop(col0 + c, None)
                            else:
                                row[col0 + c] = value
    return [row for block in rows for row in block]


def _layout(rows: list[dict], width: int) -> Mat:
    """The sparse rows as a dense Mat with ``width`` columns."""
    data = []
    for row in rows:
        line = [QC_ZERO] * width
        for j, value in row.items():
            line[j] = QC.parse(value)
        data.append(line)
    return Mat.from_rows(data, cols=width)


def _unpack_witness(column: Mat, d: int, r: int, s_max: int) -> VCollection:
    blocks = []
    off = 0
    for t in range(s_max + 1):
        dt = dim_degree(d, t)
        rows = [[column.entry(off + a * r + b, 0) for b in range(r)]
                for a in range(dt)]
        blocks.append(Mat.from_rows(rows, cols=r))
        off += dt * r
    return VCollection(d, tuple(blocks))


def _gate_value(column: Mat, gate_vec: Mat, r: int):
    """v_[0] . fhat(0), exactly, for a stacked kernel column (the first r
    stacked coordinates are the degree-0 row)."""
    acc = QC_ZERO
    for j in range(r):
        acc = acc + column.entry(j, 0) * gate_vec.entry(j, 0)
    return acc


def max_accuracy(mask: Mask, triple: CrystalTriple, dilation: Dilation,
                 p_max: int, independent: bool = False) -> AccuracyCertificate:
    """Largest accuracy p <= p_max certified by the per-coset conditions.

    All degrees 0..s and all digit cosets are stacked into one homogeneous
    system.  Block row s is built once, as sparse rows, when degree s is
    reached, and kept for every later degree; at each degree the rows are
    laid out as a dense Mat and solved exactly.  Candidate accuracy s+1 is
    feasible when the kernel meets the
    gate v_[0] . fhat(0) != 0, decided exactly against the vector of
    :func:`fhat0`.  Feasibility is monotone in s, so the scan stops at the
    first failure.  The witness is scaled so its first nonzero degree-0
    entry is 1.  When fhat(0) must vanish (status 'empty') or is not
    determined (status 'defective'), the gate cannot be met and p is 0.

    The certificate proves polynomial reproduction (the sufficient
    direction); it is also maximal whenever the translates of the
    refinable function are independent, which callers assert with
    independent=True.
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
        "direction": ("maximal (independent translates)" if independent
                      else "sufficient direction"),
        "fhat0_status": fh.status,
    }
    if mask.float_change is not None:
        diagnostics["float_max_relative_change"] = mask.float_change
    if fh.vector is None:
        diagnostics["first_failing_degree"] = 0
        diagnostics["note"] = _NO_GATE[fh.status]
        return AccuracyCertificate(0, None, "condition-d", None, diagnostics)
    p = 0
    chosen = None
    moments = _moments(mask, dilation, p_max)
    rows, width = [], 0
    for s in range(p_max):
        rows += _block_row(mask, dilation, moments, s)
        width += dim_degree(d, s) * r
        basis, proj = solve_affine(_layout(rows, width),
                                   selected=list(range(r)))
        diagnostics["kernel_dims"][s] = len(basis)
        pick = None
        if proj > 0:
            pick = next((b for b in basis
                         if not _gate_value(b, fh.vector, r).is_zero()),
                        None)
        if pick is None:
            diagnostics["first_failing_degree"] = s
            break
        p = s + 1
        chosen = _unpack_witness(pick, d, r, s)
    if p == 0:
        return AccuracyCertificate(0, None, "condition-d", None, diagnostics)
    lead = next(x for x in chosen.block(0).row_list(0) if not x.is_zero())
    witness = chosen.scale(1 / lead)
    gate = _gate_value(witness.block(0).transpose(), fh.vector, r)
    return AccuracyCertificate(p, witness, "condition-d", gate, diagnostics)


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

    The sums of (ii) and the moment matrices below are read from the
    moment table of :func:`_moments`, the one the constraint rows use.  On
    success the explicit witness chain is built: v_[0] = 1 and
    v_[s] = (I - M_[s,s] A_[s])^{-1} sum_{t<s} M_[s,t] A_[t] v_[t], with
    M_[s,t] the binomial moment matrices of the mask, which are the
    blocks of :func:`_block_row` on the first coset; the chain is then
    re-checked against condition_d_residual.
    """
    if mask.r != 1:
        raise MaskShapeError("the sum-rule test applies to multiplicity-1 "
                             "masks")
    if triple is not mask.triple or dilation.triple is not triple:
        raise ValueError("mask, triple and dilation must match")
    if p < 1:
        raise ValueError("target accuracy must be at least 1")
    d, r = triple.d, triple.order
    m = dilation.m
    notes = ["degree-s eigenvalue screen runs over 1 <= s < p; at s = 0 "
             "the screened matrix equals the scalar 1 whenever the sum "
             "rule holds"]

    total = QC_ZERO
    for _, blk in mask.items():
        total = total + blk.entry(0, 0)
    sum_rule_ok = total == m

    # Per-coset moments of the inverse-indexed coefficients: the inverse of
    # a support element e = (g, l) is (g^{-1}, -g l), whose monomials are
    # g_[s] X_[s](-l), so its sums are g_[s] times the table's column.
    moments = _moments(mask, dilation, p)
    per_coset = {(b, a): [QC_ZERO] * m for b in range(r)
                 for s in range(p) for a in enumerate_degree(d, s)}
    for (i, g), moment in moments.items():
        for s in range(p):
            alphas = enumerate_degree(d, s)
            col = build_A_s(triple.group[g], s) @ Mat.column(
                [moment[a].get((0, 0), 0) for a in alphas])
            for j, a in enumerate(alphas):
                per_coset[(triple.inverse_table[g], a)][i] = col.entry(j, 0)
    beta = {}
    moments_ok = True
    for key, sums in per_coset.items():
        if len(set(sums)) == 1:
            beta[key] = sums[0]
        else:
            moments_ok = False
    if not moments_ok:
        notes.append("per-coset moments disagree; see per_coset for the "
                     "offending sums")

    # alpha = 0 reconciliation between the two coefficient indexings used
    # by the test and by the moment matrices: sums of c at (b^{-1}, l)
    # over cosets of l must reproduce beta_{b,0}.
    zero_alpha = (0,) * d
    beta0_consistent = True
    if moments_ok and sum_rule_ok:
        direct = {b: [QC_ZERO] * m for b in range(r)}
        for e, blk in mask.items():
            b = triple.inverse_table[e.g]
            i = dilation.translation_coset(e.k)
            direct[b][i] = direct[b][i] + blk.entry(0, 0)
        for b in range(r):
            vals = direct[b] + [beta[(b, zero_alpha)]]
            if len(set(vals)) != 1:
                beta0_consistent = False
        if not beta0_consistent:
            notes.append("alpha = 0 moments disagree between the two "
                         "coefficient indexings; the coset permutation "
                         "argument failed for this input")

    eigen_flags = {}
    eigen_ok = True
    if moments_ok:
        for s in range(1, p):
            mat = Mat.zeros(dim_degree(d, s), dim_degree(d, s))
            for b in range(r):
                term = build_A_s(triple.group[b], s) @ build_A_s(dilation.A, s)
                mat = mat + term.scale(beta[(b, zero_alpha)])
            eigen_flags[s] = not has_eigenvalue_one(mat)
            eigen_ok = eigen_ok and eigen_flags[s]

    v_chain = None
    chain_zero = None
    conditions_ok = (sum_rule_ok and moments_ok and eigen_ok
                     and beta0_consistent)
    if conditions_ok:
        # Block row s on coset 0 reads (I - M_[s,s] A_[s]) v_[s]
        # - sum_{t<s} M_[s,t] A_[t] v_[t] = 0, so each v_[s] solves it
        # given the lower degrees; the first coset serves, as the moments
        # agree across cosets.
        blocks = [Mat.identity(1)]
        chain = [QC(1)]
        for s in range(1, p):
            ds, start = dim_degree(d, s), len(chain)
            rows = _block_row(mask, dilation, moments, s)[:ds]
            lhs = Mat.from_rows([[row.get(start + k, 0) for k in range(ds)]
                                 for row in rows])
            rhs = Mat.column([sum((-x * chain[j] for j, x in row.items()
                                   if j < start), QC_ZERO) for row in rows])
            blocks.append(lhs.inverse() @ rhs)
            chain += [blocks[s].entry(k, 0) for k in range(ds)]
        v_chain = VCollection(d, tuple(blocks))
        chain_zero = all(
            condition_d_residual(mask, dilation, v_chain, s, i).is_zero()
            for s in range(p) for i in range(m))
        if not chain_zero:
            notes.append("the recursive witness fails the per-coset "
                         "conditions; this indicates an internal "
                         "inconsistency")

    passed = bool(conditions_ok and chain_zero)
    return SufficientReport(
        p=p, sum_total=total, sum_rule_ok=sum_rule_ok, beta=beta,
        per_coset=per_coset, moments_ok=moments_ok,
        eigen_flags=eigen_flags, eigen_ok=eigen_ok,
        beta0_consistent=beta0_consistent, v_chain=v_chain,
        chain_residual_zero=chain_zero, passed=passed, notes=tuple(notes))


def verify_equivalence(mask: Mask, dilation: Dilation, v: VCollection,
                       sample) -> EquivalenceReport:
    """Re-check a witness through the three equivalent relations.

    'd': the per-coset conditions (the solver's own form, checked first);
    'b': y_[s](sigma) = A_[s] sum_gamma y_[s](gamma) d at
    (A gamma A^{-1}) sigma^{-1}, evaluated at every sampled sigma — the sum
    collapses to support terms alpha with gamma = A^{-1}(alpha sigma)A in
    the group; 'c': the same relation at the digit representatives.  The
    witness passes only when every residual is exactly zero.
    """
    details = {}
    zero = []

    def record(kind, s, where, mat):
        details[(kind, s, where)] = mat.max_abs()
        zero.append(mat.is_zero())

    for s in range(v.p):
        for i in range(dilation.m):
            record("d", s, i, condition_d_residual(mask, dilation, v, s, i))

    def relation_residual(sigma, s):
        acc = eval_y(sigma, v, s)
        total = None
        for alpha, d_blk in mask.items():
            gamma = dilation.deconj(compose(alpha, sigma))
            if gamma is None:
                continue
            term = eval_y(gamma, v, s) @ d_blk
            total = term if total is None else total + term
        if total is not None:
            acc = acc - build_A_s(dilation.A, s) @ total
        return acc

    for s in range(v.p):
        for sigma in sample:
            record("b", s, sigma, relation_residual(sigma, s))
        for i, digit in enumerate(dilation.digits):
            record("c", s, i, relation_residual(digit, s))

    def cap(kind):
        vals = [val for (k, _, _), val in details.items() if k == kind]
        return max(vals) if vals else 0.0

    md, mb, mc = cap("d"), cap("b"), cap("c")
    return EquivalenceReport(p=v.p, max_residual_d=md, max_residual_b=mb,
                             max_residual_c=mc, passed=all(zero),
                             details=details)
