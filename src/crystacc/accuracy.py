"""Solvers for the accuracy of refinable functions over crystal groups.

The order of polynomial reproduction is decided by a finite homogeneous
linear system: one block of constraints per polynomial degree and per digit
coset of the dilation, in the unknown coefficient vectors v_[0], ..., v_[s].
:func:`max_accuracy` solves the stacked system exactly and certifies the
largest degree with a usable witness; :func:`sufficient_check` evaluates the
cheaper sum-rule criterion and builds its explicit witness chain; and
:func:`verify_equivalence` re-derives the same witness relations in three
independent forms, which is the main guard against index bookkeeping bugs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .crystal import CrystalTriple, Dilation, compose, inverse
from .linalg import (DEFAULT_TOL, Mat, QC, QC_ONE, QC_ZERO,
                     has_eigenvalue_one, kernel_basis, kron, negligible,
                     solve_affine)
from .mask import Mask, MaskShapeError, coefficient
from .multiidx import (VCollection, build_A_s, build_Q_st, build_Q_tilde,
                       dim_degree, enumerate_degree, eval_y)


@dataclass
class Fhat0Result:
    """Direction of the zero-frequency value (the integral) of the
    refinable function: an eigenvector of (1/m) sum of the mask blocks.

    status is 'ok' when the eigenvalue-1 eigenspace is one-dimensional,
    'empty' when 1 is not an eigenvalue (the integral must vanish), and
    'indeterminate' when the eigenspace has dimension two or more.
    """

    vector: Mat | None
    status: str
    dimension: int


@dataclass
class AccuracyCertificate:
    """Outcome of max_accuracy: the accuracy p, a witness coefficient
    collection for degrees 0..p-1 (None when p = 0), the solver used, the
    gate value v_[0] . fhat(0) of the witness, and solver diagnostics
    (per-degree kernel dimensions, first failing degree, direction label).
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
    moment, with the raw per-coset sums kept for audit; eigen_flags[s] is
    True when 1 is not an eigenvalue of the degree-s obstruction matrix;
    v_chain is the recursively built witness when everything passes.
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
    """Integral direction forced by the refinement equation.

    Integrating both sides shows the vector of integrals is fixed by
    T = (1/m) sum_gamma d_gamma.  A one-dimensional eigenspace determines
    the direction up to scale; no eigenvalue 1 forces integral zero.
    """
    total = None
    for _, blk in mask.items():
        total = blk if total is None else total + blk
    t_op = total.scale(Fraction(1, m))
    basis = kernel_basis(t_op - Mat.identity(mask.r, mask.backend))
    if not basis:
        return Fhat0Result(None, "empty", 0)
    if len(basis) == 1:
        return Fhat0Result(basis[0], "ok", 1)
    return Fhat0Result(None, "indeterminate", len(basis))


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


def _assemble(mask: Mask, dilation: Dilation, s_max: int) -> Mat:
    """Stacked constraint matrix over the unknowns vec(v_[0]), ...,
    vec(v_[s_max]), row-major within each block.

    A product B v_[t] C acts on vec(v_[t]) as kron(B, C^T), so the block
    in row (s, i) and column t is
    delta_{t,s} I - sum over coset-i support terms of
    kron(Qt_[s,t] A_[t], d^T).
    """
    tri = mask.triple
    d, r = tri.d, mask.r
    backend = mask.backend
    A = dilation.A
    widths = [dim_degree(d, t) * r for t in range(s_max + 1)]
    coset_of = {alpha: dilation.coset_index(inverse(alpha))
                for alpha, _ in mask.items()}
    rows = []
    for s in range(s_max + 1):
        ds = dim_degree(d, s)
        for i in range(dilation.m):
            blocks = []
            for t in range(s_max + 1):
                if t > s:
                    blocks.append(Mat.zeros(ds * r, widths[t], backend))
                    continue
                acc = (Mat.identity(ds * r, backend) if t == s
                       else Mat.zeros(ds * r, widths[t], backend))
                for alpha, d_blk in mask.items():
                    if coset_of[alpha] != i:
                        continue
                    lead = build_Q_tilde(alpha, s, t) @ build_A_s(A, t)
                    acc = acc - kron(lead, d_blk.transpose())
                blocks.append(acc)
            rows.append(Mat.hstack(blocks))
    return Mat.vstack(rows)


def _unpack_witness(column: Mat, d: int, r: int, s_max: int) -> VCollection:
    blocks = []
    off = 0
    for t in range(s_max + 1):
        dt = dim_degree(d, t)
        rows = [[column.entry(off + a * r + b, 0) for b in range(r)]
                for a in range(dt)]
        blocks.append(Mat.from_rows(rows, backend=column.backend, cols=r))
        off += dt * r
    return VCollection(d, tuple(blocks))


def _gate_value(column: Mat, gate_vec: Mat, r: int):
    """v_[0] . fhat(0) for a stacked kernel column (the first r stacked
    coordinates are the degree-0 row).  Float columns are normalized first
    so the magnitude is comparable against a fixed threshold."""
    if column.backend == "exact" and gate_vec.backend == "exact":
        acc = QC_ZERO
        for j in range(r):
            acc = acc + column.entry(j, 0) * gate_vec.entry(j, 0)
        return acc
    arr = column.np().ravel()
    norm = np.linalg.norm(arr)
    if norm > 0:
        arr = arr / norm
    g = gate_vec.np().ravel()
    return complex(np.dot(arr[:r], g[:r]))


def max_accuracy(mask: Mask, triple: CrystalTriple, dilation: Dilation,
                 p_max: int, independent: bool = False) -> AccuracyCertificate:
    """Largest accuracy p <= p_max certified by the per-coset conditions.

    All degrees 0..s and all digit cosets are stacked into one homogeneous
    system; candidate accuracy s+1 is feasible when the kernel meets the
    gate v_[0] . fhat(0) != 0.  Feasibility is monotone in s, so the scan
    stops at the first failure.  The witness is scaled so its first
    nonzero degree-0 entry is 1.

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
    if fh.status == "empty":
        diagnostics["first_failing_degree"] = 0
        diagnostics["note"] = ("the averaged coefficient sum has no "
                               "eigenvalue 1, so the integral vanishes and "
                               "the gate cannot be met")
        return AccuracyCertificate(0, None, "condition-d", None, diagnostics)
    if fh.status == "ok":
        gate_vec = fh.vector
        gate_tol = DEFAULT_TOL
    else:
        from .cascade import estimate_fhat0
        gate_vec = estimate_fhat0(mask, triple, dilation)
        gate_tol = 1e-6
        diagnostics["gate_estimate"] = "cascade integral"
    p = 0
    chosen = None
    for s in range(p_max):
        system = _assemble(mask, dilation, s)
        basis, proj = solve_affine(system, selected=list(range(r)))
        diagnostics["kernel_dims"][s] = len(basis)
        pick = None
        if proj > 0:
            pick = next((b for b in basis
                         if not negligible(_gate_value(b, gate_vec, r),
                                           gate_tol)), None)
        if pick is None:
            diagnostics["first_failing_degree"] = s
            break
        p = s + 1
        chosen = _unpack_witness(pick, d, r, s)
    if p == 0:
        return AccuracyCertificate(0, None, "condition-d", None, diagnostics)
    lead = next(x for x in chosen.block(0).row_list(0)
                if not negligible(x, 1e-12))
    witness = chosen.scale(1 / lead)
    gate = _gate_value(
        Mat.column([witness.block(0).entry(0, j) for j in range(r)],
                   backend=witness.backend),
        gate_vec, r)
    return AccuracyCertificate(p, witness, "condition-d", gate, diagnostics)


def _power_product(xs, alpha, one):
    out = one
    for x, a in zip(xs, alpha):
        for _ in range(a):
            out = out * x
    return out


def _values_equal(vals, tol: float = DEFAULT_TOL) -> bool:
    scale = max([1.0] + [abs(v) for v in vals if not isinstance(v, QC)])
    return all(negligible(v - vals[0], tol * scale) for v in vals[1:])


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

    On success the explicit witness chain is built: v_[0] = 1 and
    v_[s] = (I - M_[s,s] A_[s])^{-1} sum_{t<s} M_[s,t] A_[t] v_[t], with
    M_[s,t] the binomial moment matrices of the mask; the chain is then
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
    exact = mask.backend == "exact"
    one = QC_ONE if exact else 1.0 + 0j
    zero = QC_ZERO if exact else 0.0 + 0j
    notes = ["degree-s eigenvalue screen runs over 1 <= s < p; at s = 0 "
             "the screened matrix equals the scalar 1 whenever the sum "
             "rule holds"]

    total = zero
    for _, blk in mask.items():
        total = total + blk.entry(0, 0)
    sum_rule_ok = negligible(total - m, DEFAULT_TOL * m)

    # Per-coset moments of the inverse-indexed coefficients.  A support
    # element e contributes its coefficient to (b, l) = inverse(e): the
    # needed c at (b, l)^{-1} is then just the coefficient at e.
    alphas = [a for s in range(p) for a in enumerate_degree(d, s)]
    per_coset = {(b, a): [zero] * m for b in range(r) for a in alphas}
    for e, blk in mask.items():
        sigma = inverse(e)
        i = dilation.translation_coset(sigma.k)
        l_true = sigma.true_translation()
        if not exact:
            l_true = tuple(x.to_complex() for x in l_true)
        c = blk.entry(0, 0)
        for a in alphas:
            per_coset[(sigma.g, a)][i] = (per_coset[(sigma.g, a)][i]
                                          + _power_product(l_true, a, one) * c)
    beta = {}
    moments_ok = True
    for key, sums in per_coset.items():
        if _values_equal(sums):
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
        direct = {b: [zero] * m for b in range(r)}
        for e, blk in mask.items():
            b = triple.inverse_table[e.g]
            i = dilation.translation_coset(e.k)
            direct[b][i] = direct[b][i] + blk.entry(0, 0)
        for b in range(r):
            vals = direct[b] + [beta[(b, zero_alpha)]]
            if not _values_equal(vals):
                beta0_consistent = False
        if not beta0_consistent:
            notes.append("alpha = 0 moments disagree between the two "
                         "coefficient indexings; the coset permutation "
                         "argument failed for this input")

    eigen_flags = {}
    eigen_ok = True
    if moments_ok:
        for s in range(1, p):
            mat = Mat.zeros(dim_degree(d, s), dim_degree(d, s), mask.backend)
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
        # moment matrices M_[s,t] = sum_b (sum_l Q_[s,t](l) c_{(b^{-1},l)})
        # b_[t]; the inner sums are computed per coset and must agree, a
        # consequence of (ii) already checked above.
        inner = {}
        for e, blk in mask.items():
            b = triple.inverse_table[e.g]
            i = dilation.translation_coset(e.k)
            c = blk.entry(0, 0)
            for s in range(p):
                for t in range(s + 1):
                    q = build_Q_st(e.true_translation(), s, t)
                    key = (b, s, t)
                    if key not in inner:
                        inner[key] = [Mat.zeros(dim_degree(d, s),
                                                dim_degree(d, t),
                                                mask.backend)
                                      for _ in range(m)]
                    inner[key][i] = inner[key][i] + q.scale(c)
        moment_mats = {}
        for s in range(p):
            for t in range(s + 1):
                acc = Mat.zeros(dim_degree(d, s), dim_degree(d, t),
                                mask.backend)
                for b in range(r):
                    key = (b, s, t)
                    if key not in inner:
                        continue
                    parts = inner[key]
                    if any(not (parts[j] - parts[0]).is_zero()
                           for j in range(1, m)):
                        notes.append(f"moment matrix block ({s},{t}) "
                                     "differs across cosets")
                        conditions_ok = False
                    acc = acc + parts[0] @ build_A_s(triple.group[b], t)
                moment_mats[(s, t)] = acc
    if conditions_ok:
        blocks = [Mat.from_rows([[one]], backend=mask.backend)]
        for s in range(1, p):
            ds = dim_degree(d, s)
            lhs = (Mat.identity(ds, mask.backend)
                   - moment_mats[(s, s)] @ build_A_s(dilation.A, s))
            rhs = Mat.zeros(ds, 1, mask.backend)
            for t in range(s):
                rhs = (rhs + moment_mats[(s, t)] @ build_A_s(dilation.A, t)
                       @ blocks[t])
            blocks.append(lhs.inverse() @ rhs)
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
                       sample, tol: float = DEFAULT_TOL) -> EquivalenceReport:
    """Re-check a witness through the three equivalent relations.

    'd': the per-coset conditions (the solver's own form, checked first);
    'b': y_[s](sigma) = A_[s] sum_gamma y_[s](gamma) d at
    (A gamma A^{-1}) sigma^{-1}, evaluated at every sampled sigma — the sum
    collapses to support terms alpha with gamma = A^{-1}(alpha sigma)A in
    the group; 'c': the same relation at the digit representatives.  All
    residuals are exact zeros on the exact backend.
    """
    details = {}

    def record(kind, s, where, mat):
        details[(kind, s, where)] = mat.max_abs()

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
    exact = v.backend == mask.backend == "exact"
    passed = max(md, mb, mc) <= (0.0 if exact else tol)
    return EquivalenceReport(p=v.p, max_residual_d=md, max_residual_b=mb,
                             max_residual_c=mc, passed=passed,
                             details=details)
