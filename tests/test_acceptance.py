"""Acceptance gate: eight end-to-end criteria, one pass/fail line each.

Each test prints its verdict with capturing suspended so the line shows
up inline in any pytest run, then asserts.
"""

import random
import time
from fractions import Fraction

from crystacc.accuracy import max_accuracy, sufficient_check, verify_equivalence
from crystacc.cascade import (cascade_iterate, empirical_accuracy,
                              refinement_residual, sample_points)
from crystacc.crystal import (apply_element, catalog_triple, check_admissible,
                              compose, elements_in_ball, inverse,
                              validate_triple)
from crystacc.linalg import Mat
from crystacc.mask import (Mask, extract_scalar, lattice_triple,
                           lift_scalar_to_matrix)
from crystacc.multiidx import (VCollection, build_A_s, build_Q_st,
                               build_Q_tilde, dim_degree, eval_X, eval_y)

from conftest import rand_fraction, rand_point, reproduction_values

import numpy as np


def _announce(capsys, num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_1_monomial_operator_identities(capsys):
    """Shift expansion and dilation covariance of the binomial blocks hold
    exactly in dimensions 1 to 3 for degrees up to 4."""
    t_start = time.monotonic()
    rng = random.Random(10501)
    dil_mats = {1: [[2]], 2: [[2, 1], [0, 2]],
                3: [[2, 0, 1], [0, 3, 0], [0, 0, 2]]}
    ok = True
    for d in (1, 2, 3):
        A = Mat.from_rows(dil_mats[d])
        a_pows = [build_A_s(A, s) for s in range(5)]
        a_invs = [m.inverse() for m in a_pows]
        for _ in range(20):
            x = rand_point(rng, d)
            y = rand_point(rng, d)
            z = rand_point(rng, d)
            az = tuple(sum((A.entry(i, j).re * z[j] for j in range(d)),
                           Fraction(0)) for i in range(d))
            for s in range(5):
                shifted = eval_X(tuple(a - b for a, b in zip(x, y)), s)
                acc = None
                for t in range(s + 1):
                    term = build_Q_st(y, s, t) @ eval_X(x, t)
                    acc = term if acc is None else acc + term
                ok = ok and (shifted - acc).is_zero()
                for t in range(s + 1):
                    lhs = build_Q_st(az, s, t)
                    rhs = a_pows[s] @ build_Q_st(z, s, t) @ a_invs[t]
                    ok = ok and (lhs - rhs).is_zero()
    elapsed = time.monotonic() - t_start
    ok = ok and elapsed < 10.0
    _announce(capsys, 1, ok, "exact shift and dilation identities, d in {1,2,3}, "
                     f"s <= 4, 20 points each, {elapsed:.1f}s")


def test_criterion_2_cocycle_law(pm, rng, capsys):
    """y_[s] composes through the substitution blocks for 100 random pairs
    of pm elements, degrees up to 3, exactly."""
    t, _ = pm
    blocks = tuple(
        Mat.from_rows([[rand_fraction(rng)] for _ in range(dim_degree(2, s))])
        for s in range(4))
    v = VCollection(2, blocks)

    def rand_elem():
        return t.element(rng.randrange(t.order),
                         (rng.randint(-4, 4), rng.randint(-4, 4)))

    ok = True
    for _ in range(100):
        g1, g2 = rand_elem(), rand_elem()
        both = compose(g1, g2)
        for s in range(4):
            lhs = eval_y(both, v, s)
            acc = None
            for u in range(s + 1):
                term = build_Q_tilde(g2, s, u) @ eval_y(g1, v, u)
                acc = term if acc is None else acc + term
            ok = ok and (lhs - acc).is_zero()
    _announce(capsys, 2, ok, "cocycle law exact on 100 random pm element pairs, "
                     "s <= 3")


def test_criterion_3_group_and_digits(pm, rng, capsys):
    """The pm triple validates, its digits partition a 200-element ball,
    and composition matches pointwise evaluation exactly."""
    t, dil = pm
    ok = True
    revalidated = validate_triple(t.R, list(t.group), "pm")
    ok = ok and revalidated.order == 2

    ball = elements_in_ball(t, 7)[:200]
    ok = ok and len(ball) == 200
    for e in ball:
        hits = [i for i, delta in enumerate(dil.digits)
                if dil.deconj(compose(inverse(delta), e)) is not None]
        ok = ok and len(hits) == 1 and hits[0] == dil.coset_index(e)

    for _ in range(100):
        a = t.element(rng.randrange(t.order),
                      (rng.randint(-3, 3), rng.randint(-3, 3)))
        b = t.element(rng.randrange(t.order),
                      (rng.randint(-3, 3), rng.randint(-3, 3)))
        x = rand_point(rng, 2)
        ok = ok and (apply_element(compose(a, b), x)
                     == apply_element(a, apply_element(b, x)))
    _announce(capsys, 3, ok, "pm validates; digits partition 200 elements; "
                     "composition matches evaluation at 100 pairs")


def test_criterion_4_classical_masks(line, haar, hat, bspline4, ones3,
                                     capsys):
    """Solver and cascade oracle agree on the four classical 1D masks; the
    cascade of the unnormalized mask diverges, so the oracle claims no
    accuracy for it (None)."""
    t_start = time.monotonic()
    t, dil = line
    cases = [("hat", hat, 2, 2), ("haar", haar, 1, 1),
             ("bspline4", bspline4, 4, 4), ("ones3", ones3, 0, None)]
    ok = True
    got = []
    for name, mask, p_true, emp_true in cases:
        p_max = p_true + 1
        cert = max_accuracy(mask, t, dil, p_max=p_max)
        emp = empirical_accuracy(mask, t, dil, p_max=p_max, iterations=12,
                                 grid_exponent=8, tolerance=1e-5,
                                 strict=False)
        got.append(f"{name}:{cert.p}/{emp}")
        ok = ok and cert.p == p_true and emp == emp_true
    elapsed = time.monotonic() - t_start
    ok = ok and elapsed < 60.0
    _announce(capsys, 4, ok, "solver/empirical accuracy " + " ".join(got)
                     + f" (n=12, h=2^-8, tol 1e-5, {elapsed:.1f}s)")


def test_criterion_5_witness_equivalence(line, haar, hat, bspline4, capsys):
    """Each witness from criterion 4 passes the three equivalent relation
    forms with exactly zero residual; the unnormalized mask has no witness
    so it is vacuous here."""
    t, dil = line
    sample = [t.translation((k,)) for k in range(-5, 6)]
    ok = True
    for mask, p_max in ((haar, 2), (hat, 3), (bspline4, 5)):
        cert = max_accuracy(mask, t, dil, p_max=p_max)
        rep = verify_equivalence(mask, dil, cert.witness, sample)
        ok = (ok and rep.passed and rep.max_residual_d == 0
              and rep.max_residual_b == 0 and rep.max_residual_c == 0)
    _announce(capsys, 5, ok, "witness relations exactly zero at sigma in "
                     "{tau_-5..tau_5} and all digits, s < p")


def _normalized_p1m_mask(triple, dilation, rng, p):
    """Random rational mask over the point-symmetric 1D triple built to
    satisfy the coefficient sum rule and equal per-coset moments below p.

    Values are drawn per (point part b, translation l) for the inverse
    indexing the moments use, then stored at the inverse element, so the
    designated slots can be solved exactly: one slot per coset fixes the
    sum (p=1), two slots fix sum and first moment (p=2).
    """
    t0 = {0: rand_fraction(rng)}
    t0[1] = 1 - t0[0]
    t1 = {0: rand_fraction(rng), 1: rand_fraction(rng)}
    vals = {}
    for b in (0, 1):
        for l in range(-2, 3):
            vals[(b, l)] = rand_fraction(rng)
        if p == 1:
            vals[(b, 0)] = t0[b] - vals[(b, -2)] - vals[(b, 2)]
            vals[(b, 1)] = t0[b] - vals[(b, -1)]
        else:
            vals[(b, 2)] = (t1[b] + 2 * vals[(b, -2)]) / 2
            vals[(b, 0)] = t0[b] - vals[(b, -2)] - vals[(b, 2)]
            vals[(b, 1)] = (t0[b] + t1[b]) / 2
            vals[(b, -1)] = (t0[b] - t1[b]) / 2
    entries = {}
    for (b, l), c in vals.items():
        entries[inverse(triple.element(b, (l,)))] = c
    return Mask.scalar(triple, entries)


def test_criterion_6_sufficient_implies_solver(p1m, capsys):
    """Over 50 seeded random masks normalized to the sum rules, a passing
    sufficiency report is never contradicted by the exact solver."""
    t, dil = p1m
    rng = random.Random(60321)
    counterexamples = 0
    passed_count = 0
    for idx in range(50):
        p = 1 if idx < 25 else 2
        mask = _normalized_p1m_mask(t, dil, rng, p)
        rep = sufficient_check(mask, t, dil, p)
        if not rep.passed:
            continue
        passed_count += 1
        cert = max_accuracy(mask, t, dil, p_max=p)
        if cert.p < p:
            counterexamples += 1
    ok = counterexamples == 0 and passed_count >= 40
    _announce(capsys, 6, ok, f"sufficient => solver on 50 seeded masks: "
                     f"{passed_count} passed sufficiency, "
                     f"{counterexamples} counterexamples")


def test_criterion_7_lift_accuracy_cross_check(pm, capsys):
    """Scalar accuracy equals the accuracy of the symmetry lift over the
    bare lattice for 10 seeded random masks plus a designed accuracy-2
    fixture; the lift round-trips exactly."""
    t, dil = pm
    rng = random.Random(70811)

    def random_pm_mask():
        while True:
            entries = {}
            total = Fraction(0)
            for g in (0, 1):
                for k1 in (-1, 0, 1):
                    for k2 in (-1, 0, 1):
                        c = rand_fraction(rng)
                        entries[(g, (k1, k2))] = c
                        total += c
            if total != 0:
                scale = Fraction(4) / total
                return Mask.scalar(
                    t, {key: c * scale for key, c in entries.items()})

    half = Fraction(1, 2)
    hat1 = {-1: half, 0: Fraction(1), 1: half}
    designed = Mask.scalar(
        t, {(g, (k1, k2)): half * hat1[k1] * hat1[k2]
            for g in (0, 1) for k1 in (-1, 0, 1) for k2 in (-1, 0, 1)})

    ok = True
    designed_p = None
    masks = [random_pm_mask() for _ in range(10)] + [designed]
    for i, mask in enumerate(masks):
        cert_scalar = max_accuracy(mask, t, dil, p_max=3)
        lifted = lift_scalar_to_matrix(mask, dil)
        lat = lifted.triple
        lat_dil = check_admissible(Mat.from_rows([[2, 0], [0, 2]]), lat)
        cert_matrix = max_accuracy(lifted, lat, lat_dil, p_max=3)
        ok = ok and cert_scalar.p == cert_matrix.p
        back = extract_scalar(lifted, t, dil)
        ok = ok and back == mask
        ok = ok and lift_scalar_to_matrix(back, dil) == lifted
        if i == len(masks) - 1:
            designed_p = cert_scalar.p
    ok = ok and designed_p == 2
    _announce(capsys, 7, ok, "scalar vs lifted accuracy equal on 10 seeded pm "
                     f"masks; designed fixture p={designed_p}; round trips "
                     "exact")


def test_criterion_8_refinement_fixed_point(line, haar, hat, capsys):
    """The cascade output satisfies the refinement equation at the nodes
    and its reproduction sums are dilation covariant."""
    t, dil = line
    ok = True
    fields = {}
    for name, mask in (("hat", hat), ("haar", haar)):
        res = cascade_iterate(mask, t, dil, iterations=12, grid_exponent=8)
        ok = ok and res.converged
        ok = ok and refinement_residual(res.field, mask, dil) < 1e-6
        fields[name] = res.field
    for name, mask, degrees in (("hat", hat, (0, 1)), ("haar", haar, (0,))):
        field = fields[name]
        cert = max_accuracy(mask, t, dil, p_max=len(degrees))
        v = tuple(b.np() for b in cert.witness.blocks)
        pts = sample_points(field, count=16)
        for s in degrees:
            left, ex1 = reproduction_values(field, v, s, 2.0 * pts)
            right, ex2 = reproduction_values(field, v, s, pts)
            keep = ~(ex1 | ex2)
            ok = ok and keep.any()
            gap = float(np.max(np.abs(left[keep] - (2.0 ** s) * right[keep])))
            ok = ok and gap < 1e-5
    _announce(capsys, 8, ok, "refinement residual < 1e-6 at nodes; dilation "
                     "covariance of reproduction sums within 1e-5")
