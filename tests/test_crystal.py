"""Crystal triples, element arithmetic, admissible dilations and digits."""

import random
import re
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from crystacc.crystal import (MAX_GROUP_ORDER, AdmissibilityError, Dilation,
                              GroupValidationError, apply_element, catalog_names, catalog_triple,
                              check_admissible, compose, elements_in_ball,
                              generate_group, inverse, validate_triple)
from crystacc import linalg
from crystacc.linalg import Mat, QC, det
from crystacc.mask import Mask

from conftest import _leibniz_det, rand_point


def integer_rows(m):
    """Entries of m as nested int lists when every entry is a real
    integer; None otherwise."""
    rows = [m.row_list(i) for i in range(m.rows)]
    if any(x.im != 0 or x.re.denominator != 1 for row in rows for x in row):
        return None
    return [[int(x.re) for x in row] for row in rows]


def test_catalog_contents():
    assert set(catalog_names(1)) == {"p1", "p1m"}
    assert "pm" in catalog_names(2)
    assert "p4m" in catalog_names(2)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_p1_is_in_the_catalog_in_every_dimension(d):
    """p1, the identity alone on Z^d, is a catalog group in every
    dimension from 1 up, and in no dimension below."""
    assert "p1" in catalog_names(d)
    t = catalog_triple("p1", d)
    assert t.order == 1 and t.d == d and t.group == [Mat.identity(d)]
    assert t.R == Mat.identity(d) and t.name == "p1"
    assert catalog_names(3) == ["p1"] and "p1" in catalog_names()
    assert catalog_names(0) == []
    with pytest.raises(GroupValidationError, match="unknown catalog group"):
        catalog_triple("p1", 0)
    with pytest.raises(GroupValidationError, match="unknown catalog group"):
        catalog_triple("pm", 3)


def test_validate_pm():
    s = Mat.from_rows([[1, 0], [0, -1]])
    t = validate_triple(Mat.identity(2), [Mat.identity(2), s], "pm")
    assert t.order == 2


def test_validate_trivial_group():
    r = Mat.from_rows([[2, 1], [0, 3]])
    t = validate_triple(r, [Mat.identity(2)], "p1")
    assert t.order == 1


def test_validate_rejects_lattice_mismatch():
    """A 90-degree rotation does not preserve the rectangular lattice."""
    rot = Mat.from_rows([[0, -1], [1, 0]])
    r = Mat.from_rows([[1, 0], [0, 2]])
    with pytest.raises(GroupValidationError):
        validate_triple(r, [Mat.identity(2), rot], "bad")


def test_validate_rejects_nonorthogonal():
    shear = Mat.from_rows([[1, 1], [0, 1]])
    with pytest.raises(GroupValidationError):
        validate_triple(Mat.identity(2), [Mat.identity(2), shear], "bad")


def test_wrong_size_generator_names_its_size():
    """A point element of the wrong size is reported as such, not as a
    missing identity."""
    with pytest.raises(GroupValidationError, match="point element 0 is not "
                       "a real exact 2x2 matrix"):
        validate_triple(Mat.identity(2), [Mat.from_rows([[1]])])


def test_p4m_doubling_inverts_each_matrix_once(monkeypatch):
    """Building p4m with A = 2I inverts R, A and M = R^{-1} A R once each,
    and these three eliminations also give every determinant: the triple
    and the dilation reuse what validation computed."""
    eliminated = []
    original = linalg._rref

    def counting(rows, n_cols, with_det=False):
        eliminated.append((len(rows), n_cols))
        return original(rows, n_cols, with_det)

    monkeypatch.setattr(linalg, "_rref", counting)
    t = catalog_triple("p4m", 2)
    dil = check_admissible(Mat.from_rows([[2, 0], [0, 2]]), t)
    assert eliminated == [(2, 4)] * 3
    assert t.R_inv == Mat.identity(2)
    assert dil.A_inv == Mat.identity(2).scale(QC(Fraction(1, 2)))


def test_compose_pm_example(pm):
    t, _ = pm
    # S is the reflection fixing the x-axis; catalog index 1
    left = t.element(1, (0, 1))
    right = t.element(1, (1, 2))
    out = compose(left, right)
    assert out.g == 0 and out.k == (1, 1)


def test_inverse_pm_example(pm):
    t, _ = pm
    gamma = t.element(1, (1, 2))
    inv = inverse(gamma)
    assert inv.g == 1 and inv.k == (-1, 2)
    assert compose(inv, gamma) == t.identity()


def test_compose_identity(pm, rng):
    t, _ = pm
    for _ in range(10):
        gamma = t.element(rng.randrange(t.order),
                          (rng.randint(-5, 5), rng.randint(-5, 5)))
        assert compose(t.identity(), gamma) == gamma
        assert compose(gamma, t.identity()) == gamma


def test_apply_matches_composition(pm, rng):
    """Composition law agrees with pointwise map evaluation."""
    t, _ = pm
    for _ in range(50):
        a = t.element(rng.randrange(t.order),
                      (rng.randint(-4, 4), rng.randint(-4, 4)))
        b = t.element(rng.randrange(t.order),
                      (rng.randint(-4, 4), rng.randint(-4, 4)))
        x = rand_point(rng, 2)
        via_compose = apply_element(compose(a, b), x)
        via_maps = apply_element(a, apply_element(b, x))
        assert via_compose == via_maps


def test_group_axioms(pm, rng):
    t, _ = pm
    elems = [t.element(rng.randrange(t.order),
                       (rng.randint(-3, 3), rng.randint(-3, 3)))
             for _ in range(200)]
    ident = t.identity()
    for i in range(0, 200, 3):
        a, b, c = elems[i], elems[(i + 7) % 200], elems[(i + 13) % 200]
        assert compose(compose(a, b), c) == compose(a, compose(b, c))
        assert compose(a, inverse(a)) == ident
        assert compose(inverse(a), a) == ident


def test_admissible_pm(pm):
    t, dil = pm
    assert dil.m == 4
    assert list(dil.h) == list(range(t.order))  # 2I commutes with G
    digit_ks = {e.k for e in dil.digits}
    assert digit_ks == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert all(e.g == 0 for e in dil.digits)


def test_inadmissible_identity(pm):
    t, _ = pm
    with pytest.raises(AdmissibilityError):
        check_admissible(Mat.identity(2), t)


def test_inadmissible_eigenvalue_one(pm):
    t, _ = pm
    with pytest.raises(AdmissibilityError):
        check_admissible(Mat.from_rows([[1, 0], [0, 2]]), t)


def test_sheared_dilations_at_the_edge_of_the_expansive_test():
    """[[2, b], [0, 2]] is expansive for every b, and the norm of A^{-64}
    is about b / 2^59: the exact test certifies b = 10^17 and refuses
    b = 10^18, naming its criterion."""
    t = catalog_triple("p1", 2)
    assert check_admissible(Mat.from_rows([[2, 10 ** 17], [0, 2]]), t).m == 4
    with pytest.raises(AdmissibilityError, match="not certified expansive"):
        check_admissible(Mat.from_rows([[2, 10 ** 18], [0, 2]]), t)


@seed(2026)
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_expansive_decision_against_float_eigenvalues(data):
    """Integer A with d = 2, 3 and entries in [-4, 4], on Z^d with the
    trivial point group: the exact test accepts every A whose eigenvalues
    all have modulus above 1.05, and refuses every A with an eigenvalue
    of modulus at most 1.  numpy's eigenvalues are the reference."""
    d = data.draw(st.integers(2, 3))
    rows = data.draw(st.lists(
        st.lists(st.integers(-4, 4), min_size=d, max_size=d),
        min_size=d, max_size=d))
    smallest = np.min(np.abs(np.linalg.eigvals(np.array(rows, dtype=float))))
    assume(not 1 < smallest <= 1.05)
    t = validate_triple(Mat.identity(d), [Mat.identity(d)])
    try:
        check_admissible(Mat.from_rows(rows), t)
        accepted = True
    except AdmissibilityError:
        accepted = False
    assert accepted == (smallest > 1.05)


def test_digits_1d(line):
    t, dil = line
    assert dil.m == 2
    assert [e.k for e in dil.digits] == [(0,), (1,)]


@pytest.mark.parametrize("rows,digits", [
    ([[2]], [(0,), (1,)]),
    ([[3]], [(0,), (1,), (2,)]),
    ([[-2]], [(0,), (-1,)]),
    ([[2, 0], [0, 2]], [(0, 0), (0, 1), (1, 0), (1, 1)]),
    ([[3, 0], [0, 3]], [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
                        (2, 0), (2, 1), (2, 2)]),
    ([[1, -1], [1, 1]], [(0, 0), (0, 1)]),
    ([[0, 2], [1, 0]], [(0, 0), (1, 0)]),
])
def test_digit_lists_of_common_dilations(rows, digits):
    """Digit order fixes the coset numbering of every report: these lists
    are pinned."""
    t = catalog_triple("p1", len(rows))
    dil = check_admissible(Mat.from_rows(rows), t)
    assert list(dil.lattice_digits) == digits
    assert [e.k for e in dil.digits] == digits


def _bare_dilation(rows) -> Dilation:
    """Digit data of an integer matrix on Z^d with the trivial point
    group; admissibility (expansiveness) is not checked."""
    d = len(rows)
    t = validate_triple(Mat.identity(d), [Mat.identity(d)])
    m_mat = Mat.from_rows(rows)
    return Dilation(t, m_mat, m_mat.inverse(), rows, (0,),
                    det(m_mat))


def test_sheared_dilation_digits_take_no_box_scan():
    """The box around M[0,1)^2 holds about 2·10^9 lattice points; the
    digits come from d·m residues instead."""
    dil = _bare_dilation([[1, 10 ** 9], [0, 2]])
    assert dil.lattice_digits == ((0, 0), (5 * 10 ** 8, 1))
    assert dil.residue((10 ** 9 + 3, 1)) == (5 * 10 ** 8, 1)


def _in_unit_cell(m_inv, k) -> bool:
    """Whether M^{-1} k lies in [0, 1)^d, in exact rationals."""
    return all(0 <= sum(row[j] * k[j] for j in range(len(k))) < 1
               for row in m_inv)


@seed(2026)
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_digits_are_the_lattice_points_of_the_unit_parallelepiped(data):
    """For nonsingular integer M (d = 1..3, entries in [-5, 5]): |det M|
    digits, every residue in M[0,1)^d and congruent to its argument
    modulo M·Z^d, residue idempotent, and the digit set equal to a
    brute-force scan of the box around M[0,1)^d."""
    d = data.draw(st.integers(1, 3))
    rows = data.draw(st.lists(
        st.lists(st.integers(-5, 5), min_size=d, max_size=d),
        min_size=d, max_size=d).filter(
            lambda m: det(Mat.from_rows(m)) != 0))
    dil = _bare_dilation(rows)
    m_inv = [[x.re for x in dil.M_inv.row_list(i)] for i in range(d)]
    assert len(dil.digits) == dil.m == abs(det(dil.M_mat))
    assert dil.lattice_digits[0] == (0,) * d
    assert list(dil.lattice_digits[1:]) == sorted(dil.lattice_digits[1:])
    for _ in range(5):
        k = tuple(data.draw(st.integers(-60, 60)) for _ in range(d))
        res = dil.residue(k)
        assert _in_unit_cell(m_inv, res)
        diff = Mat.column([a - b for a, b in zip(k, res)])
        assert integer_rows(dil.M_inv @ diff) is not None
        assert dil.residue(res) == res
        assert dil.lattice_digits[dil.translation_coset(k)] == res
    # reference: every lattice point of the box spanned by the corners
    # M·{0,1}^d, kept when it lies in M[0,1)^d
    box = [range(sum(min(0, x) for x in row), sum(max(0, x) for x in row) + 1)
           for row in rows]
    scan = {k for k in product(*box) if _in_unit_cell(m_inv, k)}
    assert set(dil.lattice_digits) == scan


def test_coset_index_examples(line, pm):
    t, dil = line
    for i, e in enumerate(dil.digits):
        assert dil.coset_index(e) == i
    tau5 = t.element(0, (5,))
    tau1 = t.element(0, (1,))
    assert dil.coset_index(tau5) == dil.coset_index(tau1)

    t2, dil2 = pm
    s_elem = t2.element(1, (1, 0))
    digit_idx = next(i for i, e in enumerate(dil2.digits) if e.k == (1, 0))
    assert dil2.coset_index(s_elem) == digit_idx


def test_digit_partition_of_ball(pm):
    """Digit cosets are disjoint and cover a truncated ball of elements."""
    t, dil = pm
    ball = [t.element(g, k) for g in range(t.order)
            for k in product(range(-3, 4), repeat=2)]
    assert len(ball) == 2 * 49
    for e in ball:
        hits = []
        for i, digit in enumerate(dil.digits):
            # same coset iff digit^{-1} e in A Gamma A^{-1}
            rel = compose(inverse(digit), e)
            if dil.deconj(rel) is not None:
                hits.append(i)
        assert len(hits) == 1
        assert hits[0] == dil.coset_index(e)


def test_conj_examples(pm):
    t, dil = pm
    assert dil.conj(t.identity()) == t.identity()
    tau = t.element(0, (3, -2))
    assert dil.conj(tau) == t.element(0, (6, -4))
    s_elem = t.element(1, (1, 0))
    assert dil.conj(s_elem) == t.element(1, (2, 0))


def test_conj_deconj_roundtrip(pm, rng):
    t, dil = pm
    for _ in range(30):
        gamma = t.element(rng.randrange(t.order),
                          (rng.randint(-5, 5), rng.randint(-5, 5)))
        assert dil.deconj(dil.conj(gamma)) == gamma
    # elements outside the conjugated copy deconjugate to nothing
    assert dil.deconj(t.element(0, (1, 0))) is None


def test_coset_index_invariant_under_right_conj(pm, rng):
    """coset_index(gamma . A sigma A^{-1}) = coset_index(gamma)."""
    t, dil = pm
    for _ in range(30):
        gamma = t.element(rng.randrange(t.order),
                          (rng.randint(-4, 4), rng.randint(-4, 4)))
        sigma = t.element(rng.randrange(t.order),
                          (rng.randint(-4, 4), rng.randint(-4, 4)))
        assert dil.coset_index(compose(gamma, dil.conj(sigma))) == \
            dil.coset_index(gamma)


def test_point_parts_preserve_dilated_lattice(pm):
    """M^{-1} (R^{-1} b R) M stays integer for every point part b."""
    t, dil = pm
    m_mat = dil.M_mat
    m_inv = m_mat.inverse()
    for i in range(t.order):
        b_int = Mat.from_rows([[QC(x) for x in row]
                               for row in t.int_reps[i]])
        prod = m_inv @ b_int @ m_mat
        for a in range(t.d):
            for b in range(t.d):
                assert type(prod.entry(a, b)) is int


def test_h_and_rho_are_permutations():
    t = catalog_triple("p4m", 2)
    dil = check_admissible(Mat.from_rows([[2, 0], [0, 2]]), t)
    assert sorted(dil.h) == list(range(t.order))
    for row in dil.rho:
        assert sorted(row) == list(range(t.order))


def _mat_tables(t):
    """product_table and inverse_table as they were built before the
    integer tables: QC Mat products, found by a linear search."""
    def find(m):
        return next(i for i, g in enumerate(t.group) if g == m)

    products = [[find(a @ b) for b in t.group] for a in t.group]
    ident = Mat.identity(t.d)
    inverses = [next(j for j in range(t.order)
                     if t.group[products[i][j]] == ident)
                for i in range(t.order)]
    return products, inverses


def _mat_h(A, t):
    """The permutation h with g_h(i) = A g_i A^{-1}, from QC Mat products
    as check_admissible found it before; None when a conjugate leaves
    the group."""
    A_inv = A.inverse()
    h = [next((j for j, gj in enumerate(t.group) if gj == A @ g @ A_inv),
              None) for g in t.group]
    return None if None in h else tuple(h)


def _oh_group():
    """The order-48 cubic point group, generated by the quarter turns
    about two axes and the inversion."""
    return generate_group([Mat.from_rows([[1, 0, 0], [0, 0, -1], [0, 1, 0]]),
                           Mat.from_rows([[0, 0, 1], [0, 1, 0], [-1, 0, 0]]),
                           Mat.identity(3).scale(-1)])


QUINCUNX_ROWS = [[1, 1], [1, -1]]
ROTATION_ROWS = [[1, -1], [1, 1]]
TABLE_CASES = (
    [(f"{name}-{d}d", d, name, None) for d in (1, 2)
     for name in catalog_names(d)]
    + [("pm-scaled", 2, "pm", [[Fraction(1, 2), 0], [0, Fraction(1, 3)]]),
       ("p2-sheared", 2, "p2", [[1, Fraction(1, 2)], [0, 1]]),
       ("p4m-half", 2, "p4m", [[Fraction(1, 2), 0], [0, Fraction(1, 2)]]),
       ("Oh", 3, "Oh", None)])


@pytest.mark.parametrize("case", TABLE_CASES, ids=lambda c: c[0])
def test_integer_group_tables_equal_the_mat_built_ones(case):
    """The product, inverse and conjugation tables read off the integer
    matrices R^{-1} g R equal the ones built from exact Mat products,
    on every catalog group, on scaled and sheared lattices and on a
    generated Oh; a dilation whose conjugates leave the group is
    refused by both."""
    _, d, name, lattice = case
    if name == "Oh":
        t = validate_triple(Mat.identity(3), _oh_group(), name="Oh")
    else:
        t = catalog_triple(name, d)
        if lattice is not None:
            t = validate_triple(Mat.from_rows(lattice), t.group, name=name)
    assert (t.product_table, t.inverse_table) == _mat_tables(t)
    dilations = {1: [[[2]], [[3]], [[-2]]],
                 2: [[[2, 0], [0, 2]], QUINCUNX_ROWS, [[2, 1], [0, 2]]],
                 3: [[[2, 0, 0], [0, 2, 0], [0, 0, 2]],
                     [[-3, 0, 0], [0, -3, 0], [0, 0, -3]]]}[d]
    for rows in dilations:
        A = Mat.from_rows(rows)
        want = _mat_h(A, t)
        if integer_rows(t.R_inv @ A @ t.R) is None:
            continue
        if want is None:
            with pytest.raises(AdmissibilityError, match="outside the group"):
                check_admissible(A, t)
        else:
            assert check_admissible(A, t).h == want


def _qc_outcome(R, group, A):
    """What validate_triple and check_admissible found by QC eliminations
    (det and Mat.inverse), checked in their order: the message of the
    first refusal, or (R^{-1}, A^{-1}, M^{-1}, adj M, det M).  Each
    determinant is also checked against the permutation expansion."""
    assert det(R) == _leibniz_det(R.plain()) \
        and det(A) == _leibniz_det(A.plain())
    if det(R) == 0:
        return "lattice basis is singular"
    R_inv = R.inverse()
    if any(integer_rows(R_inv @ g @ R) is None for g in group):
        return "does not preserve the lattice"
    if det(A) == 0:
        return "dilation is singular"
    A_inv = A.inverse()
    power, n = A_inv, 1
    while max(sum(abs(x.re) for x in power.row_list(i))
              for i in range(power.rows)) >= 1:
        if n == 64:
            return "not certified expansive"
        power, n = power @ power, 2 * n
    M = R_inv @ A @ R
    if integer_rows(M) is None:
        return "does not map the lattice into itself"
    if any(A @ g @ A_inv not in group for g in group):
        return "outside the group"
    det_m = int(det(A))
    M_inv = M.inverse()
    return R_inv, A_inv, M_inv, integer_rows(M_inv.scale(QC(det_m))), det_m


FIXED_LATTICES = {1: [[[Fraction(1, 3)]], [[-2]]],
                  2: [[[Fraction(1, 2), 0], [0, Fraction(1, 3)]],
                      [[1, Fraction(1, 2)], [0, 1]],
                      [[Fraction(1, 2), 0], [0, Fraction(1, 2)]],
                      [[1, 1], [-1, 1]]]}
FIXED_DILATIONS = {1: [[[2]], [[3]], [[-2]], [[1]], [[0]]],
                   2: [[[2, 0], [0, 2]], QUINCUNX_ROWS, [[2, 1], [0, 2]],
                       ROTATION_ROWS, [[1, 0], [0, 2]], [[2, 4], [1, 2]]]}


@pytest.mark.parametrize("d, name", [(d, name) for d in (1, 2)
                                     for name in catalog_names(d)])
@seed(2026)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_plain_inverses_equal_the_qc_eliminations(d, name, data):
    """R^{-1}, A^{-1}, M^{-1}, adj M and det M, each from one elimination
    of plain rows, equal what QC det and Mat.inverse give, on every
    catalog triple over Z^d and over lattices R != I (scaled, sheared,
    rotated and seeded rational ones), for 2I, the quincunx A and seeded
    integer A; a singular lattice basis or dilation, a non-expansive A
    and every other refusal end in the same message at the same check."""
    group = catalog_triple(name, d).group

    def square(entries):
        return st.lists(st.lists(entries, min_size=d, max_size=d),
                        min_size=d, max_size=d)

    identity = [[int(i == j) for j in range(d)] for i in range(d)]
    fraction = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    R = Mat.from_rows(data.draw(st.one_of(
        st.just(identity), st.sampled_from(FIXED_LATTICES[d]),
        square(fraction))))
    A = Mat.from_rows(data.draw(st.one_of(
        st.sampled_from(FIXED_DILATIONS[d]), square(st.integers(-3, 3)))))
    want = _qc_outcome(R, group, A)
    try:
        t = validate_triple(R, group, name)
        dil = check_admissible(A, t)
    except (GroupValidationError, AdmissibilityError) as exc:
        assert isinstance(want, str) and want in str(exc)
        return
    assert (t.R_inv, dil.A_inv, dil.M_inv, dil._adj, dil._det) == want


def test_a_group_that_is_not_closed_is_refused():
    rot = Mat.from_rows([[0, -1], [1, 0]])
    with pytest.raises(GroupValidationError,
                       match="point group is not closed under products"):
        validate_triple(Mat.identity(2), [Mat.identity(2), rot])


def test_elements_in_ball_size(line):
    t, _ = line
    ball = elements_in_ball(t, 3)
    assert len(ball) == 7  # k in -3..3, single point part


def test_generate_group_closure():
    rot = Mat.from_rows([[0, -1], [1, 0]])
    group = generate_group([rot])
    assert len(group) == 4


def test_generate_group_stops_past_the_largest_point_group():
    """The cubic group m-3m, of order MAX_GROUP_ORDER = 48, closes; a
    generator of infinite order is refused once it passes 48 elements."""
    assert MAX_GROUP_ORDER == 48 == len(_oh_group())
    with pytest.raises(GroupValidationError,
                       match="group did not close within 48 elements"):
        generate_group([Mat.from_rows([[2]])])


def test_translation_coset(line):
    _, dil = line
    assert dil.translation_coset((4,)) == 0
    assert dil.translation_coset((-3,)) == 1


@seed(2026)
@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["2I", "quincunx", "sheared"]),
       st.randoms(use_true_random=False))
def test_kept_translation_cosets_match_the_residue(where, rnd):
    """translation_coset, kept per vector on the dilation, gives the digit
    index of the vector's residue, on a first and a repeated call, for
    tuples and lists; it keeps one answer per distinct vector asked for.
    p4m under 2I and under the quincunx [[1, 1], [1, -1]], and pm on a
    sheared lattice under 2I."""
    if where == "sheared":
        t = validate_triple(Mat.from_rows([[1, Fraction(1, 2)], [0, 1]]),
                            catalog_triple("pm", 2).group)
        a = [[2, 0], [0, 2]]
    else:
        t = catalog_triple("p4m", 2)
        a = [[2, 0], [0, 2]] if where == "2I" else [[1, 1], [1, -1]]
    dil = check_admissible(Mat.from_rows(a), t)
    asked = set()
    for _ in range(60):
        k = (rnd.randint(-9, 9), rnd.randint(-9, 9))
        want = dil._digit_index[dil.residue(k)]
        first = dil.translation_coset(k if rnd.random() < 0.5 else list(k))
        assert first == want == dil.translation_coset(k)
        asked.add(k)
    assert dil._cosets == {k: dil._digit_index[dil.residue(k)]
                           for k in asked}


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_apply_element_exactness(pm, seed):
    """Rational points map to rational points with no rounding."""
    t, _ = pm
    rng = random.Random(seed)
    gamma = t.element(rng.randrange(t.order),
                      (rng.randint(-5, 5), rng.randint(-5, 5)))
    x = rand_point(rng, 2)
    y = apply_element(gamma, x)
    # exact rational coordinates
    assert all(type(c) in (int, Fraction) for c in y)
    back = apply_element(inverse(gamma), y)
    assert back == tuple(x)


def test_element_refuses_boolean_and_non_integral_coordinates():
    """A lattice coordinate is read as an int only where it is one: a
    boolean or a non-integral value raises ValueError instead of being
    truncated, and integral values of other types are read as ints."""
    t = catalog_triple("p1", 1)
    for bad in (True, False, 0.5, 1.9, -0.5, Fraction(1, 2), "1"):
        with pytest.raises(ValueError):
            t.element(0, (bad,))
    with pytest.raises(ValueError):
        catalog_triple("p1", 2).translation((1, 2.5))
    for good in (3, np.int64(3), 3.0, Fraction(6, 2)):
        e = t.element(0, (good,))
        assert e == t.element(0, (3,)) and type(e.k[0]) is int


def test_element_refuses_a_point_index_outside_the_group():
    """A point index is an int in range(order): a negative one is not
    read from the end, one past the group does not wait for an
    IndexError, and a boolean, float, numpy int or string is refused, all
    with ValueError; so a library mask keyed by such an index is refused
    before any solver reads it."""
    t = catalog_triple("p1", 1)
    pm_t = catalog_triple("pm", 2)
    for triple in (t, pm_t):
        for bad in (-1, triple.order, 5, True, False, 0.0, np.int64(0),
                    "0", None):
            with pytest.raises(ValueError, match="point index"):
                triple.element(bad, (0,) * triple.d)
        for g in range(triple.order):
            assert triple.element(g, (0,) * triple.d).g == g
    with pytest.raises(ValueError, match="point index"):
        Mask.scalar(t, {(-1, (0,)): 1, 1: 1})


def test_element_refuses_a_lattice_point_of_another_dimension():
    """A lattice point has d coordinates: a shorter or longer one raises
    ValueError, so a library mask keyed by one is refused when it is
    built, not read by the solver as another point (in 2D, (1,) was read
    as (1, 0) and max_accuracy died on a KeyError)."""
    t = catalog_triple("p1", 2)
    for bad in ((), (1,), (1, 0, 0)):
        with pytest.raises(ValueError, match="dimension 2"):
            t.element(0, bad)
    with pytest.raises(ValueError, match="dimension 2"):
        Mask.scalar(t, {(0, (0,)): 1, (0, (1,)): 1, (0, (0, 1)): 1,
                        (0, (1, 1)): 1})
    with pytest.raises(ValueError, match="dimension 1"):
        catalog_triple("p1", 1).translation((0, 0))


@pytest.mark.parametrize("call, exc, message", [
    pytest.param(lambda: validate_triple(Mat.from_rows([[1, 0]]),
                                         [Mat.identity(1)]),
                 GroupValidationError,
                 "lattice basis must be a square exact matrix",
                 id="non-square-lattice"),
    pytest.param(lambda: validate_triple(Mat.identity(2), []),
                 GroupValidationError, "point group is empty",
                 id="empty-group"),
    pytest.param(lambda: validate_triple(Mat.from_rows([[QC(1, 1)]]),
                                         [Mat.identity(1)]),
                 GroupValidationError, "lattice basis must be real",
                 id="complex-lattice"),
    pytest.param(lambda: validate_triple(Mat.identity(1),
                                         [Mat.from_rows([[-1]]),
                                          Mat.identity(1)]),
                 GroupValidationError,
                 "point group must list the identity first",
                 id="identity-not-first"),
    pytest.param(lambda: validate_triple(Mat.identity(1),
                                         [Mat.identity(1),
                                          Mat.identity(1)]),
                 GroupValidationError, "point element 1 is a duplicate",
                 id="duplicate-element"),
    pytest.param(lambda: generate_group([Mat.identity(1), Mat.identity(2)]),
                 GroupValidationError,
                 "generators must be square matrices of one size",
                 id="generators-of-two-sizes"),
    pytest.param(lambda: compose(catalog_triple("p1", 1).identity(),
                                 catalog_triple("p1m", 1).identity()),
                 ValueError, "elements from different triples",
                 id="compose-across-triples"),
    pytest.param(lambda: check_admissible(Mat.identity(2),
                                          catalog_triple("p1", 1)),
                 AdmissibilityError,
                 "dilation must be an exact d x d matrix",
                 id="dilation-of-wrong-shape"),
    pytest.param(lambda: check_admissible(Mat.from_rows([[QC(2, 1)]]),
                                          catalog_triple("p1", 1)),
                 AdmissibilityError, "dilation must be real",
                 id="complex-dilation"),
])
def test_library_refusals(call, exc, message):
    """The library refuses malformed triples, groups, elements and
    dilations with its own exception type and message, where a library
    caller reaches it past the CLI's own checks."""
    with pytest.raises(exc, match=f"^{re.escape(message)}$") as info:
        call()
    assert info.type is exc
