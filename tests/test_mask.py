"""Mask construction, the transfer matrix, and the scalar/matrix lift."""

from fractions import Fraction

import pytest

from crystacc.crystal import compose, elements_in_ball, inverse
from crystacc.linalg import Mat, QC
from crystacc.mask import (Mask, MaskShapeError, check_gamma_A_symmetry,
                           coefficient, extract_scalar, l2_budget,
                           lattice_triple, lift_scalar_to_matrix,
                           transfer_entry)

from conftest import rand_fraction


def test_scalar_key_forms_agree(line):
    """Element, (g, k) pair, lattice tuple, and bare int all address the
    same coefficient slot."""
    t, _ = line
    val = Fraction(2, 7)
    variants = [
        Mask.scalar(t, {t.translation((1,)): val}),
        Mask.scalar(t, {(0, (1,)): val}),
        Mask.scalar(t, {(1,): val}),
        Mask.scalar(t, {1: val}),
    ]
    for m in variants[1:]:
        assert m == variants[0]


def test_scalar_value_parsing(line):
    t, _ = line
    m = Mask.scalar(t, {0: "1/3", 1: Fraction(1, 6), 2: 1})
    assert m.float_change is None
    assert m.block(t.translation((0,))).entry(0, 0) == QC(Fraction(1, 3))
    assert m.block(t.translation((2,))).entry(0, 0) == QC(1)


def test_float_value_is_read_as_a_rational(line):
    """A float value is read by the reading rule: the mask is exact, equal
    to its exact copy, and records the largest relative change."""
    t, _ = line
    m = Mask.scalar(t, {0: 0.5, 1: Fraction(1, 2), 2: 1 / 3})
    assert m == Mask.scalar(t, {0: "1/2", 1: "1/2", 2: "1/3"})
    for _, blk in m.items():
        assert isinstance(blk.entry(0, 0), QC)
    change = abs(Fraction(1, 3) - Fraction(1 / 3)) / Fraction(1 / 3)
    assert m.float_change == pytest.approx(float(change), rel=1e-12)
    assert 0 < m.float_change < 2 ** -53
    assert Mask.scalar(t, {0: 0.5, 1: 0.25}).float_change == 0.0
    assert m.to_float() == m
    with pytest.raises(ValueError):
        Mask.scalar(t, {0: float("nan")})


def test_float_part_of_a_pair_is_read_alone(line):
    """An (re, im) pair with one float part keeps its exact part exact;
    float_change covers the float part only."""
    t, _ = line
    m = Mask.scalar(t, {0: ("1/1234567", 1 / 3), 1: ["1/3", 0.5]})
    assert m.block(t.translation((0,))).entry(0, 0) == \
        QC(Fraction(1, 1234567), Fraction(1, 3))
    assert m.block(t.translation((1,))).entry(0, 0) == \
        QC(Fraction(1, 3), Fraction(1, 2))
    assert 0 < m.float_change < 2 ** -53
    assert Mask.scalar(t, {0: ("1/1234567", 0.5)}).float_change == 0.0


def test_support_canonical_order(p1m):
    t, _ = p1m
    m = Mask.scalar(t, {(1, (0,)): 1, (0, (2,)): 2, (0, (-1,)): 3})
    keys = [(e.g, e.k) for e in m.support()]
    assert keys == [(0, (-1,)), (0, (2,)), (1, (0,))]


def test_absent_coefficient_is_zero(line, haar):
    t, _ = line
    far = t.translation((9,))
    assert haar.block(far) is None
    assert coefficient(haar, far) == Mat.zeros(1, 1)


def test_mask_shape_validation(line, pm):
    t, _ = line
    with pytest.raises(MaskShapeError):
        Mask(t, {})
    with pytest.raises(MaskShapeError):
        Mask(t, {t.translation((0,)): Mat.from_rows([[1, 2]])})
    u, _ = pm
    with pytest.raises(MaskShapeError):
        Mask(t, {u.translation((0, 0)): Mat.identity(1)})
    mixed = {t.translation((0,)): Mat.identity(1),
             t.translation((1,)): Mat.identity(2)}
    with pytest.raises(MaskShapeError):
        Mask(t, mixed)
    with pytest.raises(MaskShapeError):
        Mask(t, {t.translation((0,)): Mat.identity(2)}, r=1)


def test_equality_treats_missing_blocks_as_zero(line):
    t, _ = line
    a = Mask.scalar(t, {0: 1, 5: 0})
    b = Mask.scalar(t, {0: 1})
    assert a == b
    assert Mask.scalar(t, {0: 1, 5: Fraction(1, 9)}) != b


def test_haar_transfer_entries(line, haar):
    t, dil = line
    tau = t.translation
    one = Mat.identity(1)
    zero = Mat.zeros(1, 1)
    assert transfer_entry(haar, tau((0,)), tau((0,)), dil) == one
    assert transfer_entry(haar, tau((1,)), tau((1,)), dil) == one
    assert transfer_entry(haar, tau((1,)), tau((2,)), dil) == one
    assert transfer_entry(haar, tau((0,)), tau((-1,)), dil) == one
    for gk, sk in [((0,), (1,)), ((0,), (2,)), ((1,), (0,)),
                   ((2,), (1,)), ((1,), (3,))]:
        assert transfer_entry(haar, tau(gk), tau(sk), dil) == zero


@pytest.mark.parametrize("mask_name", ["haar", "hat"])
def test_transfer_column_locality(line, mask_name, request):
    """For fixed gamma the nonzero transfer entries sit exactly at
    sigma = alpha^{-1} (A gamma A^{-1}) with alpha in the support."""
    t, dil = line
    mask = request.getfixturevalue(mask_name)
    zero = Mat.zeros(1, 1)
    for gamma in elements_in_ball(t, 2):
        predicted = {compose(inverse(alpha), dil.conj(gamma))
                     for alpha in mask.support()}
        for sigma in elements_in_ball(t, 4):
            nz = transfer_entry(mask, gamma, sigma, dil) != zero
            assert nz == (sigma in predicted)


def test_lift_sym_hat_blocks(p1m, sym_hat):
    """The point-symmetric hat lifts to constant 2x2 blocks 1/4, 1/2, 1/4
    at lattice points -1, 0, 1."""
    _, dil = p1m
    lifted = lift_scalar_to_matrix(sym_hat, dil)
    assert lifted.r == 2
    assert lifted.triple.order == 1
    assert [e.k for e in lifted.support()] == [(-1,), (0,), (1,)]
    expected = {(-1,): Fraction(1, 4), (0,): Fraction(1, 2),
                (1,): Fraction(1, 4)}
    for e, blk in lifted.items():
        c = QC(expected[e.k])
        for i in range(2):
            for j in range(2):
                assert blk.entry(i, j) == c


def test_lift_input_checks(line, p1m, sym_hat, haar):
    _, dil1 = p1m
    lifted = lift_scalar_to_matrix(sym_hat, dil1)
    with pytest.raises(MaskShapeError):
        lift_scalar_to_matrix(lifted, dil1)
    _, other_dil = line
    with pytest.raises(MaskShapeError):
        lift_scalar_to_matrix(sym_hat, other_dil)
    with pytest.raises(MaskShapeError):
        lift_scalar_to_matrix(haar, dil1)


def test_lift_zero_mask_raises(p1m):
    t, dil = p1m
    zero = Mask.scalar(t, {(0, (0,)): 0, (1, (1,)): 0})
    with pytest.raises(MaskShapeError):
        lift_scalar_to_matrix(zero, dil)


def test_lifted_mask_has_symmetry(p1m, sym_hat):
    _, dil = p1m
    lifted = lift_scalar_to_matrix(sym_hat, dil)
    assert check_gamma_A_symmetry(lifted, dil)


def test_perturbed_lift_fails_symmetry(p1m, sym_hat):
    _, dil = p1m
    lifted = lift_scalar_to_matrix(sym_hat, dil)
    blocks = dict(lifted.items())
    e0 = lifted.support()[0]
    blk = blocks[e0]
    rows = [[blk.entry(i, j) for j in range(2)] for i in range(2)]
    rows[1][0] = rows[1][0] + QC(1)
    blocks[e0] = Mat.from_rows(rows)
    assert not check_gamma_A_symmetry(Mask(lifted.triple, blocks), dil)
    with pytest.raises(MaskShapeError):
        check_gamma_A_symmetry(Mask.scalar(lifted.triple, {(0,): 1}), dil)


def test_extract_refuses_a_matrix_mask_that_is_no_lift(p1m, sym_hat):
    """One row-1 entry of the lift changed by 1/7: the first rows alone
    would extract a scalar mask whose lift is a different mask."""
    t, dil = p1m
    lifted = lift_scalar_to_matrix(sym_hat, dil)
    blocks = dict(lifted.items())
    e0 = lifted.support()[0]
    rows = [blocks[e0].row_list(i) for i in range(2)]
    rows[1][0] = rows[1][0] + QC(Fraction(1, 7))
    blocks[e0] = Mat.from_rows(rows)
    perturbed = Mask(lifted.triple, blocks)
    assert not check_gamma_A_symmetry(perturbed, dil)
    with pytest.raises(MaskShapeError, match=r"entry \(1, 0\) at lattice "
                       rf"point \[{e0.k[0]}\]"):
        extract_scalar(perturbed, t, dil)


def _random_scalar_mask(triple, rng, radius=2):
    entries = {}
    for g in range(triple.order):
        for e in elements_in_ball(triple, radius):
            if e.g == 0:
                entries[(g, e.k)] = rand_fraction(rng)
    entries[(0, (0,) * triple.d)] = Fraction(1)
    return Mask.scalar(triple, entries)


@pytest.mark.parametrize("fixture", ["p1m", "pm"])
def test_extract_inverts_lift(fixture, rng, request):
    t, dil = request.getfixturevalue(fixture)
    for _ in range(25):
        mask = _random_scalar_mask(t, rng)
        lifted = lift_scalar_to_matrix(mask, dil)
        assert extract_scalar(lifted, t, dil) == mask


def test_lift_inverts_extract(p1m, sym_hat):
    t, dil = p1m
    lifted = lift_scalar_to_matrix(sym_hat, dil)
    again = lift_scalar_to_matrix(extract_scalar(lifted, t, dil), dil)
    assert again == lifted


def test_extract_shape_errors(line, p1m, sym_hat):
    t, dil = p1m
    lifted = lift_scalar_to_matrix(sym_hat, dil)
    t1, dil1 = line
    with pytest.raises(MaskShapeError):
        extract_scalar(lifted, t1, dil1)
    off_lattice = Mask(t, {t.element(1, (0,)): Mat.identity(2)})
    with pytest.raises(MaskShapeError):
        extract_scalar(off_lattice, t, dil)


def test_l2_budget(haar, hat, sym_hat, p1m):
    assert not l2_budget(haar, 2)
    assert l2_budget(hat, 2)
    assert l2_budget(sym_hat, 2)
    _, dil = p1m
    lifted = lift_scalar_to_matrix(sym_hat, dil)
    with pytest.raises(MaskShapeError):
        l2_budget(lifted, 2)


def test_l2_budget_float_coefficients(line):
    t, _ = line
    assert l2_budget(Mask.scalar(t, {0: 0.5, 1: 1.0, 2: 0.5}), 2)
    assert not l2_budget(Mask.scalar(t, {0: 1.2, 1: 1.0}), 2)
