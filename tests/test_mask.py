"""Mask construction and the scalar/matrix lift."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import crystacc.mask as mask_mod
from crystacc.crystal import catalog_triple, elements_in_ball
from crystacc.linalg import Mat, QC, read_float, read_scalar
from crystacc.mask import (Mask, MaskShapeError, PlainCoefficients,
                           check_gamma_A_symmetry, extract_scalar,
                           lattice_triple, lift_scalar_to_matrix)

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


def _qc_read_entry(x, changes):
    """The reading rule as it read every float and complex value before
    the real-only read: both parts through QCs."""
    parts = (x.real, x.imag) if isinstance(x, (float, complex)) else x
    if not (isinstance(parts, (list, tuple))
            and any(isinstance(p, float) for p in parts)):
        return x
    q = QC(*(read_float(p) if isinstance(p, float) else p for p in parts))
    given = QC(*(Fraction(p) if isinstance(p, float) else p for p in parts))
    if not given.is_zero():
        changes.append(float((q - given).abs2() / given.abs2()) ** 0.5)
    return q if q.im != 0 else q.re


def _qc_mask(t, blocks, r):
    """(mask, float_change) of float blocks read by :func:`_qc_read_entry`."""
    changes = []
    mask = Mask(t, {e: [[_qc_read_entry(x, changes) for x in row]
                        for row in blk] for e, blk in blocks.items()}, r=r)
    return mask, max(changes, default=None)


@seed(2026)
@settings(max_examples=40, deadline=None)
@given(st.sampled_from([("p1", 1), ("pm", 2)]), st.sampled_from([1, 2]),
       st.booleans(), st.randoms(use_true_random=False))
def test_float_reads_match_the_qc_path(where, r, real, rnd):
    """Float masks, real (floats, and complex values with a zero
    imaginary part) and complex, read to the same exact mask and the
    same float_change, bit for bit, as through the QC path; so does
    Mask.to_float of an exact mask, real or complex, against its entries'
    Mat.np copy read through the QC path."""
    t = catalog_triple(*where)

    def value():
        x = rnd.choice([rnd.uniform(-2, 2), 1 / rnd.randint(1, 9), 0.0,
                        -0.0, 0.5])
        if real:
            return rnd.choice([x, complex(x, 0.0), complex(x, -0.0)])
        return complex(x, rnd.choice([rnd.uniform(-1, 1), 1 / 3, 0.0]))

    blocks = {}
    for _ in range(rnd.randint(1, 5)):
        e = t.element(rnd.randrange(t.order),
                      [rnd.randint(-2, 2) for _ in range(t.d)])
        blocks[e] = [[value() for _ in range(r)] for _ in range(r)]
    mask = Mask(t, blocks, r=r)
    ref, change = _qc_mask(t, blocks, r)
    assert mask == ref
    assert mask.float_change == change
    assert all(not isinstance(x, QC) or x.im != 0
               for _, blk in mask.items() for row in blk.plain() for x in row)
    exact = Mask(t, {e: [[Fraction(rnd.randint(-9, 9), rnd.randint(1, 7))
                          if real else QC(rand_fraction(rnd),
                                          rand_fraction(rnd))
                          for _ in range(r)] for _ in range(r)]
                     for e in blocks}, r=r)
    floats = exact.to_float()
    ref, change = _qc_mask(t, {e: b.np().tolist() for e, b in exact.items()},
                           r)
    assert floats == ref
    assert floats.float_change == change


@seed(2026)
@settings(max_examples=40, deadline=None)
@given(st.sampled_from([("p1", 1), ("pm", 2)]), st.sampled_from([1, 2]),
       st.booleans(), st.randoms(use_true_random=False))
def test_to_float_hands_real_entries_over_as_floats(where, r, real, rnd):
    """Mask.to_float hands each real entry to the reader as a float and
    each complex one as a Python complex, and gives, bit for bit, the
    stored values and float_change of the former to_float, which read the
    blocks' Mat.np copies, every entry a Python complex."""
    t = catalog_triple(*where)

    def value():
        x = rnd.choice([Fraction(rnd.randint(-9, 9), rnd.randint(1, 7)),
                        rnd.randint(-3, 3), Fraction(1, 3 * 10 ** 7),
                        Fraction(rnd.randint(1, 10 ** 20), 3) * 2 ** 900])
        if real or rnd.random() < 0.5:
            return x
        return QC(Fraction(x), rand_fraction(rnd))

    exact = Mask(t, {t.element(rnd.randrange(t.order),
                               [rnd.randint(-2, 2) for _ in range(t.d)]):
                     [[value() for _ in range(r)] for _ in range(r)]
                     for _ in range(rnd.randint(1, 4))}, r=r)
    handed = []
    read = mask_mod.read_scalar

    def spy(x):
        handed.append(x)
        return read(x)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mask_mod, "read_scalar", spy)
        floats = exact.to_float()
    former = Mask(t, {e: b.np().tolist() for e, b in exact.items()}, r=r)
    entries = [x for _, b in exact.items() for row in b.plain() for x in row]
    assert set(map(type, handed)) == {
        complex if isinstance(x, QC) else float for x in entries}
    assert [[(type(x), x) for row in b.plain() for x in row]
            for _, b in floats.items()] == \
        [[(type(x), x) for row in b.plain() for x in row]
         for _, b in former.items()]
    assert (floats.float_change is None) == (former.float_change is None)
    if former.float_change is not None:
        assert floats.float_change.hex() == former.float_change.hex()


def test_scalar_refuses_two_keys_for_one_element(line):
    """Mask.scalar refuses keys that name one element in different forms,
    as the CLI refuses a duplicate element, rather than keeping the last."""
    t, _ = line
    for entries in ({0: 1, (0,): 2, (0, (0,)): 3}, {1: 1, (1,): 1},
                    {t.translation((2,)): 1, (0, (2,)): 1}):
        with pytest.raises(MaskShapeError, match="duplicate element"):
            Mask.scalar(t, entries)
    with pytest.raises(ValueError):
        Mask.scalar(t, {0.5: 1, 1.9: 1})


class _ReferenceMask:
    """Mask as it was before it kept each element's read rows: a Mat per
    element, built as the coefficients are read, and a plain view and
    float copy walked from those Mats.  Kept as the reference."""

    def __init__(self, triple, coefficients, r=None):
        blocks, readings, changes = {}, {}, []

        def read(x):
            if isinstance(x, (int, Fraction, QC, list, tuple, dict)):
                stored, change = read_scalar(x)
            else:
                key = (type(x), x)
                if key not in readings:
                    readings[key] = read_scalar(x)
                stored, change = readings[key]
            if change is not None:
                changes.append(change)
            return stored

        for key, blk in coefficients.items():
            if isinstance(blk, list):
                blk = Mat(len(blk), len(blk), tuple(
                    tuple([read(x) for x in row]) for row in blk))
            blocks[key] = blk
        self.triple = triple
        self.r = next(iter(blocks.values())).rows
        self.float_change = max(changes, default=None)
        self._blocks = blocks
        self._support = tuple(sorted(blocks, key=lambda e: (e.g, e.k)))

    def items(self):
        return [(e, self._blocks[e]) for e in self._support]

    def block(self, gamma):
        return self._blocks.get(gamma)

    def plain(self):
        nonzero = [(e, [(i, j, x) for i, row in enumerate(blk.plain())
                        for j, x in enumerate(row) if x])
                   for e, blk in self.items()]
        scale = lcm(*(q.denominator for _, xs in nonzero for _, _, x in xs
                      for q in ((x.re, x.im) if isinstance(x, QC)
                                else (x,))))
        return PlainCoefficients(scale, tuple(
            (e, tuple((i, j, x * scale if isinstance(x, QC)
                       else x.numerator * (scale // x.denominator))
                      for i, j, x in xs))
            for e, xs in nonzero))

    def to_float(self):
        return _ReferenceMask(
            self.triple, {e: [[complex(x) if isinstance(x, QC) else float(x)
                               for x in row] for row in b.plain()]
                          for e, b in self._blocks.items()}, r=self.r)

    def __eq__(self, other):
        mine = {(e.g, e.k): blk for e, blk in self._blocks.items()}
        theirs = {(e.g, e.k): blk for e, blk in other._blocks.items()}
        zero = Mat.zeros(self.r, self.r)
        return self.r == other.r and all(
            mine.get(key, zero) == theirs.get(key, zero)
            for key in set(mine) | set(theirs))


def _reference_blocks(t, r, kind, as_mat, rnd):
    """{element: block} on up to five drawn elements, some blocks zero:
    entries ints, rationals, complex rationals or floats as ``kind``
    says, each block a list of rows or, for exact kinds when ``as_mat``,
    a Mat."""
    def coef():
        if rnd.random() < 0.3:
            return 0
        if kind == "int":
            return rnd.randint(-3, 3)
        x = Fraction(rnd.randint(-4, 4), rnd.randint(1, 6))
        if kind == "rational":
            return x
        if kind == "float":
            return rnd.choice([float(x), str(x), 0.1 * rnd.randint(-9, 9)])
        return QC(x, Fraction(rnd.randint(-3, 3), rnd.randint(1, 4)))

    blocks = {}
    for _ in range(rnd.randint(1, 5)):
        e = t.element(rnd.randrange(t.order),
                      [rnd.randint(-2, 2) for _ in range(t.d)])
        rows = [[coef() for _ in range(r)] for _ in range(r)]
        blocks[e] = (Mat.from_rows(rows) if as_mat and kind != "float"
                     else rows)
    return blocks


@seed(2026)
@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["p1", "p1m", "pm", "p4m"]), st.sampled_from([1, 2]),
       st.sampled_from(["int", "rational", "complex", "float"]),
       st.booleans(), st.randoms(use_true_random=False))
def test_mask_rows_against_the_mat_per_element_mask(group, r, kind, as_mat,
                                                    rnd):
    """A Mask that keeps each element's read rows gives the plain view,
    blocks, items, equality, float copy and float_change of the Mask that
    built a Mat per element: real, rational, complex and float masks,
    r = 1 and 2, list and Mat blocks, over 1D and 2D triples."""
    t = catalog_triple(group, 1 if group in ("p1", "p1m") else 2)
    blocks = _reference_blocks(t, r, kind, as_mat, rnd)
    other = _reference_blocks(t, r, kind, as_mat, rnd)
    mask, ref = Mask(t, blocks, r=r), _ReferenceMask(t, blocks, r=r)
    assert mask.plain() == ref.plain()
    assert mask.items() == ref.items()
    for e in [*blocks, *other]:
        assert mask.block(e) == ref.block(e)
    assert mask.float_change == ref.float_change
    floats, ref_floats = mask.to_float(), ref.to_float()
    assert floats.plain() == ref_floats.plain()
    assert floats.float_change == ref_floats.float_change
    zero = {e: [[0] * r for _ in range(r)] for e in other
            if e not in blocks}
    for a, b in ((blocks, other), (blocks, {**blocks, **zero}),
                 (other, blocks)):
        assert (Mask(t, a, r=r) == Mask(t, b, r=r)) == \
            (_ReferenceMask(t, a, r=r) == _ReferenceMask(t, b, r=r))
    assert (mask == floats) == (ref == ref_floats)
