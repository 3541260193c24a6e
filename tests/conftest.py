"""Shared fixtures: catalog triples, dilations, and the classic 1D masks."""

import random
from fractions import Fraction

import pytest

from crystacc import cascade
from crystacc.crystal import catalog_triple, check_admissible
from crystacc.linalg import Mat, SparseRows, _qc, _rref
from crystacc.mask import Mask
from crystacc.multiidx import _acted_rows


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
    acted = _acted_rows(field.triple, [b.tolist() for b in v[:s + 1]])
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


def positive_multiple(v, ref):
    """Whether the sparse vector v is a positive rational multiple of the
    non-zero sparse vector ref (entries ints, Fractions or QCs)."""
    if set(v) != set(ref):
        return False
    j = next(iter(ref))
    ratio = _qc(v[j]) / _qc(ref[j])
    return (ratio.im == 0 and ratio.re > 0
            and all(_qc(v[i]) == _qc(x) * ratio.re for i, x in ref.items()))


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
