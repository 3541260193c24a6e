"""Shared fixtures: catalog triples, dilations, and the classic 1D masks."""

import random
from fractions import Fraction

import pytest

from crystacc import cascade
from crystacc.crystal import catalog_triple, check_admissible
from crystacc.linalg import Mat
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
