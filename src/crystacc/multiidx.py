"""Graded monomial machinery.

For each degree s, X_[s](x) is the column of all degree-s monomials x^alpha
in descending lexicographic order of the exponent vectors (so for d=2, s=2:
x^2, xy, y^2).  Linear maps and translations act on these columns through
matrices:

* ``build_A_s(A, s)``: X_[s](Ax) = A_[s] X_[s](x);
* ``build_Q_st(y, s, t)``: block of the binomial expansion,
  X_[s](x - y) = sum_t Q_[s,t](y) X_[t](x);
* ``build_Q_tilde(gamma, s, t)``: the same blocks for the inverse action of
  a crystal element gamma = (b, l), namely Q_[s,t](l) b_[t]^{-1}.

The builders are exact: they accept rational data only, read and compute
on plain values (:meth:`~crystacc.linalg.Mat.plain`: ints where the data
are integral, else Fractions, and QCs only where they are complex) and
make one Mat at the end; ``build_A_s`` is cached by value.  Every reader of
the Q-tilde blocks (:func:`eval_y`, the witness guard
:func:`~crystacc.accuracy.condition_d_residuals` and the cascade oracle)
applies one binomial shift by the element's translation (``_shift_rows``,
its binomials cached by degrees) to the rows of m_[t] v_[t], formed once
per point part (``_acted_rows``).  ``build_Q_tilde`` and ``build_Q_st``
are the dense references of that shift, uncached and not called in the
package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from math import comb

from .linalg import Mat, QC


def dim_degree(d: int, s: int) -> int:
    """Number of degree-s monomials in d variables."""
    return comb(s + d - 1, d - 1)


@lru_cache(maxsize=None)
def enumerate_degree(d: int, s: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors of total degree s, descending lexicographic."""
    if d < 1:
        raise ValueError("dimension must be positive")
    if s < 0:
        raise ValueError("degree must be nonnegative")

    def gen(dim, total):
        if dim == 1:
            yield (total,)
            return
        for first in range(total, -1, -1):
            for rest in gen(dim - 1, total - first):
                yield (first,) + rest

    out = tuple(gen(d, s))
    assert len(out) == dim_degree(d, s)
    return out


@lru_cache(maxsize=None)
def _index_map(d: int, s: int) -> dict:
    return {a: i for i, a in enumerate(enumerate_degree(d, s))}


def _monomial(xs, alpha, one):
    acc = one
    for base, e in zip(xs, alpha):
        for _ in range(e):
            acc = acc * base
    return acc


def eval_X(x, s: int) -> Mat:
    """Column X_[s](x) of all degree-s monomials at the exact point x."""
    xs = [QC.parse(v) for v in x]
    return Mat.column([_monomial(xs, a, QC(1))
                       for a in enumerate_degree(len(x), s)])


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            key = tuple(i + j for i, j in zip(ea, eb))
            prev = out.get(key)
            out[key] = ca * cb if prev is None else prev + ca * cb
    return out


@lru_cache(maxsize=None)
def build_A_s(a: Mat, s: int) -> Mat:
    """Matrix of the degree-s action: X_[s](Ax) = A_[s] X_[s](x)."""
    if a.rows != a.cols:
        raise ValueError("square matrix required")
    d = a.rows
    alphas = enumerate_degree(d, s)
    pos = _index_map(d, s)
    zero_exp = (0,) * d
    # row alpha holds the expansion of prod_i ((Ax)_i)^(alpha_i), on plain
    # values
    linear = [{tuple(int(t == j) for t in range(d)): c
               for j, c in enumerate(row) if c} for row in a.plain()]
    rows = []
    for alpha in alphas:
        poly = {zero_exp: 1}
        for i, e in enumerate(alpha):
            for _ in range(e):
                poly = _poly_mul(poly, linear[i])
        row = [0] * len(alphas)
        for exp, c in poly.items():
            row[pos[exp]] = c
        rows.append(row)
    return Mat.from_rows(rows)


def _binom_vec(alpha, beta) -> int:
    out = 1
    for a, b in zip(alpha, beta):
        out *= comb(a, b)
    return out


def build_Q_st(y, s: int, t: int) -> Mat:
    """Binomial block Q_[s,t](y): entry (alpha, beta) is
    binom(alpha, beta) (-y)^(alpha-beta) when beta <= alpha, else 0."""
    if t > s:
        raise ValueError("Q_[s,t] requires t <= s")
    neg = [-QC.parse(v) for v in y]
    one = QC(1)
    rows = []
    for alpha in enumerate_degree(len(neg), s):
        row = []
        for beta in enumerate_degree(len(neg), t):
            if any(b > a for a, b in zip(alpha, beta)):
                row.append(QC(0))
                continue
            diff = tuple(a - b for a, b in zip(alpha, beta))
            row.append(_monomial(neg, diff, one) * _binom_vec(alpha, beta))
        rows.append(row)
    return Mat.from_rows(rows)


@lru_cache(maxsize=None)
def _shift_pattern(d: int, s: int, t: int) -> tuple:
    """Row alpha of Q_[s,t]: (index of beta, binom(alpha, beta),
    alpha - beta) for every beta <= alpha of degree t."""
    return tuple(tuple((j, _binom_vec(alpha, beta),
                        tuple(a - b for a, b in zip(alpha, beta)))
                       for j, beta in enumerate(enumerate_degree(d, t))
                       if all(b <= a for a, b in zip(alpha, beta)))
                 for alpha in enumerate_degree(d, s))


def _shift_rows(neg, s: int, blocks: dict) -> list:
    """The rows of sum_t Q_[s,t](l) B_t on plain values, for neg = -l and
    blocks mapping degrees t to the rows beta of B_t as dense lists of one
    width: row alpha is the binomial shift
    sum_(t, beta) binom(alpha, beta) (-l)^(alpha-beta) B_t[beta] over the
    beta <= alpha, so a block of degree above s adds nothing."""
    d = len(neg)
    width = len(next(iter(blocks.values()))[0])
    out = [[0] * width for _ in range(dim_degree(d, s))]
    powers = {}
    for t, rows in blocks.items():
        for acc, terms in zip(out, _shift_pattern(d, s, t)):
            for j, binom, mu in terms:
                w = powers.get(mu)
                if w is None:
                    w = powers[mu] = _monomial(neg, mu, 1)
                if w != 0:
                    f = binom * w
                    for k, x in enumerate(rows[j]):
                        if x != 0:
                            acc[k] += f * x
    return out


def _acted_rows(triple, vs: list, a: Mat | None = None):
    """g -> {t: the rows of m_[t] v_[t]}, m = b^{-1} (b^{-1} a when a is
    given) for the point part b = g of the triple, formed once per part:
    the blocks :func:`_shift_rows` shifts, for vs the rows of the blocks
    v_[t] (plain values, or Python complex in the cascade oracle)."""
    def rows(g):
        m = triple.group[triple.inverse_table[g]]
        m = m if a is None else m @ a
        return {t: [[sum((x * vt[k][c] for k, x in enumerate(row) if x), 0)
                     for c in range(len(vt[0]))]
                    for row in build_A_s(m, t).plain()]
                for t, vt in enumerate(vs)}
    return cache(rows)


def _y_rows(gamma, acted: dict, s: int) -> list:
    """The rows of sum_t Q_[s,t](l) (b^{-1})_[t] v_[t] for gamma = (b, l),
    from blocks of :func:`_acted_rows`: y_[s](gamma) when they hold every
    degree t <= s."""
    return _shift_rows([-x for x in gamma.true_translation()], s, acted)


def build_Q_tilde(gamma, s: int, t: int) -> Mat:
    """Block of the substitution X_[s](gamma^{-1} x) = sum_t Qt_[s,t](gamma)
    X_[t](x) for a crystal element gamma = (b, l): Q_[s,t](l) b_[t]^{-1}.

    Built on plain values: the binomial shift (:func:`_shift_rows`) by l
    of the stored rows of b_[t]^{-1}, so the block is the product
    :func:`build_Q_st` @ :func:`build_A_s` without a Mat product.  The
    package reads these blocks through the shift only; this is the tests'
    reference."""
    if t > s:
        raise ValueError("Q~_[s,t] requires t <= s")
    lead = build_A_s(gamma.point_matrix_inverse(), t)
    neg = [-x for x in gamma.true_translation()]
    rows = _shift_rows(neg, s, {t: lead.plain()})
    return Mat.from_rows(rows, cols=lead.cols)


@dataclass(frozen=True)
class VCollection:
    """Stacked row-vector data v_[0], ..., v_[p-1]; block s is the d_s x r
    matrix whose rows are the 1 x r vectors v_alpha with |alpha| = s."""

    d: int
    blocks: tuple[Mat, ...]

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("empty collection")
        r = self.blocks[0].cols
        for s, b in enumerate(self.blocks):
            if b.rows != dim_degree(self.d, s):
                raise ValueError(f"block {s} has {b.rows} rows, "
                                 f"expected {dim_degree(self.d, s)}")
            if b.cols != r:
                raise ValueError("inconsistent blocks")

    @property
    def p(self) -> int:
        return len(self.blocks)

    @property
    def r(self) -> int:
        return self.blocks[0].cols

    def block(self, s: int) -> Mat:
        return self.blocks[s]

    def scale(self, c) -> "VCollection":
        return VCollection(self.d, tuple(b.scale(c) for b in self.blocks))

    def plain(self, s: int) -> list:
        """The stored rows (:meth:`Mat.plain`) of blocks 0..s."""
        return [b.plain() for b in self.blocks[:s + 1]]


def eval_y(gamma, v: VCollection, s: int) -> Mat:
    """y_[s](gamma) = sum_{t<=s} Qt_[s,t](gamma) v_[t]; a d_s x r matrix,
    the binomial shift by l of the rows of (b^{-1})_[t] v_[t]."""
    if s >= v.p:
        raise ValueError(f"degree {s} needs v blocks up to {s}")
    acted = _acted_rows(gamma.triple, v.plain(s))(gamma.g)
    return Mat.from_rows(_y_rows(gamma, acted, s), cols=v.r)
