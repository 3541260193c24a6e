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

The builders are exact: they accept rational data only.  Two are cached,
since the same group elements recur throughout a run: ``build_A_s`` by
value, and ``build_Q_tilde`` on the element's own triple, so those entries
die with the triple.  ``build_Q_st`` is not cached: ``build_Q_tilde`` is
its one caller in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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
    # row alpha holds the expansion of prod_i ((Ax)_i)^(alpha_i)
    linear = []
    for i in range(d):
        form = {}
        for j in range(d):
            c = a.entry(i, j)
            if not c.is_zero():
                exp = tuple(1 if t == j else 0 for t in range(d))
                form[exp] = c
        linear.append(form)
    rows = []
    for alpha in alphas:
        poly = {zero_exp: QC(1)}
        for i, e in enumerate(alpha):
            for _ in range(e):
                poly = _poly_mul(poly, linear[i])
        row = [QC(0)] * len(alphas)
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


def build_Q_tilde(gamma, s: int, t: int) -> Mat:
    """Block of the substitution X_[s](gamma^{-1} x) = sum_t Qt_[s,t](gamma)
    X_[t](x) for a crystal element gamma = (b, l): Q_[s,t](l) b_[t]^{-1}."""
    if t > s:
        raise ValueError("Q~_[s,t] requires t <= s")
    cache = gamma.triple.q_tilde_cache
    key = (gamma.g, gamma.k, s, t)
    out = cache.get(key)
    if out is None:
        q = build_Q_st(gamma.true_translation(), s, t)
        out = cache[key] = q @ build_A_s(gamma.point_matrix_inverse(), t)
    return out


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


def eval_y(gamma, v: VCollection, s: int) -> Mat:
    """y_[s](gamma) = sum_{t<=s} Qt_[s,t](gamma) v_[t]; a d_s x r matrix."""
    if s >= v.p:
        raise ValueError(f"degree {s} needs v blocks up to {s}")
    acc = None
    for t in range(s + 1):
        term = build_Q_tilde(gamma, s, t) @ v.block(t)
        acc = term if acc is None else acc + term
    return acc
