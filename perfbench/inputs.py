"""Workload inputs, built from plain ``fractions.Fraction`` data.

Nothing here imports crystacc: the masks and their expected accuracies come
from the construction alone, so the truth the benchmark checks against is
computed apart from the program.

Every 1D factor has the form

    a(z) = 2 ((1 + z) / 2)^n q(z),    q(1) = 1,  q(-1) != 0,

so a(1) = 2 = |det A| and (1 + z) divides a(z) exactly n times.  For a
scalar lattice mask, accuracy p is the same as sum rules of order p (Jia,
Math. Comp. 67, 1998; Cabrelli-Heil-Molter, J. Approx. Theory 95, 1998),
and sum rules of order p hold exactly when the symbol vanishes to order p
at z = -1; so the factor has accuracy n.  A tensor a_{n1} (x) a_{n2} with
A = 2I vanishes to order n1 at (-1, 1), n2 at (1, -1) and n1 + n2 at
(-1, -1), so it has accuracy min(n1, n2).  A centered palindromic factor
(and a (x) a made from one) is invariant under the point groups used
here; spreading it evenly over the point parts, d_(g,k) = c_k / |G|, gives
a crystal mask whose refinable function is the same symmetric function,
so its accuracy is the accuracy of c.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import comb

DIL_1D = [[2]]
DIL_2D = [[2, 0], [0, 2]]

GROUP_ORDER = {"p1": 1, "p1m": 2, "pm": 2, "p2": 2, "pmm": 4, "p4": 4,
               "p4m": 8}

# exact-lifted: (name, B-spline power n of the centered 1D factor, p_max,
# expected accuracy, expected first failing degree)
LIFTED = (("hat", 2, 3, 2, 2), ("cubic", 4, 3, 3, None))

# cascade-grid: the 2D tensor quadratic B-spline on p1, A = 2I
CASCADE_ARGS = ("--grid", "5", "--iters", "21", "--verify-p", "4")
CASCADE_EXPECT = {"solver_accuracy": 3, "empirical_accuracy": 3,
                  "failing_fit_degree": 3}


def _poly_mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def bspline(n: int) -> list:
    """Coefficients of 2 ((1 + z) / 2)^n, lowest power first."""
    return [Fraction(2 * comb(n, j), 2 ** n) for j in range(n + 1)]


def _pick(rng: random.Random, dyadic: bool, avoid=()) -> Fraction:
    dens = (4, 8) if dyadic else (3, 5, 6, 7)
    while True:
        x = Fraction(rng.randint(-7, 7), rng.choice(dens))
        if x != 0 and x not in avoid:
            return x


def random_q(rng: random.Random, dyadic: bool) -> list:
    """q = q0 + q1 z + q2 z^2 with q(1) = 1, q(-1) = 1 - 2 q1 != 0 and
    q0, q2 != 0, so the support length is fixed."""
    while True:
        q1 = _pick(rng, dyadic, avoid=(Fraction(1, 2),))
        q2 = _pick(rng, dyadic)
        q0 = 1 - q1 - q2
        if q0 != 0:
            return [q0, q1, q2]


def random_palindromic_q(rng: random.Random, dyadic: bool) -> list:
    """q = a z^-1 + (1 - 2a) + a z with q(-1) = 1 - 4a != 0 and 1 - 2a != 0."""
    a = _pick(rng, dyadic, avoid=(Fraction(1, 4), Fraction(1, 2)))
    return [a, 1 - 2 * a, a]


def factor(n: int, q: list, centered: bool) -> dict:
    """Lattice point -> coefficient of 2 ((1+z)/2)^n q(z); centered factors
    (n even, palindromic q) are shifted to be symmetric about 0."""
    coefs = _poly_mul(bspline(n), q)
    offset = -(len(coefs) - 1) // 2 if centered else 0
    return {offset + j: c for j, c in enumerate(coefs) if c != 0}


def tensor(a: dict, b: dict) -> dict:
    return {(i, j): x * y for i, x in a.items() for j, y in b.items()}


def spread(lattice: dict, group: str) -> list:
    """Scalar crystal mask entries (g, k, c_k / |G|) over every point part."""
    order = GROUP_ORDER[group]
    out = []
    for k, c in sorted(lattice.items()):
        kk = k if isinstance(k, tuple) else (k,)
        for g in range(order):
            out.append((g, kk, c / order))
    return out


def _spec(name, group, dim, lattice, order, p1, float_copy):
    return {"name": name, "group": group, "dim": dim,
            "dilation": DIL_1D if dim == 1 else DIL_2D,
            "lattice": {(k if isinstance(k, tuple) else (k,)): c
                        for k, c in lattice.items()},
            "entries": spread(lattice, group),
            "order": order, "p_max": order + 1, "p1": p1,
            "float_copy": float_copy}


def scan_masks(seed: int, pass_index: int) -> list:
    """The seeded masks of one exact-scan pass, each with its designed
    accuracy ('order'); p_max is one above it, so the first failing degree
    is the order too."""
    rng = random.Random(f"exact-scan/{seed}/{pass_index}")
    specs = []
    for n in range(1, 7):
        dyadic = n in (2, 4)
        a = factor(n, random_q(rng, dyadic), centered=False)
        specs.append(_spec(f"p1-n{n}", "p1", 1, a, n, True, dyadic))
    for n in (2, 4):
        a = factor(n, random_palindromic_q(rng, False), centered=True)
        specs.append(_spec(f"p1m-n{n}", "p1m", 1, a, n, False, False))
    for n1, n2, dyadic in ((1, 3, True), (2, 2, True), (3, 2, False)):
        a = factor(n1, random_q(rng, dyadic), centered=False)
        b = factor(n2, random_q(rng, dyadic), centered=False)
        specs.append(_spec(f"p1-2d-{n1}x{n2}", "p1", 2, tensor(a, b),
                           min(n1, n2), True, dyadic))
    sym = factor(2, random_palindromic_q(rng, False), centered=True)
    sym2 = tensor(sym, sym)
    for group in ("pm", "p2", "pmm", "p4", "p4m"):
        specs.append(_spec(f"{group}-n2", group, 2, sym2, 2, False, False))
    return specs


def lifted_scalar_masks() -> list:
    """The two scalar p4m masks lifted by the exact-lifted workload."""
    out = []
    for name, n, p_max, p, ffd in LIFTED:
        c = factor(n, [Fraction(1)], centered=True)
        spec = _spec(name, "p4m", 2, tensor(c, c), p, False, False)
        spec.update(p_max=p_max, first_failing=ffd)
        out.append(spec)
    return out


def cascade_config() -> dict:
    c = bspline(3)
    lattice = tensor(dict(enumerate(c)), dict(enumerate(c)))
    return {"group": "p1", "dimension": 2, "dilation": DIL_2D,
            "mask": [{"g": 0, "k": list(k), "coef": str(v)}
                     for k, v in sorted(lattice.items())]}


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
