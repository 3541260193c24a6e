"""Truth apart from the program: an independent sum-rule counter and the
checkers that compare crystacc's outputs with the designed accuracies.

Nothing here imports crystacc.  Each checker returns a list of problems;
an empty list means the output is right.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def _exponents(d: int, s: int):
    return [a for a in itertools.product(range(s + 1), repeat=d)
            if sum(a) == s]


def _power(k: tuple, alpha: tuple) -> int:
    out = 1
    for x, a in zip(k, alpha):
        out *= x ** a
    return out


def sum_rule_order(lattice: dict, diag: list, cap: int) -> int:
    """Largest p <= cap with sum rules of order p for the lattice mask
    f(x) = sum_k c_k f(A x - k), A = diag(diag).

    Sum rules of order p: the total is |det A| and, for every |alpha| < p,
    the moments sum over k in a coset of A Z^d of c_k k^alpha are the same
    for every coset.
    """
    m = 1
    for a in diag:
        m *= a
    if sum(lattice.values(), Fraction(0)) != m:
        return 0
    d = len(diag)
    cosets = list(itertools.product(*[range(a) for a in diag]))
    for s in range(cap):
        for alpha in _exponents(d, s):
            moment = {e: Fraction(0) for e in cosets}
            for k, c in lattice.items():
                e = tuple(x % a for x, a in zip(k, diag))
                moment[e] += c * _power(k, alpha)
            if len(set(moment.values())) != 1:
                return s
    return cap


def check_accuracy(name: str, p, ffd, expect_p: int, expect_ffd) -> list:
    """A certificate's accuracy and first failing degree against the
    designed values."""
    problems = []
    if p != expect_p:
        problems.append(f"{name}: accuracy {p}, expected {expect_p}")
    if ffd != expect_ffd:
        problems.append(f"{name}: first failing degree {ffd}, expected "
                        f"{expect_ffd}")
    return problems


def check_cli_accuracy(name: str, exit_code: int, report: dict | None,
                       expect_p: int, expect_ffd) -> list:
    """Output of `crystacc accuracy` on one lifted mask."""
    if exit_code != 0:
        return [f"{name}: crystacc accuracy exited {exit_code}"]
    if not isinstance(report, dict) or "accuracy" not in report:
        return [f"{name}: no accuracy in the report"]
    ffd = report.get("diagnostics", {}).get("first_failing_degree")
    return check_accuracy(name, report["accuracy"], ffd, expect_p,
                          expect_ffd)


def check_lift_matches_scalar(name: str, lifted_p, scalar_p,
                              expect_p: int) -> list:
    """The lifted r=8 accuracy must equal the scalar p4m accuracy."""
    problems = []
    if scalar_p != expect_p:
        problems.append(f"{name}: scalar p4m accuracy {scalar_p}, expected "
                        f"{expect_p}")
    if lifted_p != scalar_p:
        problems.append(f"{name}: lifted accuracy {lifted_p} differs from "
                        f"scalar accuracy {scalar_p}")
    return problems


def check_scan_mask(spec: dict, result: dict) -> list:
    """One exact-scan mask: exact and float certificates at the designed
    order, the sum-rule counter on p1 masks, sufficient_check on p1."""
    name, order = spec["name"], spec["order"]
    if "error" in result:
        return [f"{name}: {result['error']}"]
    problems = check_accuracy(name, result.get("p"), result.get("ffd"),
                              order, order)
    if spec["p1"]:
        diag = [row[i] for i, row in enumerate(spec["dilation"])]
        counted = sum_rule_order(spec["lattice"], diag, spec["p_max"])
        if counted != order:
            problems.append(f"{name}: sum-rule counter gives {counted}, "
                            f"designed {order}")
        if counted != result.get("p"):
            problems.append(f"{name}: sum-rule counter gives {counted}, "
                            f"solver {result.get('p')}")
        if result.get("sufficient") is not True:
            problems.append(f"{name}: sufficient_check did not pass at the "
                            f"designed order {order}")
    if spec["float_copy"]:
        problems += check_accuracy(f"{name} (float)", result.get("float_p"),
                                   result.get("float_ffd"), order, order)
    return problems


def check_cascade(exit_code: int, report: dict | None, expect: dict) -> list:
    """Output of `crystacc cascade` on the tensor quadratic B-spline:
    converged, solver and empirical accuracy as designed, every degree
    below it reproduced and the fit at the next degree failing."""
    if exit_code != 0:
        return [f"crystacc cascade exited {exit_code}"]
    if not isinstance(report, dict):
        return ["no cascade report"]
    problems = []
    if report.get("converged") is not True:
        problems.append("cascade did not converge")
    for key in ("solver_accuracy", "empirical_accuracy"):
        if report.get(key) != expect[key]:
            problems.append(f"{key} {report.get(key)}, expected "
                            f"{expect[key]}")
    verdicts = {r.get("s"): r.get("verdict")
                for r in report.get("reports", [])}
    fail_at = expect["failing_fit_degree"]
    for s in range(fail_at):
        if verdicts.get(s) is not True:
            problems.append(f"degree {s} not reproduced")
    if verdicts.get(fail_at) is not False:
        problems.append(f"degree {fail_at} fit did not fail")
    return problems
