"""Tests of the benchmark's own checkers, inputs and tracing.

    python3 -m pytest perfbench/test_perfbench.py
    python3 perfbench/test_perfbench.py

Each checker is fed a wrong answer and must reject it, and a failed
operation must stay out of the reported figures.  Nothing here imports
crystacc or runs a workload.
"""

from __future__ import annotations

import os
import sys
import types
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

HAT = {(-1,): Fraction(1, 2), (0,): Fraction(1), (1,): Fraction(1, 2)}


def test_sum_rule_counter_on_bsplines():
    for n in range(1, 7):
        lattice = {(k,): c for k, c in enumerate(inputs.bspline(n))}
        assert oracle.sum_rule_order(lattice, [2], n + 2) == n
    assert oracle.sum_rule_order(HAT, [2], 4) == 2


def test_sum_rule_counter_rejects_broken_masks():
    # coset sums agree (1 and 1/2 + 1/2), first moments do not (0 and 2)
    skewed = {(0,): Fraction(1), (1,): Fraction(1, 2), (3,): Fraction(1, 2)}
    assert oracle.sum_rule_order(skewed, [2], 4) == 1
    scaled = {k: 2 * c for k, c in HAT.items()}
    assert oracle.sum_rule_order(scaled, [2], 4) == 0


def test_sum_rule_counter_2d_tensor():
    a = {k: c for k, c in enumerate(inputs.bspline(1))}
    b = {k: c for k, c in enumerate(inputs.bspline(3))}
    assert oracle.sum_rule_order(inputs.tensor(a, b), [2, 2], 5) == 1


def test_designed_orders_agree_with_counter():
    for seed in (1, 2, 3):
        for spec in inputs.scan_masks(seed, 0):
            if not spec["p1"]:
                continue
            diag = [row[i] for i, row in enumerate(spec["dilation"])]
            assert oracle.sum_rule_order(spec["lattice"], diag,
                                         spec["p_max"]) == spec["order"]


def test_scan_masks_are_seeded():
    assert inputs.scan_masks(7, 2) == inputs.scan_masks(7, 2)
    assert inputs.scan_masks(7, 2) != inputs.scan_masks(8, 2)
    for spec in inputs.scan_masks(7, 0):
        total = sum(c for _, _, c in spec["entries"])
        assert total == (2 if spec["dim"] == 1 else 4), spec["name"]


def test_check_accuracy():
    assert oracle.check_accuracy("m", 2, 2, 2, 2) == []
    assert oracle.check_accuracy("m", 3, 2, 2, 2)
    assert oracle.check_accuracy("m", 2, None, 2, 2)


def test_check_cli_accuracy_rejects():
    good = {"accuracy": 3, "diagnostics": {"first_failing_degree": None}}
    assert oracle.check_cli_accuracy("cubic", 0, good, 3, None) == []
    assert oracle.check_cli_accuracy("cubic", 1, good, 3, None)
    assert oracle.check_cli_accuracy("cubic", 0, None, 3, None)
    wrong = {"accuracy": 2, "diagnostics": {"first_failing_degree": 2}}
    assert oracle.check_cli_accuracy("cubic", 0, wrong, 3, None)


def test_check_lift_matches_scalar_rejects():
    assert oracle.check_lift_matches_scalar("hat", 2, 2, 2) == []
    assert oracle.check_lift_matches_scalar("hat", 3, 2, 2)
    assert oracle.check_lift_matches_scalar("hat", 1, 1, 2)


def _scan_spec(p1=True, float_copy=True):
    lattice = {(k,): c for k, c in enumerate(inputs.bspline(2))}
    return {"name": "p1-n2", "order": 2, "p_max": 3, "p1": p1,
            "float_copy": float_copy, "dilation": [[2]],
            "lattice": lattice}


def test_check_scan_mask_rejects():
    spec = _scan_spec()
    good = {"p": 2, "ffd": 2, "sufficient": True, "float_p": 2,
            "float_ffd": 2}
    assert oracle.check_scan_mask(spec, good) == []
    for key, wrong in (("p", 3), ("ffd", None), ("sufficient", False),
                       ("float_p", 3), ("float_ffd", 3)):
        assert oracle.check_scan_mask(spec, {**good, key: wrong}), key
    assert oracle.check_scan_mask(spec, {"error": "ValueError: x"})


def test_check_scan_mask_counter_disagreement():
    # a truth that the counter contradicts is reported, even when the
    # solver agrees with it
    spec = _scan_spec(float_copy=False)
    spec["order"], spec["p_max"] = 3, 4
    problems = oracle.check_scan_mask(spec, {"p": 3, "ffd": 3,
                                             "sufficient": True})
    assert any("sum-rule counter" in p for p in problems)


def test_check_cascade_rejects():
    expect = inputs.CASCADE_EXPECT
    good = {"converged": True, "solver_accuracy": 3,
            "empirical_accuracy": 3,
            "reports": [{"s": s, "verdict": s < 3} for s in range(4)]}
    assert oracle.check_cascade(0, good, expect) == []
    assert oracle.check_cascade(5, good, expect)
    assert oracle.check_cascade(0, {**good, "converged": False}, expect)
    assert oracle.check_cascade(0, {**good, "empirical_accuracy": 2},
                                expect)
    assert oracle.check_cascade(0, {**good, "solver_accuracy": 4}, expect)
    all_pass = {**good, "reports": [{"s": s, "verdict": True}
                                    for s in range(4)]}
    assert oracle.check_cascade(0, all_pass, expect)
    low_fail = {**good, "reports": [{"s": s, "verdict": s != 1}
                                    for s in range(4)]}
    assert oracle.check_cascade(0, low_fail, expect)


def test_failed_operation_is_left_out_of_the_figures():
    bench = run.Bench("exact-scan", 1, 10, False, "")
    bench.setups = [{"norm_s": 0.3}]
    good = {"raw_s": 2.0, "norm_s": 2.0, "peak_rss_mb": 60.0,
            "cal": (0.2, 0.2)}
    bench.record(0, [good], [])
    assert bench.correct
    # a fast wrong answer, then a worker that gave no reply
    bench.record(1, [{**good, "norm_s": 0.1, "peak_rss_mb": 90.0}],
                 ["p1-n2: accuracy 3, expected 2"])
    bench.record(2, [{"error": "worker killed: no reply within 1 s"}], [])
    assert (bench.attempted, bench.failed, bench.correct) == (3, 2, False)
    metrics = bench.end_to_end()
    assert metrics["op_s"]["value"] == 2.0
    assert metrics["peak_rss_mb"]["value"] == 60.0


def _module(name, **attrs):
    mod = types.ModuleType(name)
    for k, v in attrs.items():
        setattr(mod, k, v)
    return mod


def test_missing_wrap_targets_are_reported():
    def max_accuracy(*a):
        return None

    mods = {"accuracy": _module("crystacc.accuracy",
                                max_accuracy=max_accuracy),
            "cli": _module("crystacc.cli"),
            "cascade": _module("crystacc.cascade")}
    tracer = tracing.Tracer()
    tracer.install(mods)
    try:
        assert "crystacc.accuracy.solve_affine" in tracer.missing
        assert "crystacc.cascade.cascade_iterate" in tracer.missing
        mods["accuracy"].max_accuracy()
    finally:
        tracer.uninstall()
    assert mods["accuracy"].max_accuracy is max_accuracy
    metrics = tracing.layer_metrics(tracer.snapshot(), tracer.missing)
    assert "linalg.solve_s" not in metrics
    assert "cascade.iterate_s" not in metrics
    assert "multiidx.cache_hits" not in metrics
    assert tracing.cache_totals(_module("crystacc.multiidx")) is None


def test_self_time_excludes_wrapped_children():
    calls = []

    def child(system):
        calls.append(system.rows)

    def parent():
        acc.solve_affine(types.SimpleNamespace(rows=3, cols=4))

    child.__module__ = "crystacc.linalg"
    acc = _module("crystacc.accuracy", solve_affine=child,
                  max_accuracy=parent)
    tracer = tracing.Tracer()
    tracer.install({"accuracy": acc, "cli": _module("crystacc.cli"),
                    "cascade": _module("crystacc.cascade")})
    try:
        with tracer.span("cli.main"):
            acc.max_accuracy()
    finally:
        tracer.uninstall()
    stats = tracer.stats
    assert calls == [3]
    assert stats["linalg.solve_affine"][0] == 1
    assert tracer.counts["linalg.system_entries"] == 12
    total, own = stats["accuracy.max_accuracy"][1:]
    assert own <= total - stats["linalg.solve_affine"][1] + 1e-12
    assert stats["cli.main"][2] <= stats["cli.main"][1] - total + 1e-12


if __name__ == "__main__":
    names = [n for n in sorted(globals()) if n.startswith("test_")]
    for n in names:
        globals()[n]()
        print(f"ok {n}")
    print(f"{len(names)} passed")
