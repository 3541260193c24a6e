"""End-to-end command-line runs through main(argv), in process."""

import contextlib
import io
import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

import crystacc.cascade as cascade_mod
import crystacc.cli as cli_mod
import crystacc.mask as mask_mod
from crystacc.cli import (DEFAULT_SEED, EXIT_BAD_GROUP, EXIT_INADMISSIBLE,
                          EXIT_MALFORMED, EXIT_NO_CONVERGENCE, EXIT_OK,
                          EXIT_SHAPE, SEED_ENV_VAR, main, parse_args)
from crystacc.linalg import Mat, read_scalar
from crystacc.mask import Mask

HAT_CFG = {
    "group": "p1",
    "dimension": 1,
    "dilation": [[2]],
    "mask": [{"g": 0, "k": [-1], "coef": "1/2"},
             {"g": 0, "k": [0], "coef": 1},
             {"g": 0, "k": [1], "coef": "1/2"}],
}

PM_CFG = {
    "group": "pm",
    "dimension": 2,
    "dilation": [[2, 0], [0, 2]],
}

PM_MASK = [{"g": 0, "k": [0, 0], "coef": 1},
           {"g": 0, "k": [1, 0], "coef": "1/2"},
           {"g": 1, "k": [0, 1], "coef": "-2/3"},
           {"g": 1, "k": [1, 1], "coef": 5}]


def run_cli(tmp_path, capsys, cfg, argv, name="cfg.json"):
    """Write cfg to a file, run main, return (exit code, parsed stdout)."""
    path = tmp_path / name
    path.write_text(json.dumps(cfg) if isinstance(cfg, dict) else cfg,
                    encoding="utf-8")
    code = main([a if a != "CFG" else str(path) for a in argv])
    captured = capsys.readouterr()
    return code, json.loads(captured.out)


def test_check_group_pm(tmp_path, capsys):
    code, out = run_cli(tmp_path, capsys, PM_CFG, ["check-group", "CFG"])
    assert code == EXIT_OK
    assert out["schema_version"] == 1
    assert out["group"] == "pm"
    assert out["order"] == 2
    assert out["m"] == 4
    digit_ks = {tuple(d["k"]) for d in out["digits"]}
    assert digit_ks == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert all(d["g"] == 0 for d in out["digits"])
    assert len(out["h"]) == 2
    assert len(out["rho"]) == 2


def test_a_3d_config_without_a_group_is_read_over_p1(tmp_path, capsys):
    """The group defaults to p1 in every dimension: a 3D config with no
    'group' passes check-group (order 1, m = 8), and the 3D tensor hat
    has accuracy 2."""
    hat = {-1: "1/2", 0: 1, 1: "1/2"}
    cfg = {"dimension": 3, "dilation": [[2, 0, 0], [0, 2, 0], [0, 0, 2]],
           "mask": [{"k": [i, j, k], "coef": str(Fraction(a) * Fraction(b)
                                                 * Fraction(c))}
                    for i, a in hat.items() for j, b in hat.items()
                    for k, c in hat.items()]}
    code, out = run_cli(tmp_path, capsys, cfg, ["check-group", "CFG"])
    assert code == EXIT_OK
    assert (out["group"], out["dimension"], out["order"], out["m"]) == \
        ("p1", 3, 1, 8)
    code, out = run_cli(tmp_path, capsys, cfg,
                        ["accuracy", "CFG", "--p-max", "3"])
    assert code == EXIT_OK
    assert out["accuracy"] == 2


def test_check_group_custom_generators(tmp_path, capsys):
    cfg = {"group": [[[-1]]], "dimension": 1, "dilation": [[2]]}
    code, out = run_cli(tmp_path, capsys, cfg, ["check-group", "CFG"])
    assert code == EXIT_OK
    assert out["order"] == 2
    assert out["m"] == 2


def test_malformed_json_exits_1(tmp_path, capsys):
    """A config that is not JSON, is not UTF-8, nests deeper than the
    parser recurses or holds an integer of more digits than
    sys.get_int_max_str_digits() ends in exit 1 with a JSON error, not a
    traceback."""
    digits = sys.get_int_max_str_digits() + 700
    for text in (b"{not json", b'{"dimension": 1, "group": "p1\xff"}',
                 b"[" * 200000, b'{"dimension": 1' + b"0" * digits + b"}"):
        path = tmp_path / "cfg.json"
        path.write_bytes(text)
        code = main(["accuracy", str(path)])
        out = json.loads(capsys.readouterr().out)
        assert code == EXIT_MALFORMED
        assert out["error"].startswith("malformed JSON: "), text[:40]


def test_an_exact_output_too_long_to_print_exits_1(tmp_path, capsys):
    """The hat with coefficients 10^4000 at k = -1 and 10^-4000 at k = 1
    under the sum-rule test: sum_total's numerator has 8001 digits, more
    than str prints, so the command ends in exit 1 with a JSON error that
    names the digit limit, not a traceback."""
    cfg = json.loads((GOLDEN / "hat.json").read_text(encoding="utf-8"))
    cfg["mask"][0]["coef"], cfg["mask"][2]["coef"] = "1e4000", "1e-4000"
    code, out = run_cli(tmp_path, capsys, cfg,
                        ["accuracy", "CFG", "--method", "sufficient"])
    assert code == EXIT_MALFORMED
    assert out["error"] == (
        "an exact output value has more than "
        f"{sys.get_int_max_str_digits()} digits, the limit of int to str "
        "conversion")


def test_missing_dilation_exits_1(tmp_path, capsys):
    cfg = {"group": "p1", "dimension": 1}
    code, out = run_cli(tmp_path, capsys, cfg, ["check-group", "CFG"])
    assert code == EXIT_MALFORMED
    assert "error" in out


def test_unknown_group_exits_2(tmp_path, capsys):
    cfg = dict(PM_CFG, group="p17")
    code, out = run_cli(tmp_path, capsys, cfg, ["check-group", "CFG"])
    assert code == EXIT_BAD_GROUP
    assert "error" in out


def test_inadmissible_dilation_exits_3(tmp_path, capsys):
    cfg = dict(PM_CFG, dilation=[[1, 0], [0, 2]])
    code, out = run_cli(tmp_path, capsys, cfg, ["check-group", "CFG"])
    assert code == EXIT_INADMISSIBLE
    assert "error" in out


def test_an_unreadable_matrix_entry_exits_1(tmp_path, capsys):
    """A lattice, dilation or generator entry that is no rational is
    malformed input, and the error names it."""
    cfg = {"group": "p1", "dimension": 1, "dilation": [["two"]]}
    code, out = run_cli(tmp_path, capsys, cfg, ["check-group", "CFG"])
    assert code == EXIT_MALFORMED
    assert out["error"].startswith("bad rational 'two': ")


def test_sufficient_on_matrix_mask_exits_4(tmp_path, capsys):
    cfg = dict(PM_CFG)
    cfg["mask"] = [{"g": 0, "k": [0, 0], "coef": [[1, 0], [0, 1]]}]
    code, out = run_cli(tmp_path, capsys, cfg,
                        ["accuracy", "CFG", "--method", "sufficient"])
    assert code == EXIT_SHAPE
    assert "error" in out


def test_lift_on_matrix_mask_exits_4(tmp_path, capsys):
    cfg = dict(PM_CFG)
    cfg["mask"] = [{"g": 0, "k": [0, 0], "coef": [[1, 0], [0, 1]]}]
    code, out = run_cli(tmp_path, capsys, cfg, ["lift", "CFG"])
    assert code == EXIT_SHAPE


def test_strict_cascade_divergence_exits_5(tmp_path, capsys):
    cfg = dict(HAT_CFG)
    cfg["mask"] = [{"g": 0, "k": [k], "coef": 1} for k in (0, 1, 2)]
    code, out = run_cli(tmp_path, capsys, cfg,
                        ["cascade", "CFG", "--strict", "--iters", "8",
                         "--grid", "5"])
    assert code == EXIT_NO_CONVERGENCE
    assert out["converged"] is False
    assert "error" in out


def test_explicit_zero_bounds_rejected(tmp_path, capsys):
    code, out = run_cli(tmp_path, capsys, HAT_CFG,
                        ["accuracy", "CFG", "--p-max", "0"])
    assert code == EXIT_MALFORMED
    assert "p-max" in out["error"]
    code, out = run_cli(tmp_path, capsys, HAT_CFG,
                        ["cascade", "CFG", "--iters", "0"])
    assert code == EXIT_MALFORMED
    assert "iters" in out["error"]
    code, out = run_cli(tmp_path, capsys, HAT_CFG,
                        ["cascade", "CFG", "--grid", "-1"])
    assert code == EXIT_MALFORMED
    assert "grid" in out["error"]
    code, out = run_cli(tmp_path, capsys, HAT_CFG,
                        ["cascade", "CFG", "--verify-p", "-1"])
    assert code == EXIT_MALFORMED
    assert "verify-p" in out["error"]


def test_verify_p_zero_skips_reproduction(tmp_path, capsys):
    code, out = run_cli(tmp_path, capsys, HAT_CFG,
                        ["cascade", "CFG", "--iters", "6", "--grid", "5",
                         "--verify-p", "0"])
    assert code == EXIT_OK
    assert out["reports"] == []
    assert out["empirical_accuracy"] == 0


def test_accuracy_hat_both_methods(tmp_path, capsys):
    code, out = run_cli(tmp_path, capsys, HAT_CFG,
                        ["accuracy", "CFG", "--method", "both"])
    assert code == EXIT_OK
    assert out["accuracy"] == 2
    assert out["witness"] == [[["1"]], [["0"]]]
    assert out["gate"] == "1"
    diag = out["diagnostics"]
    assert diag["kernel_dims"] == {"0": 1, "1": 1, "2": 0}
    assert diag["first_failing_degree"] == 2
    suff = out["sufficient"]
    assert suff["p"] == 2
    assert suff["passed"] is True
    assert suff["sum_total"] == "2"
    assert suff["eigen_flags"] == {"1": True}
    assert suff["chain"] == [[["1"]], [["0"]]]
    assert suff["chain_residual_zero"] is True
    beta = {(b["b"], tuple(b["alpha"])): b["value"] for b in suff["beta"]}
    assert beta == {(0, (0,)): "1", (0, (1,)): "0"}


def test_accuracy_sufficient_alone(tmp_path, capsys):
    code, out = run_cli(tmp_path, capsys, HAT_CFG,
                        ["accuracy", "CFG", "--method", "sufficient",
                         "--p-max", "2"])
    assert code == EXIT_OK
    assert "accuracy" not in out
    assert out["sufficient"]["p"] == 2
    assert out["sufficient"]["passed"] is True


def test_accuracy_float_coefficients(tmp_path, capsys):
    cfg = dict(HAT_CFG)
    cfg["mask"] = [{"g": 0, "k": [-1], "coef": 0.5},
                   {"g": 0, "k": [0], "coef": 1.0},
                   {"g": 0, "k": [1], "coef": 0.5}]
    code, out = run_cli(tmp_path, capsys, cfg,
                        ["accuracy", "CFG", "--method", "condition-d"])
    assert code == EXIT_OK
    assert out["accuracy"] == 2
    assert out["witness"][0][0][0] == "1"
    assert out["diagnostics"].pop("float_max_relative_change") == 0.0
    _, exact = run_cli(tmp_path, capsys, HAT_CFG,
                       ["accuracy", "CFG", "--method", "condition-d"])
    assert out == exact


def test_float_part_beside_an_exact_part_keeps_it_exact(tmp_path, capsys):
    """A float in an [re, im] pair or in a block is read on its own; the
    exact entries beside it stay exact."""
    cfg = dict(HAT_CFG)
    cfg["mask"] = [{"k": [-1], "coef": ["1/1234567", 0.5]}] + \
        HAT_CFG["mask"][1:]
    code, out = run_cli(tmp_path, capsys, cfg, ["lift", "CFG"])
    assert code == EXIT_OK
    assert out["entries"][0]["coef"] == [[["1/1234567", "1/2"]]]
    code, out = run_cli(tmp_path, capsys, cfg, ["accuracy", "CFG"])
    assert code == EXIT_OK
    assert out["diagnostics"]["float_max_relative_change"] == 0.0
    block = dict(PM_CFG, mask=[{"k": [0, 0],
                                "coef": [["1/1234567", 0.1], [0.5, 1]]}])
    code, out = run_cli(tmp_path, capsys, block,
                        ["accuracy", "CFG", "--p-max", "1"])
    assert code == EXIT_OK
    assert 0 < out["diagnostics"]["float_max_relative_change"] < 2 ** -53


def test_huge_float_coefficient_is_read_exactly(tmp_path, capsys):
    """1e308 is an integer as a double: it is read exactly, certified
    without a float solver, and its cascade overflow is a JSON error."""
    cfg = dict(HAT_CFG)
    cfg["mask"] = [{"k": [-1], "coef": 0.5}, {"k": [0], "coef": 1e308},
                   {"k": [1], "coef": 0.5}]
    code, out = run_cli(tmp_path, capsys, cfg, ["accuracy", "CFG"])
    assert code == EXIT_OK
    assert out["accuracy"] == 0
    assert out["diagnostics"]["float_max_relative_change"] == 0.0
    code, out = run_cli(tmp_path, capsys, cfg, ["lift", "CFG"])
    assert code == EXIT_OK
    assert out["entries"][1]["coef"] == [[str(int(1e308))]]
    with np.errstate(all="ignore"):
        code, out = run_cli(tmp_path, capsys, cfg,
                            ["cascade", "CFG", "--grid", "4"])
    assert code == EXIT_NO_CONVERGENCE
    assert "not finite" in out["error"]


def test_cascade_beyond_the_memory_budget_exits_5(tmp_path, capsys,
                                                  monkeypatch):
    monkeypatch.setattr(cascade_mod, "memory_budget", lambda: 2 ** 10)
    code, out = run_cli(tmp_path, capsys, HAT_CFG,
                        ["cascade", "CFG", "--grid", "6"])
    assert code == EXIT_NO_CONVERGENCE
    assert "physical memory" in out["error"]


def test_cascade_grid_past_int64_exits_5(tmp_path, capsys):
    """--grid 64 puts the hat's box corner -1 at node -2^64, past int64:
    the node count is estimated on Python ints and refused before any
    int64 array is made."""
    code, out = run_cli(tmp_path, capsys, HAT_CFG,
                        ["cascade", "CFG", "--grid", "64"])
    assert code == EXIT_NO_CONVERGENCE
    assert "physical memory" in out["error"]
    assert set(out) == {"schema_version", "error"}


def test_cascade_huge_grid_exponent_is_refused_before_the_box(
        tmp_path, capsys, monkeypatch):
    """A grid exponent of 10^6, from the options or from --grid, is
    refused on its least grid, (2^q + 1)^d nodes on [0, 1]^d, before the
    support box is certified in huge fractions; so is a mask whose shift
    of 10^310 lies past every float."""
    boxes = []
    monkeypatch.setattr(cascade_mod, "_certified_box",
                        lambda *args: boxes.append(args))
    cfg = dict(HAT_CFG, options={"grid_exponent": 10 ** 6})
    for argv in (["cascade", "CFG"],
                 ["cascade", "CFG", "--grid", str(10 ** 6)]):
        code, out = run_cli(tmp_path, capsys, cfg, argv)
        assert code == EXIT_NO_CONVERGENCE
        assert "(2^1000000 + 1)^1 nodes" in out["error"]
        assert "physical memory" in out["error"]
    assert boxes == []
    monkeypatch.undo()
    far = dict(HAT_CFG, mask=HAT_CFG["mask"] + [{"k": [10 ** 310],
                                                 "coef": "1/4"}])
    code, out = run_cli(tmp_path, capsys, far,
                        ["cascade", "CFG", "--grid", "2", "--verify-p", "1"])
    assert code == EXIT_NO_CONVERGENCE
    assert "physical memory" in out["error"]


def test_boolean_coefficient_rejected(tmp_path, capsys):
    cfg = dict(HAT_CFG)
    cfg["mask"] = [{"g": 0, "k": [0], "coef": True}]
    code, _ = run_cli(tmp_path, capsys, cfg, ["accuracy", "CFG"])
    assert code == EXIT_MALFORMED


def test_duplicate_mask_entry_rejected(tmp_path, capsys):
    cfg = dict(HAT_CFG)
    cfg["mask"] = [{"g": 0, "k": [0], "coef": 1},
                   {"g": 0, "k": [0], "coef": 1}]
    code, _ = run_cli(tmp_path, capsys, cfg, ["accuracy", "CFG"])
    assert code == EXIT_MALFORMED


def _diagonal_hat(centre):
    """The 1D hat on both diagonal entries of 2 x 2 blocks, with the block
    at k = 0 given as ``centre``; its entries are read one by one."""
    half = [["1/2", 0], [0, "1/2"]]
    return dict(HAT_CFG, mask=[{"k": [-1], "coef": half},
                               {"k": [0], "coef": centre},
                               {"k": [1], "coef": half}])


def test_each_literal_is_read_by_its_own_type(tmp_path, capsys):
    """Literals that are equal as Python values but differ in JSON type
    are read apart: true after 1 is refused, 1.0 after 1 is read as a
    float.  A literal that fails is refused at its first appearance, with
    its own message, however often it repeats."""
    code, out = run_cli(tmp_path, capsys, _diagonal_hat([[1, 0], [0, True]]),
                        ["accuracy", "CFG"])
    assert code == EXIT_MALFORMED
    assert out["error"] == "boolean is not a coefficient"
    code, out = run_cli(tmp_path, capsys, _diagonal_hat([[1, 0], [0, 1.0]]),
                        ["accuracy", "CFG", "--p-max", "3"])
    assert code == EXIT_OK
    assert out["diagnostics"].pop("float_max_relative_change") == 0.0
    _, exact = run_cli(tmp_path, capsys, _diagonal_hat([[1, 0], [0, 1]]),
                       ["accuracy", "CFG", "--p-max", "3"])
    assert out == exact and out["accuracy"] == 2
    with pytest.raises(ValueError) as first:
        read_scalar("1/0")
    bad = dict(HAT_CFG, mask=[{"k": [k], "coef": [["1/0", "1/0"], [0, 1]]}
                              for k in (-1, 0, 1)])
    code, out = run_cli(tmp_path, capsys, bad, ["accuracy", "CFG"])
    assert code == EXIT_MALFORMED
    assert out["error"] == str(first.value)


def test_each_distinct_literal_is_parsed_once(monkeypatch):
    """Mask reads its coefficients through linalg.read_scalar, the one
    reader, and reads each distinct (type, value) string or float of one
    construction once, however many entries repeat it, whether the mask
    comes from a CLI config or from Mask.scalar; an exact value is read
    where it stands, and an [re, im] pair whole, its parts by the pair's
    own reading.  The readings live in one construction only."""
    calls = []
    read = mask_mod.read_scalar

    def spy(value):
        calls.append(value)
        return read(value)

    monkeypatch.setattr(mask_mod, "read_scalar", spy)
    cfg = _diagonal_hat([[1, 0.0], [0, 1.0]])
    cfg["mask"].append({"k": [2], "coef": [[["1/2", 0], 0], [0, "1/2"]]})
    triple, _ = cli_mod._build_setting(cfg)
    mask = cli_mod._build_mask(cfg, triple)
    assert mask.r == 2
    parsed = [x for x in calls if isinstance(x, (str, float, list))]
    assert parsed == ["1/2", 0.0, 1.0, ["1/2", 0]]
    assert sorted(x for x in calls if type(x) is int) == [0] * 7 + [1]
    for _ in range(2):
        calls.clear()
        mask = Mask.scalar(triple, {k: v for k, v in zip(
            range(-2, 4), ("1/4", "1/2", 0.75, "1/2", "1/4", 0.75))})
        assert calls == ["1/4", "1/2", 0.75]
        assert mask.float_change == 0.0


def test_cascade_hat_full_report(tmp_path, capsys):
    code, out = run_cli(tmp_path, capsys, HAT_CFG,
                        ["cascade", "CFG", "--verify-p", "3"])
    assert code == EXIT_OK
    assert out["converged"] is True
    assert out["sup_diff_last"] <= 1e-12
    assert out["iterations"] == 12 and out["grid_exponent"] == 8
    assert out["seed"] == DEFAULT_SEED
    assert out["solver_accuracy"] == 2
    assert out["degenerate"] is False
    reports = out["reports"]
    assert [r["s"] for r in reports] == [0, 1, 2]
    for r in reports[:2]:
        assert r["verdict"] is True
        assert r["probed"] is False
        assert r["residual"] < 1e-6
    assert reports[2]["probed"] is True
    assert reports[2]["verdict"] is False
    assert reports[2]["residual"] > 1e-2
    assert out["empirical_accuracy"] == 2


def test_a_complex_float_c_is_written_as_a_pair(tmp_path, capsys):
    """A float C with a non-zero imaginary part is written as [re, im]:
    on the complex p1 mask {0: 1/2 + i/4, 1: 1, 2: 1/2 - i/4}, A = 2, the
    cascade's C is 1 up to an imaginary part of rounding size."""
    mask = [{"k": [0], "coef": ["1/2", "1/4"]}, {"k": [1], "coef": 1},
            {"k": [2], "coef": ["1/2", "-1/4"]}]
    code, out = run_cli(tmp_path, capsys, dict(HAT_CFG, mask=mask),
                        ["cascade", "CFG", "--grid", "6", "--iters", "30"])
    assert code == EXIT_OK and out["solver_accuracy"] == 1
    (report,) = out["reports"]
    re_part, im_part = report["C"]
    assert abs(re_part - 1) < 1e-12 and 0 < abs(im_part) < 1e-15


def test_cascade_zero_mask_degenerate(tmp_path, capsys):
    cfg = dict(HAT_CFG)
    cfg["mask"] = [{"g": 0, "k": [0], "coef": 0}]
    code, out = run_cli(tmp_path, capsys, cfg,
                        ["cascade", "CFG", "--iters", "4", "--grid", "4"])
    assert code == EXIT_OK
    assert out["degenerate"] is True
    assert out["field_max"] == 0.0
    assert out["reports"] == []
    assert out["empirical_accuracy"] == 0


def test_cascade_of_a_growing_mask_is_not_degenerate(tmp_path, capsys):
    cfg = dict(HAT_CFG)
    cfg["mask"] = [{"g": 0, "k": [k], "coef": 8} for k in (0, 1)]
    code, out = run_cli(tmp_path, capsys, cfg,
                        ["cascade", "CFG", "--iters", "3", "--grid", "4"])
    assert code == EXIT_OK
    assert out["converged"] is False
    assert out["degenerate"] is False
    assert out["field_max"] > 0
    assert out["empirical_accuracy"] is None
    assert "converge" in out["note"]


def test_box_step_bound_exits_5(tmp_path, monkeypatch):
    """A quincunx support box that does not certify within the step bound
    ends in exit 5 with a JSON error and no traceback."""
    cfg = {"group": "p1", "dimension": 2, "dilation": [[1, 1], [1, -1]],
           "mask": [{"g": 0, "k": [0, 0], "coef": 1},
                    {"g": 0, "k": [1, 0], "coef": 1}]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    monkeypatch.setattr(cascade_mod, "MAX_BOX_STEPS", 1)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["cascade", str(path), "--grid", "3"])
    assert code == EXIT_NO_CONVERGENCE
    assert "support box" in json.loads(out.getvalue())["error"]
    assert "Traceback" not in err.getvalue()


def test_lift_extract_round_trip(tmp_path, capsys):
    cfg = dict(PM_CFG)
    cfg["mask"] = PM_MASK
    code, lifted = run_cli(tmp_path, capsys, cfg, ["lift", "CFG"],
                           name="lift.json")
    assert code == EXIT_OK
    assert lifted["r"] == 2
    assert lifted["entries"]
    assert all(e["g"] == 0 for e in lifted["entries"])

    back_cfg = dict(PM_CFG)
    back_cfg["mask"] = lifted["entries"]
    code, scalar = run_cli(tmp_path, capsys, back_cfg, ["extract", "CFG"],
                           name="extract.json")
    assert code == EXIT_OK
    assert scalar["r"] == 1
    got = {(e["g"], tuple(e["k"])): e["coef"][0][0]
           for e in scalar["entries"]}
    assert got == {(0, (0, 0)): "1", (0, (1, 0)): "1/2",
                   (1, (0, 1)): "-2/3", (1, (1, 1)): "5"}


def test_extract_wrong_block_size_exits_4(tmp_path, capsys):
    cfg = dict(PM_CFG)
    cfg["mask"] = [{"g": 0, "k": [0, 0], "coef": 1}]
    code, _ = run_cli(tmp_path, capsys, cfg, ["extract", "CFG"])
    assert code == EXIT_SHAPE


def test_extract_of_a_matrix_mask_that_is_no_lift_exits_4(tmp_path,
                                                           capsys):
    """The p1m hat lifted, then one row-1 entry changed by 1/7: no scalar
    mask lifts to it, so extract ends in exit 4 with a JSON error that
    names the entry, and no traceback."""
    cfg = {"group": "p1m", "dimension": 1, "dilation": [[2]],
           "mask": [{"g": g, "k": [k], "coef": c} for g in (0, 1)
                    for k, c in ((-1, "1/4"), (0, "1/2"), (1, "1/4"))]}
    code, lifted = run_cli(tmp_path, capsys, cfg, ["lift", "CFG"],
                           name="lift.json")
    assert code == EXIT_OK
    entries = lifted["entries"]
    entries[0]["coef"][1][0] = str(Fraction(entries[0]["coef"][1][0])
                                   + Fraction(1, 7))
    path = tmp_path / "extract.json"
    path.write_text(json.dumps(dict(cfg, mask=entries)), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["extract", str(path)])
    assert code == EXIT_SHAPE
    assert "entry (1, 0)" in json.loads(out.getvalue())["error"]
    assert "Traceback" not in err.getvalue()


def test_repeated_runs_are_byte_identical(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(HAT_CFG), encoding="utf-8")
    assert main(["accuracy", str(path), "--method", "both"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["accuracy", str(path), "--method", "both"]) == EXIT_OK
    assert capsys.readouterr().out == first
    args = ["cascade", str(path), "--grid", "6", "--iters", "10"]
    assert main(args) == EXIT_OK
    c1 = capsys.readouterr().out
    assert main(args) == EXIT_OK
    assert capsys.readouterr().out == c1


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("config, flags, expected", [
    ("hat.json", [], "hat_defaults.stdout"),
    ("quadratic_bspline_2d.json",
     ["--grid", "5", "--iters", "21", "--verify-p", "4"],
     "cascade_grid.stdout"),
    ("pm.json", [], "pm.stdout"),
    ("p4m_hat.json", ["--grid", "5", "--verify-p", "5"],
     "p4m_hat_grid5_verify5.stdout"),
    ("hat.json", ["--verify-p", "0"], "hat_verify0.stdout"),
])
def test_cascade_stdout_matches_golden(capsys, monkeypatch, config, flags,
                                       expected):
    """crystacc cascade prints, byte for byte, the stdout recorded in
    tests/golden: witness degrees, probed degrees past them (p4m at
    --verify-p 5), a run with no witness (the pm mask, accuracy 0) and
    one that tests nothing (--verify-p 0)."""
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert main(["cascade", str(GOLDEN / config), *flags]) == EXIT_OK
    assert capsys.readouterr().out == (GOLDEN / expected).read_text(
        encoding="utf-8")


@pytest.mark.parametrize("config", ["hat", "pm", "p4m_hat",
                                    "quadratic_bspline_2d"])
def test_accuracy_both_stdout_matches_golden(capsys, config):
    """crystacc accuracy --method both prints, byte for byte, the stdout
    recorded in tests/golden: certificates of accuracy 2 (the 1D hat and
    the p4m hat) and 3 (the quadratic B-spline), and the pm mask, whose
    sum rule fails (accuracy 0, per-coset moments that disagree)."""
    assert main(["accuracy", str(GOLDEN / f"{config}.json"), "--method",
                 "both"]) == EXIT_OK
    assert capsys.readouterr().out == (
        GOLDEN / f"{config}_accuracy_both.stdout").read_text(
            encoding="utf-8")


def test_lifted_accuracy_stdout_matches_golden(capsys):
    """crystacc accuracy --p-max 3 on the p4m hat lifted to a bare-lattice
    mask (r = 8, m = 4 digit cosets, written by crystacc lift) prints, byte
    for byte, the stdout recorded in tests/golden: the lifted r = 8
    elimination certifies the scalar mask's accuracy 2."""
    assert main(["accuracy", str(GOLDEN / "p4m_hat_lifted.json"),
                 "--p-max", "3"]) == EXIT_OK
    assert capsys.readouterr().out == (
        GOLDEN / "p4m_hat_lifted_accuracy.stdout").read_text(
            encoding="utf-8")


def test_cascade_walks_the_sample_once_for_every_degree(capsys,
                                                        monkeypatch):
    """The p4m hat at --grid 5 --verify-p 5 tests its two witness degrees
    and fits three more on one walk of the sample's gamma cover, with its
    golden stdout."""
    walks = []
    real = cascade_mod._gamma_cover

    def cover(*args):
        walks.append(args)
        return real(*args)

    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    monkeypatch.setattr(cascade_mod, "_gamma_cover", cover)
    assert main(["cascade", str(GOLDEN / "p4m_hat.json"), "--grid", "5",
                 "--verify-p", "5"]) == EXIT_OK
    assert capsys.readouterr().out == (
        GOLDEN / "p4m_hat_grid5_verify5.stdout").read_text(encoding="utf-8")
    assert len(walks) == 1


def _run_python(args: list) -> subprocess.CompletedProcess:
    """A fresh interpreter run on crystacc's sources with no seed in its
    environment."""
    src = str(Path(cli_mod.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != SEED_ENV_VAR}
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def _command_calls_script(report: str) -> str:
    """A script that imports crystacc.cli, runs cascade on the quadratic
    B-spline (--grid 5 --iters 21 --verify-p 4) and accuracy --method
    both, and prints ``report`` of the modules loaded before the calls
    (``before``) and after them (``after``)."""
    config = str(GOLDEN / "quadratic_bspline_2d.json")
    return textwrap.dedent(f"""
        import contextlib, io, sys
        from crystacc.cli import main
        before = set(sys.modules)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["cascade", {config!r}, "--grid", "5", "--iters",
                         "21", "--verify-p", "4"]) == 0
            assert main(["accuracy", {config!r}, "--method", "both"]) == 0
        after = set(sys.modules)
        print({report})
    """)


def test_commands_import_no_further_numpy_module():
    """In a fresh interpreter that has imported crystacc.cli, cascade on
    the quadratic B-spline (--grid 5 --iters 21 --verify-p 4) and
    accuracy --method both import no numpy module that was not loaded
    already: the sample is drawn without numpy.random, whose import
    would cost each call more than its 21 cascade steps."""
    done = _run_python(["-c", _command_calls_script(
        'sorted(m for m in after - before if m.split(".")[0] == "numpy")')])
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_commands_import_no_argparse_and_no_locale():
    """Importing crystacc.cli loads neither argparse nor gettext, and the
    cascade and accuracy --method both calls above load no locale, which
    argparse's gettext imports at its first parser."""
    done = _run_python(["-c", _command_calls_script(
        'sorted(before & {"argparse", "gettext"}), '
        'sorted(after & {"locale", "_locale"})')])
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[] []\n"


def test_the_entry_point_passes_on_the_exit_code():
    """python -m crystacc.cli exits 2 on a usage error and 0 on -h."""
    bad = _run_python(["-m", "crystacc.cli", "accuracy"])
    assert (bad.returncode, bad.stdout) == (2, "")
    assert "CONFIG" in bad.stderr
    usage = _run_python(["-m", "crystacc.cli", "-h"])
    assert (usage.returncode, usage.stdout) == (0, cli_mod.USAGE)


def test_help_prints_the_readme_command_line_block(capsys):
    """-h prints the code block under the README's "Command line"
    heading, character for character."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    block = readme.split("\n## Command line\n", 1)[1].split("```\n")[1]
    assert main(["-h"]) == EXIT_OK
    assert capsys.readouterr().out == block


def test_seed_from_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "4242")
    assert parse_args(["cascade", "CFG"]).seed == 4242
    code, out = run_cli(tmp_path, capsys, HAT_CFG,
                        ["cascade", "CFG", "--grid", "6", "--iters", "8"])
    assert code == EXIT_OK
    assert out["seed"] == 4242
    monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
    assert parse_args(["cascade", "CFG"]).seed == DEFAULT_SEED
    monkeypatch.setenv(SEED_ENV_VAR, "-3")
    assert parse_args(["cascade", "CFG"]).seed == DEFAULT_SEED
    code, out = run_cli(tmp_path, capsys, HAT_CFG,
                        ["cascade", "CFG", "--grid", "6", "--iters", "8"])
    assert code == EXIT_OK
    assert out["seed"] == DEFAULT_SEED


def test_negative_seed_flag_is_malformed(tmp_path, capsys):
    code, out = run_cli(tmp_path, capsys, HAT_CFG,
                        ["--seed", "-3", "cascade", "CFG", "--grid", "4",
                         "--iters", "8"])
    assert code == EXIT_MALFORMED
    assert "--seed" in out["error"]


def test_seed_flag_overrides_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "4242")
    code, out = run_cli(tmp_path, capsys, HAT_CFG,
                        ["--seed", "7", "cascade", "CFG", "--grid", "6",
                         "--iters", "8"])
    assert code == EXIT_OK
    assert out["seed"] == 7


def _exit_code(argv):
    """main(argv), with a SystemExit that ends the parse read as its
    exit code."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv, named", [
    ([], "command"),
    (["--seed", "3"], "command"),
    (["bogus", "CFG"], "bogus"),
    (["accuracy"], "config"),
    (["cascade", "--grid", "4"], "config"),
    (["accuracy", "CFG", "extra"], "extra"),
    (["accuracy", "CFG", "--iters", "3"], "--iters"),
    (["check-group", "CFG", "--p-max", "2"], "--p-max"),
    (["cascade", "CFG", "--bogus"], "--bogus"),
    (["--bogus", "accuracy", "CFG"], "--bogus"),
    (["accuracy", "CFG", "--p-max"], "--p-max"),
    (["cascade", "CFG", "--out"], "--out"),
    (["cascade", "CFG", "--out", "--strict"], "--out"),
    (["accuracy", "CFG", "--p-max", "two"], "--p-max"),
    (["cascade", "CFG", "--grid=1.5"], "--grid"),
    (["cascade", "CFG", "--iters", ""], "--iters"),
    (["--seed", "x", "cascade", "CFG"], "--seed"),
    (["accuracy", "CFG", "--method", "exact"], "--method"),
    (["accuracy", "CFG", "--seed", "3"], "--seed"),
    (["cascade", "CFG", "--strict=1"], "--strict"),
])
def test_usage_errors_exit_2_with_nothing_on_stdout(tmp_path, capsys, argv,
                                                    named):
    """A command line that does not parse ends in exit 2 before any config
    is read: stdout stays empty, and stderr shows the usage, then an error
    that names the option or command at fault."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(HAT_CFG), encoding="utf-8")
    code = _exit_code([str(path) if a == "CFG" else a for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("usage:")
    error = captured.err.splitlines()[-1]
    assert "error:" in error and named.lower() in error.lower()


@pytest.mark.parametrize("argv, code, field, value", [
    (["accuracy", "CFG", "--p-max=2"], EXIT_OK, "p_max", 2),
    (["accuracy", "--p-max", "2", "CFG"], EXIT_OK, "p_max", 2),
    (["accuracy", "--method=both", "CFG"], EXIT_OK, "method", "both"),
    (["accuracy", "--", "CFG"], EXIT_OK, "p_max", 4),
    (["--seed=3", "accuracy", "CFG"], EXIT_OK, "method", "condition-d"),
    (["--seed=3", "cascade", "--grid", "6", "CFG", "--iters=8"], EXIT_OK,
     "seed", 3),
    (["--seed", "-3", "cascade", "CFG"], EXIT_MALFORMED, "error",
     "--seed must be nonnegative"),
])
def test_accepted_command_lines(tmp_path, capsys, argv, code, field, value):
    """Options go before or after CONFIG, as --name VALUE or --name=VALUE,
    --seed before the command; a value is the next token as it stands, so
    a negative --seed reaches the command's own check."""
    cfg = dict(HAT_CFG, options={"p_max": 4})
    got, out = run_cli(tmp_path, capsys, cfg, argv)
    assert got == code
    assert out[field] == value


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["accuracy", "-h"],
                                  ["cascade", "CFG", "--help"],
                                  ["--seed", "3", "-h"]])
def test_help_exits_0(capsys, argv):
    assert _exit_code(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert "crystacc" in captured.out and captured.err == ""


QUADRATIC_BSPLINE_2D_CFG = {
    "group": "p1",
    "dimension": 2,
    "dilation": [[2, 0], [0, 2]],
    "mask": [{"k": [i, j], "coef": f"{a * b}/16"}
             for i, a in enumerate((1, 3, 3, 1))
             for j, b in enumerate((1, 3, 3, 1))],
}


def test_cascade_on_a_coarse_grid_of_the_quadratic_bspline(tmp_path,
                                                          capsys):
    """On its certified box [0, 3]^2 the tensor quadratic B-spline keeps a
    sampling margin at h = 2^-4 and reaches the solver's accuracy."""
    code, out = run_cli(tmp_path, capsys, QUADRATIC_BSPLINE_2D_CFG,
                        ["cascade", "CFG", "--grid", "4", "--iters", "21",
                         "--verify-p", "4"])
    assert code == EXIT_OK
    assert out["converged"]
    assert out["solver_accuracy"] == 3
    assert out["empirical_accuracy"] == 3


def test_cascade_csv_dump(tmp_path, capsys):
    out_path = tmp_path / "field.csv"
    code, out = run_cli(tmp_path, capsys, HAT_CFG,
                        ["cascade", "CFG", "--grid", "4", "--iters", "8",
                         "--out", str(out_path)])
    assert code == EXIT_OK
    assert out["csv"] == str(out_path)
    lines = out_path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "x0,re0,im0"
    # header plus one row per node of the hat's box [-1, 1] at h = 2^-4
    assert len(lines) == 1 + 33
    xs = [float(line.split(",")[0]) for line in lines[1:]]
    assert xs[0] == -1.0 and xs[-1] == 1.0


def test_cascade_csv_dump_to_an_unwritable_path(tmp_path, capsys):
    """A --out path that cannot be opened ends in one JSON error."""
    out_path = tmp_path / "missing" / "field.csv"
    code, out = run_cli(tmp_path, capsys, HAT_CFG,
                        ["cascade", "CFG", "--grid", "4", "--iters", "8",
                         "--out", str(out_path)])
    assert code == EXIT_MALFORMED
    assert set(out) == {"schema_version", "error"}
    assert "--out" in out["error"]
    assert not out_path.parent.exists()


def test_unwritable_out_path_is_refused_before_any_work(tmp_path, capsys,
                                                        monkeypatch):
    """A missing directory, a directory and a path below a file are
    refused before the exact solver and the cascade run; a write that
    fails later still ends in one JSON error."""
    calls = []

    def record(name):
        def stub(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} ran")
        return stub

    monkeypatch.setattr(cascade_mod, "cascade_iterate",
                        record("cascade_iterate"))
    monkeypatch.setattr(cli_mod, "max_accuracy", record("max_accuracy"))
    (tmp_path / "file").write_text("", encoding="utf-8")
    for out_path in (tmp_path / "missing" / "field.csv", tmp_path,
                     tmp_path / "file" / "field.csv"):
        code, out = run_cli(tmp_path, capsys, HAT_CFG,
                            ["cascade", "CFG", "--out", str(out_path)])
        assert code == EXIT_MALFORMED
        assert set(out) == {"schema_version", "error"}
        assert "--out" in out["error"]
    assert calls == []
    monkeypatch.undo()

    def fail(field, path):
        raise PermissionError(f"denied: {path}")

    monkeypatch.setattr(cli_mod, "_dump_field_csv", fail)
    code, out = run_cli(tmp_path, capsys, HAT_CFG,
                        ["cascade", "CFG", "--grid", "4", "--iters", "8",
                         "--out", str(tmp_path / "field.csv")])
    assert code == EXIT_MALFORMED
    assert set(out) == {"schema_version", "error"}
    assert "denied" in out["error"]


def test_a_shrinking_field_claims_no_empirical_accuracy(tmp_path, capsys):
    """The p1 mask {0: 1/2, 1: 1/2} has no eigenvalue 1 in its averaged
    coefficient sum, so the integral must vanish: its iterate is the cell
    indicator halved at every step.  It converges to within the tolerance
    and its degree-0 fit passes, but no empirical accuracy is claimed."""
    cfg = dict(HAT_CFG, mask=[{"g": 0, "k": [0], "coef": "1/2"},
                              {"g": 0, "k": [1], "coef": "1/2"}])
    code, out = run_cli(tmp_path, capsys, cfg,
                        ["cascade", "CFG", "--grid", "6", "--iters", "21",
                         "--verify-p", "3"])
    assert code == EXIT_OK
    assert out["converged"] is True and out["degenerate"] is False
    assert out["solver_accuracy"] == 0
    assert out["reports"][0]["verdict"] is True
    assert out["empirical_accuracy"] is None
    assert "integral must vanish" in out["note"]


def test_cascade_on_a_non_integer_lattice(tmp_path, capsys):
    """The hat on the lattice (1/3)Z runs in lattice coordinates y = 3x,
    where every read is a node: it converges and reproduces the solver's
    accuracy with C = 1, and its field is dumped at x = y / 3."""
    cfg = dict(HAT_CFG, lattice=[["1/3"]])
    code, out = run_cli(tmp_path, capsys, cfg,
                        ["cascade", "CFG", "--grid", "6", "--iters", "21"])
    assert code == EXIT_OK
    assert out["converged"] is True
    assert out["solver_accuracy"] == 2
    assert out["empirical_accuracy"] == 2
    assert out["reports"][0]["s"] == 0 and out["reports"][0]["C"] == 1.0
    out_path = tmp_path / "field.csv"
    code, _ = run_cli(tmp_path, capsys, cfg,
                      ["cascade", "CFG", "--grid", "4", "--out",
                       str(out_path)])
    assert code == EXIT_OK
    lines = out_path.read_text(encoding="utf-8").strip().splitlines()
    # the box [-1, 1] in y at h = 2^-4
    assert len(lines) == 1 + 33
    xs = [float(line.split(",")[0]) for line in lines[1:]]
    assert xs[0] == -1 / 3 and xs[-1] == 1 / 3


@pytest.mark.parametrize("command,options", [
    ("accuracy", {"p_max": "x"}),
    ("accuracy", []),
    ("accuracy", None),
    ("accuracy", {"p_max": 0}),
    ("accuracy", {"p_max": float("inf")}),
    ("cascade", {"p_max": "x"}),
    ("cascade", []),
    ("cascade", {"iterations": "many"}),
    ("cascade", {"grid_exponent": -1}),
    ("cascade", {"tolerance": [1e-5]}),
    ("cascade", {"sample_count": 0}),
    ("cascade", {"tolerance": float("nan")}),
    ("cascade", {"tolerance": float("inf")}),
    # a boolean is no number, and a fractional number is no integer
    ("accuracy", {"p_max": True}),
    ("accuracy", {"p_max": 2.9}),
    ("cascade", {"sample_count": True}),
    ("cascade", {"tolerance": True}),
])
def test_malformed_options_exit_1(tmp_path, capsys, command, options):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(HAT_CFG, options=options)),
                    encoding="utf-8")
    code = main([command, str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_MALFORMED
    assert "option" in json.loads(captured.out)["error"]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command,cfg,code", [
    ("accuracy", {"mask": [{"g": 0, "k": [0], "coef": []}]}, EXIT_MALFORMED),
    ("accuracy", {"mask": [{"g": 0, "k": [0], "coef": [[1], 2]}]},
     EXIT_MALFORMED),
    ("accuracy", {"mask": [{"g": 0, "k": [0], "coef": [[[[1, 2], [3, 4]]]]}]},
     EXIT_MALFORMED),
    ("check-group", {"dimension": 2, "dilation": [[2, 0], [0]]},
     EXIT_MALFORMED),
    ("check-group", {"lattice": [[1], []]}, EXIT_MALFORMED),
    ("check-group", {"group": [[[1, 0], [0]]], "dimension": 2,
                     "dilation": [[2, 0], [0, 2]]}, EXIT_MALFORMED),
    ("check-group", {"group": [[[1, 0, 0], [0, 1, 0]]], "dimension": 2,
                     "dilation": [[2, 0], [0, 2]]}, EXIT_BAD_GROUP),
    ("accuracy", {"group": 5}, EXIT_MALFORMED),
    # complex entries are refused, not cut down to their real parts
    ("check-group", {"dimension": 2,
                     "dilation": [["2", ["0", "1"]], ["0", "2"]]},
     EXIT_MALFORMED),
    ("check-group", {"lattice": [[["1", "1"]]]}, EXIT_MALFORMED),
    ("check-group", {"group": [[[["-1", "1"]]]]}, EXIT_MALFORMED),
    # a generator of the wrong size is named as such
    ("check-group", {"dimension": 2, "group": [[[-1]]],
                     "dilation": [[2, 0], [0, 2]]}, EXIT_BAD_GROUP),
    # non-finite coefficients are malformed, not read or certified
    ("accuracy", {"mask": [{"k": [-1], "coef": 0.5},
                           {"k": [0], "coef": float("nan")},
                           {"k": [1], "coef": 0.5}]}, EXIT_MALFORMED),
    ("accuracy", {"mask": [{"k": [0], "coef": float("inf")}]},
     EXIT_MALFORMED),
    ("lift", {"mask": [{"k": [0], "coef": [float("-inf"), 0]}]},
     EXIT_MALFORMED),
    # a boolean is no point index or lattice coordinate
    ("accuracy", {"group": "p1m",
                  "mask": [{"g": True, "k": [0], "coef": 1}]},
     EXIT_MALFORMED),
    ("accuracy", {"mask": [{"g": 0, "k": [False], "coef": 1}]},
     EXIT_MALFORMED),
    # the dimension is read by the rule of the options: no boolean, no
    # fraction, at least 1
    ("check-group", {"dimension": True}, EXIT_MALFORMED),
    ("check-group", {"dimension": 1.9}, EXIT_MALFORMED),
    ("check-group", {"dimension": 0}, EXIT_MALFORMED),
    # shapes are compared with the dimension before anything of that size
    # is built
    ("check-group", {"dimension": 10 ** 6, "group": [[[-1]]]},
     EXIT_BAD_GROUP),
    # a float matrix entry is inexact
    ("check-group", {"dilation": [[2.0]]}, EXIT_MALFORMED),
    # a config that is no JSON object, and no config at the path
    ("check-group", [HAT_CFG], EXIT_MALFORMED),
    ("check-group", None, EXIT_MALFORMED),
    ("accuracy", {"mask": [1]}, EXIT_MALFORMED),
    ("accuracy", {"mask": [{"k": [0], "coef": [[1, 0], [0]]}]}, EXIT_SHAPE),
    ("accuracy", {"mask": [{"k": [0], "coef": 1},
                           {"k": [1], "coef": [[1, 0], [0, 1]]}]},
     EXIT_SHAPE),
    # a generator of infinite order does not close within 48 elements
    ("check-group", {"group": [[[2]]]}, EXIT_BAD_GROUP),
    ("extract", {"group": "p1m",
                 "mask": [{"k": [0], "coef": [[0, 0], [0, 0]]}]},
     EXIT_SHAPE),
])
def test_malformed_shapes_end_in_a_json_error(tmp_path, capsys, command, cfg,
                                              code):
    path = tmp_path / "cfg.json"
    if cfg is not None:  # None: no file at the path
        path.write_text(json.dumps(dict(HAT_CFG, **cfg)
                                   if isinstance(cfg, dict) else cfg),
                        encoding="utf-8")
    assert main([command, str(path)]) == code
    captured = capsys.readouterr()
    assert "error" in json.loads(captured.out)
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("cfg,code", [
    ({"dimension": 200, "dilation": [[2]]}, EXIT_INADMISSIBLE),
    ({"dimension": 10 ** 5, "dilation": [[2]]}, EXIT_INADMISSIBLE),
    ({"dimension": 10 ** 5, "dilation": None}, EXIT_MALFORMED),
    ({"dimension": 10 ** 5, "dilation": [[2, 0], [0]]}, EXIT_MALFORMED),
    ({"dimension": 10 ** 5, "lattice": [[1]], "dilation": [[2]]},
     EXIT_BAD_GROUP),
    ({"dimension": 10 ** 5, "group": [[[-1]]], "dilation": [[2]]},
     EXIT_BAD_GROUP),
])
@pytest.mark.parametrize("command", ["check-group", "accuracy"])
def test_a_large_dimension_is_refused_before_it_is_built(
        tmp_path, capsys, monkeypatch, command, cfg, code):
    """A config whose lattice, dilation or generators do not have the size
    its dimension asks for, or that has no dilation, is refused with the
    exit code of that one fault before any d x d matrix is built: no
    catalog triple and no identity.  (None drops a field.)"""
    def refused(*args):
        raise AssertionError("a d x d matrix was built")

    monkeypatch.setattr(cli_mod, "catalog_triple", refused)
    monkeypatch.setattr(Mat, "identity", staticmethod(refused))
    cfg = {k: v for k, v in {**HAT_CFG, **cfg}.items() if v is not None}
    assert run_cli(tmp_path, capsys, cfg, [command, "CFG"])[0] == code


@pytest.mark.parametrize("forms", [
    ("1/2", ["1/2", 0], [[["1/2", 0]]]),
    (0.5, [0.5, 0], [[[0.5, 0]]]),
])
def test_scalar_coef_pair_reads_as_one_complex_scalar(tmp_path, capsys,
                                                      forms):
    outs = []
    for coef in forms:
        mask = [dict(HAT_CFG["mask"][0], coef=coef)] + HAT_CFG["mask"][1:]
        code, out = run_cli(tmp_path, capsys, dict(HAT_CFG, mask=mask),
                            ["accuracy", "CFG"])
        assert code == EXIT_OK
        outs.append(out)
    assert outs[0]["accuracy"] == 2
    assert outs[1] == outs[0] and outs[2] == outs[0]


# -- fuzzed configs ---------------------------------------------------------

ABSENT = object()
EXIT_CODES = {EXIT_OK, EXIT_MALFORMED, EXIT_BAD_GROUP, EXIT_INADMISSIBLE,
              EXIT_SHAPE, EXIT_NO_CONVERGENCE}

json_leaf = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                      st.floats(-4, 4),
                      st.sampled_from([float("nan"), float("inf"),
                                       float("-inf"), 1e308]),
                      st.sampled_from(["1/2", "x", "", "1/0", "-3"]))
json_any = st.recursive(
    json_leaf, lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["g", "k", "coef", "p_max"]), inner,
                        max_size=3)),
    max_leaves=8)
scalar = st.sampled_from(["1/2", 1, 0, 0.5, ["1/2", "1/4"], [0.5, 0],
                         float("nan"), float("inf"), -float("inf"), 1e308])
coef = st.one_of(scalar, st.builds(lambda x: [[x]], scalar),
                 st.lists(st.lists(scalar, min_size=2, max_size=2),
                          min_size=2, max_size=2), json_any)
GROUPS = {1: ["p1", "p1m", [[[-1]]]],
          2: ["p1", "pm", "p4m", [[[0, -1], [1, 0]]], [[[1, 0], [0, -1]]]]}
DILATIONS = {1: [[[2]], [[-2]], [[3]], [[1]]],
             2: [[[2, 0], [0, 2]], [[2, 0], [0, 2]], [[1, 1], [-1, 1]],
                 [[0, 0], [0, 0]]]}
LATTICES = {1: [[[1]], [["1/2"]]], 2: [[[1, 0], [0, 1]], [["1/2", 0], [0, 1]]]}


@st.composite
def config(draw):
    """A documented config in one or two dimensions, then up to two of its
    fields replaced by any JSON value or dropped."""
    d = draw(st.sampled_from([1, 2]))
    entry = st.fixed_dictionaries({
        "g": st.sampled_from([0, 0, 1, 2]),
        "k": st.lists(st.integers(-1, 1), min_size=d, max_size=d),
        "coef": coef})
    cfg = {"group": draw(st.sampled_from(GROUPS[d])), "dimension": d,
           "dilation": draw(st.sampled_from(DILATIONS[d])),
           "lattice": draw(st.sampled_from([ABSENT, ABSENT] + LATTICES[d])),
           "mask": draw(st.lists(entry, min_size=1, max_size=3)),
           "options": draw(st.sampled_from([ABSENT, {"p_max": 2}]))}
    for name in draw(st.lists(st.sampled_from(sorted(cfg)), max_size=2)):
        cfg[name] = draw(st.one_of(json_any, st.just(ABSENT)))
    return {k: v for k, v in cfg.items() if v is not ABSENT}


command = st.sampled_from([["check-group"], ["accuracy", "--p-max", "2"],
                           ["lift"], ["extract"]])


@seed(2026)
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(command, config())
def test_fuzzed_configs_end_in_a_documented_exit(tmp_path_factory, argv,
                                                 cfg):
    """Any config, well formed or not, ends in an exit code the module
    docstring documents, with a JSON error whenever it is not 0, and never
    in an uncaught exception."""
    path = tmp_path_factory.mktemp("fuzz") / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], str(path), *argv[1:]])
    assert code in EXIT_CODES
    if code != EXIT_OK:
        assert "error" in json.loads(out.getvalue())
    assert "Traceback" not in err.getvalue()
