"""End-to-end command-line runs through main(argv), in process."""

import json

import pytest

from crystacc.cli import (DEFAULT_SEED, EXIT_BAD_GROUP, EXIT_INADMISSIBLE,
                          EXIT_MALFORMED, EXIT_NO_CONVERGENCE, EXIT_OK,
                          EXIT_SHAPE, SEED_ENV_VAR, build_parser, main)

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


def test_check_group_custom_generators(tmp_path, capsys):
    cfg = {"group": [[[-1]]], "dimension": 1, "dilation": [[2]]}
    code, out = run_cli(tmp_path, capsys, cfg, ["check-group", "CFG"])
    assert code == EXIT_OK
    assert out["order"] == 2
    assert out["m"] == 2


def test_malformed_json_exits_1(tmp_path, capsys):
    code, out = run_cli(tmp_path, capsys, "{not json", ["check-group", "CFG"])
    assert code == EXIT_MALFORMED
    assert "error" in out


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
    assert abs(out["witness"][0][0][0] - 1.0) < 1e-9


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


def test_seed_from_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "4242")
    assert build_parser().get_default("seed") == 4242
    code, out = run_cli(tmp_path, capsys, HAT_CFG,
                        ["cascade", "CFG", "--grid", "6", "--iters", "8"])
    assert code == EXIT_OK
    assert out["seed"] == 4242
    monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
    assert build_parser().get_default("seed") == DEFAULT_SEED


def test_seed_flag_overrides_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "4242")
    code, out = run_cli(tmp_path, capsys, HAT_CFG,
                        ["--seed", "7", "cascade", "CFG", "--grid", "6",
                         "--iters", "8"])
    assert code == EXIT_OK
    assert out["seed"] == 7


def test_cascade_csv_dump(tmp_path, capsys):
    out_path = tmp_path / "field.csv"
    code, out = run_cli(tmp_path, capsys, HAT_CFG,
                        ["cascade", "CFG", "--grid", "4", "--iters", "8",
                         "--out", str(out_path)])
    assert code == EXIT_OK
    assert out["csv"] == str(out_path)
    lines = out_path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "x0,re0,im0"
    assert len(lines) == 1 + 65  # header plus one row per node


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
])
def test_malformed_shapes_end_in_a_json_error(tmp_path, capsys, command, cfg,
                                              code):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(HAT_CFG, **cfg)), encoding="utf-8")
    assert main([command, str(path)]) == code
    captured = capsys.readouterr()
    assert "error" in json.loads(captured.out)
    assert "Traceback" not in captured.err


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
