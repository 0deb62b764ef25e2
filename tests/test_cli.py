"""Command-line surface: exit codes, config validation, catalog listing,
reproducible report files."""

import json
import platform
from pathlib import Path

import numpy as np
import pytest

from equichk import cli


def _write(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg, indent=1))
    return p


def _suite_cfg(out_dir, mutation=None):
    entry = {
        "model": {"name": "linear_probe", "params": {"x": [1.0, 2.0]}, "seed": 21},
        "loss": {"name": "square", "params": {"target": 2.0}},
        "transform": {"name": "homogeneity_scaling", "params": {}},
        "checks": ["first_order", "second_action", "homogeneity", "sharpness"],
        "positions": 2,
        "seed": 11,
    }
    if mutation:
        entry["mutation"] = mutation
        entry["checks"] = ["first_order", "second_action", "second_quadratic"]
    return {
        "experiment": "check_suite",
        "output_dir": str(out_dir),
        "master_seed": 0,
        "plan": [entry],
    }


# ---------------------------------------------------------------------------
# version and catalog
# ---------------------------------------------------------------------------

def test_version(capsys):
    assert cli.main(["version"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("equichk ")


def test_catalog_text_lists_checks_with_anchors(capsys):
    assert cli.main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "check_first_order ⇠ Thm 1 (i)" in out
    assert "\n  first_order " in out  # the name a plan entry lists
    assert "models:" in out and "transforms:" in out
    assert "homogeneous_relu_mlp" in out and "layer_rescaling" in out


def test_catalog_json_parses(capsys):
    assert cli.main(["catalog", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"models", "losses", "transforms", "checks", "experiments"}
    assert data["checks"]["check_mirror"] == "Cor. 4"
    assert "sgf_drift" in data["experiments"]
    # parameters are read from the builders: n is listed, no "kink scale" is
    assert "n=null" in data["models"]["factored_last_layer"].split(", ")
    assert not any("kink" in sig for sig in data["models"].values())
    assert data["losses"] == {"square": "target", "exponential": "label",
                              "logistic": "label", "softmax_xent": "n_classes, label"}


def test_catalog_filter_plain_and_sectioned(capsys):
    cli.main(["catalog", "--filter", "mirror"])
    out = capsys.readouterr().out
    assert "mirror" in out and "check_mirror" in out
    assert "layer_rescaling" not in out

    cli.main(["catalog", "--filter", "transform=mirror"])
    out = capsys.readouterr().out
    assert "transforms:" in out and "mirror" in out
    assert "check_mirror" not in out  # checks section filtered away


# ---------------------------------------------------------------------------
# run: exit codes
# ---------------------------------------------------------------------------

def test_run_suite_green(tmp_path, capsys):
    cfg = _write(tmp_path, "suite.json", _suite_cfg(tmp_path / "out"))
    assert cli.main(["run", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "[PASS] check_first_order (Thm 1 (i)):" in out
    assert "checks passed" in out
    for fname in ("reports.jsonl", "summary.csv", "manifest.json"):
        assert (tmp_path / "out" / fname).exists()


def test_run_mutated_suite_fails_with_exit_1(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.json",
                 _suite_cfg(tmp_path / "out", mutation={"callback": "dh_dlambda", "scale": 1.01}))
    assert cli.main(["run", str(cfg)]) == 1
    out = capsys.readouterr().out
    assert "[FAIL]" in out


def test_run_unknown_keys_exit_2(tmp_path, capsys):
    cfg = _suite_cfg(tmp_path / "out")
    cfg["plan"][0]["modle"] = {"name": "linear_probe"}  # typo key
    cfg["frobnicate"] = True
    path = _write(tmp_path, "typo.json", cfg)
    assert cli.main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "config.frobnicate" in err and "config.plan[0].modle" in err


def _misfit(model, loss, transform, checks, **extra):
    entry = {"model": model, "loss": loss, "checks": checks, "positions": 1, **extra}
    if transform is not None:
        entry["transform"] = transform
    return entry


_PROBE = {"name": "linear_probe", "params": {"x": [1.0, 2.0]}, "seed": 21}
_PROBE_LOSS = {"name": "square", "params": {"target": 2.0}}
_SCALING = {"name": "homogeneity_scaling", "params": {}}
_DL121 = {"name": "deep_linear", "params": {"widths": [1, 2, 1]}, "seed": 22}
_SQUARE = {"name": "square", "params": {"target": 0.3}}


@pytest.mark.parametrize("entry, where", [
    (_misfit(_DL121, _SQUARE, {"name": "sign_flip", "params": {"indices": [0, 2]}},
             ["first_order"]), "checks[0]"),
    (_misfit(_PROBE, _PROBE_LOSS, _SCALING, ["first_order", "discrete_first"]), "checks[1]"),
    (_misfit({"name": "homogeneous_relu_mlp", "params": {"widths": [2, 3, 2]}, "seed": 14},
             {"name": "square", "params": {"target": [0.3, -0.4]}}, _SCALING,
             ["homogeneity"]), "checks[0]"),
    (_misfit(_PROBE, _PROBE_LOSS, None, ["first_order"]), "checks[0]"),
    (_misfit(_DL121, _SQUARE, {"name": "layer_rescaling", "params": {"blocks": ["W1", "W2"]}},
             ["first_order", "last_layer"]), "checks[1]"),
    (_misfit({"name": "homogeneous_relu_mlp", "params": {"widths": [2, 2, 1]}, "seed": 23},
             {"name": "square", "params": {"target": 0.5}},
             {"name": "permutation", "params": {"perm": [2, 3, 0, 1, 5, 4]}},
             ["discrete_first", "mirror"]), "checks[1]"),
    (_misfit(_PROBE, _PROBE_LOSS, _SCALING, ["first_order"],
             tolerances={"first_ordr": 1e-30}), "tolerances.first_ordr"),
    (_misfit(_PROBE, _PROBE_LOSS, _SCALING, ["first_order"],
             mutation={"callback": "dh_dlambdaa", "scale": 1.01}), "mutation.callback"),
    (_misfit(_PROBE, _PROBE_LOSS, _SCALING, ["first_order"],
             mutation={"callback": "dh_dlambda", "scale": "big"}), "mutation.scale"),
    (_misfit(_PROBE, _PROBE_LOSS, _SCALING, ["first_order"], lam_scale=float("inf")), "lam_scale"),
    # the loss is built at validation, so a bad loss parameter fails there
    (_misfit(_PROBE, {"name": "square", "params": {"target": float("nan")}}, _SCALING,
             ["first_order"]), "loss.params"),
    (_misfit(_PROBE, {"name": "square", "params": {"target": "a"}}, _SCALING,
             ["first_order"]), "loss.params"),
    (_misfit(_PROBE, {"name": "exponential", "params": {"label": 3}}, _SCALING,
             ["first_order"]), "loss.params"),
    # a non-finite model input fails at build
    (_misfit({"name": "linear_probe", "params": {"x": [float("nan"), 2.0]}, "seed": 21},
             _PROBE_LOSS, _SCALING, ["first_order"]), "model.params"),
    (_misfit({"name": "homogeneous_relu_mlp",
              "params": {"widths": [2, 3, 1], "input": [0.5, float("inf")]}, "seed": 14},
             _PROBE_LOSS, _SCALING, ["first_order"]), "model.params"),
    (_misfit({"name": "deep_linear", "params": {"widths": [1, 2, 1], "input": [float("nan")]},
              "seed": 22}, _PROBE_LOSS, _SCALING, ["first_order"]), "model.params"),
    (_misfit({"name": "factored_last_layer",
              "params": {"c": 2, "s": 2, "input": [float("-inf"), 1.0]}, "seed": 5},
             _PROBE_LOSS, _SCALING, ["first_order"]), "model.params"),
    # an unknown parameter key fails with the keys the entry takes
    (_misfit({"name": "deep_linear", "params": {"widths": [1, 2, 1], "widht": [1, 2, 1]},
              "seed": 22}, _SQUARE, _SCALING, ["first_order"]),
     "model.params: model 'deep_linear' takes widths, input=null"),
    (_misfit(_DL121, {"name": "square", "params": {"target": 0.3, "tagret": 0.5}}, _SCALING,
             ["first_order"]), "loss.params: loss 'square' takes target"),
    (_misfit(_DL121, _SQUARE, {"name": "homogeneity_scaling", "params": {"lam": "x"}},
             ["first_order"]), "transform.params: transform 'homogeneity_scaling' takes degree=null"),
    # no width to draw a random input from
    (_misfit({"name": "deep_linear", "params": {"widths": []}, "seed": 22}, _SQUARE, _SCALING,
             ["first_order"]), "model.params"),
    # input and n both size a factored model's input
    (_misfit({"name": "factored_last_layer",
              "params": {"c": 2, "s": 2, "input": [0.1, 0.2, 0.3], "n": 7}, "seed": 5},
             _SQUARE, _SCALING, ["first_order"]), "model.params"),
    # a transform parameter of the wrong type fails at build
    (_misfit(_DL121, _SQUARE, {"name": "layer_rescaling", "params": {"blocks": 5}},
             ["first_order"]), "transform.params"),
    (_misfit(_DL121, _SQUARE, {"name": "permutation", "params": {"perm": "ab"}},
             ["discrete_first"]), "transform.params"),
], ids=["first_order+sign_flip", "discrete_first+scaling", "homogeneity+vector_head",
        "first_order+no_transform", "last_layer+deep_linear", "mirror+permutation",
        "tolerance_key_typo", "mutation_callback_typo", "mutation_scale_not_number",
        "lam_scale_infinite", "square_target_nan", "square_target_not_number",
        "exponential_label_3", "probe_x_nan", "relu_mlp_input_inf", "deep_linear_input_nan",
        "factored_input_inf", "model_key_typo", "loss_key_typo", "transform_key_typo",
        "widths_empty", "factored_input_and_n", "rescaling_blocks_not_list",
        "perm_not_numbers"])
def test_run_misfit_entry_exit_2_before_sampling(tmp_path, capsys, entry, where):
    cfg = {"experiment": "check_suite", "output_dir": str(tmp_path / "out"), "plan": [entry]}
    assert cli.main(["run", str(_write(tmp_path, "misfit.json", cfg))]) == 2
    assert f"config.plan[0].{where}:" in capsys.readouterr().err
    assert not (tmp_path / "out" / "reports.jsonl").exists()
    assert not (tmp_path / "out").exists()


def _bundled(name, **edits):
    with open(Path(__file__).parents[1] / "configs" / f"{name}.json", encoding="utf-8") as fh:
        cfg = json.load(fh)
    for key, value in edits.items():
        if key == "weights":
            cfg["dataset"]["weights"] = value
        elif key in ("x", "target"):
            cfg["dataset"]["samples"][0][key] = value
        else:
            cfg[key] = value
    return cfg


@pytest.mark.parametrize("cfg, where", [
    (_bundled("flow_conservation", tolerances={"charge_drft": 1e-30}), "config.tolerances.charge_drft"),
    (_bundled("flow_conservation", tolerances={"charge_drift": "tight"}), "config.tolerances.charge_drift"),
    (_bundled("flow_conservation", tolerances={"charge_drift": -1}), "config.tolerances.charge_drift"),
    (_bundled("stationary_spectrum", tolerances={"eps_sta": 1.0}), "config.tolerances.eps_sta"),
    (_bundled("sgf_drift", weights=["a", "a"]), "config.dataset.weights[0]"),
    (_bundled("sgf_drift", weights=3), "config.dataset.weights"),
    (_bundled("sgf_drift", x=["a", "b"]), "config.dataset.samples[0].x"),
    (_bundled("flow_conservation", theta0=[0.1]), "config.theta0"),
    (_bundled("stationary_spectrum", theta0=[0.1]), "config.theta0"),
    (_bundled("sgf_drift", theta0=[0.1]), "config.theta0"),
    (_bundled("sgf_drift", target="a"), "config.dataset.samples[0].target"),
    (_bundled("sgf_drift", x=[1.0, 2.0]), "config.dataset.samples[0].x"),
    # 8 bytes x 10^7 members x 500 steps of noise alone: far past 1 GiB
    (_bundled("sgf_drift", dynamics={"T": 0.5, "dt": 0.001, "ensemble": 10_000_000}),
     "config.dynamics.ensemble"),
    # json.load reads NaN and Infinity; validation refuses them
    (_bundled("sgf_drift", weights=[float("nan"), float("nan")]), "config.dataset.weights[0]"),
    (_bundled("sgf_drift", noise={"mode": "exact_sde", "sigma": float("nan"), "seed": 7}),
     "config.noise.sigma"),
    (_bundled("sgf_drift", dynamics={"T": float("inf"), "dt": 0.001, "ensemble": 2000}),
     "config.dynamics.T"),
    (_bundled("sgf_drift", x=[float("nan")]), "config.dataset.samples[0].x"),
    (_bundled("flow_conservation", dynamics={"T": 10.0, "dt": float("inf")}), "config.dynamics.dt"),
    (_bundled("flow_conservation", loss={"name": "exponential", "params": {"label": 3}}),
     "config.loss.params"),
    (_bundled("flow_conservation", dynamics={"T": 0.001, "dt": 0.01}), "config.dynamics.dt"),
    # blocks that are not objects
    (_bundled("sgf_drift", noise=[]), "config.noise"),
    (_bundled("sgf_drift", noise="sigma"), "config.noise"),
    (_bundled("sgf_drift", dynamics="T"), "config.dynamics"),
    (_bundled("flow_conservation", dynamics="T"), "config.dynamics"),
    # a loss family binds its target per sample and takes no unknown key
    (_bundled("sgf_drift", loss={"name": "square", "params": {"target": [9.0]}}),
     "config.loss.params"),
    (_bundled("sgf_drift", loss={"name": "square", "params": {"zz": 1}}), "config.loss.params"),
], ids=["flow_tolerance_key_typo", "flow_tolerance_not_number", "flow_tolerance_negative",
        "stationary_tolerance_key_typo", "weights_not_numbers", "weights_not_list",
        "x_not_numbers", "flow_theta0_length", "stationary_theta0_length", "sgf_theta0_length",
        "target_not_number", "x_wrong_width", "ensemble_over_memory_limit",
        "weights_nan", "sigma_nan", "T_infinite", "x_nan", "flow_dt_infinite",
        "flow_loss_label_3", "flow_T_shorter_than_dt", "noise_list", "noise_string",
        "sgf_dynamics_string", "flow_dynamics_string", "family_fixes_target",
        "family_unknown_key"])
def test_run_dynamics_config_errors_exit_2(tmp_path, capsys, cfg, where):
    cfg = dict(cfg, output_dir=str(tmp_path / "out"))
    assert cli.main(["run", str(_write(tmp_path, "bad.json", cfg))]) == 2
    assert f"{where}:" in capsys.readouterr().err
    assert not (tmp_path / "out" / "reports.jsonl").exists()
    assert not (tmp_path / "out").exists()


def test_run_invalid_json_exit_2(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{ not json")
    assert cli.main(["run", str(p)]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_missing_file_exit_2(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "absent.json")]) == 2


def test_run_unknown_experiment_exit_2(tmp_path, capsys):
    p = _write(tmp_path, "exp.json", {"experiment": "teleport", "plan": []})
    assert cli.main(["run", str(p)]) == 2
    assert "experiment" in capsys.readouterr().err


def test_run_runtime_fault_exit_3(tmp_path, capsys):
    # far from stationary after T=1: NotConverged maps to the fault exit code
    cfg = {
        "experiment": "stationary_spectrum",
        "output_dir": str(tmp_path / "out"),
        "model": {"name": "deep_linear", "params": {"widths": [1, 2, 1]}, "seed": 6},
        "loss": {"name": "square", "params": {"target": 0.3}},
        "transforms": [{"name": "layer_rescaling", "params": {"blocks": ["W1", "W2"]}}],
        "dynamics": {"T": 1.0, "dt": 0.05},
    }
    p = _write(tmp_path, "stat.json", cfg)
    assert cli.main(["run", str(p)]) == 3
    assert "runtime fault" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# run: the other experiments end-to-end (kept small)
# ---------------------------------------------------------------------------

def test_run_flow_experiment(tmp_path, capsys):
    cfg = {
        "experiment": "flow",
        "output_dir": str(tmp_path / "out"),
        "model": {"name": "homogeneous_relu_mlp", "params": {"widths": [2, 3, 1]}, "seed": 3},
        "loss": {"name": "exponential", "params": {"label": 1}},
        "transforms": [{"name": "layer_rescaling", "params": {"blocks": ["W1", "W2"]}}],
        "dynamics": {"T": 1.0, "dt": 0.01},
        "theta0": "init",
    }
    p = _write(tmp_path, "flow.json", cfg)
    assert cli.main(["run", str(p)]) == 0
    out = capsys.readouterr().out
    assert "[PASS] gf_charge_conservation (Cor. 2):" in out
    assert "[PASS] norm_growth" in out
    assert (tmp_path / "out" / "flow.csv").exists()
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert "flow.csv" in manifest["files"]
    assert manifest["pass_counts"]["failed"] == 0
    assert manifest["flow"] == {"integrator": "rk4", "accepted_steps": 100,
                                "rejected_steps": 0, "gradient_sweeps": 401}


def test_run_stationary_first_step_may_exceed_T(tmp_path, capsys):
    # the stationary flow clips its first trial step to T, so T < dt is no
    # config error; a flow this short is far from stationary (exit 3)
    cfg = _bundled("stationary_spectrum", dynamics={"T": 0.001, "dt": 0.05},
                   output_dir=str(tmp_path / "out"))
    assert cli.main(["run", str(_write(tmp_path, "stat.json", cfg))]) == 3
    assert "NotConverged" in capsys.readouterr().err


# every bundled config: its exit code, report count and manifest flow counts
BUNDLED_RUNS = {
    "flow_conservation": (0, 2, {"integrator": "rk4", "accepted_steps": 1000,
                                 "rejected_steps": 0, "gradient_sweeps": 4001}),
    "mutation_demo": (1, 9, None),
    "sgf_drift": (0, 1, None),
    "stationary_spectrum": (0, 1, {"integrator": "dormand_prince_5_4", "accepted_steps": 308,
                                   "rejected_steps": 2, "gradient_sweeps": 1861}),
    "suite_full": (0, 174, None),
}


def test_bundled_configs_are_all_checked():
    configs = sorted(p.stem for p in (Path(__file__).parents[1] / "configs").glob("*.json"))
    assert configs == sorted(BUNDLED_RUNS)


@pytest.mark.parametrize("name", sorted(BUNDLED_RUNS))
def test_run_bundled_config(tmp_path, capsys, name):
    code, n_reports, flow = BUNDLED_RUNS[name]
    cfg = _bundled(name, output_dir=str(tmp_path / "out"))
    assert cli.run(str(_write(tmp_path, f"{name}.json", cfg))) == code
    capsys.readouterr()
    reports = (tmp_path / "out" / "reports.jsonl").read_text()
    assert len(reports.splitlines()) == n_reports
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["pass_counts"]["total"] == n_reports
    assert manifest.get("flow") == flow
    # the step counts are run records, never report content
    assert "gradient_sweeps" not in reports and "integrator" not in reports


def test_run_sgf_drift_experiment(tmp_path, capsys):
    cfg = {
        "experiment": "sgf_drift",
        "output_dir": str(tmp_path / "out"),
        "model": {"name": "deep_linear", "params": {"widths": [1, 1, 1]}, "seed": 0},
        "loss": {"name": "square"},
        "dataset": {"samples": [{"x": [1.0], "target": [0.5]},
                                {"x": [2.0], "target": [1.55]}]},
        "transform": {"name": "layer_rescaling", "params": {"blocks": ["W1", "W2"]}},
        "noise": {"mode": "exact_sde", "sigma": 0.1, "seed": 7},
        "dynamics": {"T": 0.05, "dt": 0.001, "ensemble": 150},
        "theta0": [1.2, 0.6],
        "save_trajectories": 2,
    }
    p = _write(tmp_path, "sgf.json", cfg)
    assert cli.main(["run", str(p)]) == 0
    assert "[PASS] noether_drift (Cor. 2):" in capsys.readouterr().out
    assert (tmp_path / "out" / "trajectory_0001.csv").exists()
    assert (tmp_path / "out" / "ensemble.json").exists()


# ---------------------------------------------------------------------------
# reproducibility
# ---------------------------------------------------------------------------

def test_reports_byte_identical_across_runs(tmp_path, capsys):
    cfg = _write(tmp_path, "suite.json", _suite_cfg(tmp_path / "out"))
    assert cli.main(["run", str(cfg)]) == 0
    first = {f: (tmp_path / "out" / f).read_bytes() for f in ("reports.jsonl", "summary.csv")}
    assert cli.main(["run", str(cfg)]) == 0
    for f, blob in first.items():
        assert (tmp_path / "out" / f).read_bytes() == blob
    capsys.readouterr()


def test_config_digest_ignores_key_order():
    a = {"experiment": "flow", "dynamics": {"T": 1.0, "dt": 0.01}}
    b = {"dynamics": {"dt": 0.01, "T": 1.0}, "experiment": "flow"}
    assert cli.config_digest(a) == cli.config_digest(b)
    assert cli.config_digest(a) != cli.config_digest({**a, "theta0": "init"})


def test_default_output_dir_beside_config(tmp_path, capsys):
    cfg = _suite_cfg(tmp_path / "unused")
    del cfg["output_dir"]
    path = _write(tmp_path, "myrun.json", cfg)
    assert cli.main(["run", str(path)]) == 0
    assert (tmp_path / "myrun_out" / "manifest.json").exists()
    capsys.readouterr()


def test_manifest_contents(tmp_path, capsys):
    cfg = _write(tmp_path, "suite.json", _suite_cfg(tmp_path / "out"))
    cli.main(["run", str(cfg)])
    capsys.readouterr()
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["experiment"] == "check_suite"
    assert manifest["config_digest"] == cli.config_digest(json.loads(cfg.read_text()))
    assert manifest["pass_counts"]["total"] == manifest["pass_counts"]["passed"]
    assert manifest["files"] == sorted(manifest["files"])
    assert "manifest.json" in manifest["files"]
    assert manifest["started_at"].endswith("+00:00")
    env = manifest["environment"]
    assert set(env) == {"python", "numpy", "cpu_count"}
    assert env["python"] == platform.python_version() and env["numpy"] == np.__version__
