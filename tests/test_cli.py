"""Command-line surface: exit codes, config validation, catalog listing,
reproducible report files."""

import dataclasses
import hashlib
import inspect
import json
import os
import platform
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from equichk import cli, models
from equichk import identity_checker as ic
from equichk import transforms as tr
from equichk.errors import CheckFailure


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

    # a section is named singular or plural
    for section in ("loss", "losses"):
        assert cli.main(["catalog", "--filter", f"{section}=square"]) == 0
        assert capsys.readouterr().out == "losses:\n  square                   target\n"
    assert cli.main(["catalog", "--filter", "check=mirror"]) == 0
    assert "check_mirror" in capsys.readouterr().out

    assert cli.main(["catalog", "--filter", "modle=mlp"]) == 2
    err = capsys.readouterr().err
    assert "unknown section 'modle'" in err and "model, loss, transform, check" in err


_EXPERIMENT_CHECKS = {"gf_charge_conservation": ("Cor. 2", "flow"), "norm_growth": ("§4.2", "flow"),
                      "noether_drift": ("Cor. 2", "sgf_drift"),
                      "stationary_null_count": ("§5.4", "stationary_spectrum")}


def test_catalog_lists_each_experiment_check_with_its_experiment(capsys):
    assert cli.main(["catalog"]) == 0
    out = capsys.readouterr().out
    for name, (anchor, experiment) in _EXPERIMENT_CHECKS.items():
        assert f"{name} ⇠ {anchor}" in out
        line = next(row for row in out.splitlines() if f" {name} ⇠" in row)
        assert line.startswith("  - ") and line.endswith(f"[{experiment} experiment]")
    assert cli.main(["catalog", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data["experiments"]) == set(cli.EXPERIMENTS)
    for name, (anchor, experiment) in _EXPERIMENT_CHECKS.items():
        assert data["checks"][name] == anchor
        assert [e for e, checks in data["experiments"].items() if name in checks] == [experiment]
    # a check_suite runs exactly the plan checks
    assert data["experiments"]["check_suite"] == [row.function for row in ic.CHECK_REGISTRY.values()]


def test_catalog_filter_finds_the_drift_check(capsys):
    assert cli.main(["catalog", "--filter", "check=drift"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "checks (plan name, check ⇠ anchor, needs):",
        "  -                 noether_drift ⇠ Cor. 2                           [sgf_drift experiment]",
    ]


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
_DL222 = {"name": "deep_linear", "params": {"widths": [2, 2, 2]}, "seed": 18}
_SQUARE2 = {"name": "square", "params": {"target": [0.2, -0.1]}}
_FAC = {"name": "factored_last_layer", "params": {"c": 3, "s": 2, "hidden": [3]}, "seed": 19}
_XENT = {"name": "softmax_xent", "params": {"n_classes": 3, "label": 1}}


def _reparam(width, blocks):
    """A linear_reparam entry with a symmetric generator of the given width."""
    A = 0.1 * (np.ones((width, width)) + np.eye(width))
    return {"name": "linear_reparam", "params": {"A": A.tolist(), "blocks": blocks}}


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
             ["first_order"]), "transform.params: transform 'homogeneity_scaling' takes no parameters"),
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
    # the same square block twice passes every shape check but is no symmetry
    (_misfit({"name": "deep_linear", "params": {"widths": [2, 2, 2]}, "seed": 18},
             {"name": "square", "params": {"target": [0.2, -0.1]}},
             {"name": "linear_reparam",
              "params": {"A": [[0.0, 0.7], [-0.7, 0.0]], "blocks": ["W1", "W1"]}},
             ["first_order", "second_action"]), "transform.params"),
    # integer parameters must be JSON integers: no str, float or bool is coerced
    (_misfit({"name": "homogeneous_relu_mlp", "params": {"widths": "231"}, "seed": 14},
             _PROBE_LOSS, _SCALING, ["first_order"]), "model.params: widths"),
    (_misfit({"name": "homogeneous_relu_mlp", "params": {"widths": [2.9, 3, 1]}, "seed": 14},
             _PROBE_LOSS, _SCALING, ["first_order"]), "model.params: widths"),
    (_misfit({"name": "homogeneous_relu_mlp", "params": {"widths": [2, 3, True]}, "seed": 14},
             _PROBE_LOSS, _SCALING, ["first_order"]), "model.params: widths"),
    (_misfit({"name": "factored_last_layer", "params": {"c": 2.0, "s": 2}, "seed": 5},
             _SQUARE, _SCALING, ["first_order"]), "model.params: c"),
    (_misfit(_PROBE, {"name": "softmax_xent", "params": {"n_classes": 3, "label": 1.5}},
             _SCALING, ["first_order"]), "loss.params: label"),
    (_misfit(_DL121, _SQUARE, {"name": "sign_flip", "params": {"indices": [0, 2.0]}},
             ["discrete_first"]), "transform.params: indices"),
    # the model states its own degree, so a degree key is refused
    (_misfit(_PROBE, _PROBE_LOSS, {"name": "homogeneity_scaling", "params": {"degree": 1.5}},
             ["first_order"]), "transform.params: transform 'homogeneity_scaling' takes no parameters"),
    # a mutation no listed check reads, with or without a transform
    (_misfit(_PROBE, _PROBE_LOSS, None, ["homogeneity"],
             mutation={"callback": "dh_dlambda", "scale": 100.0}), "mutation"),
    (_misfit(_PROBE, _PROBE_LOSS, _SCALING, ["homogeneity"],
             mutation={"callback": "dh_dlambda", "scale": 100.0}), "mutation"),
    # a mutation of a callback the transform declares identically zero
    (_misfit({"name": "homogeneous_relu_mlp", "params": {"widths": [2, 3, 1]}, "seed": 15},
             {"name": "square", "params": {"target": -0.2}},
             {"name": "layer_rescaling", "params": {"blocks": ["W1", "W2"]}},
             ["first_order", "second_action", "second_quadratic"],
             mutation={"callback": "d2g_dy2", "scale": 100.0}), "mutation.callback"),
    (_misfit(_PROBE, _PROBE_LOSS, _SCALING, ["first_order"], mode="symbolic"), "mode"),
    # settings with one value are no keys of an entry or a model
    (_misfit(_PROBE, _PROBE_LOSS, _SCALING, ["first_order"], margin=1e-3), "margin"),
    (_misfit(_PROBE, _PROBE_LOSS, _SCALING, ["first_order"], trials=20), "trials"),
    (_misfit({"name": "homogeneous_relu_mlp", "params": {"widths": [2, 3, 1], "depth": 2},
              "seed": 14}, _PROBE_LOSS, _SCALING, ["first_order"]),
     "model.params: model 'homogeneous_relu_mlp' takes widths, input=null"),
    # families that are no symmetry of their model: linear_reparam needs the
    # layer directly after `up` in a linear chain, layer_rescaling a
    # homogeneous chain (tanh features are not)
    (_misfit(_DL222, _SQUARE2, _reparam(2, ["W2", "W1"]), ["first_order"]), "transform.params"),
    (_misfit({"name": "deep_linear", "params": {"widths": [2, 2, 2, 2]}, "seed": 18}, _SQUARE2,
             _reparam(2, ["W1", "W3"]), ["first_order"]), "transform.params"),
    (_misfit({"name": "homogeneous_relu_mlp", "params": {"widths": [2, 3, 1]}, "seed": 15},
             _SQUARE, _reparam(3, ["W1", "W2"]), ["first_order"]), "transform.params"),
    (_misfit(_FAC, _XENT, _reparam(2, ["V2", "W"]), ["first_order"]), "transform.params"),
    (_misfit(_FAC, _XENT, {"name": "layer_rescaling", "params": {"blocks": ["V1", "V2"]}},
             ["first_order"]), "transform.params"),
    (_misfit(_FAC, _XENT, {"name": "layer_rescaling", "params": {"blocks": ["W", "V2"]}},
             ["first_order"]), "transform.params"),
    # a 3-cycle of hidden units is a symmetry but no involution, so it has no
    # fixed-point projection to sample discrete positions with
    (_misfit({"name": "deep_linear", "params": {"widths": [1, 3, 1]}, "seed": 22}, _SQUARE,
             {"name": "permutation", "params": {"perm": [1, 2, 0, 4, 5, 3]}},
             ["discrete_first"]), "checks[0]"),
    # flipping the sign of two of W2's three rows puts their hidden units on
    # the ReLU kink at every fixed point, so no position can be sampled
    (_misfit({"name": "homogeneous_relu_mlp", "params": {"widths": [1, 1, 3, 1]}, "seed": 0},
             _SQUARE, {"name": "sign_flip", "params": {"indices": [3, 2]}},
             ["discrete_first", "discrete_second"]), "transform.params"),
    # flipping both of a linear probe's weights fixes theta = 0, where y = 0
    # holds the scalar head on a degenerate branch at every fixed point
    (_misfit(_PROBE, _PROBE_LOSS, {"name": "sign_flip", "params": {"indices": [0, 1]}},
             ["discrete_first", "homogeneity"]), "transform.params"),
    # a loss that does not take the model's outputs: suite_full's entries 0
    # and 8 with one target too many and one class too many
    (_misfit({"name": "homogeneous_relu_mlp", "params": {"widths": [2, 3, 1]}, "seed": 11},
             {"name": "square", "params": {"target": [0.1, 0.2]}}, _SCALING,
             ["first_order", "second_action", "second_quadratic", "homogeneity",
              "eigen_alignment", "sharpness"], seed=1), "loss"),
    (_misfit(_FAC, {"name": "softmax_xent", "params": {"n_classes": 4, "label": 1}},
             {"name": "last_layer_left_action", "params": {}},
             ["first_order", "second_action", "second_quadratic", "last_layer"], seed=9),
     "loss"),
    # settings held by ic.entry_misfits itself, relayed at the entry's path
    (_misfit(_PROBE, _PROBE_LOSS, _SCALING, ["first_order"], positions=0), "positions"),
    (_misfit(_PROBE, _PROBE_LOSS, _SCALING, ["first_order"], positions=True), "positions"),
    (_misfit(_PROBE, _PROBE_LOSS, _SCALING, ["first_order"], seed=-1), "seed"),
    (_misfit(_PROBE, _PROBE_LOSS, _SCALING, []), "checks"),
    (_misfit(_PROBE, _PROBE_LOSS, _SCALING, ["first_order"],
             tolerances={"first_order": float("nan")}), "tolerances.first_order"),
    (_misfit(_PROBE, _PROBE_LOSS, _SCALING, ["first_order"], tolerances=[]), "tolerances"),
    (_misfit(_PROBE, _PROBE_LOSS, _SCALING, ["first_order"],
             mutation={"callback": "dh_dlambda"}), "mutation"),
    # a bool or string where a number is expected is refused, not coerced,
    # and a NaN direction is refused as a number, not judged as a direction
    (_misfit(_PROBE, {"name": "square", "params": {"target": True}}, _SCALING,
             ["first_order"]), "loss.params"),
    (_misfit(_PROBE, {"name": "square", "params": {"target": "0.5"}}, _SCALING,
             ["first_order"]), "loss.params"),
    (_misfit(_PROBE, {"name": "exponential", "params": {"label": "1"}}, _SCALING,
             ["first_order"]), "loss.params"),
    (_misfit({"name": "linear_probe", "params": {"x": [True, "2"]}, "seed": 21},
             _PROBE_LOSS, _SCALING, ["first_order"]), "model.params"),
    (_misfit(_PROBE, _PROBE_LOSS, {"name": "mirror", "params": {"columns": [[True, 0.0]]}},
             ["mirror"]), "transform.params"),
    (_misfit(_PROBE, _PROBE_LOSS,
             {"name": "mirror", "params": {"columns": [[float("nan"), 0.0]]}},
             ["discrete_first"]), "transform.params"),
    (_misfit(_DL222, _SQUARE2, {"name": "linear_reparam",
                                "params": {"A": [["0.1", 0.0], [0.0, 0.0]], "blocks": ["W1", "W2"]}},
             ["first_order"]), "transform.params"),
    # the shape of an entry and of its catalog requests
    ({"model": _PROBE, "loss": _PROBE_LOSS}, "checks"),
    (_misfit(_PROBE, _PROBE_LOSS, _SCALING, "first_order"), "checks"),
    (_misfit({"name": "mlp", "params": {}}, _PROBE_LOSS, _SCALING, ["first_order"]),
     "model.name"),
    (_misfit({"name": "linear_probe", "params": [1.0, 2.0]}, _PROBE_LOSS, _SCALING,
             ["first_order"]), "model.params"),
    # a check name the registry does not hold (ic.entry_misfits)
    (_misfit(_PROBE, _PROBE_LOSS, _SCALING, ["first_ordr"]), "checks[0]"),
], ids=["first_order+sign_flip", "discrete_first+scaling", "homogeneity+vector_head",
        "first_order+no_transform", "last_layer+deep_linear", "mirror+permutation",
        "tolerance_key_typo", "mutation_callback_typo", "mutation_scale_not_number",
        "lam_scale_infinite", "square_target_nan", "square_target_not_number",
        "exponential_label_3", "probe_x_nan", "relu_mlp_input_inf", "deep_linear_input_nan",
        "factored_input_inf", "model_key_typo", "loss_key_typo", "transform_key_typo",
        "widths_empty", "factored_input_and_n", "rescaling_blocks_not_list",
        "perm_not_numbers", "reparam_same_block", "widths_string", "widths_float",
        "widths_bool", "factored_c_float",
        "softmax_label_float", "sign_flip_index_float", "scaling_degree_float",
        "mutation_no_transform", "mutation_no_transform_check", "mutation_declared_zero",
        "mode_unknown", "margin_unknown_key", "trials_unknown_key", "relu_mlp_depth_unknown_key",
        "reparam_blocks_reversed", "reparam_blocks_not_adjacent", "reparam_relu_chain",
        "reparam_factored", "rescaling_factored_features", "rescaling_factored_head",
        "discrete_first+permutation_3_cycle", "sign_flip_fixes_a_kink",
        "sign_flip_fixes_a_degenerate_head",
        "suite_square_two_targets",
        "suite_softmax_four_classes", "positions_zero", "positions_bool", "seed_negative",
        "checks_empty", "tolerance_nan", "tolerances_list", "mutation_without_scale",
        "square_target_true", "square_target_str", "exponential_label_str",
        "probe_x_bool_and_str", "mirror_columns_true", "mirror_columns_nan", "reparam_A_str",
        "checks_missing", "checks_not_list", "model_name_unknown", "model_params_not_object",
        "check_name_unknown"])
def test_run_misfit_entry_exit_2_before_sampling(tmp_path, capsys, entry, where):
    cfg = {"experiment": "check_suite", "output_dir": str(tmp_path / "out"), "plan": [entry]}
    assert cli.main(["run", str(_write(tmp_path, "misfit.json", cfg))]) == 2
    assert f"config.plan[0].{where}:" in capsys.readouterr().err
    assert not (tmp_path / "out" / "reports.jsonl").exists()
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment", ["check_suite", "flow"])
def test_bad_model_seed_reported_once(tmp_path, capsys, experiment):
    # the model is built only once its seed has passed, so no build error follows
    if experiment == "check_suite":
        cfg, where = _suite_cfg(tmp_path / "out"), "config.plan[0].model"
        cfg["plan"][0]["model"]["seed"] = -1
    else:
        cfg, where = _bundled("flow_conservation", output_dir=str(tmp_path / "out")), "config.model"
        cfg["model"]["seed"] = -1
    assert cli.main(["run", str(_write(tmp_path, "seed.json", cfg))]) == 2
    err = capsys.readouterr().err
    assert f"{where}.seed: must be nonnegative" in err
    assert f"{where}.params" not in err


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
    (_bundled("sgf_drift", target=[0.5, 0.1]), "config.dataset.samples[0].target"),
    (_bundled("sgf_drift", x=[1.0, 2.0]), "config.dataset.samples[0].x"),
    # 8 bytes x 10^7 members x 500 steps of noise alone: far past 1 GiB
    (_bundled("sgf_drift", dynamics={"T": 0.5, "dt": 0.001, "ensemble": 10_000_000}),
     "config.dynamics.ensemble"),
    # the drift statistics need 100 members; fewer fail before the ensemble runs
    (_bundled("sgf_drift", dynamics={"T": 0.5, "dt": 0.001, "ensemble": 99}),
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
    # blocks that are not objects
    (_bundled("sgf_drift", noise=[]), "config.noise"),
    (_bundled("sgf_drift", noise="sigma"), "config.noise"),
    (_bundled("sgf_drift", dynamics="T"), "config.dynamics"),
    (_bundled("flow_conservation", dynamics="T"), "config.dynamics"),
    # a loss family binds its target per sample and takes no unknown key
    (_bundled("sgf_drift", loss={"name": "square", "params": {"target": [9.0]}}),
     "config.loss.params"),
    (_bundled("sgf_drift", loss={"name": "square", "params": {"zz": 1}}), "config.loss.params"),
    (_bundled("sgf_drift", noise={"mode": "langevin", "sigma": 0.1, "seed": 7}), "config.noise.mode"),
    # the noise seed is a stream key's uint64 word; NoiseModel's errors fail at their field
    (_bundled("sgf_drift", noise={"mode": "exact_sde", "sigma": 0.1, "seed": 2 ** 64}),
     "config.noise.seed"),
    (_bundled("sgf_drift", noise={"mode": "exact_sde", "sigma": 0.1, "seed": -1}),
     "config.noise.seed"),
    (_bundled("sgf_drift", noise={"mode": "exact_sde", "sigma": 0.1, "seed": 1.5}),
     "config.noise.seed"),
    (_bundled("sgf_drift", noise={"mode": "exact_sde", "sigma": -0.1, "seed": 7}),
     "config.noise.sigma"),
    (_bundled("sgf_drift", dynamics={"T": 0.0005, "dt": 0.001, "ensemble": 2000}),
     "config.dynamics.dt"),
    # a flow or an SGF run records each transform's charge; the null count
    # needs continuous symmetries
    (_bundled("flow_conservation", transforms=[_SCALING]), "config.transforms[0]"),
    (_bundled("stationary_spectrum", transforms=[_SCALING]), "config.transforms[0]"),
    (_bundled("sgf_drift", transform=_SCALING), "config.transform"),
    # no transform and a square loss: no charge and no norm growth to report
    (_bundled("flow_conservation", transforms=[],
              model={"name": "deep_linear", "params": {"widths": [2, 3, 2, 1]}, "seed": 3},
              loss={"name": "square", "params": {"target": 0.3}}), "config.transforms"),
    # a loss on two outputs for a one-output model
    (_bundled("flow_conservation", loss={"name": "square", "params": {"target": [0.1, 0.2]}}),
     "config.loss"),
    (_bundled("stationary_spectrum", loss={"name": "square", "params": {"target": [0.1, 0.2]}}),
     "config.loss"),
    # a bool or string where a number is expected is refused, not coerced
    (_bundled("flow_conservation", loss={"name": "exponential", "params": {"label": True}}),
     "config.loss.params"),
    (_bundled("stationary_spectrum", loss={"name": "square", "params": {"target": "0.3"}}),
     "config.loss.params"),
    (_bundled("sgf_drift", target=[True]), "config.dataset.samples[0].target"),
    # the shape of a config's blocks
    (_bundled("flow_conservation", theta0="zero"), "config.theta0"),
    (_bundled("flow_conservation", tolerances=[]), "config.tolerances"),
    (_bundled("sgf_drift", dataset={"samples": [{"x": [1.0]}]}), "config.dataset.samples[0]"),
    (_bundled("sgf_drift", dataset={"samples": []}), "config.dataset.samples"),
    (_bundled("stationary_spectrum", transforms=[]), "config.transforms"),
    ({"experiment": "check_suite", "plan": []}, "config.plan"),
    ({"experiment": "check_suite", "plan": {"model": _PROBE}}, "config.plan"),
    # numbers the JSON checks pass, but weights Dataset refuses
    (_bundled("sgf_drift", weights=[0.7, 0.7]), "config.dataset"),
    (_bundled("sgf_drift", weights=[-0.5, 1.5]), "config.dataset"),
], ids=["flow_tolerance_key_typo", "flow_tolerance_not_number", "flow_tolerance_negative",
        "stationary_tolerance_key_typo", "weights_not_numbers", "weights_not_list",
        "x_not_numbers", "flow_theta0_length", "stationary_theta0_length", "sgf_theta0_length",
        "target_not_number", "sgf_target_two_outputs", "x_wrong_width",
        "ensemble_over_memory_limit",
        "ensemble_below_drift_minimum",
        "weights_nan", "sigma_nan", "T_infinite", "x_nan", "flow_dt_infinite",
        "flow_loss_label_3", "noise_list", "noise_string",
        "sgf_dynamics_string", "flow_dynamics_string", "family_fixes_target",
        "family_unknown_key", "noise_mode_unknown", "noise_seed_past_uint64",
        "noise_seed_negative", "noise_seed_float", "sigma_negative", "sgf_T_shorter_than_dt",
        "flow_transform_without_charge", "stationary_transform_not_symmetry",
        "sgf_transform_without_charge", "flow_checks_nothing", "flow_square_two_targets",
        "stationary_square_two_targets", "flow_label_true", "stationary_target_str",
        "sgf_target_bool", "flow_theta0_not_list", "flow_tolerances_not_object",
        "sample_without_target", "samples_empty", "stationary_transforms_empty",
        "suite_plan_empty", "suite_plan_not_list", "weights_sum_not_1", "weights_negative"])
def test_run_dynamics_config_errors_exit_2(tmp_path, capsys, cfg, where):
    cfg = dict(cfg, output_dir=str(tmp_path / "out"))
    assert cli.main(["run", str(_write(tmp_path, "bad.json", cfg))]) == 2
    assert f"{where}:" in capsys.readouterr().err
    assert not (tmp_path / "out" / "reports.jsonl").exists()
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where", ["empty", "a_file", "under_a_file", "nul_byte",
                                   "name_too_long", "not_a_string"])
def test_run_unusable_output_dir_exit_2_before_running(tmp_path, capsys, monkeypatch, where):
    # an output_dir that no file can be written to, or that the system cannot
    # name, is refused before the experiment runs, and nothing is created
    (tmp_path / "taken").write_text("")
    out_dir = {"empty": "", "a_file": str(tmp_path / "taken"),
               "under_a_file": str(tmp_path / "taken" / "out"),
               "nul_byte": str(tmp_path / "out\u0000x"),
               "name_too_long": str(tmp_path / ("x" * 300) / "out"),
               "not_a_string": ["out"]}[where]
    ran = []
    monkeypatch.setitem(cli._RUNNERS, "check_suite", lambda cfg, out: ran.append(out))
    path = _write(tmp_path, "suite.json", dict(_suite_cfg(""), output_dir=out_dir))
    before = sorted(p.name for p in tmp_path.iterdir())
    assert cli.main(["run", str(path)]) == 2
    assert "config.output_dir:" in capsys.readouterr().err
    assert ran == []
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert (tmp_path / "taken").read_text() == ""


def test_run_invalid_json_exit_2(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{ not json")
    assert cli.main(["run", str(p)]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_config_root_not_an_object_exit_2(tmp_path, capsys):
    p = _write(tmp_path, "list.json", [_suite_cfg(tmp_path / "out")])
    assert cli.main(["run", str(p)]) == 2
    assert "config root must be a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("exc, code, label", [
    (CheckFailure("forced"), 1, "check failure"),
    (RuntimeError("forced"), 3, "runtime fault (RuntimeError)"),
], ids=["check_failure", "unexpected"])
def test_main_maps_exceptions_to_exit_codes(tmp_path, capsys, monkeypatch, exc, code, label):
    def fail(config_path):
        raise exc
    monkeypatch.setattr(cli, "run", fail)
    assert cli.main(["run", str(tmp_path / "any.json")]) == code
    assert f"{label}: forced" in capsys.readouterr().err


def _keep_library_reports(monkeypatch, name):
    """Wrap ``dyn.<name>`` so each report it returns is also kept in a list."""
    kept, check = [], getattr(cli.dyn, name)

    def keep(*args, **kwargs):
        kept.append(check(*args, **kwargs))
        return kept[-1]
    monkeypatch.setattr(cli.dyn, name, keep)
    return kept


def _written(out_dir, check_name=None):
    """The rows of ``out_dir``'s reports.jsonl of check ``check_name`` (all
    rows when None)."""
    rows = [json.loads(line) for line in (out_dir / "reports.jsonl").read_text().splitlines()]
    return [r for r in rows if check_name in (None, r["check_name"])]


def test_entry_tolerance_overrides_only_its_check(tmp_path, capsys):
    cfg = _suite_cfg(tmp_path / "out")
    cfg["plan"][0]["tolerances"] = {"first_order": 1e-300}
    assert cli.main(["run", str(_write(tmp_path, "tol.json", cfg))]) == 1
    capsys.readouterr()
    rows = _written(tmp_path / "out")
    first = [r for r in rows if r["check_name"] == "check_first_order"]
    others = [r for r in rows if r["check_name"] != "check_first_order"]
    assert first and others
    assert all(r["tolerance"] == 1e-300 for r in first)
    # a residual of exactly 0 still passes
    assert all(r["pass"] == (r["rel_residual"] <= 1e-300) for r in first)
    assert not all(r["pass"] for r in first)
    assert all(r["tolerance"] != 1e-300 and r["pass"] for r in others)


def test_run_stationary_null_count_fails_below_its_null_tolerance(tmp_path, capsys):
    # with null_tol = 1e-300 no eigenvalue counts as null, so the count falls
    # short of the characteristic rank and the report fails outright
    cfg = _bundled("stationary_spectrum", output_dir=str(tmp_path / "out"),
                   tolerances={"eps_stat": 1e-10, "null_tol": 1e-300})
    assert cli.main(["run", str(_write(tmp_path, "stat.json", cfg))]) == 1
    capsys.readouterr()
    report = json.loads((tmp_path / "out" / "reports.jsonl").read_text())
    assert report["check_name"] == "stationary_null_count" and not report["pass"]
    assert report["abs_residual"] == 1.0
    assert report["context"]["null_count"] < report["context"]["rank_characteristic"]


def test_run_stationary_rank_tolerance_reaches_the_report(tmp_path, capsys):
    # layer_rescaling's one direction has rank 1 at the default rank_tol; a
    # rank_tol above 1 counts no singular value, so the report reads rank 0
    cfg = _bundled("stationary_spectrum", output_dir=str(tmp_path / "out"),
                   tolerances={"eps_stat": 1e-10, "rank_tol": 2.0})
    assert cli.main(["run", str(_write(tmp_path, "stat.json", cfg))]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "out" / "reports.jsonl").read_text())
    assert report["context"]["rank_characteristic"] == 0


def test_cli_writes_the_library_drift_residual(tmp_path, capsys, monkeypatch):
    kept = _keep_library_reports(monkeypatch, "noether_drift_check")
    cfg = _bundled("sgf_drift", output_dir=str(tmp_path / "out"),
                   dynamics={"T": 0.05, "dt": 0.001, "ensemble": 150}, save_trajectories=0)
    assert cli.main(["run", str(_write(tmp_path, "sgf.json", cfg))]) == 0
    capsys.readouterr()
    [report], [row] = kept, _written(tmp_path / "out", "noether_drift")
    assert row == report.to_json_dict()


@pytest.mark.parametrize("shrink", [False, True], ids=["growing", "settled_then_shrinking"])
def test_cli_writes_the_library_norm_growth_residual(tmp_path, capsys, monkeypatch, shrink):
    kept = _keep_library_reports(monkeypatch, "norm_growth_check")
    if shrink:
        # the run ends correctly classified; a drop of ||theta||^2 at its
        # last record is what a broken integrator would leave
        flow = cli.dyn.stationary_flow

        def dipping(*args, **kwargs):
            trj = flow(*args, **kwargs)
            sq = trj.diagnostics["theta_sq"].copy()
            sq[-1] = 0.5 * sq[-2]
            return dataclasses.replace(trj, diagnostics=dict(trj.diagnostics, theta_sq=sq))
        monkeypatch.setattr(cli.dyn, "stationary_flow", dipping)
    cfg = _bundled("flow_conservation", output_dir=str(tmp_path / "out"))
    assert cli.main(["run", str(_write(tmp_path, "flow.json", cfg))]) == int(shrink)
    capsys.readouterr()
    [report], [row] = kept, _written(tmp_path / "out", "norm_growth")
    assert row == report.to_json_dict()
    assert report.passed == (not shrink)
    if shrink:
        assert report.context["status"] == "ok" and not report.context["monotone"]
        assert report.rel_residual == float("inf")


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
    assert manifest["flow"] == {"integrator": "dormand_prince_8_5_3", "accepted_steps": 9,
                                "rejected_steps": 0, "gradient_sweeps": 109}


def _imports_in_fresh_run(tmp_path, name, module):
    """Run bundled config ``name`` in a fresh interpreter: its exit code and
    whether ``module`` was imported, as printed by that interpreter."""
    cfg = _bundled(name, output_dir=str(tmp_path / "out"))
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys; from equichk import cli; "
            f"code = cli.main(['run', sys.argv[1]]); print(code, {module!r} in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code, str(_write(tmp_path, f"{name}.json", cfg))],
                         capture_output=True, text=True, env=env, timeout=120)
    return run.stdout.splitlines()[-1], run.stderr


def test_bundled_flow_imports_no_scipy(tmp_path):
    # the integrator needs numpy only: a bundled flow run in a fresh
    # interpreter leaves scipy unimported
    out, err = _imports_in_fresh_run(tmp_path, "flow_conservation", "scipy")
    assert out == "0 False", err


def test_bundled_sgf_drift_imports_no_numpy_ma(tmp_path):
    # numpy.ma costs about 13 ms of import; a bundled drift run in a fresh
    # interpreter leaves it unimported
    out, err = _imports_in_fresh_run(tmp_path, "sgf_drift", "numpy.ma")
    assert out == "0 False", err


_ROTATION = {"name": "linear_reparam",
             "params": {"A": [[0.0, 1.0], [-1.0, 0.0]], "blocks": ["W1", "W2"]}}


def test_run_stationary_with_a_symmetry_that_has_no_charge(tmp_path, capsys):
    # an antisymmetric generator is a symmetry with no Noether charge: the
    # null count takes it, and the flow records no charge for it
    cfg = _bundled("stationary_spectrum", output_dir=str(tmp_path / "out"),
                   model={"name": "deep_linear", "params": {"widths": [2, 2, 1]}, "seed": 6},
                   transforms=[_ROTATION])
    assert cli.main(["run", str(_write(tmp_path, "stat.json", cfg))]) == 0
    capsys.readouterr()
    context = json.loads((tmp_path / "out" / "reports.jsonl").read_text())["context"]
    assert context["null_count"] >= context["rank_characteristic"] == 1
    header = (tmp_path / "out" / "flow.csv").read_text().splitlines()[0]
    assert "charge_" not in header


@pytest.mark.parametrize("model, loss", [
    ({"name": "deep_linear", "params": {"widths": [2, 3, 2, 1]}, "seed": 3},
     {"name": "square", "params": {"target": 0.3}}),
    # the activation pattern changes along this flow, where a fixed step
    # loses its order; the error-controlled step keeps each charge
    ({"name": "homogeneous_relu_mlp", "params": {"widths": [2, 4, 3, 1]}, "seed": 3},
     {"name": "exponential", "params": {"label": 1}}),
], ids=["deep_linear", "relu_mlp"])
def test_run_flow_with_two_charges_of_one_kind(tmp_path, capsys, model, loss):
    # the adjacent-pair rescalings of a three-layer chain share a charge name
    cfg = {
        "experiment": "flow",
        "output_dir": str(tmp_path / "out"),
        "model": model,
        "loss": loss,
        "transforms": [{"name": "layer_rescaling", "params": {"blocks": ["W1", "W2"]}},
                       {"name": "layer_rescaling", "params": {"blocks": ["W2", "W3"]}}],
        "dynamics": {"T": 10.0, "dt": 0.01},
    }
    assert cli.main(["run", str(_write(tmp_path, "flow.json", cfg))]) == 0
    capsys.readouterr()
    reports = [json.loads(line) for line in
               (tmp_path / "out" / "reports.jsonl").read_text().splitlines()]
    charges = [r for r in reports if r["check_name"] == "gf_charge_conservation"]
    assert [r["context"]["charge"] for r in charges] == ["half_norm_gap[0]", "half_norm_gap[1]"]
    assert all(r["rel_residual"] <= 1e-12 for r in charges)
    header = (tmp_path / "out" / "flow.csv").read_text().splitlines()[0].split(",")
    assert [h for h in header if h.startswith("charge_")] == [
        "charge_half_norm_gap[0]", "charge_half_norm_gap[1]"]


@pytest.mark.parametrize("name, dt", [("stationary_spectrum", 0.05), ("flow_conservation", 0.01)],
                         ids=["stationary_spectrum", "flow"])
def test_run_stationary_first_step_may_exceed_T(tmp_path, capsys, name, dt):
    # the flow clips its first trial step to T, so T < dt is no config error;
    # a stationary run this short is far from stationary (exit 3), and a
    # conservation flow takes its one accepted step
    cfg = _bundled(name, dynamics={"T": 0.001, "dt": dt}, output_dir=str(tmp_path / "out"))
    code = cli.main(["run", str(_write(tmp_path, "short.json", cfg))])
    if name == "stationary_spectrum":
        assert code == 3
        assert "NotConverged" in capsys.readouterr().err
    else:
        assert code == 0
        capsys.readouterr()
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["flow"]["accepted_steps"] == 1


_ONE_EACH = {"model": 1, "loss": 1, "transform": 1}

# every bundled config: its exit code, report count, manifest flow counts and
# catalog builds by kind -- each model, loss and transform is built once
BUNDLED_RUNS = {
    "flow_conservation": (0, 2, {"integrator": "dormand_prince_8_5_3", "accepted_steps": 29,
                                 "rejected_steps": 1, "gradient_sweeps": 361}, _ONE_EACH),
    "mutation_demo": (1, 9, None, _ONE_EACH),
    # sgf_drift checks a loss family and builds no loss outside the per-sample binds
    "sgf_drift": (0, 1, None, {"model": 1, "transform": 1}),
    "stationary_spectrum": (0, 1, {"integrator": "dormand_prince_8_5_3", "accepted_steps": 56,
                                   "rejected_steps": 5, "gradient_sweeps": 733}, _ONE_EACH),
    "suite_full": (0, 174, None, {"model": 14, "loss": 14, "transform": 14}),
}


def _count_builds(monkeypatch) -> Counter:
    """Count catalog builds by kind from here on.  A model rebound to a
    sample's input and a loss family bound to a sample's target are per-sample
    bindings of objects already built, and are not counted."""
    counts, binding = Counter(), []
    real_call = models.call_builder

    def call_builder(kind, *args):
        if not binding:
            counts[kind] += 1
        return real_call(kind, *args)

    def per_sample(real):
        def wrapper(*args, **kwargs):
            binding.append(True)
            try:
                return real(*args, **kwargs)
            finally:
                binding.pop()
        return wrapper

    monkeypatch.setattr(models, "call_builder", call_builder)
    monkeypatch.setattr(tr, "call_builder", call_builder)
    monkeypatch.setattr(models.Model, "with_input", per_sample(models.Model.with_input))
    monkeypatch.setattr(models.LossFamily, "bind", per_sample(models.LossFamily.bind))
    return counts


def test_bundled_configs_are_all_checked():
    configs = sorted(p.stem for p in (Path(__file__).parents[1] / "configs").glob("*.json"))
    assert configs == sorted(BUNDLED_RUNS)


_LEDGER = json.loads((Path(__file__).parent / "golden_outputs.json").read_text())


def _environment() -> dict:
    """What the bits of the bundled outputs depend on besides the source:
    the Python and numpy versions, the BLAS build, the machine type and the
    SIMD extensions numpy dispatches to."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}", "machine": platform.machine(),
            "simd": config["SIMD Extensions"]["found"]}


@pytest.mark.parametrize("name", sorted(BUNDLED_RUNS))
def test_run_bundled_config(tmp_path, capsys, monkeypatch, name):
    """Every bundled config against tests/golden_outputs.json.  Everywhere:
    the exit code, the report count, each check's pass and fail counts, and
    every report passing exactly when rel_residual <= tolerance.  On the
    environment the ledger records, also the sha256 of every output file
    but the manifest; elsewhere float reductions may round differently, so
    the bytes are not compared."""
    code, n_reports, flow, builds = BUNDLED_RUNS[name]
    golden = _LEDGER["outputs"][name]
    out = tmp_path / "out"
    cfg = _bundled(name, output_dir=str(out))
    path = str(_write(tmp_path, f"{name}.json", cfg))
    counts = _count_builds(monkeypatch)
    assert cli.run(path) == code
    assert counts == builds
    capsys.readouterr()
    reports = (out / "reports.jsonl").read_text()
    assert len(reports.splitlines()) == n_reports
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["pass_counts"]["total"] == n_reports
    assert manifest.get("flow") == flow
    # the step counts are run records, never report content
    assert "gradient_sweeps" not in reports and "integrator" not in reports
    rows = [json.loads(line) for line in reports.splitlines()]
    checks = {}
    for r in rows:
        checks.setdefault(r["check_name"], [0, 0])[not r["pass"]] += 1
        assert r["pass"] == (r["rel_residual"] <= r["tolerance"]), r["check_name"]
        # every report carries its check's catalog anchor, but the
        # homogeneity check's two carry its halves, "Eq. (6)" and "Eq. (7)"
        anchor = ic.CHECK_ANCHORS[r["check_name"]]
        if r["check_name"] == "check_homogeneity_specialization":
            assert anchor == "Eq. (6)/(7)" and r["paper_anchor"] in ("Eq. (6)", "Eq. (7)")
        else:
            assert r["paper_anchor"] == anchor, r["check_name"]
    assert checks == golden["checks"]
    if _LEDGER["environment"] == _environment():
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir()) if p.name != "manifest.json"}
        assert got == golden["sha256"]


def test_cli_suite_matches_the_library_suite(tmp_path, capsys):
    """configs/suite_full.json is default_suite(master_seed=0, positions=3):
    the entries the CLI builds from JSON and those run_suite builds from
    PlanEntry objects write the same reports, byte for byte."""
    cfg = _bundled("suite_full", output_dir=str(tmp_path / "out"))
    assert cli.run(str(_write(tmp_path, "suite_full.json", cfg))) == 0
    capsys.readouterr()
    ic.write_reports_jsonl(ic.run_suite(ic.default_suite(0, 3)), tmp_path / "library.jsonl")
    assert ((tmp_path / "out" / "reports.jsonl").read_bytes()
            == (tmp_path / "library.jsonl").read_bytes())


def test_cli_holds_each_plan_entry_against_its_misfits_once(tmp_path, capsys, monkeypatch):
    # the CLI validates each entry as it builds it and runs the entries it
    # built without validating them again: 14 entries, 14 calls
    calls = []
    real = ic.entry_misfits
    monkeypatch.setattr(ic, "entry_misfits", lambda built: calls.append(1) or real(built))
    cfg = _bundled("suite_full", output_dir=str(tmp_path / "out"))
    assert cli.run(str(_write(tmp_path, "suite_full.json", cfg))) == 0
    capsys.readouterr()
    assert len(cfg["plan"]) == 14
    assert len(calls) == 14
    # the library's public runner still validates every entry itself
    calls.clear()
    ic.run_entries([ic._build_entry(e) for e in ic.default_suite(0, 1).entries], 0)
    assert len(calls) == 14


def test_bundled_flow_takes_l_prime_once_per_record(tmp_path, capsys, monkeypatch):
    # the recorder evaluates l'(y) once per record for sharpness_bound, and
    # the norm-growth check reads those values from the trajectory
    calls = []
    real = models.Loss.grad
    monkeypatch.setattr(models.Loss, "grad", lambda self, y: calls.append(1) or real(self, y))
    out = tmp_path / "out"
    cfg = _bundled("flow_conservation", output_dir=str(out))
    assert cli.run(str(_write(tmp_path, "flow_conservation.json", cfg))) == 0
    capsys.readouterr()
    records = len((out / "flow.csv").read_text().splitlines()) - 1
    assert records == 30
    assert len(calls) == records


def test_entry_keys_are_plan_entry_fields():
    fields = [f.name for f in dataclasses.fields(ic.PlanEntry)]
    assert sorted(cli._ENTRY_KEYS) == sorted(set(fields) - {"loss_params", "transform_params"})
    assert len(cli._ENTRY_KEYS) == len(fields) - 2


def test_omitted_entry_keys_take_the_library_defaults(tmp_path, capsys):
    entry = {"model": _PROBE, "loss": _PROBE_LOSS, "transform": _SCALING,
             "checks": ["first_order", "homogeneity", "sharpness"]}
    cfg = {"experiment": "check_suite", "output_dir": str(tmp_path / "out"), "plan": [entry]}
    assert cli.run(str(_write(tmp_path, "defaults.json", cfg))) == 0
    capsys.readouterr()
    plan = ic.SuiteSpec(entries=(ic.PlanEntry(
        model=models.ModelSpec(**_PROBE), loss=_PROBE_LOSS["name"],
        loss_params=_PROBE_LOSS["params"], transform=_SCALING["name"],
        transform_params=_SCALING["params"], checks=tuple(entry["checks"])),))
    ic.write_reports_jsonl(ic.run_suite(plan), tmp_path / "library.jsonl")
    assert ((tmp_path / "out" / "reports.jsonl").read_bytes()
            == (tmp_path / "library.jsonl").read_bytes())


def test_omitted_stationary_tolerances_take_the_library_defaults(tmp_path, capsys):
    cfg = _bundled("stationary_spectrum", output_dir=str(tmp_path / "out"))
    del cfg["tolerances"]
    assert cli.run(str(_write(tmp_path, "stat.json", cfg))) == 0
    capsys.readouterr()
    context = json.loads((tmp_path / "out" / "reports.jsonl").read_text())["context"]
    defaults = inspect.signature(ic.stationary_null_count).parameters
    assert context["eps_stat"] == defaults["eps_stat"].default
    assert context["null_tol"] == defaults["null_tol"].default


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


def test_run_sgf_drift_with_explicit_weights(tmp_path, capsys, monkeypatch):
    # the dataset's weights reach the ensemble and the drift check as given
    seen, sgf = [], cli.dyn.sgf

    def keep(model, family, dataset, *args, **kwargs):
        seen.append(dataset.weights)
        return sgf(model, family, dataset, *args, **kwargs)
    monkeypatch.setattr(cli.dyn, "sgf", keep)
    cfg = _bundled("sgf_drift", weights=[0.25, 0.75], dynamics={"T": 0.05, "dt": 0.001,
                                                                  "ensemble": 150},
                   save_trajectories=0, output_dir=str(tmp_path / "out"))
    assert cli.main(["run", str(_write(tmp_path, "weighted.json", cfg))]) == 0
    assert "[PASS] noether_drift (Cor. 2):" in capsys.readouterr().out
    assert seen == [(0.25, 0.75)]
    row, = _written(tmp_path / "out")
    assert row["context"]["n_trajectories"] == 150
    assert not (tmp_path / "out" / "ensemble.json").exists()


# ---------------------------------------------------------------------------
# reproducibility
# ---------------------------------------------------------------------------

def test_reports_byte_identical_across_runs(tmp_path, capsys):
    runs = [(_suite_cfg(tmp_path / "suite"), ("reports.jsonl", "summary.csv")),
            (_bundled("flow_conservation", output_dir=str(tmp_path / "flow")),
             ("reports.jsonl", "flow.csv"))]
    for i, (cfg, files) in enumerate(runs):
        path, out = _write(tmp_path, f"run{i}.json", cfg), Path(cfg["output_dir"])
        assert cli.main(["run", str(path)]) == 0
        first = {f: (out / f).read_bytes() for f in files}
        assert cli.main(["run", str(path)]) == 0
        for f, blob in first.items():
            assert (out / f).read_bytes() == blob
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
