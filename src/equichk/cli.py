"""Batch front-end: validate JSON experiment configs, run them, emit reports.

Four experiment kinds:

``check_suite``
    A plan of (model, loss, transform) entries; every listed identity check
    runs at seeded random good positions.  Writes ``reports.jsonl`` and
    ``summary.csv``.
``flow``
    RK4 gradient flow with charge tracking.  Conservation of each charge and
    (when applicable) the norm-growth relation become summary rows; the
    trajectory lands in ``flow.csv``.
``sgf_drift``
    Euler--Maruyama ensemble plus the Noether drift comparison.  The first
    few member trajectories are saved with an ``ensemble.json`` manifest.
``stationary_spectrum``
    Error-controlled gradient flow (Dormand--Prince 5(4), ``dt`` the first
    trial step) to (near) stationarity, then the null-direction count of
    the Hessian against the span of symmetry characteristic directions.

The manifest of a flow or stationary_spectrum run also holds a ``flow``
object: the integrator and its accepted steps, rejected steps and gradient
sweeps.

Exit codes: 0 all checks passed; 1 at least one check failed; 2 bad
configuration (unknown keys, bad names, malformed values -- fail closed);
3 unexpected runtime fault.  Reports are byte-reproducible for a fixed
config; wall-clock and timestamps appear only in ``manifest.json``.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import platform
import sys
import time
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from . import dynamics as dyn
from . import identity_checker as ic
from . import models
from . import transforms as tr
from .errors import CheckFailure, ConfigError, EquichkError, InvalidParams
from .models import (
    LOSS_NAMES,
    MODEL_NAMES,
    Dataset,
    ModelSpec,
    build_model,
    loss_family,
    make_loss,
    signature,
)
from .transforms import MUTABLE_CALLBACKS, TRANSFORM_NAMES, build_transform

EXPERIMENTS = ("check_suite", "flow", "sgf_drift", "stationary_spectrum")


# ---------------------------------------------------------------------------
# config validation (fail closed)
# ---------------------------------------------------------------------------

class _V:
    """Collects dotted-path diagnostics while walking a config tree."""

    def __init__(self):
        self.errors: List[str] = []

    def fail(self, path: str, msg: str) -> None:
        self.errors.append(f"{path}: {msg}")

    def keys(self, obj, path: str, allowed: Sequence[str], required: Sequence[str]) -> bool:
        if not isinstance(obj, dict):
            self.fail(path, f"expected an object, got {type(obj).__name__}")
            return False
        ok = True
        for k in obj:
            if k not in allowed:
                self.fail(f"{path}.{k}", f"unknown key (allowed: {', '.join(sorted(allowed))})")
                ok = False
        for k in required:
            if k not in obj:
                self.fail(f"{path}.{k}", "missing required key")
                ok = False
        return ok

    def number(self, obj, path: str, key: str, *, positive=False, nonneg=False,
               integer=False, default=None):
        # a non-object ``obj`` has already failed ``keys``
        if not isinstance(obj, dict) or key not in obj:
            return default
        v = obj[key]
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            self.fail(f"{path}.{key}", f"expected a number, got {type(v).__name__}")
            return default
        if isinstance(v, float) and not math.isfinite(v):
            self.fail(f"{path}.{key}", f"must be finite, got {v}")
            return default
        if integer and not isinstance(v, int):
            self.fail(f"{path}.{key}", "expected an integer")
            return default
        if positive and not v > 0:
            self.fail(f"{path}.{key}", f"must be positive, got {v}")
        if nonneg and v < 0:
            self.fail(f"{path}.{key}", f"must be nonnegative, got {v}")
        return v

    def raise_if_failed(self) -> None:
        if self.errors:
            raise ConfigError(
                "invalid configuration:\n  " + "\n  ".join(self.errors)
            )


#: what building a catalog entry from unchecked JSON parameters may raise
_BUILD_ERRORS = (EquichkError, TypeError, ValueError, OverflowError)


def _validate_model(v: _V, obj, path: str) -> Optional[ModelSpec]:
    if not v.keys(obj, path, ("name", "params", "seed"), ("name", "params")):
        return None
    name = obj.get("name")
    if name not in MODEL_NAMES:
        v.fail(f"{path}.name", f"unknown model {name!r} (catalog: {', '.join(MODEL_NAMES)})")
        return None
    if not isinstance(obj["params"], dict):
        v.fail(f"{path}.params", "expected an object")
        return None
    seed = v.number(obj, path, "seed", integer=True, nonneg=True, default=0)
    spec = ModelSpec(name, obj["params"], int(seed or 0))
    try:
        build_model(spec)
    except _BUILD_ERRORS as exc:
        v.fail(f"{path}.params", str(exc))
        return None
    return spec


def _validate_loss(v: _V, obj, path: str, build: Callable = make_loss) -> Optional[Tuple[str, dict]]:
    """A loss's name and parameter object, checked by building it with
    ``build`` (``loss_family`` when a dataset binds the target per sample),
    so a bad parameter fails here with its path."""
    if not v.keys(obj, path, ("name", "params"), ("name",)):
        return None
    name = obj.get("name")
    if name not in LOSS_NAMES:
        v.fail(f"{path}.name", f"unknown loss {name!r} (catalog: {', '.join(LOSS_NAMES)})")
        return None
    params = obj.get("params", {})
    if not isinstance(params, dict):
        v.fail(f"{path}.params", "expected an object")
        return None
    try:
        build(name, **params)
    except _BUILD_ERRORS as exc:
        v.fail(f"{path}.params", str(exc))
        return None
    return name, params


def _validate_transform(v: _V, obj, path: str, model_spec: Optional[ModelSpec]):
    if not v.keys(obj, path, ("name", "params"), ("name",)):
        return None
    name = obj.get("name")
    if name not in TRANSFORM_NAMES:
        v.fail(f"{path}.name", f"unknown transform {name!r} (catalog: {', '.join(TRANSFORM_NAMES)})")
        return None
    params = obj.get("params", {})
    if not isinstance(params, dict):
        v.fail(f"{path}.params", "expected an object")
        return None
    if model_spec is not None:
        try:
            build_transform(name, params, build_model(model_spec))
        except _BUILD_ERRORS as exc:
            v.fail(f"{path}.params", str(exc))
            return None
    return name, params


def _is_number(x) -> bool:
    """A finite JSON number (``json.load`` also reads NaN and Infinity)."""
    if isinstance(x, float):
        return math.isfinite(x)
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number_list(val) -> bool:
    return isinstance(val, list) and all(_is_number(x) for x in val)


def _validate_theta0(v: _V, obj, path: str, spec: Optional[ModelSpec]):
    val = obj.get("theta0", "init")
    if val == "init":
        return "init"
    if not _is_number_list(val):
        v.fail(f"{path}.theta0", 'expected "init" or a list of finite numbers')
        return "init"
    d = build_model(spec).d if spec is not None else len(val)
    if len(val) != d:
        v.fail(f"{path}.theta0", f"expected {d} numbers (the model's d), got {len(val)}")
    return [float(x) for x in val]


def _validate_tolerances(v: _V, obj, path: str, known: Sequence[str]) -> dict:
    """A ``tolerances`` object whose keys are in ``known`` and whose values
    are positive numbers."""
    tolerances = obj.get("tolerances", {})
    if not isinstance(tolerances, dict):
        v.fail(f"{path}.tolerances", "expected an object")
        return {}
    for key in tolerances:
        if key not in known:
            v.fail(f"{path}.tolerances.{key}", f"unknown tolerance (known: {', '.join(known)})")
        else:
            v.number(tolerances, f"{path}.tolerances", key, positive=True)
    return tolerances


_ENTRY_KEYS = (
    "model", "loss", "transform", "checks", "positions", "seed", "mode",
    "lam_scale", "margin", "tolerances", "trials", "mutation",
)


def _validate_entry(v: _V, obj, path: str) -> Optional[ic.PlanEntry]:
    start = len(v.errors)
    if not v.keys(obj, path, _ENTRY_KEYS, ("model", "loss", "checks")):
        return None
    spec = _validate_model(v, obj["model"], f"{path}.model")
    loss = _validate_loss(v, obj["loss"], f"{path}.loss")
    transform = None
    if "transform" in obj:
        transform = _validate_transform(v, obj["transform"], f"{path}.transform", spec)
    checks = obj.get("checks")
    if not (isinstance(checks, list) and checks and all(isinstance(c, str) for c in checks)):
        v.fail(f"{path}.checks", "expected a non-empty list of check names")
    mode = obj.get("mode", "exact")
    if mode not in ("exact", "finite_difference"):
        v.fail(f"{path}.mode", f'expected "exact" or "finite_difference", got {mode!r}')
    tolerances = obj.get("tolerances", {})
    if not isinstance(tolerances, dict):
        v.fail(f"{path}.tolerances", "expected an object")
        tolerances = {}
    for key in tolerances:  # keys are checked against the registry below
        v.number(tolerances, f"{path}.tolerances", key, positive=True)
    mutation = obj.get("mutation")
    if mutation is not None and v.keys(mutation, f"{path}.mutation",
                                       ("callback", "scale"), ("callback", "scale")):
        if mutation["callback"] not in MUTABLE_CALLBACKS:
            v.fail(f"{path}.mutation.callback", f"unknown derivative callback "
                   f"{mutation['callback']!r} (known: {', '.join(MUTABLE_CALLBACKS)})")
        v.number(mutation, f"{path}.mutation", "scale")
    positions = v.number(obj, path, "positions", integer=True, positive=True, default=3)
    seed = v.number(obj, path, "seed", integer=True, nonneg=True, default=0)
    lam_scale = v.number(obj, path, "lam_scale", positive=True, default=0.3)
    margin = v.number(obj, path, "margin", positive=True, default=1e-6)
    trials = v.number(obj, path, "trials", integer=True, positive=True, default=12)
    if len(v.errors) > start or spec is None or loss is None:
        return None
    entry = ic.PlanEntry(
        model=spec, loss=loss[0], loss_params=loss[1],
        transform=transform[0] if transform else None,
        transform_params=transform[1] if transform else {},
        checks=tuple(checks), positions=int(positions), seed=int(seed),
        mode=mode, lam_scale=float(lam_scale), margin=float(margin),
        tolerances=tolerances, trials=int(trials), mutation=mutation,
    )
    for where, why in ic.entry_misfits(entry):
        v.fail(f"{path}.{where}", why)
    return entry


def _validate_sample(v: _V, s, path: str, model, family) -> bool:
    """Check one ``{"x": [...], "target": ...}`` sample against the model's
    input and output widths and the loss family (either may be None)."""
    if not (isinstance(s, dict) and set(s) == {"x", "target"}):
        v.fail(path, 'expected {"x": [...], "target": ...}')
        return False
    x, target = s["x"], s["target"]
    if not _is_number_list(x):
        v.fail(f"{path}.x", "expected a list of finite numbers")
        return False
    if model is not None and len(x) != model.input_point.size:
        v.fail(f"{path}.x", f"expected {model.input_point.size} numbers "
                            f"(the model's input width), got {len(x)}")
        return False
    if not (_is_number(target) or _is_number_list(target)):
        v.fail(f"{path}.target", "expected a finite number or a list of finite numbers")
        return False
    if family is not None:
        try:
            loss = family.bind(target)
        except _BUILD_ERRORS as exc:
            v.fail(f"{path}.target", str(exc))
            return False
        if model is not None and loss.c != model.c:
            v.fail(f"{path}.target", f"fits a loss on {loss.c} outputs, "
                                     f"the model has {model.c}")
            return False
    return True


def _validate_dataset(v: _V, obj, path: str, spec: Optional[ModelSpec],
                      loss_nv: Optional[Tuple[str, dict]]) -> Optional[Dataset]:
    if not v.keys(obj, path, ("samples", "weights"), ("samples",)):
        return None
    raw = obj["samples"]
    if not isinstance(raw, list) or not raw:
        v.fail(f"{path}.samples", "expected a non-empty list")
        return None
    model = build_model(spec) if spec is not None else None
    family = loss_family(loss_nv[0], **loss_nv[1]) if loss_nv is not None else None
    samples = []
    for i, s in enumerate(raw):
        if not _validate_sample(v, s, f"{path}.samples[{i}]", model, family):
            return None
        samples.append((np.asarray(s["x"], dtype=float), s["target"]))
    weights = obj.get("weights")
    if weights is not None:
        if not (isinstance(weights, list) and len(weights) == len(samples)):
            v.fail(f"{path}.weights", f"expected a list of {len(samples)} numbers, one per sample")
            return None
        bad = [i for i, w in enumerate(weights) if not _is_number(w)]
        for i in bad:
            v.fail(f"{path}.weights[{i}]", f"expected a finite number, got {weights[i]!r}")
        if bad:
            return None
    try:
        if weights is not None:
            return Dataset(samples=tuple(samples), weights=tuple(float(w) for w in weights))
        return Dataset.equal_weight(tuple(samples))
    except EquichkError as exc:
        v.fail(path, str(exc))
        return None


# ---------------------------------------------------------------------------
# experiment runners (each returns (reports, files written, manifest fields))
# ---------------------------------------------------------------------------

_RunResult = Tuple[List[ic.IdentityReport], List[str], dict]


def _run_check_suite(cfg: dict, out_dir: str) -> _RunResult:
    v = _V()
    v.keys(cfg, "config", ("experiment", "output_dir", "plan", "master_seed"), ("plan",))
    master_seed = v.number(cfg, "config", "master_seed", integer=True, nonneg=True, default=0)
    plan_obj = cfg.get("plan")
    entries: List[ic.PlanEntry] = []
    if not isinstance(plan_obj, list) or not plan_obj:
        v.fail("config.plan", "expected a non-empty list of entries")
    else:
        for i, e in enumerate(plan_obj):
            entry = _validate_entry(v, e, f"config.plan[{i}]")
            if entry is not None:
                entries.append(entry)
    v.raise_if_failed()
    reports = ic.run_suite(ic.SuiteSpec(tuple(entries), master_seed=int(master_seed or 0)))
    files = _write_report_files(reports, out_dir)
    return reports, files, {}


def _synthetic_report(check_name: str, anchor: str, rel: float, tol: float,
                      context: Mapping) -> ic.IdentityReport:
    rel = float(rel)
    return ic.IdentityReport(
        check_name=check_name, paper_anchor=anchor,
        lhs_norm=1.0, rhs_norm=1.0, abs_residual=rel, rel_residual=rel,
        tolerance=float(tol), passed=bool(np.isfinite(rel) and rel <= tol),
        context=dict(context),
    )


def _gradient_flow(cfg: dict, stationary: bool, tolerance_keys: Sequence[str]):
    """Validate a flow or (``stationary``) stationary_spectrum config and
    integrate its gradient flow, with fixed-step RK4 or to a stationary point
    with :func:`dyn.stationary_flow`; returns (model, loss, transforms,
    trajectory, tolerances).  ``tolerance_keys`` are the keys its
    ``tolerances`` object may set.  A stationary_spectrum config needs at
    least one transform."""
    v = _V()
    v.keys(cfg, "config",
           ("experiment", "output_dir", "model", "loss", "transforms",
            "dynamics", "theta0", "tolerances"),
           ("model", "loss", "dynamics") + (("transforms",) if stationary else ()))
    spec = _validate_model(v, cfg.get("model", {}), "config.model")
    loss_nv = _validate_loss(v, cfg.get("loss", {}), "config.loss")
    dyn_obj = cfg.get("dynamics", {})
    start = len(v.errors)
    v.keys(dyn_obj, "config.dynamics", ("T", "dt"), ("T", "dt"))
    T = v.number(dyn_obj, "config.dynamics", "T", positive=True, default=1.0)
    dt = v.number(dyn_obj, "config.dynamics", "dt", positive=True, default=0.01)
    # the stationary flow clips its first trial step to T; RK4 needs one whole step
    if not stationary and len(v.errors) == start and T < dt:
        v.fail("config.dynamics.dt", f"must not exceed T = {T} (one RK4 step), got {dt}")
    theta0 = _validate_theta0(v, cfg, "config", spec)
    tolerances = _validate_tolerances(v, cfg, "config", tolerance_keys)
    transforms = []
    raw_transforms = cfg.get("transforms", [])
    if not isinstance(raw_transforms, list) or (stationary and not raw_transforms):
        v.fail("config.transforms", "expected a non-empty list of symmetry transforms"
               if stationary else "expected a list of symmetry transforms")
    else:
        for i, t in enumerate(raw_transforms):
            tv = _validate_transform(v, t, f"config.transforms[{i}]", spec)
            if tv is not None:
                transforms.append(tv)
    v.raise_if_failed()

    model = build_model(spec)
    loss = make_loss(loss_nv[0], **loss_nv[1])
    built = [build_transform(n, p, model) for n, p in transforms]
    th0 = model.init_params if theta0 == "init" else np.asarray(theta0, dtype=float)
    integrate = dyn.stationary_flow if stationary else dyn.gradient_flow
    trajectory = integrate(model, loss, th0, T=float(T), dt=float(dt), chargelist=built)
    return model, loss, built, trajectory, tolerances


def _flow_counts(trajectory: dyn.Trajectory) -> dict:
    """The manifest's ``flow`` object, from the trajectory ``meta``."""
    keys = ("integrator", "accepted_steps", "rejected_steps", "gradient_sweeps")
    return {"flow": {k: trajectory.meta[k] for k in keys}}


def _run_flow(cfg: dict, out_dir: str) -> _RunResult:
    model, loss, _, trajectory, tolerances = _gradient_flow(
        cfg, stationary=False, tolerance_keys=("charge_drift", "euler_relation"))
    T, dt = float(cfg["dynamics"]["T"]), float(cfg["dynamics"]["dt"])
    reports: List[ic.IdentityReport] = []
    drift_tol = float(tolerances.get("charge_drift", 1e-8))
    for name, series in trajectory.charges.items():
        c0 = float(series[0])
        rel = float(np.max(np.abs(series - c0))) / (1.0 + abs(c0))
        reports.append(_synthetic_report(
            "gf_charge_conservation", "Cor. 2", rel, drift_tol,
            {"charge": name, "C0": c0, "T": T, "dt": dt},
        ))
    if (loss.name in ("exponential", "logistic") and model.c == 1
            and model.homogeneity_degree is not None):
        growth = dyn.norm_growth_check(model, loss, trajectory)
        # a settled run whose norm ever shrinks fails outright
        broken = growth.status == "ok" and not growth.monotone
        reports.append(_synthetic_report(
            "norm_growth", "§4.2", float("inf") if broken else growth.euler_max_rel_gap,
            float(tolerances.get("euler_relation", 1e-7)),
            {"status": growth.status, "t0": growth.t0, "monotone": growth.monotone,
             "max_decrease": growth.max_decrease},
        ))
    files = _write_report_files(reports, out_dir)
    dyn.write_trajectory_csv(trajectory, os.path.join(out_dir, "flow.csv"))
    return reports, files + ["flow.csv"], _flow_counts(trajectory)


def _run_sgf_drift(cfg: dict, out_dir: str) -> _RunResult:
    v = _V()
    v.keys(cfg, "config",
           ("experiment", "output_dir", "model", "loss", "dataset", "transform",
            "dynamics", "noise", "theta0", "save_trajectories"),
           ("model", "loss", "dataset", "transform", "dynamics", "noise"))
    spec = _validate_model(v, cfg.get("model", {}), "config.model")
    loss_nv = _validate_loss(v, cfg.get("loss", {}), "config.loss", build=loss_family)
    dataset = _validate_dataset(v, cfg.get("dataset", {}), "config.dataset", spec, loss_nv)
    transform = _validate_transform(v, cfg.get("transform", {}), "config.transform", spec)
    dyn_obj = cfg.get("dynamics", {})
    v.keys(dyn_obj, "config.dynamics", ("T", "dt", "ensemble"), ("T", "dt", "ensemble"))
    T = v.number(dyn_obj, "config.dynamics", "T", positive=True, default=0.5)
    dt = v.number(dyn_obj, "config.dynamics", "dt", positive=True, default=1e-3)
    ensemble = v.number(dyn_obj, "config.dynamics", "ensemble", integer=True,
                        positive=True, default=2000)
    noise_obj = cfg.get("noise", {})
    v.keys(noise_obj, "config.noise", ("mode", "sigma", "seed"), ("mode", "sigma"))
    sigma = v.number(noise_obj, "config.noise", "sigma", nonneg=True, default=0.1)
    nseed = v.number(noise_obj, "config.noise", "seed", integer=True, nonneg=True, default=0)
    mode = noise_obj.get("mode") if isinstance(noise_obj, dict) else None
    if mode not in ("exact_sde", "minibatch"):
        v.fail("config.noise.mode", f'expected "exact_sde" or "minibatch", got {mode!r}')
    theta0 = _validate_theta0(v, cfg, "config", spec)
    n_save = v.number(cfg, "config", "save_trajectories", integer=True, nonneg=True, default=8)
    v.raise_if_failed()

    model = build_model(spec)
    try:
        dyn._check_sgf_bytes(model.d, len(dataset.samples), float(T), float(dt), int(ensemble),
                             mode, float(sigma), n_charges=1)
    except InvalidParams as exc:
        v.fail("config.dynamics.ensemble", str(exc))
    v.raise_if_failed()
    family = loss_family(loss_nv[0], **loss_nv[1])
    t = build_transform(transform[0], transform[1], model)
    noise = dyn.NoiseModel(mode=mode, sigma=float(sigma), seed=int(nseed or 0))
    th0 = model.init_params if theta0 == "init" else np.asarray(theta0, dtype=float)
    ensemble_runs = dyn.sgf(model, family, dataset, th0, noise,
                            T=float(T), dt=float(dt), ensemble=int(ensemble),
                            chargelist=[t])
    report = dyn.noether_drift_check(ensemble_runs, t, model, family, dataset, noise)
    gap = abs(report.empirical - report.theory_trace)
    allowance = 3.0 * report.std_error + report.bias_budget
    rel = gap / max(allowance, 1e-300)
    reports = [_synthetic_report(
        "noether_drift", "Cor. 2", rel, 1.0,
        {"empirical": report.empirical, "std_error": report.std_error,
         "theory_grad": report.theory_grad, "theory_trace": report.theory_trace,
         "bias_budget": report.bias_budget, "n_trajectories": report.n_trajectories,
         **dict(report.context)},
    )]
    files = _write_report_files(reports, out_dir)
    saved = ensemble_runs[: int(n_save or 0)]
    if saved:
        dyn.write_ensemble(saved, out_dir)
        files = files + ["ensemble.json"] + [f"trajectory_{i:04d}.csv" for i in range(len(saved))]
    return reports, files, {}


def _run_stationary(cfg: dict, out_dir: str) -> _RunResult:
    model, loss, built, trajectory, tolerances = _gradient_flow(
        cfg, stationary=True, tolerance_keys=("eps_stat", "null_tol", "rank_tol"))
    report = ic.stationary_null_count(
        model, loss, built, trajectory.states[-1],
        eps_stat=float(tolerances.get("eps_stat", 1e-8)),
        null_tol=float(tolerances.get("null_tol", 1e-7)),
        rank_tol=float(tolerances.get("rank_tol", 1e-8)),
    )
    files = _write_report_files([report], out_dir)
    dyn.write_trajectory_csv(trajectory, os.path.join(out_dir, "flow.csv"))
    return [report], files + ["flow.csv"], _flow_counts(trajectory)


_RUNNERS: Mapping[str, Callable] = {
    "check_suite": _run_check_suite,
    "flow": _run_flow,
    "sgf_drift": _run_sgf_drift,
    "stationary_spectrum": _run_stationary,
}


def _write_report_files(reports: Sequence[ic.IdentityReport], out_dir: str) -> List[str]:
    """Write the report files, creating ``out_dir`` only now, after the
    config has passed validation."""
    os.makedirs(out_dir, exist_ok=True)
    ic.write_reports_jsonl(reports, os.path.join(out_dir, "reports.jsonl"))
    ic.write_summary_csv(reports, os.path.join(out_dir, "summary.csv"))
    return ["reports.jsonl", "summary.csv"]


# ---------------------------------------------------------------------------
# run command
# ---------------------------------------------------------------------------

def config_digest(raw_config: Mapping) -> str:
    """sha256 of the canonical (sorted-key, compact) JSON encoding."""
    canonical = json.dumps(raw_config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def run(config_path: str) -> int:
    started = time.time()
    cfg = _load_config(config_path)
    experiment = cfg.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"config.experiment: expected one of {', '.join(EXPERIMENTS)}, "
            f"got {experiment!r}"
        )
    out_dir = cfg.get("output_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError("config.output_dir: expected a string path")
    if out_dir is None:
        stem = os.path.splitext(os.path.basename(config_path))[0]
        out_dir = os.path.join(os.path.dirname(os.path.abspath(config_path)), stem + "_out")

    reports, files, run_record = _RUNNERS[experiment](cfg, out_dir)
    n_pass = sum(1 for r in reports if r.passed)
    n_fail = len(reports) - n_pass
    manifest = {
        "config_digest": config_digest(cfg),
        "version": __version__,
        "experiment": experiment,
        "started_at": datetime.datetime.fromtimestamp(
            started, tz=datetime.timezone.utc
        ).isoformat(),
        "wall_time_s": round(time.time() - started, 3),
        "pass_counts": {"passed": n_pass, "failed": n_fail, "total": len(reports)},
        "files": sorted(set(files + ["manifest.json"])),
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "cpu_count": os.cpu_count()},
        **run_record,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for r in reports:
        marker = "PASS" if r.passed else "FAIL"
        print(f"[{marker}] {r.check_name} ({r.paper_anchor}): "
              f"rel={r.rel_residual:.3e} tol={r.tolerance:.1e}")
    print(f"{n_pass}/{len(reports)} checks passed; outputs in {out_dir}")
    return 0 if n_fail == 0 else 1


# ---------------------------------------------------------------------------
# catalog command
# ---------------------------------------------------------------------------

def catalog_data() -> dict:
    """Every catalog entry with the parameters its builder takes."""
    return {
        "models": {n: signature(b, skip=("seed",)) for n, b in models._BUILDERS.items()},
        "losses": {n: signature(b) for n, (b, _) in models._LOSSES.items()},
        "transforms": {n: signature(b, skip=("model",)) for n, b in tr._BUILDERS.items()},
        "checks": dict(ic.CHECK_ANCHORS),
        "experiments": list(EXPERIMENTS),
    }


def _print_catalog(as_json: bool, needle: Optional[str]) -> None:
    data = catalog_data()
    section_filter = None
    if needle and "=" in needle:
        section_filter, _, needle = needle.partition("=")
        section_filter += "s" if not section_filter.endswith("s") else ""

    def keep(section: str, name: str) -> bool:
        if section_filter and section != section_filter:
            return False
        return (needle or "") in name

    entries = ("models", "losses", "transforms")
    if as_json:
        out = {section: {k: v for k, v in data[section].items() if keep(section, k)}
               for section in entries + ("checks",)}
        out["experiments"] = data["experiments"]
        print(json.dumps(out, indent=2, sort_keys=True))
        return
    lines: List[str] = []
    for section in entries:
        rows = [(k, v) for k, v in data[section].items() if keep(section, k)]
        if rows:
            lines.append(f"{section}:")
            lines += [f"  {k:<24} {v}" for k, v in rows]
    plan_rows = {row.function: row for row in ic.CHECK_REGISTRY.values()}
    rows = [(k, v, plan_rows.get(k)) for k, v in data["checks"].items()
            if keep("checks", k) or (k in plan_rows and keep("checks", plan_rows[k].name))]
    if rows:
        lines.append("checks (plan name, check ⇠ anchor, needs):")
        lines += [f"  {row.name if row else '-':<17} {k + ' ⇠ ' + v:<48} "
                  f"[{row.requires if row else 'stationary_spectrum experiment'}]"
                  for k, v, row in rows]
    print("\n".join(lines) if lines else "(no catalog entries match)")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equichk",
        description="Numerical checks for parameter-space equivariances: "
                    "identity suites, conservation flows, SGF charge drift.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config (JSON)")
    p_run.add_argument("config", help="path to the experiment configuration")
    p_cat = sub.add_parser("catalog", help="list models, losses, transforms, checks")
    p_cat.add_argument("--json", action="store_true", help="machine-readable output")
    p_cat.add_argument("--filter", default=None, metavar="[SECTION=]NEEDLE",
                       help='substring filter, e.g. "mirror" or "transform=mirror"')
    sub.add_parser("version", help="print the tool version")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "version":
            print(f"equichk {__version__}")
            return 0
        if args.command == "catalog":
            _print_catalog(args.json, args.filter)
            return 0
        return run(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return 1
    except EquichkError as exc:
        print(f"runtime fault ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 -- the process boundary maps everything
        print(f"runtime fault ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
