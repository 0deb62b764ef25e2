"""Batch front-end: validate JSON experiment configs, run them, emit reports.

Four experiment kinds:

``check_suite``
    A plan of (model, loss, transform) entries; every listed identity check
    runs at seeded random good positions.  Writes ``reports.jsonl`` and
    ``summary.csv``.
``flow``
    Error-controlled gradient flow (Dormand--Prince 8(5,3), ``dt`` the
    first trial step) with charge tracking.  The conservation of each charge
    and (when applicable) the norm-growth relation are checked; the
    trajectory lands in ``flow.csv``.
``sgf_drift``
    Euler--Maruyama ensemble plus the Noether drift comparison.  The first
    few member trajectories are saved with an ``ensemble.json`` manifest.
``stationary_spectrum``
    The same gradient flow to (near) stationarity, then the null-direction
    count of the Hessian against the span of symmetry characteristic
    directions.

Every report is an ``IdentityReport`` from the library (the suite checks,
``stationary_null_count`` and the verdicts of :mod:`equichk.dynamics`): this
module validates a config, runs it and writes what the library returns.
``catalog`` lists every check name a report can carry with its anchor
(``identity_checker.CHECK_ANCHORS``) and the experiment that runs it.

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
import os
import platform
import sys
import time
from typing import Callable, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from . import __version__
from . import dynamics as dyn
from . import identity_checker as ic
from . import models
from . import transforms as tr
from .errors import CheckFailure, ConfigError, EquichkError, InvalidNoiseModel
from .models import (
    LOSS_NAMES,
    MODEL_NAMES,
    Dataset,
    Loss,
    LossFamily,
    Model,
    ModelSpec,
    build_model,
    loss_family,
    make_loss,
)
from .tensor_core import _point
from .transforms import TRANSFORM_NAMES, Transformation, build_transform

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
        if not (models._is_integer(v) if integer else models._is_real(v)):
            self.fail(f"{path}.{key}", f"expected {'an integer' if integer else 'a finite number'}, "
                                       f"got {v!r}")
            return default
        if positive and not v > 0:
            self.fail(f"{path}.{key}", f"must be positive, got {v}")
        if nonneg and v < 0:
            self.fail(f"{path}.{key}", f"must be nonnegative, got {v}")
        return v

    def holds(self, path: str, rule: Callable, *args) -> bool:
        """Apply a library validity ``rule``; the error it raises fails at
        ``path``.  Whether the rule held."""
        try:
            rule(*args)
        except EquichkError as exc:
            self.fail(path, str(exc))
            return False
        return True

    def raise_if_failed(self) -> None:
        if self.errors:
            raise ConfigError(
                "invalid configuration:\n  " + "\n  ".join(self.errors)
            )


#: what building a catalog entry from unchecked JSON parameters may raise
_BUILD_ERRORS = (EquichkError, TypeError, ValueError, OverflowError)


def _validate_request(v: _V, obj, path: str, kind: str, names: Sequence[str],
                      build: Callable[[str, dict], object],
                      keys: Sequence[str] = ("name", "params"), required: Sequence[str] = ("name",)):
    """The catalog object a ``{"name", "params"}`` request asks for: its keys,
    its name (one of ``names``) and its ``params`` object are checked, then
    ``build(name, params)`` makes it, and a build error fails at
    ``path.params``.  None after any failure, or when ``build`` gives None."""
    if not v.keys(obj, path, keys, required):
        return None
    name = obj["name"]
    if name not in names:
        v.fail(f"{path}.name", f"unknown {kind} {name!r} (catalog: {', '.join(names)})")
        return None
    params = obj.get("params", {})
    if not isinstance(params, dict):
        v.fail(f"{path}.params", "expected an object")
        return None
    try:
        return build(name, params)
    except _BUILD_ERRORS as exc:
        v.fail(f"{path}.params", str(exc))
        return None


def _validate_model(v: _V, obj, path: str) -> Optional[Model]:
    """The model ``obj`` asks for, built once its seed has passed."""
    def build(name, params):
        start = len(v.errors)
        v.number(obj, path, "seed", integer=True, nonneg=True)
        return build_model(ModelSpec(**obj)) if len(v.errors) == start else None
    return _validate_request(v, obj, path, "model", MODEL_NAMES, build,
                             ("name", "params", "seed"), ("name", "params"))


def _validate_loss(v: _V, obj, path: str,
                   build: Callable = make_loss) -> Optional[Union[Loss, LossFamily]]:
    """The loss ``obj`` asks for, built with ``build`` (``loss_family`` when
    a dataset binds the target per sample, giving a LossFamily), so a bad
    parameter fails here with its path."""
    return _validate_request(v, obj, path, "loss", LOSS_NAMES,
                             lambda name, params: build(name, **params))


def _validate_transform(v: _V, obj, path: str, model: Optional[Model]) -> Optional[Transformation]:
    """The transform ``obj`` asks for, built against ``model`` (None when the
    model failed, and then nothing is built)."""
    return _validate_request(v, obj, path, "transform", TRANSFORM_NAMES,
                             lambda name, params: None if model is None
                             else build_transform(name, params, model))


def _is_number_list(val) -> bool:
    return isinstance(val, list) and all(models._is_real(x) for x in val)


def _validate_theta0(v: _V, obj, path: str, model: Optional[Model]) -> Optional[np.ndarray]:
    """The run's first state: the model's ``init_params`` for "init", else
    the ``theta0`` list (None after a failure, or when the model failed)."""
    val = obj.get("theta0", "init")
    if not (val == "init" or _is_number_list(val)):
        v.fail(f"{path}.theta0", 'expected "init" or a list of finite numbers')
    elif model is not None and val == "init":
        return model.init_params
    elif model is not None and v.holds(f"{path}.theta0", _point, val, model.d, "theta0"):
        return _point(val, model.d, "theta0")
    return None


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


#: the keys of a plan entry: PlanEntry's fields, with each catalog request's
#: params inside its request object
_ENTRY_KEYS = (
    "model", "loss", "transform", "checks", "positions", "seed", "mode", "tolerances", "mutation",
)


def _validate_entry(v: _V, obj, path: str) -> Optional[ic.BuiltEntry]:
    """One plan entry with its model, loss and transform built, or None."""
    start = len(v.errors)
    if not v.keys(obj, path, _ENTRY_KEYS, ("model", "loss", "checks")):
        return None
    model = _validate_model(v, obj["model"], f"{path}.model")
    loss = _validate_loss(v, obj["loss"], f"{path}.loss")
    transform = None
    if "transform" in obj:
        transform = _validate_transform(v, obj["transform"], f"{path}.transform", model)
    checks = obj.get("checks")
    if not isinstance(checks, list):
        v.fail(f"{path}.checks", "expected a list of check names")
    if len(v.errors) > start:
        return None
    # a key the entry omits takes PlanEntry's default; the catalog requests
    # are recorded as the entry gave them, and every other setting is held
    # against its model and transform by ic.entry_misfits
    fields = {k: obj[k] for k in _ENTRY_KEYS if k in obj}
    fields.update(model=ModelSpec(**obj["model"]), checks=tuple(checks))
    for kind in ("loss", "transform"):
        if kind in obj:
            fields[kind] = obj[kind]["name"]
            if "params" in obj[kind]:
                fields[f"{kind}_params"] = obj[kind]["params"]
    built = ic.BuiltEntry(ic.PlanEntry(**fields), model, loss, transform)
    for where, why in ic.entry_misfits(built):
        v.fail(f"{path}.{where}", why)
    return built


def _validate_dynamics(v: _V, obj, keys: Sequence[str]):
    """T and dt of the ``dynamics`` object, which takes exactly ``keys``."""
    v.keys(obj, "config.dynamics", keys, keys)
    T = v.number(obj, "config.dynamics", "T", positive=True)
    dt = v.number(obj, "config.dynamics", "dt", positive=True)
    return T, dt


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
    if family is not None:
        try:
            loss = family.bind(target)
        except _BUILD_ERRORS as exc:
            v.fail(f"{path}.target", str(exc))
            return False
        if model is not None and not v.holds(f"{path}.target", models._require_fit, model, loss):
            return False
    return True


def _validate_dataset(v: _V, obj, path: str, model: Optional[Model],
                      family: Optional[LossFamily]) -> Optional[Dataset]:
    if not v.keys(obj, path, ("samples", "weights"), ("samples",)):
        return None
    raw = obj["samples"]
    if not isinstance(raw, list) or not raw:
        v.fail(f"{path}.samples", "expected a non-empty list")
        return None
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
        bad = [i for i, w in enumerate(weights) if not models._is_real(w)]
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
    entries: List[ic.BuiltEntry] = []
    if not isinstance(plan_obj, list) or not plan_obj:
        v.fail("config.plan", "expected a non-empty list of entries")
    else:
        for i, e in enumerate(plan_obj):
            entry = _validate_entry(v, e, f"config.plan[{i}]")
            if entry is not None:
                entries.append(entry)
    v.raise_if_failed()
    # every entry passed ic.entry_misfits as _validate_entry built it
    reports = ic._run_validated(entries, int(master_seed or 0))
    files = _write_report_files(reports, out_dir)
    return reports, files, {}


class _Flow(NamedTuple):
    """A validated flow config's built objects and values, and its trajectory."""

    model: Model
    loss: Loss
    transforms: List[Transformation]
    tolerances: dict
    trajectory: dyn.Trajectory


def _gradient_flow(cfg: dict, stationary: bool, tolerance_keys: Sequence[str]) -> _Flow:
    """Validate a flow or (``stationary``) stationary_spectrum config and
    integrate its gradient flow with :func:`dyn.stationary_flow`.
    ``tolerance_keys`` are the keys its ``tolerances`` object may set.  A
    flow's transforms need a charge, and a flow with none a norm-growth check;
    a stationary_spectrum config needs at least one transform, each a
    continuous symmetry, and the flow records those that have a charge."""
    v = _V()
    v.keys(cfg, "config",
           ("experiment", "output_dir", "model", "loss", "transforms",
            "dynamics", "theta0", "tolerances"),
           ("model", "loss", "dynamics") + (("transforms",) if stationary else ()))
    model = _validate_model(v, cfg.get("model", {}), "config.model")
    loss = _validate_loss(v, cfg.get("loss", {}), "config.loss")
    if model is not None and loss is not None:
        v.holds("config.loss", models._require_fit, model, loss)
    T, dt = _validate_dynamics(v, cfg.get("dynamics", {}), ("T", "dt"))
    theta0 = _validate_theta0(v, cfg, "config", model)
    tolerances = _validate_tolerances(v, cfg, "config", tolerance_keys)
    transforms = []
    raw_transforms = cfg.get("transforms", [])
    if not isinstance(raw_transforms, list) or (stationary and not raw_transforms):
        v.fail("config.transforms", "expected a non-empty list of symmetry transforms"
               if stationary else "expected a list of symmetry transforms")
    elif not raw_transforms and not (model is None or loss is None
                                     or dyn._norm_growth_applies(model, loss)):
        v.fail("config.transforms", f"expected a non-empty list of symmetry transforms: "
               f"{model.name} with a {loss.name!r} loss has no norm growth to check")
    else:
        rule = tr._require_continuous_symmetry if stationary else tr.noether_charge
        for i, t in enumerate(raw_transforms):
            transform = _validate_transform(v, t, f"config.transforms[{i}]", model)
            if transform is not None:
                v.holds(f"config.transforms[{i}]", rule, transform)
            transforms.append(transform)
    v.raise_if_failed()

    trajectory = dyn.stationary_flow(model, loss, theta0, T=float(T), dt=float(dt),
                                     chargelist=[t for t in transforms if t.charge is not None])
    return _Flow(model, loss, transforms, tolerances, trajectory)


def _flow_counts(trajectory: dyn.Trajectory) -> dict:
    """The manifest's ``flow`` object, from the trajectory ``meta``."""
    keys = ("integrator", "accepted_steps", "rejected_steps", "gradient_sweeps")
    return {"flow": {k: trajectory.meta[k] for k in keys}}


def _run_flow(cfg: dict, out_dir: str) -> _RunResult:
    flow = _gradient_flow(cfg, stationary=False, tolerance_keys=("charge_drift", "euler_relation"))
    model, loss, trajectory, tolerances = flow.model, flow.loss, flow.trajectory, flow.tolerances
    # a tolerance the config omits takes the check's default
    reports = dyn.charge_conservation_check(trajectory, tolerances.get("charge_drift"))
    if dyn._norm_growth_applies(model, loss):
        reports.append(dyn.norm_growth_check(model, loss, trajectory,
                                             tolerances.get("euler_relation")))
    files = _write_report_files(reports, out_dir)
    dyn.write_trajectory_csv(trajectory, os.path.join(out_dir, "flow.csv"))
    return reports, files + ["flow.csv"], _flow_counts(trajectory)


def _run_sgf_drift(cfg: dict, out_dir: str) -> _RunResult:
    v = _V()
    v.keys(cfg, "config",
           ("experiment", "output_dir", "model", "loss", "dataset", "transform",
            "dynamics", "noise", "theta0", "save_trajectories"),
           ("model", "loss", "dataset", "transform", "dynamics", "noise"))
    model = _validate_model(v, cfg.get("model", {}), "config.model")
    family = _validate_loss(v, cfg.get("loss", {}), "config.loss", build=loss_family)
    dataset = _validate_dataset(v, cfg.get("dataset", {}), "config.dataset", model, family)
    transform = _validate_transform(v, cfg.get("transform", {}), "config.transform", model)
    if transform is not None:
        v.holds("config.transform", tr.noether_charge, transform)
    dyn_obj = cfg.get("dynamics", {})
    T, dt = _validate_dynamics(v, dyn_obj, ("T", "dt", "ensemble"))
    ensemble = v.number(dyn_obj, "config.dynamics", "ensemble", integer=True, positive=True)
    noise_obj = cfg.get("noise", {})
    start = len(v.errors)
    v.keys(noise_obj, "config.noise", ("mode", "sigma", "seed"), ("mode", "sigma"))
    sigma = v.number(noise_obj, "config.noise", "sigma")
    v.number(noise_obj, "config.noise", "seed", integer=True)
    noise = None
    if len(v.errors) == start:  # JSON types passed; NoiseModel holds the values' rules
        try:
            noise = dyn.NoiseModel(**dict(noise_obj, sigma=float(sigma)))
        except InvalidNoiseModel as exc:
            v.fail(f"config.noise.{exc.field}", str(exc))
    theta0 = _validate_theta0(v, cfg, "config", model)
    n_save = v.number(cfg, "config", "save_trajectories", integer=True, nonneg=True, default=8)
    v.raise_if_failed()

    v.holds("config.dynamics.dt", dyn._check_step, T, dt)
    v.holds("config.dynamics.ensemble", dyn._check_drift_ensemble, int(ensemble))
    v.holds("config.dynamics.ensemble", dyn._check_sgf_bytes, model.d, len(dataset.samples),
            float(T), float(dt), int(ensemble), noise.mode, noise.sigma, 1)
    v.raise_if_failed()
    ensemble_runs = dyn.sgf(model, family, dataset, theta0, noise,
                            T=float(T), dt=float(dt), ensemble=int(ensemble),
                            chargelist=[transform])
    reports = [dyn.noether_drift_check(ensemble_runs, transform, model, family, dataset, noise)]
    files = _write_report_files(reports, out_dir)
    saved = ensemble_runs[: int(n_save or 0)]
    if saved:
        manifest = dyn.write_ensemble(saved, out_dir)
        files = files + ["ensemble.json"] + [e["file"] for e in manifest["trajectories"]]
    return reports, files, {}


def _run_stationary(cfg: dict, out_dir: str) -> _RunResult:
    flow = _gradient_flow(cfg, stationary=True, tolerance_keys=("eps_stat", "null_tol", "rank_tol"))
    trajectory, tolerances = flow.trajectory, flow.tolerances
    # a tolerance the config omits takes stationary_null_count's default
    report = ic.stationary_null_count(
        flow.model, flow.loss, flow.transforms, trajectory.states[-1],
        **{key: float(value) for key, value in tolerances.items()},
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
    canonical = json.dumps(raw_config, sort_keys=True, separators=(",", ":"), default=models._json_value)
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


def _check_output_dir(out_dir: str) -> None:
    """Raise ConfigError unless ``out_dir`` is a non-empty path the system
    can name whose nearest existing ancestor (or itself) is a directory, so
    the report files can be written there once the run ends."""
    if not out_dir:
        raise ConfigError("config.output_dir: expected a non-empty path")
    path = os.path.abspath(out_dir)
    while True:
        try:
            os.stat(path)
            break
        except (FileNotFoundError, NotADirectoryError):
            path = os.path.dirname(path)
        except (OSError, ValueError) as exc:  # a NUL byte, a name too long, ...
            raise ConfigError(f"config.output_dir: unusable path: {exc}") from None
    if not os.path.isdir(path):
        raise ConfigError(f"config.output_dir: {path} is a file, not a directory")


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
    _check_output_dir(out_dir)

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
        json.dump(manifest, fh, indent=2, sort_keys=True, default=models._json_value)
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

def _experiment_of(check: str) -> str:
    """The experiment that writes reports of ``check``."""
    return ic._EXPERIMENT_CHECKS.get(check, (None, "check_suite"))[1]


def catalog_data() -> dict:
    """Every catalog entry with the parameters its builder takes, every check
    with its anchor, and every experiment with the checks it runs."""
    return {
        **models.catalog(),
        **tr.catalog(),
        "checks": dict(ic.CHECK_ANCHORS),
        "experiments": {e: [k for k in ic.CHECK_ANCHORS if _experiment_of(k) == e]
                        for e in EXPERIMENTS},
    }


#: the sections ``catalog --filter SECTION=NEEDLE`` names, singular or plural
_FILTER_SECTIONS = {"model": "models", "loss": "losses", "transform": "transforms", "check": "checks"}


def _print_catalog(as_json: bool, needle: Optional[str]) -> None:
    data = catalog_data()
    section_filter = None
    if needle and "=" in needle:
        section, _, needle = needle.partition("=")
        section_filter = _FILTER_SECTIONS.get(section, section)
        if section_filter not in _FILTER_SECTIONS.values():
            raise ConfigError(f"catalog --filter: unknown section {section!r} (sections: "
                              f"{', '.join(_FILTER_SECTIONS)}, singular or plural)")

    def keep(section: str, name: str) -> bool:
        if section_filter and section != section_filter:
            return False
        return (needle or "") in name

    entries = ("models", "losses", "transforms")
    if as_json:
        out = {section: {k: v for k, v in data[section].items() if keep(section, k)}
               for section in entries + ("checks",)}
        out["experiments"] = data["experiments"]
        print(json.dumps(out, indent=2, sort_keys=True, default=models._json_value))
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
                  f"[{row.requires if row else _experiment_of(k) + ' experiment'}]"
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
