"""The four benchmark workloads: inputs made from the benchmark seed, and the
gate that decides whether the verdicts they produced are correct.

Every workload is a list of experiment configs that ``equichk.cli.run``
executes in order.  Sizes are cut from the acceptance scale so that one
verdict takes a few seconds and a run can take the median of several fresh
processes; the cuts keep the per-call mix of each workload (see README.md).
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Mapping, Sequence

WORKLOADS = ("suite_exact", "suite_fd", "sgf_drift", "flow_stationary")

# full catalog plan, all checks; positions per entry
SUITE_POSITIONS = {"suite_exact": 4, "suite_fd": 1}
SUITE_MODE = {"suite_exact": "exact", "suite_fd": "finite_difference"}
# criterion 01's residual tolerances, applied to every suite report
RESIDUAL_BOUND = {"exact": 1e-7, "finite_difference": 1e-4}
# check_homogeneity_specialization returns the Eq. (6) and Eq. (7) pair
REPORTS_PER_CHECK = {"homogeneity": 2}
# bundled sgf_drift.json runs T = 0.5 (500 steps); the ensemble stays at 2000
SGF_T = 0.05
# bundled stationary_spectrum.json steps at dt = 0.05; T = 800 is kept, which
# still converges to |grad L| < eps_stat
STATIONARY_DT = 0.4


def entry_config(entry) -> dict:
    """A ``PlanEntry`` written as the JSON entry ``cli.run`` validates."""
    out = {
        "model": {"name": entry.model.name, "params": dict(entry.model.params),
                  "seed": entry.model.seed},
        "loss": {"name": entry.loss, "params": dict(entry.loss_params)},
        "checks": list(entry.checks),
        "positions": entry.positions,
        "seed": entry.seed,
        "mode": entry.mode,
    }
    if entry.transform is not None:
        out["transform"] = {"name": entry.transform, "params": dict(entry.transform_params)}
    return out


def bundled_config(root: str, name: str) -> dict:
    with open(os.path.join(root, "configs", name + ".json"), encoding="utf-8") as fh:
        return json.load(fh)


def make_configs(workload: str, seed: int, root: str) -> List[dict]:
    """The configs of one verdict.  The benchmark seed becomes the suite's
    ``master_seed`` or the ensemble's ``noise.seed``; the flow configs have
    no seed of their own and are the same for every benchmark seed."""
    if workload in SUITE_POSITIONS:
        from equichk.identity_checker import default_suite

        spec = default_suite(master_seed=seed, positions=SUITE_POSITIONS[workload],
                             mode=SUITE_MODE[workload])
        return [{"experiment": "check_suite", "master_seed": seed,
                 "plan": [entry_config(e) for e in spec.entries]}]
    if workload == "sgf_drift":
        cfg = bundled_config(root, "sgf_drift")
        cfg["noise"]["seed"] = seed
        cfg["dynamics"]["T"] = SGF_T
        return [cfg]
    if workload == "flow_stationary":
        stationary = bundled_config(root, "stationary_spectrum")
        stationary["dynamics"]["dt"] = STATIONARY_DT
        return [stationary, bundled_config(root, "flow_conservation")]
    raise ValueError(f"unknown workload {workload!r} (known: {', '.join(WORKLOADS)})")


def expected_reports(cfg: Mapping) -> int:
    """How many reports a passing run of ``cfg`` writes."""
    kind = cfg["experiment"]
    if kind == "check_suite":
        return sum(
            e["positions"] * sum(REPORTS_PER_CHECK.get(c, 1) for c in e["checks"])
            for e in cfg["plan"]
        )
    if kind == "flow":
        # one conservation row per charge, plus the norm-growth row that the
        # classification losses add on the bundled scalar homogeneous head
        growth = cfg["loss"]["name"] in ("exponential", "logistic")
        return len(cfg.get("transforms", [])) + int(growth)
    return 1  # sgf_drift and stationary_spectrum write one report each


def gate(cfg: Mapping, reports: Sequence[Mapping]) -> List[str]:
    """Violations of the workload-specific correctness checks; empty when
    the verdict is right.  Pass flags and counts are checked by the caller."""
    problems: List[str] = []
    kind = cfg["experiment"]
    if kind == "check_suite" and reports:
        modes = {e.get("mode", "exact") for e in cfg["plan"]}
        bound = min(RESIDUAL_BOUND[m] for m in modes)
        worst = max(float(r["rel_residual"]) for r in reports)
        if not worst <= bound:
            problems.append(f"worst rel_residual {worst:.3e} > {bound:g}")
    elif kind == "sgf_drift":
        if not any(r["check_name"] == "noether_drift" and r["pass"] for r in reports):
            problems.append("no passing noether_drift report")
    elif kind == "stationary_spectrum":
        for r in reports:
            ctx: Dict = r.get("context", {})
            if not ctx.get("null_count", -1) >= ctx.get("rank_characteristic", 1 << 30):
                problems.append(
                    f"null_count {ctx.get('null_count')} < rank "
                    f"{ctx.get('rank_characteristic')}"
                )
    return problems
