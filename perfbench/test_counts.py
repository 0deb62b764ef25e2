"""Self-test of the tracer: exact work counts on fixed inputs.

    python3 -m pytest perfbench/test_counts.py

The counts are properties of the program, not of the machine, so they must
repeat exactly; a change that moves one of them changed the work done.
"""

import contextlib
import dataclasses
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from equichk import cli  # noqa: E402
from equichk.identity_checker import default_suite  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _traced_run(cfg: dict, out_dir) -> dict:
    cfg = dict(cfg, output_dir=str(out_dir / "out"))
    path = out_dir / "config.json"
    path.write_text(json.dumps(cfg))
    tracer = Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(str(path)) == 0
    finally:
        tracer.uninstall()
    return tracer.summary()


def test_criterion_01_trio_counts(tmp_path):
    # 11 continuous entries x 20 positions x the first/second-order trio
    trio = ("first_order", "second_action", "second_quadratic")
    entries = [dataclasses.replace(e, checks=trio, positions=20)
               for e in default_suite(master_seed=0).entries if "first_order" in e.checks]
    assert len(entries) == 11
    cfg = {"experiment": "check_suite", "master_seed": 0,
           "plan": [workloads.entry_config(e) for e in entries]}
    counts = _traced_run(cfg, tmp_path)
    assert counts["ic.evaluate_landscape.calls"] == 660
    assert counts["ic.landscapes_per_position"] == 3.0
    assert counts["de.second_derivative.calls"] == 1980
    assert counts["de.second_derivative.map_evals"] == 23220
    assert counts["de.fd_oracle.calls"] == 0


def test_sgf_drift_charge_evaluations(tmp_path):
    # bundled config: 2000 members x 501 records, plus one start/end pair per
    # member in the drift check and one evaluation for the noise-scale warning
    cfg = workloads.bundled_config(ROOT, "sgf_drift")
    counts = _traced_run(cfg, tmp_path)
    assert counts["tr.charge.c_eval.calls"] == 1_006_001
