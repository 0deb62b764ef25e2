"""The benchmark's contract with ``src/``.

``perfbench/tracer.py`` wraps equichk functions by module and name.  A
rename or deletion of one of them breaks every traced benchmark run, so each
name its ``LAYERS`` table lists must resolve to a callable.  The table is
read from the tracer's source.  ``perfbench/workloads.py`` writes the suite
plans as JSON configs; each of their entries must still validate, so that a
stricter builder fails here and not in the benchmark.  Nothing under
``perfbench/`` is written.
"""

import ast
import importlib
import json
from pathlib import Path

import pytest

from equichk import cli

_ROOT = Path(__file__).parents[1]
_TRACER = _ROOT / "perfbench" / "tracer.py"


def _traced_functions():
    tree = ast.parse(_TRACER.read_text(encoding="utf-8"), filename=str(_TRACER))
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "LAYERS"):
            return [(layer, module, func) for layer, module, func, _ in ast.literal_eval(node.value)]
    raise AssertionError(f"{_TRACER} defines no LAYERS table")


_FUNCTIONS = _traced_functions()


def test_tracer_lists_layers():
    assert len(_FUNCTIONS) > 0


@pytest.mark.parametrize("layer, module, func", _FUNCTIONS,
                         ids=[f"{layer}:{func}" for layer, _, func in _FUNCTIONS])
def test_traced_function_resolves(layer, module, func):
    target = getattr(importlib.import_module(module), func, None)
    assert callable(target), f"layer {layer}: {module}.{func} is not a callable"


def test_traced_charge_factory_resolves():
    # the tracer also wraps the Charge objects handed out by noether_charge
    assert callable(importlib.import_module("equichk.transforms").noether_charge)


def _make_configs():
    """``perfbench/workloads.py``'s ``make_configs``, run from its source so
    that no bytecode cache is written beside it."""
    path = _ROOT / "perfbench" / "workloads.py"
    namespace = {"__name__": "perfbench_workloads"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), namespace)
    return namespace["make_configs"]


@pytest.mark.parametrize("workload", ["suite_exact", "suite_fd"])
def test_suite_workload_entries_validate(workload):
    (cfg,) = _make_configs()(workload, seed=0, root=str(_ROOT))
    plan = json.loads(json.dumps(cfg))["plan"]  # the form cli.run reads
    assert plan
    v = cli._V()
    for i, entry in enumerate(plan):
        assert cli._validate_entry(v, entry, f"config.plan[{i}]") is not None
    assert v.errors == []
