"""The benchmark tracer's contract with ``src/``.

``perfbench/tracer.py`` wraps equichk functions by module and name.  A
rename or deletion of one of them breaks every traced benchmark run, so each
name its ``LAYERS`` table lists must resolve to a callable.  The table is
read from the tracer's source; nothing under ``perfbench/`` is imported or
written.
"""

import ast
import importlib
from pathlib import Path

import pytest

_TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


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
