"""Outside-in span tracer for equichk's layers.

The tracer replaces public functions of each equichk module with wrappers
that record a span (layer, parent span, start, end) per call, plus work
counts at the same boundary.  Nothing in ``src/`` changes: a function that a
module imported by value (``identity_checker`` holds its own ``compose``,
``forward`` and ``spectral_summary``, ``dynamics`` its own
``noether_charge``) is replaced in every equichk namespace that holds it,
and the ``Charge`` objects handed out by ``noether_charge`` get a traced
``c_eval``.  Spans stay in memory until :meth:`Tracer.dump`.

A layer's self time is its spans' duration minus the time its child spans
cover.  The program is single-threaded, so spans nest strictly.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional

# (layer, module, function, work counter)
#   "map"  counts evaluations of the map argument (innermost sweep only)
#   "rows" counts rows of the point batch
#   "positions" counts sampled positions
LAYERS = (
    ("cli.run", "equichk.cli", "run", None),
    ("ic.evaluate_landscape", "equichk.identity_checker", "evaluate_landscape", None),
    ("ic.sample_positions", "equichk.identity_checker", "sample_positions", "positions"),
    ("ic.check_first_order", "equichk.identity_checker", "check_first_order", None),
    ("ic.check_second_action", "equichk.identity_checker", "check_second_action", None),
    ("ic.check_second_quadratic", "equichk.identity_checker", "check_second_quadratic", None),
    ("ic.check_homogeneity_specialization", "equichk.identity_checker",
     "check_homogeneity_specialization", None),
    ("ic.check_eigen_alignment", "equichk.identity_checker", "check_eigen_alignment", None),
    ("ic.sharpness_bound", "equichk.identity_checker", "sharpness_bound", None),
    ("ic.check_discrete_first", "equichk.identity_checker", "check_discrete_first", None),
    ("ic.check_discrete_second", "equichk.identity_checker", "check_discrete_second", None),
    ("ic.check_mirror", "equichk.identity_checker", "check_mirror", None),
    ("ic.check_last_layer_alignment", "equichk.identity_checker",
     "check_last_layer_alignment", None),
    ("ic.stationary_null_count", "equichk.identity_checker", "stationary_null_count", None),
    ("ic.write_reports", "equichk.identity_checker", "write_reports_jsonl", None),
    ("ic.write_reports", "equichk.identity_checker", "write_summary_csv", None),
    ("de.jacobian", "equichk.diff_engine", "jacobian", "map"),
    ("de.second_derivative", "equichk.diff_engine", "second_derivative", "map"),
    ("de.fd_oracle", "equichk.diff_engine", "fd_oracle", "map"),
    ("de.grad_and_hessian_of_loss", "equichk.diff_engine", "grad_and_hessian_of_loss", None),
    ("de.gradient_at_points", "equichk.diff_engine", "gradient_at_points", "rows"),
    ("de.hessians_at_points", "equichk.diff_engine", "hessians_at_points", "map"),
    ("tc.compose", "equichk.tensor_core", "compose", None),
    ("tc.compose_k", "equichk.tensor_core", "compose_k", None),
    ("tr.characteristic_direction", "equichk.transforms", "characteristic_direction", None),
    ("tr.good_position", "equichk.transforms", "good_position", None),
    ("models.forward", "equichk.models", "forward", None),
    ("sp.spectral_summary", "equichk.spectral", "spectral_summary", None),
    ("sp.jacobi_eigh", "equichk.spectral", "jacobi_eigh", None),
    ("sp.power_eigs", "equichk.spectral", "power_eigs", None),
    ("dyn.gradient_flow", "equichk.dynamics", "gradient_flow", None),
    ("dyn.sgf", "equichk.dynamics", "sgf", None),
    ("dyn.noether_drift_check", "equichk.dynamics", "noether_drift_check", None),
    ("dyn.norm_growth_check", "equichk.dynamics", "norm_growth_check", None),
    ("dyn.write_ensemble", "equichk.dynamics", "write_ensemble", None),
)
CHARGE_LAYER = "tr.charge.c_eval"
COUNTER_NAMES = {"map": "map_evals", "rows": "rows", "positions": "positions"}


def layer_names() -> List[str]:
    names = list(dict.fromkeys(layer for layer, *_ in LAYERS))
    names.insert(names.index("models.forward"), CHARGE_LAYER)
    return names


def per_layer_metrics() -> Dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units: Dict[str, str] = {}
    for layer in layer_names():
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        kinds = {kind for name, _, _, kind in LAYERS if name == layer and kind}
        units.update({f"{layer}.{COUNTER_NAMES[k]}": "count"
                      for k in sorted(kinds) if k != "positions"})
    units["ic.landscapes_per_position"] = "ratio"
    units["trace_overhead_s"] = "s"
    return units


class Tracer:
    """Records spans and work counts around equichk's public functions."""

    def __init__(self):
        self.layers = layer_names()
        self._ids = {name: i for i, name in enumerate(self.layers)}
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._patched: List[tuple] = []

    # -- wrapping -----------------------------------------------------------

    def _span(self, layer: str, fn: Callable, kind: Optional[str] = None) -> Callable:
        if hasattr(fn, "_bench_layer"):
            return fn
        lid = self._ids[layer]
        layers, parents = self.span_layer, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter_ns
        counts = self.counts
        key = f"{layer}.{COUNTER_NAMES[kind]}" if kind else None

        def traced(*args, **kwargs):
            if kind == "map":
                args = (self._counted(key, args[0]),) + args[1:]
            elif kind == "rows":
                counts[key] += len(args[1])
            layers.append(lid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(len(ends) - 1)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[stack.pop()] = clock()
            if kind == "positions":
                counts[key] += len(out)
            return out

        traced._bench_layer = layer
        return traced

    def _counted(self, key: str, map_fn: Callable) -> Callable:
        # a sweep that delegates (second_derivative -> fd_oracle in FD mode)
        # hands on the counted map; count only in the innermost sweep
        raw = getattr(map_fn, "_bench_raw", map_fn)
        counts = self.counts

        def counted(x):
            counts[key] += 1
            return raw(x)

        counted._bench_raw = raw
        return counted

    def _charge_factory(self, noether_charge: Callable) -> Callable:
        def traced_noether_charge(t):
            charge = noether_charge(t)
            return dataclasses.replace(charge, c_eval=self._span(CHARGE_LAYER, charge.c_eval))

        traced_noether_charge._bench_layer = "tr.noether_charge"
        return traced_noether_charge

    def _replace_everywhere(self, original: Callable, wrapped: Callable) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "equichk" or mod_name.startswith("equichk.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    self._patched.append((mod, attr, original))

    def install(self) -> None:
        """Wrap every traced function.  Import ``equichk.cli`` first, so that
        every equichk module and its imported-by-value names exist."""
        for layer, module, func, kind in LAYERS:
            original = getattr(sys.modules[module], func)
            self._replace_everywhere(original, self._span(layer, original, kind))
        factory = getattr(sys.modules["equichk.transforms"], "noether_charge")
        self._replace_everywhere(factory, self._charge_factory(factory))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        """calls, self_s and work counts per layer (without the overhead)."""
        import numpy as np

        n_layers = len(self.layers)
        lid = np.frombuffer(self.span_layer, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = (np.frombuffer(self.span_end, dtype=np.int64)
               - np.frombuffer(self.span_start, dtype=np.int64)).astype(float)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        self_ns = np.bincount(lid, weights=dur - child, minlength=n_layers)
        calls = np.bincount(lid, minlength=n_layers)
        out: Dict[str, float] = {}
        for i, layer in enumerate(self.layers):
            out[f"{layer}.calls"] = int(calls[i])
            out[f"{layer}.self_s"] = float(self_ns[i]) / 1e9
        for key, value in self.counts.items():
            out[key] = int(value)
        positions = self.counts["ic.sample_positions.positions"]
        out["ic.landscapes_per_position"] = (
            out["ic.evaluate_landscape.calls"] / positions if positions else 0.0
        )
        return {k: out.get(k, 0) for k in per_layer_metrics() if k != "trace_overhead_s"}

    def dump(self, path: str) -> None:
        """Write every span (layer id, parent span, start/end ns) as .npz."""
        import numpy as np

        np.savez(
            path,
            layers=np.array(self.layers),
            layer=np.frombuffer(self.span_layer, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
        )
