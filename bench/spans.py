"""In-memory span tracing of the package's layers, installed from outside.

Each traced function is replaced, in every ``spingauss`` module namespace
that holds it, by a wrapper that records a span (name, start, end, parent)
and updates the size counters of its layer.  A module that did
``from .numerics import trace_norm`` calls the name bound in its own
namespace, so patching only the defining module would miss those calls.

Self time of a span is its duration minus the part of it covered by its
child spans.  Sizes are computed from array shapes, not measured.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "spingauss"
NEGLIGIBLE_WEIGHT = 1e-14


def _d3(counters, name, args, kwargs, result):
    d = np.shape(args[0])[0]
    counters[f"{name}.d3_sum"] += float(d) ** 3


def _ensemble(counters, name, args, kwargs, result):
    counters[f"{name}.dense_bytes"] += sum(b.matrix.nbytes for b in result.blocks)
    counters[f"{name}#built"] += len(result.blocks)
    counters[f"{name}#useful"] += sum(b.weight > NEGLIGIBLE_WEIGHT for b in result.blocks)


def _entries(counters, name, args, kwargs, result):
    counters[f"{name}.entries"] += result.size


def _coherent_rows(counters, name, args, kwargs, result):
    counters[f"{name}.entries"] += result.size
    counters[f"{name}.bytes_max"] = max(counters[f"{name}.bytes_max"], result.nbytes)


def _points(counters, name, args, kwargs, result):
    counters[f"{name}.points"] += result.size


def _dim_max(counters, name, args, kwargs, result):
    counters[f"{name}.dim_max"] = max(counters[f"{name}.dim_max"], result.trunc.dim)


def _report_bytes(counters, name, args, kwargs, result):
    counters[f"{name}.bytes"] += os.path.getsize(args[1])


# (layer metric prefix, module, attribute, size recorder or None)
TARGETS = (
    ("numerics.unitary_exp", "numerics", "unitary_exp", _d3),
    ("numerics.hermitian_eig", "numerics", "hermitian_eig", None),
    ("numerics.trace_norm", "numerics", "trace_norm", _d3),
    ("irreps.rotation_unitary", "irreps", "rotation_unitary", None),
    ("irreps.x_eigensystem", "irreps", "_x_rotation_eigensystem", None),
    ("irreps.rotation_columns", "irreps", "rotation_columns", None),
    ("irreps.spin_coherent_rows", "irreps", "_spin_coherent_rows", _entries),
    ("qubit_model.block_state", "qubit_model", "block_state", None),
    ("qubit_model.ensemble", "qubit_model", "ensemble", _ensemble),
    ("oscillator.displaced_thermal", "oscillator", "displaced_thermal", _dim_max),
    ("oscillator.coherent_rows", "oscillator", "_coherent_rows", _coherent_rows),
    ("oscillator.heterodyne_pdf", "oscillator", "heterodyne_pdf", _points),
    ("channels.forward_channel", "channels", "forward_channel", None),
    ("channels.inverse_channel", "channels", "inverse_channel", None),
    ("channels.ensemble_distance", "channels", "ensemble_distance", None),
    ("channels.embed_block", "channels", "embed_block", None),
    ("channels.convergence_sweep", "channels", "convergence_sweep", None),
    ("measurements.helstrom_risk", "measurements", "helstrom_risk", None),
    ("measurements.finite_n_discrimination", "measurements", "finite_n_discrimination", None),
    ("measurements.block_density_pair", "measurements", "_block_density_pair", None),
    ("measurements.measurement_tv_sweep", "measurements", "measurement_tv_sweep", None),
    ("measurements.heterodyne_estimation_risk", "measurements", "heterodyne_estimation_risk", None),
    ("reports.write_report", "reports", "write_report", _report_bytes),
    ("cli.main", "cli", "main", None),
)

# Size metrics per prefix, reported as 0 when the layer is off the path.
SIZE_METRICS = {
    "numerics.unitary_exp": (("d3_sum", "count"),),
    "numerics.trace_norm": (("d3_sum", "count"),),
    "irreps.x_eigensystem": (("hit_ratio", "fraction"),),
    "irreps.spin_coherent_rows": (("entries", "count"),),
    "qubit_model.ensemble": (("dense_bytes", "B"), ("useful_block_frac", "fraction")),
    "oscillator.displaced_thermal": (("dim_max", "count"),),
    "oscillator.coherent_rows": (("entries", "count"), ("bytes_max", "B")),
    "oscillator.heterodyne_pdf": (("points", "count"),),
    "reports.write_report": (("bytes", "B"),),
}

# Diagnostics computed by the harness rather than from spans.
HARNESS_METRICS = (("proc.cpu_s", "s"), ("trace.overhead_frac", "fraction"))


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for prefix, _, _, _ in TARGETS:
        units[f"{prefix}.calls"] = "count"
        units[f"{prefix}.self_s"] = "s"
        for suffix, unit in SIZE_METRICS.get(prefix, ()):
            units[f"{prefix}.{suffix}"] = unit
    units.update(HARNESS_METRICS)
    return units


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, name, fn, record=None):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            idx = len(self.spans)
            self.spans.append([name, self.clock(), None, parent])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = self.clock()
            if record is not None:
                record(self.counters, name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": start, "end": end, "parent": parent}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus the union of its direct children's intervals."""
    children: defaultdict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for idx, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children[idx]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def instrument(tracer: Tracer) -> tuple[list[tuple], list[str]]:
    """Patch every target; return the patched bindings and the absent targets."""
    modules = [m for name, m in list(sys.modules.items()) if name == PACKAGE or name.startswith(PACKAGE + ".")]
    patched, absent = [], []
    for prefix, modname, attr, record in TARGETS:
        try:
            original = getattr(importlib.import_module(f"{PACKAGE}.{modname}"), attr, None)
        except ImportError:
            original = None
        if original is None:
            absent.append(prefix)
            continue
        wrapper = tracer.wrap(prefix, original, record)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapper)
                    patched.append((mod, key, original))
    return patched, absent


def restore(patched: list[tuple]) -> None:
    for mod, key, original in reversed(patched):
        setattr(mod, key, original)


def layer_metrics(tracer: Tracer, cache_info=None) -> dict[str, float]:
    """Calls, self time and sizes per layer; 0 for layers no span reached.

    ``cache_info`` is the ``cache_info()`` of the rotation eigensystem cache
    after the run, from which ``irreps.x_eigensystem.hit_ratio`` comes.
    """
    units = layer_metric_units()
    out = {name: 0.0 for name in units if not name.startswith(("proc.", "trace."))}
    for span, self_s in zip(tracer.spans, self_times(tracer.spans)):
        out[f"{span[0]}.calls"] += 1
        out[f"{span[0]}.self_s"] += self_s
    for key, val in tracer.counters.items():
        if key in out:
            out[key] = float(val)
    built = tracer.counters.get("qubit_model.ensemble#built", 0.0)
    if built:
        out["qubit_model.ensemble.useful_block_frac"] = tracer.counters["qubit_model.ensemble#useful"] / built
    if cache_info is not None and cache_info.hits + cache_info.misses:
        out["irreps.x_eigensystem.hit_ratio"] = cache_info.hits / (cache_info.hits + cache_info.misses)
    return out
