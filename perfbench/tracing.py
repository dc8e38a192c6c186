"""Per-layer spans recorded from outside the program.

The tracer wraps the public functions of every ``qreflect`` module, the two
validating constructors and the numpy eigensolvers the package calls.  A
wrapper is installed in every ``qreflect`` namespace that binds the original
object, because ``cli``, ``criteria``, ``io`` and ``reflections`` import
functions by name.  ``uninstall`` puts every original back, so untraced
runs execute the unmodified program.

Spans are aggregated as they close instead of being stored: per group the
tracer keeps the number of outermost entries, the time inside outermost
entries (inclusive time) and the self time (duration minus the time covered
by child spans).  Per layer it keeps the total self time.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("cli", "io", "stokes", "reflections", "linalg", "criteria", "states", "properties")
EIGENSOLVERS = ("eigvalsh", "eigh", "eigvals", "svd")
VALIDATING_CLASSES = ("HermitianOperator", "DensityState")

CRITERIA_GROUPS = {
    "ppt_test": "ppt",
    "ccn": "ccn",
    "ccn_report": "ccn",
    "ccn_via_stokes": "ccn",
    "concurrence": "concurrence",
    "concurrence_report": "concurrence",
    "lorentz_metric": "concurrence",
    "reduction_criterion": "reduction",
    "total_reflection_feasible": "feasible",
    "complement": "feasible",
    "reflection_report": "reflection",
}


def _group(layer: str, name: str, invariants: dict) -> str:
    if layer == "reflections" and name.startswith("mask_"):
        return "reflections.mask_build"
    if layer == "criteria" and name in CRITERIA_GROUPS:
        return "criteria." + CRITERIA_GROUPS[name]
    if layer == "states":
        return "states.generate"
    if layer == "properties" and name in invariants:
        return "properties." + invariants[name]
    return f"{layer}.{name}"


class Tracer:
    """Aggregates spans of wrapped calls while ``active`` is true."""

    def __init__(self):
        self.active = False
        self.calls = Counter()
        self.inclusive = Counter()
        self.self_time = Counter()
        self.layer_self = Counter()
        self.bytes_read = 0
        self._stack = []
        self._open = Counter()
        self._restore = []

    def wrap(self, layer: str, group: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            children = [0.0]
            self._stack.append(children)
            self._open[group] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._stack.pop()
                self._open[group] -= 1
                if self._stack:
                    self._stack[-1][0] += elapsed
                own = elapsed - children[0]
                self.self_time[group] += own
                self.layer_self[layer] += own
                if self._open[group] == 0:
                    self.calls[group] += 1
                    self.inclusive[group] += elapsed

        return traced

    def count_bytes(self, fn):
        """Add the size of the file a loader is given, outside its span."""

        @functools.wraps(fn)
        def counted(path, *args, **kwargs):
            if self.active:
                self.bytes_read += os.path.getsize(path)
            return fn(path, *args, **kwargs)

        return counted

    def _set(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every public function of each layer wherever it is bound."""
        from qreflect import properties, stokes

        invariants = {fn.__name__: name for name, fn in properties._CHECKS}
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"qreflect.{layer}"]
            for name, obj in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                traced = self.wrap(layer, _group(layer, name, invariants), obj)
                if layer == "io" and name == "load_density":
                    traced = self.count_bytes(traced)
                wrapped[id(obj)] = (obj, traced)
        namespaces = [m for key, m in sys.modules.items() if key == "qreflect" or key.startswith("qreflect.")]
        for module in namespaces:
            for name, obj in list(vars(module).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._set(module, name, entry[1])
        # run_suite iterates this list, not the module attributes.
        self._set(properties, "_CHECKS", [(name, wrapped[id(fn)][1]) for name, fn in properties._CHECKS])
        for cls_name in VALIDATING_CLASSES:
            cls = getattr(stokes, cls_name)
            self._set(cls, "__init__", self.wrap("stokes", "stokes.validate", cls.__init__))
        for name in EIGENSOLVERS:
            self._set(np.linalg, name, self.wrap("linalg", "linalg.eig", getattr(np.linalg, name)))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)


def layer_metrics(tracer: Tracer, ops: int, invariant_metrics) -> dict:
    """Per-op figures of one traced pass over ``ops`` operations."""
    per = lambda count: count / ops
    ms = lambda seconds: 1000.0 * seconds / ops
    out = {
        "cli.self_ms": ms(tracer.layer_self["cli"]),
        "io.load_ms": ms(tracer.inclusive["io.load_density"]),
        "io.bytes_read": per(tracer.bytes_read),
        "stokes.to_stokes_calls": per(tracer.calls["stokes.to_stokes"]),
        "stokes.to_stokes_ms": ms(tracer.inclusive["stokes.to_stokes"]),
        "stokes.from_stokes_calls": per(tracer.calls["stokes.from_stokes"]),
        "stokes.from_stokes_ms": ms(tracer.inclusive["stokes.from_stokes"]),
        "stokes.validations": per(tracer.calls["stokes.validate"]),
        "stokes.validate_ms": ms(tracer.inclusive["stokes.validate"]),
        "reflections.mask_build_calls": per(tracer.calls["reflections.mask_build"]),
        "reflections.mask_build_ms": ms(tracer.inclusive["reflections.mask_build"]),
        "reflections.apply_mask_calls": per(tracer.calls["reflections.apply_mask"]),
        "reflections.apply_mask_self_ms": ms(tracer.self_time["reflections.apply_mask"]),
        "linalg.eigensolves": per(tracer.calls["linalg.eig"]),
        "linalg.eig_ms": ms(tracer.inclusive["linalg.eig"]),
        "states.generate_ms": ms(tracer.inclusive["states.generate"]),
    }
    for group in sorted(set(CRITERIA_GROUPS.values())):
        out[f"criteria.{group}_ms"] = ms(tracer.self_time[f"criteria.{group}"])
    for name in invariant_metrics:
        out[name] = ms(tracer.inclusive[name.removesuffix("_ms")])
    return out
