"""Spans around every call that crosses from one qwfold module into another.

Installing a Tracer replaces, until uninstall(), each function that one
qwfold module imports from another with a timing wrapper bound on the
importing module's name; a module imported whole (``from . import harness``
in cli) is replaced by a proxy that wraps the functions read through it.
It also wraps the Graph / GraphFamilySpec / WalkCurve methods and the few
same-module helpers that the per-layer metrics name, and numpy.linalg.eigh /
eigvalsh, whose spans belong to the calling layer.

A span is (name, layer, start, end, parent span index, operation id); the
operation id is the index of the span's outermost ancestor, i.e. of the
benchmark's own call into qwfold.  Spans stay in memory; a span's self time
is its duration minus its children's.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time
import types
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("graphs", "convolve", "dynamics", "analysis", "harness", "cli")

# Same-module helpers that per-layer metrics name; calls to them never cross
# a module boundary, so they are wrapped on their own module.
SAME_MODULE = {"harness": ("sample_pairs", "equivalence_chain", "farthest_node")}

METHODS = {
    ("graphs", "Graph"): ("adjacency_matrix", "is_connected"),
    ("graphs", "GraphFamilySpec"): ("build",),
    ("dynamics", "WalkCurve"): ("__post_init__", "to_csv"),
}

LINALG = ("eigh", "eigvalsh")

# Complex m x m matmuls per RK4 substep per batch member: 4 right-hand sides,
# each h @ rho and rho @ h, at 8 real flops per complex multiply-add.
RK4_FLOP_PER_M3 = 4 * 2 * 8


def _sink_work(counts: Counter, members: int, m: int, grid, substep: float) -> None:
    steps = members * (grid.sample_count - 1) * max(1, round(grid.dt / substep))
    counts["sink_steps"] += steps
    counts["sink_flop"] += steps * RK4_FLOP_PER_M3 * m**3


def _count_diagonals(counts, bound):
    a = bound.arguments
    _sink_work(counts, len(a["starts"]), a["a_sys"].shape[0] + 1, a["grid"], a["substep"])


def _count_lindblad_evolve(counts, bound):
    a = bound.arguments
    _sink_work(counts, 1, a["g"].node_count + 1, a["grid"], a["substep"])


COUNTERS = {
    "dynamics._lindblad_diagonals": _count_diagonals,
    "dynamics.lindblad_evolve": _count_lindblad_evolve,
}


def _layer_of(fn) -> str | None:
    package, _, module = fn.__module__.rpartition(".")
    return module if package == "qwfold" and module in LAYERS else None


class _ModuleProxy:
    """Stands in for a qwfold module bound whole in another module."""

    def __init__(self, module: types.ModuleType, tracer: "Tracer"):
        self._module = module
        self._tracer = tracer
        self._cache: dict[str, object] = {}

    def __getattr__(self, attr):
        value = getattr(self._module, attr)
        layer = _layer_of(value) if inspect.isfunction(value) else None
        if layer is None or getattr(value, "_perfbench_traced", False):
            return value
        if attr not in self._cache:
            self._cache[attr] = self._tracer.wrap(f"{layer}.{attr}", layer, value)
        return self._cache[attr]


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.self_time: dict[str, float] = defaultdict(float)  # "name@layer" -> s
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span index, layer, child seconds, op]
        self._undo: list[tuple] = []

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, layer: str | None, fn):
        """Timing wrapper; layer None means the caller's layer (numpy calls)."""
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span_layer = layer or (stack[-1][1] if stack else "bench")
            index = len(tracer.spans)
            parent, op = (stack[-1][0], stack[-1][3]) if stack else (-1, index)
            frame = [index, span_layer, 0.0, op]
            tracer.spans.append(None)
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][2] += duration
                tracer.spans[index] = (name, span_layer, start, end, parent, op)
                key = f"{name}@{span_layer}"
                tracer.self_time[key] += duration - frame[2]
                tracer.calls[key] += 1
                if counter is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counter(tracer.counts, bound)
                elif name == "numpy.linalg.eigvalsh" and span_layer == "dynamics":
                    a = args[0]
                    tracer.counts["guard_checks"] += a.shape[0] if np.ndim(a) == 3 else 1

        traced._perfbench_traced = True
        return traced

    def _replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, modules: dict[str, types.ModuleType]) -> None:
        layer_modules = set(modules.values())
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value):
                    source = _layer_of(value)
                    if source is not None and source != layer:
                        self._replace(module, attr, self.wrap(f"{source}.{attr}", source, value))
                elif isinstance(value, types.ModuleType) and value in layer_modules and value is not module:
                    self._replace(module, attr, _ModuleProxy(value, self))
            for attr in SAME_MODULE.get(layer, ()):
                self._replace(module, attr, self.wrap(f"{layer}.{attr}", layer, getattr(module, attr)))
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            for method in methods:
                name = f"{layer}.{cls_name}.{method}"
                self._replace(cls, method, self.wrap(name, layer, vars(cls)[method]))
        for fn in LINALG:
            self._replace(np.linalg, fn, self.wrap(f"numpy.linalg.{fn}", None, getattr(np.linalg, fn)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def proxies(self, modules: dict[str, types.ModuleType]) -> types.SimpleNamespace:
        """The benchmark's own entry points into qwfold, traced."""
        return types.SimpleNamespace(**{k: _ModuleProxy(m, self) for k, m in modules.items()})

    # -- results ------------------------------------------------------------

    def self_seconds(self, names, layer: str | None = None) -> float:
        """Summed self time of the named spans (optionally of one layer)."""
        total = 0.0
        for key, seconds in self.self_time.items():
            name, _, span_layer = key.rpartition("@")
            if name in names and (layer is None or span_layer == layer):
                total += seconds
        return total

    def layer_self_seconds(self) -> dict[str, float]:
        out = defaultdict(float)
        for key, seconds in self.self_time.items():
            out[key.rpartition("@")[2]] += seconds
        return out

    def span_names(self) -> set[str]:
        return {key.rpartition("@")[0] for key in self.self_time}

    def write(self, path) -> None:
        """Spans as gzip'd JSON lines: [name, layer, start, end, parent, op]."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
