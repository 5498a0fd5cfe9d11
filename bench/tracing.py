"""Spans around calls into each spincavity layer, recorded from outside the package.

``Tracer.install`` replaces each layer's public function at every module
attribute that resolves to it (``spincavity.circuits.pbs`` as well as
``spincavity.elements.pbs``), so callers inside the package pick up the
wrapper without any change to the package. A generator function is traced
per ``next()``: each row a consumer pulls becomes a child span of the
consumer, which keeps the consumer's self time free of row computation.

Spans carry their parent span and operation ids and stay in memory, in
typed arrays, until ``report`` turns them into per-layer figures. Self time
is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

# (module, attribute, figures reported per operation) of every traced public
# function. A dotted attribute names a method on a class in that module; the
# scatter-table build is traced only to count gate runs.
BOTH = ("calls", "self_s")
LAYERS = (
    ("cavity", "coefficients", BOTH),
    ("cavity", "realistic_scatter", BOTH),
    ("metrics", "closed_form_figures", BOTH),
    ("hilbert", "apply_sited_map", BOTH),
    ("hilbert", "measure_spin", BOTH),
    ("hilbert", "serialize", BOTH),
    ("elements", "pbs", BOTH),
    ("elements", "hadamard_p", BOTH),
    ("elements", "hadamard_e", BOTH),
    ("elements", "phase_pi", BOTH),
    ("elements", "switch_route", BOTH),
    ("elements", "feed_forward", BOTH),
    ("circuits", "cnot", BOTH),
    ("circuits", "toffoli", BOTH),
    ("circuits", "simulated_fidelity", BOTH),
    ("circuits", "simulated_efficiency", BOTH),
    ("circuits", "GateMode.scatter_table", ()),
    ("cli", "run_sweep", ("self_s",)),
    ("cli", "write_csv", ("self_s",)),
    ("cli", "main", ("self_s",)),
)


def _first_len(args):
    return len(args[0]) if args and hasattr(args[0], "__len__") else 0


PACKAGE = "spincavity"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.missing: list[str] = []
        self.counters: dict[str, float] = {}
        self.op = 0
        self._stack = [-1]
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and counters (after a warm-up operation)."""
        self._name = array("i")
        self._parent = array("q")
        self._op = array("q")
        self._start = array("d")
        self._end = array("d")
        self.counters = {key: 0.0 for key in self.counters}

    def _count(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def _open(self, name_id: int) -> int:
        span = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1])
        self._op.append(self.op)
        self._end.append(0.0)
        self._stack.append(span)
        self._start.append(perf_counter())
        return span

    def _close(self, span: int) -> None:
        self._end[span] = perf_counter()
        self._stack.pop()

    def _wrap_call(self, name_id: int, fn):
        hook = self._hooks().get(self.names[name_id])

        def traced(*args, **kwargs):
            span = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name_id: int, fn):
        tracer = self

        class Rows:
            def __init__(self, inner):
                self.inner = inner

            def __iter__(self):
                return self

            def __next__(self):
                span = tracer._open(name_id)
                try:
                    return next(self.inner)
                finally:
                    tracer._close(span)

        def traced(*args, **kwargs):
            return Rows(fn(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    def _hooks(self):
        def sited_map(args, result):
            self._count("hilbert.apply_sited_map.kets_in", _first_len(args))
            biggest = max(_first_len(args), len(result) if hasattr(result, "__len__") else 0)
            self.counters["hilbert.max_kets"] = max(self.counters.get("hilbert.max_kets", 0.0), biggest)

        def serialized(args, result):
            self._count("hilbert.serialize.bytes_out", len(result))

        return {"hilbert.apply_sited_map": sited_map, "hilbert.serialize": serialized}

    def install(self) -> None:
        modules = [
            module for name, module in sys.modules.items()
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for module_name, attribute, _ in LAYERS:
            layer = f"{module_name}.{attribute}"
            owner = sys.modules.get(f"{PACKAGE}.{module_name}")
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if not callable(original):
                self.missing.append(layer)
                continue
            self.names.append(layer)
            wrap = self._wrap_generator if inspect.isgeneratorfunction(original) else self._wrap_call
            wrapper = wrap(len(self.names) - 1, original)
            if path:
                setattr(owner, leaf, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def report(self) -> dict[str, dict[str, float]]:
        """Per-layer call counts and self seconds."""
        n = len(self._start)
        names = np.asarray(self._name, dtype=np.int32)
        parents = np.asarray(self._parent, dtype=np.int64)
        start = np.asarray(self._start, dtype=float)
        end = np.asarray(self._end, dtype=float)
        duration = end - start
        children = np.zeros(n)
        nested = parents >= 0
        np.add.at(children, parents[nested], duration[nested])
        own = duration - children
        size = len(self.names)
        calls = np.bincount(names, minlength=size)
        self_s = np.bincount(names, weights=own, minlength=size)
        return {
            name: {"calls": float(calls[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }

    @property
    def span_count(self) -> int:
        return len(self._start)
