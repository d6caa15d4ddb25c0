"""In-memory span tracing of gaplab's public functions, from the outside.

``Tracer.install`` replaces every public function of each gaplab layer
module with a wrapper, in every ``gaplab`` namespace that binds it, so calls
between modules (``bench.evaluate_crossmodal`` -> ``c3.corrupt``) and calls
from the CLI are both seen. A span is (name, start, end, parent, work):
``parent`` is the index of the enclosing span or -1, and ``work`` is an
optional size taken from the call (rows, steps, bytes or float64 MiB).
Spans stay in a list until ``write`` dumps them when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

LAYERS = ("contrastive", "linalg", "geometry", "worlds", "c3", "bench", "embio", "cli")

_MIB = float(1 << 20)


def _f64_mib(matrix) -> float:
    values = getattr(matrix, "values", matrix)
    return values.size * 8 / _MIB


def _report_bytes(args, kwargs, result) -> float:
    out_dir, command = args[0], args[1]
    return float(sum(os.path.getsize(os.path.join(out_dir, f))
                     for f in os.listdir(out_dir) if f.startswith(command + ".")))


# Per-function size of the work a call did, read after the call returns.
WORK = {
    "contrastive.train_contrastive": lambda a, k, r: float(r.trajectory[-1].step),
    "c3.corrupt": lambda a, k, r: float(r.shape[0]),
    "embio.write_csv": lambda a, k, r: _f64_mib(a[0]),
    "embio.write_mmeb": lambda a, k, r: _f64_mib(a[0]),
    "embio.read_csv": lambda a, k, r: _f64_mib(r),
    "embio.read_mmeb": lambda a, k, r: _f64_mib(r),
    "cli.write_reports": _report_bytes,
}


class Tracer:
    """Records nested spans around gaplab calls while installed."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._patched: list = []

    def _wrap(self, name: str, fn):
        spans, stack, work = self.spans, self._stack, WORK.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, 0.0)
            if work is not None:
                spans[idx] = (name, start, end, parent, work(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "gaplab" or n.startswith("gaplab.")]
        for layer in LAYERS:
            module = importlib.import_module(f"gaplab.{layer}")
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, key, wrapped)
                            self._patched.append((ns, key, fn))

    def uninstall(self) -> None:
        for ns, key, fn in reversed(self._patched):
            setattr(ns, key, fn)
        self._patched.clear()

    def summary(self) -> dict:
        """Per function: calls, total and self seconds, work; per layer: self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        funcs: dict = {}
        layers = {layer: 0.0 for layer in LAYERS}
        for i, (name, start, end, _, work) in enumerate(self.spans):
            f = funcs.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0.0})
            self_s = (end - start) - child[i]
            f["calls"] += 1
            f["total_s"] += end - start
            f["self_s"] += self_s
            f["work"] += work
            layers[name.split(".", 1)[0]] += self_s
        return {"functions": funcs, "layers": layers}

    def write(self, path: str) -> None:
        """Dump the spans as one JSON list per line: name, start, end, parent, work."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
