"""Span recorder for the traced benchmark run.

`Tracer.install` wraps, from outside the package, every public function of
the bamboo modules and the validation hook (`__post_init__`) of every public
dataclass that has one. Each module namespace holding a reference to a
wrapped function gets the wrapper, so the calls that `solve` and `evaluate`
make internally are recorded too. Only public names are touched: the package
needs no change for tracing, and private helpers can move without breaking
the benchmark. `uninstall` puts every original back.

A span is `[name id, start ns, end ns, parent span index, garden id]`. Spans
stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import time
from pathlib import Path

# The package's modules, which are the benchmark's layers.
LAYERS = ("cli", "model", "reduction", "rounding", "scheduler", "verifier", "oracle")


class Tracer:
    def __init__(self, observe: tuple[str, ...] = ()) -> None:
        # observed spans also keep (args, kwargs, result) for counters that
        # the benchmark computes from outside once the op has ended
        self.observe = frozenset(observe)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list[int]] = []
        self.stack: list[int] = []
        self.garden = -1
        self.observed: dict[str, list[tuple]] = {name: [] for name in self.observe}
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around code of the benchmark's own, such as the JSON
        parsing and emitting that the CLI does around `solve`."""
        rec = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, nid: int) -> list[int]:
        rec = [nid, 0, 0, self.stack[-1] if self.stack else -1, self.garden]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        return rec

    def _close(self, rec: list[int]) -> None:
        rec[2] = time.perf_counter_ns()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        seen = self.observed.get(name)
        opened, closed = self._open, self._close

        def traced(*args, **kwargs):
            rec = opened(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                closed(rec)
            if seen is not None:
                seen.append((args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        package = importlib.import_module("bamboo")
        modules = [importlib.import_module(f"bamboo.{layer}") for layer in LAYERS]
        namespaces = [package, *modules]
        for layer, module in zip(LAYERS, modules):
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isfunction(obj):
                    traced = self._wrap(name, obj)
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is obj:
                                self._undo.append((ns, key, obj))
                                setattr(ns, key, traced)
                elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                    hook = vars(obj)["__post_init__"]
                    self._undo.append((obj, "__post_init__", hook))
                    obj.__post_init__ = self._wrap(name, hook)

    def uninstall(self) -> None:
        while self._undo:
            target, key, original = self._undo.pop()
            setattr(target, key, original)

    def take_observed(self, name: str) -> list[tuple]:
        items = self.observed.get(name, [])
        self.observed[name] = []
        return items

    def summary(self) -> dict[str, tuple[int, int, int]]:
        """name -> (calls, inclusive ns, self ns).

        Self time is a span's duration minus the durations of its direct
        children. Inclusive time counts only the outermost span of a name,
        so a recursive function is not counted twice.
        """
        spans = self.spans
        children = [0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                children[rec[3]] += rec[2] - rec[1]
        out: dict[str, list[int]] = {}
        for i, rec in enumerate(spans):
            dur = rec[2] - rec[1]
            acc = out.setdefault(self.names[rec[0]], [0, 0, 0])
            acc[0] += 1
            acc[2] += dur - children[i]
            parent = rec[3]
            while parent >= 0 and spans[parent][0] != rec[0]:
                parent = spans[parent][3]
            if parent < 0:
                acc[1] += dur
        return {name: tuple(v) for name, v in out.items()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "start_ns", "end_ns", "parent", "garden"], "names": self.names, "spans": self.spans},
                fh,
                separators=(",", ":"),
            )
