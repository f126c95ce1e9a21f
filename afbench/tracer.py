"""Span tracer that wraps afbell's public functions from outside the package.

Nothing inside ``src/`` records anything: ``Tracer.install`` replaces each
public function and public method of the six afbell modules with a wrapper
that records a span (name, start, end, parent span), at every binding a
caller looks the function up through.  ``Tracer.uninstall`` puts every
original binding back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("qstate", "observables", "rotations", "experiment", "lhv", "cli")


class Tracer:
    """In-memory span recorder plus the patching that feeds it.

    ``observers`` maps a span name to ``fn(args, kwargs, result)``, called
    after the span has ended, for counts that need a call's arguments or
    return value (rows returned, bytes written).
    """

    def __init__(self, observers=None) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.observers = dict(observers or {})
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observer = self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if observer is not None:
                observer(args, kwargs, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public function and method of the afbell layers."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped: dict[object, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"afbell.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        # Rebind each wrapped function wherever a module holds it by name:
        # its own module (callers inside it use its globals) and every
        # module that imported it with ``from .x import name``.
        for name, module in list(sys.modules.items()):
            if name != "afbell" and not name.startswith("afbell."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(module, attr, wrapped[obj])

    def _wrap_methods(self, layer: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(obj, (classmethod, staticmethod)):
                self._set(cls, attr, type(obj)(self._wrap(name, obj.__func__)))
            elif inspect.isfunction(obj):
                self._set(cls, attr, self._wrap(name, obj))

    def uninstall(self) -> None:
        """Restore every binding install() replaced, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: call count, summed self time, inclusive durations.

        Self time is a span's duration minus the time its direct child spans
        cover; children nest strictly inside their parent on one thread.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "durations": []})
            row["calls"] += 1
            row["self_s"] += (end - start) - covered
            row["durations"].append(end - start)
        return out
