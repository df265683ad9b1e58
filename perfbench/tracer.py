"""Spans and counters around the public functions and methods of a package.

The tracer instruments an imported package from outside, so nothing in its
source changes.  A wrapped function is rebound wherever a module of the
package binds it (``hirotaweb.webs.signed_minors`` as well as
``hirotaweb.interpolation.signed_minors``), so calls through every import
site are seen.  Names with a leading underscore are never wrapped, except
the arithmetic dunders of ``DUNDER_OPS``; an alias such as
``__rmul__ = __mul__`` is wrapped under its own name and reports to the
same span.

A span records name, start, end and parent.  Spans are kept in memory for
one job at a time; ``end_job`` folds them into per-name call counts and
self times, where self time is a span's duration minus the part of it that
its child spans cover.
"""

from __future__ import annotations

import functools
import time
import types
from typing import Callable, Iterable, Optional, Sequence

# Span names: "<module>.<function>" or "<module>.<Class>.<method>", with the
# dunders below reported under their operation name.
DUNDER_OPS = {
    "__init__": "init", "__eq__": "eq", "__neg__": "neg", "__pow__": "pow",
    "__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "sub",
    "__mul__": "mul", "__rmul__": "mul",
    "__truediv__": "truediv", "__rtruediv__": "truediv",
}

Counter = Callable[[tuple, object], dict]


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Self time of each span (name, start, end, parent index or None): its
    duration minus the union of its children's intervals, clipped to its own."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, reach)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


class Tracer:
    """Collects spans and counters while installed on a package."""

    def __init__(self, counters: Optional[dict[str, Counter]] = None):
        self.counters = counters or {}
        self.spans: list[list] = []
        self.totals: dict[str, dict[str, float]] = {}
        self.wrapped: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = self.counters.get(name)
        self.wrapped.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count is not None:
                bucket = self.totals.setdefault(name, {})
                for key, value in count(args, result).items():
                    bucket[key] = bucket.get(key, 0) + value
            return result

        return traced

    def end_job(self) -> float:
        """Fold the spans recorded since the last call into ``totals`` and
        return the summed self time, which covers the top-level spans."""
        total = 0.0
        for (name, *_), own in zip(self.spans, self_times(self.spans)):
            bucket = self.totals.setdefault(name, {})
            bucket["calls"] = bucket.get("calls", 0) + 1
            bucket["self_s"] = bucket.get("self_s", 0.0) + own
            total += own
        self.spans.clear()
        return total

    # -- installation ------------------------------------------------------

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, short: str, cls: type) -> None:
        for attr, value in list(vars(cls).items()):
            op = DUNDER_OPS.get(attr)
            if op is None:
                if attr.startswith("_"):
                    continue
                op = attr
            name = f"{short}.{cls.__name__}.{op}"
            if isinstance(value, types.FunctionType):
                self._patch(cls, attr, self._wrap(name, value))
            elif isinstance(value, (classmethod, staticmethod)):
                self._patch(cls, attr, type(value)(self._wrap(name, value.__func__)))

    def install(self, modules: Iterable[types.ModuleType]) -> None:
        """Wrap the public functions and methods defined in ``modules`` and
        rebind every module-level name that refers to a wrapped function."""
        modules = sorted(modules, key=lambda m: m.__name__)
        wrappers: dict[Callable, Callable] = {}
        for module in modules:
            short = module.__name__.rpartition(".")[2]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if isinstance(value, types.FunctionType):
                    wrappers[value] = self._wrap(f"{short}.{attr}", value)
                elif isinstance(value, type):
                    self._wrap_class(short, value)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._patch(module, attr, wrappers[value])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
