"""In-place span tracer for the eprblab layers.

install() replaces every public function of the traced modules with a
timing wrapper, both in the module that defines it and in every traced
module that imported it by name, so a call crossing a module boundary opens
a span nested in its caller's span. Nothing under src/ is edited; uninstall()
puts the original functions back.

A span is (name, start_ns, end_ns, parent_index). Spans stay in memory until
the caller reads them. Self time is a span's duration minus the durations of
its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict
from typing import Callable

LAYERS = ("cli", "scan", "optics", "disks", "eventio")

#: hook(counts, arguments, result) records counters at a span's boundary.
Hook = Callable[[Counter, dict, object], None]


class Tracer:
    def __init__(self, package: str, hooks: dict[str, Hook], tagged: frozenset[str]):
        self.modules = [importlib.import_module(f"{package}.{m}") for m in LAYERS]
        self.hooks = hooks
        # Spans of these functions are named "<name>.<tag>" while a tag is set.
        self.tagged = tagged
        self.tag: str | None = None
        self.spans: list[tuple[str, int, int, int] | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        # Keyed by id: module namespaces also hold unhashable values.
        wrappers: dict[int, object] = {}
        for mod in self.modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = self._wrap(obj, f"{short}.{attr}")
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        hook = self.hooks.get(name)
        signature = inspect.signature(fn) if hook else None
        tagged = name in self.tagged

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                label = f"{name}.{self.tag}" if tagged and self.tag else name
                spans[index] = (label, start, end, parent)
            if hook is not None:
                hook(self.counts, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced


def self_times(spans: list[tuple[str, int, int, int]]) -> list[int]:
    """Each span's duration minus the summed durations of its direct children."""
    child = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _), c in zip(spans, child)]


def aggregate(spans: list[tuple[str, int, int, int]]) -> dict[str, tuple[int, int]]:
    """name -> (total self time in ns, number of calls)."""
    acc: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for (name, *_), own in zip(spans, self_times(spans)):
        acc[name][0] += own
        acc[name][1] += 1
    return {name: (own, calls) for name, (own, calls) in acc.items()}


def span_problems(spans: list[tuple[str, int, int, int]]) -> list[str]:
    """Consistency problems of a span list; empty when the tree is sound.

    Checks that no self time is negative, that every child lies inside its
    parent's interval, and that the self times of each root's subtree add up
    to the root's duration.
    """
    problems = []
    own = self_times(spans)
    subtree = list(own)
    for i in range(len(spans) - 1, -1, -1):
        name, start, end, parent = spans[i]
        if own[i] < 0:
            problems.append(f"{name}: negative self time {own[i]} ns")
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            if start < p_start or end > p_end:
                problems.append(f"{name}: span outside its parent {spans[parent][0]}")
            subtree[parent] += subtree[i]
        elif subtree[i] != end - start:
            problems.append(
                f"{name}: subtree self times sum to {subtree[i]} ns, span lasts {end - start} ns"
            )
    return problems
