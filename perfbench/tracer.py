"""Spans around the library's public functions, recorded from outside `src/`.

`Tracer.install()` replaces each traced function with a wrapper, both on its
defining module (or class) and on every `stabset` module that imported the
name directly (`modelling.sumset`, `polymethod.nullspace_rows`,
...), so calls made between library modules are seen too.  `uninstall()`
puts the originals back.

Spans are aggregated in memory into a call tree keyed by the chain of span
names, so a hot leaf such as `LinearMap2.apply` costs one dict lookup per
call rather than one record.  Calls at the top of the stack are also kept
one by one, which is what `dump()` returns at the end of a run together with
the tree.  A span's self time is its duration minus the time of its child
spans, so the self times of all spans sum to the duration of the top-level
spans.
"""

from __future__ import annotations

import functools
import resource
import sys
import time
from typing import Callable, Optional


def rss_mb() -> float:
    """Peak resident set size of this process so far (`ru_maxrss`), in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Node:
    """Aggregate of every span with one name under one parent chain."""

    __slots__ = ("name", "calls", "total", "child_total", "children")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.total = 0.0
        self.child_total = 0.0
        self.children: dict[str, Node] = {}

    def walk(self, path=()):
        for child in self.children.values():
            yield path + (child.name,), child
            yield from child.walk(path + (child.name,))

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "total_s": self.total,
            "self_s": self.total - self.child_total,
            "children": {n: c.as_dict() for n, c in self.children.items()},
        }


# A counter hook receives (add, args, result) after a call returns, where
# add(key, value) accumulates a named count.
Counter = Callable[[Callable[[str, float], None], tuple, object], None]


class Tracer:
    def __init__(self):
        self.root = Node("root")
        self.stack = [self.root]
        self.top_spans: list[tuple[str, float, float]] = []
        self.counts: dict[str, float] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, counter: Optional[Counter] = None, rss: bool = False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                # iterators would be consumed by the call before the counter
                # could size them; the library lists its inputs anyway
                args = tuple(a if hasattr(a, "__len__") or not hasattr(a, "__iter__") else list(a) for a in args)
            parent = tracer.stack[-1]
            node = parent.children.get(name)
            if node is None:
                node = parent.children[name] = Node(name)
            tracer.stack.append(node)
            rss_before = rss_mb() if rss else 0.0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer.stack.pop()
                node.calls += 1
                node.total += elapsed
                parent.child_total += elapsed
                if parent is tracer.root:
                    tracer.top_spans.append((name, start, start + elapsed))
            if rss:
                tracer.add(f"{name}.rss_rise_mb", rss_mb() - rss_before)
            if counter is not None:
                counter(tracer.add, args, result)
            return result

        return wrapper

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    # -- installation ------------------------------------------------------

    def install(self, targets) -> None:
        """targets: (span name, owner module or class, attribute, counter, rss)."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "stabset"]
        for name, owner, attr, counter, rss in targets:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(name, raw.__func__, counter, rss))
                self._patch(owner, attr, raw, wrapped)
                continue
            wrapped = self.wrap(name, raw, counter, rss)
            self._patch(owner, attr, raw, wrapped)
            for module in modules:
                if module is not owner and module.__dict__.get(attr) is raw:
                    self._patch(module, attr, raw, wrapped)

    def _patch(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for _, node in self.root.walk():
            out[node.name] = out.get(node.name, 0.0) + node.total - node.child_total
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for _, node in self.root.walk():
            out[node.name] = out.get(node.name, 0) + node.calls
        return out

    def calls_under(self, name: str, ancestor: str) -> int:
        return sum(node.calls for path, node in self.root.walk() if path[-1] == name and ancestor in path[:-1])

    def dump(self) -> dict:
        return {
            "tree": self.root.as_dict()["children"],
            "top_spans": [{"name": n, "start": s, "end": e} for n, s, e in self.top_spans],
            "counts": dict(self.counts),
        }
