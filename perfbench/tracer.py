"""Spans around calls into the library's public functions, from outside.

The tracer rebinds names for the length of one run and restores them
afterwards. Functions are rebound in every ethercouch module that imported
them by name (``peer.merkle_prove``, ``simnet.encode_message``, ...);
methods are rebound on their class. Each wrapped call records one span
(name, start, end, parent span) in memory; a span's self time is its
duration minus the time its child spans cover, so layers nest without
double counting. The wrapper's own bookkeeping is charged to neither the
span nor its parent: it shows up only as tracing overhead.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

_MARK = "_perfbench_span"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("l")
        self._stack: list[list[int]] = []  # [span index, child ns] per open span
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrapper(self, fn, name, name_of=None, before=None, after=None):
        ids, calls, self_ns, stack = self._id, self.calls, self.self_ns, self._stack
        names, starts, ends, parents = self.span_name, self.span_start, self.span_end, self.span_parent
        perf = time.perf_counter_ns
        fixed = None if name_of else ids(name)

        def wrapper(*args, **kwargs):
            t_enter = perf()
            nid = fixed if name_of is None else ids(name_of(args))
            pre = before(args) if before else None
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            starts.append(0)
            ends.append(0)
            frame = [idx, 0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                calls[nid] += 1
                self_ns[nid] += t1 - t0 - frame[1]
                if stack:
                    stack[-1][1] += t1 - t_enter
            if after:
                after(args, result, pre)
                if stack:
                    stack[-1][1] += perf() - t1
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__wrapped__ = fn
        setattr(wrapper, _MARK, name)
        return wrapper

    def wrap_function(self, fn, name, **hooks) -> None:
        """Rebind ``fn`` wherever an ethercouch module holds it by name."""
        wrapper = self._wrapper(fn, name, **hooks)
        bound = 0
        for mod in _library_modules():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
                    bound += 1
        if not bound:
            raise RuntimeError(f"{name}: no module binds {fn.__name__}")

    def wrap_method(self, cls, attr, name, **hooks) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(original, name, **hooks))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def summary(self) -> dict[str, tuple[int, int]]:
        """Span name -> (calls, self time in ns)."""
        return {name: (self.calls[nid], self.self_ns[nid]) for name, nid in self._ids.items()}

    def write_spans(self, f, run: str) -> None:
        """One span per line: run, index, name, start ns, end ns, parent index
        (-1 for a root span)."""
        for i, (nid, t0, t1, parent) in enumerate(
            zip(self.span_name, self.span_start, self.span_end, self.span_parent)
        ):
            f.write(f"{run}\t{i}\t{self.names[nid]}\t{t0}\t{t1}\t{parent}\n")


def _library_modules():
    return [m for n, m in list(sys.modules.items()) if n == "ethercouch" or n.startswith("ethercouch.")]


def leftover_wrappers() -> list[str]:
    """Names still bound to a tracing wrapper anywhere in the library."""
    found = []
    for mod in _library_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, _MARK):
                found.append(f"{mod.__name__}.{attr}")
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                found.extend(f"{mod.__name__}.{attr}.{a}" for a, v in vars(value).items() if hasattr(v, _MARK))
    return found
