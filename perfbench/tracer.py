"""In-memory span tracing of the qbayes layer modules, applied from outside.

``install`` wraps every public function, and every public method of every
class, defined in the layer modules, then rebinds each module-level name
in any ``qbayes`` module that still points at an original (for example
``definetti.born``, imported from ``effects``).  Calls made from inside the
package, such as ``cli`` calling ``effects.born``, are therefore timed as
well.  ``uninstall`` puts every original back, so untraced runs execute
the unmodified program.

A span is (name, parent span, start, end) kept in flat arrays; nothing is
written until ``save``.  Counters (calls of the ``COUNTED`` helpers and
the ``RESULT_COUNTERS``) sit beside the spans.  Self time of a span is its duration minus the
durations of its direct children.
"""

import functools
import importlib
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("cli", "definetti", "locality", "entropy", "update", "states", "effects", "linalg")

# Pure argument coercions called at the top of nearly every other function.
# Tracing them would roughly double the span count and the overhead while
# giving no metric; their time is part of their callers' self time.
UNTRACED = frozenset({"linalg.as_operator", "linalg.dagger"})

# Leaf helpers called tens of thousands of times per op (the design-matrix
# loops).  They are counted, not timed: a span per call would dominate the
# traced run.  Their time is part of their callers' self time.
COUNTED = frozenset({"linalg.hs_inner"})

# Counts taken from a traced function's return value: span name -> counter
# name and predicate.
RESULT_COUNTERS = {
    "states.in_sqm_set": ("states.in_sqm_set.rejects", lambda r: not r.member),
}


class Tracer:
    """Flat in-memory span store with a call stack for parent links."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {}
        self._absorbed: dict[str, dict[str, float]] = {}
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span recorded by the benchmark itself, around a call it makes."""
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        nid = self._id(name)
        counter = RESULT_COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter is not None and counter[1](result):
                tracer.counters[counter[0]] = tracer.counters.get(counter[0], 0) + 1
            return result

        return traced

    def count(self, name: str, fn):
        key = f"{name}.calls"
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[key] = counters.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total time and self time in seconds."""
        n = len(self.names)
        nid = np.asarray(self.name_id, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        calls = np.bincount(nid, minlength=n)
        total = np.bincount(nid, weights=dur, minlength=n)
        own = np.bincount(nid, weights=dur - child, minlength=n)
        out = {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }
        for name, entry in self._absorbed.items():
            acc = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key, value in entry.items():
                acc[key] += value
        return out

    def absorb(self, child: dict) -> None:
        """Add the summary and counters a traced child process wrote."""
        for name, entry in child["spans"].items():
            acc = self._absorbed.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key, value in entry.items():
                acc[key] += value
        for name, count in child["counters"].items():
            self.counters[name] = self.counters.get(name, 0) + count

    def save(self, path) -> None:
        """Write every span, with the name table, as one ``.npz`` file."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.asarray(self.name_id, dtype=np.int32),
            parent=np.asarray(self.parent, dtype=np.int64),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
        )


def _targets(module, layer: str):
    """(owner, attribute, original, span name) for each traceable callable."""
    for attr, obj in list(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            for mname, member in list(vars(obj).items()):
                if mname.startswith("_"):
                    continue
                if isinstance(member, (classmethod, staticmethod)) or inspect.isfunction(member):
                    yield obj, mname, member, f"{layer}.{obj.__name__}.{mname}"
        elif callable(obj):
            yield module, attr, obj, f"{layer}.{attr}"


def install(tracer: Tracer) -> list:
    """Wrap the layer modules' public callables; returns the undo list."""
    undo = []
    wrapped = {}
    for layer in LAYERS:
        module = importlib.import_module(f"qbayes.{layer}")
        for owner, attr, original, name in _targets(module, layer):
            if name in UNTRACED:
                continue
            if isinstance(original, (classmethod, staticmethod)):
                replacement = type(original)(tracer.wrap(name, original.__func__))
            else:
                wrap = tracer.count if name in COUNTED else tracer.wrap
                replacement = wrap(name, original)
                wrapped[id(original)] = (original, replacement)
            setattr(owner, attr, replacement)
            undo.append((owner, attr, original))
    for modname, module in list(sys.modules.items()):
        if modname != "qbayes" and not modname.startswith("qbayes."):
            continue
        for attr, obj in list(vars(module).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])
                undo.append((module, attr, obj))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
