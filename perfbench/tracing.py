"""Spans recorded from outside the program (traced runs only).

The benchmark wraps public functions and methods of the program in shims
that open a span around each call; nothing inside ``src/`` is changed. A
span has a name, start, end, parent span and trace id. Self time (a span's
duration minus the time its direct children cover) and call counts are
aggregated as spans close, so long runs need no span list; whole traces
are also kept in memory, up to ``SPAN_KEEP`` spans, and written out with
the result.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# Whole traces only: one kernel-sliding pass, the largest, opens ~50K spans.
SPAN_KEEP = 100_000


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.n_spans = 0
        self._ids = itertools.count(1)
        # Open spans: [span_id, name, start_ns, child_ns, trace_id, parent].
        self._stack: list[list] = []
        self._trace_buf: list[dict] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        span_id = next(self._ids)
        trace_id = parent[4] if parent else span_id
        frame = [span_id, name, time.perf_counter_ns(), 0, trace_id, parent[0] if parent else None]
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            dur = end - frame[2]
            self.self_ns[name] += dur - frame[3]
            self.n_spans += 1
            if parent is not None:
                parent[3] += dur
            if len(self.spans) < SPAN_KEEP:
                self._trace_buf.append(
                    {
                        "name": name,
                        "span_id": span_id,
                        "parent": frame[5],
                        "trace_id": trace_id,
                        "start_ns": frame[2],
                        "end_ns": end,
                    }
                )
            if parent is None:
                # Keep whole traces only, so every kept chain is closed.
                if len(self.spans) + len(self._trace_buf) <= SPAN_KEEP:
                    self.spans.extend(self._trace_buf)
                self._trace_buf = []

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def self_ms(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e6


def _resolve(path: str):
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute name)."""
    mod_name, _, attr_path = path.partition(":")
    owner = importlib.import_module(mod_name)
    *owners, attr = attr_path.split(".")
    for o in owners:
        owner = getattr(owner, o)
    return owner, attr


class Shims:
    """Install span-opening wrappers around program functions; undo on exit.

    ``targets`` maps ``"module:attr"`` or ``"module:Class.method"`` to a
    span name, optionally with an ``after(tracer, args, result)`` hook that
    records counts at the same boundary outside the span, and an
    ``inside(result) -> result`` hook that runs inside the span (the Spark
    stages use it to materialize a lazy result). A module-level function is also
    replaced in every ``repro`` module that imported it by name, so calls
    between layers go through the shim.
    """

    def __init__(self, tracer: Tracer, targets: dict[str, "str | tuple"]):
        self.tracer = tracer
        self.targets = targets
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Shims":
        for path, spec in self.targets.items():
            name, after, inside = (spec + (None, None))[:3] if isinstance(spec, tuple) else (spec, None, None)
            owner, attr = _resolve(path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapper = self._wrap(original, name, after, inside)
            self._replace(owner, attr, original, wrapper)
            if not isinstance(owner, type):
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.startswith("repro") and mod is not owner:
                        if getattr(mod, attr, None) is original:
                            self._replace(mod, attr, original, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _replace(self, owner, attr, original, wrapper) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, name: str, after, inside):
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
                if inside is not None:
                    result = inside(result)
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper


def closed_parent_chains(spans: list[dict]) -> bool:
    """Every parent exists, shares the child's trace id and encloses it in
    time, and every chain ends at a root whose id is the trace id."""
    by_id = {s["span_id"]: s for s in spans}
    for s in spans:
        if s["end_ns"] < s["start_ns"]:
            return False
        cur = s
        seen = set()
        while cur["parent"] is not None:
            if cur["span_id"] in seen:
                return False
            seen.add(cur["span_id"])
            p = by_id.get(cur["parent"])
            if p is None or p["trace_id"] != cur["trace_id"]:
                return False
            if p["start_ns"] > cur["start_ns"] or p["end_ns"] < cur["end_ns"]:
                return False
            cur = p
        if cur["span_id"] != cur["trace_id"]:
            return False
    return True
