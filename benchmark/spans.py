"""In-memory spans for the traced benchmark run.

A span records one call at a layer boundary: name, start, end, the span that
caused it and the operation it belongs to. Spans stay in memory until the run
ends and ``write`` puts them in a JSON-lines file.

Inside a span opened with ``rollup=True`` (an extremal search makes about a
million nested calls), nested calls are folded into one record per
(operation, parent name, name) holding calls, busy time and self time, so
memory stays flat. Self time is a call's duration minus the time of its
direct children; calls are sequential, so children never overlap.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from itertools import count
from time import perf_counter


class Tracer:
    def __init__(self):
        self.t0 = perf_counter()
        self.ops = []  # (op id, kind, label)
        self.op = 0
        self.spans = []  # (id, parent id, op, name, start, end, self seconds, cells)
        self.rollups = {}  # (op, parent name, name) -> [calls, busy, self, cells]
        self.outcomes = Counter()  # (op, name, outcome) -> calls
        self._stack = []  # open frames: [id, name, start, child seconds, cells]
        self._rollup_depth = 0
        self._ids = count(1)

    def new_op(self, kind: str, label: str) -> int:
        self.op = len(self.ops) + 1
        self.ops.append((self.op, kind, label))
        return self.op

    def _enter(self, name, cells):
        frame = [next(self._ids), name, perf_counter(), 0.0, cells]
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        end = perf_counter()
        self._stack.pop()
        fid, name, start, child, cells = frame
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        if self._rollup_depth:
            key = (self.op, parent[1], name)
            agg = self.rollups.get(key)
            if agg is None:
                self.rollups[key] = [1, dur, dur - child, cells]
            else:
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - child
                agg[3] += cells
        else:
            self.spans.append(
                (fid, parent[0] if parent else None, self.op, name, start, end, dur - child, cells)
            )

    @contextmanager
    def span(self, name: str, cells: int = 0, rollup: bool = False):
        """Record the enclosed block as one span; fold its descendants if rollup."""
        frame = self._enter(name, cells)
        if rollup:
            self._rollup_depth += 1
        try:
            yield
        finally:
            if rollup:
                self._rollup_depth -= 1
            self._exit(frame)

    def wrap(self, fn, name: str, outcome=None):
        """A stand-in for fn that records each call as a span named name.

        ``outcome(result)`` may return a key; calls are then counted per key.
        """
        enter, leave, outcomes = self._enter, self._exit, self.outcomes

        def traced(*args, **kwargs):
            cells = len(args[0].cells) if args and hasattr(args[0], "cells") else 0
            frame = enter(name, cells)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
            if outcome is not None:
                outcomes[(self.op, name, outcome(result))] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path: str):
        """Write ops, spans and rolled-up records as JSON lines (times relative to t0)."""
        with open(path, "w") as fh:
            for op, kind, label in self.ops:
                fh.write(json.dumps({"op": op, "kind": kind, "label": label}) + "\n")
            for fid, parent, op, name, start, end, _, cells in self.spans:
                rec = {"id": fid, "parent": parent, "op": op, "name": name,
                       "start": start - self.t0, "end": end - self.t0}
                if cells:
                    rec["cells"] = cells
                fh.write(json.dumps(rec) + "\n")
            for (op, parent, name), (calls, busy, self_s, cells) in self.rollups.items():
                fh.write(json.dumps({"op": op, "parent_name": parent, "name": name, "calls": calls,
                                     "busy_s": busy, "self_s": self_s, "cells": cells}) + "\n")

    def op_ids(self, kinds, label=None) -> set:
        """Ids of the ops of the given kinds (and label, if given)."""
        return {op for op, kind, lab in self.ops if kind in kinds and label in (None, lab)}

    def stats(self, ops) -> dict:
        """Per span name over the given ops: calls, busy, self, cells."""
        out: dict = {}
        for _, _, op, name, start, end, self_s, cells in self.spans:
            if op in ops:
                _add(out, name, 1, end - start, self_s, cells)
        for (op, _, name), (calls, busy, self_s, cells) in self.rollups.items():
            if op in ops:
                _add(out, name, calls, busy, self_s, cells)
        return out

    def layers(self, ops) -> dict:
        """Per layer (a name's first part) over the given ops: calls, self time and busy
        time, where busy counts only spans whose parent is in another layer."""
        names = {fid: name for fid, _, _, name, *_ in self.spans}
        out: dict = {}

        def add(name, parent_name, calls, busy, self_s):
            layer = name.split(".")[0]
            s = out.setdefault(layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            s["calls"] += calls
            s["self_s"] += self_s
            if parent_name is None or parent_name.split(".")[0] != layer:
                s["busy_s"] += busy

        for _, parent, op, name, start, end, self_s, _ in self.spans:
            if op in ops:
                add(name, names.get(parent), 1, end - start, self_s)
        for (op, parent_name, name), (calls, busy, self_s, _) in self.rollups.items():
            if op in ops:
                add(name, parent_name, calls, busy, self_s)
        return out

    def outcome_count(self, ops, name: str, key) -> int:
        return sum(n for (op, nm, k), n in self.outcomes.items() if op in ops and nm == name and k == key)


def _add(out, name, calls, busy, self_s, cells):
    s = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "cells": 0})
    s["calls"] += calls
    s["busy_s"] += busy
    s["self_s"] += self_s
    s["cells"] += cells


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Stand-in for Tracer that records nothing: the untraced pass."""

    _span = _NullSpan()

    def new_op(self, kind: str, label: str) -> int:
        return 0

    def span(self, name: str, cells: int = 0, rollup: bool = False):
        return self._span


NULL_TRACER = NullTracer()
