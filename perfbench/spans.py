"""In-memory span recorder and the timing wrappers of the traced run.

Wrappers are installed where the callers look the names up (module globals
and class attributes) for the duration of one traced task, and removed again,
so untraced tasks run the unmodified library. Spans stay in memory and are
written out once, when the benchmark ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.run: str | None = None
        self._open: list[int] = []
        self._indexes: dict[int, object] = {}   # build_index span id -> returned index

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "run": self.run, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, before=None, after=None):
        """Time `fn` under `name`; `before` runs inside the span, `after` outside it."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                if before is not None:
                    rec.update(before(args))
                result = fn(*args, **kwargs)
            if after is not None:
                after(rec, result)
            return result
        return traced

    def keep_index(self, rec: dict, index) -> None:
        rec["nodes"] = len(index.windows)
        rec["instances"] = index.total_instances()
        self._indexes[rec["id"]] = index

    def close_run(self) -> None:
        """Count, per build_index call, the nodes whose instances changed since the last call."""
        prev = None
        for rec in self.spans:
            if rec["run"] != self.run or rec["id"] not in self._indexes:
                continue
            cur = self._indexes.pop(rec["id"]).per_node
            if prev is not None:
                rec["changed"] = sum(prev.get(v) != types for v, types in cur.items())
                rec["reenumerated"] = len(cur)
            prev = cur
        self.run = None

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for rec in self.spans:
                f.write(json.dumps(rec, sort_keys=True) + "\n")


@contextmanager
def installed(tracer: Tracer, targets):
    """Replace each (owner, attribute) with a traced wrapper; restore on exit."""
    saved = []
    try:
        for owner, attr, name, before, after in targets:
            orig = getattr(owner, attr)
            saved.append((owner, attr, orig))
            setattr(owner, attr, tracer.wrap(name, orig, before, after))
        yield
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def per_run(spans) -> dict:
    """run id -> span name -> {calls, total_s, self_s, and summed counters}.

    Self time is a span's duration minus its children's; children of one span
    run one after another on one thread, so their intervals do not overlap.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
    for s in spans:
        row = out[s["run"]][s["name"]]
        dur = s["end"] - s["start"]
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - child_time[s["id"]]
        for key in ("ops", "nodes", "instances", "changed", "reenumerated"):
            if key in s:
                row[key] += s[key]
    return {run: {name: dict(row) for name, row in names.items()}
            for run, names in out.items()}
