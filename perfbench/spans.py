"""Benchmark-side tracing: spans around calls into the program's layers.

Nothing here reaches inside ``src/``. Driver-side spans wrap the public
calls the benchmark makes; executor-side spans come from
:class:`TracedMethod`, a ``Method`` the benchmark passes to
``score_with_method`` so that the scoring UDF calls ``encode_table``,
``FCMModel.match`` and ``FCMModel.head`` through it.

A span records its name, start, end, parent span and request id. All
times are ``time.perf_counter()``, which on Linux reads the system-wide
monotonic clock, so driver and Python-worker spans share one time axis.
"""
from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager

from repro.baselines.base import Method


class Tracer:
    """Spans kept in memory and written out when the run ends.

    A disabled tracer records nothing, so the measured (untraced) runs
    pay only for an empty context manager per call.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self.request: str | None = None
        self._stack: list[str] = []
        self._n = 0

    def next_id(self) -> str:
        self._n += 1
        return f"d{self._n}"

    @contextmanager
    def span(self, name: str, sid: str | None = None, **attrs):
        if not self.enabled:
            yield None
            return
        sid = sid or self.next_id()
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(
                {"id": sid, "name": name, "start": start, "end": end,
                 "parent": parent, "request": self.request, **attrs}
            )

    def add_executor_spans(self, span_dir: str) -> None:
        """Merge the spans the scoring UDF's workers wrote to ``span_dir``."""
        for name in sorted(os.listdir(span_dir)):
            with open(os.path.join(span_dir, name)) as f:
                self.spans.extend(json.loads(line) for line in f if line.strip())

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"spans": with_self_times(self.spans)}, f)


def variants_compared(query_enc, table_enc, kept_col_ids) -> int:
    """Segment-match variants one match compares: lines x kept columns x
    each kept column's (op, window) variants."""
    kept = set(kept_col_ids)
    return query_enc.m * sum(len(c.variants) for c in table_enc.columns if c.col_id in kept)


def with_self_times(spans: list[dict]) -> list[dict]:
    """Each span plus ``self_s``: its duration minus the part of its
    interval that its children cover (children may overlap, as the
    UDF workers run in parallel)."""
    children: dict[str, list[dict]] = {}
    for s in spans:
        if s.get("parent"):
            children.setdefault(s["parent"], []).append(s)
    out = []
    for s in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children.get(s["id"], ())
        ):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append({**s, "self_s": (s["end"] - s["start"]) - covered})
    return out


class TracedMethod(Method):
    """The FCM scoring method with a span around each layer call.

    ``prepare_query`` runs on the driver inside ``score_with_method`` and
    records into the driver tracer. ``encode_table`` and ``score`` run in
    the Python workers of the ``applyInPandas`` UDF; they append one JSON
    line per call to ``<span_dir>/<pid>.jsonl``. Workers are ended without
    running exit hooks, so each line is written as soon as it is made.
    Set ``request`` and ``parent`` before each ``score_with_method`` call:
    the method is broadcast with their values at that call.
    """

    name = "FCM"

    def __init__(self, model, span_dir: str, tracer: Tracer) -> None:
        self.model = model
        self.span_dir = span_dir
        self.tracer = tracer
        self.request: str | None = None
        self.parent: str | None = None

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["tracer"] = None  # driver-only; never broadcast
        return state

    def prepare_query(self, eq):
        with self.tracer.span("line_encoder.encode_query"):
            return self.model.encode_query(eq)

    def encode_table(self, table):
        t0 = time.perf_counter()
        enc = self.model.encode_table(table)
        t1 = time.perf_counter()
        self._emit(
            "dataset_encoder.encode_table", t0, t1,
            table_id=table.table_id, n_cols=enc.n_cols,
            n_variants=sum(len(c.variants) for c in enc.columns),
        )
        return enc

    def score(self, query_prep, table_enc) -> float:
        t0 = time.perf_counter()
        res = self.model.match(query_prep, table_enc)
        t1 = time.perf_counter()
        score = self.model.head(res.features)
        t2 = time.perf_counter()
        self._emit(
            "matcher.match", t0, t1, table_id=table_enc.table_id,
            n_cols=table_enc.n_cols, kept=len(set(res.kept_col_ids)),
            variants=variants_compared(query_prep, table_enc, res.kept_col_ids),
        )
        self._emit("fcm.head", t1, t2, table_id=table_enc.table_id)
        return score

    def _emit(self, name: str, start: float, end: float, **attrs) -> None:
        from pyspark import TaskContext

        ctx = TaskContext.get()
        rec = {
            "id": f"x{os.getpid()}-{time.perf_counter_ns()}",
            "name": name, "start": start, "end": end,
            "parent": self.parent, "request": self.request,
            "partition": ctx.partitionId() if ctx is not None else -1,
            **attrs,
        }
        with open(os.path.join(self.span_dir, f"{os.getpid()}.jsonl"), "a") as f:
            f.write(json.dumps(rec) + "\n")
