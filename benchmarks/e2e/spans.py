"""In-memory span recorder for the traced runs.

Spans are opened from the benchmark's own files, around calls into the
program's public functions; nothing in ``src/`` knows about them. Each span
holds a name, start, end, the span that caused it (``parent``) and the id of
the request or step it belongs to (``trace``). Spans stay in memory and are
written out once, after the measured window has ended.

A disabled tracer hands out one shared no-op context, so untraced runs pay a
method call and nothing else.
"""

from __future__ import annotations

import json
import pathlib
import threading
import time
from collections import defaultdict


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, record):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        stack = self.tracer._stack()
        record = self.record
        if stack:
            parent = stack[-1]
            record[3] = parent[0]
            if record[4] is None:
                record[4] = parent[4]
        stack.append(record)
        record[1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[2] = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer._done.append(self.record)
        return False


class Tracer:
    """Records ``[id, start, end, parent, trace, name]`` rows when enabled."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self._done: list[list] = []  # list.append is atomic under the GIL
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62))

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, trace=None):
        """Context manager timing one call; ``trace`` names the request/step."""
        if not self.enabled:
            return _NULL
        return _Span(self, [next(self._ids), 0.0, 0.0, None, trace, name])

    def spans(self) -> list[dict]:
        return [
            {"id": r[0], "start": r[1], "end": r[2], "parent": r[3], "trace": r[4], "name": r[5]}
            for r in sorted(self._done, key=lambda r: r[1])
        ]

    def write(self, path, meta: dict | None = None) -> pathlib.Path:
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = self.spans()
        origin = spans[0]["start"] if spans else 0.0
        for span in spans:
            span["start"] -= origin
            span["end"] -= origin
        path.write_text(json.dumps({"meta": meta or {}, "spans": spans}) + "\n")
        return path


def overhead_share(spans: list[dict], lo: float, hi: float, samples: int = 20_000) -> float:
    """Share of ``[lo, hi]`` spent recording the spans opened in it.

    The cost of one span is measured here, on this machine, by recording
    ``samples`` empty ones; the spans live only in the benchmark's files, so
    this is all the tracing costs the run.
    """
    tracer = Tracer(True)
    started = time.perf_counter()
    for _ in range(samples):
        with tracer.span("calibrate"):
            pass
    cost = (time.perf_counter() - started) / samples
    opened = sum(1 for span in spans if lo <= span["start"] < hi)
    return opened * cost / (hi - lo)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - _covered(children.get(span["id"], []), span["start"], span["end"])
        for span in spans
    }


def by_name(spans: list[dict]) -> dict[str, dict]:
    """Per span name: call count, summed duration, summed self time, durations."""
    own = self_times(spans)
    out: dict[str, dict] = {}
    for span in spans:
        row = out.setdefault(span["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0, "durations_s": []})
        duration = span["end"] - span["start"]
        row["count"] += 1
        row["total_s"] += duration
        row["self_s"] += own[span["id"]]
        row["durations_s"].append(duration)
    return out


def root_coverage(spans: list[dict], lo: float, hi: float) -> float:
    """Share of ``[lo, hi]`` that lies inside some parentless span."""
    roots = [(s["start"], s["end"]) for s in spans if s["parent"] is None]
    return _covered(roots, lo, hi) / (hi - lo) if hi > lo else 0.0
