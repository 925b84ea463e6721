"""Op-level profiler for the autograd substrate.

Two hook points, both zero-cost when no profiler is active:

- ``Tensor._make`` reports every backward-node allocation (one per tracked
  op), and ``Tensor.backward`` routes each backward closure through
  :meth:`OpProfiler._run_backward` so per-op backward time is measured.
- ``Module.__call__`` routes through :meth:`OpProfiler._call_module`,
  giving per-module-class call counts plus cumulative and *self* forward
  time (cumulative minus time spent in child modules).

Typical use::

    with OpProfiler() as prof:
        loss = model(batch)
        loss.backward()
    print(prof.table())
    prof.dump_json("profile.json")

The ``repro profile`` CLI subcommand wraps exactly this around a few
training steps; ``docs/performance.md`` documents how to read the output.

A profiler sees the thread that enabled it, and only that one: the active
profiler is per thread, like the grad mode (``repro.autograd.tensor``).
"""

from __future__ import annotations

import json
import pathlib
import time
from collections import Counter

from ..autograd import tensor as _tensor
from ..utils import render_table

__all__ = ["OpProfiler", "active_profiler"]


def active_profiler() -> "OpProfiler | None":
    """Return the profiler enabled on this thread (None when profiling is off)."""
    return _tensor._PROFILER.get()


def _op_name(closure) -> str:
    """Derive the op name from a backward closure's qualname.

    Closures are defined as ``<op>.<locals>.backward`` inside each op, so
    the third-from-last component names the op (``__add__``, ``matmul``,
    ``gru_sequence``, ...).
    """
    qualname = getattr(closure, "__qualname__", "")
    parts = qualname.split(".")
    return parts[-3] if len(parts) >= 3 else (qualname or "op")


class OpProfiler:
    """Collects per-op node counts / backward times and per-module timings.

    Attributes
    ----------
    backward_nodes:
        Total backward-node allocations while enabled. Inference under
        ``no_grad`` must keep this at zero (asserted in ``tests/perf``).
    node_counts:
        Backward-node allocations per op name.
    """

    def __init__(self):
        self.backward_nodes: int = 0
        self.node_counts: Counter[str] = Counter()
        self.backward_stats: dict[str, list] = {}  # name -> [calls, seconds]
        self.module_stats: dict[str, list] = {}  # class -> [calls, cum, self]
        # Timeline of (category, name, start_s, duration_s) tuples relative
        # to _origin; exported by dump_trace() in chrome://tracing format.
        self.events: list[tuple[str, str, float, float]] = []
        self._origin = time.perf_counter()
        self._stack: list[float] = []
        self._token = None

    # -- activation ----------------------------------------------------
    def enable(self) -> "OpProfiler":
        """Install this profiler into the Tensor/Module hook points of the
        calling thread; ops on other threads are not seen."""
        self._token = _tensor._PROFILER.set(self)
        return self

    def disable(self) -> "OpProfiler":
        """Remove this profiler, restoring whatever was active before. Call
        it on the thread that called :meth:`enable`."""
        if self._token is not None:
            _tensor._PROFILER.reset(self._token)
            self._token = None
        return self

    def __enter__(self) -> "OpProfiler":
        return self.enable()

    def __exit__(self, *exc) -> None:
        self.disable()

    def reset(self) -> None:
        """Zero all counters without detaching the hooks."""
        self.backward_nodes = 0
        self.node_counts.clear()
        self.backward_stats.clear()
        self.module_stats.clear()
        self.events.clear()
        self._origin = time.perf_counter()
        self._stack.clear()

    # -- hook callbacks (called from repro.autograd / repro.nn) --------
    def _record_node(self, closure) -> None:
        self.backward_nodes += 1
        self.node_counts[_op_name(closure)] += 1

    def _run_backward(self, closure) -> None:
        name = _op_name(closure)
        start = time.perf_counter()
        closure()
        elapsed = time.perf_counter() - start
        stats = self.backward_stats.setdefault(name, [0, 0.0])
        stats[0] += 1
        stats[1] += elapsed
        self.events.append(("backward", name, start - self._origin, elapsed))

    def _call_module(self, module, args, kwargs):
        name = type(module).__name__
        self._stack.append(0.0)
        start = time.perf_counter()
        try:
            return module.forward(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            child_time = self._stack.pop()
            if self._stack:
                self._stack[-1] += elapsed
            stats = self.module_stats.setdefault(name, [0, 0.0, 0.0])
            stats[0] += 1
            stats[1] += elapsed
            stats[2] += elapsed - child_time
            self.events.append(("forward", name, start - self._origin, elapsed))

    # -- reporting -----------------------------------------------------
    def table(self) -> str:
        """Self/cumulative-time tables for modules and backward ops."""
        sections = []
        if self.module_stats:
            rows = [
                [name, calls, cum * 1e3, self_t * 1e3, self_t / calls * 1e6]
                for name, (calls, cum, self_t) in sorted(
                    self.module_stats.items(), key=lambda kv: -kv[1][2]
                )
            ]
            sections.append(
                "forward (per module class)\n"
                + render_table(
                    ["module", "calls", "cum ms", "self ms", "self us/call"], rows
                )
            )
        if self.node_counts:
            rows = []
            for name, count in self.node_counts.most_common():
                calls, seconds = self.backward_stats.get(name, (0, 0.0))
                rows.append([name, count, calls, seconds * 1e3])
            sections.append(
                "backward ops (node allocations / closure time)\n"
                + render_table(["op", "nodes", "bwd calls", "bwd ms"], rows)
            )
        if not sections:
            return "(no profiled activity)"
        return "\n\n".join(sections)

    def to_dict(self) -> dict:
        """JSON-serializable snapshot of every counter."""
        return {
            "backward_nodes": self.backward_nodes,
            "node_counts": dict(self.node_counts),
            "backward_ops": {
                name: {"calls": calls, "seconds": seconds}
                for name, (calls, seconds) in self.backward_stats.items()
            },
            "modules": {
                name: {"calls": calls, "cum_seconds": cum, "self_seconds": self_t}
                for name, (calls, cum, self_t) in self.module_stats.items()
            },
        }

    def dump_json(self, path) -> pathlib.Path:
        """Write :meth:`to_dict` to ``path`` and return it."""
        path = pathlib.Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    def dump_trace(self, path) -> pathlib.Path:
        """Write the recorded timeline as a chrome://tracing JSON file.

        The file loads in ``chrome://tracing`` or https://ui.perfetto.dev:
        forward module calls and backward op closures land on two named
        tracks, as complete ("X") events whose nesting mirrors the module
        call tree. Timestamps are microseconds relative to the profiler's
        construction (or last :meth:`reset`).
        """
        import os

        pid = os.getpid()
        tids = {"forward": 1, "backward": 2}
        present = {category for category, _, _, _ in self.events}
        trace_events: list[dict] = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": category},
            }
            for category, tid in tids.items()
            if category in present
        ]
        for category, name, start, duration in self.events:
            trace_events.append(
                {
                    "name": name,
                    "cat": category,
                    "ph": "X",
                    "ts": round(start * 1e6, 3),
                    "dur": round(duration * 1e6, 3),
                    "pid": pid,
                    "tid": tids[category],
                }
            )
        path = pathlib.Path(path)
        path.write_text(
            json.dumps({"traceEvents": trace_events, "displayTimeUnit": "ms"}) + "\n"
        )
        return path
