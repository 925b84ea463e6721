"""Performance toolkit: op-level profiler + fused-kernel fast path.

``repro.perf`` is the substrate's answer to "as fast as the hardware
allows" without leaving pure NumPy: :class:`OpProfiler` shows where the
time goes (per-op backward-node counts and times, per-module forward
self/cumulative time), and the fused kernels collapse the hottest op
compositions into single autograd nodes with hand-written backwards.

The ``nn`` layers call the kernels unconditionally; the compositions they
replace live on only as test oracles in ``tests/perf``.
"""

from .fused import (
    addmm,
    embedding_lookup,
    gru_sequence,
    log_softmax_nll,
    relation_scores,
    relation_values,
)
from .profiler import OpProfiler, active_profiler

__all__ = [
    "OpProfiler",
    "active_profiler",
    "addmm",
    "gru_sequence",
    "embedding_lookup",
    "relation_scores",
    "relation_values",
    "log_softmax_nll",
]
