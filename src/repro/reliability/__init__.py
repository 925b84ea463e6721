"""Reliability machinery: fault injection, crash-safe state, degradation.

Four pillars, each usable on its own and threaded through the rest of the
system:

* :mod:`~repro.reliability.failpoints` — named fault-injection sites that
  chaos tests arm with exceptions, stalls, or simulated process kills;
  zero overhead while disarmed;
* :mod:`~repro.reliability.atomic` — temp-file + ``os.replace`` writes so
  a crash mid-save never truncates a checkpoint;
* :mod:`~repro.reliability.state` / :mod:`~repro.reliability.watchdog` —
  full training-state capture for bit-identical resume, plus NaN/Inf
  divergence detection with rollback and LR cooldown;
* :mod:`~repro.reliability.breaker` — retry with exponential backoff,
  per-call timeouts, and a closed/open/half-open circuit breaker for the
  serving path.

This package imports nothing from the rest of ``repro`` (stdlib + numpy
only), so every layer — ``nn``, ``data``, ``eval``, ``serving`` — can
depend on it without cycles. See ``docs/reliability.md``.
"""

from .atomic import atomic_save_npz, atomic_write
from .breaker import (
    CircuitBreaker,
    CircuitOpenError,
    ReliabilityError,
    ResilientCaller,
    RetriesExhaustedError,
    RetryPolicy,
    ScoringTimeoutError,
    call_with_timeout,
)
from .failpoints import (
    SimulatedCrash,
    arm,
    armed,
    crashing,
    disarm,
    disarm_all,
    failpoint,
    is_armed,
    raising,
    sleeping,
    stats,
)
from .state import (
    TRAINING_STATE_FORMAT_VERSION,
    TrainingState,
    TrainingStateError,
    load_training_state,
    save_training_state,
)
from .watchdog import DivergenceError, DivergenceWatchdog

__all__ = [
    "atomic_write",
    "atomic_save_npz",
    "CircuitBreaker",
    "CircuitOpenError",
    "ReliabilityError",
    "ResilientCaller",
    "RetriesExhaustedError",
    "RetryPolicy",
    "ScoringTimeoutError",
    "call_with_timeout",
    "SimulatedCrash",
    "arm",
    "armed",
    "crashing",
    "disarm",
    "disarm_all",
    "failpoint",
    "is_armed",
    "raising",
    "sleeping",
    "stats",
    "TRAINING_STATE_FORMAT_VERSION",
    "TrainingState",
    "TrainingStateError",
    "load_training_state",
    "save_training_state",
    "DivergenceError",
    "DivergenceWatchdog",
]
