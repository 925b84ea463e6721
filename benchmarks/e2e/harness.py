"""What every workload shares: results, checks, repeated set-up, the env stamp."""

from __future__ import annotations

import hashlib
import os
import pathlib
import platform
import resource
import sys
import time
from dataclasses import dataclass, field

from quantiles import median

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"

# Set-up is repeated so that ``setup_s`` is a median, not one cold sample.
SETUP_REPEATS = 3


@dataclass
class Checks:
    """Operations attempted / failed, and why a run is not correct."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def count(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    def require(self, ok: bool, message: str) -> bool:
        """One correctness check: attempted once, failed when ``ok`` is false."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(message)
        return ok

    @property
    def correct(self) -> bool:
        return self.failed == 0


@dataclass
class RunResult:
    checks: Checks
    metrics: dict[str, float]
    details: dict = field(default_factory=dict)


class Deadline:
    """A measured window of fixed length on the monotonic clock."""

    def __init__(self, seconds: float):
        self.ends = time.perf_counter() + seconds

    def open(self) -> bool:
        return time.perf_counter() < self.ends


def repeated_setup(build, teardown=None, repeats: int = SETUP_REPEATS):
    """Run ``build()`` ``repeats`` times; keep the last state, report the median.

    Earlier states are torn down before the next build so peak memory is one
    set-up's, not the sum.
    """
    times = []
    state = None
    for _ in range(repeats):
        if state is not None and teardown is not None:
            teardown(state)
        state = None
        started = time.perf_counter()
        state = build()
        times.append(time.perf_counter() - started)
    return state, median(times), times


def peak_rss_mb() -> float:
    """High-water resident set of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sha256_arrays(arrays: dict) -> str:
    """Order-independent digest of a ``name -> ndarray`` mapping."""
    digest = hashlib.sha256()
    for name in sorted(arrays):
        array = arrays[name]
        digest.update(name.encode())
        digest.update(str(array.dtype).encode())
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def environment() -> dict:
    """Where the numbers were taken: enough to tell two machines apart."""
    import numpy

    rev = "unknown"
    head = REPO_ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = REPO_ROOT / ".git" / ref[5:]
            rev = target.read_text().strip() if target.exists() else ref[5:]
        else:
            rev = ref
    return {
        "git_rev": rev,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads_env": {
            name: os.environ.get(name)
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }
