"""Deterministic multi-core parallelism for training and benchmarks.

Two independent fan-out paths share this package:

* **Data-parallel training** (:mod:`~repro.parallel.engine`): N forked
  workers compute disjoint shards of every batch over shared-memory
  buffers, with a summation tree pinned by the *shard grid* — not the
  worker count — so any worker count produces bit-identical parameters
  under the same ``(seed, grad_shards)`` (:mod:`~repro.parallel.sharding`
  states the contract; ``docs/performance.md`` § Parallelism explains it).
* **Benchmark cell fan-out** (:mod:`~repro.parallel.pool`): independent
  ``model × dataset`` cells of the paper tables run through a process
  pool and merge deterministically.

Both are opt-in (``--workers N`` on the CLI and the benchmark scripts). At
``workers=1`` training runs the same shard grid in-process
(:class:`~repro.parallel.SerialShardExecutor`, one shard by default) and
benchmark cells run serially.
"""

from .engine import DataParallelEngine, SerialShardExecutor, WorkerError
from .pool import run_experiment_cells
from .sharding import (
    ParamLayout,
    collect_rng_modules,
    reduce_shards,
    shard_bounds,
    shard_generator,
    shard_rng,
    slice_batch,
)
from .shm import SEGMENT_PREFIX, SharedArena, SharedBlock, orphaned_segments

__all__ = [
    "DataParallelEngine",
    "SerialShardExecutor",
    "WorkerError",
    "run_experiment_cells",
    "ParamLayout",
    "collect_rng_modules",
    "reduce_shards",
    "shard_bounds",
    "shard_generator",
    "shard_rng",
    "slice_batch",
    "SEGMENT_PREFIX",
    "SharedArena",
    "SharedBlock",
    "orphaned_segments",
]
