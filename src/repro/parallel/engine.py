"""Deterministic data-parallel training over shared-memory buffers.

Two executors implement the same contract — "compute the canonical shard
grid's gradient for batch ``(epoch, batch_index)`` and leave it on
``p.grad``" (see :mod:`repro.parallel.sharding` for why the grid, not the
worker count, defines the math):

* :class:`SerialShardExecutor` walks the G shards in one process. It is
  the reference implementation and runs every in-process step, the
  one-shard grid (``G = 1``) included.
* :class:`DataParallelEngine` forks N worker processes that each own a
  contiguous range of the G shards. Parameters travel master → workers
  through one shared block; each shard's gradient comes back in its own
  row of a ``[G, P]`` shared block, and the master reduces the rows in
  fixed order — so the result is bit-identical to the serial executor.

Design notes that keep this correct against the rest of the codebase:

* **Parameters are synced before every command.** The optimizers and
  ``load_state_dict`` rebind ``p.data`` to fresh arrays instead of writing
  in place, so workers cannot watch the master's arrays directly. The
  master flattens its parameters into the shared block at each command;
  workers bound their ``p.data`` to views of that block once, after fork.
* **Workers collate their own batches.** ``fork`` hands every worker the
  dataset and the loader; batch order is ``DataLoader.permutation(epoch)``
  — pure in ``(seed, epoch)`` — so no example bytes ever cross process
  boundaries.
* **Evaluation fans out whole batches** (batch ``b`` goes to worker
  ``b % N``) into a shared score matrix. Batch composition is unchanged,
  so scores are bitwise what serial evaluation produces — and the metrics
  that drive model selection do not depend on the worker count.
* **Synchronisation is a generation counter, not a barrier.** The master
  dispatches a command by writing its arguments into the control block and
  incrementing a generation word; each worker polls the generation, runs
  the command, and writes the generation back into its own ack slot.
  ``multiprocessing.Barrier`` (and everything else built on
  ``mp.Condition``) deadlocks permanently if a participant dies while
  parked in a ``wait`` — the notifier blocks forever waiting for the dead
  sleeper's acknowledgement — whereas the polling protocol lets the master
  check worker liveness on every spin and lets workers notice a vanished
  master via ``getppid``. No process can wedge another.
* **Shutdown is unconditional.** The engine is used as a context manager /
  inside ``finally``; ``shutdown`` sends a graceful STOP when the workers
  are healthy, terminates stragglers otherwise, and unlinks every shared
  segment. ``tests/parallel/test_cleanup.py`` holds it to that after
  normal exits, simulated crashes, Ctrl-C, and killed workers.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import time
import traceback

import numpy as np

from ..autograd import default_dtype, no_grad
from ..data.dataset import CollateBuffers, DataLoader, SessionBatch
from ..data.packed import PackedSplit
from .sharding import (
    ParamLayout,
    collect_rng_modules,
    reduce_shards,
    shard_bounds,
    shard_generator,
    shard_rng,
    slice_batch,
)
from .shm import SharedArena

__all__ = ["WorkerError", "SerialShardExecutor", "DataParallelEngine"]

# Control-word layout (int64):
#   [cmd, arg0, arg1, arg2, generation, ack_w0..ack_w(N-1), err_w0..err_w(N-1)]
# The master publishes a command by filling cmd/args and bumping the
# generation; worker w acknowledges by writing that generation into its ack
# slot. Aligned int64 loads/stores are atomic and program-ordered on the
# platforms the fork engine supports, so args written before the generation
# bump are visible to any worker that has observed the bump.
_CMD_IDLE, _CMD_TRAIN, _CMD_EVAL, _CMD_STOP = 0, 1, 2, 3
_GEN_SLOT = 4
_ACK_BASE = 5
_POLL_SECONDS = 0.0005


class WorkerError(RuntimeError):
    """A data-parallel worker failed or died; tracebacks are on stderr."""


def _default_objective():
    """The cross-entropy objective, imported lazily (same cycle-avoidance)."""
    from ..objectives import CrossEntropyObjective

    return CrossEntropyObjective()


def _sum_components(rows: np.ndarray, names: tuple) -> dict:
    """Fixed-order shard sums of the per-component loss rows.

    Mirrors the fixed-order total-loss sum: accumulation order is shard
    0..G-1 regardless of worker count, so the reported component losses
    are bit-identical between the serial and forked executors.
    """
    out: dict[str, float] = {}
    for j, name in enumerate(names):
        acc = 0.0
        for s in range(rows.shape[0]):
            acc += float(rows[s, j])
        out[name] = acc
    return out


class _ShardGrid:
    """What both executors share: the grid's identity and the one step body.

    A subclass allocates ``_grads`` (``[G, P]``), ``_losses`` (``[G]``) and
    ``_components`` (``[G, C]``); :meth:`_run_shard` fills row ``s`` of
    each, wherever the shard runs, and :meth:`_reduce` folds the rows in
    shard order onto the master's ``p.grad``.
    """

    def __init__(self, model, *, grad_shards: int, seed: int, objective) -> None:
        if grad_shards < 1:
            raise ValueError("grad_shards must be >= 1")
        self.model = model
        self.grad_shards = grad_shards
        self.seed = seed
        self.objective = objective if objective is not None else _default_objective()
        self.last_components: dict[str, float] = {}
        self._component_names = tuple(self.objective.component_names)
        self._layout = ParamLayout(model.parameters())
        # A forked worker's copy of this list points at its own modules.
        self._rng_modules = collect_rng_modules(model)

    def _run_shard(
        self,
        s: int,
        shard: SessionBatch | None,
        *,
        total: int,
        epoch: int,
        batch_index: int,
        retry: int,
    ) -> None:
        """Forward/backward of shard ``s`` into row ``s`` of the grid blocks.

        ``shard`` is ``None`` for an empty shard (a batch with fewer rows
        than shards), which contributes zero rows. Dropout draws from the
        shard's stateless stream, so the row is the same in any process.
        """
        from ..objectives import StepContext

        if shard is None:
            self._grads[s].fill(0)
            self._losses[s] = 0.0
            self._components[s].fill(0)
            return
        for p in self._layout.parameters:
            p.zero_grad()
        ctx = StepContext(seed=self.seed, epoch=epoch, batch_index=batch_index, shard=s, retry=retry)
        with shard_rng(self._rng_modules, shard_generator(self.seed, epoch, batch_index, s, retry)):
            self.objective.begin_step(ctx)
            parts = self.objective.compute(self.model, shard, total=total)
            self._losses[s] = float(parts.loss.item())
            parts.loss.backward()
            values = parts.component_values()
            for j, name in enumerate(self._component_names):
                self._components[s, j] = values.get(name, 0.0)
        self._layout.write_grads(self._grads[s])

    def _reduce(self) -> float:
        """Fold the rows onto ``p.grad``; return the fixed-order total loss."""
        reduce_shards(self._grads, self._acc)
        self._layout.assign_grads(self._acc)
        total_loss = 0.0
        for s in range(self.grad_shards):
            total_loss += float(self._losses[s])
        self.last_components = _sum_components(self._components, self._component_names)
        return total_loss


class SerialShardExecutor(_ShardGrid):
    """The canonical shard grid, executed sequentially in one process.

    Every in-process training step runs here, ``grad_shards = 1``
    included. It also *defines* the math the multi-process engine must
    reproduce bit-for-bit (``tests/parallel/test_parity.py`` diffs the
    two), so a run checkpointed under N workers can resume anywhere.
    """

    def __init__(self, model, *, grad_shards: int, seed: int, objective=None) -> None:
        super().__init__(model, grad_shards=grad_shards, seed=seed, objective=objective)
        total = self._layout.total
        self._grads = np.zeros((grad_shards, total), dtype=self._layout.dtype)
        self._acc = np.empty(total, dtype=self._layout.dtype)
        self._losses = np.zeros(grad_shards, dtype=np.float64)
        self._components = np.zeros(
            (grad_shards, max(1, len(self._component_names))), dtype=np.float64
        )

    def compute(
        self, epoch: int, batch_index: int, retry: int = 0, batch: SessionBatch | None = None
    ) -> float:
        """Grid-gradient of ``batch``; leaves it on ``p.grad``, returns the loss.

        The returned loss is the fixed-order sum of per-shard partial
        losses (each already divided by the full batch size), i.e. the
        whole-batch mean NLL computed through the canonical tree.
        """
        if batch is None:
            raise ValueError("SerialShardExecutor.compute needs the collated batch")
        total_rows = batch.batch_size
        for s, (lo, hi) in enumerate(shard_bounds(total_rows, self.grad_shards)):
            self._run_shard(
                s, slice_batch(batch, lo, hi) if lo < hi else None,
                total=total_rows, epoch=epoch, batch_index=batch_index, retry=retry,
            )
        return self._reduce()

    def shutdown(self) -> None:
        """Nothing to tear down; present for executor interface symmetry."""


class DataParallelEngine(_ShardGrid):
    """Forked workers computing disjoint shard ranges of every batch.

    Construction allocates the shared blocks and forks the workers
    immediately (Linux ``fork`` start method — workers inherit the model,
    the dataset, and the mapped segments; nothing is pickled). Use as a
    context manager, or call :meth:`shutdown` in a ``finally``.

    ``eval_splits`` maps split names to packed splits or example lists
    (packed once, before the fork); :meth:`predict`
    fans whole batches of a registered split across the workers and
    returns ``(scores, target_classes)`` exactly like ``Trainer.predict``.
    """

    def __init__(
        self,
        model,
        train_loader: DataLoader,
        *,
        workers: int,
        grad_shards: int,
        seed: int,
        dtype: str,
        eval_splits: dict | None = None,
        num_items: int = 0,
        timeout: float = 600.0,
        objective=None,
    ) -> None:
        if workers < 2:
            raise ValueError("DataParallelEngine needs workers >= 2; use SerialShardExecutor")
        if grad_shards < workers:
            raise ValueError(f"grad_shards ({grad_shards}) must be >= workers ({workers})")
        if sys.platform == "win32":  # pragma: no cover - engine is fork-only
            raise RuntimeError("data-parallel training requires the fork start method")
        # The objective is resolved before the fork so every worker inherits
        # the identical instance (weights, augment knobs, component order).
        super().__init__(model, grad_shards=grad_shards, seed=seed, objective=objective)
        self.loader = train_loader
        self.workers = workers
        self.dtype = dtype
        self.timeout = timeout
        self.num_items = num_items
        # Eval splits are CSR arrays, packed here before the fork, so the
        # workers share the file-backed/COW pages of one copy.
        self._eval_splits = [
            (name, split if isinstance(split, PackedSplit) else PackedSplit.from_examples(split))
            for name, split in (eval_splits or {}).items()
        ]
        self._split_index = {name: i for i, (name, _) in enumerate(self._eval_splits)}
        self._arena = SharedArena()
        self._procs: list = []
        self._started = False
        self._broken = False
        self._master_pid = os.getpid()
        self._err_base = _ACK_BASE + workers
        self._start()

    # -- lifecycle -----------------------------------------------------
    def _start(self) -> None:
        ctx = multiprocessing.get_context("fork")
        total = self._layout.total
        self._params = self._arena.allocate("params", (total,), self._layout.dtype)
        self._grads = self._arena.allocate("grads", (self.grad_shards, total), self._layout.dtype)
        self._losses = self._arena.allocate("loss", (self.grad_shards,), np.float64)
        self._components = self._arena.allocate(
            "components", (self.grad_shards, max(1, len(self._component_names))), np.float64
        )
        self._ctrl = self._arena.allocate("ctrl", (self._err_base + self.workers,), np.int64)
        max_eval = max((len(examples) for _, examples in self._eval_splits), default=0)
        self._scores = (
            self._arena.allocate("scores", (max_eval, self.num_items), np.dtype(self.dtype))
            if max_eval and self.num_items
            else None
        )
        self._acc = np.empty(total, dtype=self._layout.dtype)
        try:
            for worker_id in range(self.workers):
                proc = ctx.Process(
                    target=_worker_main,
                    args=(self, worker_id),
                    daemon=True,
                    name=f"repro-par-w{worker_id}",
                )
                proc.start()
                self._procs.append(proc)
        except BaseException:
            self._started = True  # force full teardown of whatever came up
            self.shutdown()
            raise
        self._started = True

    def __enter__(self) -> "DataParallelEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def alive(self) -> bool:
        """True while every worker process is still running."""
        return bool(self._procs) and all(p.is_alive() for p in self._procs)

    def shutdown(self) -> None:
        """Stop workers and unlink every shared segment. Idempotent.

        Safe from any master-side state: a healthy engine gets a graceful
        STOP through the generation protocol (a worker mid-batch finishes
        it first — an abandoned command's results are simply discarded);
        a broken one skips straight to joining and terminating whatever
        still runs. Either way every shared block is unlinked.
        """
        if not self._started:
            return
        self._started = False
        try:
            if any(proc.is_alive() for proc in self._procs):
                # Graceful even when broken: surviving workers are healthy
                # pollers and exit as soon as they see the STOP generation
                # (finishing a command in flight first; its results are
                # simply discarded).
                ctrl = self._ctrl
                ctrl[self._err_base :] = 0
                ctrl[0] = _CMD_STOP
                generation = int(ctrl[_GEN_SLOT]) + 1
                ctrl[_GEN_SLOT] = generation
                acks = ctrl[_ACK_BASE : self._err_base]
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    if all(
                        acks[w] == generation or not proc.is_alive()
                        for w, proc in enumerate(self._procs)
                    ):
                        break
                    time.sleep(_POLL_SECONDS)
        finally:
            for proc in self._procs:
                proc.join(timeout=10.0)
            for proc in self._procs:
                if proc.is_alive():  # pragma: no cover - worker wedged
                    proc.terminate()
                    proc.join(timeout=10.0)
            self._procs.clear()
            self._arena.close()

    # -- command protocol ----------------------------------------------
    def _command(self, cmd: int, arg0: int = 0, arg1: int = 0, arg2: int = 0) -> None:
        if not self._started:
            raise RuntimeError("engine is shut down")
        if self._broken:
            raise WorkerError("engine is broken; a previous command failed")
        # Sync parameters unconditionally: optimizer.step and
        # load_state_dict rebind p.data, so the shared block is refreshed
        # from the master model before workers read it.
        self._layout.write_params(self._params)
        ctrl = self._ctrl
        ctrl[self._err_base :] = 0
        ctrl[1], ctrl[2], ctrl[3] = arg0, arg1, arg2
        ctrl[0] = cmd
        generation = int(ctrl[_GEN_SLOT]) + 1
        ctrl[_GEN_SLOT] = generation  # publish: workers latch args after this
        deadline = time.monotonic() + self.timeout
        while not np.all(ctrl[_ACK_BASE : self._err_base] == generation):
            if not self.alive():
                self._broken = True
                raise WorkerError(
                    "data-parallel worker(s) died mid-batch; training cannot "
                    "continue (see worker stderr)"
                )
            if time.monotonic() > deadline:
                self._broken = True
                raise WorkerError(
                    f"data-parallel worker(s) did not finish command {cmd} "
                    f"within {self.timeout:.0f}s"
                )
            time.sleep(_POLL_SECONDS)
        failed = np.flatnonzero(ctrl[self._err_base :])
        if failed.size:
            self._broken = True
            raise WorkerError(
                f"data-parallel worker(s) {[int(w) for w in failed]} raised during "
                f"command {cmd}; tracebacks are on stderr"
            )

    def compute(
        self, epoch: int, batch_index: int, retry: int = 0, batch: SessionBatch | None = None
    ) -> float:
        """Distributed grid-gradient of batch ``(epoch, batch_index)``.

        ``batch`` is ignored — workers collate their own shard rows from
        the loader's pure ``(seed, epoch)`` permutation. The reduced
        gradient lands on ``p.grad`` of the master's parameters and the
        fixed-order total loss is returned, exactly like
        :meth:`SerialShardExecutor.compute`.
        """
        del batch
        self._command(_CMD_TRAIN, epoch, batch_index, retry)
        return self._reduce()

    def predict(self, split: str, batch_size: int = 128) -> tuple[np.ndarray, np.ndarray]:
        """Fan evaluation of a registered split across the workers.

        Batches are formed exactly as serial evaluation forms them and
        scored whole (batch ``b`` on worker ``b % workers``), so the
        returned score matrix is bitwise identical to ``Trainer.predict``.
        """
        if split not in self._split_index:
            raise KeyError(f"split {split!r} not registered with the engine")
        if self._scores is None:
            raise RuntimeError("engine was built without eval buffers (num_items=0?)")
        index = self._split_index[split]
        examples = self._eval_splits[index][1]
        self._command(_CMD_EVAL, index, batch_size)
        scores = self._scores[: len(examples)].copy()
        return scores, examples.targets - 1


# ----------------------------------------------------------------------
# Worker side (runs in forked children)
# ----------------------------------------------------------------------

def _worker_main(engine: DataParallelEngine, worker_id: int) -> None:
    """Forked worker loop: poll for a command, run it, acknowledge.

    Ctrl-C is the master's to handle (workers ignore SIGINT); any
    exception during a command sets this worker's error flag but still
    acknowledges the generation, so the master never hangs waiting for a
    failed worker. A master that vanishes entirely is noticed through
    ``getppid`` and the worker exits on its own.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    layout = engine._layout
    layout.bind_params(engine._params)
    buffers = CollateBuffers()
    shard_lo, shard_hi = shard_bounds(engine.grad_shards, engine.workers)[worker_id]
    order_cache: dict[int, np.ndarray] = {}
    ctrl = engine._ctrl
    ack_slot = _ACK_BASE + worker_id
    err_slot = engine._err_base + worker_id
    # The generation word starts at 0 when the arena is allocated and only
    # ever increments. Latching the *known* initial value (rather than
    # reading the live word) keeps a command dispatched while this worker
    # was still initialising from being mistaken for already-seen.
    last_generation = 0
    try:
        while True:
            generation = int(ctrl[_GEN_SLOT])
            if generation == last_generation:
                if os.getppid() != engine._master_pid:
                    break  # master died; nothing will ever command us again
                time.sleep(_POLL_SECONDS)
                continue
            last_generation = generation
            cmd = int(ctrl[0])
            if cmd == _CMD_STOP:
                ctrl[ack_slot] = generation
                break
            try:
                with default_dtype(engine.dtype):
                    if cmd == _CMD_TRAIN:
                        _worker_train(
                            engine, buffers, order_cache,
                            shard_lo, shard_hi,
                            epoch=int(ctrl[1]), batch_index=int(ctrl[2]), retry=int(ctrl[3]),
                        )
                    elif cmd == _CMD_EVAL:
                        _worker_eval(
                            engine, worker_id, buffers,
                            split=int(ctrl[1]), batch_size=int(ctrl[2]),
                        )
            except BaseException:
                ctrl[err_slot] = 1
                traceback.print_exc()
            ctrl[ack_slot] = generation  # results/err visible before the ack
    finally:
        engine._arena.close()  # unmap only; the master owns the unlink


def _worker_train(
    engine: DataParallelEngine,
    buffers: CollateBuffers,
    order_cache: dict,
    shard_lo: int,
    shard_hi: int,
    *,
    epoch: int,
    batch_index: int,
    retry: int,
) -> None:
    """Compute this worker's shard range of one batch into the shm rows."""
    loader = engine.loader
    order = order_cache.get(epoch)
    if order is None:
        order_cache.clear()  # at most one epoch's permutation held at a time
        order = loader.permutation(epoch)
        order_cache[epoch] = order
    start = batch_index * loader.batch_size
    # Index-based access reads CSR arrays shared with the master
    # (memmap/COW pages) — no example objects are walked.
    idx = order[start : start + loader.batch_size]
    total_rows = len(idx)
    bounds = shard_bounds(total_rows, engine.grad_shards)
    dims = loader.subset_dims(idx)
    engine.model.train()
    for s in range(shard_lo, shard_hi):
        lo, hi = bounds[s]
        # Collate only this shard's rows, padded to the full batch's
        # dimensions — bit-identical to slicing the whole collated batch.
        shard = loader.collate_indices(idx[lo:hi], pad_to=dims, buffers=buffers) if lo < hi else None
        engine._run_shard(
            s, shard, total=total_rows, epoch=epoch, batch_index=batch_index, retry=retry
        )


def _worker_eval(
    engine: DataParallelEngine,
    worker_id: int,
    buffers: CollateBuffers,
    *,
    split: int,
    batch_size: int,
) -> None:
    """Score this worker's round-robin share of a split's batches."""
    examples = engine._eval_splits[split][1]
    max_ops = engine.loader.max_ops_per_item
    model = engine.model
    model.eval()
    with no_grad():
        for batch_no, start in enumerate(range(0, len(examples), batch_size)):
            if batch_no % engine.workers != worker_id:
                continue
            end = min(start + batch_size, len(examples))
            batch = examples.collate(
                np.arange(start, end), max_ops_per_item=max_ops, buffers=buffers
            )
            logits = model(batch)
            engine._scores[start:end] = logits.data
