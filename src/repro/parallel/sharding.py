"""The canonical shard grid: the determinism contract of data-parallel training.

Floating-point addition is not associative, so the gradient of a batch
sharded across N workers can never be bit-identical to the whole-batch
gradient *and* to an M-worker run at the same time — the summation tree
would have to change with N. This module pins the tree instead of the
worker count:

* every batch is split into ``grad_shards`` (G) contiguous row shards by
  :func:`shard_bounds` — a pure function of ``(batch_rows, G)``, never of
  the worker count;
* each shard's forward/backward runs independently, with its dropout
  stream reseeded by :func:`shard_generator` from
  ``(seed, epoch, batch, shard, retry)`` — pure, so any process (or a
  resumed run) reproduces it;
* the total gradient is the strictly left-to-right sum of the per-shard
  gradients in shard order (:func:`reduce_shards`).

Under that contract the result depends only on ``(seed, G)``: one process
computing shards ``0..G-1`` sequentially and N workers computing disjoint
shard ranges produce bit-identical parameters, which is what
``tests/parallel/test_parity.py`` asserts and ``docs/performance.md``
documents. ``G = 1`` is the same grid with one shard: every training
step, single-process or not, runs under this contract.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Sequence

import numpy as np

from ..data.dataset import SessionBatch

__all__ = [
    "shard_bounds",
    "slice_batch",
    "shard_generator",
    "collect_rng_modules",
    "shard_rng",
    "ParamLayout",
    "reduce_shards",
]

# Domain-separation tag mixed into every per-shard seed so the shard
# streams can never collide with the model-init streams (which are seeded
# from the bare integer seed).
_SHARD_STREAM_TAG = 0x5AD5


def shard_bounds(batch_rows: int, grad_shards: int) -> list[tuple[int, int]]:
    """Row ranges ``[(lo, hi), ...]`` of the G contiguous shards of a batch.

    Pure in ``(batch_rows, grad_shards)``; the first ``batch_rows % G``
    shards get the extra row. When the batch has fewer rows than shards,
    trailing shards are empty ``(hi, hi)`` ranges — they contribute a zero
    gradient row so the reduction order stays fixed.
    """
    if grad_shards < 1:
        raise ValueError("grad_shards must be >= 1")
    if batch_rows < 0:
        raise ValueError("batch_rows must be >= 0")
    base, extra = divmod(batch_rows, grad_shards)
    bounds = []
    lo = 0
    for s in range(grad_shards):
        hi = lo + base + (1 if s < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def slice_batch(batch: SessionBatch, lo: int, hi: int) -> SessionBatch:
    """Row-slice a padded batch into one shard (views, no copies).

    Padding widths are inherited from the *parent* batch: every shard of a
    batch sees the same macro/micro lengths, so the per-shard arithmetic
    is independent of how many shards the grid has.
    """
    return SessionBatch(
        items=batch.items[lo:hi],
        item_mask=batch.item_mask[lo:hi],
        ops=batch.ops[lo:hi],
        op_mask=batch.op_mask[lo:hi],
        micro_items=batch.micro_items[lo:hi],
        micro_ops=batch.micro_ops[lo:hi],
        micro_mask=batch.micro_mask[lo:hi],
        last_op=batch.last_op[lo:hi],
        targets=batch.targets[lo:hi],
    )


def shard_generator(
    seed: int, epoch: int, batch_index: int, shard: int, retry: int = 0
) -> np.random.Generator:
    """The dropout stream of one shard of one batch — pure in its arguments.

    It is the only stream a training forward draws from. Watchdog retries
    pass ``retry`` so a rolled-back batch redraws fresh masks, while
    resumed runs replay identical masks with no generator state saved.
    """
    return np.random.default_rng(
        (_SHARD_STREAM_TAG, int(seed) & 0xFFFFFFFF, epoch, batch_index, shard, retry)
    )


def collect_rng_modules(model) -> list:
    """Modules holding a forward-time RNG stream (Dropout and friends)."""
    return [
        module
        for _, module in model.named_modules()
        if isinstance(getattr(module, "rng", None), np.random.Generator)
    ]


@contextmanager
def shard_rng(rng_modules: Sequence, generator: np.random.Generator) -> Iterator[None]:
    """Temporarily point every RNG-bearing module at one shard generator.

    All modules share the single ``generator`` (mirroring how builders hand
    one stream to every layer). The originals are restored afterwards, so
    a module's own stream serves only forwards outside a training step.
    """
    originals = [(module, module.rng) for module in rng_modules]
    for module in rng_modules:
        module.rng = generator
    try:
        yield
    finally:
        for module, original in originals:
            module.rng = original


class ParamLayout:
    """Flat offsets of a model's parameters inside one contiguous buffer.

    The layout (parameter iteration order, shapes, dtype) is identical in
    the master and in every forked worker because the model object itself
    is identical, so a flat index means the same scalar everywhere.
    """

    def __init__(self, parameters: Sequence) -> None:
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("model has no parameters")
        dtypes = {p.data.dtype for p in self.parameters}
        if len(dtypes) != 1:
            raise ValueError(
                f"data-parallel training needs a uniform parameter dtype, got {sorted(map(str, dtypes))}"
            )
        self.dtype = self.parameters[0].data.dtype
        self.shapes = [p.data.shape for p in self.parameters]
        self.sizes = [int(p.data.size) for p in self.parameters]
        self.offsets = list(np.cumsum([0] + self.sizes[:-1]))
        self.total = int(sum(self.sizes))

    # -- parameters ----------------------------------------------------
    def write_params(self, flat: np.ndarray) -> None:
        """Copy current parameter values into ``flat`` (master → shm)."""
        for p, off, size in zip(self.parameters, self.offsets, self.sizes):
            flat[off : off + size] = p.data.reshape(-1)

    def bind_params(self, flat: np.ndarray) -> None:
        """Rebind every parameter's ``data`` to a view into ``flat``.

        Used by forked workers: after this, a master-side write into the
        shared block is immediately visible to the worker's forward pass.
        """
        for p, off, size, shape in zip(self.parameters, self.offsets, self.sizes, self.shapes):
            p.data = flat[off : off + size].reshape(shape)

    # -- gradients -----------------------------------------------------
    def write_grads(self, row: np.ndarray) -> None:
        """Flatten current ``.grad`` arrays into one shard row (zeros for
        parameters the shard's graph never touched)."""
        for p, off, size in zip(self.parameters, self.offsets, self.sizes):
            seg = row[off : off + size]
            if p.grad is None:
                seg.fill(0)
            else:
                seg[:] = p.grad.reshape(-1)

    def assign_grads(self, flat: np.ndarray) -> None:
        """Point every parameter's ``.grad`` at its slice of ``flat``."""
        for p, off, size, shape in zip(self.parameters, self.offsets, self.sizes, self.shapes):
            p.grad = flat[off : off + size].reshape(shape)
            p._grad_owned = True


def reduce_shards(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Strictly ordered reduction: ``out = ((row_0 + row_1) + ...) + row_G-1``.

    This fixed left-to-right tree *is* the determinism contract — it never
    changes with the worker count, only with the shard count.
    """
    np.copyto(out, rows[0])
    for s in range(1, rows.shape[0]):
        out += rows[s]
    return out
