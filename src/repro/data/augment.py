"""Deterministic session-view augmentation for contrastive objectives.

EMBSR-SSL (docs/objectives.md) trains an InfoNCE term over two *augmented
views* of every session batch. The three augmentations operate on the
micro-behavior structure the paper models:

* **span reorder** — permute one short contiguous span of macro steps
  (items travel with their operation chains), perturbing sequential order
  while preserving the session's item multiset;
* **operation dropout** — drop non-entry micro-operations with a fixed
  probability, always keeping at least the entry operation per item;
* **operation substitution** — replace a surviving operation id with a
  uniformly drawn one, perturbing the micro signal without changing which
  items were touched.

Determinism follows the stateless-stream idiom of
:mod:`repro.parallel.sharding`: every view draws from a fresh
``np.random.default_rng`` seeded by a domain tag plus
``(seed, epoch, batch, shard, retry, view)``, so serial-shard and
forked-worker executions of the same step build the exact same views
without sharing any mutable stream.

Shape discipline: an augmented view keeps the *exact* padded dimensions of
its source batch (dropout only shortens micro rows; reorder and
substitution are length-preserving), and each row's item multiset is
unchanged — so session-graph node counts are invariant under augmentation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import SessionBatch

__all__ = ["AugmentConfig", "view_generator", "augment_batch", "augment_views"]

# Domain separator for the augmentation streams; keeps them disjoint from
# the shard dropout streams (0x5AD5) under identical (seed, epoch, ...).
_AUG_STREAM_TAG = 0xA716


@dataclass(frozen=True)
class AugmentConfig:
    """Knobs of the three session-view augmentations."""

    op_dropout: float = 0.2       # P(drop each non-entry micro-operation)
    op_substitution: float = 0.1  # P(replace a surviving operation id)
    span_reorder: float = 0.3     # P(permute one macro span per session)
    max_span: int = 3             # longest macro span a reorder may touch


def view_generator(
    seed: int, epoch: int, batch_index: int, shard: int = 0, retry: int = 0, view: int = 0
) -> np.random.Generator:
    """The stateless generator for one augmented view of one step.

    Pure in its arguments, like ``shard_generator``: any process can
    rebuild the exact view without coordinating stream state.
    """
    return np.random.default_rng(
        (
            _AUG_STREAM_TAG,
            int(seed) & 0xFFFFFFFF,
            int(epoch),
            int(batch_index),
            int(shard),
            int(retry),
            int(view),
        )
    )


def _decode_row(batch: SessionBatch, b: int) -> list[tuple[int, list[int]]]:
    """Row ``b`` as ``[(item, [op, ...]), ...]`` with unshifted op ids."""
    length = int(batch.item_mask[b].sum())
    pairs = []
    for i in range(length):
        k_valid = int(batch.op_mask[b, i].sum())
        pairs.append(
            (int(batch.items[b, i]), [int(batch.ops[b, i, j]) - 1 for j in range(k_valid)])
        )
    return pairs


def augment_batch(
    batch: SessionBatch,
    rng: np.random.Generator,
    num_ops: int,
    config: AugmentConfig | None = None,
) -> dict[str, np.ndarray]:
    """One augmented view of ``batch`` as fresh field arrays.

    Pure function of ``(batch content, rng state, config)``; the returned
    arrays share no memory with the input and keep its padded shapes and
    collate dtypes. ``targets`` pass through untouched — augmentation
    perturbs the *input* views only, never the supervision signal.
    """
    cfg = config or AugmentConfig()
    items = np.zeros_like(batch.items)
    item_mask = np.zeros_like(batch.item_mask)
    ops = np.zeros_like(batch.ops)
    op_mask = np.zeros_like(batch.op_mask)
    micro_items = np.zeros_like(batch.micro_items)
    micro_ops = np.zeros_like(batch.micro_ops)
    micro_mask = np.zeros_like(batch.micro_mask)
    last_op = np.zeros_like(batch.last_op)
    k_max = batch.ops.shape[2]

    for b in range(batch.batch_size):
        pairs = _decode_row(batch, b)
        length = len(pairs)

        # 1. Span reorder: permute one contiguous span of macro steps.
        if length >= 3 and rng.random() < cfg.span_reorder:
            start = int(rng.integers(0, length - 1))
            span = min(cfg.max_span, length - start)
            if span >= 2:
                perm = rng.permutation(span)
                pairs[start : start + span] = [pairs[start + p] for p in perm]

        # 2/3. Operation dropout + substitution, entry op always kept.
        t = 0
        for i, (item, op_list) in enumerate(pairs):
            kept = [op_list[0]] + [
                op for op in op_list[1:] if rng.random() >= cfg.op_dropout
            ]
            if num_ops > 1 and cfg.op_substitution > 0.0:
                kept = [
                    int(rng.integers(num_ops)) if rng.random() < cfg.op_substitution else op
                    for op in kept
                ]
            items[b, i] = item
            item_mask[b, i] = 1.0
            for j, op in enumerate(kept[:k_max]):
                ops[b, i, j] = op + 1
                op_mask[b, i, j] = 1.0
                micro_items[b, t] = item
                micro_ops[b, t] = op + 1
                micro_mask[b, t] = 1.0
                t += 1
        last_op[b] = micro_ops[b, t - 1]

    return {
        "items": items,
        "item_mask": item_mask,
        "ops": ops,
        "op_mask": op_mask,
        "micro_items": micro_items,
        "micro_ops": micro_ops,
        "micro_mask": micro_mask,
        "last_op": last_op,
        "targets": batch.targets.copy(),
    }


def augment_views(
    batch: SessionBatch,
    *,
    num_ops: int,
    seed: int,
    epoch: int,
    batch_index: int,
    shard: int = 0,
    retry: int = 0,
    n_views: int = 2,
    config: AugmentConfig | None = None,
) -> list[SessionBatch]:
    """Convenience: the ``n_views`` augmented views of one training step."""
    return [
        SessionBatch(
            **augment_batch(
                batch,
                view_generator(seed, epoch, batch_index, shard, retry, view),
                num_ops,
                config,
            )
        )
        for view in range(n_views)
    ]
