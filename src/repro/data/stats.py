"""Dataset statistics — the Table II analogue, plus derived summaries.

The paper reports, per dataset: number of train / validation / test
sessions, number of items, and total micro-behavior count.
:func:`popularity_ranking` is, with the dataset's fingerprint
(:func:`~repro.data.packed.packed_fingerprint`), one of the two summaries
model artifacts embed, so an artifact can name the data it was trained on
and serve a degraded popularity ranking with no dataset on disk. Both
read the CSR arrays of the splits directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .packed import PreparedDataset

__all__ = ["DatasetStats", "compute_stats", "popularity_ranking"]


@dataclass(frozen=True)
class DatasetStats:
    """Row of the Table II analogue for one dataset."""

    name: str
    num_train: int
    num_validation: int
    num_test: int
    num_items: int
    num_micro_behaviors: int
    num_operations: int
    avg_macro_len: float
    avg_ops_per_item: float

    def as_row(self) -> dict[str, float | int | str]:
        return {
            "dataset": self.name,
            "# train": self.num_train,
            "# validation": self.num_validation,
            "# test": self.num_test,
            "# items": self.num_items,
            "# micro-behavior": self.num_micro_behaviors,
            "# operations": self.num_operations,
            "avg macro len": round(self.avg_macro_len, 2),
            "avg ops/item": round(self.avg_ops_per_item, 2),
        }


def compute_stats(dataset: PreparedDataset) -> DatasetStats:
    """Aggregate the Table II statistics over all three splits."""
    splits = dataset.splits().values()
    sessions = sum(len(split) for split in splits)
    macro = sum(split.num_macro_steps for split in splits)
    micro = sum(split.num_micro_ops for split in splits)
    return DatasetStats(
        name=dataset.name,
        num_train=len(dataset.train),
        num_validation=len(dataset.validation),
        num_test=len(dataset.test),
        num_items=dataset.num_items,
        num_micro_behaviors=micro,
        num_operations=dataset.num_operations,
        avg_macro_len=macro / max(sessions, 1),
        avg_ops_per_item=micro / max(macro, 1),
    )


def popularity_ranking(dataset: PreparedDataset, limit: int | None = None) -> list[int]:
    """Raw item ids of the train split, most popular first.

    The tally counts every macro step plus each session's target — the same
    weighting :class:`~repro.serving.PopularityFallback` has always used —
    so a ranking embedded in an artifact answers degraded requests exactly
    like one computed from the dataset. Ties go to the item seen first in
    the stream of each session's macro items followed by its target.
    """
    split = dataset.train
    lo, hi = int(split.session_offsets[0]), int(split.session_offsets[-1])
    # Session s's macro items move s places right, making room for the
    # targets of sessions 0..s-1; its target follows its last item.
    stream = np.empty(hi - lo + len(split), dtype=np.int64)
    target_at = split.session_offsets[1:] - lo + np.arange(len(split))
    stream[target_at] = split.targets
    keep = np.ones(stream.size, dtype=bool)
    keep[target_at] = False
    stream[keep] = split.macro_items[lo:hi]
    dense, first, counts = np.unique(stream, return_index=True, return_counts=True)
    ranked = dense[np.lexsort((first, -counts))][:limit]
    return np.asarray(dataset.item_ids)[ranked - 1].tolist()
