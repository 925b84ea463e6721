"""S-POP: session popularity baseline (Hidasi et al., 2016 variant).

Recommends the most frequent items of the *current* session, breaking ties
(and filling the tail) with global training popularity. The paper highlights
that S-POP scores exactly zero on trivago because the ground truth there is
(almost) never part of the session — our trivago-like generator reproduces
this.
"""

from __future__ import annotations

import numpy as np

from ..data.dataset import SessionBatch
from ..data.preprocess import PreparedDataset
from ..eval.recommender import Recommender

__all__ = ["SPop"]


class SPop(Recommender):
    """Session popularity, optionally backfilled with global popularity.

    With ``popularity_fallback=False`` (the default, matching the paper's
    observed behaviour) items outside the session all score zero, so the
    pessimistic rank of any unseen ground truth falls beyond K and S-POP
    scores exactly 0 on exploration-only data such as trivago.
    """

    name = "S-POP"

    def __init__(self, popularity_fallback: bool = False):
        self.popularity_fallback = popularity_fallback
        self.num_items = 0
        self._global_pop: np.ndarray | None = None

    def fit(self, dataset: PreparedDataset) -> "SPop":
        self.num_items = dataset.num_items
        split = dataset.train
        lo, hi = split.session_offsets[0], split.session_offsets[-1]
        # Every macro step and every target counts once.
        items = np.concatenate([split.macro_items[lo:hi], split.targets]) - 1
        pop = np.bincount(items, minlength=self.num_items).astype(np.float64)
        # Squash to (0, 1) so global popularity only ever breaks ties between
        # items with equal in-session frequency.
        self._global_pop = pop / (pop.max() + 1.0)
        return self

    def score_batch(self, batch: SessionBatch) -> np.ndarray:
        if self._global_pop is None:
            raise RuntimeError("S-POP must be fitted before scoring")
        if self.popularity_fallback:
            scores = np.tile(self._global_pop, (batch.batch_size, 1))
        else:
            scores = np.zeros((batch.batch_size, self.num_items))
        for b in range(batch.batch_size):
            items = batch.items[b][batch.item_mask[b] > 0]
            values, counts = np.unique(items, return_counts=True)
            scores[b, values - 1] += counts
        return scores
