"""The common recommender interface shared by EMBSR and every baseline.

``Recommender.fit`` consumes prepared training/validation examples;
``score_batch`` returns a dense score matrix over all real items
(class ``i`` scores item id ``i + 1``, consistent with
``SessionBatch.target_classes``).
"""

from __future__ import annotations

import abc
import pathlib

import numpy as np

from ..data.dataset import SessionBatch
from ..data.preprocess import PreparedDataset
from .topk import top_k_indices

__all__ = ["Recommender"]


class Recommender(abc.ABC):
    """Abstract recommender: fit on a dataset, score padded batches."""

    name: str = "recommender"

    @abc.abstractmethod
    def fit(self, dataset: PreparedDataset) -> "Recommender":
        """Train (or index) the model on the dataset's train split."""

    @abc.abstractmethod
    def score_batch(self, batch: SessionBatch) -> np.ndarray:
        """Return [B, num_items] scores (higher = more likely next item)."""

    # -- persistence (overridden where the system has parameters) -------
    def save(self, path: str | pathlib.Path) -> None:
        """Persist fitted state to ``path`` so serving can skip retraining.

        Parametric systems override this (see ``NeuralRecommender.save``);
        non-parametric ones (S-POP, SKNN) re-index in seconds and opt out.
        """
        raise NotImplementedError(
            f"{self.name} is non-parametric and does not write artifacts: "
            "it has no weights to persist — re-fit() it on the dataset "
            "instead (seconds, not epochs). See docs/registry.md."
        )

    def top_k(self, batch: SessionBatch, k: int) -> np.ndarray:
        """Dense ids of the top-``k`` items per session, best first."""
        return top_k_indices(self.score_batch(batch), k) + 1
