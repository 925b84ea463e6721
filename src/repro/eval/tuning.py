"""Hyper-parameter grid search on the validation split.

The paper (Sec. V-A4) tunes every method's learning rate in
{0.001, 0.003, 0.005, 0.008, 0.01} and dropout in {0, ..., 0.5} by grid
search on the validation set. :func:`grid_search` reproduces that protocol
for any registered model name.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from ..data.preprocess import PreparedDataset
from .experiment import ExperimentConfig, ExperimentRunner, score_split
from .metrics import evaluate_scores

__all__ = ["GridPoint", "GridSearchResult", "grid_search", "PAPER_LR_GRID", "PAPER_DROPOUT_GRID"]

PAPER_LR_GRID = (0.001, 0.003, 0.005, 0.008, 0.01)
PAPER_DROPOUT_GRID = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)


@dataclass(frozen=True)
class GridPoint:
    """One hyper-parameter combination and its validation score."""

    lr: float
    dropout: float
    valid_metric: float


@dataclass
class GridSearchResult:
    """All evaluated grid points plus the winning configuration."""

    model: str
    metric: str
    points: list[GridPoint]

    @property
    def best(self) -> GridPoint:
        return max(self.points, key=lambda p: p.valid_metric)


def grid_search(
    dataset: PreparedDataset,
    model_name: str,
    base_config: ExperimentConfig,
    lrs: tuple[float, ...] = PAPER_LR_GRID,
    dropouts: tuple[float, ...] = PAPER_DROPOUT_GRID,
    metric: str = "M@20",
) -> GridSearchResult:
    """Fit ``model_name`` for every (lr, dropout) pair; select on validation.

    The default grid is the paper's (30 fits). Uses a fresh
    :class:`ExperimentRunner` per point so no state leaks between
    configurations. Deliberately evaluates on the *validation* split — the
    test split stays untouched for the final comparison.
    """
    points: list[GridPoint] = []
    for lr, dropout in itertools.product(lrs, dropouts):
        config = replace(base_config, lr=lr, dropout=dropout)
        recommender = ExperimentRunner(dataset, config).build(model_name)
        recommender.fit(dataset)
        metrics = evaluate_scores(*score_split(recommender, dataset.validation))
        points.append(GridPoint(lr=lr, dropout=dropout, valid_metric=metrics[metric]))
    return GridSearchResult(model=model_name, metric=metric, points=points)
