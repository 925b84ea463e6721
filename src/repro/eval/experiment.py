"""Experiment runner: trains/evaluates named models on prepared datasets.

This is the engine behind every benchmark in ``benchmarks/``: it resolves
all twelve systems of Table III (plus the analysis variants of Tables IV
and Figs. 4-6) through :mod:`repro.registry`, fits them on a dataset, and
produces the paper's metric rows. Raw score matrices are retained so
significance tests can be run between any two fitted systems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..autograd import MODEL_DTYPE
from ..data.dataset import DataLoader
from ..data.preprocess import PreparedDataset
from ..registry import REGISTRY, TABLE3_MODELS
from .metrics import evaluate_scores
from .recommender import Recommender
from .trainer import TrainConfig

__all__ = ["ExperimentConfig", "ExperimentResult", "ExperimentRunner", "MODEL_NAMES"]

MODEL_NAMES = list(TABLE3_MODELS)

# TrainConfig fields that are *runtime-only* — machine paths, verbosity,
# and the worker count (parallelism changes wall-clock, never the math;
# the math-bearing knob, grad_shards, IS portable) have no business
# inside a portable ModelSpec.
_NON_PORTABLE_TRAIN_FIELDS = frozenset(
    {"checkpoint_path", "checkpoint_every", "resume_from", "verbose", "workers"}
)


@dataclass
class ExperimentConfig:
    """Scale and optimization knobs shared by every model in a run."""

    dim: int = 32
    epochs: int = 12
    batch_size: int = 64
    lr: float = 0.005
    dropout: float = 0.2
    w_k: float = 12.0
    patience: int = 5
    seed: int = 0
    dtype: str = MODEL_DTYPE
    ks: tuple[int, ...] = (5, 10, 20)
    # Crash-safe training (docs/reliability.md): periodic training-state
    # checkpoints and resumption, threaded through to Trainer.fit.
    checkpoint_path: str | None = None
    checkpoint_every: int = 0
    resume_from: str | None = None
    # Data-parallel training (docs/performance.md, "Parallelism").
    workers: int = 1
    grad_shards: int = 0  # 0 = auto (follows workers); 1 = one shard per batch
    # Training objective (docs/objectives.md). None = defer to the model's
    # registry entry (EMBSR-SSL pins "ssl"); set explicitly to override.
    objective: str | None = None
    cl_weight: float | None = None

    def train_config(self) -> TrainConfig:
        overrides = {}
        if self.objective is not None:
            overrides["objective"] = self.objective
        if self.cl_weight is not None:
            overrides["cl_weight"] = self.cl_weight
        return TrainConfig(
            epochs=self.epochs,
            batch_size=self.batch_size,
            lr=self.lr,
            patience=self.patience,
            seed=self.seed,
            dtype=self.dtype,
            checkpoint_path=self.checkpoint_path,
            checkpoint_every=self.checkpoint_every,
            resume_from=self.resume_from,
            workers=self.workers,
            grad_shards=self.grad_shards,
            **overrides,
        )


@dataclass
class ExperimentResult:
    """Fitted system + its test-set scores and metrics."""

    name: str
    metrics: dict[str, float]
    scores: np.ndarray
    target_classes: np.ndarray
    recommender: Recommender


class ExperimentRunner:
    """Builds, fits, and evaluates named systems on one dataset."""

    def __init__(self, dataset: PreparedDataset, config: ExperimentConfig | None = None):
        self.dataset = dataset
        self.config = config or ExperimentConfig()
        self.results: dict[str, ExperimentResult] = {}

    # ------------------------------------------------------------------
    def _portable_train(self) -> dict:
        """The portable slice of the train config, for embedding in specs."""
        from dataclasses import asdict

        drop = set(_NON_PORTABLE_TRAIN_FIELDS)
        # Objective knobs the user left on auto must not shadow the model's
        # registry defaults (spec_for merges caller train over entry.train,
        # so EMBSR-SSL's {"objective": "ssl"} only survives if absent here).
        if self.config.objective is None:
            drop.add("objective")
        if self.config.cl_weight is None:
            drop.add("cl_weight")
        return {
            k: v
            for k, v in asdict(self.config.train_config()).items()
            if k not in drop
        }

    def spec_for(self, name: str):
        """The :class:`~repro.registry.ModelSpec` this runner builds for ``name``."""
        cfg = self.config
        return REGISTRY.spec_for(
            name,
            num_items=self.dataset.num_items,
            num_ops=self.dataset.num_operations,
            dim=cfg.dim,
            dropout=cfg.dropout,
            seed=cfg.seed,
            w_k=cfg.w_k,
            dtype=cfg.dtype,
            train=self._portable_train(),
        )

    def build(self, name: str) -> Recommender:
        """Construct the (unfitted) system registered under ``name``.

        Resolution is delegated to :mod:`repro.registry`: all Table III
        names, every EMBSR analysis variant, and the ``EMBSR-beta=<x>`` /
        ``EMBSR-SSL-cl=<x>`` pattern sweeps. Unknown names raise
        ``KeyError`` listing what *is* registered.

        The runtime train config derives from the *spec* (entry defaults
        merged with this runner's knobs) plus the non-portable runtime
        fields, so a model's registry objective survives into training.
        """
        cfg = self.config
        spec = self.spec_for(name)
        runtime = spec.train_config(
            checkpoint_path=cfg.checkpoint_path,
            checkpoint_every=cfg.checkpoint_every,
            resume_from=cfg.resume_from,
            workers=cfg.workers,
        )
        return REGISTRY.build(spec, train=runtime)

    # ------------------------------------------------------------------
    def score_on_test(self, recommender: Recommender) -> tuple[np.ndarray, np.ndarray]:
        loader = DataLoader(self.dataset.test, batch_size=128)
        scores, targets = [], []
        for batch in loader:
            scores.append(recommender.score_batch(batch))
            targets.append(batch.target_classes)
        return np.concatenate(scores), np.concatenate(targets)

    def run(self, name: str, verbose: bool = False) -> ExperimentResult:
        """Fit and evaluate one system; results are cached per name."""
        if name in self.results:
            return self.results[name]
        recommender = self.build(name)
        recommender.fit(self.dataset)
        scores, targets = self.score_on_test(recommender)
        metrics = evaluate_scores(scores, targets, ks=self.config.ks)
        result = ExperimentResult(name, metrics, scores, targets, recommender)
        self.results[name] = result
        if verbose:
            pretty = ", ".join(f"{k}={v:.2f}" for k, v in metrics.items())
            print(f"[{self.dataset.name}] {name}: {pretty}")
        return result

    def run_all(self, names: list[str], verbose: bool = False) -> dict[str, ExperimentResult]:
        return {name: self.run(name, verbose=verbose) for name in names}

    def metric_table(self, names: list[str]) -> dict[str, dict[str, float]]:
        """Metrics of already-run systems, keyed by model name."""
        return {name: self.results[name].metrics for name in names if name in self.results}
