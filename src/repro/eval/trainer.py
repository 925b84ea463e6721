"""Training loop for the neural models.

Mirrors the paper's protocol (Sec. V-A4): Adam optimizer, mini-batches,
model selection on the validation split (we track MRR@20), and a bounded
epoch budget. Gradient clipping and StepLR decay follow the SR-GNN family's
reference implementations.

Every step runs :func:`train_step` over a shard-grid executor, the
one-shard grid (``grad_shards = 1``) included; the online learner and
``repro profile`` run the same function.

Crash safety (``docs/reliability.md``): :meth:`Trainer.fit` periodically
writes the *full* training state — parameters, Adam moments, StepLR
position, epoch/batch cursor and loader shuffle epoch — through an atomic
temp-file+rename, and :meth:`Trainer.resume` continues a killed run to
results bit-identical with an uninterrupted one (dropout draws from
streams pure in ``(seed, epoch, batch, shard, retry)``, so there is no
generator state to save). A divergence watchdog rolls back NaN/Inf
batches, halves the LR, and aborts with a clear error once its retry
budget is spent.
"""

from __future__ import annotations

import dataclasses
import pathlib
from dataclasses import asdict, dataclass, field

import numpy as np

from ..autograd import MODEL_DTYPE, default_dtype, no_grad
from ..data.dataset import DataLoader, SessionBatch
from ..data.preprocess import PreparedDataset
from ..nn import Adam, Module, StepLR, clip_grad_norm
from ..objectives import Objective, build_objective
from ..reliability import (
    DivergenceWatchdog,
    TrainingState,
    failpoint,
    load_training_state,
    save_training_state,
)
from .metrics import evaluate_scores
from .recommender import Recommender

__all__ = ["TrainConfig", "Trainer", "NeuralRecommender", "train_step"]

# Resuming with any of these changed would silently train a different run;
# epochs/patience/verbose may legitimately differ (e.g. extending a run).
# ``workers`` is deliberately absent: the shard grid (``grad_shards``)
# pins the math, so a run checkpointed under N workers may resume at any
# worker count and still land on bit-identical parameters.
_RESUME_CRITICAL_FIELDS = (
    "batch_size",
    "lr",
    "weight_decay",
    "grad_clip",
    "lr_step",
    "lr_gamma",
    "selection_metric",
    "max_ops_per_item",
    "seed",
    "dtype",
    "grad_shards",
    # The objective IS the math being optimized: resuming a run under a
    # different objective (or auxiliary weight) would silently train a
    # different model while reporting the old identity.
    "objective",
    "cl_weight",
)

# Popularity rankings embedded in artifacts are capped so an artifact for a
# huge catalogue stays small; degraded serving only ever pages the head.
_POPULARITY_LIMIT = 1024


@dataclass
class TrainConfig:
    """Hyper-parameters of the optimization loop."""

    epochs: int = 5
    batch_size: int = 64
    lr: float = 0.003
    weight_decay: float = 0.0
    grad_clip: float = 5.0
    lr_step: int = 3
    lr_gamma: float = 0.5
    patience: int = 3          # early stop after this many non-improving epochs
    selection_metric: str = "M@20"
    max_ops_per_item: int = 6
    seed: int = 0
    dtype: str = MODEL_DTYPE   # "float64" is the opt-in (docs/performance.md)
    verbose: bool = False
    # -- training objective (docs/objectives.md) ---------------------------
    objective: str = "ce"      # "ce" | "ssl" | "infonce" | "op-aux"
    cl_weight: float = 0.1     # weight of the auxiliary term in composites
    # -- parallelism knobs (docs/performance.md, "Parallelism") ------------
    workers: int = 1           # forked data-parallel workers (1 = in-process)
    grad_shards: int = 0       # summation-tree grid; 0 = auto (max(workers, 1)).
                               # Every G, 1 included, is bit-identical across
                               # ANY worker count up to G.
    # -- reliability knobs (docs/reliability.md) ---------------------------
    checkpoint_path: str | None = None   # training-state file; None disables
    checkpoint_every: int = 0            # also save every N batches (0 = epoch ends only)
    resume_from: str | None = None       # continue fit() from this state file
    watchdog: bool = True                # NaN/Inf rollback + LR halving
    watchdog_retries: int = 3
    watchdog_grad_limit: float | None = None  # extra ceiling on pre-clip grad norm


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    valid_metric: float
    # Per-component mean training losses, e.g. {"ce": ..., "infonce": ...}.
    components: dict = field(default_factory=dict)


class _LossProbe:
    """Mutable stand-in for the loss tensor at the ``trainer.loss`` failpoint.

    The real loss tensors live in the shards (or in forked workers) and
    only their reduced float comes back; armed fault actions still expect
    something with a mutable ``.data`` to poison.
    """

    __slots__ = ("data",)

    def __init__(self, value: float) -> None:
        self.data = np.asarray(value, dtype=np.float64)

    def item(self) -> float:
        return float(self.data)


def train_step(
    executor,
    optimizer: Adam,
    watchdog: DivergenceWatchdog | None,
    *,
    epoch: int,
    batch_index: int,
    grad_clip: float,
    batch: SessionBatch | None = None,
) -> tuple[float, dict]:
    """One optimization step, retried under the divergence watchdog.

    ``executor`` (:class:`~repro.parallel.SerialShardExecutor` or
    :class:`~repro.parallel.DataParallelEngine`) leaves the grid-gradient
    of batch ``(epoch, batch_index)`` on ``p.grad``; the step clips it and
    applies it unless the watchdog vetoes. Returns ``(loss, per-component
    losses)``. A rolled-back batch reruns with the next ``retry``, which
    keys both the per-shard dropout streams and the objective's
    :class:`~repro.objectives.StepContext`, so it redraws fresh masks and
    augmented views.
    """
    retry = 0
    while True:
        loss = _LossProbe(executor.compute(epoch, batch_index, retry, batch=batch))
        failpoint("trainer.loss", loss)
        loss_value = float(loss.item())
        grad_norm = clip_grad_norm(executor.model.parameters(), grad_clip)
        if watchdog is None or watchdog.healthy(loss_value, grad_norm):
            optimizer.step()
            if watchdog is not None:
                watchdog.record_good()
            return loss_value, dict(executor.last_components)
        watchdog.recover(
            where=f"epoch {epoch}, batch {batch_index}",
            loss=loss_value,
            grad_norm=grad_norm,
        )
        retry += 1


class Trainer:
    """Fits a ``Module`` that maps :class:`SessionBatch` -> logits.

    ``spec`` optionally records the architecture identity (a
    :class:`~repro.registry.ModelSpec` dict) inside every training-state
    checkpoint, so resuming with a differently-built model fails with a
    config diff instead of a parameter shape mismatch deep in NumPy.
    """

    def __init__(
        self,
        model: Module,
        config: TrainConfig,
        spec: dict | None = None,
        objective: Objective | None = None,
    ):
        self.model = model
        self.config = config
        self.spec = spec
        # Usually resolved from config.objective at fit time (it needs the
        # dataset's operation count); an explicit instance wins.
        self.objective = objective
        self.history: list[EpochStats] = []

    # ------------------------------------------------------------------
    def fit(self, dataset: PreparedDataset) -> "Trainer":
        """Train under ``config.dtype``, so every mask and intermediate of
        the in-process step shares the dtype forked workers train in."""
        if self.config.resume_from:
            return self.resume(dataset, self.config.resume_from)
        with default_dtype(self.config.dtype):
            return self._run(dataset, state=None)

    def resume(self, dataset: PreparedDataset, path: str | pathlib.Path) -> "Trainer":
        """Continue an interrupted :meth:`fit` from a training-state file.

        The model must be freshly constructed with the same architecture
        switches; optimization-critical config fields are validated against
        the saved run so a resumed run cannot silently diverge from it.
        """
        state = load_training_state(path)
        self._validate_resume_spec(state.spec, path)
        self._validate_resume_config(state.config, path)
        with default_dtype(self.config.dtype):
            return self._run(dataset, state=state)

    def _validate_resume_spec(self, saved_spec: dict | None, path) -> None:
        """Architecture compatibility: spec recorded at save vs. ours now."""
        if saved_spec is None or self.spec is None:
            return  # one side has no spec (hand-built Trainer); shapes still checked
        from ..registry import ModelSpec

        mismatched = ModelSpec.from_dict(self.spec).architecture_mismatch(saved_spec)
        if mismatched:
            detail = ", ".join(
                f"{name}: saved={was[1]!r} != current={was[0]!r}"
                for name, was in sorted(mismatched.items())
            )
            raise ValueError(
                f"cannot resume from {path}: the checkpoint was written by a "
                f"different architecture ({detail})"
            )

    def _validate_resume_config(self, saved: dict, path) -> None:
        current = asdict(self.config)
        # States record the *resolved* grid; a current config still on auto
        # (0) adopts it — resuming never silently changes math.
        if not current["grad_shards"]:
            current["grad_shards"] = saved["grad_shards"]
        mismatched = {
            name: (saved.get(name), current[name])
            for name in _RESUME_CRITICAL_FIELDS
            if saved.get(name) != current[name]
        }
        if mismatched:
            detail = ", ".join(
                f"{name}: saved={was!r} != current={now!r}"
                for name, (was, now) in sorted(mismatched.items())
            )
            raise ValueError(f"cannot resume from {path}: config mismatch ({detail})")

    # ------------------------------------------------------------------
    def _resolved_grad_shards(self, state: TrainingState | None) -> int:
        """The effective summation-tree grid for this run.

        Explicit config wins; auto (0) follows the worker count, except on
        resume where it adopts the grid the checkpoint was trained with
        (so ``--workers`` may change freely across restarts).
        """
        cfg = self.config
        if cfg.grad_shards:
            return int(cfg.grad_shards)
        if state is not None:
            return int(state.config["grad_shards"])
        return max(int(cfg.workers), 1)

    def _make_executor(self, grad_shards: int, train_loader: DataLoader, dataset):
        """``(executor, engine)`` for the shard grid: serial or forked.

        Below 2 effective workers — always so at ``grad_shards == 1`` —
        the grid runs in-process and ``engine`` is ``None``; otherwise a
        :class:`~repro.parallel.DataParallelEngine` is both the executor
        *and* the fan-out of the validation passes.
        """
        from ..parallel import DataParallelEngine, SerialShardExecutor

        cfg = self.config
        workers = min(max(int(cfg.workers), 1), grad_shards)
        if workers <= 1:
            return (
                SerialShardExecutor(
                    self.model, grad_shards=grad_shards, seed=cfg.seed, objective=self.objective
                ),
                None,
            )
        engine = DataParallelEngine(
            self.model,
            train_loader,
            workers=workers,
            grad_shards=grad_shards,
            seed=cfg.seed,
            dtype=cfg.dtype,
            eval_splits={"validation": dataset.validation},
            num_items=dataset.num_items,
            objective=self.objective,
        )
        return engine, engine

    def _run(self, dataset: PreparedDataset, state: TrainingState | None) -> "Trainer":
        cfg = self.config
        optimizer = Adam(self.model.parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
        scheduler = StepLR(optimizer, step_size=cfg.lr_step, gamma=cfg.lr_gamma)
        train_loader = DataLoader(
            dataset.train,
            batch_size=cfg.batch_size,
            shuffle=True,
            seed=cfg.seed,
            max_ops_per_item=cfg.max_ops_per_item,
            reuse_buffers=True,  # batches are consumed before the next collate
        )
        if self.objective is None:
            self.objective = build_objective(
                cfg.objective,
                cl_weight=cfg.cl_weight,
                num_ops=dataset.num_operations,
            )
        grad_shards = self._resolved_grad_shards(state)

        best_metric = -np.inf
        best_state: dict[str, np.ndarray] | None = None
        stale = 0
        start_epoch = start_batch = global_step = 0
        epoch_losses: list[float] = []
        epoch_components: list[dict] = []
        if state is not None:
            self.model.load_state_dict(state.model_state)
            optimizer.load_state_dict(state.optimizer_state)
            scheduler.load_state_dict(state.scheduler_state)
            start_epoch, start_batch = state.epoch, state.batch_index
            global_step = state.global_step
            best_metric, best_state, stale = state.best_metric, state.best_state, state.stale
            self.history = [EpochStats(**h) for h in state.history]
            epoch_losses = list(state.epoch_losses)
            epoch_components = [dict(c) for c in state.epoch_components]

        watchdog = (
            DivergenceWatchdog(
                self.model,
                optimizer,
                max_retries=cfg.watchdog_retries,
                grad_limit=cfg.watchdog_grad_limit,
                on_lr_change=scheduler.scale_lr,
            )
            if cfg.watchdog
            else None
        )

        def checkpoint(
            epoch: int, next_batch: int, losses: list[float], comps: list[dict]
        ) -> None:
            if cfg.checkpoint_path is None:
                return
            save_training_state(
                cfg.checkpoint_path,
                TrainingState(
                    epoch=epoch,
                    batch_index=next_batch,
                    global_step=global_step,
                    model_state=self.model.state_dict(),
                    optimizer_state=optimizer.state_dict(),
                    scheduler_state=scheduler.state_dict(),
                    loader_state={"seed": cfg.seed, "epoch": epoch},
                    best_metric=float(best_metric),
                    best_state=best_state,
                    stale=stale,
                    history=[asdict(h) for h in self.history],
                    epoch_losses=[float(x) for x in losses],
                    epoch_components=[dict(c) for c in comps],
                    config={**asdict(self.config), "grad_shards": grad_shards},
                    spec=self.spec,
                ),
            )

        executor, engine = self._make_executor(grad_shards, train_loader, dataset)
        try:
            for epoch in range(start_epoch, cfg.epochs):
                self.model.train()
                train_loader.set_epoch(epoch)
                losses = epoch_losses if epoch == start_epoch else []
                comp_losses = epoch_components if epoch == start_epoch else []
                skip = start_batch if epoch == start_epoch else 0
                if engine is not None:
                    # Workers collate their own shard rows; the master never
                    # materializes batches, it only walks the batch indices.
                    batch_iter = ((i, None) for i in range(len(train_loader)))
                else:
                    batch_iter = enumerate(train_loader)
                for batch_index, batch in batch_iter:
                    if batch_index < skip:
                        continue  # replaying a resumed epoch up to the cursor
                    loss_value, components = train_step(
                        executor, optimizer, watchdog,
                        epoch=epoch, batch_index=batch_index,
                        grad_clip=cfg.grad_clip, batch=batch,
                    )
                    global_step += 1
                    losses.append(loss_value)
                    comp_losses.append(components)
                    if cfg.checkpoint_every and global_step % cfg.checkpoint_every == 0:
                        checkpoint(epoch, batch_index + 1, losses, comp_losses)
                    failpoint("trainer.after_batch", {"epoch": epoch, "batch": batch_index})

                scheduler.step()
                if engine is not None:
                    scores, targets = engine.predict("validation", batch_size=cfg.batch_size)
                    valid = evaluate_scores(scores, targets)
                else:
                    valid = self.evaluate(dataset.validation, batch_size=cfg.batch_size)
                metric = valid[cfg.selection_metric]
                means = {}
                if comp_losses:
                    means = {
                        name: float(np.mean([c.get(name, 0.0) for c in comp_losses]))
                        for name in comp_losses[0]
                    }
                self.history.append(EpochStats(epoch, float(np.mean(losses)), metric, means))
                if cfg.verbose:
                    print(
                        f"epoch {epoch}: loss={np.mean(losses):.4f} "
                        f"{cfg.selection_metric}={metric:.2f}"
                    )
                if metric > best_metric:
                    best_metric = metric
                    best_state = self.model.state_dict()
                    stale = 0
                else:
                    stale += 1
                checkpoint(epoch + 1, 0, [], [])
                failpoint("trainer.after_epoch", {"epoch": epoch})
                if stale >= self.config.patience:
                    break
        finally:
            if engine is not None:
                engine.shutdown()
        if best_state is not None:
            self.model.load_state_dict(best_state)
        return self

    # ------------------------------------------------------------------
    def evaluate(
        self,
        examples,
        ks: tuple[int, ...] = (5, 10, 20),
        batch_size: int = 128,
    ) -> dict[str, float]:
        """HR/MRR of the current model over ``examples``."""
        scores, targets = self.predict(examples, batch_size=batch_size)
        return evaluate_scores(scores, targets, ks=ks)

    def predict(self, examples, batch_size: int = 128) -> tuple[np.ndarray, np.ndarray]:
        """Score matrix and target classes over ``examples`` (eval mode).

        Runs under the configured dtype so standalone evaluation matches
        the in-training validation passes exactly (a float32 model scored
        in an ambient-float64 process would silently upcast).
        """
        self.model.eval()
        loader = DataLoader(
            examples, batch_size=batch_size, max_ops_per_item=self.config.max_ops_per_item
        )
        all_scores, all_targets = [], []
        with default_dtype(self.config.dtype), no_grad():
            for batch in loader:
                logits = self.model(batch)
                all_scores.append(logits.data)
                all_targets.append(batch.target_classes)
        return np.concatenate(all_scores), np.concatenate(all_targets)


class NeuralRecommender(Recommender):
    """Adapts a registry :class:`~repro.registry.ModelSpec` + trainer into
    the :class:`Recommender` API.

    The spec is the *only* architecture description this class holds — no
    closures, no factories — so a fitted model persists as a
    self-describing artifact (:meth:`save`) and reconstructs from the
    artifact path alone in any process (:meth:`from_artifact`).
    """

    def __init__(self, spec, train_config: TrainConfig | None = None):
        self.spec = spec
        self.name = spec.name
        self.train_config = train_config or spec.train_config()
        self.trainer: Trainer | None = None
        # Dataset context stashed by fit (or read from an artifact) so save() can write a
        # complete artifact: {"item_ids", "name", "fingerprint", "popularity"}.
        self._dataset_info: dict | None = None

    @property
    def model(self) -> Module:
        if self.trainer is None:
            raise RuntimeError(f"{self.name} has not been fitted")
        return self.trainer.model

    def weights_spec(self):
        """``spec`` with the dtype the weights train, save and serve in.

        That is ``train_config.dtype``: a runtime config may override the
        spec's, and the saved header must name the dtype of its arrays.
        """
        return dataclasses.replace(self.spec, dtype=self.train_config.dtype)

    def build_model(self) -> Module:
        """Construct the (untrained) module for this spec via the registry,
        its parameters in ``train_config.dtype``."""
        from ..registry import build_module

        return build_module(self.weights_spec())

    def _check_dims(self, dataset: PreparedDataset) -> None:
        if (dataset.num_items, dataset.num_operations) != (self.spec.num_items, self.spec.num_ops):
            raise ValueError(
                f"{self.name} spec was sized for {self.spec.num_items} items / "
                f"{self.spec.num_ops} operations but the dataset has "
                f"{dataset.num_items} / {dataset.num_operations}"
            )

    def _stash_dataset_info(self, dataset: PreparedDataset) -> None:
        from ..data.stats import popularity_ranking

        self._dataset_info = {
            "item_ids": np.asarray(dataset.item_ids).tolist(),
            "name": dataset.name,
            "fingerprint": dataset.fingerprint,
            "popularity": popularity_ranking(dataset, limit=_POPULARITY_LIMIT),
        }

    def fit(self, dataset: PreparedDataset) -> "NeuralRecommender":
        # Both build and train run under train_config.dtype, so parameters
        # and every intermediate share it.
        self._check_dims(dataset)
        self.trainer = Trainer(self.build_model(), self.train_config, spec=self.spec.to_dict())
        self.trainer.fit(dataset)
        self._stash_dataset_info(dataset)
        return self

    # -- persistence: self-describing artifacts -------------------------
    def save(self, path, metrics: dict | None = None) -> None:
        """Write the fitted model as a self-describing artifact bundle.

        The bundle (spec + item vocabulary + weights + metadata) is enough
        to reconstruct and serve this model in a process that has never
        seen the dataset; see ``docs/registry.md`` for the layout.
        """
        from ..artifacts import save_artifact

        model = self.model  # raises RuntimeError when unfitted
        if self._dataset_info is None:
            raise RuntimeError(
                f"{self.name} has no dataset context to persist; fit() it "
                "before save()"
            )
        metadata = {
            "model": self.name,
            "dtype": self.train_config.dtype,
            "metrics": dict(metrics or {}),
            "dataset": {
                "name": self._dataset_info["name"],
                "fingerprint": self._dataset_info["fingerprint"],
                "num_items": self.spec.num_items,
                "num_ops": self.spec.num_ops,
            },
            "popularity": self._dataset_info["popularity"],
            "history": [asdict(h) for h in self.trainer.history],
        }
        save_artifact(
            path,
            spec=self.weights_spec(),
            weights=model.state_dict(),
            item_ids=self._dataset_info["item_ids"],
            metadata=metadata,
        )

    @classmethod
    def from_artifact(cls, artifact, train_config: TrainConfig | None = None) -> "NeuralRecommender":
        """Reconstruct a fitted recommender from an artifact — no dataset.

        ``artifact`` is a :class:`~repro.artifacts.ModelArtifact` or a path
        to one. This is the portability seam: the returned recommender
        scores batches bit-identically to the process that saved it.
        """
        from ..artifacts import ModelArtifact, load_artifact

        bundle = artifact if isinstance(artifact, ModelArtifact) else load_artifact(artifact)
        recommender = cls(bundle.spec, train_config)
        model = bundle.build_module()
        recommender.trainer = Trainer(model, recommender.train_config, spec=bundle.spec.to_dict())
        recommender._dataset_info = {
            "item_ids": list(bundle.item_ids),
            "name": bundle.metadata.get("dataset", {}).get("name", "unknown"),
            "fingerprint": bundle.metadata.get("dataset", {}).get("fingerprint", ""),
            "popularity": bundle.metadata.get("popularity", []),
        }
        return recommender

    def score_batch(self, batch: SessionBatch) -> np.ndarray:
        model = self.model
        model.eval()
        # Score under the training dtype: a float32 model must not upcast
        # to float64 just because the ambient default says so.
        with default_dtype(self.train_config.dtype), no_grad():
            return model(batch).data
