"""Incremental training from the live event stream.

:class:`OnlineTrainer` closes the train half of the deployment loop: it
drains the gateway's :class:`~repro.deploy.buffer.EventRingBuffer`,
rebuilds per-session state with the *same* merge-successive semantics the
serving path uses (:class:`~repro.serve.LiveSession`), harvests
prefix→next-item training examples from every genuine macro transition,
and runs seeded mini-epochs of Adam on the most recent examples starting
from the incumbent's weights — through the offline trainer's own
:func:`~repro.eval.trainer.train_step`, so a diverging batch is rolled
back by the same watchdog and fails the snapshot instead of shipping
NaN weights. Each :meth:`snapshot` emits a
self-describing artifact through :mod:`repro.artifacts` (atomic write)
and records it in the :class:`~repro.deploy.lineage.DeploymentStore` as a
``candidate`` with full version lineage — ready for
:meth:`~repro.deploy.DeploymentManager.stage` to canary it.
"""

from __future__ import annotations

import pathlib
import threading
from collections import OrderedDict, deque

import numpy as np

from ..autograd import default_dtype
from ..data.packed import PackedSplit
from ..data.schema import MacroSession
from ..eval.trainer import train_step
from ..nn import Adam
from ..parallel import SerialShardExecutor
from ..reliability import DivergenceWatchdog
from ..serve import LiveSession
from .buffer import EventRingBuffer
from .lineage import DeploymentStore, param_hash

__all__ = ["OnlineTrainer"]


class OnlineTrainer:
    """Mini-epoch incremental trainer over recent live sessions.

    Parameters
    ----------
    base:
        A fitted :class:`~repro.eval.trainer.NeuralRecommender` — supplies
        the spec, the starting weights, the vocabulary order, and the
        artifact metadata (popularity ranking etc.).
    buffer:
        The event ring buffer the serving path appends to.
    store:
        Deployment store snapshots are written into.
    base_version:
        Lineage parent of the first snapshot (the serving generation).
    mini_epochs / batch_size / lr / grad_clip:
        Optimization knobs for each snapshot's mini-run. Learning rates an
        order below the offline run are typical — the goal is drift
        adaptation, not retraining.
    max_examples:
        Recency window: only this many of the newest harvested examples
        train each snapshot.
    min_examples:
        :meth:`snapshot` returns ``None`` (no artifact) below this.
    """

    def __init__(
        self,
        base,
        buffer: EventRingBuffer,
        store: DeploymentStore,
        *,
        base_version: int = 1,
        mini_epochs: int = 1,
        batch_size: int = 32,
        lr: float = 5e-4,
        grad_clip: float = 5.0,
        max_examples: int = 2048,
        min_examples: int = 8,
        max_macro_len: int = 20,
        max_ops_per_item: int = 6,
        max_sessions: int = 512,
        seed: int = 0,
    ):
        if base.trainer is None:
            raise ValueError(f"{base.name} is not fitted; nothing to train from")
        self.base = base
        self.buffer = buffer
        self.store = store
        self.mini_epochs = mini_epochs
        self.batch_size = batch_size
        self.lr = lr
        self.grad_clip = grad_clip
        self.min_examples = min_examples
        self.max_macro_len = max_macro_len
        self.max_ops_per_item = max_ops_per_item
        self.max_sessions = max_sessions
        self.seed = seed
        self.parent_version = int(base_version)
        self._weights = {k: v.copy() for k, v in base.model.state_dict().items()}
        self._sessions: OrderedDict[str, LiveSession] = OrderedDict()
        self._examples: deque[MacroSession] = deque(maxlen=max_examples)
        self._lock = threading.Lock()
        self.events_consumed = 0
        self.examples_harvested = 0
        self.snapshots_emitted = 0
        # Snapshots of the periodic loop that raised: the loop survives them,
        # so these two are how a stalled online learner shows.
        self.loop_failures = 0
        self.last_loop_error: str | None = None

    # ------------------------------------------------------------------
    def ingest_events(self) -> int:
        """Drain the buffer into session tails; harvest training examples.

        An example is emitted whenever an event starts a *new* macro step
        on a session that already has history: the pre-event window is the
        input, the event's item is the target — exactly the next-item
        prediction task the offline pipeline trains.
        """
        events = self.buffer.drain()
        with self._lock:
            for event in events:
                session = self._sessions.get(event.session_id)
                if session is None:
                    session = self._sessions[event.session_id] = LiveSession()
                    while len(self._sessions) > self.max_sessions:
                        self._sessions.popitem(last=False)
                else:
                    self._sessions.move_to_end(event.session_id)
                if session.macro_items and session.macro_items[-1] != event.item:
                    items, ops = session.window(self.max_macro_len)
                    self._examples.append(
                        MacroSession(list(items), [list(o) for o in ops], target=event.item)
                    )
                    self.examples_harvested += 1
                session.record(event.item, event.operation, event.at)
            self.events_consumed += len(events)
        return len(events)

    @property
    def pending_examples(self) -> int:
        return len(self._examples)

    # ------------------------------------------------------------------
    def _mini_fit(self, examples: list[MacroSession]) -> tuple[dict, float]:
        """Run the mini-epochs from the current weights; returns (state, loss).

        The objective comes from the spec's portable train settings, so a
        model offline-trained under EMBSR-SSL keeps its contrastive term
        while adapting online — the spec is the single source of truth for
        *what* is optimized on every path. Each batch is one
        :func:`~repro.eval.trainer.train_step` on the one-shard grid, under
        a :class:`~repro.reliability.DivergenceWatchdog` that raises
        :class:`~repro.reliability.DivergenceError` once its retries are spent.
        """
        from ..objectives import build_objective

        spec = self.base.spec
        train = dict(spec.train or {})
        objective = build_objective(
            train.get("objective", "ce"),
            cl_weight=float(train.get("cl_weight", 0.1)),
            num_ops=spec.num_ops,
        )
        run_seed = self.seed + self.snapshots_emitted
        rng = np.random.default_rng(run_seed)
        split = PackedSplit.from_examples(examples)
        with default_dtype(spec.dtype):
            model = self.base.build_model()
            model.load_state_dict(self._weights)
            model.train()
            optimizer = Adam(model.parameters(), lr=self.lr)
            executor = SerialShardExecutor(model, grad_shards=1, seed=run_seed, objective=objective)
            watchdog = DivergenceWatchdog(model, optimizer)
            losses: list[float] = []
            for mini_epoch in range(self.mini_epochs):
                order = rng.permutation(len(examples))
                for batch_no, start in enumerate(range(0, len(order), self.batch_size)):
                    batch = split.collate(
                        order[start : start + self.batch_size],
                        max_ops_per_item=self.max_ops_per_item,
                    )
                    loss, _ = train_step(
                        executor, optimizer, watchdog,
                        epoch=mini_epoch, batch_index=batch_no,
                        grad_clip=self.grad_clip, batch=batch,
                    )
                    losses.append(loss)
            return model.state_dict(), float(np.mean(losses))

    def snapshot(self) -> pathlib.Path | None:
        """Train on the recent examples and emit a candidate artifact.

        Returns the artifact path, or ``None`` when there is not yet
        enough fresh signal (fewer than ``min_examples`` examples).
        """
        from ..artifacts import save_artifact

        self.ingest_events()
        with self._lock:
            examples = list(self._examples)
        if len(examples) < self.min_examples:
            return None

        state, mean_loss = self._mini_fit(examples)
        version = self.store.next_version()
        metadata = dict(self._base_metadata())
        metadata["deployment"] = {
            "version": version,
            "parent": self.parent_version,
            "events_consumed": self.events_consumed,
            "examples": len(examples),
            "mini_epochs": self.mini_epochs,
            "lr": self.lr,
            "mean_loss": round(mean_loss, 6),
        }
        path = self.store.artifact_path(version)
        save_artifact(
            path,
            spec=self.base.spec,
            weights=state,
            item_ids=self._item_ids(),
            metadata=metadata,
        )
        self.store.record(
            version, path, param_hash(state), parent=self.parent_version, status="candidate"
        )
        self._weights = state
        self.parent_version = version
        self.snapshots_emitted += 1
        return path

    # ------------------------------------------------------------------
    def _item_ids(self) -> list[int]:
        info = self.base._dataset_info or {}
        item_ids = info.get("item_ids")
        if not item_ids:
            raise RuntimeError(f"{self.base.name} carries no vocabulary to snapshot")
        return list(item_ids)

    def _base_metadata(self) -> dict:
        info = self.base._dataset_info or {}
        return {
            "model": self.base.name,
            "dtype": self.base.spec.dtype,
            "dataset": {"name": info.get("name", "live"), "fingerprint": info.get("fingerprint", "")},
            "popularity": info.get("popularity", []),
        }

    # ------------------------------------------------------------------
    def start_loop(self, interval_s: float, on_snapshot=None) -> threading.Event:
        """Periodic snapshot loop on a daemon thread; returns its stop event.

        ``on_snapshot(path)`` fires for every emitted artifact — the CLI
        wires it to :meth:`~repro.deploy.DeploymentManager.stage` so fresh
        snapshots canary themselves. A snapshot that raises is counted in
        :attr:`loop_failures` (its error in :attr:`last_loop_error`) and the
        loop carries on.
        """
        stop = threading.Event()

        def run() -> None:
            while not stop.wait(interval_s):
                try:
                    path = self.snapshot()
                except Exception as error:  # noqa: BLE001 — the loop must survive bad batches
                    self.loop_failures += 1
                    self.last_loop_error = f"{type(error).__name__}: {error}"
                    continue
                if path is not None and on_snapshot is not None:
                    on_snapshot(path)

        threading.Thread(target=run, name="online-trainer", daemon=True).start()
        return stop
