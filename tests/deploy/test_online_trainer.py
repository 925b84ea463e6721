"""OnlineTrainer: event ingestion, mini-epochs, snapshot lineage."""

import time

import numpy as np
import pytest

from repro.deploy import (
    DeploymentManager,
    DeploymentStore,
    Event,
    EventRingBuffer,
    OnlineTrainer,
    param_hash,
)
from repro import reliability as rel
from repro.artifacts import load_artifact
from repro.eval.trainer import NeuralRecommender
from repro.reliability import DivergenceError
from repro.serve import RecommenderService


@pytest.fixture()
def base(artifact_path):
    return NeuralRecommender.from_artifact(artifact_path)


def make_trainer(base, tmp_path, **kwargs):
    buffer = EventRingBuffer()
    store = DeploymentStore(tmp_path / "deploy")
    kwargs.setdefault("min_examples", 4)
    return OnlineTrainer(base, buffer, store, **kwargs), buffer, store


def poison_loss(loss):
    """Failpoint action: corrupt the in-flight loss to NaN."""
    loss.data = np.full_like(loss.data, np.nan)


def feed_sessions(buffer, n_sessions=8, steps=5):
    """Synthetic macro transitions: dense items 1..steps per session."""
    for s in range(n_sessions):
        for i in range(1, steps + 1):
            buffer.append(Event(f"s{s}", i, (i % 3), float(i)))


class TestIngest:
    def test_examples_harvested_only_on_macro_transition(self, base, tmp_path):
        trainer, buffer, _ = make_trainer(base, tmp_path)
        buffer.append(Event("s0", 5, 0, 0.0))
        buffer.append(Event("s0", 5, 1, 1.0))  # merged micro-op: no example
        buffer.append(Event("s0", 7, 0, 2.0))  # transition: one example
        assert trainer.ingest_events() == 3
        assert trainer.pending_examples == 1
        assert trainer._examples[0].target == 7

    def test_unfitted_base_rejected(self, tmp_path):
        from .conftest import SPEC

        with pytest.raises(ValueError):
            OnlineTrainer(
                NeuralRecommender(SPEC), EventRingBuffer(), DeploymentStore(tmp_path)
            )

    def test_session_table_is_bounded(self, base, tmp_path):
        trainer, buffer, _ = make_trainer(base, tmp_path, max_sessions=4)
        feed_sessions(buffer, n_sessions=10, steps=2)
        trainer.ingest_events()
        assert len(trainer._sessions) <= 4


class TestSnapshot:
    def test_below_min_examples_emits_nothing(self, base, tmp_path):
        trainer, buffer, store = make_trainer(base, tmp_path, min_examples=100)
        feed_sessions(buffer, n_sessions=2, steps=3)
        assert trainer.snapshot() is None
        assert store.lineage() == []

    def test_snapshot_writes_candidate_with_lineage(self, base, tmp_path):
        trainer, buffer, store = make_trainer(base, tmp_path, base_version=1)
        feed_sessions(buffer)
        path = trainer.snapshot()
        assert path is not None and path.exists()
        record = store.lineage()[-1]
        assert record["status"] == "candidate"
        assert record["parent"] == 1
        bundle = load_artifact(path)
        assert bundle.metadata["deployment"]["parent"] == 1
        assert bundle.metadata["deployment"]["examples"] == trainer.pending_examples
        assert record["param_hash"] == param_hash(bundle.weights)

    def test_training_actually_moves_weights(self, base, tmp_path):
        trainer, buffer, _ = make_trainer(base, tmp_path, mini_epochs=2, lr=1e-2)
        feed_sessions(buffer)
        path = trainer.snapshot()
        assert param_hash(load_artifact(path).weights) != param_hash(
            base.model.state_dict()
        )

    def test_snapshots_are_deterministic(self, base, artifact_path, tmp_path):
        hashes = []
        for run in range(2):
            rec = NeuralRecommender.from_artifact(artifact_path)
            trainer, buffer, _ = make_trainer(rec, tmp_path / f"r{run}", seed=5)
            feed_sessions(buffer)
            hashes.append(param_hash(load_artifact(trainer.snapshot()).weights))
        assert hashes[0] == hashes[1]

    def test_diverging_snapshot_is_refused(self, base, tmp_path):
        """The online step is the offline one: a NaN loss on every batch
        exhausts the watchdog, so the snapshot raises and ships nothing."""
        trainer, buffer, store = make_trainer(base, tmp_path)
        feed_sessions(buffer)
        rel.arm("trainer.loss", poison_loss)  # every step, forever
        with pytest.raises(DivergenceError, match="epoch 0, batch 0"):
            trainer.snapshot()
        assert rel.stats("trainer.loss")[1] > 0  # the poison fired
        assert store.lineage() == []
        assert not list(store.directory.glob("*.npz"))
        assert trainer.snapshots_emitted == 0

    def test_successive_snapshots_chain_parents(self, base, tmp_path):
        trainer, buffer, store = make_trainer(base, tmp_path, base_version=1)
        feed_sessions(buffer)
        trainer.snapshot()
        feed_sessions(buffer, n_sessions=3)
        trainer.snapshot()
        parents = [r["parent"] for r in store.lineage()]
        assert parents == [1, 1]  # v1 chains off base, v2 off v1... by version
        assert [r["version"] for r in store.lineage()] == [1, 2]
        assert load_artifact(store.artifact_path(2)).metadata["deployment"]["parent"] == 1

    def test_snapshot_stages_cleanly(self, base, artifact_path, tmp_path):
        """The train → snapshot → stage loop round-trips end to end."""
        store = DeploymentStore(tmp_path / "deploy")
        service = RecommenderService.from_artifact(artifact_path)
        manager = DeploymentManager(service, store=store, incumbent_path=str(artifact_path))

        buffer = EventRingBuffer()
        trainer = OnlineTrainer(base, buffer, store, base_version=1, min_examples=4)
        feed_sessions(buffer)
        path = trainer.snapshot()

        assert manager.stage(path, wait=True)
        assert manager.candidate.version == 2
        snapshot_record = next(r for r in store.lineage() if r["version"] == 2)
        assert manager.candidate.param_hash == snapshot_record["param_hash"]


class TestLoop:
    def test_start_loop_emits_and_stops(self, base, tmp_path):
        trainer, buffer, _ = make_trainer(base, tmp_path)
        feed_sessions(buffer)
        seen = []
        stop = trainer.start_loop(0.02, on_snapshot=seen.append)
        deadline = time.monotonic() + 5.0
        while not seen and time.monotonic() < deadline:
            time.sleep(0.01)
        stop.set()
        assert seen and seen[0].exists()

    def test_start_loop_counts_the_errors_it_survives(self, base, tmp_path, monkeypatch):
        trainer, buffer, _ = make_trainer(base, tmp_path)
        feed_sessions(buffer)
        calls = []

        def failing_then_real():
            calls.append(None)
            if len(calls) <= 2:
                raise RuntimeError("backward() called on a tensor that does not require grad")
            return OnlineTrainer.snapshot(trainer)

        monkeypatch.setattr(trainer, "snapshot", failing_then_real)
        assert (trainer.loop_failures, trainer.last_loop_error) == (0, None)
        seen = []
        stop = trainer.start_loop(0.01, on_snapshot=seen.append)
        deadline = time.monotonic() + 5.0
        while not seen and time.monotonic() < deadline:
            time.sleep(0.01)
        stop.set()
        assert seen, "the loop stopped after the errors"
        assert trainer.loop_failures == 2
        assert trainer.last_loop_error.startswith("RuntimeError: backward() called")
