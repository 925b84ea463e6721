"""Resume semantics of the objective seam: refusal on mismatch, component
round-trips, and bit-identical EMBSR-SSL crash recovery."""

import numpy as np
import pytest

from repro import reliability as rel
from repro.eval import TrainConfig, Trainer
from repro.registry import REGISTRY
from repro.reliability import load_training_state

TRAIN = dict(epochs=2, lr=0.01, seed=1, objective="ssl", cl_weight=0.1)


def new_model(dataset, seed=0):
    spec = REGISTRY.spec_for(
        "EMBSR-SSL",
        num_items=dataset.num_items,
        num_ops=dataset.num_operations,
        dim=12,
        seed=seed,
        dtype="float64",
    )
    model = REGISTRY.build_module(spec)
    return model


def batches_per_epoch(dataset, batch_size=64):
    return (len(dataset.train) + batch_size - 1) // batch_size


def assert_same_params(a, b):
    assert a.keys() == b.keys()
    for name in a:
        assert np.array_equal(a[name], b[name]), f"parameter {name} differs"


class TestObjectiveMismatchRefusal:
    def _crashed_state(self, dataset, tmp_path, **overrides):
        state_path = tmp_path / "train_state.npz"
        cfg = TrainConfig(
            **{**TRAIN, **overrides}, checkpoint_path=str(state_path), checkpoint_every=1
        )
        trainer = Trainer(new_model(dataset), cfg)
        rel.arm("trainer.after_batch", rel.crashing(), skip=2)
        with pytest.raises(rel.SimulatedCrash):
            trainer.fit(dataset)
        rel.disarm("trainer.after_batch")
        return state_path

    def test_resume_refuses_a_different_objective(self, dataset, tmp_path):
        state_path = self._crashed_state(dataset, tmp_path)
        other = Trainer(
            new_model(dataset), TrainConfig(epochs=2, lr=0.01, seed=1, objective="ce")
        )
        with pytest.raises(ValueError, match="objective.*saved='ssl'.*current='ce'"):
            other.resume(dataset, state_path)

    def test_resume_refuses_a_different_cl_weight(self, dataset, tmp_path):
        state_path = self._crashed_state(dataset, tmp_path)
        other = Trainer(
            new_model(dataset), TrainConfig(**{**TRAIN, "cl_weight": 0.5})
        )
        with pytest.raises(ValueError, match="cl_weight"):
            other.resume(dataset, state_path)


class TestComponentRoundTrip:
    def test_components_survive_the_state_archive(self, dataset, tmp_path):
        state_path = tmp_path / "train_state.npz"
        cfg = TrainConfig(
            **TRAIN, checkpoint_path=str(state_path), checkpoint_every=1
        )
        trainer = Trainer(new_model(dataset), cfg)
        rel.arm("trainer.after_batch", rel.crashing(), skip=2)
        with pytest.raises(rel.SimulatedCrash):
            trainer.fit(dataset)
        rel.disarm("trainer.after_batch")

        state = load_training_state(state_path)
        # One component dict per batch of the in-flight epoch, parallel to
        # the loss list and the batch cursor.
        assert len(state.epoch_components) == state.batch_index
        assert len(state.epoch_components) == len(state.epoch_losses)
        for comp in state.epoch_components:
            assert set(comp) == {"ce", "infonce"}
            assert all(isinstance(v, float) for v in comp.values())

    def test_history_components_round_trip(self, dataset):
        trainer = Trainer(new_model(dataset), TrainConfig(**TRAIN))
        trainer.fit(dataset)
        assert trainer.history
        for stats in trainer.history:
            assert set(stats.components) == {"ce", "infonce"}

    def test_ssl_crash_resume_is_bit_identical(self, dataset, tmp_path):
        """The full contract: kill mid-epoch under the composite objective,
        resume, and finish with the uninterrupted run's exact parameters.
        Exercises the (seed, epoch, batch) augmentation streams across the
        process boundary."""
        baseline = Trainer(new_model(dataset), TrainConfig(**TRAIN))
        baseline.fit(dataset)

        per_epoch = batches_per_epoch(dataset)
        assert per_epoch >= 2
        crash_after = max(1, per_epoch // 2)
        state_path = tmp_path / "train_state.npz"
        reliable = TrainConfig(**TRAIN, checkpoint_path=str(state_path), checkpoint_every=1)

        crashed = Trainer(new_model(dataset), reliable)
        rel.arm("trainer.after_batch", rel.crashing(), skip=crash_after)
        with pytest.raises(rel.SimulatedCrash):
            crashed.fit(dataset)
        rel.disarm("trainer.after_batch")

        resumed = Trainer(new_model(dataset), reliable)
        resumed.resume(dataset, state_path)
        assert_same_params(baseline.model.state_dict(), resumed.model.state_dict())
        assert [h.components for h in baseline.history] == [
            h.components for h in resumed.history
        ]
