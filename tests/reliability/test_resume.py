"""Crash-safe training: kill the process mid-run, resume bit-identically."""

import json

import numpy as np
import pytest

from repro import reliability as rel
from repro.core import EMBSRConfig, build_sgnn_self
from repro.eval import TrainConfig, Trainer
from repro.reliability import (
    TRAINING_STATE_FORMAT_VERSION,
    TrainingStateError,
    load_training_state,
)

TRAIN = dict(epochs=3, lr=0.01, seed=1)


def new_model(dataset):
    cfg = EMBSRConfig(
        num_items=dataset.num_items, num_ops=dataset.num_operations, dim=12, seed=0
    )
    return build_sgnn_self(cfg)


def batches_per_epoch(dataset, batch_size=64):
    return (len(dataset.train) + batch_size - 1) // batch_size


def rewrite_meta(path, edit):
    """Apply ``edit`` to the JSON metadata of a state archive in place."""
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    meta = json.loads(arrays["__meta__"].tobytes().decode())
    edit(meta)
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


def _drop_objective(meta):
    del meta["config"]["objective"], meta["config"]["cl_weight"], meta["epoch_components"]


# What states written before the format stamp carried, by vintage; each
# also lacks ``format_version``.
OLDER_FORMATS = {
    "unversioned": lambda meta: None,
    "rng_states": lambda meta: meta.update(rng_states={"dropout": {"bit_generator": "PCG64"}}),
    "bucket_lengths": lambda meta: meta["config"].update(bucket_lengths=True),
    "pre_objective": _drop_objective,
}


def assert_same_params(a, b):
    assert a.keys() == b.keys()
    for name in a:
        assert np.array_equal(a[name], b[name]), f"parameter {name} differs"


class TestKillAndResume:
    def test_mid_epoch_kill_resume_is_bit_identical(self, dataset, tmp_path):
        """The acceptance criterion: kill -9 mid-epoch, resume, and end with
        exactly the parameters an uninterrupted run produces."""
        baseline = Trainer(new_model(dataset), TrainConfig(**TRAIN))
        baseline.fit(dataset)

        per_epoch = batches_per_epoch(dataset)
        assert per_epoch >= 2, "dataset too small to crash mid-epoch"
        # Crash in the middle of epoch 1, with a checkpoint after every batch.
        crash_after = per_epoch + max(1, per_epoch // 2)
        state_path = tmp_path / "train_state.npz"
        reliable = TrainConfig(**TRAIN, checkpoint_path=str(state_path), checkpoint_every=1)

        crashed = Trainer(new_model(dataset), reliable)
        rel.arm("trainer.after_batch", rel.crashing(), skip=crash_after)
        with pytest.raises(rel.SimulatedCrash):
            crashed.fit(dataset)
        rel.disarm("trainer.after_batch")
        assert state_path.exists()

        resumed = Trainer(new_model(dataset), reliable)
        resumed.resume(dataset, state_path)

        assert_same_params(baseline.model.state_dict(), resumed.model.state_dict())
        assert [(h.epoch, h.train_loss, h.valid_metric) for h in baseline.history] == [
            (h.epoch, h.train_loss, h.valid_metric) for h in resumed.history
        ]

    def test_epoch_boundary_kill_resume_is_bit_identical(self, dataset, tmp_path):
        baseline = Trainer(new_model(dataset), TrainConfig(**TRAIN))
        baseline.fit(dataset)

        state_path = tmp_path / "train_state.npz"
        reliable = TrainConfig(**TRAIN, checkpoint_path=str(state_path))
        crashed = Trainer(new_model(dataset), reliable)
        rel.arm("trainer.after_epoch", rel.crashing(), skip=1)  # die after epoch 1
        with pytest.raises(rel.SimulatedCrash):
            crashed.fit(dataset)
        rel.disarm("trainer.after_epoch")

        resumed = Trainer(new_model(dataset), reliable)
        resumed.resume(dataset, state_path)
        assert_same_params(baseline.model.state_dict(), resumed.model.state_dict())

    def test_resume_via_config_field(self, dataset, tmp_path):
        """``TrainConfig.resume_from`` makes ``fit`` itself resume — the
        path the CLI's ``--resume`` flag uses."""
        state_path = tmp_path / "train_state.npz"
        reliable = TrainConfig(**TRAIN, checkpoint_path=str(state_path), checkpoint_every=1)
        crashed = Trainer(new_model(dataset), reliable)
        rel.arm("trainer.after_batch", rel.crashing(), skip=2)
        with pytest.raises(rel.SimulatedCrash):
            crashed.fit(dataset)
        rel.disarm("trainer.after_batch")

        cfg = TrainConfig(
            **TRAIN, checkpoint_path=str(state_path), checkpoint_every=1,
            resume_from=str(state_path),
        )
        resumed = Trainer(new_model(dataset), cfg)
        resumed.fit(dataset)
        baseline = Trainer(new_model(dataset), TrainConfig(**TRAIN)).fit(dataset)
        assert_same_params(baseline.model.state_dict(), resumed.model.state_dict())


class TestStateFile:
    def test_checkpoint_written_at_epoch_ends(self, dataset, tmp_path):
        state_path = tmp_path / "train_state.npz"
        cfg = TrainConfig(epochs=2, lr=0.01, seed=1, checkpoint_path=str(state_path))
        Trainer(new_model(dataset), cfg).fit(dataset)
        state = load_training_state(state_path)
        assert state.epoch == 2 and state.batch_index == 0
        assert state.global_step == 2 * batches_per_epoch(dataset)
        assert len(state.history) == 2
        assert state.best_state is not None
        assert state.config["seed"] == 1

    def test_corrupt_archive_is_rejected(self, tmp_path):
        bogus = tmp_path / "bogus.npz"
        np.savez(bogus, junk=np.zeros(3))
        with pytest.raises(ValueError, match="training-state archive"):
            load_training_state(bogus)


class TestResumeValidation:
    def test_mismatched_critical_config_is_rejected(self, dataset, tmp_path):
        state_path = tmp_path / "train_state.npz"
        cfg = TrainConfig(epochs=1, lr=0.01, seed=1, checkpoint_path=str(state_path))
        Trainer(new_model(dataset), cfg).fit(dataset)

        drifted = TrainConfig(epochs=1, lr=0.5, seed=2, checkpoint_path=str(state_path))
        with pytest.raises(ValueError, match="config mismatch") as excinfo:
            Trainer(new_model(dataset), drifted).resume(dataset, state_path)
        assert "lr" in str(excinfo.value) and "seed" in str(excinfo.value)

    @pytest.mark.parametrize("vintage", sorted(OLDER_FORMATS))
    def test_older_format_state_is_refused(self, vintage, dataset, tmp_path):
        """States from before the format stamp trained ``grad_shards = 1`` on
        persistent dropout streams that no longer exist: whatever else they
        carry, resume refuses them with both versions named."""
        state_path = tmp_path / "train_state.npz"
        cfg = TrainConfig(epochs=1, lr=0.01, seed=1, checkpoint_path=str(state_path))
        Trainer(new_model(dataset), cfg).fit(dataset)
        def vintage_meta(meta):
            del meta["format_version"]
            OLDER_FORMATS[vintage](meta)

        rewrite_meta(state_path, vintage_meta)

        trainer = Trainer(new_model(dataset), cfg)
        current = f"v{TRAINING_STATE_FORMAT_VERSION}"
        with pytest.raises(TrainingStateError, match=f"format v1; this build reads {current}"):
            trainer.resume(dataset, state_path)
        assert trainer.history == []

    def test_extending_epochs_is_allowed(self, dataset, tmp_path):
        """epochs is deliberately non-critical: a finished run can continue."""
        state_path = tmp_path / "train_state.npz"
        short = TrainConfig(epochs=1, lr=0.01, seed=1, checkpoint_path=str(state_path))
        Trainer(new_model(dataset), short).fit(dataset)

        longer = TrainConfig(epochs=2, lr=0.01, seed=1, checkpoint_path=str(state_path))
        extended = Trainer(new_model(dataset), longer)
        extended.resume(dataset, state_path)
        assert len(extended.history) == 2
