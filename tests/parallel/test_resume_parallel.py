"""Checkpoint/resume across worker counts.

The contract: a run checkpointed under N workers resumes at *any* worker
count to bit-identical parameters, because the checkpoint records the
``grad_shards`` grid (the thing that defines the math) and the worker
count is explicitly non-critical (it only changes wall-clock). See
docs/performance.md, "Parallelism".
"""

import numpy as np
import pytest

from repro import reliability as rel
from repro.core import EMBSRConfig, build_sgnn_self
from repro.eval import TrainConfig, Trainer
from repro.reliability import load_training_state

TRAIN = dict(epochs=3, lr=0.01, seed=1)


def new_model(dataset):
    cfg = EMBSRConfig(
        num_items=dataset.num_items, num_ops=dataset.num_operations, dim=12, seed=0
    )
    return build_sgnn_self(cfg)


def batches_per_epoch(dataset, batch_size=64):
    return (len(dataset.train) + batch_size - 1) // batch_size


def assert_same_params(a, b):
    assert a.keys() == b.keys()
    for name in a:
        assert np.array_equal(a[name], b[name]), f"parameter {name} differs"


def crashed_checkpoint(dataset, path, *, workers, grad_shards):
    """Train under (workers, grad_shards), crash mid-epoch-1, leave a state file."""
    per_epoch = batches_per_epoch(dataset)
    crash_after = per_epoch + max(1, per_epoch // 2)
    cfg = TrainConfig(
        **TRAIN,
        checkpoint_path=str(path),
        checkpoint_every=1,
        workers=workers,
        grad_shards=grad_shards,
    )
    trainer = Trainer(new_model(dataset), cfg)
    rel.arm("trainer.after_batch", rel.crashing(), skip=crash_after)
    with pytest.raises(rel.SimulatedCrash):
        trainer.fit(dataset)
    rel.disarm("trainer.after_batch")
    assert path.exists()


@pytest.fixture(scope="module")
def baseline(dataset):
    """The uninterrupted single-process run on the G=2 grid."""
    trainer = Trainer(new_model(dataset), TrainConfig(**TRAIN, workers=1, grad_shards=2))
    trainer.fit(dataset)
    return trainer


class TestResumeAcrossWorkerCounts:
    def test_checkpoint_at_two_workers_resumes_serially(self, dataset, tmp_path, baseline):
        state_path = tmp_path / "state.npz"
        crashed_checkpoint(dataset, state_path, workers=2, grad_shards=2)

        # workers=1, grad_shards=0 (auto): adopts the checkpoint's grid.
        resumed = Trainer(
            new_model(dataset), TrainConfig(**TRAIN, workers=1, grad_shards=0)
        )
        resumed.resume(dataset, state_path)

        assert_same_params(baseline.model.state_dict(), resumed.model.state_dict())
        assert [(h.epoch, h.train_loss, h.valid_metric) for h in baseline.history] == [
            (h.epoch, h.train_loss, h.valid_metric) for h in resumed.history
        ]

    def test_checkpoint_serial_resumes_at_two_workers(self, dataset, tmp_path, baseline):
        state_path = tmp_path / "state.npz"
        crashed_checkpoint(dataset, state_path, workers=1, grad_shards=2)

        resumed = Trainer(
            new_model(dataset), TrainConfig(**TRAIN, workers=2, grad_shards=2)
        )
        resumed.resume(dataset, state_path)
        assert_same_params(baseline.model.state_dict(), resumed.model.state_dict())


class TestGridValidation:
    def test_checkpoint_records_the_resolved_grid(self, dataset, tmp_path):
        state_path = tmp_path / "state.npz"
        cfg = TrainConfig(
            epochs=1, lr=0.01, seed=1, checkpoint_path=str(state_path),
            workers=2, grad_shards=0,  # auto resolves to the worker count
        )
        Trainer(new_model(dataset), cfg).fit(dataset)
        state = load_training_state(state_path)
        assert state.config["grad_shards"] == 2
        # workers is recorded for information but is not resume-critical.
        assert state.config["workers"] == 2

    def test_explicit_grid_mismatch_is_rejected(self, dataset, tmp_path):
        state_path = tmp_path / "state.npz"
        crashed_checkpoint(dataset, state_path, workers=1, grad_shards=2)

        drifted = TrainConfig(**TRAIN, workers=1, grad_shards=4)
        with pytest.raises(ValueError, match="config mismatch") as excinfo:
            Trainer(new_model(dataset), drifted).resume(dataset, state_path)
        assert "grad_shards" in str(excinfo.value)
