"""Bit-identity of N-worker training against the single-process reference.

The determinism contract (docs/performance.md, "Parallelism") promises that
for a fixed ``grad_shards`` grid the final parameters are *bitwise* equal for
every worker count, and therefore so is every downstream metric. These tests
hold the grid at G=4 and sweep N over {1, 2, 4} for EMBSR and one baseline
(NARM), in both float32 and float64.
"""

import numpy as np
import pytest

from repro.eval import ExperimentConfig, ExperimentRunner, evaluate_scores

GRAD_SHARDS = 4
MODELS = ["EMBSR", "NARM"]
DTYPES = ["float64", "float32"]


def _fit(dataset, model_name, dtype, workers):
    """Train one model and return (state_dict, test metrics, epoch history)."""
    config = ExperimentConfig(
        dim=16,
        epochs=2,
        batch_size=32,
        seed=3,
        dtype=dtype,
        workers=workers,
        grad_shards=GRAD_SHARDS,
    )
    runner = ExperimentRunner(dataset, config)
    recommender = runner.build(model_name)
    recommender.fit(dataset)
    state = {k: v.copy() for k, v in recommender.model.state_dict().items()}
    scores, targets = runner.score_on_test(recommender)
    metrics = evaluate_scores(scores, targets, ks=config.ks)
    history = [(h.epoch, h.train_loss, h.valid_metric) for h in recommender.trainer.history]
    return state, metrics, history


@pytest.fixture(scope="module")
def reference(dataset):
    """Lazily-cached single-process (workers=1) runs, keyed by (model, dtype)."""
    cache = {}

    def get(model_name, dtype):
        key = (model_name, dtype)
        if key not in cache:
            cache[key] = _fit(dataset, model_name, dtype, workers=1)
        return cache[key]

    return get


def _assert_bit_identical(dataset, reference, model_name, dtype, workers):
    ref_state, ref_metrics, ref_history = reference(model_name, dtype)
    state, metrics, history = _fit(dataset, model_name, dtype, workers=workers)

    assert set(state) == set(ref_state)
    for name in sorted(ref_state):
        assert state[name].dtype == ref_state[name].dtype, name
        assert np.array_equal(state[name], ref_state[name]), (
            f"{model_name}/{dtype}: parameter {name!r} diverged at "
            f"workers={workers}, max|Δ|="
            f"{np.max(np.abs(state[name] - ref_state[name])):.3e}"
        )
    # Identical parameters must yield identical HR@K / MRR@K — compared
    # exactly, not approximately.
    assert metrics == ref_metrics
    # Per-epoch losses and validation metrics (which drive model selection)
    # must also match exactly, so early stopping picks the same epoch.
    assert history == ref_history


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("model_name", MODELS)
def test_two_workers_bit_identical(dataset, reference, model_name, dtype):
    _assert_bit_identical(dataset, reference, model_name, dtype, workers=2)


@pytest.mark.slow
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("model_name", MODELS)
def test_four_workers_bit_identical(dataset, reference, model_name, dtype):
    _assert_bit_identical(dataset, reference, model_name, dtype, workers=4)


def test_workers_clamped_to_grid(dataset):
    """workers > grad_shards is clamped, not an error: W_eff = min(N, G)."""
    config = ExperimentConfig(
        dim=16, epochs=1, batch_size=32, seed=3, workers=8, grad_shards=2
    )
    runner = ExperimentRunner(dataset, config)
    recommender = runner.build("EMBSR")
    recommender.fit(dataset)  # must not raise, must clean up its segments
    assert recommender.trainer.history


@pytest.mark.parametrize("epochs", [1, 3])
def test_bare_trainer_trains_in_its_config_dtype(dataset, epochs):
    """A ``Trainer`` built by hand around a float32 module (no recommender
    entering the dtype for it) trains in ``TrainConfig.dtype``: the
    in-process shard loop and forked workers agree bitwise, loss for loss."""
    from repro.eval import TrainConfig, Trainer
    from repro.registry import build_module, spec_for

    spec = spec_for(
        "SGNN-Self", num_items=dataset.num_items, num_ops=dataset.num_operations, dim=12
    )
    runs = []
    for workers in (1, 2):
        config = TrainConfig(
            epochs=epochs, lr=0.01, seed=1, dtype="float32", grad_shards=2, workers=workers
        )
        trainer = Trainer(build_module(spec), config).fit(dataset)
        runs.append((trainer.model.state_dict(), [h.train_loss for h in trainer.history]))
    (serial, serial_losses), (forked, forked_losses) = runs
    assert serial_losses == forked_losses
    for name in sorted(serial):
        assert serial[name].dtype == np.float32, name
        assert np.array_equal(serial[name], forked[name]), f"parameter {name} differs"
