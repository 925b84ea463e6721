"""Round-trip tests for Recommender.save / NeuralRecommender.from_artifact."""

import numpy as np
import pytest

from repro.data import generate_dataset, jd_appliances_config, prepare_dataset
from repro.data.dataset import collate
from repro.eval import ExperimentConfig, ExperimentRunner
from repro.eval.trainer import NeuralRecommender


@pytest.fixture(scope="module")
def dataset():
    cfg = jd_appliances_config()
    return prepare_dataset(
        generate_dataset(cfg, 200, seed=3), cfg.operations, min_support=2, name="jd"
    )


@pytest.fixture(scope="module")
def runner(dataset):
    return ExperimentRunner(dataset, ExperimentConfig(dim=8, epochs=1, seed=0))


class TestNeuralRoundTrip:
    def test_save_load_preserves_scores(self, dataset, runner, tmp_path):
        fitted = runner.run("STAMP").recommender
        path = tmp_path / "stamp.npz"
        fitted.save(path)
        assert path.exists()

        # The artifact alone restores the model — no training, no dataset.
        restored = NeuralRecommender.from_artifact(path)
        batch = collate(dataset.test[:16])
        np.testing.assert_allclose(
            fitted.score_batch(batch), restored.score_batch(batch), rtol=1e-6
        )

    def test_save_before_fit_fails(self, runner, tmp_path):
        with pytest.raises(RuntimeError):
            runner.build("STAMP").save(tmp_path / "nope.npz")


class TestNonParametric:
    def test_spop_opts_out(self, dataset, tmp_path):
        from repro.baselines import SPop

        spop = SPop().fit(dataset)
        with pytest.raises(NotImplementedError):
            spop.save(tmp_path / "spop.npz")
        assert not (tmp_path / "spop.npz").exists()
