"""Artifact bundles: save/load round trips for every system, both dtypes."""

import numpy as np
import pytest

from repro.artifacts import (
    ArtifactFormatError,
    ModelArtifact,
    load_artifact,
    load_recommender,
    save_artifact,
)
from repro.data import generate_dataset, jd_appliances_config, prepare_dataset
from repro.data.dataset import collate
from repro.eval import ExperimentConfig, ExperimentRunner, MODEL_NAMES
from repro.eval.trainer import NeuralRecommender
from repro.registry import spec_for

NEURAL_NAMES = [n for n in MODEL_NAMES if n not in ("S-POP", "SKNN")]
VARIANTS = ["EMBSR-NS", "SGNN-Self"]


@pytest.fixture(scope="module")
def dataset():
    cfg = jd_appliances_config()
    return prepare_dataset(
        generate_dataset(cfg, 180, seed=21), cfg.operations, min_support=2, name="jd"
    )


def fit_quick(dataset, name, dtype="float64"):
    """Build + 'fit' at zero epochs: initialized weights, full artifact path."""
    runner = ExperimentRunner(dataset, ExperimentConfig(dim=8, epochs=0, seed=0, dtype=dtype))
    return runner.run(name).recommender


class TestRoundTripAllSystems:
    @pytest.mark.parametrize("name", NEURAL_NAMES + VARIANTS)
    def test_scores_bit_identical(self, dataset, name, tmp_path):
        fitted = fit_quick(dataset, name)
        path = tmp_path / "model.npz"
        fitted.save(path)

        restored = NeuralRecommender.from_artifact(path)
        batch = collate(dataset.test[:12])
        np.testing.assert_array_equal(
            fitted.score_batch(batch), restored.score_batch(batch)
        )

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_both_dtypes_bit_identical(self, dataset, dtype, tmp_path):
        fitted = fit_quick(dataset, "EMBSR", dtype=dtype)
        path = tmp_path / "model.npz"
        fitted.save(path)
        restored = NeuralRecommender.from_artifact(path)
        batch = collate(dataset.test[:12])
        scores = restored.score_batch(batch)
        assert scores.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(fitted.score_batch(batch), scores)

    def test_nonparametric_save_message(self, dataset, tmp_path):
        runner = ExperimentRunner(dataset, ExperimentConfig(dim=8, epochs=0))
        for name in ("S-POP", "SKNN"):
            rec = runner.build(name).fit(dataset)
            with pytest.raises(NotImplementedError, match="non-parametric.*re-fit"):
                rec.save(tmp_path / "x.npz")


class TestBundleContents:
    def test_metadata_and_vocab(self, dataset, tmp_path):
        fitted = fit_quick(dataset, "EMBSR")
        path = tmp_path / "embsr.npz"
        fitted.save(path, metrics={"H@20": 42.0})
        bundle = load_artifact(path)

        assert bundle.spec.name == "EMBSR"
        assert bundle.spec.num_items == dataset.num_items
        assert bundle.metadata["metrics"]["H@20"] == 42.0
        assert bundle.metadata["dataset"]["name"] == "jd"
        assert len(bundle.metadata["dataset"]["fingerprint"]) == 16
        assert bundle.metadata["popularity"]  # non-empty ranking of raw ids
        # Vocabulary round-trips to the exact dense mapping.
        vocab = bundle.vocab()
        assert vocab.ordered_raw_ids() == dataset.vocab.ordered_raw_ids()

    def test_from_artifact_needs_no_dataset(self, dataset, tmp_path):
        """The acceptance criterion: path alone -> scoring recommender."""
        fitted = fit_quick(dataset, "STAMP")
        path = tmp_path / "stamp.npz"
        fitted.save(path)
        del fitted

        restored = load_recommender(path)
        assert restored.name == "STAMP"
        batch = collate(dataset.test[:4])
        assert restored.score_batch(batch).shape == (4, dataset.num_items)

    def test_inconsistent_bundle_rejected(self, dataset):
        spec = spec_for("STAMP", num_items=dataset.num_items, num_ops=dataset.num_operations)
        with pytest.raises(ValueError, match="inconsistent"):
            ModelArtifact(spec, {}, item_ids=[1, 2, 3]).validate()


class TestHeaderDtype:
    """An artifact's header ``spec.dtype`` names the dtype of its arrays."""

    @pytest.mark.parametrize("spec_dtype,train_dtype", [("float64", "float32"), ("float32", "float64")])
    def test_save_records_the_trained_dtype(self, dataset, tmp_path, spec_dtype, train_dtype):
        from repro import registry
        from repro.eval import TrainConfig

        spec = spec_for(
            "STAMP", num_items=dataset.num_items, num_ops=dataset.num_operations,
            dim=8, dtype=spec_dtype,
        )
        fitted = registry.build(spec, TrainConfig(epochs=1, dtype=train_dtype)).fit(dataset)
        path = tmp_path / "stamp.npz"
        fitted.save(path)
        bundle = load_artifact(path)
        assert bundle.spec.dtype == train_dtype
        assert {w.dtype for w in bundle.weights.values()} == {np.dtype(train_dtype)}
        restored = NeuralRecommender.from_artifact(path)
        batch = collate(dataset.test[:16])
        want = fitted.score_batch(batch)
        assert want.dtype == np.dtype(train_dtype)
        assert restored.score_batch(batch).tobytes() == want.tobytes()

    def test_save_artifact_casts_weights_to_spec_dtype(self, dataset, tmp_path):
        from repro.registry import build_module

        float64 = fit_quick(dataset, "STAMP", dtype="float64")
        spec = spec_for(
            "STAMP", num_items=dataset.num_items, num_ops=dataset.num_operations,
            dim=8, dtype="float32",
        )
        path = save_artifact(
            tmp_path / "stamp.npz",
            spec=spec,
            weights=float64.model.state_dict(),
            item_ids=dataset.vocab.ordered_raw_ids(),
        )
        bundle = load_artifact(path)
        assert {w.dtype for w in bundle.weights.values()} == {np.dtype(np.float32)}
        # build_module follows the spec, whatever the ambient dtype says.
        assert {p.data.dtype for p in build_module(spec).parameters()} == {np.dtype(np.float32)}
        assert {p.data.dtype for p in bundle.build_module().parameters()} == {np.dtype(np.float32)}


class TestCompatibility:
    def test_removed_train_keys_are_ignored(self, dataset, tmp_path):
        """Artifacts written while ``compile``/``bucket_lengths`` or
        ``packed``/``prefetch`` existed still carry the keys in
        ``spec.train``: they build and serve."""
        import dataclasses

        from repro.serving import ServingGateway

        fitted = fit_quick(dataset, "STAMP")
        path = tmp_path / "stamp.npz"
        fitted.save(path)
        old = load_artifact(path)
        train = dict(
            old.spec.train, compile=True, bucket_lengths=False, packed=True, prefetch=True
        )
        spec = dataclasses.replace(old.spec, train=train)
        save_artifact(
            path, spec=spec, weights=old.weights, item_ids=old.item_ids, metadata=old.metadata
        )
        assert load_artifact(path).spec.train["compile"] is True

        config = spec.train_config()
        assert not hasattr(config, "compile") and not hasattr(config, "bucket_lengths")
        assert not hasattr(config, "packed") and not hasattr(config, "prefetch")
        restored = NeuralRecommender.from_artifact(path)
        batch = collate(dataset.test[:8])
        np.testing.assert_array_equal(
            fitted.score_batch(batch), restored.score_batch(batch)
        )
        gateway = ServingGateway.from_artifact(path)
        gateway.batcher.start()
        try:
            gateway.ingest("s1", item=dataset.vocab.ordered_raw_ids()[0], operation=1)
            assert gateway.recommend("s1", k=5)["source"] == "model"
        finally:
            gateway.batcher.stop()

    def test_not_an_artifact_raises_cleanly(self, tmp_path):
        bare = tmp_path / "bare.npz"
        np.savez(bare, weights=np.zeros(3))
        with pytest.raises(ArtifactFormatError, match="not a model artifact"):
            load_artifact(bare)

    def test_cross_dtype_load_casts(self, dataset, tmp_path):
        """A float64 artifact's weights load into a float32 module (and cast)."""
        import dataclasses

        from repro.registry import build_module

        fitted = fit_quick(dataset, "STAMP", dtype="float64")
        path = tmp_path / "stamp.npz"
        fitted.save(path)
        bundle = load_artifact(path)
        model = build_module(dataclasses.replace(bundle.spec, dtype="float32"))
        model.load_state_dict(bundle.weights)
        assert {p.data.dtype for p in model.parameters()} == {np.dtype(np.float32)}
        for name, array in model.state_dict().items():
            np.testing.assert_array_equal(array, bundle.weights[name].astype(np.float32))


class TestGatewayFromArtifact:
    def test_gateway_boots_and_serves_without_dataset(self, dataset, tmp_path):
        """Artifact file -> full serving stack, in process, no dataset."""
        from repro.serving import ServingGateway

        fitted = fit_quick(dataset, "STAMP")
        path = tmp_path / "stamp.npz"
        fitted.save(path)

        gateway = ServingGateway.from_artifact(path)
        assert gateway.admission.fallback is not None  # popularity from metadata
        gateway.batcher.start()
        try:
            raw_item = dataset.vocab.ordered_raw_ids()[0]
            ingest = gateway.ingest("s1", item=raw_item, operation=1)
            assert ingest["applied"]
            result = gateway.recommend("s1", k=5)
            assert result["source"] == "model"
            assert len(result["items"]) == 5
        finally:
            gateway.batcher.stop()
