"""Tests for the future-work extensions (op importance, op filtering)."""

import dataclasses

import numpy as np
import pytest

from repro import nn
from repro.autograd import no_grad
from repro.core import (
    EMBSRConfig,
    OperationImportance,
    WeightedOpEMBSR,
    build_embsr_weighted_ops,
    filter_operations,
)
from repro.data import MacroSession, collate, generate_dataset, jd_appliances_config, prepare_dataset
from repro.data.packed import PackedSplit
from repro.eval import ExperimentConfig, ExperimentRunner


@pytest.fixture
def config():
    return EMBSRConfig(num_items=25, num_ops=5, dim=8, seed=0)


class TestOperationImportance:
    def test_initial_weights_are_one(self):
        imp = OperationImportance(num_ops=4)
        assert np.allclose(imp.values(), 1.0)

    def test_weights_bounded(self):
        imp = OperationImportance(num_ops=4)
        imp.scores.data = np.array([-100.0, 0.0, 100.0, 1.0, -1.0])
        values = imp.values()
        assert (values >= 0).all() and (values <= 2).all()
        assert values[0] < 0.01 and values[2] > 1.99

    def test_forward_shape(self):
        imp = OperationImportance(num_ops=4)
        out = imp(np.array([[1, 2], [0, 3]]))
        assert out.shape == (2, 2, 1)

    def test_gradient_flows(self):
        imp = OperationImportance(num_ops=4)
        out = imp(np.array([1, 2, 2]))
        out.sum().backward()
        assert imp.scores.grad is not None
        assert imp.scores.grad[2] != 0


class TestWeightedOpEMBSR:
    def test_forward_backward(self, config):
        model = build_embsr_weighted_ops(config)
        assert isinstance(model, WeightedOpEMBSR)
        batch = collate([MacroSession([1, 2], [[1, 2], [3]], target=4)])
        logits = model(batch)
        assert logits.shape == (1, config.num_items)
        loss = nn.cross_entropy(logits, batch.target_classes)
        loss.backward()
        assert model.op_importance.scores.grad is not None

    def test_importance_changes_scores(self, config):
        model = build_embsr_weighted_ops(config)
        model.eval()
        batch = collate([MacroSession([1, 2], [[1, 2], [3]], target=4)])
        with no_grad():
            base = model(batch).data
        model.op_importance.scores.data = np.array([0.0, 5.0, -5.0, 0.0, 0.0, 0.0])
        with no_grad():
            changed = model(batch).data
        assert not np.allclose(base, changed)

    def test_neutral_importance_matches_base_behaviour(self, config):
        """At init (all weights = 1) the extension equals plain EMBSR."""
        from repro.core import build_embsr

        weighted = build_embsr_weighted_ops(config)
        plain = build_embsr(config)
        # The wrapper inserts ".base" into the op-embedding key paths and
        # adds the importance scores; map the names back for the plain model.
        state = {
            k: v
            for k, v in weighted.state_dict().items()
            if not k.startswith("op_importance") and ".base." not in k
            and ".importance." not in k
        }
        plain.load_state_dict(state)
        batch = collate([MacroSession([1, 2, 1], [[1], [2, 3], [4]], target=5)])
        weighted.eval()
        plain.eval()
        with no_grad():
            assert np.allclose(weighted(batch).data, plain(batch).data)


class TestFilterOperations:
    def test_drops_requested_ops(self):
        ex = MacroSession([1, 2], [[0, 3], [3]], target=5)
        out = filter_operations([ex], drop_ops={3})
        assert out[0].op_sequences[0] == [0]

    def test_empty_chain_keeps_placeholder(self):
        ex = MacroSession([1], [[3, 3]], target=5)
        out = filter_operations([ex], drop_ops={3})
        assert out[0].op_sequences == [[3]]  # placeholder: original first op

    def test_items_and_target_untouched(self):
        ex = MacroSession([1, 2, 3], [[0], [1], [2]], target=9)
        out = filter_operations([ex], drop_ops={1})
        assert out[0].macro_items == ex.macro_items
        assert out[0].target == ex.target

    def test_original_not_mutated(self):
        ex = MacroSession([1], [[0, 1]], target=5)
        filter_operations([ex], drop_ops={1})
        assert ex.op_sequences == [[0, 1]]

    def test_filtered_splits_train_embsr(self):
        # The op-weighting extension retrains EMBSR on every split filtered.
        cfg = jd_appliances_config()
        dataset = prepare_dataset(generate_dataset(cfg, 200, seed=3), cfg.operations, min_support=2)
        filtered = dataclasses.replace(dataset, **{
            name: filter_operations(split, drop_ops={1}) for name, split in dataset.splits().items()
        })
        assert all(isinstance(split, PackedSplit) for split in filtered.splits().values())
        assert filtered.fingerprint != dataset.fingerprint
        metrics = ExperimentRunner(filtered, ExperimentConfig(dim=8, epochs=1, seed=0)).run("EMBSR").metrics
        assert np.isfinite(list(metrics.values())).all()
