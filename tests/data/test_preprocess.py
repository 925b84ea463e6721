"""Unit tests for preprocessing: filtering, splitting, vocab, views."""

import dataclasses

import numpy as np
import pytest

from repro.data import (
    JD_OPERATIONS,
    Interaction,
    ItemVocab,
    MacroSession,
    Session,
    augment_prefixes,
    generate_dataset,
    jd_appliances_config,
    prepare_dataset,
    single_operation_view,
)
from repro.data.packed import PackedSplit
from repro.eval import ExperimentConfig, ExperimentRunner


@pytest.fixture(scope="module")
def dataset():
    cfg = jd_appliances_config()
    sessions = generate_dataset(cfg, 800, seed=2)
    return prepare_dataset(sessions, cfg.operations, name="jd", min_support=5)


class TestItemVocab:
    def test_dense_one_based(self):
        vocab = ItemVocab([10, 99, 10, 3])
        assert len(vocab) == 3
        assert vocab.num_ids == 4
        assert sorted(vocab.encode(r) for r in (3, 10, 99)) == [1, 2, 3]

    def test_roundtrip(self):
        vocab = ItemVocab([5, 7])
        for raw in (5, 7):
            assert vocab.decode(vocab.encode(raw)) == raw

    def test_contains(self):
        vocab = ItemVocab([5])
        assert 5 in vocab and 6 not in vocab


class TestPrepareDataset:
    def test_split_fractions(self, dataset):
        total = len(dataset.train) + len(dataset.validation) + len(dataset.test)
        assert len(dataset.train) / total == pytest.approx(0.7, abs=0.05)
        assert len(dataset.test) / total == pytest.approx(0.2, abs=0.05)

    def test_invalid_split_rejected(self):
        with pytest.raises(ValueError):
            prepare_dataset([], JD_OPERATIONS, split=(0.5, 0.5, 0.5))

    def test_targets_valid_dense_ids(self, dataset):
        for split in dataset.splits().values():
            for ex in split:
                assert 1 <= ex.target <= dataset.num_items

    def test_no_single_item_sessions(self, dataset):
        for ex in dataset.train:
            assert len(ex) >= 1  # input after target removal

    def test_target_not_last_input_item(self, dataset):
        for ex in dataset.test:
            assert ex.target != ex.macro_items[-1]

    def test_min_support_filters_rare_items(self):
        # Item 1 appears once; sessions keep only frequent items.
        sessions = [
            Session([Interaction(1, 0), Interaction(2, 0), Interaction(3, 0)]),
        ] + [
            Session([Interaction(2, 0), Interaction(3, 0)], session_id=i)
            for i in range(1, 12)
        ]
        ds = prepare_dataset(sessions, JD_OPERATIONS, min_support=5, seed=0)
        assert ds.num_items == 2  # items 2 and 3 survive

    def test_max_macro_len_truncates_keeping_recent(self):
        interactions = [Interaction(i, 0) for i in range(30)]
        # Repeat the corpus so nothing is filtered by support.
        sessions = [Session(list(interactions), session_id=i) for i in range(20)]
        ds = prepare_dataset(sessions, JD_OPERATIONS, min_support=1, max_macro_len=5)
        for ex in ds.train:
            assert len(ex) == 5
            # Most recent items kept: positions 24..28 (29 is the target).
            assert ex.macro_items[-1] == ds.vocab.encode(28)


class TestAugmentPrefixes:
    def test_counts(self):
        ex = MacroSession([1, 2, 3], [[0], [1], [0]], target=4)
        out = augment_prefixes([ex])
        # original + prefixes of length 1 and 2
        assert len(out) == 3
        assert out[1].macro_items == [1] and out[1].target == 2
        assert out[2].macro_items == [1, 2] and out[2].target == 3

    def test_original_preserved_first(self):
        ex = MacroSession([1, 2], [[0], [1]], target=9)
        out = augment_prefixes([ex])
        assert out[0] is ex


class TestSingleOperationView:
    def test_keeps_only_requested_ops(self):
        ex = MacroSession([1, 2, 3], [[0, 5], [4], [0]], target=7)
        view = single_operation_view([ex], JD_OPERATIONS, keep_ops={0})
        assert view[0].macro_items == [1, 3]
        assert view[0].op_sequences == [[0], [0]]

    def test_target_unchanged(self):
        ex = MacroSession([1, 2], [[4], [0]], target=7)
        view = single_operation_view([ex], JD_OPERATIONS, keep_ops={0})
        assert view[0].target == 7

    def test_empty_filter_falls_back_to_last_step(self):
        ex = MacroSession([1, 2], [[4], [5]], target=7)
        view = single_operation_view([ex], JD_OPERATIONS, keep_ops={0})
        assert view[0].macro_items == [2]
        assert view[0].op_sequences == [[5]]

    def test_view_replaces_splits_a_neural_model_trains_on(self, dataset):
        # Supp. Table I swaps every split of a prepared dataset for its view.
        view = dataclasses.replace(dataset, **{
            name: single_operation_view(split, dataset.operations, keep_ops={0})
            for name, split in dataset.splits().items()
        })
        assert all(isinstance(split, PackedSplit) for split in view.splits().values())
        assert view.fingerprint != dataset.fingerprint
        metrics = ExperimentRunner(view, ExperimentConfig(dim=8, epochs=1, seed=0)).run("STAMP").metrics
        assert np.isfinite(list(metrics.values())).all()
