"""Tests for dataset statistics (the Table II analogue)."""

import pytest

from repro.data import (
    Interaction,
    MacroSession,
    Session,
    compute_stats,
    generate_dataset,
    jd_appliances_config,
    prepare_dataset,
)
from repro.data.preprocess import ItemVocab
from repro.data.schema import JD_OPERATIONS

from .prepare_oracle import ObjectDataset, pack


class TestComputeStats:
    def test_counts_all_splits(self):
        vocab = ItemVocab([1, 2, 3])
        ex = MacroSession([1, 2], [[0], [1, 2]], target=3)
        ds = pack(ObjectDataset(
            name="toy",
            train=[ex],
            validation=[ex],
            test=[ex, ex],
            vocab=vocab,
            operations=JD_OPERATIONS,
        ))
        stats = compute_stats(ds)
        assert stats.num_train == 1
        assert stats.num_validation == 1
        assert stats.num_test == 2
        assert stats.num_items == 3
        # 3 micro-behaviors per example x 4 examples.
        assert stats.num_micro_behaviors == 12
        assert stats.avg_macro_len == pytest.approx(2.0)
        assert stats.avg_ops_per_item == pytest.approx(1.5)

    def test_as_row_keys(self):
        cfg = jd_appliances_config()
        ds = prepare_dataset(generate_dataset(cfg, 120, seed=5), cfg.operations, min_support=2)
        row = compute_stats(ds).as_row()
        for key in ("# train", "# validation", "# test", "# items", "# micro-behavior"):
            assert key in row

    def test_empty_dataset_safe(self):
        ds = pack(ObjectDataset(
            name="empty",
            train=[],
            validation=[],
            test=[],
            vocab=ItemVocab([]),
            operations=JD_OPERATIONS,
        ))
        stats = compute_stats(ds)
        assert stats.avg_macro_len == 0
        assert stats.avg_ops_per_item == 0
