"""Tests for the dataset validator."""

import pytest

from repro.data import generate_dataset, jd_appliances_config, prepare_dataset
from repro.data.preprocess import ItemVocab
from repro.data.schema import JD_OPERATIONS, MacroSession
from repro.data.validation import validate_dataset

from .prepare_oracle import ObjectDataset, pack


def make_dataset(examples):
    return pack(ObjectDataset(
        name="toy",
        train=examples,
        validation=[],
        test=[],
        vocab=ItemVocab(list(range(100, 110))),  # 10 items -> dense 1..10
        operations=JD_OPERATIONS,
    ))


class TestValidateDataset:
    def test_generated_data_is_valid(self):
        cfg = jd_appliances_config()
        ds = prepare_dataset(generate_dataset(cfg, 200, seed=9), cfg.operations, min_support=2)
        report = validate_dataset(ds)
        assert report.ok, report.summary()

    def test_detects_leakage(self):
        ds = make_dataset([MacroSession([1, 2], [[0], [1]], target=2, session_id=7)])
        report = validate_dataset(ds)
        assert not report.ok
        assert any("leakage" in i.problem for i in report.issues)
        assert report.issues[0].session_id == 7

    def test_detects_out_of_range_item(self):
        ds = make_dataset([MacroSession([99], [[0]], target=1)])
        assert any("item 99" in i.problem for i in validate_dataset(ds).issues)

    def test_detects_out_of_range_target(self):
        ds = make_dataset([MacroSession([1], [[0]], target=11)])
        assert any("target 11" in i.problem for i in validate_dataset(ds).issues)

    def test_detects_bad_operation(self):
        ds = make_dataset([MacroSession([1], [[77]], target=2)])
        assert any("operation 77" in i.problem for i in validate_dataset(ds).issues)

    def test_detects_unmerged_duplicates(self):
        ds = make_dataset([MacroSession([1, 1], [[0], [0]], target=2)])
        assert any("merge_successive" in i.problem for i in validate_dataset(ds).issues)

    def test_detects_empty_op_chain(self):
        ds = make_dataset([MacroSession([1], [[]], target=2)])
        assert any("empty operation chain" in i.problem for i in validate_dataset(ds).issues)

    def test_raise_if_invalid(self):
        ds = make_dataset([MacroSession([1, 2], [[0], [1]], target=2)])
        with pytest.raises(ValueError):
            validate_dataset(ds).raise_if_invalid()

    def test_summary_truncates(self):
        bad = [MacroSession([99], [[0]], target=1, session_id=i) for i in range(30)]
        report = validate_dataset(make_dataset(bad))
        assert "more" in report.summary()
