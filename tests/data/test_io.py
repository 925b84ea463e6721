"""Tests for dataset I/O: CSV event logs, session JSONL and ``.rpk`` persistence."""

import numpy as np
import pytest

from repro.data import (
    EventLogFormat,
    generate_dataset,
    jd_appliances_config,
    load_event_log,
    load_packed,
    load_sessions_jsonl,
    load_trivago_log,
    prepare_dataset,
    save_sessions_jsonl,
)
from repro.data.schema import OperationVocab


class TestEventLogCSV:
    def _write_csv(self, tmp_path, rows, header="session_id,item_id,operation,timestamp"):
        path = tmp_path / "log.csv"
        path.write_text("\n".join([header] + rows) + "\n")
        return path

    def test_basic_load(self, tmp_path):
        path = self._write_csv(
            tmp_path,
            [
                "s1,10,click,3",
                "s1,10,cart,4",
                "s1,11,click,5",
                "s2,12,order,1",
            ],
        )
        sessions, vocab = load_event_log(path)
        assert len(sessions) == 2
        assert len(vocab) == 3
        s1 = sessions[0]
        assert [x.item for x in s1.interactions] == [10, 10, 11]

    def test_timestamp_ordering(self, tmp_path):
        path = self._write_csv(
            tmp_path,
            ["s1,20,click,9", "s1,10,click,1"],
        )
        sessions, _ = load_event_log(path)
        assert [x.item for x in sessions[0].interactions] == [10, 20]

    def test_fixed_vocab_drops_unknown_ops(self, tmp_path):
        path = self._write_csv(tmp_path, ["s1,10,click,1", "s1,11,weird,2"])
        vocab = OperationVocab(["click"])
        sessions, out_vocab = load_event_log(path, operations=vocab)
        assert out_vocab is vocab
        assert len(sessions[0]) == 1

    def test_custom_columns(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("sid;iid;act\nA;5;view\n")
        fmt = EventLogFormat(
            session_column="sid",
            item_column="iid",
            operation_column="act",
            timestamp_column=None,
            delimiter=";",
        )
        sessions, vocab = load_event_log(path, fmt=fmt)
        assert sessions[0].interactions[0].item == 5
        assert vocab.name_of(0) == "view"


class TestTrivagoCSV:
    def test_filters_non_item_references(self, tmp_path):
        path = tmp_path / "train.csv"
        path.write_text(
            "user_id,session_id,timestamp,step,action_type,reference\n"
            "u1,s1,1,1,search for destination,Paris\n"
            "u1,s1,2,2,interaction item image,101\n"
            "u1,s1,3,3,filter selection,cheap\n"
            "u1,s1,4,4,clickout item,102\n"
        )
        sessions, vocab = load_trivago_log(path)
        assert len(sessions) == 1
        items = [x.item for x in sessions[0].interactions]
        assert items == [101, 102]
        assert len(vocab) == 6  # the paper's six item-referencing actions


class TestJSONLRoundtrip:
    def test_sessions_roundtrip(self, tmp_path):
        cfg = jd_appliances_config()
        sessions = generate_dataset(cfg, 30, seed=3)
        path = tmp_path / "sessions.jsonl"
        save_sessions_jsonl(sessions, path)
        loaded = load_sessions_jsonl(path)
        assert len(loaded) == 30
        for a, b in zip(sessions, loaded):
            assert a.interactions == b.interactions
            assert a.session_id == b.session_id

    def test_prepared_dataset_roundtrip(self, tmp_path):
        cfg = jd_appliances_config()
        dataset = prepare_dataset(
            generate_dataset(cfg, 120, seed=4), cfg.operations, name="jd", min_support=2
        )
        path = tmp_path / "dataset.rpk"
        dataset.save(path)
        loaded = load_packed(path)
        assert loaded.name == dataset.name
        assert loaded.num_items == dataset.num_items
        assert len(loaded.train) == len(dataset.train)
        a, b = dataset.train[0], loaded.train[0]
        assert a.macro_items == b.macro_items
        assert a.op_sequences == b.op_sequences
        assert a.target == b.target
        # Vocab mapping preserved.
        for dense in range(1, dataset.num_items + 1):
            assert dataset.vocab.decode(dense) == loaded.vocab.decode(dense)
