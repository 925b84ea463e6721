"""The reference answers the workloads check the program against."""

import numpy as np

import wl_ingest
import wl_serve
from repro.data import ItemVocab


def test_serve_reference_session_merges_successive_items_and_truncates():
    vocab = ItemVocab.from_ordered([100, 200, 300])
    example = wl_serve.expected_example([(100, 1), (100, 4), (300, 2), (100, 0)], vocab)
    assert example.macro_items == [1, 3, 1]
    assert example.op_sequences == [[1, 4], [2], [0]]
    long = [(100 if i % 2 else 200, i % 5) for i in range(50)]
    assert len(wl_serve.expected_example(long, vocab).macro_items) == wl_serve.MAX_MACRO_LEN


def test_metrics_scrape_reads_plain_samples_only():
    text = '# HELP a b\n# TYPE a counter\na 3\nlat_bucket{le="1"} 5\nlat_sum 2.5\nrate 0.25\n'
    assert wl_serve.scrape(text) == {"a": 3.0, "lat_sum": 2.5, "rate": 0.25}


def test_ingest_reference_example_filters_merges_and_splits_off_the_target(tmp_path):
    offsets = np.array([0, 5, 7])
    items = np.array([1001, 1001, 1002, 1009, 1003, 1002, 1002])
    ops = np.array([0, 1, 2, 3, 4, 5, 6])
    state = wl_ingest.State(tmp_path, tmp_path / "x", offsets, items, ops)
    keep = np.zeros(1010, dtype=bool)
    keep[[1001, 1002, 1003]] = True  # 1009 is below min support
    dense_of = {1001: 1, 1002: 2, 1003: 3}
    assert wl_ingest.expected_example(state, 0, keep, dense_of) == ([1, 2], [[0, 1], [2]], 3)
    assert wl_ingest.expected_example(state, 1, keep, dense_of) is None  # one macro step only


def test_generated_jsonl_round_trips_through_the_programs_reader(tmp_path):
    from repro.data import iter_sessions_jsonl

    offsets, items, ops = wl_ingest.generate_events(seed=5, sessions=50)
    again = wl_ingest.generate_events(seed=5, sessions=50)
    assert all(np.array_equal(a, b) for a, b in zip((offsets, items, ops), again))
    path = tmp_path / "s.jsonl"
    wl_ingest.write_jsonl(path, offsets, items, ops)
    sessions = list(iter_sessions_jsonl(path))
    assert len(sessions) == 50
    assert [x.item for x in sessions[3].interactions] == items[offsets[3] : offsets[4]].tolist()
    assert [x.operation for x in sessions[3].interactions] == ops[offsets[3] : offsets[4]].tolist()
    assert np.all(np.diff(offsets) >= 2)
