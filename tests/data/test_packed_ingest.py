"""JSONL/CSV → packed ingest: equality with the eager path, bounded memory.

``pack_sessions_jsonl`` and ``pack_sessions_stream`` must reproduce
``prepare_dataset`` + ``pack_dataset`` array-for-array under the same seed —
same item-support filter, same vocabulary, same split permutation, same
example drops — while Python objects live only for the chunk being parsed.
"""

import gc
import json
import tracemalloc

import numpy as np
import pytest

from repro.data import (
    JD_OPERATIONS,
    generate_dataset,
    iter_event_log,
    iter_sessions_jsonl,
    jd_appliances_config,
    load_sessions_jsonl,
    pack_dataset,
    pack_sessions_jsonl,
    pack_sessions_stream,
    prepare_dataset,
    save_sessions_jsonl,
    trivago_config,
)

CSR_FIELDS = ("session_offsets", "macro_items", "op_offsets", "op_ids", "targets", "session_ids")


def assert_packed_equal(a, b):
    assert a.name == b.name
    assert np.array_equal(a.item_ids, b.item_ids)
    assert list(a.operations.names) == list(b.operations.names)
    for split_name in ("train", "validation", "test"):
        x, y = getattr(a, split_name), getattr(b, split_name)
        for field in CSR_FIELDS:
            assert np.array_equal(getattr(x, field), getattr(y, field)), (split_name, field)


@pytest.mark.parametrize("config_fn", [jd_appliances_config, trivago_config])
@pytest.mark.parametrize("min_support", [2, 5])
def test_stream_ingest_equals_eager_pipeline(tmp_path, config_fn, min_support):
    cfg = config_fn()
    sessions = generate_dataset(cfg, 400, seed=21)
    path = tmp_path / "sessions.jsonl"
    save_sessions_jsonl(sessions, path)

    eager = pack_dataset(
        prepare_dataset(
            sessions, cfg.operations, min_support=min_support, name=cfg.name, seed=3
        )
    )
    streamed = pack_sessions_jsonl(
        path, cfg.operations, min_support=min_support, name=cfg.name, seed=3
    )
    assert_packed_equal(eager, streamed)
    assert streamed.fingerprint == eager.fingerprint


def test_stream_ingest_fingerprint_skip(tmp_path):
    cfg = jd_appliances_config()
    sessions = generate_dataset(cfg, 100, seed=1)
    path = tmp_path / "sessions.jsonl"
    save_sessions_jsonl(sessions, path)
    packed = pack_sessions_jsonl(path, cfg.operations, min_support=2, fingerprint=False)
    assert packed.fingerprint == ""
    assert len(packed.train) > 0


def test_stream_ingest_rejects_bad_split():
    cfg = jd_appliances_config()
    with pytest.raises(ValueError, match="sum to 1"):
        pack_sessions_stream(lambda: [], cfg.operations, split=(0.5, 0.1, 0.1))


def test_iter_sessions_jsonl_matches_eager_loader(tmp_path):
    cfg = jd_appliances_config()
    sessions = generate_dataset(cfg, 50, seed=5)
    path = tmp_path / "sessions.jsonl"
    save_sessions_jsonl(sessions, path)
    eager = load_sessions_jsonl(path)
    streamed = list(iter_sessions_jsonl(path))
    assert len(eager) == len(streamed) == 50
    for a, b in zip(eager, streamed):
        assert a.session_id == b.session_id
        assert [(x.item, x.operation) for x in a.interactions] == [
            (x.item, x.operation) for x in b.interactions
        ]


def test_iter_sessions_jsonl_skips_blank_lines(tmp_path):
    path = tmp_path / "sessions.jsonl"
    path.write_text(
        '{"session_id": 0, "events": [[1, 0], [2, 1]]}\n'
        "\n"
        '{"session_id": 1, "events": [[3, 2]]}\n'
    )
    sessions = list(iter_sessions_jsonl(path))
    assert [s.session_id for s in sessions] == [0, 1]


def test_iter_event_log_streams_contiguous_sessions(tmp_path):
    """On a session-contiguous, time-ordered CSV the streaming loader yields
    the same sessions the eager grouped loader builds."""
    from repro.data import load_event_log
    from repro.data.schema import OperationVocab

    vocab = OperationVocab(["click", "cart", "order"])
    rows = ["session_id,item_id,operation,timestamp"]
    rng = np.random.default_rng(0)
    ts = 0
    for key in ("s00", "s01", "s02", "s03"):  # sorted keys, contiguous blocks
        for _ in range(int(rng.integers(1, 6))):
            rows.append(f"{key},{int(rng.integers(1, 30))},{vocab.names[int(rng.integers(0, 3))]},{ts}")
            ts += 1
    path = tmp_path / "log.csv"
    path.write_text("\n".join(rows) + "\n")

    eager, _ = load_event_log(path, operations=vocab)
    streamed = list(iter_event_log(path, operations=vocab))
    assert len(eager) == len(streamed)
    for a, b in zip(eager, streamed):
        assert a.session_id == b.session_id
        assert [(x.item, x.operation) for x in a.interactions] == [
            (x.item, x.operation) for x in b.interactions
        ]


def test_iter_event_log_requires_vocab(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("session_id,item_id,operation,timestamp\n")
    with pytest.raises(ValueError, match="OperationVocab"):
        list(iter_event_log(path))


def _write_corpus(path, sessions):
    """A Zipf-item corpus in the JSONL format, written straight from arrays."""
    rng = np.random.default_rng(4)
    lengths = np.clip(rng.geometric(1 / 8, sessions), 1, 40)
    weights = 1.0 / np.arange(1, 601)
    items = rng.choice(600, size=int(lengths.sum()), p=weights / weights.sum()) + 10_000
    ops = rng.integers(0, len(JD_OPERATIONS), items.size)
    events = np.stack([items, ops], axis=1).tolist()
    bounds = np.concatenate([[0], np.cumsum(lengths)]).tolist()
    with path.open("w") as handle:
        for sid in range(sessions):
            record = {"session_id": sid, "events": events[bounds[sid] : bounds[sid + 1]]}
            handle.write(json.dumps(record) + "\n")


def _traced_pack(path):
    """``(peak traced bytes, packed)`` of one pack under ``tracemalloc``."""
    gc.collect()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        packed = pack_sessions_jsonl(path, JD_OPERATIONS, min_support=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - base, packed


def test_pack_working_memory_does_not_grow_with_the_corpus(tmp_path):
    """Traced peak minus the output's bytes, at 5,000 and 20,000 sessions.

    Beyond its output a pack holds one chunk's JSON objects, the
    fingerprint's chunk of tokens and the parsed corpus as compact codes
    (a few bytes per event). From 5,000 to 20,000 sessions that working
    set may grow by at most half of what the output grows by: a reader
    that kept ``Session`` objects (~10x the output) or a pool copied into
    the splits (1x) fails this."""
    overhead, nbytes = {}, {}
    for sessions in (5_000, 20_000):
        path = tmp_path / f"s{sessions}.jsonl"
        _write_corpus(path, sessions)
        peak, packed = _traced_pack(path)
        nbytes[sessions] = packed.nbytes()
        overhead[sessions] = peak - nbytes[sessions]
        del packed
    growth = overhead[20_000] - overhead[5_000]
    assert growth <= 0.5 * (nbytes[20_000] - nbytes[5_000]), (overhead, nbytes)
    assert overhead[20_000] < nbytes[20_000], (overhead, nbytes)


def test_repeated_packs_retain_no_traced_memory(tmp_path):
    """Once warm-up packs have filled NumPy's bounded small-allocation
    caches, thirty more packs leave nothing behind; one leaked output or
    parsed chunk would be tens of KiB per pack. Only blocks allocated under
    ``repro/data`` count, so another thread's allocations cannot."""
    path = tmp_path / "s.jsonl"
    _write_corpus(path, 200)
    for _ in range(20):
        pack_sessions_jsonl(path, JD_OPERATIONS, min_support=2)
    gc.collect()
    tracemalloc.start(8)  # deep enough to reach a repro/data frame
    try:
        for _ in range(30):
            packed = pack_sessions_jsonl(path, JD_OPERATIONS, min_support=2)
        del packed
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    ours = snapshot.filter_traces([tracemalloc.Filter(True, "*/repro/data/*", all_frames=True)])
    retained = sum(stat.size for stat in ours.statistics("filename"))
    assert retained < 16 * 1024, ours.statistics("traceback")[:3]


def test_stream_ingest_drops_short_sessions_like_prepare(tmp_path):
    """Sessions that merge below 2 macro steps consume a permutation slot but
    emit no example — exactly like ``prepare_dataset``'s ``_to_example``."""
    cfg = jd_appliances_config()
    # High min_support forces aggressive filtering, producing many merged
    # sessions below the macro-length floor.
    sessions = generate_dataset(cfg, 300, seed=8)
    path = tmp_path / "sessions.jsonl"
    save_sessions_jsonl(sessions, path)
    eager = pack_dataset(
        prepare_dataset(sessions, cfg.operations, min_support=8, name="jd", seed=0)
    )
    streamed = pack_sessions_jsonl(path, cfg.operations, min_support=8, name="jd", seed=0)
    assert_packed_equal(eager, streamed)
