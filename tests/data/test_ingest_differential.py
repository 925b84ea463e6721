"""The columnar core against the object-loop oracle, on generated corpora.

Corpora have consecutive repeats (A A B A), sessions that filter to
nothing or to one macro item, inputs from ``max_macro_len - 1`` to
``max_macro_len + 2`` macro steps, raw ids up to 2**62 and blank lines.
Every run checks the JSONL route, the ``Session`` route (``prepare_dataset``),
the examples the splits materialise and ``packed_fingerprint ==
dataset_fingerprint`` at one ``min_support`` and one chunk size.
"""

import json
import pathlib
import tempfile
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    JD_OPERATIONS,
    Interaction,
    ItemVocab,
    MacroSession,
    Session,
    pack_sessions_jsonl,
    packed_fingerprint,
    prepare_dataset,
)
from repro.data import ingest, packed

from .prepare_oracle import ObjectDataset, dataset_fingerprint, pack, prepare_dataset_loop

MAX_MACRO_LEN = 4
CSR_FIELDS = ("session_offsets", "macro_items", "op_offsets", "op_ids", "targets", "session_ids")

raw_ids = st.integers(-(2**62), 2**62)
ops = st.integers(0, len(JD_OPERATIONS) - 1)


@st.composite
def corpora(draw):
    """Sessions as runs of one item: ``[(item, [op, ...]), ...]``.

    Runs on one item back to back merge into one macro step, as do runs
    joined by a dropped item, so the merged lengths straddle the limit."""
    common = draw(st.lists(raw_ids, min_size=1, max_size=5, unique=True))
    rare = draw(st.lists(raw_ids, max_size=4, unique=True))
    pool = st.sampled_from(common + rare) if rare else st.sampled_from(common)
    run = st.tuples(pool, st.lists(ops, min_size=1, max_size=3))
    sessions = draw(st.lists(st.lists(run, max_size=MAX_MACRO_LEN + 3), max_size=40))
    session_ids = draw(st.lists(raw_ids, min_size=len(sessions), max_size=len(sessions)))
    return [
        Session([Interaction(item, op) for item, run_ops in runs for op in run_ops], session_id=sid)
        for runs, sid in zip(sessions, session_ids)
    ]


def write_jsonl(path: pathlib.Path, sessions, blank_after):
    with path.open("w") as handle:
        for session, blank in zip(sessions, blank_after):
            events = [[x.item, x.operation] for x in session.interactions]
            handle.write(json.dumps({"session_id": session.session_id, "events": events}) + "\n")
            if blank:
                handle.write("\n")


def assert_packed_equal(a, b):
    assert np.array_equal(a.item_ids, b.item_ids)
    for split_name in ("train", "validation", "test"):
        x, y = getattr(a, split_name), getattr(b, split_name)
        for field in CSR_FIELDS:
            assert np.array_equal(getattr(x, field), getattr(y, field)), (split_name, field)


def as_tuples(examples):
    return [(ex.macro_items, ex.op_sequences, ex.target, ex.session_id) for ex in examples]


@settings(max_examples=120, deadline=None)
@given(
    sessions=corpora(),
    min_support=st.sampled_from([1, 2, 5]),
    chunk=st.sampled_from([1, 2, 7]),
    seed=st.integers(0, 3),
    blanks=st.lists(st.booleans(), min_size=40, max_size=40),
)
def test_core_equals_the_object_loop(sessions, min_support, chunk, seed, blanks):
    options = dict(name="diff", min_support=min_support, max_macro_len=MAX_MACRO_LEN, seed=seed)
    oracle = prepare_dataset_loop(sessions, JD_OPERATIONS, **options)
    expected = pack(oracle)
    with mock.patch.object(ingest, "_CHUNK", chunk), tempfile.TemporaryDirectory() as directory:
        path = pathlib.Path(directory) / "sessions.jsonl"
        write_jsonl(path, sessions, blanks)
        from_jsonl = pack_sessions_jsonl(path, JD_OPERATIONS, **options)
        from_sessions = prepare_dataset(iter(sessions), JD_OPERATIONS, **options)

    for got in (from_jsonl, from_sessions):
        assert_packed_equal(got, expected)
        assert got.fingerprint == dataset_fingerprint(oracle)
        assert got.vocab.ordered_raw_ids() == oracle.vocab.ordered_raw_ids()
        for split_name, examples in oracle.splits().items():
            assert as_tuples(got.splits()[split_name]) == as_tuples(examples)


examples = st.builds(
    lambda runs, target, sid: MacroSession(
        [item for item, _ in runs], [list(o) for _, o in runs], target=target, session_id=sid
    ),
    st.lists(st.tuples(raw_ids, st.lists(raw_ids, max_size=3)), max_size=4),
    raw_ids,
    raw_ids,
)


@settings(max_examples=120, deadline=None)
@given(
    splits=st.tuples(*(st.lists(examples, max_size=6) for _ in range(3))),
    vocab=st.lists(raw_ids, max_size=6, unique=True),
    chunk=st.sampled_from([1, 2, 3, 1024]),
)
def test_fingerprint_of_arrays_equals_fingerprint_of_examples(splits, vocab, chunk):
    """Any examples — empty inputs, empty op runs, negative and huge ids —
    digest the same from arrays as from ``json.dumps`` per example."""
    dataset = ObjectDataset("any", *splits, vocab=ItemVocab(vocab), operations=JD_OPERATIONS)
    with mock.patch.object(packed, "_FINGERPRINT_CHUNK", chunk):
        assert packed_fingerprint(pack(dataset)) == dataset_fingerprint(dataset)
