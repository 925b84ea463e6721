"""Hostile session JSONL stops with a named error at the right line.

Every non-blank line must be what ``json.loads`` accepts on its own and
decode to ``{"session_id": int, "events": [[item, op], ...]}`` with ints
that fit int64; the packer also rejects operations outside the vocabulary.
Each case is checked on the packer, on ``iter_sessions_jsonl`` and at
every chunk size, since a chunk takes a different code path once a line
in it is off the common shape.
"""

import json
import re

import numpy as np
import pytest

from repro.cli import main
from repro.data import (
    JD_OPERATIONS,
    DatasetFormatError,
    Interaction,
    Session,
    SessionFormatError,
    iter_sessions_jsonl,
    pack_sessions_jsonl,
    prepare_dataset,
)
from repro.data import ingest

GOOD = '{"session_id": 0, "events": [[1, 0], [2, 1], [1, 2]]}'

# name -> (bad line, fragment of the message)
BAD_LINES = {
    "truncated": ('{"session_id": 1, "events": [[1, 0], [2', "not one JSON value"),
    "not json": ("session 1: 1 0", "not one JSON value"),
    "array": ("[[1, 0], [2, 1]]", "expected a JSON object, found list"),
    "deep nesting": ("[" * 100_000 + "]" * 100_000, "nested too deeply"),
    "number": ("7", "expected a JSON object, found int"),
    "two objects": (GOOD + " " + GOOD, "not one JSON value (Extra data"),
    "two objects, comma": (GOOD + ", " + GOOD, "not one JSON value (Extra data"),
    "no session_id": ('{"events": [[1, 0]]}', "missing 'session_id'"),
    "no events": ('{"session_id": 1}', "missing 'events'"),
    "events not a list": ('{"session_id": 1, "events": {"1": 0}}', "'events' must be a list"),
    "short event": ('{"session_id": 1, "events": [[1, 0], [2]]}', "event 1 is not an [item, operation] pair"),
    "long event": ('{"session_id": 1, "events": [[1, 0, 3]]}', "event 0 is not an [item, operation] pair"),
    "scalar event": ('{"session_id": 1, "events": [5]}', "event 0 is not an [item, operation] pair"),
    "string event": ('{"session_id": 1, "events": ["ab"]}', "event 0 is not an [item, operation] pair"),
    "object event": ('{"session_id": 1, "events": [{"a": 1, "b": 2}]}', "event 0 is not"),
    "float item": ('{"session_id": 1, "events": [[1, 0], [1.5, 0]]}', "event 1 item must be an integer, found float"),
    "string item": ('{"session_id": 1, "events": [["7", 0]]}', "event 0 item must be an integer, found str"),
    "null item": ('{"session_id": 1, "events": [[null, 0]]}', "event 0 item must be an integer, found NoneType"),
    "bool op": ('{"session_id": 1, "events": [[1, true]]}', "event 0 operation must be an integer, found bool"),
    "float session id": ('{"session_id": 1.0, "events": []}', "session_id must be an integer, found float"),
    "bool session id": ('{"session_id": false, "events": []}', "session_id must be an integer, found bool"),
    "item overflows": (f'{{"session_id": 1, "events": [[{2**63}, 0]]}}', f"event 0 item {2**63} overflows int64"),
    "item underflows": (f'{{"session_id": 1, "events": [[{-2**63 - 1}, 0]]}}', "overflows int64"),
    "session id overflows": (f'{{"session_id": {2**64}, "events": []}}', "overflows int64"),
    "nan op": ('{"session_id": 1, "events": [[1, NaN]]}', "event 0 operation must be an integer, found float"),
}


def write(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture(params=[1, 2, 7, 256, 2048], ids=lambda n: f"chunk{n}")
def chunk(request, monkeypatch):
    monkeypatch.setattr(ingest, "_CHUNK", request.param)
    return request.param


@pytest.mark.parametrize("case", sorted(BAD_LINES))
def test_bad_line_is_named_by_path_and_line(case, chunk, tmp_path):
    bad, fragment = BAD_LINES[case]
    path = write(tmp_path / "s.jsonl", [GOOD, "", GOOD, bad, GOOD])
    for read in (
        lambda: pack_sessions_jsonl(path, JD_OPERATIONS, min_support=1),
        lambda: list(iter_sessions_jsonl(path)),
    ):
        with pytest.raises(SessionFormatError) as caught:
            read()
        assert isinstance(caught.value, DatasetFormatError)
        assert (caught.value.path, caught.value.line) == (str(path), 4)
        assert str(caught.value).startswith(f"{path}, line 4: ")
        assert fragment in str(caught.value)


@pytest.mark.parametrize("case", ["float item", "bool op", "item overflows", "truncated"])
def test_a_bad_line_after_a_thousand_canonical_lines_is_named(case, tmp_path):
    """One chunk of 2,048 lines: canonical but for line 1,001, which sends
    the whole chunk to the per-line parser; it must still stop there."""
    good = [json.dumps({"session_id": n, "events": [[n % 7, n % 10], [3, 1]]}) for n in range(1000)]
    path = write(tmp_path / "s.jsonl", [*good, BAD_LINES[case][0], *good])
    assert ingest._CHUNK >= 2001
    with pytest.raises(SessionFormatError) as caught:
        pack_sessions_jsonl(path, JD_OPERATIONS, min_support=1)
    assert caught.value.line == 1001
    assert BAD_LINES[case][1] in str(caught.value)


def test_an_object_split_over_two_lines_is_rejected_at_its_first_line(chunk, tmp_path):
    """Joined with a comma these two lines read as one valid object; on
    their own the first is truncated JSON."""
    lines = ['{"session_id": 1, "events": [[1, 0]', "[2, 1]]}"]
    assert json.loads("[" + ",".join(lines) + "]") == [{"session_id": 1, "events": [[1, 0], [2, 1]]}]
    path = write(tmp_path / "s.jsonl", [GOOD, *lines, GOOD])
    with pytest.raises(SessionFormatError) as caught:
        pack_sessions_jsonl(path, JD_OPERATIONS, min_support=1)
    assert caught.value.line == 2


def test_two_objects_on_a_line_are_rejected_even_when_a_line_compensates(chunk, tmp_path):
    """Two objects on one line plus an object split over the next two: a
    joined parse finds three objects for three lines; the reader stops."""
    lines = [GOOD + ", " + GOOD, '{"session_id": 1, "events": [[1, 0]', "[2, 1]]}"]
    assert len(json.loads("[" + ",".join(lines) + "]")) == 3
    path = write(tmp_path / "s.jsonl", [GOOD, *lines])
    with pytest.raises(SessionFormatError) as caught:
        list(iter_sessions_jsonl(path))
    assert caught.value.line == 2


@pytest.mark.parametrize("op", [10, 99, -1])
def test_operation_outside_the_vocabulary_is_named(op, chunk, tmp_path):
    bad = json.dumps({"session_id": 5, "events": [[1, 0], [2, op]]})
    path = write(tmp_path / "s.jsonl", [GOOD, GOOD, "", bad, GOOD])
    with pytest.raises(SessionFormatError) as caught:
        pack_sessions_jsonl(path, JD_OPERATIONS, min_support=1)
    assert caught.value.line == 4
    assert f"operation {op} is outside [0, 10)" in str(caught.value)


def test_int64_limits_and_non_canonical_spacing_are_accepted(chunk, tmp_path):
    """Whatever ``json.loads`` accepts per line is read with its values:
    other spacing, key order, extra keys, an escaped key, the int64
    limits, blank lines."""
    lines = [
        f'{{"events": [[{2**63 - 1}, 0], [{-2**63}, 9]], "session_id": {-2**63}, "user": "x"}}',
        "",
        '{"session\\u005fid": 9, "ev\\u0065nts": [[4, 1]]}',
        '  {"session_id":7,"events":[ [ 3 ,1 ],[3,2]] }\t',
        '{"session_id": 8, "events": []}',
        GOOD,
    ]
    path = write(tmp_path / "s.jsonl", lines)
    sessions = list(iter_sessions_jsonl(path))
    expected = [json.loads(line) for line in lines if line]
    assert [s.session_id for s in sessions] == [r["session_id"] for r in expected]
    assert [[[x.item, x.operation] for x in s.interactions] for s in sessions] == [
        r["events"] for r in expected
    ]


def test_cli_pack_prints_one_line_and_exits_1(tmp_path, capsys):
    path = write(tmp_path / "bad.jsonl", [GOOD, BAD_LINES["float item"][0]])
    out = tmp_path / "out.rpk"
    assert main(["prepare", "--config", "jd-appliances", "--input", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert err.count("\n") == 0
    assert err.startswith(f"{path}, line 2: event 1 item must be an integer")
    assert not out.exists()


@pytest.mark.parametrize(
    ("events", "fragment"),
    [
        ([Interaction(1.5, 0)], "item ids must be integers"),
        ([Interaction(1, True)], "operation ids must be integers"),
        ([Interaction(1, 10)], "operation 10 is outside [0, 10)"),
    ],
)
def test_session_route_rejects_what_the_reader_rejects(events, fragment):
    sessions = [Session([Interaction(1, 0), Interaction(2, 0)], session_id=0), Session(events, session_id=1)]
    with pytest.raises(SessionFormatError, match=re.escape(fragment)):
        prepare_dataset(sessions, JD_OPERATIONS, min_support=1)


def test_chunk_columns_are_int64(tmp_path):
    path = write(tmp_path / "s.jsonl", [GOOD, '{"session_id": 3, "events": []}'])
    (chunk,) = ingest.read_jsonl_chunks(path)
    assert chunk.session_ids.tolist() == [0, 3]
    assert chunk.event_counts.tolist() == [3, 0]
    assert chunk.items.tolist() == [1, 2, 1] and chunk.ops.tolist() == [0, 1, 2]
    assert all(c.dtype == np.int64 for c in (chunk.session_ids, chunk.event_counts, chunk.items, chunk.ops))
