"""The byte tokeniser of the JSONL reader against ``json.loads``.

``ingest._tokenise`` reads a chunk of canonical lines (``json.dumps`` of
``{"session_id": int, "events": [[int, int], ...]}`` with default
separators, integers of at most 18 digits) without decoding JSON. On
canonical lines and on mutations of them (spacing, key order, an escaped
key, leading zeros, ``-0``, 18/19/20-digit and ±2**63 integers, a float,
``true``, CRLF, a BOM) every line must either tokenise to exactly what
``json.loads`` gives or be refused, and a chunk must read the same through
the reader as through the strict per-line parser alone.
"""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import JD_OPERATIONS, SessionFormatError, pack_sessions_jsonl
from repro.data import ingest

from .test_packed_ingest import _write_corpus

# Integers of every width class the tokeniser draws a line at.
EDGES = [
    0, 1, 9, 10, 10**17, 10**18 - 1, 10**18, 10**19, 2**63 - 1, 2**63, 2**64,
    -1, -(10**18) + 1, -(10**18), -(2**63), -(2**63) - 1,
]
small = st.integers(-(10**18) + 1, 10**18 - 1)
ints = st.one_of(small, st.integers(0, 99), st.sampled_from(EDGES), st.integers(-(2**70), 2**70))
records = st.builds(
    lambda sid, events: {"session_id": sid, "events": events},  # in the writer's key order
    ints,
    st.lists(st.tuples(ints, ints).map(list), max_size=6),
)


def fits(record) -> bool:
    """Every integer has at most 18 digits: the tokeniser must accept it."""
    values = [record["session_id"], *(v for pair in record["events"] for v in pair)]
    return all(abs(v) < 10**18 for v in values)


def _replace_an_int(text: str, index: int, replacement) -> str:
    """Swap the ``index``-th integer (mod their count) for ``replacement``."""
    spans, start = [], None
    for at, char in enumerate(text + " "):
        if (char.isdigit() or char == "-") and start is None:
            start = at
        elif not (char.isdigit() or char == "-") and start is not None:
            spans.append((start, at))
            start = None
    lo, hi = spans[index % len(spans)]
    return text[:lo] + replacement(text[lo:hi]) + text[hi:]


def _change_a_byte(text: str, index: int) -> str:
    """Overwrite the ``index``-th non-integer character (mod their count):
    the line keeps its length but not its shape."""
    at = [k for k, char in enumerate(text) if not (char.isdigit() or char == "-")]
    at = at[index % len(at)]
    return text[:at] + ("x" if text[at] != "x" else "y") + text[at + 1 :]


MUTATIONS = {
    "none": lambda text, i: text,
    "space added": lambda text, i: text[: i % len(text)] + " " + text[i % len(text) :],
    "spaces dropped": lambda text, i: "".join(text.split(" ", i % text.count(" ") + 1)),
    "keys swapped": lambda text, i: json.dumps(dict(reversed(list(json.loads(text).items())))),
    "escaped key": lambda text, i: text.replace('"session_id"', '"session\\u005fid"'),
    "extra key": lambda text, i: text[:-1] + ', "user": 3}',
    "leading zero": lambda text, i: _replace_an_int(text, i, lambda s: s.replace("-", "-0") if "-" in s else "0" + s),
    "minus zero": lambda text, i: _replace_an_int(text, i, lambda s: "-0"),
    "float": lambda text, i: _replace_an_int(text, i, lambda s: s + ".0"),
    "true": lambda text, i: _replace_an_int(text, i, lambda s: "true"),
    "compact": lambda text, i: json.dumps(json.loads(text), separators=(",", ":")),
    "digit in a key": lambda text, i: text.replace("events", "ev1nts"),
    "byte changed": lambda text, i: _change_a_byte(text, i),
}
ENDINGS = {"newline": b"\n", "crlf": b"\r\n"}


@st.composite
def lines(draw):
    """``(line, canonical)``: a ``json.dumps`` line, maybe mutated; only an
    unmutated line of integers up to 18 digits is canonical."""
    record, mutation = draw(records), draw(st.sampled_from(sorted(MUTATIONS)))
    ending, bom = draw(st.sampled_from(sorted(ENDINGS))), draw(st.booleans())
    text = MUTATIONS[mutation](json.dumps(record), draw(st.integers(0, 200)))
    line = (b"\xef\xbb\xbf" if bom else b"") + text.encode() + ENDINGS[ending]
    return line, mutation == "none" and ending == "newline" and not bom and fits(record)


def strict_chunk(raw):
    """The chunk as the per-line ``json.loads`` parser alone reads it."""
    with mock.patch.object(ingest, "_tokenise", lambda chunk: None):
        return ingest._parse_chunk("s.jsonl", 1, raw)


def read(parse):
    try:
        return parse()
    except SessionFormatError as error:
        return str(error)


@settings(max_examples=300, deadline=None)
@given(case=lines())
def test_a_line_tokenises_to_json_loads_or_is_refused(case):
    line, canonical = case
    parsed = ingest._tokenise(line)
    if parsed is None:
        assert not canonical, "a canonical line was refused"
        return
    expected = json.loads(line)
    session_ids, event_counts, flat = parsed
    assert isinstance(expected, dict) and set(expected) == {"session_id", "events"}
    assert session_ids.tolist() == [expected["session_id"]]
    assert event_counts.tolist() == [len(expected["events"])]
    assert flat.tolist() == [v for pair in expected["events"] for v in pair]


@settings(max_examples=150, deadline=None)
@given(chunk=st.lists(lines().map(lambda case: case[0]), min_size=1, max_size=12))
def test_a_chunk_reads_as_the_strict_parser_reads_it(chunk):
    got, want = read(lambda: ingest._parse_chunk("s.jsonl", 1, chunk)), read(lambda: strict_chunk(chunk))
    if isinstance(want, str):
        assert got == want
        return
    for field in ("session_ids", "event_counts", "items", "ops", "lines"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b), field


@settings(max_examples=100, deadline=None)
@given(chunk=st.lists(records.filter(fits), min_size=1, max_size=30))
def test_canonical_lines_are_always_tokenised(chunk):
    raw = b"".join((json.dumps(record) + "\n").encode() for record in chunk)
    session_ids, event_counts, flat = ingest._tokenise(raw)
    assert session_ids.tolist() == [r["session_id"] for r in chunk]
    assert event_counts.tolist() == [len(r["events"]) for r in chunk]
    assert flat.tolist() == [v for r in chunk for pair in r["events"] for v in pair]


@pytest.mark.parametrize(
    ("line", "why"),
    [
        (b'{"session_id": 1, "events": [[2, 3]]}', "no newline"),
        (b'{"session_id": 01, "events": [[2, 3]]}\n', "leading zero"),
        (b'{"session_id": -0, "events": []}\n', "minus zero"),
        (b'{"session_id": 1, "events": [[2, 1000000000000000000]]}\n', "19 digits"),
        (b'{"session_id": 1, "events": [[2, -1000000000000000000]]}\n', "19 digits"),
        (b'{"session_id": 1, "events": [[2, 3-4]]}\n', "minus inside"),
        (b'{"session_id": 1, "events": [[--2, 3]]}\n', "two minus signs"),
        (b'{"session_id": 1, "events": [[-, 3]]}\n', "a lone minus"),
        (b'{"session_id": , "events": [[2, 3]]}\n', "an empty slot"),
        (b'{"session_id": , "events": []}\n', "the only slot empty"),
        (b'{"sess1ion_id": , "events": [[2, 3]]}\n', "the session id moved into the key"),
        (b'{"session_ix": 1, "events": [[2, 3]]}\n', "another key of the same length"),
        (b'{"session_id": 1, "events": [[2, 3], 4]}\n', "a scalar event"),
        (b'{"session_id": 1, "events": [[2, 3]]]\n', "a bracket for a brace"),
        (b'{"session_id": 1, "events": [[2, 3]]}\n\n', "a blank line"),
    ],
)
def test_off_shape_lines_are_refused(line, why):
    assert ingest._tokenise(line) is None, why


def test_the_canonical_corpus_never_reaches_the_per_line_parser(tmp_path, monkeypatch):
    """The writer's own format must stay on the byte path: if the tokeniser
    refused it, packing would still succeed, only several times slower."""
    path = tmp_path / "s.jsonl"
    _write_corpus(path, 3_000)
    calls = []
    parse_line = ingest._parse_line
    monkeypatch.setattr(ingest, "_parse_line", lambda *args: calls.append(args) or parse_line(*args))
    packed = pack_sessions_jsonl(path, JD_OPERATIONS, min_support=2)
    assert calls == [] and len(packed.train) > 0
