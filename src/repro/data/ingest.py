"""Columnar ingest: raw sessions -> :class:`~repro.data.packed.PreparedDataset`.

The paper's preprocessing (Sec. V-A1) has one implementation, the
columnar core :func:`pack_chunks`. It consumes *session chunks*: at most
``_CHUNK`` sessions as four flat arrays

``session_ids``   [s]  original session ids
``event_counts``  [s]  micro-behaviours per session
``items``         [e]  raw item id of every micro-behaviour
``ops``           [e]  operation id of every micro-behaviour

and, with array operations only, counts item support, drops items under
``min_support``, merges successive micro-behaviours on one item, splits
off the last macro item as the target, truncates the input to
``max_macro_len`` and applies the seeded 70/10/20 split permutation,
writing the six CSR columns of every split directly.

Two feeders produce chunks:

* :func:`read_jsonl_chunks` parses a sessions JSONL file strictly and
  never builds a :class:`~repro.data.schema.Session`: a chunk of
  canonical lines (the ``json.dumps`` form every writer here uses) as
  bytes, in one vectorised pass, any other chunk line by line. A line it
  rejects raises :class:`~repro.data.schema.SessionFormatError` naming
  the file and the 1-based line.
* :func:`session_chunks` converts ``Session`` objects, which is how
  :func:`~repro.data.preprocess.prepare_dataset` reduces to the core.

Memory: between the support count and the conversion the parsed corpus
is held once, as compact arrays (per event, an item code of one or two
bytes and one byte of operation); a chunk's raw lines and its parse live
only while that chunk is read.
"""

from __future__ import annotations

import json
import pathlib
from itertools import chain, islice
from operator import attrgetter
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .packed import PackedSplit, PreparedDataset, _grouped_arange
from .schema import OperationVocab, Session, SessionFormatError

__all__ = [
    "SessionChunk",
    "read_jsonl_chunks",
    "session_chunks",
    "pack_chunks",
    "pack_sessions_jsonl",
]

# Sessions (or JSONL lines) per chunk. Large enough that the NumPy calls
# of the tokeniser and the core are amortised over many sessions; a chunk's
# raw lines (~0.25 MB for a typical file) are its only Python objects.
_CHUNK = 2048

_JSON_SPACE = b" \t\n\r"  # what json.loads strips around a value
_INT64 = np.iinfo(np.int64)


class SessionChunk(NamedTuple):
    """Up to ``_CHUNK`` sessions as flat int64 columns.

    ``lines`` holds, per session, its 1-based line in ``path`` or, with
    ``path`` ``None``, its 1-based position in the session sequence. Only
    error messages read it.
    """

    session_ids: np.ndarray
    event_counts: np.ndarray
    items: np.ndarray
    ops: np.ndarray
    lines: np.ndarray
    path: str | None = None


# ----------------------------------------------------------------------
# Feeders
# ----------------------------------------------------------------------
def read_jsonl_chunks(path: str | pathlib.Path) -> Iterator[SessionChunk]:
    """Parse a :func:`~repro.data.io.save_sessions_jsonl` file into chunks.

    Every non-blank line must be exactly what ``json.loads`` accepts on
    its own, decoding to one object with an int ``session_id`` and an
    ``events`` list of ``[item, operation]`` int pairs that fit int64.
    Anything else raises :class:`SessionFormatError` with the line.

    A chunk whose every line is canonical (see :func:`_tokenise`) is read
    as bytes in one vectorised pass; any other chunk is parsed line by
    line with ``json.loads``, which names the first bad line.
    """
    name = str(path)
    with pathlib.Path(path).open("rb") as handle:
        first = 1
        while raw := list(islice(handle, _CHUNK)):
            yield _parse_chunk(name, first, raw)
            first += len(raw)


def _parse_chunk(path: str, first: int, raw: list[bytes]) -> SessionChunk:
    numbers = np.arange(first, first + len(raw))
    parsed = _tokenise(b"".join(raw))
    if parsed is None:
        lines = [line.strip(_JSON_SPACE) for line in raw]
        if not all(lines):  # blank lines are skipped, their numbers kept
            numbers = numbers[[bool(line) for line in lines]]
            lines = [line for line in lines if line]
        rows = [_parse_line(path, n, line) for n, line in zip(numbers.tolist(), lines)]
        parsed = (
            np.array([sid for sid, _ in rows], dtype=np.int64),
            np.array([len(flat) // 2 for _, flat in rows], dtype=np.int64),
            np.array([v for _, flat in rows for v in flat], dtype=np.int64),
        )
    session_ids, event_counts, flat = parsed
    return SessionChunk(session_ids, event_counts, flat[0::2], flat[1::2], numbers, path)


# The canonical line is ``json.dumps`` of ``{"session_id": int, "events":
# [[int, int], ...]}`` with the default separators, plus its newline. With
# its integers deleted, a line of k events is its *skeleton*:
#   {"session_id": , "events": [[, ], [, ], ...]}   (30 + 6k - 2 bytes)
#   {"session_id": , "events": []}                 (30 bytes, k = 0)
# and the integers sit in its *slots*: the session id before byte 15,
# event e's item before byte 29 + 6e and its operation before 31 + 6e.
_MAX_DIGITS = 18  # every such integer fits int64, and np.fromstring is exact
_POW10 = 10 ** np.arange(1, _MAX_DIGITS + 1, dtype=np.int64)
_SPACE = ord(" ")
_INT_BYTES = b"0123456789-"
_INTS_ONLY = bytes(c if c in _INT_BYTES else _SPACE for c in range(256))  # translate table


def _skeleton(events: int) -> bytes:
    return b'{"session_id": , "events": [' + b", ".join([b"[, ]"] * events) + b"]}"


def _events_in(length):
    """k of a skeleton of ``length`` bytes (an int or an array)."""
    return np.maximum(length - 28, 0) // 6


def _tokenise(chunk: bytes):
    """``(session_ids, event_counts, [item, op, item, op, ...])`` of a
    chunk of lines, or ``None`` unless every line is canonical.

    Canonical: the line is its skeleton with one JSON integer of at most
    18 digits (no leading zero, optional minus) in each slot, ending in
    ``\n``. Such a line is valid JSON and ``json.loads`` reads exactly
    these values. The check, with no per-line Python parse:

    1. Deleting every digit and ``-`` leaves, line by line, a skeleton.
       This fixes each line's event count k and so every slot's place.
    2. ``np.fromstring`` reads the maximal runs of digits and ``-`` as
       integers, once each run is known to be ``-?[0-9]+``. There must be
       exactly one per slot, each of at most 18 digits.
    3. Each value's canonical width (its digits, plus its sign) and the
       widths before it put it at a byte offset. A run must start there and
       end after its width. As there are as many runs as slots, this leaves
       no other layout: every run sits in its own slot, with no leading
       zero and no ``-0``.
    """
    if not chunk.endswith(b"\n"):
        return None
    stripped = chunk.translate(None, _INT_BYTES)
    skeletons = stripped.split(b"\n")[:-1]
    if any(line != _skeleton(int(_events_in(len(line)))) for line in set(skeletons)):
        return None
    lengths = np.fromiter(map(len, skeletons), dtype=np.int64, count=len(skeletons))
    events = _events_in(lengths)

    text = chunk.translate(_INTS_ONLY)
    byte = np.frombuffer(text, dtype=np.uint8)
    if b"-" in chunk:
        # A minus must start an integer: a space before it, a digit after.
        # The chunk ends in a newline, so ``minus + 1`` is in range and
        # ``minus - 1`` wraps to that newline only for a leading minus.
        minus = np.flatnonzero(byte == ord("-"))
        after = byte[minus + 1]
        if (byte[minus - 1] != _SPACE).any() or ((after == _SPACE) | (after == ord("-"))).any():
            return None
    values = np.fromstring(text, dtype=np.int64, sep=" ")
    slots = 1 + 2 * events
    first = _offsets(slots)[:-1]  # each line's session id in ``values``
    limit = 10**_MAX_DIGITS
    if values.size != slots.sum() or not ((values > -limit) & (values < limit)).all():
        return None
    width = 1 + np.searchsorted(_POW10, np.abs(values), side="right") + (values < 0)
    slot = np.arange(values.size) - np.repeat(first, slots)  # 0 = session id
    event, is_op = np.divmod(slot - 1, 2)
    at = (
        np.repeat(_offsets(lengths + 1)[:-1], slots)  # the line's skeleton
        + np.where(slot == 0, 15, 29 + 6 * event + 2 * is_op)  # the slot
        + np.cumsum(width)
        - width  # integer bytes before it
    )
    # The widths sum to at most the chunk's integer bytes (or to 1 for the
    # [0] np.fromstring reads from a chunk with none), and every slot is
    # three bytes or more before its line's end: ``at + width`` is in range.
    if (byte[at] == _SPACE).any() or (byte[at - 1] != _SPACE).any() or (byte[at + width] != _SPACE).any():
        return None
    pairs = np.ones(values.size, dtype=bool)
    pairs[first] = False
    return values[first], events, values[pairs]


def _parse_line(path: str, number: int, line: bytes) -> tuple[int, list[int]]:
    """One stripped line -> ``(session_id, [item, op, item, op, ...])``."""

    def bad(problem: str) -> SessionFormatError:
        return SessionFormatError(problem, path, number)

    try:
        record = json.loads(line.decode())
    except UnicodeDecodeError as error:
        raise bad(f"not UTF-8 text ({error.reason})") from None
    except json.JSONDecodeError as error:
        raise bad(f"not one JSON value ({error.msg} at column {error.colno})") from None
    except RecursionError:
        raise bad("not one JSON value (nested too deeply to decode)") from None
    if type(record) is not dict:
        raise bad(f"expected a JSON object, found {type(record).__name__}")
    for key in ("session_id", "events"):
        if key not in record:
            raise bad(f"missing {key!r}")
    flat = [_checked_int(record["session_id"], "session_id", bad)]
    events = record["events"]
    if type(events) is not list:
        raise bad(f"'events' must be a list, found {type(events).__name__}")
    for index, event in enumerate(events):
        if type(event) is not list or len(event) != 2:
            raise bad(f"event {index} is not an [item, operation] pair")
        flat.append(_checked_int(event[0], f"event {index} item", bad))
        flat.append(_checked_int(event[1], f"event {index} operation", bad))
    return flat[0], flat[1:]


def _checked_int(value, what: str, bad: Callable[[str], Exception]) -> int:
    if type(value) is not int:  # bool is an int subclass; reject it too
        raise bad(f"{what} must be an integer, found {type(value).__name__} {value!r:.40}")
    if not _INT64.min <= value <= _INT64.max:
        raise bad(f"{what} {value} overflows int64")
    return value


def session_chunks(sessions: Iterable[Session]) -> Iterator[SessionChunk]:
    """``Session`` objects as chunks (the object route into the core)."""
    iterator = iter(sessions)
    first = 1
    while batch := list(islice(iterator, _CHUNK)):
        events = list(chain.from_iterable(s.interactions for s in batch))
        where = (first, first + len(batch) - 1)
        yield SessionChunk(
            _int_column([s.session_id for s in batch], "session ids", where),
            np.fromiter((len(s.interactions) for s in batch), dtype=np.int64, count=len(batch)),
            _int_column(list(map(attrgetter("item"), events)), "item ids", where),
            _int_column(list(map(attrgetter("operation"), events)), "operation ids", where),
            np.arange(first, first + len(batch), dtype=np.int64),
        )
        first += len(batch)


def _int_column(values: list, what: str, where: tuple[int, int]) -> np.ndarray:
    try:
        column = np.asarray(values) if values else np.zeros(0, dtype=np.int64)
    except (ValueError, OverflowError, TypeError):
        column = None
    # NumPy reads [1, True] as int64 [1, 1]; a bool is no id.
    if column is None or column.dtype.kind != "i" or column.ndim != 1 or bool in set(map(type, values)):
        raise SessionFormatError(
            f"sessions {where[0]}-{where[1]}: {what} must be integers that fit int64"
        )
    return column.astype(np.int64, copy=False)


# ----------------------------------------------------------------------
# The core
# ----------------------------------------------------------------------
class _ItemCodes:
    """Raw item ids -> small codes in first-seen order, with their support.

    The parsed corpus is stored as codes (one or two bytes per event for
    catalogues below 256 / 65,536 items) instead of int64 raw ids.
    """

    def __init__(self) -> None:
        self.raw = np.zeros(0, dtype=np.int64)  # every raw id seen, sorted
        self.code = np.zeros(0, dtype=np.int64)  # the code of each, aligned
        self.support = np.zeros(0, dtype=np.int64)  # events per code

    def encode(self, items: np.ndarray) -> np.ndarray:
        unique, inverse, counts = np.unique(items, return_inverse=True, return_counts=True)
        at = np.searchsorted(self.raw, unique)
        seen = at < self.raw.size
        seen[seen] = self.raw[at[seen]] == unique[seen]
        codes = np.empty(unique.size, dtype=np.int64)
        codes[seen] = self.code[at[seen]]
        fresh = np.arange(self.support.size, self.support.size + unique.size - int(seen.sum()))
        if fresh.size:
            codes[~seen] = fresh
            self.raw = np.insert(self.raw, at[~seen], unique[~seen])
            self.code = np.insert(self.code, at[~seen], fresh)
            self.support = np.concatenate([self.support, np.zeros(fresh.size, dtype=np.int64)])
        self.support[codes] += counts
        return codes[inverse].astype(np.min_scalar_type(self.support.size))

    def dense(self, min_support: int) -> tuple[np.ndarray, np.ndarray]:
        """``(item_ids, dense_of)``: the sorted raw ids with enough support,
        and each code's dense id (1-based; 0 for a dropped item)."""
        kept = self.support[self.code] >= min_support
        dense_of = np.zeros(self.support.size, dtype=np.int64)
        dense_of[self.code[kept]] = np.arange(1, int(kept.sum()) + 1)
        return self.raw[kept], dense_of


class _Merged(NamedTuple):
    """One chunk after filtering and merge-successive (chunk-local indices)."""

    n_macro: np.ndarray  # [s] macro steps per session (0: filtered out)
    first_macro: np.ndarray  # [s] index of each session's first macro step
    macro_items: np.ndarray  # [m] dense item id per macro step
    macro_ops: np.ndarray  # [m+1] start of each macro step's ops in ``ops``
    ops: np.ndarray  # [kept events] operation ids


def _merge(chunk: tuple, dense_of: np.ndarray) -> _Merged:
    _session_ids, counts, codes, ops = chunk
    dense = dense_of[codes]
    kept = dense > 0
    session = np.repeat(np.arange(counts.size), counts)[kept]
    dense = dense[kept]
    starts = np.ones(dense.size, dtype=bool)
    starts[1:] = (dense[1:] != dense[:-1]) | (session[1:] != session[:-1])
    macro_ops = np.flatnonzero(np.append(starts, True))
    n_macro = np.bincount(session[starts], minlength=counts.size)
    return _Merged(n_macro, np.cumsum(n_macro) - n_macro, dense[starts], macro_ops, ops[kept])


def _examples(merged: _Merged, sessions: np.ndarray, max_macro_len: int):
    """Input macro span ``[a, b)`` per session; macro ``b`` is the target.
    ``b - a`` is 0 for a session of one macro item: it emits no example."""
    b = merged.first_macro[sessions] + merged.n_macro[sessions] - 1
    n_in = np.minimum(merged.n_macro[sessions] - 1, max_macro_len)
    return b - n_in, b, n_in


def pack_chunks(
    chunks: Iterable[SessionChunk],
    operations: OperationVocab,
    name: str = "dataset",
    min_support: int = 5,
    max_macro_len: int = 20,
    split: tuple[float, float, float] = (0.7, 0.1, 0.2),
    seed: int = 0,
) -> PreparedDataset:
    """The paper's preprocessing over session chunks, written as CSR columns.

    Matches the object pipeline exactly: the vocabulary is the sorted raw
    ids with support ``>= min_support``; a session with no kept event is
    dropped; the ``seed`` permutation runs over the remaining sessions in
    input order and is cut ``split``; a session that merges to fewer than
    two macro items then emits nothing. An operation id outside
    ``[0, len(operations))`` raises :class:`SessionFormatError`.
    """
    if abs(sum(split) - 1.0) > 1e-9:
        raise ValueError(f"split fractions must sum to 1, got {split}")
    if max_macro_len < 1:
        raise ValueError(f"max_macro_len must be at least 1, got {max_macro_len}")

    # Pass 1: validate, count item support, keep the chunk as compact codes.
    op_dtype = np.min_scalar_type(max(len(operations) - 1, 0))
    codes = _ItemCodes()
    store: list[tuple | None] = []
    for chunk in chunks:
        bad = np.flatnonzero((chunk.ops < 0) | (chunk.ops >= len(operations)))
        if bad.size:
            session = int(np.searchsorted(np.cumsum(chunk.event_counts), bad[0], side="right"))
            raise SessionFormatError(
                f"operation {int(chunk.ops[bad[0]])} is outside [0, {len(operations)})",
                chunk.path,
                int(chunk.lines[session]),
            )
        store.append(
            (chunk.session_ids, chunk.event_counts, codes.encode(chunk.items), chunk.ops.astype(op_dtype))
        )
    item_ids, dense_of = codes.dense(min_support)
    del codes

    # Pass 2: per filtered session (input order), the example's size.
    n_in_f, n_ops_f = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for chunk in store:
        merged = _merge(chunk, dense_of)
        a, b, n_in = _examples(merged, np.flatnonzero(merged.n_macro), max_macro_len)
        n_in_f.append(n_in)
        n_ops_f.append(merged.macro_ops[b] - merged.macro_ops[a])
    n_in_f, n_ops_f = np.concatenate(n_in_f), np.concatenate(n_ops_f)

    # The split: the seeded permutation of filtered sessions, cut in order.
    # Sessions that merge to one macro item hold a place but emit nothing;
    # an example's slot is its rank among the emitting sessions, split by split.
    order = np.random.default_rng(seed).permutation(n_in_f.size)
    n_train = int(n_in_f.size * split[0])
    n_val = int(n_in_f.size * split[1])
    members = [
        part[n_in_f[part] > 0]
        for part in (order[:n_train], order[n_train : n_train + n_val], order[n_train + n_val :])
    ]
    slot_bounds = np.cumsum([0] + [part.size for part in members])
    emitted = np.concatenate(members)
    del order, members
    slot_of = np.full(n_in_f.size, -1, dtype=np.int64)
    slot_of[emitted] = np.arange(emitted.size)
    macro_at, op_at = _offsets(n_in_f[emitted]), _offsets(n_ops_f[emitted])
    del n_in_f, n_ops_f, emitted
    macro_bounds, op_bounds = macro_at[slot_bounds], op_at[slot_bounds]

    macro_col = np.empty(int(macro_bounds[-1]), dtype=np.int64)
    offset_col = np.empty(macro_col.size + 3, dtype=np.int64)
    op_col = np.empty(int(op_bounds[-1]), dtype=np.int64)
    target_col = np.empty(int(slot_bounds[-1]), dtype=np.int64)
    sid_col = np.empty(target_col.size, dtype=np.int64)

    # Pass 3: merge again, scatter every example into its slot.
    base = 0
    for index, chunk in enumerate(store):
        store[index] = None  # the parsed chunk is not needed after this
        merged = _merge(chunk, dense_of)
        kept = np.flatnonzero(merged.n_macro)
        slots = slot_of[base : base + kept.size]
        base += kept.size
        kept, slots = kept[slots >= 0], slots[slots >= 0]
        a, b, n_in = _examples(merged, kept, max_macro_len)
        target_col[slots] = merged.macro_items[b]
        sid_col[slots] = chunk[0][kept]
        src = _grouped_arange(a, n_in)
        macro_col[_grouped_arange(macro_at[slots], n_in)] = merged.macro_items[src]
        # The op_offsets of all three splits share one column: split k's run
        # starts k entries late, leaving room for each run's closing entry.
        k = np.searchsorted(slot_bounds, slots, side="right") - 1
        offset_col[_grouped_arange(macro_at[slots] + k, n_in)] = merged.macro_ops[src] + np.repeat(
            op_at[slots] - op_bounds[k] - merged.macro_ops[a], n_in
        )
        n_ops = merged.macro_ops[b] - merged.macro_ops[a]
        op_col[_grouped_arange(op_at[slots], n_ops)] = merged.ops[
            _grouped_arange(merged.macro_ops[a], n_ops)
        ]
    del store, slot_of

    splits = []
    for k in range(3):
        lo, hi = slot_bounds[k], slot_bounds[k + 1]
        m_lo, m_hi = macro_bounds[k], macro_bounds[k + 1]
        offset_col[m_hi + k] = op_bounds[k + 1] - op_bounds[k]
        splits.append(
            PackedSplit(
                macro_at[lo : hi + 1] - m_lo,
                macro_col[m_lo:m_hi],
                offset_col[m_lo + k : m_hi + k + 1],
                op_col[op_bounds[k] : op_bounds[k + 1]],
                target_col[lo:hi],
                sid_col[lo:hi],
            )
        )
    return PreparedDataset(name, *splits, item_ids=item_ids, operations=operations)


def _offsets(counts: np.ndarray) -> np.ndarray:
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def pack_sessions_jsonl(
    path: str | pathlib.Path,
    operations: OperationVocab,
    **kwargs,
) -> PreparedDataset:
    """Pack a sessions JSONL file (``save_sessions_jsonl`` output) without
    building a ``Session``; keyword arguments are :func:`pack_chunks`'s."""
    return pack_chunks(read_jsonl_chunks(path), operations, **kwargs)
