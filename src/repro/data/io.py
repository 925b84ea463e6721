"""Loading real micro-behavior logs from disk.

The paper's datasets are CSV-style event logs. These loaders accept the two
layouts used by the original sources so the library can run on the real
data when it is available:

* **JD-style** (HUP release): one row per micro-behavior with columns
  ``session_id, item_id, operation, timestamp`` (header optional,
  configurable column names/order).
* **Trivago-style** (RecSys Challenge 2019 ``train.csv``): columns include
  ``session_id, timestamp, action_type, reference``; only item-referencing
  action types are kept (Sec. V-A1), exactly like the paper.

Both loaders produce ``list[Session]`` that feeds straight into
:func:`repro.data.preprocess.prepare_dataset`, and both build / accept an
:class:`OperationVocab` so operation ids stay stable across splits.
"""

from __future__ import annotations

import csv
import json
import pathlib
from dataclasses import dataclass
from typing import Iterable, Sequence

from .ingest import read_jsonl_chunks
from .schema import Interaction, OperationVocab, Session

__all__ = [
    "EventLogFormat",
    "load_event_log",
    "iter_event_log",
    "load_trivago_log",
    "save_sessions_jsonl",
    "load_sessions_jsonl",
    "iter_sessions_jsonl",
]


@dataclass(frozen=True)
class EventLogFormat:
    """Column layout of a JD-style event log CSV."""

    session_column: str = "session_id"
    item_column: str = "item_id"
    operation_column: str = "operation"
    timestamp_column: str | None = "timestamp"
    delimiter: str = ","


def load_event_log(
    path: str | pathlib.Path,
    fmt: EventLogFormat | None = None,
    operations: OperationVocab | None = None,
) -> tuple[list[Session], OperationVocab]:
    """Load a JD-style micro-behavior CSV into sessions.

    Rows are grouped by session id; each group is sorted by timestamp when
    the format declares one (otherwise file order is kept). Unknown
    operation names extend the vocabulary unless one is supplied, in which
    case rows with unknown operations are dropped (consistent with the
    paper's "remove the operation whose reference is not the item" rule).
    """
    fmt = fmt or EventLogFormat()
    path = pathlib.Path(path)
    grouped: dict[str, list[tuple[float, int, str]]] = {}
    names: list[str] = list(operations.names) if operations is not None else []
    known = set(names)

    with path.open(newline="") as handle:
        reader = csv.DictReader(handle, delimiter=fmt.delimiter)
        for order, row in enumerate(reader):
            op_name = row[fmt.operation_column]
            if operations is None and op_name not in known:
                known.add(op_name)
                names.append(op_name)
            elif operations is not None and op_name not in known:
                continue
            ts = (
                float(row[fmt.timestamp_column])
                if fmt.timestamp_column and row.get(fmt.timestamp_column)
                else float(order)
            )
            grouped.setdefault(row[fmt.session_column], []).append(
                (ts, int(row[fmt.item_column]), op_name)
            )

    vocab = operations if operations is not None else OperationVocab(names)
    sessions = []
    for sid, (key, events) in enumerate(sorted(grouped.items())):
        events.sort(key=lambda e: e[0])
        interactions = [Interaction(item, vocab.id_of(op)) for _ts, item, op in events]
        sessions.append(Session(interactions, session_id=sid))
    return sessions, vocab


def iter_event_log(
    path: str | pathlib.Path,
    fmt: EventLogFormat | None = None,
    operations: OperationVocab | None = None,
) -> Iterable[Session]:
    """Stream a *session-contiguous* JD-style CSV one session at a time.

    Unlike :func:`load_event_log` this never materializes the whole log: it
    holds exactly one session's rows, so JSONL/CSV → packed ingest runs in
    bounded memory on corpora of any size. It requires (a) an explicit
    ``operations`` vocabulary (no global discovery pass) and (b) each
    session's rows to be contiguous in the file with timestamps already
    ordered — the layout ``save``-style exporters produce. Sessions are
    yielded in file order with a running ``session_id``.
    """
    if operations is None:
        raise ValueError("iter_event_log requires an explicit OperationVocab")
    fmt = fmt or EventLogFormat()
    path = pathlib.Path(path)
    with path.open(newline="") as handle:
        reader = csv.DictReader(handle, delimiter=fmt.delimiter)
        sid = 0
        current_key: str | None = None
        events: list[Interaction] = []
        for row in reader:
            op_name = row[fmt.operation_column]
            if op_name not in operations:
                continue
            key = row[fmt.session_column]
            if current_key is not None and key != current_key:
                if events:
                    yield Session(events, session_id=sid)
                    sid += 1
                events = []
            current_key = key
            events.append(
                Interaction(int(row[fmt.item_column]), operations.id_of(op_name))
            )
        if events:
            yield Session(events, session_id=sid)


# Item-referencing action types kept from the trivago dump (Sec. V-A1).
TRIVAGO_ITEM_ACTIONS = (
    "clickout item",
    "interaction item image",
    "interaction item info",
    "interaction item deals",
    "interaction item rating",
    "search for item",
)


def load_trivago_log(
    path: str | pathlib.Path,
    operations: OperationVocab | None = None,
) -> tuple[list[Session], OperationVocab]:
    """Load a RecSys-2019 trivago ``train.csv`` into sessions.

    Keeps only the six item-referencing action types and drops rows whose
    ``reference`` is not an item id (filters, destination searches, ...) —
    the paper's preprocessing.
    """
    fmt = EventLogFormat(
        session_column="session_id",
        item_column="reference",
        operation_column="action_type",
        timestamp_column="timestamp",
    )
    path = pathlib.Path(path)
    vocab = operations or OperationVocab(list(TRIVAGO_ITEM_ACTIONS))
    grouped: dict[str, list[tuple[float, int, int]]] = {}
    with path.open(newline="") as handle:
        reader = csv.DictReader(handle, delimiter=fmt.delimiter)
        for row in reader:
            action = row[fmt.operation_column]
            if action not in vocab:
                continue
            reference = row[fmt.item_column]
            if not reference.isdigit():
                continue  # non-item reference (e.g. a filter string)
            grouped.setdefault(row[fmt.session_column], []).append(
                (float(row[fmt.timestamp_column]), int(reference), vocab.id_of(action))
            )
    sessions = []
    for sid, (key, events) in enumerate(sorted(grouped.items())):
        events.sort(key=lambda e: e[0])
        sessions.append(
            Session([Interaction(item, op) for _ts, item, op in events], session_id=sid)
        )
    return sessions, vocab


# ----------------------------------------------------------------------
# JSONL persistence for generated sessions
# ----------------------------------------------------------------------
def save_sessions_jsonl(sessions: Iterable[Session], path: str | pathlib.Path) -> None:
    """Write sessions as one JSON object per line (portable, diff-able)."""
    path = pathlib.Path(path)
    with path.open("w") as handle:
        for session in sessions:
            handle.write(
                json.dumps(
                    {
                        "session_id": session.session_id,
                        "events": [[x.item, x.operation] for x in session.interactions],
                    }
                )
                + "\n"
            )


def iter_sessions_jsonl(path: str | pathlib.Path) -> Iterable[Session]:
    """Stream :func:`save_sessions_jsonl` output one session at a time.

    Lines are parsed a chunk at a time by the strict reader of the packed
    ingest (:func:`repro.data.ingest.read_jsonl_chunks`), so a malformed
    line raises :class:`~repro.data.schema.SessionFormatError` naming the
    file and line, and memory stays O(chunk) whatever the file size.
    """
    for chunk in read_jsonl_chunks(path):
        events = list(map(Interaction, chunk.items.tolist(), chunk.ops.tolist()))
        start = 0
        for session_id, count in zip(chunk.session_ids.tolist(), chunk.event_counts.tolist()):
            yield Session(events[start : start + count], session_id=session_id)
            start += count


def load_sessions_jsonl(path: str | pathlib.Path) -> list[Session]:
    """Inverse of :func:`save_sessions_jsonl` (eager; see
    :func:`iter_sessions_jsonl` for the streaming form)."""
    return list(iter_sessions_jsonl(path))
