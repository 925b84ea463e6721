"""The prepared dataset: CSR ragged arrays, zero-loop collation, ``.rpk`` files.

A list of :class:`~repro.data.schema.MacroSession` is dozens of heap
objects per session, and :func:`~repro.data.dataset.collate` walks them in
a nested Python loop. That is the RAM ceiling at million-session scale,
and past a few sessions per batch the loop is slower than array gathers
(collation is ~1 % of an EMBSR training step either way).

So a :class:`PreparedDataset` stores each split **columnarly**, in
CSR-style ragged arrays:

``session_offsets``  [S+1]  span of each session inside ``macro_items``
``macro_items``      [M]    dense item id of every macro step
``op_offsets``       [M+1]  span of each macro step inside ``op_ids``
``op_ids``           [O]    raw (unshifted) operation id of every micro step
``targets``          [S]    dense ground-truth item id per session
``session_ids``      [S]    original session ids (round-trip fidelity)

Offsets index the value arrays absolutely, so a contiguous slice of a
split (``split[a:b]``) is a view that shares every value array.

On top of that layout:

* :func:`collate_packed` builds a :class:`~repro.data.dataset.SessionBatch`
  with fancy-index gathers/scatters and ``np.add.reduceat`` — **no Python
  loop over examples or ops** — and is bitwise-identical to the loop
  collate, including ``max_ops_per_item`` truncation, ``pad_to``, and
  :class:`~repro.data.dataset.CollateBuffers` reuse. It is the only batch
  path of :class:`~repro.data.dataset.DataLoader`.
* :meth:`PreparedDataset.save` writes one self-describing ``.rpk`` file
  (JSON header + 64-byte-aligned raw arrays) atomically via
  :func:`repro.reliability.atomic.atomic_write`; :func:`load_packed` maps it
  back either in memory or **zero-copy via a read-only memmap**, so forked
  data-parallel workers share file-backed pages instead of each holding a
  copy of the Python object graph.
* :func:`packed_fingerprint` digests the arrays into the short hash model
  artifacts record as the dataset they were trained on.

Raw sessions (a JSONL file or ``Session`` objects) are packed by the
columnar core in :mod:`repro.data.ingest`.

See ``docs/data.md`` for the on-disk format and the CLI
(``repro prepare`` / ``repro data inspect``).
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .dataset import CollateBuffers, SessionBatch
from .schema import DatasetFormatError, MacroSession, OperationVocab

__all__ = [
    "PackedSplit",
    "PreparedDataset",
    "load_packed",
    "collate_packed",
    "packed_padded_dims",
    "packed_fingerprint",
]

MAGIC = b"RPACKED1"
FORMAT_VERSION = 1
_ALIGN = 64
_SPLIT_FIELDS = (
    "session_offsets",
    "macro_items",
    "op_offsets",
    "op_ids",
    "targets",
    "session_ids",
)
_SPLIT_NAMES = ("train", "validation", "test")


def _grouped_arange(starts: np.ndarray, counts: np.ndarray, total: int | None = None) -> np.ndarray:
    """``concatenate([arange(s, s + c) for s, c in zip(starts, counts)])``, loop-free.

    The workhorse of every CSR gather below: one ``arange`` over the output
    plus a per-group shift delivered by ``np.repeat``.
    """
    counts = np.asarray(counts, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    if total is None:
        total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    first = np.cumsum(counts) - counts  # first output slot of each group
    out = np.arange(total, dtype=np.int64)
    out += np.repeat(starts - first, counts)
    return out


class PackedSplit:
    """One split of a :class:`PreparedDataset`: six flat int64 arrays.

    A ``Sequence[MacroSession]`` on demand (``len``, indexing, iteration
    materialize examples), while the batching path never touches Python
    objects. ``split[a:b]`` is a :class:`PackedSplit` view: its offsets
    keep pointing into the shared value arrays, so nothing is copied.
    """

    def __init__(
        self,
        session_offsets: np.ndarray,
        macro_items: np.ndarray,
        op_offsets: np.ndarray,
        op_ids: np.ndarray,
        targets: np.ndarray,
        session_ids: np.ndarray,
    ) -> None:
        self.session_offsets = np.asarray(session_offsets, dtype=np.int64)
        self.macro_items = np.asarray(macro_items, dtype=np.int64)
        self.op_offsets = np.asarray(op_offsets, dtype=np.int64)
        self.op_ids = np.asarray(op_ids, dtype=np.int64)
        self.targets = np.asarray(targets, dtype=np.int64)
        self.session_ids = np.asarray(session_ids, dtype=np.int64)
        if self.session_offsets.ndim != 1 or self.session_offsets.size == 0:
            raise ValueError("session_offsets must be a non-empty 1-D array")
        if len(self.targets) != len(self) or len(self.session_ids) != len(self):
            raise ValueError("targets/session_ids must have one entry per session")
        self._op_lengths: np.ndarray | None = None

    # -- sizes ----------------------------------------------------------
    def __len__(self) -> int:
        return int(self.session_offsets.shape[0] - 1)

    @property
    def num_macro_steps(self) -> int:
        return int(self.session_offsets[-1] - self.session_offsets[0])

    @property
    def num_micro_ops(self) -> int:
        return int(self.op_offsets[self.session_offsets[-1]] - self.op_offsets[self.session_offsets[0]])

    @property
    def op_lengths(self) -> np.ndarray:
        """Per-macro-step operation counts (derived once, then cached)."""
        if self._op_lengths is None:
            self._op_lengths = np.diff(self.op_offsets)
        return self._op_lengths

    def nbytes(self) -> int:
        """Bytes of this split's six columns as :meth:`columns` returns them."""
        return sum(column.nbytes for column in self.columns().values())

    def columns(self) -> dict[str, np.ndarray]:
        """The six columns with offsets from 0: the arrays a file stores."""
        lo, hi = int(self.session_offsets[0]), int(self.session_offsets[-1])
        op_lo, op_hi = int(self.op_offsets[lo]), int(self.op_offsets[hi])
        session_offsets, op_offsets = self.session_offsets, self.op_offsets[lo : hi + 1]
        if lo:
            session_offsets = session_offsets - lo
        if op_lo:
            op_offsets = op_offsets - op_lo
        return {
            "session_offsets": session_offsets,
            "macro_items": self.macro_items[lo:hi],
            "op_offsets": op_offsets,
            "op_ids": self.op_ids[op_lo:op_hi],
            "targets": self.targets,
            "session_ids": self.session_ids,
        }

    # -- MacroSession compatibility -------------------------------------
    def example(self, index: int) -> MacroSession:
        """Materialize session ``index`` back into a :class:`MacroSession`."""
        index = int(index)
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(f"session index {index} out of range for {len(self)} sessions")
        lo, hi = int(self.session_offsets[index]), int(self.session_offsets[index + 1])
        ops = [
            self.op_ids[int(self.op_offsets[s]) : int(self.op_offsets[s + 1])].tolist()
            for s in range(lo, hi)
        ]
        return MacroSession(
            self.macro_items[lo:hi].tolist(),
            ops,
            target=int(self.targets[index]),
            session_id=int(self.session_ids[index]),
        )

    def __getitem__(self, index):
        """Session ``index`` as a :class:`MacroSession`; a slice is a split.

        A contiguous slice is a view (its offset array is a slice, the
        value arrays are shared); a strided one is gathered by :meth:`select`.
        """
        if not isinstance(index, slice):
            return self.example(index)
        start, stop, step = index.indices(len(self))
        if step != 1:
            return self.select(range(start, stop, step))
        stop = max(start, stop)
        view = PackedSplit(
            self.session_offsets[start : stop + 1],
            self.macro_items,
            self.op_offsets,
            self.op_ids,
            self.targets[start:stop],
            self.session_ids[start:stop],
        )
        view._op_lengths = self.op_lengths
        return view

    def __iter__(self) -> Iterator[MacroSession]:
        return iter(self.to_examples())

    def to_examples(self) -> list[MacroSession]:
        """Every session as a :class:`MacroSession` (one ``tolist`` per array)."""
        columns = self.columns()
        items, ops = columns["macro_items"].tolist(), columns["op_ids"].tolist()
        bounds, op_bounds = columns["session_offsets"].tolist(), columns["op_offsets"].tolist()
        runs = [ops[a:b] for a, b in zip(op_bounds, op_bounds[1:])]
        return [
            MacroSession(items[a:b], runs[a:b], target=target, session_id=session_id)
            for a, b, target, session_id in zip(
                bounds, bounds[1:], self.targets.tolist(), self.session_ids.tolist()
            )
        ]

    @classmethod
    def from_examples(cls, examples: Sequence[MacroSession]) -> "PackedSplit":
        """Pack a list of examples into CSR arrays (the write-side loop)."""
        macro_counts = np.fromiter((len(ex) for ex in examples), dtype=np.int64, count=len(examples))
        session_offsets = np.zeros(len(examples) + 1, dtype=np.int64)
        np.cumsum(macro_counts, out=session_offsets[1:])
        items: list[int] = []
        op_counts: list[int] = []
        op_ids: list[int] = []
        targets = np.zeros(len(examples), dtype=np.int64)
        session_ids = np.zeros(len(examples), dtype=np.int64)
        for i, ex in enumerate(examples):
            if ex.target is None:
                raise ValueError(
                    f"example {ex.session_id} has no target; packed splits require targets"
                )
            targets[i] = ex.target
            session_ids[i] = ex.session_id
            items.extend(ex.macro_items)
            for ops in ex.op_sequences:
                op_counts.append(len(ops))
                op_ids.extend(ops)
        op_offsets = np.zeros(len(op_counts) + 1, dtype=np.int64)
        np.cumsum(np.asarray(op_counts, dtype=np.int64), out=op_offsets[1:])
        return cls(
            session_offsets,
            np.asarray(items, dtype=np.int64),
            op_offsets,
            np.asarray(op_ids, dtype=np.int64),
            targets,
            session_ids,
        )

    # -- vectorized CSR operations --------------------------------------
    def select(self, indices: Sequence[int]) -> "PackedSplit":
        """A new split holding the sessions at ``indices``, in that order."""
        idx = np.asarray(indices, dtype=np.int64)
        n = self.session_offsets[idx + 1] - self.session_offsets[idx]
        session_offsets = np.zeros(idx.size + 1, dtype=np.int64)
        np.cumsum(n, out=session_offsets[1:])
        step_idx = _grouped_arange(self.session_offsets[idx], n)
        k = self.op_lengths[step_idx]
        op_offsets = np.zeros(step_idx.size + 1, dtype=np.int64)
        np.cumsum(k, out=op_offsets[1:])
        op_idx = _grouped_arange(self.op_offsets[step_idx], k)
        return PackedSplit(
            session_offsets,
            self.macro_items[step_idx],
            op_offsets,
            self.op_ids[op_idx],
            self.targets[idx],
            self.session_ids[idx],
        )

    def padded_dims(self, indices: Sequence[int], max_ops_per_item: int | None = None):
        return packed_padded_dims(self, indices, max_ops_per_item)

    def collate(
        self,
        indices: Sequence[int],
        max_ops_per_item: int | None = None,
        buffers: CollateBuffers | None = None,
        pad_to: tuple[int, int, int] | None = None,
    ) -> SessionBatch:
        return collate_packed(
            self, indices, max_ops_per_item=max_ops_per_item, buffers=buffers, pad_to=pad_to
        )


def packed_padded_dims(
    split: PackedSplit, indices: Sequence[int], max_ops_per_item: int | None = None
) -> tuple[int, int, int]:
    """``(n_max, k_max, t_max)`` for the sessions at ``indices``.

    Matches :func:`repro.data.dataset.padded_dims` on the materialized
    examples exactly (same truncation rule for ``t``).
    """
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("cannot collate an empty list of examples")
    n = split.session_offsets[idx + 1] - split.session_offsets[idx]
    n_max = int(n.max())
    step_idx = _grouped_arange(split.session_offsets[idx], n)
    lens = split.op_lengths[step_idx]
    k_max = int(lens.max()) if lens.size else 0
    if max_ops_per_item is not None:
        k_max = min(k_max, max_ops_per_item)
    t_per = np.zeros(idx.size, dtype=np.int64)
    nonempty = np.flatnonzero(n)
    if lens.size:
        bounds = (np.cumsum(n) - n)[nonempty]
        t_per[nonempty] = np.add.reduceat(np.minimum(lens, k_max), bounds)
    t_max = int(t_per.max()) if t_per.size else 0
    return n_max, k_max, t_max


def collate_packed(
    split: PackedSplit,
    indices: Sequence[int],
    max_ops_per_item: int | None = None,
    buffers: CollateBuffers | None = None,
    pad_to: tuple[int, int, int] | None = None,
) -> SessionBatch:
    """Vectorized :func:`~repro.data.dataset.collate` over CSR arrays.

    Bitwise-identical to the loop collate on the materialized examples:
    identical shapes, dtypes, and values for every field, under every
    combination of ``max_ops_per_item``, ``pad_to``, and ``buffers``.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("cannot collate an empty list of examples")
    batch = int(idx.size)
    n_max, k_max, t_max = packed_padded_dims(split, idx, max_ops_per_item)
    if pad_to is not None:
        if pad_to[0] < n_max or pad_to[1] < k_max or pad_to[2] < t_max:
            raise ValueError(f"pad_to {pad_to} smaller than required {(n_max, k_max, t_max)}")
        # The loop collate truncates op runs at the FINAL k_max (after the
        # pad_to override) — mirror that exactly.
        n_max, k_max, t_max = pad_to

    if buffers is not None:
        views = buffers.views(batch, n_max, k_max, t_max)
        items = views["items"]
        item_mask = views["item_mask"]
        ops = views["ops"]
        op_mask = views["op_mask"]
        micro_items = views["micro_items"]
        micro_ops = views["micro_ops"]
        micro_mask = views["micro_mask"]
        last_op = views["last_op"]
        targets = views["targets"]
    else:
        items = np.zeros((batch, n_max), dtype=np.int64)
        item_mask = np.zeros((batch, n_max))
        ops = np.zeros((batch, n_max, k_max), dtype=np.int64)
        op_mask = np.zeros((batch, n_max, k_max))
        micro_items = np.zeros((batch, t_max), dtype=np.int64)
        micro_ops = np.zeros((batch, t_max), dtype=np.int64)
        micro_mask = np.zeros((batch, t_max))
        last_op = np.zeros(batch, dtype=np.int64)
        targets = np.zeros(batch, dtype=np.int64)

    # Macro gather: flat index of every (session, step) pair, batch-major.
    n = split.session_offsets[idx + 1] - split.session_offsets[idx]
    total_steps = int(n.sum())
    row = np.repeat(np.arange(batch, dtype=np.int64), n)
    pos = np.arange(total_steps, dtype=np.int64) - np.repeat(np.cumsum(n) - n, n)
    step_idx = _grouped_arange(split.session_offsets[idx], n, total_steps)
    items_flat = split.macro_items[step_idx]
    items[row, pos] = items_flat
    item_mask[row, pos] = 1.0

    # Micro gather: every kept op of every step, truncated at k_max.
    k_len = np.minimum(split.op_lengths[step_idx], k_max)
    total_ops = int(k_len.sum())
    orow = np.repeat(row, k_len)
    ostep = np.repeat(pos, k_len)
    opos = np.arange(total_ops, dtype=np.int64) - np.repeat(np.cumsum(k_len) - k_len, k_len)
    op_flat = split.op_ids[_grouped_arange(split.op_offsets[step_idx], k_len, total_ops)] + 1
    ops[orow, ostep, opos] = op_flat
    op_mask[orow, ostep, opos] = 1.0

    # Flattened micro view: within-session op position is the t index.
    t_per = np.zeros(batch, dtype=np.int64)
    np.add.at(t_per, row, k_len)
    tpos = np.arange(total_ops, dtype=np.int64) - np.repeat(np.cumsum(t_per) - t_per, t_per)
    micro_items[orow, tpos] = np.repeat(items_flat, k_len)
    micro_ops[orow, tpos] = op_flat
    micro_mask[orow, tpos] = 1.0

    ends = np.cumsum(t_per)
    has_ops = t_per > 0
    last_op[has_ops] = op_flat[ends[has_ops] - 1]
    targets[:] = split.targets[idx]

    return SessionBatch(
        items=items,
        item_mask=item_mask,
        ops=ops,
        op_mask=op_mask,
        micro_items=micro_items,
        micro_ops=micro_ops,
        micro_mask=micro_mask,
        last_op=last_op,
        targets=targets,
    )


@dataclass(eq=False)
class PreparedDataset:
    """A fully preprocessed dataset: three CSR splits and two vocabularies.

    ``item_ids[i]`` is the raw id of dense item ``i + 1``. The fingerprint
    is computed on first read (or taken from the header of the file the
    dataset was loaded from) and is not a constructor argument, so a copy
    made with ``dataclasses.replace`` digests its own splits.
    """

    name: str
    train: PackedSplit
    validation: PackedSplit
    test: PackedSplit
    item_ids: np.ndarray
    operations: OperationVocab
    _fingerprint: str | None = field(default=None, init=False, repr=False)

    @property
    def num_items(self) -> int:
        return int(len(self.item_ids))

    @property
    def num_operations(self) -> int:
        return len(self.operations)

    @cached_property
    def vocab(self):
        """The dense :class:`~repro.data.preprocess.ItemVocab` (built on first use)."""
        from .preprocess import ItemVocab

        return ItemVocab.from_ordered(np.asarray(self.item_ids).tolist())

    @property
    def fingerprint(self) -> str:
        """:func:`packed_fingerprint` of this dataset (computed once)."""
        if self._fingerprint is None:
            self._fingerprint = packed_fingerprint(self)
        return self._fingerprint

    def splits(self) -> dict[str, PackedSplit]:
        return {"train": self.train, "validation": self.validation, "test": self.test}

    def nbytes(self) -> int:
        return sum(split.nbytes() for split in self.splits().values())

    def save(self, path: str | pathlib.Path) -> pathlib.Path:
        """Write the ``.rpk`` file atomically.

        Layout: 8-byte magic, little-endian uint64 header length, JSON
        header, then every array's raw bytes, each 64-byte aligned. Array
        offsets in the header are relative to the (aligned) data start, so
        the header never has to know its own serialized size.
        """
        from ..reliability.atomic import atomic_write

        arrays: dict[str, np.ndarray] = {
            "item_ids": np.ascontiguousarray(self.item_ids, dtype=np.int64)
        }
        for split_name, split in self.splits().items():
            for name, column in split.columns().items():
                arrays[f"{split_name}/{name}"] = np.ascontiguousarray(column, dtype=np.int64)
        meta: dict = {
            "format_version": FORMAT_VERSION,
            "name": self.name,
            "fingerprint": self.fingerprint,
            "operations": list(self.operations.names),
            "num_items": self.num_items,
            "splits": {
                name: {
                    "sessions": len(split),
                    "macro_steps": split.num_macro_steps,
                    "micro_ops": split.num_micro_ops,
                }
                for name, split in self.splits().items()
            },
            "arrays": {},
        }
        offset = 0
        for array_name, arr in arrays.items():
            offset = _aligned(offset)
            meta["arrays"][array_name] = {
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "offset": offset,
            }
            offset += arr.nbytes

        header = json.dumps(meta).encode()

        def write(handle) -> None:
            handle.write(MAGIC)
            handle.write(len(header).to_bytes(8, "little"))
            handle.write(header)
            data_start = _aligned(len(MAGIC) + 8 + len(header))
            written = len(MAGIC) + 8 + len(header)
            handle.write(b"\0" * (data_start - written))
            cursor = 0
            for array_name, arr in arrays.items():
                pad = meta["arrays"][array_name]["offset"] - cursor
                handle.write(b"\0" * pad)
                handle.write(arr.tobytes())
                cursor = meta["arrays"][array_name]["offset"] + arr.nbytes

        return atomic_write(path, write)


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def read_packed_header(path: str | pathlib.Path) -> dict:
    """The JSON header of a ``.rpk`` file (cheap: no array bytes touched).

    Raises :class:`~repro.data.schema.DatasetFormatError`, naming ``path``,
    for anything that is not one: a dataset JSON from an older ``repro
    prepare``, raw session JSONL, an empty file, a directory.
    """
    try:
        with pathlib.Path(path).open("rb") as handle:
            start = handle.read(len(MAGIC))
            if start == MAGIC:
                header_len = int.from_bytes(handle.read(8), "little")
                return json.loads(handle.read(header_len))
    except IsADirectoryError:
        problem = "it is a directory"
    except ValueError as error:
        problem = f"its header does not decode ({error})"
    else:
        problem = f"it starts with {start!r}, not the magic {MAGIC!r}"
        if start == b'{"name":':  # json.dumps of the old format's payload
            problem = "it is a dataset JSON from an older `repro prepare`; re-run `repro prepare`"
    raise DatasetFormatError(
        f"cannot load {path}: expected a prepared dataset (the .rpk `repro prepare` writes); {problem}"
    )


def load_packed(path: str | pathlib.Path, mmap: bool = True) -> PreparedDataset:
    """Load a ``.rpk`` file, zero-copy by default.

    With ``mmap=True`` every array is a read-only view into one
    ``np.memmap`` of the file — nothing is copied into anonymous memory,
    and forked workers share the file-backed pages. ``mmap=False`` reads
    the file once into RAM (views of a single buffer). Neither the
    vocabulary nor a fingerprint is built here: the header's fingerprint
    is kept, and ``vocab`` is built on first use.
    """
    path = pathlib.Path(path)
    header = read_packed_header(path)
    if header["format_version"] > FORMAT_VERSION:
        raise DatasetFormatError(
            f"{path}: packed format version {header['format_version']} is newer "
            f"than this library supports ({FORMAT_VERSION})"
        )
    if mmap:
        raw = np.memmap(path, dtype=np.uint8, mode="r")
    else:
        raw = np.fromfile(path, dtype=np.uint8)
    header_len = int.from_bytes(bytes(raw[len(MAGIC) : len(MAGIC) + 8]), "little")
    data_start = _aligned(len(MAGIC) + 8 + header_len)

    def array_of(name: str) -> np.ndarray:
        spec = header["arrays"][name]
        dtype = np.dtype(spec["dtype"])
        count = int(np.prod(spec["shape"], dtype=np.int64)) if spec["shape"] else 1
        start = data_start + spec["offset"]
        view = raw[start : start + count * dtype.itemsize].view(dtype)
        return view.reshape(spec["shape"])

    splits = {
        split_name: PackedSplit(*(array_of(f"{split_name}/{name}") for name in _SPLIT_FIELDS))
        for split_name in _SPLIT_NAMES
    }
    num_items = int(header["num_items"])
    dataset = PreparedDataset(
        name=header["name"],
        item_ids=np.arange(1, num_items + 1, dtype=np.int64)
        if "item_ids" not in header["arrays"]
        else array_of("item_ids"),
        operations=OperationVocab(header["operations"]),
        **splits,
    )
    dataset._fingerprint = header.get("fingerprint") or None
    return dataset


def packed_fingerprint(packed: PreparedDataset) -> str:
    """Stable short hash identifying a prepared dataset's contents.

    The SHA-256 of the name, the raw item ids in dense order, the
    operation names and, per split in name order, ``"<split>:<count>"``
    followed by ``json.dumps([macro_items, op_sequences, target])`` of
    every example, cut to 16 hex digits. Model artifacts record it, so the
    digest of the same data never changes. Examples are rendered
    ``_FINGERPRINT_CHUNK`` at a time into that text straight from the CSR
    arrays, so memory stays O(chunk).
    """
    digest = hashlib.sha256()
    digest.update(packed.name.encode())
    digest.update(json.dumps(packed.item_ids.tolist()).encode())
    digest.update(json.dumps(list(packed.operations.names)).encode())
    # str(i) for the ids a split usually holds; other values fall back to str().
    table_size = min(max(packed.num_items, len(packed.operations)) + 1, 1 << 16)
    table = np.array(list(map(str, range(table_size))), dtype=object)
    for split_name, split in sorted(packed.splits().items()):
        digest.update(f"{split_name}:{len(split)}".encode())
        for lo in range(0, len(split), _FINGERPRINT_CHUNK):
            hi = min(lo + _FINGERPRINT_CHUNK, len(split))
            digest.update(_examples_json(split, lo, hi, table).encode())
    return digest.hexdigest()[:16]


_FINGERPRINT_CHUNK = 1024


def _as_text(values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``str`` of every value, as an object array: a gather from ``table``."""
    inside = (values >= 0) & (values < table.size)
    text = table[np.where(inside, values, 0)]
    if not inside.all():
        outside = np.flatnonzero(~inside)
        text[outside] = list(map(str, values[outside].tolist()))
    return text


def _examples_json(split: PackedSplit, lo: int, hi: int, table: np.ndarray) -> str:
    """``"".join(json.dumps([items, ops, target]) for examples lo..hi-1)``.

    Example ``[[1, 2], [[0, 4], [3]], 7]`` is the token run ``[[`` 1 ``, ``
    2 ``], [`` ``[`` 0 ``, `` 4 ``]`` ``, `` ``[`` 3 ``]`` ``], `` 7 ``]``: every
    token's position follows from the CSR lengths, and every slot no
    bracket or number claims is the separator ``", "``.
    """
    bounds = split.session_offsets[lo : hi + 1]
    op_bounds = split.op_offsets[bounds[0] : bounds[-1] + 1]
    n = np.diff(bounds)  # macro steps per example
    k = np.diff(op_bounds)  # ops per macro step
    first_step = bounds[:-1] - bounds[0]
    example_of = np.repeat(np.arange(n.size), n)
    items_len = np.maximum(2 * n - 1, 0)
    group_len = 2 + np.maximum(2 * k - 1, 0)  # "[" ops "]"
    group_at = np.zeros(k.size + 1, dtype=np.int64)
    np.cumsum(group_len + 1, out=group_at[1:])  # groups joined by ", "
    groups_len = group_at[first_step + n] - group_at[first_step] - (n > 0)
    start = np.zeros(n.size, dtype=np.int64)
    np.cumsum((5 + items_len + groups_len)[:-1], out=start[1:])
    total = int(start[-1] + 5 + items_len[-1] + groups_len[-1]) if n.size else 0

    tokens = np.empty(total, dtype=object)
    tokens.fill(", ")
    tokens[start] = "[["
    step = np.arange(k.size) - first_step[example_of]
    tokens[start[example_of] + 1 + 2 * step] = _as_text(split.macro_items[bounds[0] : bounds[-1]], table)
    tokens[start + 1 + items_len] = "], ["
    group_start = (start + 2 + items_len - group_at[first_step])[example_of] + group_at[:-1]
    tokens[group_start] = "["
    op_step = np.arange(int(k.sum())) - np.repeat(op_bounds[:-1] - op_bounds[0], k)
    tokens[np.repeat(group_start + 1, k) + 2 * op_step] = _as_text(
        split.op_ids[op_bounds[0] : op_bounds[-1]], table
    )
    tokens[group_start + group_len - 1] = "]"
    tail = start + 2 + items_len + groups_len
    tokens[tail] = "], "
    tokens[tail + 1] = _as_text(split.targets[lo:hi], table)
    tokens[tail + 2] = "]"
    return "".join(tokens.tolist())
