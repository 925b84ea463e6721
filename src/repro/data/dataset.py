"""Padded batch construction for micro-behavior sessions.

Conventions used everywhere downstream:

* item id 0 is padding; real items are ``1..num_items``;
* operation ids are shifted by +1 in batches so 0 can be padding there too;
* every model receives a :class:`SessionBatch` and returns logits over the
  ``num_items`` real items (class ``i`` scores item ``i+1``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .schema import MacroSession

__all__ = ["SessionBatch", "collate", "padded_dims", "CollateBuffers", "DataLoader"]


@dataclass
class SessionBatch:
    """A batch of sessions padded to common macro/micro lengths.

    Attributes
    ----------
    items:
        [B, n] dense item ids of the macro sequence (0 = pad).
    item_mask:
        [B, n] float {0,1}; marks valid macro positions.
    ops:
        [B, n, k] operation ids per macro step, shifted by +1 (0 = pad).
    op_mask:
        [B, n, k] float validity mask for ``ops``.
    micro_items / micro_ops / micro_mask:
        [B, t] flattened micro-behavior view (item of each micro step,
        shifted op id, validity mask).
    last_op:
        [B] shifted op id of the final micro-behavior in each session.
    targets:
        [B] dense ground-truth item ids (1-based; subtract 1 for the class
        index over real items).
    """

    items: np.ndarray
    item_mask: np.ndarray
    ops: np.ndarray
    op_mask: np.ndarray
    micro_items: np.ndarray
    micro_ops: np.ndarray
    micro_mask: np.ndarray
    last_op: np.ndarray
    targets: np.ndarray

    @property
    def batch_size(self) -> int:
        return self.items.shape[0]

    @property
    def max_macro_len(self) -> int:
        return self.items.shape[1]

    @property
    def max_micro_len(self) -> int:
        return self.micro_items.shape[1]

    @property
    def target_classes(self) -> np.ndarray:
        """Zero-based class indices for the loss over real items."""
        return self.targets - 1

    def macro_lengths(self) -> np.ndarray:
        return self.item_mask.sum(axis=1).astype(np.int64)

    def micro_lengths(self) -> np.ndarray:
        return self.micro_mask.sum(axis=1).astype(np.int64)


class CollateBuffers:
    """Reusable padded-batch storage for :func:`collate`.

    Collation allocates nine arrays per batch; over a training run that is
    hundreds of thousands of short-lived allocations whose zero-fill cost
    scales with the padded size (``docs/performance.md``, "Allocation
    discipline"). A ``CollateBuffers`` instance keeps one grow-only array
    per batch field and hands out zeroed *views* trimmed to the current
    batch's dimensions, so steady-state collation allocates nothing.

    The returned batch ALIASES the pool: it is only valid until the next
    ``collate(..., buffers=...)`` call against the same pool. That is the
    training-loop access pattern (one live batch at a time); anything that
    retains batches — ``list(loader)``, score caches — must keep the
    default copying behavior.
    """

    _SPECS = (
        ("items", 2, np.int64),
        ("item_mask", 2, np.float64),
        ("ops", 3, np.int64),
        ("op_mask", 3, np.float64),
        ("micro_items", 2, np.int64),
        ("micro_ops", 2, np.int64),
        ("micro_mask", 2, np.float64),
        ("last_op", 1, np.int64),
        ("targets", 1, np.int64),
    )

    def __init__(self) -> None:
        self._arrays: dict[str, np.ndarray] = {}

    def _view(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        buffer = self._arrays.get(name)
        if buffer is None or any(b < s for b, s in zip(buffer.shape, shape)):
            grown = shape if buffer is None else tuple(
                max(b, s) for b, s in zip(buffer.shape, shape)
            )
            buffer = np.zeros(grown, dtype=dtype)
            self._arrays[name] = buffer
        view = buffer[tuple(slice(0, s) for s in shape)]
        view.fill(0)
        return view

    def views(self, batch: int, n_max: int, k_max: int, t_max: int) -> dict[str, np.ndarray]:
        """Zeroed views for one batch of the given padded dimensions."""
        dims = {1: (batch,), 2: (batch, n_max), 3: (batch, n_max, k_max)}
        out = {}
        for name, ndim, dtype in self._SPECS:
            shape = dims[ndim]
            if name.startswith("micro"):
                shape = (batch, t_max)
            out[name] = self._view(name, shape, dtype)
        return out


def padded_dims(
    examples: Sequence[MacroSession], max_ops_per_item: int | None = None
) -> tuple[int, int, int]:
    """The ``(n_max, k_max, t_max)`` padding a :func:`collate` call would use.

    Exposed so a data-parallel worker can compute the *batch-global*
    padding from every example, then collate only its own shard rows with
    ``pad_to`` — producing arrays bit-identical to slicing the full
    collated batch.
    """
    if not examples:
        raise ValueError("cannot collate an empty list of examples")
    # Single pass over every op sequence. ``t`` can clamp against the raw
    # cap instead of the final k_max because every length is <= the global
    # natural k, so min(len, min(k_nat, cap)) == min(len, cap).
    cap = max_ops_per_item
    n_max = k_nat = t_max = 0
    for ex in examples:
        if len(ex) > n_max:
            n_max = len(ex)
        t = 0
        for ops in ex.op_sequences:
            k = len(ops)
            if k > k_nat:
                k_nat = k
            t += k if cap is None else min(k, cap)
        if t > t_max:
            t_max = t
    k_max = k_nat if cap is None else min(k_nat, cap)
    return n_max, k_max, t_max


def _check_max_ops(max_ops_per_item: int | None) -> None:
    # A cap below 1 keeps no operation, so the last-op lookup has nothing
    # to read; the value may come from an artifact header, so name it.
    if max_ops_per_item is not None and max_ops_per_item < 1:
        raise ValueError(f"max_ops_per_item must be >= 1 or None, got {max_ops_per_item}")


def collate(
    examples: Sequence[MacroSession],
    max_ops_per_item: int | None = None,
    buffers: CollateBuffers | None = None,
    pad_to: tuple[int, int, int] | None = None,
) -> SessionBatch:
    """Pad a list of examples into one :class:`SessionBatch`.

    A Python loop over examples and ops. It is the path for live sessions
    and the oracle every packed-collate test compares against; a
    :class:`DataLoader` batches through the vectorized
    :func:`~repro.data.packed.collate_packed` instead. The loop wins at the
    one or two sessions a serving flush collates, where packing first
    costs more than it saves, and loses from a few dozen sessions up
    (``docs/data.md``, "Two collates").

    With ``buffers`` the batch arrays are zeroed views into the pool's
    grow-only storage instead of fresh allocations — see
    :class:`CollateBuffers` for the aliasing contract. ``pad_to`` forces
    the ``(n_max, k_max, t_max)`` padding (must cover the examples); shard
    workers use it to pad their rows to the full batch's dimensions.
    """
    if not examples:
        raise ValueError("cannot collate an empty list of examples")
    _check_max_ops(max_ops_per_item)
    batch = len(examples)
    n_max, k_max, t_max = padded_dims(examples, max_ops_per_item)
    if pad_to is not None:
        if pad_to[0] < n_max or pad_to[1] < k_max or pad_to[2] < t_max:
            raise ValueError(f"pad_to {pad_to} smaller than required {(n_max, k_max, t_max)}")
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

    for b, ex in enumerate(examples):
        if ex.target is None:
            raise ValueError(f"example {ex.session_id} has no target")
        targets[b] = ex.target
        t = 0
        for i, (item, op_seq) in enumerate(zip(ex.macro_items, ex.op_sequences)):
            truncated = op_seq[:k_max]
            items[b, i] = item
            item_mask[b, i] = 1.0
            for j, op in enumerate(truncated):
                ops[b, i, j] = op + 1
                op_mask[b, i, j] = 1.0
                micro_items[b, t] = item
                micro_ops[b, t] = op + 1
                micro_mask[b, t] = 1.0
                t += 1
        last_op[b] = micro_ops[b, t - 1]

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


class DataLoader:
    """Iterates over examples in (optionally shuffled) padded batches.

    The shuffle order is a pure function of ``(seed, epoch)``: each pass
    reseeds a generator with ``seed`` and fast-forwards it by ``epoch``
    shuffles before permuting, which reproduces exactly the orders the old
    single-mutating-stream loader emitted (epoch 0 included) while letting
    a resumed run replay any epoch's order via :meth:`set_epoch`.

    ``examples`` is a :class:`~repro.data.packed.PackedSplit` or any
    sequence of :class:`MacroSession`; a sequence is packed into CSR arrays
    once, here. Every batch is then built by the vectorized
    :func:`~repro.data.packed.collate_packed`, bitwise :func:`collate` on
    the same examples.
    """

    def __init__(
        self,
        examples,
        batch_size: int = 64,
        shuffle: bool = False,
        seed: int = 0,
        max_ops_per_item: int | None = 6,
        reuse_buffers: bool = False,
    ):
        from .packed import PackedSplit  # packed.py imports this module

        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        _check_max_ops(max_ops_per_item)
        if not isinstance(examples, PackedSplit):
            examples = PackedSplit.from_examples(list(examples))
        self.examples = examples
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.seed = seed
        self.epoch = 0  # epoch of the *next* pass; auto-advances per __iter__
        self.max_ops_per_item = max_ops_per_item
        # Opt-in: each yielded batch aliases a shared buffer pool and is
        # only valid until the next one (safe for consume-as-you-go loops
        # like Trainer.fit; NOT for `list(loader)`). See CollateBuffers.
        self._buffers = CollateBuffers() if reuse_buffers else None

    def __len__(self) -> int:
        return (len(self.examples) + self.batch_size - 1) // self.batch_size

    def set_epoch(self, epoch: int) -> None:
        """Position the loader so the next pass replays ``epoch``'s order."""
        if epoch < 0:
            raise ValueError("epoch must be >= 0")
        self.epoch = epoch

    def state_dict(self) -> dict:
        """The two integers that fully determine every future batch order."""
        return {"seed": self.seed, "epoch": self.epoch}

    def load_state_dict(self, state: dict) -> None:
        self.seed = int(state["seed"])
        self.set_epoch(int(state["epoch"]))

    def permutation(self, epoch: int) -> np.ndarray:
        """The example order of ``epoch``, derived from ``(seed, epoch)``.

        ``Generator.shuffle`` consumes randomness as a function of array
        length only, so ``epoch`` scratch shuffles advance the stream to
        exactly where the old persistent generator stood at that epoch.
        """
        order = np.arange(len(self.examples))
        if self.shuffle:
            rng = np.random.default_rng(self.seed)
            # Fast-forward: each past epoch consumed one length-n shuffle's
            # worth of the stream. Replay them on the same array, restore
            # the identity in place (sorting a permutation of 0..n-1), then
            # draw this epoch's shuffle — one allocation total.
            for _ in range(epoch):
                rng.shuffle(order)
            if epoch:
                order.sort()
            rng.shuffle(order)
        return order

    def subset_dims(self, indices: Sequence[int]) -> tuple[int, int, int]:
        """The ``(n, k, t)`` padding for the examples at ``indices``.

        Read off the CSR arrays, so shard workers never materialize
        examples just to measure them.
        """
        return self.examples.padded_dims(indices, self.max_ops_per_item)

    def collate_indices(
        self,
        indices: Sequence[int],
        pad_to: tuple[int, int, int] | None = None,
        buffers: CollateBuffers | None = None,
    ) -> SessionBatch:
        """Collate the examples at ``indices`` (honoring buffer reuse).

        Random-access counterpart of iteration: together with
        :meth:`permutation` it lets any process materialize batch ``b`` of
        epoch ``e`` directly — the data-parallel workers build their
        batches this way without ever streaming through earlier ones.
        ``pad_to``/``buffers`` override the loader's own padding and pool
        (shard workers pad their rows to the full batch's dimensions into
        a private pool).
        """
        return self.examples.collate(
            indices,
            max_ops_per_item=self.max_ops_per_item,
            buffers=self._buffers if buffers is None else buffers,
            pad_to=pad_to,
        )

    def __iter__(self) -> Iterator[SessionBatch]:
        order = self.permutation(self.epoch)
        self.epoch += 1
        for start in range(0, len(order), self.batch_size):
            yield self.collate_indices(order[start : start + self.batch_size])
