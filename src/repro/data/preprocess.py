"""Dataset preprocessing pipeline (paper Sec. V-A1).

Steps, in the paper's order:

1. filter out items with fewer than ``min_support`` occurrences
   (50 for the JD datasets, 5 for trivago);
2. split sessions 70% / 10% / 20% into train / validation / test;
3. use the last *macro* item of each session as the ground truth;
4. exclude sessions consisting of only a single (macro) item.

Item ids are remapped to a dense vocabulary where **0 is the padding id**
and real items occupy ``1..num_items``. Operation ids are likewise shifted
by one in the batching layer (see ``repro.data.dataset``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .schema import MacroSession, OperationVocab, Session

__all__ = [
    "ItemVocab",
    "PreparedDataset",
    "prepare_dataset",
    "augment_prefixes",
    "single_operation_view",
]


class ItemVocab:
    """Dense item-id mapping; id 0 is reserved for padding."""

    PAD = 0

    def __init__(self, raw_ids: list[int]):
        self._to_dense = {raw: i + 1 for i, raw in enumerate(sorted(set(raw_ids)))}
        self._to_raw = {v: k for k, v in self._to_dense.items()}

    @classmethod
    def from_ordered(cls, raw_ids: list[int]) -> "ItemVocab":
        """Rebuild a vocabulary whose dense order is already decided.

        ``raw_ids[i]`` becomes dense id ``i + 1`` verbatim — no sorting, no
        dedup — so a vocabulary persisted in dense order (e.g. inside a
        model artifact) round-trips to the exact id mapping the weights
        were trained with.
        """
        if len(set(raw_ids)) != len(raw_ids):
            raise ValueError("from_ordered requires unique raw ids")
        vocab = cls.__new__(cls)
        vocab._to_dense = {raw: i + 1 for i, raw in enumerate(raw_ids)}
        vocab._to_raw = {v: k for k, v in vocab._to_dense.items()}
        return vocab

    def ordered_raw_ids(self) -> list[int]:
        """Raw ids in dense order (dense id ``i + 1`` -> element ``i``)."""
        return [self._to_raw[i] for i in range(1, len(self._to_raw) + 1)]

    def __len__(self) -> int:
        """Number of real items (excluding padding)."""
        return len(self._to_dense)

    @property
    def num_ids(self) -> int:
        """Size of the embedding table (items + padding slot)."""
        return len(self._to_dense) + 1

    def __contains__(self, raw_id: int) -> bool:
        return raw_id in self._to_dense

    def encode(self, raw_id: int) -> int:
        return self._to_dense[raw_id]

    def decode(self, dense_id: int) -> int:
        return self._to_raw[dense_id]


@dataclass
class PreparedDataset:
    """A fully preprocessed dataset ready for model training."""

    name: str
    train: list[MacroSession]
    validation: list[MacroSession]
    test: list[MacroSession]
    vocab: ItemVocab
    operations: OperationVocab

    @property
    def num_items(self) -> int:
        return len(self.vocab)

    @property
    def num_operations(self) -> int:
        return len(self.operations)

    def splits(self) -> dict[str, list[MacroSession]]:
        return {"train": self.train, "validation": self.validation, "test": self.test}


def prepare_dataset(
    sessions: list[Session],
    operations: OperationVocab,
    name: str = "dataset",
    min_support: int = 5,
    max_macro_len: int = 20,
    split: tuple[float, float, float] = (0.7, 0.1, 0.2),
    seed: int = 0,
) -> PreparedDataset:
    """Run the full preprocessing pipeline over raw sessions.

    The sessions go through the columnar core
    (:func:`repro.data.ingest.pack_chunks`), the same code that packs a
    JSONL file, and come back as examples. The vocabulary covers the
    whole filtered corpus, so every item has an embedding row (test-only
    items would otherwise be unscoreable; the paper's setup has the same
    closed item set V).
    """
    from .ingest import pack_chunks, session_chunks

    return pack_chunks(
        session_chunks(sessions),
        operations,
        name=name,
        min_support=min_support,
        max_macro_len=max_macro_len,
        split=split,
        seed=seed,
        fingerprint=False,
    ).to_prepared()


def augment_prefixes(examples: list[MacroSession]) -> list[MacroSession]:
    """Prefix augmentation (Tan et al., 2016; used by the SR-GNN family).

    For each example with input ``[v1..vn]`` and target ``t``, also emit
    ``([v1..vk], v_{k+1})`` for every ``k >= 1``.
    """
    augmented: list[MacroSession] = []
    for ex in examples:
        augmented.append(ex)
        for k in range(1, len(ex)):
            augmented.append(
                MacroSession(
                    ex.macro_items[:k],
                    [list(o) for o in ex.op_sequences[:k]],
                    target=ex.macro_items[k],
                    session_id=ex.session_id,
                )
            )
    return augmented


def single_operation_view(
    examples: list[MacroSession],
    operations: OperationVocab,
    keep_ops: set[int],
) -> list[MacroSession]:
    """Restrict each example to macro steps that contain a kept operation.

    This implements the supplemental-material experiment (Supp. Table I):
    macro-behavior baselines see only "click-like" events, while the ground
    truth of each sequence is kept identical for a fair comparison. Examples
    whose filtered input would be empty keep their last macro step so the
    session remains usable.
    """
    view: list[MacroSession] = []
    for ex in examples:
        kept_idx = [
            i for i, ops in enumerate(ex.op_sequences) if any(o in keep_ops for o in ops)
        ]
        if not kept_idx:
            kept_idx = [len(ex) - 1]
        items = [ex.macro_items[i] for i in kept_idx]
        op_seqs = [[o for o in ex.op_sequences[i] if o in keep_ops] or list(ex.op_sequences[i]) for i in kept_idx]
        view.append(MacroSession(items, op_seqs, target=ex.target, session_id=ex.session_id))
    return view
