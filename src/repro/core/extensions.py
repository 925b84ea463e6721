"""Extensions beyond the published model.

The paper's conclusion sketches two future directions; both are
implemented here so the library covers the paper's full roadmap:

* **Operation importance weighting** ("whether it would be beneficial to
  weight ... micro-behavior operations according to their importance") —
  :class:`OperationImportance` learns a positive scalar per operation that
  scales its embedding everywhere it is consumed. A sigmoid gate keeps the
  weights in (0, 2) so no operation can dominate at initialization.
* **Operation filtering** ("...or filter...") —
  :func:`filter_operations` drops a configurable set of operation types
  from prepared examples, enabling controlled leave-one-operation-out
  studies (see ``benchmarks/bench_ext_op_weighting.py``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..autograd import Tensor
from ..data.packed import PackedSplit
from ..data.schema import MacroSession
from ..nn import Embedding, Module
from ..nn.module import Parameter
from .embsr import EMBSR, EMBSRConfig

__all__ = ["OperationImportance", "WeightedOpEMBSR", "build_embsr_weighted_ops", "filter_operations"]


class OperationImportance(Module):
    """A learned positive importance weight per operation id.

    ``weight(o) = 2 * sigmoid(s_o)`` with ``s_o`` initialized to 0, so every
    operation starts at importance 1.0 and can be amplified toward 2 or
    suppressed toward 0 during training.
    """

    def __init__(self, num_ops: int):
        super().__init__()
        self.scores = Parameter(np.zeros(num_ops + 1))  # +1 for padding slot

    def forward(self, op_ids: np.ndarray) -> Tensor:
        """Return importance weights shaped like ``op_ids`` + trailing 1."""
        gathered = self.scores.take(np.asarray(op_ids, dtype=np.int64), axis=0)
        return (gathered.sigmoid() * 2.0).unsqueeze(-1)

    def values(self) -> np.ndarray:
        """Current importance per operation id (for inspection/reports)."""
        return 2.0 / (1.0 + np.exp(-self.scores.data))


class _WeightedEmbedding(Module):
    """Wraps an Embedding so lookups are scaled by operation importance."""

    def __init__(self, base: Embedding, importance: OperationImportance):
        super().__init__()
        self.base = base
        self.importance = importance
        # Expose the raw table for code paths that read `.weight` directly.
        self.weight = base.weight

    def forward(self, indices: np.ndarray) -> Tensor:
        return self.base(indices) * self.importance(indices)


class WeightedOpEMBSR(EMBSR):
    """EMBSR with learned per-operation importance weights.

    The importance gate multiplies the operation embedding wherever the
    base model consumes it (micro-op GRU input, attention input, star
    token), leaving the dyadic relation table untouched — relations encode
    *pairs* and already carry their own magnitudes.
    """

    def __init__(self, config: EMBSRConfig):
        super().__init__(config)
        self.op_importance = OperationImportance(config.num_ops)
        wrapped = _WeightedEmbedding(self.op_embedding, self.op_importance)
        if getattr(self, "gru_op_embedding", None) is self.op_embedding:
            self.gru_op_embedding = wrapped
        self.op_embedding = wrapped


def build_embsr_weighted_ops(config: EMBSRConfig) -> WeightedOpEMBSR:
    """Full EMBSR + the operation-importance extension."""
    return WeightedOpEMBSR(
        config.variant(
            encoder="star_gnn",
            use_op_gru=True,
            attention="dyadic",
            attention_level="micro",
            fusion="gate",
        )
    )


def filter_operations(
    examples: Sequence[MacroSession],
    drop_ops: set[int],
) -> PackedSplit:
    """Remove the given operation ids from every example's op sequences.

    A macro step that loses all of its operations keeps a single
    placeholder (its original first operation) so the step itself — and
    therefore the item transition structure — survives; the paper's
    filtering idea targets operations, not items. The result is a split,
    so it can replace one in a :class:`~repro.data.PreparedDataset`.
    """
    out = []
    for ex in examples:
        op_seqs = []
        for ops in ex.op_sequences:
            kept = [o for o in ops if o not in drop_ops]
            op_seqs.append(kept if kept else [ops[0]])
        out.append(MacroSession(ex.macro_items, op_seqs, target=ex.target, session_id=ex.session_id))
    return PackedSplit.from_examples(out)
