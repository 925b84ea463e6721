"""MKM-SR's operation-prediction auxiliary loss, on the Objective seam.

MKM-SR (Meng et al., 2020) originally trains next-operation prediction
alongside next-item prediction so the operation GRU learns transition
structure instead of a bag of operations. The knowledge-free port in
``repro.baselines.mkm_sr`` dropped it; this objective restores it as the
second client of :class:`~repro.objectives.CompositeObjective`, proving
the seam is not single-purpose.

The model contributes ``operation_logits(batch)`` — flat ``[B*T,
num_ops]`` scores over real operations, one row per padded micro position
— and the objective picks every valid transition ``t -> t+1`` and scores
the operation at ``t+1`` from the GRU state at ``t``. Normalization is
per-session (the transition-NLL sum divided by the batch's row count), so
the loss decomposes over the shard grid exactly like cross-entropy with
``total``. The number of transitions gathered is content-driven, so the
``picked`` logits' height varies from batch to batch.
"""

from __future__ import annotations

import numpy as np

from ..autograd.tensor import Tensor
from ..nn.loss import cross_entropy
from .base import Objective, ObjectiveParts

__all__ = ["OperationPredictionObjective"]


class OperationPredictionObjective(Objective):
    """Next-operation prediction over the flat micro-behavior sequence."""

    name = "op"
    component_names = ("op",)

    def compute(self, model, batch, *, total: int | None = None) -> ObjectiveParts:
        fn = getattr(model, "operation_logits", None)
        if fn is None:
            raise TypeError(
                f"{type(model).__name__} exposes no operation_logits(); the "
                "operation-prediction objective needs per-position op scores"
            )
        mask = batch.micro_mask
        steps = mask.shape[1]
        valid = (mask[:, :-1] > 0) & (mask[:, 1:] > 0)
        rows, cols = np.nonzero(valid)
        if rows.size == 0:  # degenerate shard: no observed transition
            zero = Tensor(0.0)
            return ObjectiveParts(zero, {"op": zero})
        logits = fn(batch)  # [B*T, num_ops]
        targets = (batch.micro_ops[rows, cols + 1] - 1).astype(np.int64)
        picked = logits.take(rows * steps + cols, axis=0)
        divisor = batch.batch_size if total is None else int(total)
        loss = cross_entropy(picked, targets, total=divisor)
        return ObjectiveParts(loss, {"op": loss})
