"""InfoNCE over augmented session views: the EMBSR-SSL auxiliary loss.

Two deterministically augmented views of every batch (see
:mod:`repro.data.augment`) are encoded through the model's
``encode_sessions`` seam; matching rows are positives, every other row in
the batch is a negative. The similarity matrix is temperature-scaled
cosine similarity, and the symmetric loss reuses the fused
:func:`~repro.nn.cross_entropy` kernel against the diagonal.
"""

from __future__ import annotations

import numpy as np

from ..data.augment import AugmentConfig, augment_batch, view_generator
from ..data.dataset import SessionBatch
from ..nn.loss import cross_entropy
from .base import Objective, ObjectiveParts

__all__ = ["InfoNCEObjective"]

class InfoNCEObjective(Objective):
    """Contrastive alignment of two augmented views of each session.

    Parameters
    ----------
    num_ops:
        Operation-vocabulary size of the dataset (substitution draws
        uniform replacement ids from it).
    temperature:
        Softmax temperature of the similarity logits.
    augment:
        The view-augmentation knobs; defaults match EMBSR-SSL's recipe.

    Shard semantics: on the shard grid each shard contrasts its own rows
    (in-shard negatives) and divides by the *full* batch's row count, so
    the fixed-order shard sum is the batch's per-session mean of in-shard
    InfoNCE — the grid-canonical definition of the objective, identical
    for the serial executor and any worker count.
    """

    name = "infonce"
    component_names = ("infonce",)

    def __init__(
        self,
        num_ops: int,
        temperature: float = 0.2,
        augment: AugmentConfig | None = None,
    ) -> None:
        super().__init__()
        if num_ops < 0:
            raise ValueError(f"num_ops must be >= 0, got {num_ops}")
        self.num_ops = int(num_ops)
        self.temperature = float(temperature)
        if self.temperature <= 0.0:
            raise ValueError(f"temperature must be positive, got {temperature}")
        self.augment = augment or AugmentConfig()

    # ------------------------------------------------------------------
    def _view(self, batch: SessionBatch, view: int) -> SessionBatch:
        """One augmented view, seeded by the current step context."""
        ctx = self._ctx
        rng = view_generator(ctx.seed, ctx.epoch, ctx.batch_index, ctx.shard, ctx.retry, view)
        return SessionBatch(**augment_batch(batch, rng, self.num_ops, self.augment))

    def compute(self, model, batch, *, total: int | None = None) -> ObjectiveParts:
        encode = getattr(model, "encode_sessions", None)
        if encode is None:
            raise TypeError(
                f"{type(model).__name__} exposes no encode_sessions(); the "
                "InfoNCE objective needs the session-encoding seam"
            )
        z1 = encode(self._view(batch, 0)).l2_normalize(axis=-1)
        z2 = encode(self._view(batch, 1)).l2_normalize(axis=-1)
        logits = (z1 @ z2.T) * (1.0 / self.temperature)
        targets = np.arange(batch.batch_size, dtype=np.int64)
        loss = (
            cross_entropy(logits, targets, total=total)
            + cross_entropy(logits.T, targets, total=total)
        ) * 0.5
        return ObjectiveParts(loss, {"infonce": loss})
