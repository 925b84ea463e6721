"""Loss functions.

The paper trains every neural model with the cross-entropy objective
(Eq. 20) over softmax scores; EMBSR additionally L2-normalizes the session
and item representations with a scale factor ``w_k`` before the softmax
(Eq. 19) — that normalization lives in the models, the loss here consumes
raw logits.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor
from ..perf import fused as _fused

__all__ = ["cross_entropy"]


def cross_entropy(logits: Tensor, targets: np.ndarray, total: int | None = None) -> Tensor:
    """Mean negative log-likelihood of ``targets`` under softmax(logits).

    Parameters
    ----------
    logits:
        [B, num_classes] unnormalized scores.
    targets:
        [B] integer class ids.
    total:
        Divisor of the sum of per-row losses. Defaults to the batch size
        (the ordinary mean). Data-parallel training passes the *full*
        batch size while scoring one shard of it, so the fixed-order sum
        of shard losses equals the whole-batch objective
        (``docs/performance.md``, "Parallelism").
    """
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2:
        raise ValueError(f"logits must be 2-D, got shape {logits.shape}")
    if targets.shape[0] != logits.shape[0]:
        raise ValueError("batch size mismatch between logits and targets")
    return _fused.log_softmax_nll(logits, targets, total=total)
