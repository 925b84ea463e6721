"""Composable training objectives (docs/objectives.md).

The one training step (:func:`repro.eval.trainer.train_step`, run by the
:class:`~repro.eval.Trainer`, the online mini-trainer in
:mod:`repro.deploy` and ``repro profile``) computes each shard through an
:class:`Objective` instead of inlining a loss expression. :func:`build_objective` maps the
``TrainConfig`` ``objective`` name to a concrete instance.
"""

from __future__ import annotations

from .base import (
    CompositeObjective,
    CrossEntropyObjective,
    Objective,
    ObjectiveParts,
    StepContext,
)
from .contrastive import InfoNCEObjective
from .op_prediction import OperationPredictionObjective

__all__ = [
    "StepContext",
    "ObjectiveParts",
    "Objective",
    "CrossEntropyObjective",
    "CompositeObjective",
    "InfoNCEObjective",
    "OperationPredictionObjective",
    "OBJECTIVE_NAMES",
    "build_objective",
]

#: Names accepted by ``TrainConfig.objective`` / ``--objective``.
OBJECTIVE_NAMES = ("ce", "infonce", "ssl", "op-aux")


def build_objective(
    name: str,
    *,
    cl_weight: float = 0.1,
    num_ops: int = 0,
    temperature: float = 0.2,
) -> Objective:
    """Construct the named objective.

    ``ce``
        Plain next-item cross-entropy — the paper's Eq. 20 and the
        default on every path.
    ``infonce``
        Pure contrastive alignment of augmented views (diagnostics; it
        never sees the next-item labels).
    ``ssl``
        EMBSR-SSL: ``ce + cl_weight * infonce``.
    ``op-aux``
        MKM-SR's auxiliary loss: ``ce + cl_weight * op`` where ``op`` is
        next-operation prediction.

    ``cl_weight`` weights whichever auxiliary term the composite carries;
    ``num_ops`` is the dataset's operation-vocabulary size (used by both
    auxiliary terms); ``temperature`` only affects InfoNCE.
    """
    if name == "ce":
        return CrossEntropyObjective()
    if name == "infonce":
        return InfoNCEObjective(num_ops, temperature=temperature)
    if name == "ssl":
        return CompositeObjective(
            [
                ("ce", CrossEntropyObjective(), 1.0),
                ("infonce", InfoNCEObjective(num_ops, temperature=temperature), float(cl_weight)),
            ]
        )
    if name == "op-aux":
        return CompositeObjective(
            [
                ("ce", CrossEntropyObjective(), 1.0),
                ("op", OperationPredictionObjective(), float(cl_weight)),
            ]
        )
    raise KeyError(
        f"unknown objective {name!r}: expected one of {', '.join(OBJECTIVE_NAMES)}"
    )
