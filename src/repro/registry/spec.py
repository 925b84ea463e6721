"""Declarative model specifications.

A :class:`ModelSpec` is the *complete* recipe for constructing one of the
repository's recommender systems: the registered model name, the family the
registry dispatches construction on, the dataset dimensions the
architecture is sized for, every hyper-parameter, and (for trainable
systems) the portable optimization knobs. It is a frozen dataclass built
from JSON scalars only, so it serializes losslessly to JSON, pickles, and
crosses process boundaries — the property every multi-worker serving and
training path relies on (see ``docs/registry.md``).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..autograd import MODEL_DTYPE

__all__ = ["ModelSpec"]

# Spec fields that define *architecture identity*: two specs agreeing on
# these build bit-identical parameter shapes, so checkpoints transfer.
# ``train`` (optimization knobs) and ``dtype`` (storage precision; loads
# cast) are deliberately excluded.
_ARCHITECTURE_FIELDS = ("name", "family", "num_items", "num_ops", "params")


@dataclass(frozen=True)
class ModelSpec:
    """Self-contained, serializable recipe for building one recommender.

    Parameters
    ----------
    name:
        The registered model name (``"EMBSR"``, ``"SGNN-HN"``,
        ``"EMBSR-beta=0.4"``, ...).
    family:
        Registry dispatch key naming the architecture family
        (``"embsr"``, ``"stamp"``, ``"sknn"``, ...).
    num_items / num_ops:
        Dataset dimensions the embedding tables are sized for.
    params:
        Architecture hyper-parameters (``dim``, ``dropout``, ``seed``,
        variant switches, ...). JSON scalars only.
    train:
        Portable optimization knobs (``epochs``, ``lr``, ...). Runtime-only
        settings (checkpoint paths, verbosity) never belong here.
    dtype:
        Parameter storage dtype the model trains/serves under.
    """

    name: str
    family: str
    num_items: int
    num_ops: int
    params: dict[str, Any] = field(default_factory=dict)
    train: dict[str, Any] = field(default_factory=dict)
    dtype: str = MODEL_DTYPE

    def __post_init__(self):
        if self.num_items <= 0:
            raise ValueError(f"num_items must be positive, got {self.num_items}")
        if self.num_ops < 0:
            raise ValueError(f"num_ops must be non-negative, got {self.num_ops}")
        # Fail fast on anything that could not cross a process boundary.
        try:
            json.dumps({"params": self.params, "train": self.train})
        except TypeError as error:
            raise TypeError(f"spec for {self.name!r} is not JSON-serializable: {error}")

    # ------------------------------------------------------------- identity
    def architecture(self) -> dict[str, Any]:
        """The fields that determine parameter names and shapes."""
        return {f: getattr(self, f) for f in _ARCHITECTURE_FIELDS}

    def architecture_mismatch(self, other: "ModelSpec | dict") -> dict[str, tuple]:
        """Architecture fields on which ``self`` and ``other`` disagree."""
        theirs = other.architecture() if isinstance(other, ModelSpec) else {
            f: other.get(f) for f in _ARCHITECTURE_FIELDS
        }
        mine = self.architecture()
        return {f: (mine[f], theirs[f]) for f in _ARCHITECTURE_FIELDS if mine[f] != theirs[f]}

    # ----------------------------------------------------------- round trip
    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ModelSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelSpec":
        return cls.from_dict(json.loads(text))

    # -------------------------------------------------------------- helpers
    def train_config(self, **overrides):
        """Materialize a :class:`~repro.eval.trainer.TrainConfig`.

        Unknown keys in ``train`` are ignored (forward compatibility);
        ``overrides`` layer runtime-only knobs (checkpoint paths, verbose)
        on top of the portable record.
        """
        # Imported lazily: repro.eval imports the registry at package init.
        from ..eval.trainer import TrainConfig

        known = {f.name for f in dataclasses.fields(TrainConfig)}
        kwargs = {k: v for k, v in self.train.items() if k in known}
        kwargs["dtype"] = self.dtype  # the dtype the weights are stored in
        kwargs.update(overrides)
        return TrainConfig(**kwargs)

    def describe(self) -> str:
        """One-line parameter summary for ``repro models``-style listings."""
        parts = [f"{k}={v}" for k, v in sorted(self.params.items())]
        return ", ".join(parts) if parts else "-"
