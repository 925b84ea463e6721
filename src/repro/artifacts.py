"""Self-describing model artifacts: spec + vocabulary + weights + metadata.

A bag of parameter arrays cannot be served without re-loading the dataset
it was trained on and re-deriving the architecture by hand, so a trained
model is saved as an **artifact**, the one model file this library writes
and reads. It bundles everything a fresh process needs to reconstruct the
fitted model:

* the :class:`~repro.registry.ModelSpec` (architecture identity),
* the item vocabulary in dense order (raw id of every embedding row),
* every parameter array,
* training metadata — metrics, the dataset fingerprint, dtype, and a
  popularity ranking for degraded serving.

Artifacts are single ``.npz`` archives written atomically through
``repro.reliability.atomic``, so a crash mid-save never destroys the
previous good bundle. ``repro serve --artifact model.npz`` boots a full
gateway from one of these with **no dataset file at all**, and a spec/
weights bundle loaded in a spawned worker reproduces ``score_batch``
bit-identically (``docs/registry.md``).
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .data.preprocess import ItemVocab
from .registry import ModelSpec
from .reliability import atomic_save_npz

__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "ArtifactFormatError",
    "ModelArtifact",
    "save_artifact",
    "load_artifact",
    "load_recommender",
    "store_retrieval_spec",
]

ARTIFACT_FORMAT_VERSION = 1


class ArtifactFormatError(ValueError):
    """A file that is not a model artifact this build reads."""


# Reserved archive keys. Everything under WEIGHT_PREFIX is a parameter.
_HEADER_KEY = "__artifact__"
_ITEMS_KEY = "vocab/item_ids"
_WEIGHT_PREFIX = "weights/"


@dataclass
class ModelArtifact:
    """An in-memory artifact bundle, loaded from or destined for disk."""

    spec: ModelSpec
    weights: dict[str, np.ndarray]
    item_ids: list[int]
    metadata: dict[str, Any] = field(default_factory=dict)

    def vocab(self) -> ItemVocab:
        """The training vocabulary, dense order preserved."""
        return ItemVocab.from_ordered(self.item_ids)

    def validate(self) -> "ModelArtifact":
        if len(self.item_ids) != self.spec.num_items:
            raise ValueError(
                f"artifact is inconsistent: spec says {self.spec.num_items} items "
                f"but the vocabulary holds {len(self.item_ids)}"
            )
        return self

    def build_module(self):
        """Reconstruct the fitted :class:`~repro.nn.Module` (weights loaded)."""
        from .registry import build_module

        model = build_module(self.spec)
        model.load_state_dict(self.weights)
        return model

    def build(self, train_config=None):
        """Reconstruct a ready-to-score :class:`~repro.eval.Recommender`."""
        from .eval.trainer import NeuralRecommender

        return NeuralRecommender.from_artifact(self, train_config)

    def retrieval_spec(self):
        """The stored ANN index recipe, or ``None`` when none was saved.

        Indexes are rebuilt from this recipe at load time — the artifact
        never carries index arrays (``docs/retrieval.md``).
        """
        stored = self.metadata.get("retrieval")
        if not stored:
            return None
        from .retrieval import IndexSpec

        return IndexSpec.from_dict(stored)


def save_artifact(
    path: str | pathlib.Path,
    *,
    spec: ModelSpec,
    weights: dict[str, np.ndarray],
    item_ids: list[int],
    metadata: dict[str, Any] | None = None,
) -> pathlib.Path:
    """Atomically write one self-describing artifact archive at ``path``.

    The weights are stored in ``spec.dtype``, so the header always names
    the dtype of the arrays it describes.
    """
    artifact = ModelArtifact(spec, dict(weights), list(item_ids), dict(metadata or {}))
    artifact.validate()
    header = {
        "format_version": ARTIFACT_FORMAT_VERSION,
        "spec": artifact.spec.to_dict(),
        "metadata": artifact.metadata,
    }
    arrays: dict[str, np.ndarray] = {
        _HEADER_KEY: np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
        _ITEMS_KEY: np.asarray(artifact.item_ids, dtype=np.int64),
    }
    for name, array in artifact.weights.items():
        arrays[_WEIGHT_PREFIX + name] = np.asarray(array, dtype=spec.dtype)
    return atomic_save_npz(path, arrays)


def load_artifact(path: str | pathlib.Path) -> ModelArtifact:
    """Load an artifact written by :func:`save_artifact`.

    Raises :class:`ArtifactFormatError` when ``path`` is an ``.npz``
    archive that is not an artifact (e.g. bare parameters, which carry no
    spec or vocabulary) or one of another format version.
    """
    path = pathlib.Path(path)
    with np.load(path) as archive:
        if _HEADER_KEY not in archive.files:
            raise ArtifactFormatError(
                f"{path} is not a model artifact (missing {_HEADER_KEY!r} header); "
                "bare parameters carry no spec/vocabulary"
            )
        data = {name: archive[name] for name in archive.files}
    header = json.loads(data.pop(_HEADER_KEY).tobytes().decode())
    version = header.get("format_version")
    if version != ARTIFACT_FORMAT_VERSION:
        raise ArtifactFormatError(
            f"{path} uses artifact format {version!r}; this build reads "
            f"version {ARTIFACT_FORMAT_VERSION}"
        )
    item_ids = [int(i) for i in data.pop(_ITEMS_KEY)]
    weights = {
        name[len(_WEIGHT_PREFIX):]: array
        for name, array in data.items()
        if name.startswith(_WEIGHT_PREFIX)
    }
    return ModelArtifact(
        spec=ModelSpec.from_dict(header["spec"]),
        weights=weights,
        item_ids=item_ids,
        metadata=header.get("metadata", {}),
    ).validate()


def load_recommender(path: str | pathlib.Path, train_config=None):
    """One-call boot: artifact on disk -> fitted, scoreable recommender."""
    return load_artifact(path).build(train_config)


def store_retrieval_spec(path: str | pathlib.Path, spec) -> pathlib.Path:
    """Record an ANN index recipe in an artifact's metadata (atomic rewrite).

    ``repro index build ... --save`` uses this so a later
    ``repro serve --artifact`` rebuilds the exact same index — same
    resolved cells/nprobe/seed — without any side file.
    """
    artifact = load_artifact(path)
    metadata = dict(artifact.metadata)
    metadata["retrieval"] = spec.to_dict()
    return save_artifact(
        path,
        spec=artifact.spec,
        weights=artifact.weights,
        item_ids=artifact.item_ids,
        metadata=metadata,
    )
