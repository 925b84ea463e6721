"""Full-fidelity training state: everything a bit-identical resume needs.

A resumable run must capture more than model weights — Adam's moment
estimates, the LR schedule position, the epoch/batch cursor and the
shuffle epoch of the :class:`~repro.data.dataset.DataLoader`. Dropout
needs nothing: every training forward draws from a stream pure in
``(seed, epoch, batch, shard, retry)``. :class:`TrainingState` bundles
all of it; :func:`save_training_state` / :func:`load_training_state`
round-trip it through a single atomically-written ``.npz`` archive.

Layout inside the archive: arrays live under reserved key prefixes
(``model/``, ``best/``, and ``opt/<field>/<i>`` for the optimizer's
per-parameter array lists); every scalar/structured field rides in one
JSON document under the ``__meta__`` key, stamped with
:data:`TRAINING_STATE_FORMAT_VERSION`. A state of any other version is
refused with :class:`TrainingStateError`: version 1 (unstamped) states
trained ``grad_shards = 1`` on persistent dropout streams, which no
longer exist, so they cannot resume bit-identically.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field

import numpy as np

from .atomic import atomic_save_npz

__all__ = [
    "TRAINING_STATE_FORMAT_VERSION",
    "TrainingState",
    "TrainingStateError",
    "save_training_state",
    "load_training_state",
]

_META_KEY = "__meta__"
TRAINING_STATE_FORMAT_VERSION = 2


class TrainingStateError(ValueError):
    """The file is not a training state this build can resume."""


@dataclass
class TrainingState:
    """Snapshot of a training run, positioned *between* two batches.

    ``epoch``/``batch_index`` point at the **next** batch to run; a state
    written after the last batch of an epoch has ``batch_index`` equal to
    the epoch's batch count and resumes directly into validation.
    """

    epoch: int
    batch_index: int
    global_step: int
    model_state: dict[str, np.ndarray]
    optimizer_state: dict
    scheduler_state: dict
    loader_state: dict
    best_metric: float
    best_state: dict[str, np.ndarray] | None
    stale: int
    history: list[dict] = field(default_factory=list)
    epoch_losses: list[float] = field(default_factory=list)
    # Per-batch component-loss dicts of the in-flight epoch, parallel to
    # ``epoch_losses`` (e.g. [{"ce": ..., "infonce": ...}, ...]).
    epoch_components: list[dict] = field(default_factory=list)
    config: dict = field(default_factory=dict)
    # Architecture identity (a ModelSpec dict) of the model being trained,
    # when known — lets resume diff architectures instead of array shapes.
    spec: dict | None = None


def _json_safe(value):
    """Recursively convert numpy scalars/arrays into JSON-able builtins."""
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return {"__ndarray__": value.tolist(), "dtype": str(value.dtype)}
    if isinstance(value, np.generic):
        return value.item()
    return value


def _json_restore(value):
    if isinstance(value, dict):
        if "__ndarray__" in value:
            return np.asarray(value["__ndarray__"], dtype=value["dtype"])
        return {k: _json_restore(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_json_restore(v) for v in value]
    return value


def save_training_state(path: str | pathlib.Path, state: TrainingState) -> pathlib.Path:
    """Atomically persist ``state`` as one ``.npz`` archive."""
    arrays: dict[str, np.ndarray] = {}
    for name, array in state.model_state.items():
        arrays[f"model/{name}"] = array
    if state.best_state is not None:
        for name, array in state.best_state.items():
            arrays[f"best/{name}"] = array

    optimizer_meta: dict = {}
    for key, value in state.optimizer_state.items():
        if isinstance(value, (list, tuple)) and value and isinstance(value[0], np.ndarray):
            for i, array in enumerate(value):
                arrays[f"opt/{key}/{i}"] = array
            optimizer_meta[key] = {"__arrays__": len(value)}
        else:
            optimizer_meta[key] = _json_safe(value)

    meta = {
        "format_version": TRAINING_STATE_FORMAT_VERSION,
        "epoch": state.epoch,
        "batch_index": state.batch_index,
        "global_step": state.global_step,
        "optimizer": optimizer_meta,
        "scheduler": _json_safe(state.scheduler_state),
        "loader": _json_safe(state.loader_state),
        "best_metric": state.best_metric,
        "has_best": state.best_state is not None,
        "stale": state.stale,
        "history": _json_safe(state.history),
        "epoch_losses": [float(x) for x in state.epoch_losses],
        "epoch_components": _json_safe(state.epoch_components),
        "config": _json_safe(state.config),
        "spec": _json_safe(state.spec),
    }
    arrays[_META_KEY] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    return atomic_save_npz(path, arrays)


def load_training_state(path: str | pathlib.Path) -> TrainingState:
    """Load a state written by :func:`save_training_state`.

    Raises :class:`TrainingStateError` for a file that is not a training
    state (a model artifact, say) or one of another format version.
    """
    try:
        with np.load(pathlib.Path(path)) as archive:
            data = {name: archive[name] for name in archive.files}
    except (OSError, ValueError) as error:
        raise TrainingStateError(f"{path} is not a training-state archive ({error})") from None
    if _META_KEY not in data:
        raise TrainingStateError(f"{path} is not a training-state archive (missing {_META_KEY})")
    meta = json.loads(data.pop(_META_KEY).tobytes().decode())
    version = meta.get("format_version", 1)
    if version != TRAINING_STATE_FORMAT_VERSION:
        raise TrainingStateError(
            f"{path} is training-state format v{version}; this build reads "
            f"v{TRAINING_STATE_FORMAT_VERSION} only, so the run cannot resume "
            "(retrain from scratch)"
        )

    model_state = {k[len("model/") :]: v for k, v in data.items() if k.startswith("model/")}
    best_state = (
        {k[len("best/") :]: v for k, v in data.items() if k.startswith("best/")}
        if meta["has_best"]
        else None
    )
    optimizer_state: dict = {}
    for key, value in meta["optimizer"].items():
        if isinstance(value, dict) and "__arrays__" in value:
            optimizer_state[key] = [data[f"opt/{key}/{i}"] for i in range(value["__arrays__"])]
        else:
            optimizer_state[key] = _json_restore(value)

    return TrainingState(
        epoch=int(meta["epoch"]),
        batch_index=int(meta["batch_index"]),
        global_step=int(meta["global_step"]),
        model_state=model_state,
        optimizer_state=optimizer_state,
        scheduler_state=_json_restore(meta["scheduler"]),
        loader_state=_json_restore(meta["loader"]),
        best_metric=float(meta["best_metric"]),
        best_state=best_state,
        stale=int(meta["stale"]),
        history=_json_restore(meta["history"]),
        epoch_losses=[float(x) for x in meta["epoch_losses"]],
        epoch_components=_json_restore(meta["epoch_components"]),
        config=_json_restore(meta["config"]),
        spec=_json_restore(meta["spec"]),
    )
