"""Data-parallel training from a memmap-backed packed dataset.

A memmap-loaded dataset is the same CSR arrays read through the page cache,
so 2-worker training from an ``.rpk`` file must land on exactly the
parameters of the in-process run on the prepared dataset, and the workers
must share the memmap pages rather than materializing per-worker example
lists.
"""

import numpy as np
import pytest

from repro.data.packed import load_packed
from repro.eval import ExperimentConfig, ExperimentRunner


def _fit(dataset, *, workers=1):
    config = ExperimentConfig(
        dim=16,
        epochs=2,
        batch_size=32,
        seed=3,
        workers=workers,
        grad_shards=2,
    )
    runner = ExperimentRunner(dataset, config)
    recommender = runner.build("NARM")
    recommender.fit(dataset)
    return {k: v.copy() for k, v in recommender.model.state_dict().items()}


@pytest.fixture(scope="module")
def reference(dataset):
    """In-process run of the same shard grid on the prepared dataset."""
    return _fit(dataset)


def _assert_states_equal(state, ref):
    assert set(state) == set(ref)
    for name in sorted(ref):
        assert np.array_equal(state[name], ref[name]), name


def test_two_workers_from_memmap_file_bit_identical(tmp_path, dataset, reference):
    """Training straight off a memmap-loaded .rpk file: same parameters."""
    path = tmp_path / "jd.rpk"
    dataset.save(path)
    loaded = load_packed(path, mmap=True)
    state = _fit(loaded, workers=2)
    _assert_states_equal(state, reference)


def test_packed_splits_stay_unmaterialized(dataset):
    """The loader must not expand a PackedSplit into an object list (or
    re-pack it) — that is the whole memory win of the memmap path."""
    from repro.data.dataset import DataLoader

    loader = DataLoader(dataset.train, batch_size=32)
    assert loader.examples is dataset.train  # not list(...), not re-packed
