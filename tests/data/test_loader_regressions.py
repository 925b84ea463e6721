"""Regression pins for two DataLoader hot-path rewrites.

``padded_dims`` became a single pass over the op sequences (the old code
traversed every sequence twice); ``DataLoader.permutation`` lost a dead
re-allocation per fast-forwarded epoch. Both rewrites must be observationally
identical — these tests pin the outputs against naive references and against
literal golden orders so any future drift is loud. A ``max_ops_per_item``
below 1 is refused with a named error at both batch entry points.
"""

import numpy as np
import pytest

from repro.data import DataLoader, generate_dataset, jd_appliances_config, prepare_dataset
from repro.data.dataset import collate, padded_dims
from repro.data.schema import MacroSession


def naive_padded_dims(examples, max_ops_per_item=None):
    """The original two-traversal definition, kept as the oracle."""
    if not examples:
        raise ValueError("cannot collate an empty list of examples")
    n_max = max(len(ex) for ex in examples)
    k_nat = max(len(ops) for ex in examples for ops in ex.op_sequences)
    k_max = k_nat if max_ops_per_item is None else min(k_nat, max_ops_per_item)
    t_max = max(
        sum(min(len(ops), k_max) for ops in ex.op_sequences) for ex in examples
    )
    return n_max, k_max, t_max


def ragged_examples(seed, count=60):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        n = int(rng.integers(1, 9))
        items = [int(v) for v in rng.integers(1, 50, size=n)]
        ops = [
            [int(v) for v in rng.integers(0, 4, size=int(rng.integers(1, 12)))]
            for _ in range(n)
        ]
        out.append(
            MacroSession(session_id=i, macro_items=items, op_sequences=ops, target=1)
        )
    return out


@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize("cap", [None, 1, 2, 5, 11, 100])
def test_padded_dims_matches_two_pass_oracle(seed, cap):
    examples = ragged_examples(seed)
    assert padded_dims(examples, cap) == naive_padded_dims(examples, cap)


def test_padded_dims_cap_above_and_below_natural_k():
    ex = MacroSession([1, 2, 3], [[0], [1, 2, 3, 0], [2, 2]], target=1)
    assert padded_dims([ex]) == (3, 4, 7)
    assert padded_dims([ex], max_ops_per_item=2) == (3, 2, 5)
    assert padded_dims([ex], max_ops_per_item=4) == (3, 4, 7)
    assert padded_dims([ex], max_ops_per_item=99) == (3, 4, 7)


def test_padded_dims_empty_raises():
    with pytest.raises(ValueError, match="empty"):
        padded_dims([])


# Literal golden orders for n=8: any change to the (seed, epoch) -> order
# map silently reshuffles every resumed training run, so pin the values.
_GOLDEN = {
    (0, 0): [2, 4, 3, 6, 5, 0, 1, 7],
    (0, 1): [6, 2, 7, 4, 5, 1, 0, 3],
    (0, 5): [4, 7, 6, 5, 0, 1, 2, 3],
    (7, 0): [0, 6, 7, 2, 4, 5, 1, 3],
    (7, 1): [7, 3, 6, 2, 0, 4, 1, 5],
    (7, 5): [7, 0, 1, 2, 4, 6, 3, 5],
}


def _loader(n=8, seed=0):
    examples = ragged_examples(1, count=n)
    return DataLoader(examples, batch_size=4, shuffle=True, seed=seed)


@pytest.mark.parametrize(("seed", "epoch"), sorted(_GOLDEN))
def test_permutation_golden_orders(seed, epoch):
    loader = _loader(seed=seed)
    assert loader.permutation(epoch).tolist() == _GOLDEN[(seed, epoch)]


@pytest.mark.parametrize("epoch", [0, 1, 5])
def test_permutation_matches_persistent_generator(epoch):
    """Fast-forwarded orders equal a generator that lived through every
    epoch — the contract that makes mid-training resume bit-exact."""
    loader = _loader(n=33, seed=4)
    rng = np.random.default_rng(4)
    for _ in range(epoch):
        rng.shuffle(np.arange(33))
    expected = np.arange(33)
    rng.shuffle(expected)
    assert np.array_equal(loader.permutation(epoch), expected)


def test_permutation_is_pure():
    loader = _loader(seed=2)
    a = loader.permutation(3)
    b = loader.permutation(3)
    assert np.array_equal(a, b)
    assert a is not b  # no shared mutable state between calls
    assert np.array_equal(np.sort(a), np.arange(8))


def test_permutation_no_shuffle_is_identity():
    examples = ragged_examples(1, count=6)
    loader = DataLoader(examples, batch_size=4, shuffle=False, seed=0)
    for epoch in (0, 4):
        assert np.array_equal(loader.permutation(epoch), np.arange(6))


def test_loader_epoch_orders_on_real_dataset():
    """End to end: batches drawn across epochs follow permutation(epoch)."""
    cfg = jd_appliances_config()
    ds = prepare_dataset(
        generate_dataset(cfg, 120, seed=2), cfg.operations, min_support=2, name="jd"
    )
    loader = DataLoader(ds.train, batch_size=16, shuffle=True, seed=9)
    for epoch in range(2):
        order = loader.permutation(epoch)
        got = [b.targets.copy() for b in loader]
        want = [
            np.asarray([ds.train[i].target for i in order[s : s + 16]])
            for s in range(0, len(order), 16)
        ]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


@pytest.mark.parametrize("cap", [0, -1])
@pytest.mark.parametrize(
    "entry",
    [
        lambda examples, cap: DataLoader(examples, max_ops_per_item=cap),
        lambda examples, cap: collate(examples, max_ops_per_item=cap),
    ],
    ids=["loader", "collate"],
)
def test_max_ops_below_one_is_a_named_error(entry, cap):
    with pytest.raises(ValueError, match=f"max_ops_per_item must be >= 1 or None, got {cap}$"):
        entry(ragged_examples(0, count=4), cap)


def test_fit_with_max_ops_zero_is_a_named_error():
    """The value can arrive from an artifact's train settings: fit names it."""
    from repro.eval import TrainConfig, Trainer
    from repro.registry import build_module, spec_for

    cfg = jd_appliances_config()
    ds = prepare_dataset(
        generate_dataset(cfg, 60, seed=2), cfg.operations, min_support=2, name="jd"
    )
    spec = spec_for("STAMP", num_items=ds.num_items, num_ops=ds.num_operations, dim=8)
    trainer = Trainer(build_module(spec), TrainConfig(epochs=1, max_ops_per_item=0))
    with pytest.raises(ValueError, match="max_ops_per_item must be >= 1 or None, got 0"):
        trainer.fit(ds)
