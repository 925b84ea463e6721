"""Parity and round-trip suite for the packed columnar format.

The contract under test (docs/data.md): the vectorized collate over CSR
arrays is **bitwise-identical** to the per-example loop collate under every
combination of truncation, forced padding and buffer reuse, every
``DataLoader`` batch is the loop collate of its chunk, and a pack → save →
memmap-load → to_prepared round trip is lossless.
"""

import numpy as np
import pytest

from repro.data import (
    generate_dataset,
    jd_appliances_config,
    jd_computers_config,
    load_packed,
    pack_dataset,
    prepare_dataset,
    trivago_config,
)
from repro.data.dataset import CollateBuffers, DataLoader, collate, padded_dims
from repro.data.packed import PackedSplit, packed_padded_dims, read_packed_header
from repro.data.schema import MacroSession
from repro.data.stats import dataset_fingerprint

FIELDS = (
    "items",
    "item_mask",
    "ops",
    "op_mask",
    "micro_items",
    "micro_ops",
    "micro_mask",
    "last_op",
    "targets",
)


def assert_batches_identical(a, b, context=""):
    for field in FIELDS:
        x, y = getattr(a, field), getattr(b, field)
        assert x.dtype == y.dtype, f"{context}{field}: dtype {x.dtype} != {y.dtype}"
        assert x.shape == y.shape, f"{context}{field}: shape {x.shape} != {y.shape}"
        assert x.tobytes() == y.tobytes(), f"{context}{field}: bytes differ"


@pytest.fixture(scope="module")
def dataset():
    cfg = jd_appliances_config()
    return prepare_dataset(
        generate_dataset(cfg, 300, seed=11), cfg.operations, min_support=2, name="jd"
    )


@pytest.fixture(scope="module")
def packed(dataset):
    return pack_dataset(dataset)


def random_ragged_examples(seed, count=40):
    """Random ragged sessions covering the paper's edge shapes.

    Mix of: single-op steps, op runs longer than any k cap (truncation),
    length-1 macro sequences, and max-length sessions.
    """
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        style = i % 4
        if style == 0:  # every step single-op
            n = int(rng.integers(1, 8))
            ops = [[int(rng.integers(0, 5))] for _ in range(n)]
        elif style == 1:  # long op runs, will truncate under any small cap
            n = int(rng.integers(1, 5))
            ops = [list(rng.integers(0, 5, size=int(rng.integers(7, 15)))) for _ in range(n)]
        elif style == 2:  # length-1 macro
            n = 1
            ops = [list(rng.integers(0, 5, size=int(rng.integers(1, 6))))]
        else:  # max-length macro
            n = 20
            ops = [list(rng.integers(0, 5, size=int(rng.integers(1, 6)))) for _ in range(n)]
        items = [int(x) for x in rng.integers(1, 50, size=n)]
        out.append(
            MacroSession(items, ops, target=int(rng.integers(1, 50)), session_id=i)
        )
    return out


# ----------------------------------------------------------------------
# collate parity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cap", [None, 1, 3, 6, 100])
def test_collate_parity_random_ragged(cap):
    examples = random_ragged_examples(seed=cap if cap is not None else 99)
    split = PackedSplit.from_examples(examples)
    rng = np.random.default_rng(0)
    for _ in range(10):
        idx = rng.choice(len(examples), size=int(rng.integers(1, len(examples))), replace=False)
        loop = collate([examples[i] for i in idx], max_ops_per_item=cap)
        vec = split.collate(idx, max_ops_per_item=cap)
        assert_batches_identical(loop, vec, context=f"cap={cap} ")


def test_collate_parity_with_pad_to_and_buffers():
    examples = random_ragged_examples(seed=7)
    split = PackedSplit.from_examples(examples)
    buffers = CollateBuffers()
    rng = np.random.default_rng(1)
    for _ in range(10):
        idx = rng.choice(len(examples), size=12, replace=False)
        chunk = [examples[i] for i in idx]
        dims = padded_dims(chunk, 6)
        pad = (dims[0] + 3, dims[1], dims[2] + 5)
        loop = collate(chunk, max_ops_per_item=6, pad_to=pad)
        vec = split.collate(idx, max_ops_per_item=6, pad_to=pad, buffers=buffers)
        assert_batches_identical(loop, vec, context="pad_to+buffers ")


def test_packed_padded_dims_matches_object_path():
    examples = random_ragged_examples(seed=5)
    split = PackedSplit.from_examples(examples)
    rng = np.random.default_rng(2)
    for cap in (None, 1, 4, 6):
        idx = rng.choice(len(examples), size=17, replace=False)
        assert packed_padded_dims(split, idx, cap) == padded_dims(
            [examples[i] for i in idx], cap
        )


def test_collate_rejects_empty_and_undersized_pad():
    split = PackedSplit.from_examples(random_ragged_examples(seed=3, count=5))
    with pytest.raises(ValueError, match="empty"):
        split.collate([])
    with pytest.raises(ValueError, match="pad_to"):
        split.collate([0, 1], max_ops_per_item=6, pad_to=(1, 1, 1))


def test_collate_parity_on_prepared_dataset(dataset, packed):
    rng = np.random.default_rng(9)
    for split_name in ("train", "validation", "test"):
        objs = getattr(dataset, split_name)
        csr = getattr(packed, split_name)
        idx = rng.permutation(len(objs))[:64]
        loop = collate([objs[i] for i in idx], max_ops_per_item=6)
        vec = csr.collate(idx, max_ops_per_item=6)
        assert_batches_identical(loop, vec, context=f"{split_name} ")


# ----------------------------------------------------------------------
# DataLoader: every batch is the loop collate of its chunk
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kwargs", [{}, {"reuse_buffers": True}])
def test_loader_parity_object_vs_packed(dataset, packed, kwargs):
    """A list and a PackedSplit both batch through the vectorized collate;
    each batch is the oracle ``collate`` of its materialised chunk."""
    for split in (dataset.train, packed.train):
        loader = DataLoader(split, batch_size=19, shuffle=True, seed=4, **kwargs)
        for epoch in range(2):
            order = loader.permutation(epoch)
            starts = range(0, len(order), 19)
            count = 0
            for start, batch in zip(starts, loader):
                chunk = [split[i] for i in order[start : start + 19]]
                assert_batches_identical(collate(chunk, max_ops_per_item=6), batch)
                count += 1
            assert count == len(starts) == len(loader)


def test_loader_collate_indices_and_subset_dims(dataset, packed):
    lo = DataLoader(dataset.train, batch_size=16, max_ops_per_item=6)
    lp = DataLoader(packed.train, batch_size=16, max_ops_per_item=6)
    idx = [3, 0, 17, 5]
    chunk = [dataset.train[i] for i in idx]
    assert lo.subset_dims(idx) == lp.subset_dims(idx) == padded_dims(chunk, 6)
    dims = lo.subset_dims(idx)
    pad = (dims[0] + 1, dims[1], dims[2] + 2)
    buffers = CollateBuffers()
    oracle = collate(chunk, max_ops_per_item=6, pad_to=pad)
    assert_batches_identical(oracle, lo.collate_indices(idx, pad_to=pad))
    assert_batches_identical(oracle, lp.collate_indices(idx, pad_to=pad, buffers=buffers))


# ----------------------------------------------------------------------
# PackedSplit sequence surface + round trips
# ----------------------------------------------------------------------
def test_packed_split_behaves_like_a_sequence(dataset, packed):
    split = packed.train
    assert len(split) == len(dataset.train)
    for i in (0, 1, len(split) - 1, -1):
        ex = split[i]
        ref = dataset.train[i]
        assert ex.macro_items == ref.macro_items
        assert ex.op_sequences == ref.op_sequences
        assert ex.target == ref.target
        assert ex.session_id == ref.session_id
    with pytest.raises(IndexError):
        split[len(split)]
    assert sum(1 for _ in split) == len(split)


def test_from_examples_requires_targets():
    bad = MacroSession([1, 2], [[0], [1]], target=None, session_id=0)
    with pytest.raises(ValueError, match="target"):
        PackedSplit.from_examples([bad])


def test_select_reorders_losslessly():
    examples = random_ragged_examples(seed=13, count=20)
    split = PackedSplit.from_examples(examples)
    order = np.random.default_rng(0).permutation(20)[:11]
    sub = split.select(order)
    for j, i in enumerate(order):
        got, ref = sub[j], examples[i]
        assert got.macro_items == ref.macro_items
        assert got.op_sequences == ref.op_sequences
        assert got.target == ref.target


@pytest.mark.parametrize(
    "config_fn,sparsity",
    [
        (jd_appliances_config, 0.0),
        (jd_computers_config, 0.0),
        (trivago_config, 0.0),
        (jd_appliances_config, 0.5),
        (trivago_config, 0.8),
    ],
)
def test_memmap_round_trip_all_personas(tmp_path, config_fn, sparsity):
    """pack → save → load (memmap and in-memory) → to_prepared is lossless
    across every synthetic persona/sparsity configuration."""
    cfg = config_fn(sparsity=sparsity)
    ds = prepare_dataset(
        generate_dataset(cfg, 150, seed=2), cfg.operations, min_support=2, name=cfg.name
    )
    packed = pack_dataset(ds)
    path = tmp_path / "ds.rpk"
    packed.save(path)
    for mmap in (True, False):
        loaded = load_packed(path, mmap=mmap)
        assert loaded.fingerprint == packed.fingerprint == dataset_fingerprint(ds)
        back = loaded.to_prepared()
        assert back.vocab.ordered_raw_ids() == ds.vocab.ordered_raw_ids()
        assert list(back.operations.names) == list(ds.operations.names)
        assert dataset_fingerprint(back) == dataset_fingerprint(ds)
        for split_name in ("train", "validation", "test"):
            a, b = getattr(ds, split_name), getattr(back, split_name)
            assert len(a) == len(b)
            for x, y in zip(a, b):
                assert (x.macro_items, x.op_sequences, x.target, x.session_id) == (
                    y.macro_items,
                    y.op_sequences,
                    y.target,
                    y.session_id,
                )


def test_memmap_arrays_are_file_backed(tmp_path, packed):
    path = tmp_path / "ds.rpk"
    packed.save(path)
    loaded = load_packed(path, mmap=True)
    base = loaded.train.macro_items
    seen_memmap = False
    while isinstance(base, np.ndarray):
        seen_memmap = seen_memmap or isinstance(base, np.memmap)
        base = base.base
    assert seen_memmap
    # Loader batches straight off the memmap views.
    batch = DataLoader(loaded.train, batch_size=32).collate_indices(range(32))
    ref = DataLoader(packed.train, batch_size=32).collate_indices(range(32))
    assert_batches_identical(batch, ref)


def test_header_round_trip_and_magic(tmp_path, packed):
    path = tmp_path / "ds.rpk"
    packed.save(path)
    header = read_packed_header(path)
    assert header["format_version"] == 1
    assert header["name"] == packed.name
    assert header["fingerprint"] == packed.fingerprint
    assert header["splits"]["train"]["sessions"] == len(packed.train)
    bogus = tmp_path / "not_packed.json"
    bogus.write_text("{}")
    with pytest.raises(ValueError, match="magic"):
        read_packed_header(bogus)


def test_future_format_version_rejected(tmp_path, packed):
    import json

    from repro.data.packed import MAGIC

    path = tmp_path / "ds.rpk"
    packed.save(path)
    raw = bytearray(path.read_bytes())
    header_len = int.from_bytes(raw[8:16], "little")
    header = json.loads(bytes(raw[16 : 16 + header_len]))
    header["format_version"] = 9  # single digit: same byte budget as "1"
    new_header = json.dumps(header).encode()
    # Keep the byte length identical so offsets stay valid.
    assert len(new_header) <= header_len
    raw[16 : 16 + header_len] = new_header + b" " * (header_len - len(new_header))
    assert bytes(raw[:8]) == MAGIC
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="version"):
        load_packed(path)


def test_save_is_atomic(tmp_path, packed):
    """A crash mid-write must never leave a truncated packed file behind."""
    from repro import reliability as rel

    path = tmp_path / "ds.rpk"
    rel.arm("serialization.mid_write", rel.crashing())
    try:
        with pytest.raises(rel.SimulatedCrash):
            packed.save(path)
    finally:
        rel.disarm_all()
    assert not path.exists()
    assert list(tmp_path.iterdir()) == []
