"""Identity pins for what artifacts and serving persist from a dataset.

An artifact records the dataset's fingerprint and its popularity ranking,
and :class:`~repro.serving.PopularityFallback` serves that ranking. Both
are computed from the CSR arrays; these tests hold them to the object-path
oracles and to digests written before the arrays became the only form, so
the fingerprints in existing artifacts stay valid.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from repro.data import (
    ItemVocab,
    MacroSession,
    OperationVocab,
    generate_dataset,
    jd_appliances_config,
    load_packed,
    packed_fingerprint,
    prepare_dataset,
    trivago_config,
)
from repro.data.stats import popularity_ranking

from .prepare_oracle import ObjectDataset, dataset_fingerprint, pack

# (config, sessions, generator seed) -> fingerprint of prepare_dataset(...,
# min_support=2, name="pin", seed=1), as the object path computed it.
PINNED = [
    (jd_appliances_config, 300, 0, "af2e07b0373d8746"),
    (trivago_config, 200, 4, "f595656f287e7cd8"),
]


@pytest.mark.parametrize(("config_fn", "sessions", "seed", "digest"), PINNED)
def test_fingerprint_is_pinned(config_fn, sessions, seed, digest, tmp_path):
    cfg = config_fn()
    dataset = prepare_dataset(
        generate_dataset(cfg, sessions, seed=seed), cfg.operations, min_support=2, name="pin", seed=1
    )
    assert dataset.fingerprint == packed_fingerprint(dataset) == dataset_fingerprint(dataset) == digest
    dataset.save(tmp_path / "pin.rpk")
    assert load_packed(tmp_path / "pin.rpk").fingerprint == digest


def counter_ranking(examples, vocab, limit=None):
    """The ranking as ``Counter.most_common`` over materialised examples."""
    tally = Counter()
    for example in examples:
        tally.update(example.macro_items)
        tally[example.target] += 1
    return [vocab.decode(dense) for dense, _count in tally.most_common(limit)]


def tied_examples(seed, count=12, items=6):
    """Few items, short sessions: most counts tie, in varied first-seen order."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        n = int(rng.integers(1, 4))
        out.append(
            MacroSession(
                rng.integers(1, items + 1, size=n).tolist(),
                [[0]] * n,
                target=int(rng.integers(1, items + 1)),
                session_id=i,
            )
        )
    return out


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("limit", [None, 1, 3])
def test_popularity_matches_most_common_with_ties(seed, limit):
    vocab = ItemVocab([40, 10, 30, 20, 60, 50])
    train = tied_examples(seed)
    dataset = pack(ObjectDataset("ties", train, [], [], vocab, OperationVocab(["click"])))
    tally = Counter(item for ex in train for item in [*ex.macro_items, ex.target])
    assert len(set(tally.values())) < len(tally)  # the corpus does tie
    assert popularity_ranking(dataset, limit) == counter_ranking(train, vocab, limit)
    # The same on a slice view of a longer split.
    view = dataclasses.replace(dataset, train=dataset.train[3:10])
    assert popularity_ranking(view, limit) == counter_ranking(train[3:10], vocab, limit)


def test_popularity_ties_follow_first_appearance():
    """Items 1 and 2 both count 2: item 2 appears first (as a target)."""
    vocab = ItemVocab([100, 200, 300])
    train = [
        MacroSession([3], [[0]], target=2, session_id=0),
        MacroSession([1, 2], [[0], [0]], target=1, session_id=1),
    ]
    dataset = pack(ObjectDataset("order", train, [], [], vocab, OperationVocab(["click"])))
    assert popularity_ranking(dataset) == counter_ranking(train, vocab) == [200, 100, 300]


def test_fingerprint_never_survives_replace(tmp_path):
    """A copy with other splits digests its own content, whether the
    original's fingerprint was computed or read from a file header."""
    cfg = jd_appliances_config()
    dataset = prepare_dataset(generate_dataset(cfg, 150, seed=3), cfg.operations, min_support=2)
    loaded = load_packed(dataset.save(tmp_path / "d.rpk"))
    for original in (dataset, loaded):
        whole = original.fingerprint
        head = dataclasses.replace(original, train=original.train[:10])
        assert head.fingerprint != whole
        assert head.fingerprint == dataset_fingerprint(head)
        assert original.fingerprint == whole
