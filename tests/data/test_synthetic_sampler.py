"""The generator's precomputed categorical draw against ``Generator.choice``.

``_Categorical`` builds a distribution's CDF once and draws with one
``rng.random()`` and a binary search. ``rng.choice(values, p=p)`` is its
oracle: over seeds and distributions, every draw and the stream position
after it must be the same. ``tests/data/test_identity_pins.py`` pins the
generated datasets themselves.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.synthetic import _Categorical

weights_lists = st.lists(
    st.floats(0.0, 1e3, allow_nan=False, allow_subnormal=False), min_size=1, max_size=12
).filter(lambda w: sum(w) > 0)


@settings(deadline=None, max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    weights=weights_lists,
    offset=st.integers(-5, 50),
    draws=st.integers(1, 40),
)
def test_draws_equal_generator_choice(seed, weights, offset, draws):
    values = np.arange(len(weights)) + offset
    w = np.asarray(weights)
    sampler = _Categorical(values, w)
    ours, numpy_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(draws):
        assert sampler.draw(ours) == int(numpy_rng.choice(values, p=w / w.sum()))
    assert ours.random() == numpy_rng.random()  # one uniform per draw on both sides


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 2**32 - 1), probs=st.dictionaries(st.integers(0, 20), st.floats(0.01, 1.0), min_size=1, max_size=8))
def test_dict_form_draws_over_sorted_keys(seed, probs):
    """``_Categorical.of`` is the generator's old ``_normalize`` + choice:
    keys sorted, weights in key order."""
    keys = np.array(sorted(probs))
    p = np.array([probs[k] for k in keys])
    sampler = _Categorical.of(probs)
    ours, numpy_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(10):
        assert sampler.draw(ours) == int(numpy_rng.choice(keys, p=p / p.sum()))


@pytest.mark.parametrize(
    "values, weights",
    [
        ([], []),
        ([1, 2], [1.0]),
        ([1, 2], [0.0, 0.0]),
        ([1, 2], [2.0, -1.0]),
        ([1, 2], [1.0, float("nan")]),
        ([1, 2], [1.0, float("inf")]),
    ],
    ids=["empty", "length-mismatch", "zero-sum", "negative", "nan", "inf"],
)
def test_invalid_distribution_is_rejected_at_construction(values, weights):
    with pytest.raises(ValueError):
        _Categorical(values, weights)
