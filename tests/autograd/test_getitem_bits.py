"""``Tensor.__getitem__``'s backward is byte-equal to zeros + ``np.add.at``.

A basic index (ints, slices, ``None``, ``Ellipsis``) names each element at
most once, so the backward adds the upstream gradient into a view of the
zeros instead of taking ``np.add.at``'s buffered path. Both compute
``0.0 + g`` per element: a -0.0 upstream entry becomes +0.0 either way.
Advanced indices keep ``np.add.at``, which accumulates repeated rows.
"""

import numpy as np
import pytest

from repro.autograd import Tensor, default_dtype
from repro.autograd.tensor import _is_basic_index

BASIC = [
    np.s_[1:3],
    np.s_[::-1],
    np.s_[4:0:-2, ::3],
    np.s_[-1],
    np.s_[2, 1],
    np.s_[2, 1, 3],
    np.s_[np.int64(3)],
    np.s_[None, 1:],
    np.s_[..., 0],
    np.s_[1, ..., None, ::-1],
    np.s_[:, None, 2],
    np.s_[()],
]
ADVANCED = [
    np.s_[[0, 2, 2]],
    np.s_[np.array([1, 1, 0]), :],
    np.s_[:, np.array([3, 0, 3])],
    np.s_[np.array([True, False, True, False, True])],
    np.s_[True],
    np.s_[np.array([0, 0]), np.array([1, 1])],
]


def _oracle(data, index, upstream):
    grad = np.zeros_like(data)
    np.add.at(grad, index, upstream)
    return grad


def _backward(data, index, upstream):
    with default_dtype(data.dtype):
        x = Tensor(data.copy(), requires_grad=True)
        x[index].backward(upstream)
    return x.grad


def _upstream(rng, shape, dtype):
    """Random gradient with -0.0 and +0.0 entries mixed in."""
    g = rng.normal(size=shape).astype(dtype)
    flat = g.reshape(-1)
    flat[::3] = dtype(-0.0)
    flat[1::5] = dtype(0.0)
    return g


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("index", BASIC + ADVANCED, ids=repr)
def test_backward_bytes_equal_add_at(dtype, index):
    rng = np.random.default_rng(0)
    data = rng.normal(size=(5, 4, 6)).astype(dtype)
    upstream = _upstream(rng, np.shape(data[index]), dtype)
    got = _backward(data, index, upstream)
    want = _oracle(data, index, upstream)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_negative_zero_upstream_becomes_positive_zero():
    x = Tensor(np.ones((3, 2)), requires_grad=True)
    x[1:].backward(np.full((2, 2), -0.0))
    assert not np.signbit(x.grad).any()


def test_index_classification():
    assert all(_is_basic_index(i) for i in BASIC)
    assert not any(_is_basic_index(i) for i in ADVANCED)


def test_advanced_index_with_duplicate_rows_accumulates():
    x = Tensor(np.zeros((4, 2)), requires_grad=True)
    x[np.array([1, 3, 1, 1])].backward(np.arange(8.0).reshape(4, 2))
    np.testing.assert_array_equal(x.grad, [[0, 0], [0 + 4 + 6, 1 + 5 + 7], [0, 0], [2, 3]])
