"""Unit tests for the micro-operation GRU encoder (Eqs. 3-4)."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core import MicroOpEncoder
from repro.nn import Embedding


@pytest.fixture
def setup():
    rng = np.random.default_rng(0)
    emb = Embedding(6, 8, rng=rng, padding_idx=0)
    enc = MicroOpEncoder(8, rng=rng)
    return emb, enc


class TestMicroOpEncoder:
    def test_output_shape(self, setup):
        emb, enc = setup
        ops = np.array([[[1, 2, 0], [3, 0, 0]]])
        mask = np.array([[[1, 1, 0], [1, 0, 0]]], dtype=float)
        out = enc(emb, ops, mask)
        assert out.shape == (1, 2, 8)

    def test_padded_macro_positions_are_zero(self, setup):
        emb, enc = setup
        ops = np.array([[[1, 0], [0, 0]]])
        mask = np.array([[[1, 0], [0, 0]]], dtype=float)
        out = enc(emb, ops, mask)
        assert np.allclose(out.data[0, 1], 0.0)
        assert not np.signbit(out.data[0, 1]).any()  # exactly +0.0, never -0.0
        assert not np.allclose(out.data[0, 0], 0.0)

    def test_order_sensitivity(self, setup):
        """The sequential pattern (o1, o2) must differ from (o2, o1)."""
        emb, enc = setup
        mask = np.ones((1, 1, 2))
        fwd = enc(emb, np.array([[[1, 2]]]), mask)
        rev = enc(emb, np.array([[[2, 1]]]), mask)
        assert not np.allclose(fwd.data, rev.data)

    def test_trailing_padding_irrelevant(self, setup):
        emb, enc = setup
        short = enc(emb, np.array([[[1, 2]]]), np.ones((1, 1, 2)))
        padded = enc(
            emb,
            np.array([[[1, 2, 4]]]),
            np.array([[[1, 1, 0]]], dtype=float),
        )
        assert np.allclose(short.data[0, 0], padded.data[0, 0])

    def test_gradient_reaches_embeddings(self, setup):
        emb, enc = setup
        out = enc(emb, np.array([[[1, 2]]]), np.ones((1, 1, 2)))
        out.sum().backward()
        assert emb.weight.grad is not None
        assert np.abs(emb.weight.grad[1]).sum() > 0
        assert np.allclose(emb.weight.grad[5], 0.0)  # unused op untouched
