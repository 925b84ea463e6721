"""Masking-correctness tests for the operation-aware attention under batching.

Padding bugs are the classic failure mode of batched attention; these tests
pin the exact guarantees EMBSR's forward relies on.
"""

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad
from repro.core import OperationAwareSelfAttention


@pytest.fixture
def attn():
    a = OperationAwareSelfAttention(
        6, num_ops=4, max_len=12, dropout=0.0, rng=np.random.default_rng(4)
    )
    a.eval()
    return a


class TestMasking:
    def test_batch_vs_single_consistency(self, attn):
        rng = np.random.default_rng(0)
        x_short = rng.normal(size=(1, 3, 6))
        ops_short = np.array([[1, 2, 3]])
        with no_grad():
            alone = attn(Tensor(x_short), ops_short, np.ones((1, 3))).data

            # Same content padded to length 6 inside a batch of two.
            x_batch = np.zeros((2, 6, 6))
            x_batch[0, :3] = x_short[0]
            x_batch[1] = rng.normal(size=(6, 6))
            ops_batch = np.zeros((2, 6), dtype=np.int64)
            ops_batch[0, :3] = [1, 2, 3]
            ops_batch[1] = [4, 3, 2, 1, 2, 3]
            mask = np.zeros((2, 6))
            mask[0, :3] = 1
            mask[1] = 1
            batched = attn(Tensor(x_batch), ops_batch, mask).data
        np.testing.assert_allclose(alone[0], batched[0], atol=1e-10)

    def test_gradient_blocked_at_padding(self, attn):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(1, 4, 6)), requires_grad=True)
        ops = np.array([[1, 2, 0, 0]])
        mask = np.array([[1.0, 1.0, 0.0, 0.0]])
        out = attn(x, ops, mask)
        # A plain .sum() over a LayerNorm output is constant (zero grad);
        # weight the entries randomly to get a non-degenerate loss.
        weights = Tensor(rng.normal(size=(1, 6)))
        (out * weights).sum().backward()
        # Valid positions receive gradient...
        assert np.abs(x.grad[0, :2]).sum() > 0
        # ...while padded KEY positions get exactly none: the star row is
        # the only output, and it gives them zero attention weight.
        assert not x.grad[0, 2:].any()

    def test_relation_pad_row_never_trained_through_valid_paths(self, attn):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(1, 3, 6)), requires_grad=True)
        ops = np.array([[1, 2, 3]])
        weights = Tensor(rng.normal(size=(1, 6)))
        (attn(x, ops, np.ones((1, 3))) * weights).sum().backward()
        # Relation id 0 is the pad-pad dyad; with all-valid ops it is unused.
        assert np.allclose(attn.relations.weight.grad[0], 0.0)

    def test_all_positions_masked_except_one(self, attn):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(1, 4, 6)))
        ops = np.array([[2, 0, 0, 0]])
        mask = np.array([[1.0, 0.0, 0.0, 0.0]])
        with no_grad():
            out = attn(x, ops, mask).data
        assert np.isfinite(out).all()
