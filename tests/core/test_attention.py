"""Unit tests for operation-aware self-attention (Eqs. 12-17)."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core import OperationAwareSelfAttention, relation_ids


class TestRelationIds:
    def test_formula(self):
        ops = np.array([[1, 2]])
        rel = relation_ids(ops, ops, num_ops=3)
        # r(o_i, o_j) = o_i * 4 + o_j for |O| = 3.
        assert rel[0, 0, 0] == 1 * 4 + 1
        assert rel[0, 0, 1] == 1 * 4 + 2
        assert rel[0, 1, 0] == 2 * 4 + 1

    def test_asymmetry(self):
        """(click, purchase) and (purchase, click) are distinct dyads."""
        ops = np.array([[1, 2]])
        rel = relation_ids(ops, ops, num_ops=3)
        assert rel[0, 0, 1] != rel[0, 1, 0]

    def test_pad_pair_is_zero(self):
        ops = np.array([[0, 1]])
        rel = relation_ids(ops, ops, num_ops=3)
        assert rel[0, 0, 0] == 0

    def test_range(self):
        ops = np.array([[3, 1, 2, 0]])
        rel = relation_ids(ops, ops, num_ops=3)
        assert rel.min() >= 0 and rel.max() <= (3 + 1) ** 2 - 1


@pytest.fixture
def attn():
    return OperationAwareSelfAttention(
        8, num_ops=4, max_len=16, dropout=0.0, rng=np.random.default_rng(0)
    )


class TestOperationAwareSelfAttention:
    """The block returns the star token's ``z_s`` only: [B, d]."""

    def _inputs(self, rng, B=2, T=5):
        x = Tensor(rng.normal(size=(B, T, 8)), requires_grad=True)
        ops = rng.integers(1, 5, size=(B, T))
        mask = np.ones((B, T))
        mask[0, 3:] = 0
        ops = ops * mask.astype(int)
        return x, ops, mask

    def test_output_shape(self, attn):
        rng = np.random.default_rng(1)
        x, ops, mask = self._inputs(rng)
        assert attn(x, ops, mask).shape == (2, 8)
        assert attn(x, ops, mask, use_dyadic=False).shape == (2, 8)

    def test_padding_invariance(self, attn):
        """Padded keys get exactly zero attention weight."""
        rng = np.random.default_rng(2)
        x, ops, mask = self._inputs(rng)
        out1 = attn(x, ops, mask)
        x2 = Tensor(x.data.copy())
        x2.data[0, 3:] += 50.0  # perturb padded positions only
        ops2 = ops.copy()
        ops2[0, 3:] = 4  # and their operations
        out2 = attn(x2, ops2, mask)
        np.testing.assert_array_equal(out1.data, out2.data)

    def test_dyadic_differs_from_absolute(self, attn):
        rng = np.random.default_rng(3)
        x, ops, mask = self._inputs(rng)
        dyadic = attn(x, ops, mask, use_dyadic=True)
        plain = attn(x, ops, mask, use_dyadic=False)
        assert not np.allclose(dyadic.data, plain.data)

    def test_dyadic_sensitive_to_operation_order(self, attn):
        """Swapping two operations changes the star's dyads and ``z_s``,
        whether or not the star's own operation moves."""
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(1, 3, 8)))
        mask = np.ones((1, 3))
        out_a = attn(x, np.array([[1, 2, 3]]), mask, use_dyadic=True)
        for swapped in ([[2, 1, 3]], [[1, 3, 2]]):
            out_b = attn(x, np.array(swapped), mask, use_dyadic=True)
            assert not np.allclose(out_a.data, out_b.data)

    def test_plain_mode_ignores_operations(self, attn):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(1, 3, 8)))
        mask = np.ones((1, 3))
        out_a = attn(x, np.array([[1, 2, 3]]), mask, use_dyadic=False)
        out_b = attn(x, np.array([[3, 1, 2]]), mask, use_dyadic=False)
        assert np.allclose(out_a.data, out_b.data)

    def test_position_embeddings_break_permutation_symmetry(self, attn):
        """Attention over a set is order-free; ``e_{p_j}`` in the keys and
        values makes swapping two non-star positions change ``z_s``."""
        rng = np.random.default_rng(6)
        star, a, b = rng.normal(size=(3, 8))
        mask = np.ones((1, 3))
        ops = np.array([[1, 1, 1]])
        out = attn(Tensor(np.stack([[star, a, b]])), ops, mask, use_dyadic=False)
        swapped = attn(Tensor(np.stack([[star, b, a]])), ops, mask, use_dyadic=False)
        assert not np.allclose(out.data, swapped.data)

    def test_gradients_reach_relation_table(self, attn):
        rng = np.random.default_rng(7)
        x, ops, mask = self._inputs(rng)
        out = attn(x, ops, mask, use_dyadic=True)
        # Weighted loss: a plain sum over a LayerNorm output is constant.
        weights = Tensor(rng.normal(size=out.shape))
        (out * weights).sum().backward()
        assert attn.relations.weight.grad is not None
        assert np.abs(attn.relations.weight.grad).sum() > 1e-6

    def test_relation_table_size(self):
        a = OperationAwareSelfAttention(8, num_ops=10, max_len=4, rng=np.random.default_rng(0))
        assert a.relations.weight.shape == ((10 + 1) ** 2, 8)
