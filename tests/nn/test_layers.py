"""Unit tests for the nn layer library."""

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor, check_gradients


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestLinear:
    def test_shapes(self, rng):
        layer = nn.Linear(4, 6, rng=rng)
        out = layer(Tensor(rng.normal(size=(5, 4))))
        assert out.shape == (5, 6)

    def test_no_bias(self, rng):
        layer = nn.Linear(4, 6, bias=False, rng=rng)
        assert layer.bias is None
        assert np.allclose(layer(Tensor(np.zeros((2, 4)))).data, 0.0)

    def test_gradcheck(self, rng):
        layer = nn.Linear(3, 2, rng=rng)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        check_gradients(lambda x: layer(x).tanh(), [x])
        check_gradients(lambda w: (x.detach() @ w + layer.bias).sigmoid(), [layer.weight])

    def test_batched_input(self, rng):
        layer = nn.Linear(4, 6, rng=rng)
        out = layer(Tensor(rng.normal(size=(2, 3, 4))))
        assert out.shape == (2, 3, 6)


class TestEmbedding:
    def test_lookup_matches_rows(self, rng):
        emb = nn.Embedding(10, 4, rng=rng)
        idx = np.array([3, 1, 3])
        out = emb(idx)
        assert np.allclose(out.data, emb.weight.data[idx])

    def test_padding_row_is_zero(self, rng):
        emb = nn.Embedding(10, 4, rng=rng, padding_idx=0)
        assert np.allclose(emb.weight.data[0], 0.0)

    def test_gradient_accumulates_on_repeats(self, rng):
        emb = nn.Embedding(5, 3, rng=rng)
        out = emb(np.array([2, 2, 2]))
        out.sum().backward()
        assert np.allclose(emb.weight.grad[2], 3.0)
        assert np.allclose(emb.weight.grad[0], 0.0)

    def test_nd_indices(self, rng):
        emb = nn.Embedding(10, 4, rng=rng)
        assert emb(np.zeros((2, 3, 5), dtype=int)).shape == (2, 3, 5, 4)


class TestLayerNorm:
    def test_normalizes(self, rng):
        ln = nn.LayerNorm(8)
        out = ln(Tensor(rng.normal(size=(4, 8)) * 10 + 3)).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_gradcheck(self, rng):
        ln = nn.LayerNorm(5)
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        check_gradients(lambda x: ln(x), [x])


class TestDropout:
    def test_eval_mode_is_identity(self, rng):
        drop = nn.Dropout(0.5, rng=rng)
        drop.eval()
        x = Tensor(rng.normal(size=(10, 10)))
        assert np.allclose(drop(x).data, x.data)

    def test_train_mode_scales(self, rng):
        drop = nn.Dropout(0.5, rng=rng)
        x = Tensor(np.ones((100, 100)))
        out = drop(x).data
        # Inverted dropout: surviving entries are scaled by 1/keep.
        assert set(np.unique(out)) <= {0.0, 2.0}
        assert abs(out.mean() - 1.0) < 0.05

    def test_invalid_p(self, rng):
        with pytest.raises(ValueError):
            nn.Dropout(1.0, rng=rng)

    def test_zero_p_identity_in_train(self, rng):
        drop = nn.Dropout(0.0, rng=rng)
        x = Tensor(rng.normal(size=(5, 5)))
        assert np.allclose(drop(x).data, x.data)


class TestModule:
    def test_parameter_discovery(self, rng):
        class Net(nn.Module):
            def __init__(self):
                super().__init__()
                self.a = nn.Linear(3, 3, rng=rng)
                self.b = nn.Linear(3, 3, rng=rng)
                self.blocks = nn.ModuleList([nn.Linear(3, 3, rng=rng)])

        net = Net()
        params = list(net.parameters())
        assert len(params) == 6  # 3 weights + 3 biases

    def test_shared_parameter_counted_once(self, rng):
        class Net(nn.Module):
            def __init__(self):
                super().__init__()
                self.a = nn.Linear(3, 3, rng=rng)
                self.b = self.a

        assert len(list(Net().parameters())) == 2

    def test_train_eval_propagates(self, rng):
        seq = nn.Sequential(nn.Dropout(0.5, rng=rng), nn.Dropout(0.2, rng=rng))
        seq.eval()
        assert all(not m.training for m in seq)
        seq.train()
        assert all(m.training for m in seq)

    def test_state_dict_roundtrip(self, rng):
        a = nn.Linear(3, 3, rng=rng)
        b = nn.Linear(3, 3, rng=np.random.default_rng(99))
        b.load_state_dict(a.state_dict())
        assert np.allclose(a.weight.data, b.weight.data)

    def test_state_dict_strictness(self, rng):
        a = nn.Linear(3, 3, rng=rng)
        with pytest.raises(KeyError):
            a.load_state_dict({})
        with pytest.raises(KeyError):
            nn.GRUCell(3, 3, rng=rng).load_state_dict(a.state_dict())
        with pytest.raises(ValueError):
            nn.Linear(4, 3, rng=rng).load_state_dict(a.state_dict())

    def test_num_parameters(self, rng):
        assert nn.Linear(3, 4, rng=rng).num_parameters() == 3 * 4 + 4


class TestFeedForward:
    def test_shapes_and_grad(self, rng):
        ffn = nn.FeedForward(6, rng=rng)
        x = Tensor(rng.normal(size=(2, 4, 6)), requires_grad=True)
        out = ffn(x)
        assert out.shape == (2, 4, 6)
        out.sum().backward()
        assert x.grad is not None
