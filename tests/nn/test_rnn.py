"""Unit tests for GRU cell and masked sequence GRU."""

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor, check_gradients


@pytest.fixture
def rng():
    return np.random.default_rng(3)


class TestGRUCell:
    def test_output_shape(self, rng):
        cell = nn.GRUCell(4, 6, rng=rng)
        out = cell(Tensor(rng.normal(size=(3, 4))), Tensor(np.zeros((3, 6))))
        assert out.shape == (3, 6)

    def test_gradcheck(self, rng):
        cell = nn.GRUCell(3, 2, rng=rng)
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        h = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        check_gradients(lambda x, h: cell(x, h), [x, h])

    def test_bounded_output(self, rng):
        cell = nn.GRUCell(4, 6, rng=rng)
        h = Tensor(np.zeros((3, 6)))
        for _ in range(50):
            h = cell(Tensor(rng.normal(size=(3, 4)) * 10), h)
        assert np.abs(h.data).max() <= 1.0 + 1e-9  # gated between tanh candidates


class TestGRU:
    def test_mask_freezes_state(self, rng):
        gru = nn.GRU(4, 5, rng=rng)
        x = Tensor(rng.normal(size=(2, 6, 4)))
        mask = np.array([[1, 1, 0, 0, 0, 0], [1, 1, 1, 1, 1, 1]], dtype=float)
        outs, final = gru(x, mask)
        # Sequence 0 ends at step 1; its final state equals output at step 1.
        assert np.allclose(final.data[0], outs.data[0, 1])
        # Padded steps keep the state frozen.
        assert np.allclose(outs.data[0, 2], outs.data[0, 1])

    def test_no_mask_runs_full_length(self, rng):
        gru = nn.GRU(3, 4, rng=rng)
        outs, final = gru(Tensor(rng.normal(size=(2, 5, 3))))
        assert outs.shape == (2, 5, 4)
        assert np.allclose(final.data, outs.data[:, -1])

    def test_h0_used(self, rng):
        gru = nn.GRU(3, 4, rng=rng)
        x = Tensor(rng.normal(size=(1, 2, 3)))
        h0 = Tensor(rng.normal(size=(1, 4)))
        _, with_h0 = gru(x, h0=h0)
        _, without = gru(x)
        assert not np.allclose(with_h0.data, without.data)

    def test_gradcheck_through_time(self, rng):
        gru = nn.GRU(2, 3, rng=rng)
        x = Tensor(rng.normal(size=(2, 3, 2)), requires_grad=True)
        mask = np.array([[1, 1, 0], [1, 1, 1]], dtype=float)
        check_gradients(lambda x: gru(x, mask)[1], [x])

    def test_padding_never_leaks_gradient(self, rng):
        gru = nn.GRU(2, 3, rng=rng)
        x = Tensor(rng.normal(size=(1, 3, 2)), requires_grad=True)
        mask = np.array([[1, 0, 0]], dtype=float)
        _, final = gru(x, mask)
        final.sum().backward()
        assert np.allclose(x.grad[0, 1:], 0.0)

    @pytest.mark.parametrize(
        "as_mask",
        [lambda m: m.astype(bool), lambda m: m.astype(np.int64), lambda m: m * 2.0, lambda m: m * 0.5],
        ids=["bool", "int", "zero-two", "half"],
    )
    def test_nonzero_mask_means_valid(self, rng, as_mask):
        """A mask value selects a step, it never weights one: 2 or 0.5 used
        to blend ``m * h_new + (1 - m) * h``."""
        gru = nn.GRU(3, 4, rng=rng)
        x = Tensor(rng.normal(size=(3, 4, 3)), requires_grad=True)
        h0 = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        zero_one = np.array([[1, 1, 0, 0], [1, 0, 1, 1], [0, 0, 0, 0]], dtype=float)

        def run(mask):
            for p in [x, h0, *gru.parameters()]:
                p.zero_grad()
            outs, final = gru(x, mask, h0=h0)
            (outs.sum() + final.sum()).backward()
            results = [outs.data, final.data, x.grad, h0.grad] + [p.grad for p in gru.parameters()]
            return [np.array(r) for r in results]  # the next run reuses gradient buffers

        reference = run(zero_one)
        for got, want in zip(run(as_mask(zero_one)), reference):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("with_h0", [True, False])
    def test_empty_time_axis(self, rng, with_h0):
        """T = 0: no step runs, so the final state is the initial state."""
        gru = nn.GRU(3, 4, rng=rng)
        x = Tensor(np.zeros((2, 0, 3)), requires_grad=True)
        h0 = Tensor(rng.normal(size=(2, 4)), requires_grad=True) if with_h0 else None
        outs, final = gru(x, np.zeros((2, 0)), h0=h0)
        assert outs.shape == (2, 0, 4)
        assert final.shape == (2, 4)
        if with_h0:
            np.testing.assert_array_equal(final.data, h0.data)
            (final * 3.0).sum().backward()
            np.testing.assert_array_equal(h0.grad, np.full((2, 4), 3.0))
        else:
            assert not final.data.any()


class TestOptimizers:
    def test_sgd_converges_quadratic(self):
        p = nn.Parameter(np.array([3.0, -4.0]))
        opt = nn.SGD([p], lr=0.1, momentum=0.5)
        for _ in range(100):
            opt.zero_grad()
            ((p * p).sum()).backward()
            opt.step()
        assert np.abs(p.data).max() < 1e-4

    def test_adam_converges_quadratic(self):
        p = nn.Parameter(np.array([3.0, -4.0]))
        opt = nn.Adam([p], lr=0.2)
        for _ in range(200):
            opt.zero_grad()
            ((p * p).sum()).backward()
            opt.step()
        assert np.abs(p.data).max() < 1e-3

    def test_weight_decay_shrinks(self):
        p = nn.Parameter(np.array([1.0]))
        opt = nn.SGD([p], lr=0.1, weight_decay=0.5)
        opt.zero_grad()
        (p * 0.0).sum().backward()
        opt.step()
        assert p.data[0] < 1.0

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            nn.Adam([], lr=0.1)

    def test_clip_grad_norm(self):
        p = nn.Parameter(np.array([1.0, 1.0]))
        p.grad = np.array([30.0, 40.0])
        norm = nn.clip_grad_norm([p], max_norm=5.0)
        assert abs(norm - 50.0) < 1e-9
        assert abs(np.linalg.norm(p.grad) - 5.0) < 1e-9

    def test_step_lr_decay(self):
        p = nn.Parameter(np.array([1.0]))
        opt = nn.Adam([p], lr=0.1)
        sched = nn.StepLR(opt, step_size=2, gamma=0.1)
        sched.step()
        assert abs(opt.lr - 0.1) < 1e-12
        sched.step()
        assert abs(opt.lr - 0.01) < 1e-12


class TestLoss:
    def test_cross_entropy_uniform(self):
        logits = Tensor(np.zeros((4, 10)), requires_grad=True)
        loss = nn.cross_entropy(logits, np.zeros(4, dtype=int))
        assert abs(loss.item() - np.log(10)) < 1e-9

    def test_cross_entropy_perfect(self):
        logits = np.full((2, 5), -100.0)
        logits[np.arange(2), [1, 3]] = 100.0
        loss = nn.cross_entropy(Tensor(logits), np.array([1, 3]))
        assert loss.item() < 1e-6

    def test_cross_entropy_grad(self):
        rng = np.random.default_rng(0)
        logits = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        targets = np.array([0, 2, 5])
        from repro.autograd import check_gradients

        check_gradients(lambda l: nn.cross_entropy(l, targets).reshape(1), [logits])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            nn.cross_entropy(Tensor(np.zeros((2, 3, 4))), np.zeros(2, dtype=int))
        with pytest.raises(ValueError):
            nn.cross_entropy(Tensor(np.zeros((2, 3))), np.zeros(5, dtype=int))
