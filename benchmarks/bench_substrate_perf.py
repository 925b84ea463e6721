"""Substrate micro-benchmarks: autograd / nn primitive throughput.

Not a paper experiment — these measure the NumPy autograd engine that
replaces PyTorch (DESIGN.md §2), so regressions in the substrate are
visible independently of recommendation quality. Sizes mirror the shapes
the EMBSR benchmarks actually use (batch 64, d=32, sessions of ~10 macro /
~25 micro steps).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor
from repro.core import EMBSRConfig, build_embsr
from repro.data import MacroSession, collate
from repro.graphs import BatchGraph

B, N, T, D = 64, 10, 25, 32


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(0)


def test_perf_matmul_forward_backward(benchmark, rng):
    a = Tensor(rng.normal(size=(B, T, D)), requires_grad=True)
    w = Tensor(rng.normal(size=(D, D)), requires_grad=True)

    def step():
        a.zero_grad()
        w.zero_grad()
        ((a @ w).tanh().sum()).backward()

    benchmark(step)


def test_perf_gru_sequence(benchmark, rng):
    gru = nn.GRU(D, D, rng=rng)
    x = Tensor(rng.normal(size=(B, N, D)))
    mask = np.ones((B, N))

    def step():
        gru.zero_grad()
        _, final = gru(x, mask)
        final.sum().backward()

    benchmark(step)


def test_perf_gru_sequence_op_encoder_shape(benchmark, rng):
    """The block EMBSR's operation encoder runs: [B * N, 6, D], ~43 % of the
    rows real macro items with short operation runs, ~17 % of cells valid —
    the all-ones mask above is the one case where skipping padding cannot help."""
    rows, steps = B * N, 6
    gru = nn.GRU(D, D, rng=rng)
    x = Tensor(rng.normal(size=(rows, steps, D)))
    lengths = np.where(rng.random(rows) < 0.43, np.minimum(rng.geometric(0.42, size=rows), steps), 0)
    mask = (np.arange(steps)[None, :] < lengths[:, None]).astype(float)

    def step():
        gru.zero_grad()
        _, final = gru(x, mask)
        final.sum().backward()

    benchmark(step)


def test_perf_operation_aware_attention(benchmark, rng):
    from repro.core import OperationAwareSelfAttention

    attn = OperationAwareSelfAttention(D, num_ops=10, max_len=T + 1, dropout=0.0, rng=rng)
    x = Tensor(rng.normal(size=(B, T, D)), requires_grad=True)
    ops = rng.integers(1, 11, size=(B, T))
    mask = np.ones((B, T))
    weights = Tensor(rng.normal(size=(B, D)))  # the block returns z_s only

    def step():
        attn.zero_grad()
        (attn(x, ops, mask) * weights).sum().backward()

    benchmark(step)


def test_perf_embsr_train_step(benchmark, rng):
    config = EMBSRConfig(num_items=500, num_ops=10, dim=D, dropout=0.0, seed=0)
    model = build_embsr(config)
    opt = nn.Adam(model.parameters(), lr=1e-3)
    examples = []
    for _ in range(B):
        items = list(dict.fromkeys(rng.integers(1, 501, size=6).tolist()))
        ops = [rng.integers(0, 10, size=rng.integers(1, 4)).tolist() for _ in items]
        examples.append(MacroSession(items, ops, target=int(rng.integers(1, 501))))
    batch = collate(examples)
    graph = BatchGraph.from_batch(batch)

    def step():
        opt.zero_grad()
        loss = nn.cross_entropy(model(batch, graph=graph), batch.target_classes)
        loss.backward()
        opt.step()

    benchmark(step)


def test_perf_failpoint_disarmed(benchmark):
    """A disarmed failpoint is one falsy dict check — the trainer pays one
    per batch, so it must stay indistinguishable from a no-op."""
    from repro.reliability import disarm_all, failpoint

    disarm_all()

    def step():
        for _ in range(1000):
            failpoint("trainer.after_batch")

    benchmark(step)


def test_perf_batch_graph_construction(benchmark, rng):
    examples = []
    for _ in range(B):
        items = list(dict.fromkeys(rng.integers(1, 100, size=8).tolist()))
        ops = [rng.integers(0, 10, size=2).tolist() for _ in items]
        examples.append(MacroSession(items, ops, target=1))
    batch = collate(examples)
    benchmark(BatchGraph.from_batch, batch)
