"""Composed-form oracles and gradchecks for every fused kernel.

The ``nn`` layers call the kernels in ``repro.perf.fused`` unconditionally.
The compositions they replaced live on here as oracles, in the idiom of
``test_gru_bits.py``. Each test states the contract that was measured for
its kernel, not a hoped-for one:

* ``tobytes()``-equal, output and every gradient, float32 and float64:
  ``addmm`` on 2-D input, ``embedding_lookup`` vs ``W.take`` (in float32
  the weight gradient is each row's float64 sum rounded once, so bytes
  hold on rows with at most two contributions, roundoff elsewhere),
  ``log_softmax_nll`` vs the composed loss (with and without ``total``;
  a batch-mean loss value over a B that is not a power of two is within
  one ulp, its gradient still byte-equal), and ``nn.GRUCell`` vs the
  retired one-step ``gru_cell`` kernel.
* Roundoff only: ``addmm`` on 3-D input (the weight gradient; the kernel
  does one GEMM over the flattened rows), the composed GRU layer loop (its
  forward is bit-equal, its five gradients are not), the two relation
  kernels, which reorder sums by design (square and one-query-row
  shapes), and ``OperationAwareSelfAttention``, which computes only the
  star row, against row 0 of the full-row block.

``tobytes()`` and not ``array_equal``, which calls -0.0 and +0.0 equal.
Gradchecks run in float64 only: float32 rounding drowns the difference
quotient.
"""

import numpy as np
import pytest

from repro import nn, perf
from repro.autograd import Tensor, check_gradients, default_dtype, stack
from repro.autograd.tensor import _stable_sigmoid
from repro.core import OperationAwareSelfAttention, relation_ids
from repro.perf.fused import _tracking

DTYPES = [np.float32, np.float64]
TOL = {np.float32: dict(rtol=1e-4, atol=1e-5), np.float64: dict(rtol=1e-10, atol=1e-12)}


def _t(rng, shape, dtype, scale=0.5):
    return Tensor(rng.normal(size=shape).astype(dtype) * dtype(scale), requires_grad=True)


def _arrays(rng, shapes, dtype, scale=0.5):
    return [(rng.normal(size=shape) * scale).astype(dtype) for shape in shapes]


def _run(fn, arrays, seed=None):
    """Output and every leaf gradient of ``fn`` on fresh leaves from ``arrays``,
    run in their dtype (an ambient-float64 ``Tensor`` would upcast them)."""
    with default_dtype(arrays[0].dtype):
        leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = fn(*leaves)
        out.backward(seed)
    return [out.data] + [leaf.grad for leaf in leaves]


def assert_same_bytes(got, want):
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g.dtype == w.dtype and g.shape == w.shape, i
        assert g.tobytes() == w.tobytes(), f"result {i} differs in bytes"


def assert_close(got, want, dtype):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, **TOL[dtype])


# ----------------------------------------------------------------------
# addmm
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("batch", [1, 2, 5, 37, 38, 64])
def test_addmm_matches_unfused(dtype, batch):
    """2-D input: bytes equal ``x @ W + b`` at heights on both sides of the
    BLAS kernel switches (gemv at 1, small-matrix path up to 37 at d = 32)."""
    rng = np.random.default_rng(batch)
    arrays = _arrays(rng, [(batch, 32), (32, 32), (32,), (batch, 32)], dtype)
    *inputs, seed = arrays
    assert_same_bytes(
        _run(perf.addmm, inputs, seed),
        _run(lambda x, w, b: x @ w + b, inputs, seed),
    )


def test_addmm_no_bias_and_3d_input():
    """3-D input: output and input gradient bytes equal the composition; the
    weight gradient is one GEMM over the flattened rows, so roundoff only."""
    for dtype in DTYPES:
        rng = np.random.default_rng(1)
        *inputs, seed = _arrays(rng, [(4, 6, 32), (32, 16), (4, 6, 16)], dtype)
        out, d_x, d_w = _run(perf.addmm, inputs, seed)
        want_out, want_d_x, want_d_w = _run(lambda x, w: x @ w, inputs, seed)
        assert_same_bytes([out, d_x], [want_out, want_d_x])
        np.testing.assert_allclose(d_w, want_d_w, **TOL[dtype])


def test_addmm_gradcheck():
    rng = np.random.default_rng(2)
    inputs = [_t(rng, (2, 3), np.float64), _t(rng, (3, 4), np.float64), _t(rng, (4,), np.float64)]
    check_gradients(lambda x, w, b: perf.addmm(x, w, b), inputs)


# ----------------------------------------------------------------------
# GRU: the retired one-step kernel and the composed layer loop
# ----------------------------------------------------------------------
def _gru_forward_step(x_t, h_prev, w_ih, w_hh, b_ih, b_hh, d):
    gi = np.matmul(x_t, w_ih) + b_ih
    gh = np.matmul(h_prev, w_hh) + b_hh
    z = _stable_sigmoid(gi[:, :d] + gh[:, :d])
    r = _stable_sigmoid(gi[:, d : 2 * d] + gh[:, d : 2 * d])
    gh_n = gh[:, 2 * d :]
    n = np.tanh(gi[:, 2 * d :] + r * gh_n)
    h_new = (1.0 - z) * n + z * h_prev
    return h_new, z, r, n, gh_n


def _gru_backward_step(g, h_prev, x_t, z, r, n, gh_n, w_ih, w_hh, mask_col):
    if mask_col is not None:
        g_new = g * mask_col
        dh_prev = g * (1.0 - mask_col)
    else:
        g_new = g
        dh_prev = 0.0
    dz = g_new * (h_prev - n)
    dn = g_new * (1.0 - z)
    dh_prev = dh_prev + g_new * z
    dn_pre = dn * (1.0 - n * n)
    dr = dn_pre * gh_n
    dgh_n = dn_pre * r
    dz_pre = dz * z * (1.0 - z)
    dr_pre = dr * r * (1.0 - r)
    dgi = np.concatenate([dz_pre, dr_pre, dn_pre], axis=1)
    dgh = np.concatenate([dz_pre, dr_pre, dgh_n], axis=1)
    return dgi, dgh, dh_prev


def gru_cell(x, h, w_ih, w_hh, b_ih, b_hh, mask_col=None):
    """The one-step kernel ``nn.GRUCell`` ran on before it moved onto
    ``gru_sequence`` with T = 1, kept verbatim."""
    d = h.data.shape[-1]
    h_new, z, r, n, gh_n = _gru_forward_step(
        x.data, h.data, w_ih.data, w_hh.data, b_ih.data, b_hh.data, d
    )
    out_data = mask_col * h_new + (1.0 - mask_col) * h.data if mask_col is not None else h_new
    if not _tracking(x, h, w_ih, w_hh, b_ih, b_hh):
        return Tensor(out_data)

    def backward() -> None:
        x_data, h_data = x.data, h.data
        dgi, dgh, dh_prev = _gru_backward_step(
            out.grad, h_data, x_data, z, r, n, gh_n, w_ih.data, w_hh.data, mask_col
        )
        if x.requires_grad:
            x._accumulate(np.matmul(dgi, w_ih.data.T))
        if h.requires_grad:
            h._accumulate(dh_prev + np.matmul(dgh, w_hh.data.T))
        if w_ih.requires_grad:
            w_ih._accumulate(x_data.T @ dgi)
        if w_hh.requires_grad:
            w_hh._accumulate(h_data.T @ dgh)
        if b_ih.requires_grad:
            b_ih._accumulate(dgi.sum(axis=0))
        if b_hh.requires_grad:
            b_hh._accumulate(dgh.sum(axis=0))

    out = Tensor._make(out_data, (x, h, w_ih, w_hh, b_ih, b_hh), backward)
    return out


def composed_cell(x, h, w_ih, w_hh, b_ih, b_hh):
    """One GRU step from generic ops: the deleted composed ``GRUCell.forward``."""
    d = h.shape[-1]
    gi = x @ w_ih + b_ih
    gh = h @ w_hh + b_hh
    z = (gi[:, :d] + gh[:, :d]).sigmoid()
    r = (gi[:, d : 2 * d] + gh[:, d : 2 * d]).sigmoid()
    n = (gi[:, 2 * d :] + r * gh[:, 2 * d :]).tanh()
    return (1.0 - z) * n + z * h


def composed_gru_layer(x, w_ih, w_hh, b_ih, b_hh, mask):
    """The deleted composed loop of ``nn.GRU.forward`` (zero initial state)."""
    h = Tensor(np.zeros((x.shape[0], w_hh.shape[0]), dtype=x.data.dtype))
    outputs = []
    for t in range(x.shape[1]):
        h_new = composed_cell(x[:, t, :], h, w_ih, w_hh, b_ih, b_hh)
        m = Tensor(mask[:, t : t + 1].astype(x.data.dtype))
        h = m * h_new + (1.0 - m) * h
        outputs.append(h)
    return stack(outputs, axis=1)


def _gru_params(rng, input_dim, hidden_dim, dtype):
    return (
        _t(rng, (input_dim, 3 * hidden_dim), dtype),
        _t(rng, (hidden_dim, 3 * hidden_dim), dtype),
        _t(rng, (3 * hidden_dim,), dtype),
        _t(rng, (3 * hidden_dim,), dtype),
    )


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("batch", [1, 5, 64])
def test_gru_cell_bytes_equal_retired_kernel(dtype, batch):
    """``nn.GRUCell`` (``gru_sequence`` at T = 1): output and all six
    gradients byte-equal to the one-step kernel it used to call."""
    rng = np.random.default_rng([batch, np.dtype(dtype).itemsize])
    with default_dtype(dtype):
        cell = nn.GRUCell(32, 32, rng=rng)
    shapes = [(batch, 32), (batch, 32), (batch, 32)]
    x, h, seed = _arrays(rng, shapes, dtype)
    params = [cell.w_ih.data, cell.w_hh.data, cell.b_ih.data, cell.b_hh.data]

    def layer(x, h, w_ih, w_hh, b_ih, b_hh):
        cell.w_ih, cell.w_hh, cell.b_ih, cell.b_hh = w_ih, w_hh, b_ih, b_hh
        return cell(x, h)

    assert_same_bytes(_run(layer, [x, h, *params], seed), _run(gru_cell, [x, h, *params], seed))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("batch,steps", [(1, 1), (3, 4)])
def test_gru_sequence_matches_unfused_layer(dtype, batch, steps):
    """``nn.GRU`` vs the composed layer loop: the forward is byte-equal, the
    five gradients agree to roundoff (the kernel sums in another order)."""
    rng = np.random.default_rng(5)
    with default_dtype(dtype):
        gru = nn.GRU(3, 4, rng=np.random.default_rng(7))
    mask = (rng.random((batch, steps)) < 0.8).astype(dtype)
    mask[:, 0] = 1.0  # every session has at least one valid step
    cell = gru.cell
    *inputs, seed = _arrays(rng, [(batch, steps, 3), (batch, steps, 4)], dtype)
    params = [cell.w_ih.data, cell.w_hh.data, cell.b_ih.data, cell.b_hh.data]

    def layer(x, w_ih, w_hh, b_ih, b_hh):
        cell.w_ih, cell.w_hh, cell.b_ih, cell.b_hh = w_ih, w_hh, b_ih, b_hh
        outputs, final = gru(x, mask=mask)
        np.testing.assert_array_equal(final.data, outputs.data[:, -1, :])
        return outputs

    got = _run(layer, [*inputs, *params], seed)
    want = _run(lambda x, *ps: composed_gru_layer(x, *ps, mask), [*inputs, *params], seed)
    assert_same_bytes(got[:1], want[:1])
    assert_close(got[1:], want[1:], dtype)


def test_gru_sequence_gradcheck():
    rng = np.random.default_rng(6)
    x = _t(rng, (2, 3, 4), np.float64)
    params = _gru_params(rng, 4, 3, np.float64)
    h0 = _t(rng, (2, 3), np.float64)
    mask = np.array([[1, 1, 0], [1, 1, 1]], dtype=np.float64)
    check_gradients(
        lambda *ts: perf.gru_sequence(ts[0], *ts[1:5], mask=mask, h0=ts[5]), [x, *params, h0]
    )


# ----------------------------------------------------------------------
# Embedding
# ----------------------------------------------------------------------
def assert_rounded_row_sums(grad, oracle, indices, g):
    """The float32 scatter contract: every row of ``grad`` is its float64
    sum rounded once. That equals ``W.take``'s float32 ``np.add.at`` in bytes
    on rows with at most two contributions, and within roundoff elsewhere."""
    exact = np.zeros(grad.shape, dtype=np.float64)
    np.add.at(exact, indices, g.astype(np.float64))
    assert grad.tobytes() == exact.astype(np.float32).tobytes()
    few = np.bincount(indices.ravel(), minlength=len(grad)) <= 2
    assert grad[few].tobytes() == oracle[few].tobytes()
    np.testing.assert_allclose(grad, oracle, **TOL[np.float32])


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", [(1,), (4, 3), (64, 10), (64, 10, 6)])
def test_embedding_lookup_matches_take(dtype, shape):
    """The output byte-equals ``W.take``, with repeated rows (a 40-row table
    under up to 3,840 lookups). So does the scattered weight gradient in
    float64; in float32 it is each row's float64 sum rounded once."""
    rng = np.random.default_rng(8)
    weight, seed = _arrays(rng, [(40, 8), (*shape, 8)], dtype)
    indices = rng.integers(0, 40, size=shape)
    got = _run(lambda w: perf.embedding_lookup(w, indices), [weight], seed)
    want = _run(lambda w: w.take(indices), [weight], seed)
    if dtype == np.float64:
        assert_same_bytes(got, want)
    else:
        assert_same_bytes(got[:1], want[:1])
        assert_rounded_row_sums(got[1], want[1], indices, seed)


def test_embedding_lookup_float32_many_repeats():
    """A 3-row float32 table under 20,000 lookups: a sequential float32
    ``np.add.at`` drifts from the true row sum, while the scatter stays within
    half an ulp of it (one rounding of the float64 sum)."""
    rng = np.random.default_rng(12)
    weight, seed = _arrays(rng, [(3, 8), (20_000, 8)], np.float32)
    indices = rng.integers(0, 3, size=20_000)
    got = _run(lambda w: perf.embedding_lookup(w, indices), [weight], seed)
    want = _run(lambda w: w.take(indices), [weight], seed)
    assert_same_bytes(got[:1], want[:1])
    assert_rounded_row_sums(got[1], want[1], indices, seed)
    exact = np.zeros((3, 8), dtype=np.float64)
    np.add.at(exact, indices, seed.astype(np.float64))
    half_ulp = np.spacing(np.abs(got[1])).astype(np.float64) / 2
    assert (np.abs(got[1] - exact) <= half_ulp).all()
    assert (np.abs(want[1] - exact) > half_ulp).any()


def test_embedding_lookup_gradcheck_with_repeats():
    rng = np.random.default_rng(9)
    weight = _t(rng, (5, 3), np.float64)
    indices = np.array([[0, 2, 2], [4, 0, 2]])  # repeated rows must accumulate
    check_gradients(lambda w: perf.embedding_lookup(w, indices), [weight])


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("padding_idx", [0, 5])
def test_embedding_lookup_padding_skip_keeps_bytes(dtype, padding_idx):
    """Dropping the padding entries before the key build changes no byte.

    Models multiply padded positions by a 0/1 mask, so the upstream rows
    there are +0.0 or -0.0: against such a gradient the skipping scatter's
    weight gradient is ``tobytes()``-equal to the unskipped one. Against an
    unmasked gradient every other row keeps its bytes and the padding row
    stays zero."""
    rng = np.random.default_rng(13)
    weight, seed = _arrays(rng, [(40, 8), (64, 10, 8)], dtype)
    indices = rng.integers(0, 40, size=(64, 10))
    indices[rng.random(indices.shape) < 0.6] = padding_idx
    masked = seed * (indices != padding_idx)[..., None].astype(dtype)
    assert np.signbit(masked[indices == padding_idx]).any()  # -0.0 present

    def lookup(skip):
        pad = padding_idx if skip else None
        return lambda w: perf.embedding_lookup(w, indices, pad)

    assert_same_bytes(_run(lookup(True), [weight], masked), _run(lookup(False), [weight], masked))
    got = _run(lookup(True), [weight], seed)[1]
    want = _run(lookup(False), [weight], seed)[1]
    others = np.arange(len(weight)) != padding_idx
    assert got[others].tobytes() == want[others].tobytes()
    assert not got[padding_idx].any() and want[padding_idx].any()


def test_embedding_grad_buffer_is_reused_across_steps():
    """The scatter target is cached on the parameter and reused."""
    rng = np.random.default_rng(10)
    weight = _t(rng, (6, 3), np.float64)
    perf.embedding_lookup(weight, np.array([1, 2])).sum().backward()
    first_buffer = weight.grad
    weight.zero_grad()
    perf.embedding_lookup(weight, np.array([3])).sum().backward()
    assert weight.grad is first_buffer  # same allocation, zero-filled between steps
    expected = np.zeros_like(weight.data)
    expected[3] = 1.0
    np.testing.assert_allclose(weight.grad, expected)


def test_embedding_borrowed_grad_not_mutated_by_scatter():
    """A borrowed gradient array must be copied before np.add.at scatters."""
    rng = np.random.default_rng(11)
    weight = _t(rng, (4, 2), np.float64)
    external = np.ones_like(weight.data)
    weight._accumulate(external)  # borrowed: grad is external, not owned
    perf.embedding_lookup(weight, np.array([0])).sum().backward()
    np.testing.assert_allclose(external, np.ones_like(weight.data))
    assert weight.grad[0, 0] == pytest.approx(2.0)


# ----------------------------------------------------------------------
# Dyadic relation attention
# ----------------------------------------------------------------------
REL_TOL = {np.float32: dict(rtol=2e-4, atol=1e-5), np.float64: dict(rtol=1e-9, atol=1e-11)}


def _rel_arrays(rng, B, Tq, Tk, R, d, dtype):
    q, alpha, table = _arrays(rng, [(B, Tq, d), (B, Tq, Tk), (R, d)], dtype)
    rel_ids = rng.integers(0, R, size=(B, Tq, Tk))
    return q, alpha, table, rel_ids


def _rel_seed(shape, dtype):
    return np.random.default_rng(17).normal(size=shape).astype(dtype)


def _assert_rel_close(got, want, dtype):
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, **REL_TOL[dtype])


def _check_relation_scores(dtype, B, Tq, Tk):
    rng = np.random.default_rng(14)
    q, _, table, rel_ids = _rel_arrays(rng, B, Tq, Tk, 9, 4, dtype)
    seed = _rel_seed((B, Tq, Tk), dtype)
    _assert_rel_close(
        _run(lambda q_, t_: perf.relation_scores(q_, t_, rel_ids), [q, table], seed),
        _run(lambda q_, t_: (q_.unsqueeze(2) * t_.take(rel_ids)).sum(axis=3), [q, table], seed),
        dtype,
    )


def _check_relation_values(dtype, B, Tq, Tk):
    rng = np.random.default_rng(15)
    _, alpha, table, rel_ids = _rel_arrays(rng, B, Tq, Tk, 9, 4, dtype)
    seed = _rel_seed((B, Tq, 4), dtype)
    _assert_rel_close(
        _run(lambda a_, t_: perf.relation_values(a_, t_, rel_ids), [alpha, table], seed),
        _run(lambda a_, t_: (a_.unsqueeze(3) * t_.take(rel_ids)).sum(axis=2), [alpha, table], seed),
        dtype,
    )


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("B,T", [(1, 1), (3, 5)])
def test_relation_scores_matches_gathered_composition(dtype, B, T):
    """Projects onto all R relations and gathers scalars: roundoff only
    against the gathered [B, T, T, d] composition."""
    _check_relation_scores(dtype, B, T, T)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("B,T", [(1, 1), (3, 5)])
def test_relation_values_matches_gathered_composition(dtype, B, T):
    """Buckets alpha by relation id, then one matmul: roundoff only."""
    _check_relation_values(dtype, B, T, T)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("B,Tk", [(1, 6), (3, 5)])
def test_relation_kernels_one_query_row(dtype, B, Tk):
    """Tq = 1 against Tk keys, the shape EMBSR's star-row attention passes:
    the same roundoff-only contract as the square case."""
    _check_relation_scores(dtype, B, 1, Tk)
    _check_relation_values(dtype, B, 1, Tk)


def test_relation_kernels_gradcheck():
    for Tq, Tk in [(3, 3), (1, 4)]:
        rng = np.random.default_rng(16)
        q, alpha, table, rel_ids = _rel_arrays(rng, 2, Tq, Tk, 5, 4, np.float64)
        q, alpha, table = (Tensor(a, requires_grad=True) for a in (q, alpha, table))
        check_gradients(lambda q_, t_: perf.relation_scores(q_, t_, rel_ids), [q, table])
        check_gradients(lambda a_, t_: perf.relation_values(a_, t_, rel_ids), [alpha, table])


# ----------------------------------------------------------------------
# Operation-aware attention: the star row against the full-row block
# ----------------------------------------------------------------------
def full_row_attention(attn, x, seq_ops, seq_mask, use_dyadic):
    """The block as it was before it computed only the star row: queries,
    [B, T, T] scores, softmax, FFN and layer norm for all T rows, of which
    EMBSR read row 0. Kept as the oracle of ``OperationAwareSelfAttention``."""
    B, T, d = x.shape
    scale = 1.0 / np.sqrt(d)
    pos = attn.positions(np.broadcast_to(np.arange(T), (B, T)))
    keys = x + pos
    q = attn.w_q(x)
    scores = (q @ keys.swapaxes(-1, -2)) * scale
    if use_dyadic:
        rel_ids = relation_ids(seq_ops, seq_ops, attn.num_ops)
        scores = scores + perf.relation_scores(q, attn.relations.weight, rel_ids) * scale
    bias = np.where(seq_mask.astype(bool)[:, None, :], 0.0, -1e9)
    alpha = (scores + Tensor(np.broadcast_to(bias, (B, T, T)).copy())).softmax(axis=-1)
    z = alpha @ keys
    if use_dyadic:
        z = z + perf.relation_values(alpha, attn.relations.weight, rel_ids)
    z = attn.norm(z + attn.dropout(attn.ffn(z)))
    return z[:, 0, :]


def _attention_case(B, dtype, T=12, d=16, num_ops=5):
    """A block, inputs with masked rows (every odd session is padded
    after a random length below T), and a random projection for the loss."""
    rng = np.random.default_rng(B)
    with default_dtype(dtype):
        attn = OperationAwareSelfAttention(
            d, num_ops=num_ops, max_len=T, dropout=0.0, rng=np.random.default_rng(3)
        )
    lengths = np.where(np.arange(B) % 2 == 0, T, rng.integers(1, T, size=B))
    mask = (np.arange(T)[None, :] < lengths[:, None]).astype(np.float64)
    ops = rng.integers(1, num_ops + 1, size=(B, T)) * mask.astype(np.int64)
    x, projection = _arrays(rng, [(B, T, d), (B, d)], dtype)
    return attn, x, ops, mask, projection


def _attention_results(block, attn, x, ops, mask, projection, use_dyadic):
    """``z_s``, the gradient of ``x`` and of every parameter, under the
    loss ``(z_s * projection).sum()``."""
    attn.zero_grad()
    with default_dtype(x.dtype):
        leaf = Tensor(x.copy(), requires_grad=True)
        z = block(attn, leaf, ops, mask, use_dyadic)
        (z * Tensor(projection)).sum().backward()
    grads = [p.grad for p in attn.parameters()]
    return [z.data, leaf.grad] + [np.zeros(0) if g is None else g.copy() for g in grads]


def _star_row(attn, x, ops, mask, use_dyadic):
    return attn(x, ops, mask, use_dyadic=use_dyadic)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("use_dyadic", [True, False])
@pytest.mark.parametrize("B", [1, 2, 64])
def test_star_row_attention_matches_full_row_block(dtype, use_dyadic, B):
    """Computing only the star row changes GEMM heights (and so BLAS
    kernels), not the math: output, input gradient and every parameter
    gradient agree with row 0 of the full-row block to roundoff, within
    1e-10 of each array's largest entry in float64.

    The loss is a random projection of ``z_s``: a ``(z * z).sum()`` loss
    sits in LayerNorm's cancellation regime, where float32 gradients
    differ by ~1 % for roundoff reasons alone."""
    case = _attention_case(B, dtype)
    got = _attention_results(_star_row, *case, use_dyadic)
    want = _attention_results(full_row_attention, *case, use_dyadic)
    assert len(got) == len(want)
    rtol = 1e-10 if dtype == np.float64 else 2e-5
    for i, (g, w) in enumerate(zip(got, want)):
        assert g.shape == w.shape and g.dtype == w.dtype, i
        assert np.abs(g - w).max(initial=0.0) <= rtol * np.abs(w).max(initial=0.0), i


# ----------------------------------------------------------------------
# Loss
# ----------------------------------------------------------------------
def composed_cross_entropy(logits, targets, total=None):
    """The deleted composed body of ``nn.cross_entropy``."""
    log_probs = logits.log_softmax(axis=-1)
    picked = log_probs[np.arange(targets.shape[0]), targets]
    if total is None or total == targets.shape[0]:
        return -picked.mean()
    return -(picked.sum() / float(total))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("batch", [1, 6, 64])
def test_log_softmax_nll_matches_cross_entropy(dtype, batch):
    """The logit gradient byte-equals the composition, for the batch mean
    and for a shard's sum over the full batch (``total``). So does the loss
    value, except for a mean over a batch that is not a power of two: the
    kernel divides by B where the composition multiplies by 1/B, which
    moves the value by at most one ulp and the gradient not at all."""
    rng = np.random.default_rng(12)
    (logits,) = _arrays(rng, [(batch, 9)], dtype, scale=2.0)
    targets = rng.integers(0, 9, size=batch)
    for total in (None, 3 * batch):
        loss, d_logits = _run(lambda z: nn.cross_entropy(z, targets, total=total), [logits])
        want, want_d = _run(lambda z: composed_cross_entropy(z, targets, total=total), [logits])
        assert_same_bytes([d_logits], [want_d])
        if total is None and batch & (batch - 1):
            np.testing.assert_array_max_ulp(loss, want, maxulp=1)
        else:
            assert_same_bytes([loss], [want])


def test_log_softmax_nll_gradcheck():
    rng = np.random.default_rng(13)
    logits = _t(rng, (4, 5), np.float64, scale=2.0)
    targets = np.array([0, 4, 2, 2])
    check_gradients(lambda t: perf.log_softmax_nll(t, targets), [logits])
