"""Fused autograd kernels: single graph nodes with hand-written backwards.

The generic ops in ``repro.autograd.tensor`` compose beautifully but pay
per-op Python overhead (closure allocation, Tensor wrapping, temporary
arrays) that dominates training wall-clock at the batch sizes the paper
uses. Each kernel here replaces a whole composition with ONE graph node:

======================  ====================================================
``addmm``               ``x @ W + b`` (3 nodes -> 1)
``gru_sequence``        a whole [B, T] GRU unroll (~20*T nodes -> 1)
``embedding_lookup``    gather with scatter-add backward into a buffer the
                        parameter reuses across steps (no fresh
                        ``zeros(num_embeddings, dim)`` per step), padding
                        entries skipped
``relation_scores``     dyadic-attention score term ``q_i . e_{r_ij}``
                        without materializing [B, Tq, Tk, d]
``relation_values``     dyadic-attention value term
                        ``sum_j alpha_ij e_{r_ij}``, same trick
``log_softmax_nll``     log-softmax + NLL loss (softmax cross-entropy)
======================  ====================================================

The kernels are the implementation: the ``nn`` layers and EMBSR's
attention call them unconditionally. Each is verified in ``tests/perf``
against central finite differences (``repro.autograd.gradcheck``) and
against the composition it replaces, kept there as an oracle, in float32
and float64 (the contract per kernel is in ``docs/performance.md``).
"""

from __future__ import annotations

import numpy as np

from ..autograd import tensor as _tensor
from ..autograd.tensor import Tensor, _stable_sigmoid

__all__ = [
    "addmm",
    "gru_sequence",
    "embedding_lookup",
    "relation_scores",
    "relation_values",
    "log_softmax_nll",
]


def _tracking(*tensors: Tensor) -> bool:
    if not _tensor._GRAD_ENABLED.get():
        return False
    return any(t is not None and t.requires_grad for t in tensors)


# ----------------------------------------------------------------------
# addmm
# ----------------------------------------------------------------------
def addmm(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """``x @ weight + bias`` as a single node.

    ``x`` is [..., in], ``weight`` is [in, out], ``bias`` is [out] or None.
    The weight gradient is one GEMM over the flattened leading dims instead
    of a matmul-backward plus an unbroadcast reduction for the bias.
    """
    out_data = np.matmul(x.data, weight.data)
    if bias is not None:
        out_data += bias.data
    if not _tracking(x, weight, bias):
        return Tensor(out_data)

    def backward() -> None:
        g = out.grad
        if x.requires_grad:
            x._accumulate(np.matmul(g, weight.data.T))
        if weight.requires_grad or (bias is not None and bias.requires_grad):
            g2 = g.reshape(-1, g.shape[-1])
            if weight.requires_grad:
                x2 = x.data.reshape(-1, x.data.shape[-1])
                weight._accumulate(x2.T @ g2)
            if bias is not None and bias.requires_grad:
                bias._accumulate(g2.sum(axis=0))

    parents = (x, weight) if bias is None else (x, weight, bias)
    out = Tensor._make(out_data, parents, backward)
    return out


# ----------------------------------------------------------------------
# GRU
# ----------------------------------------------------------------------
def gru_sequence(
    x: Tensor,
    w_ih: Tensor,
    w_hh: Tensor,
    b_ih: Tensor,
    b_hh: Tensor,
    mask: np.ndarray | None = None,
    h0: Tensor | None = None,
) -> Tensor:
    """A full masked GRU unroll over [B, T, in] as ONE graph node.

    Returns the per-step hidden states [B, T, d]; because padded steps
    carry the state unchanged, ``outputs[:, -1]`` is the final state (this
    is what :class:`repro.nn.GRU` returns as ``final_state``).

    ``mask`` is [B, T] of any dtype: non-zero marks a valid step, nothing
    else about the value is used. Per step only the valid rows go through
    the gate arithmetic, forward and backward, while every GEMM and bias
    sum keeps its full height B on two zero-padded [B, 3d] workspaces that
    all T steps of both passes share. BLAS picks its kernel by operand
    shape, so dropping rows from a GEMM would change result bits
    (``docs/performance.md``); dropping them from elementwise work cannot.
    """
    B, T, _ = x.data.shape
    d = w_hh.data.shape[0]
    dtype = x.data.dtype
    h_first = np.zeros((B, d), dtype=dtype) if h0 is None else h0.data
    out_data = np.empty((B, T, d), dtype=dtype)
    gi = np.empty((B, 3 * d), dtype=dtype)
    gh = np.empty_like(gi)
    # Per step (rows, zr, n, gh_n) of the valid rows; None when there are none.
    steps: list = [None] * T
    every = slice(None)  # ``rows`` of a step where all B rows are valid

    x_data = x.data
    w_ih_d, w_hh_d, b_ih_d, b_hh_d = w_ih.data, w_hh.data, b_ih.data, b_hh.data
    h_prev = h_first
    for t in range(T):
        rows = every if mask is None else np.flatnonzero(mask[:, t])
        if rows is not every and rows.size == B:
            rows = every
        out_data[:, t] = h_prev
        if rows is every or rows.size:
            a = np.matmul(x_data[:, t], w_ih_d, out=gi)[rows]
            b = np.matmul(h_prev, w_hh_d, out=gh)[rows]
            a += b_ih_d
            b += b_hh_d
            zr = _stable_sigmoid(a[:, : 2 * d] + b[:, : 2 * d])
            z, r = zr[:, :d], zr[:, d:]
            # An index array copied the rows; ``every`` is a view of the
            # workspace, which the next step overwrites.
            gh_n = b[:, 2 * d :].copy() if rows is every else b[:, 2 * d :]
            n = np.tanh(a[:, 2 * d :] + r * gh_n)
            out_data[rows, t] = (1.0 - z) * n + z * h_prev[rows]
            steps[t] = (rows, zr, n, gh_n)
        h_prev = out_data[:, t]
    if not _tracking(x, h0, w_ih, w_hh, b_ih, b_hh):
        return Tensor(out_data)

    def backward() -> None:
        g_out = out.grad  # [B, T, d]
        d_w_ih = np.zeros_like(w_ih_d) if w_ih.requires_grad else None
        d_w_hh = np.zeros_like(w_hh_d) if w_hh.requires_grad else None
        d_b_ih = np.zeros_like(b_ih.data) if b_ih.requires_grad else None
        d_b_hh = np.zeros_like(b_hh.data) if b_hh.requires_grad else None
        d_x = np.zeros_like(x_data) if x.requires_grad else None
        d_x_t = np.empty((B, x_data.shape[2]), dtype=dtype)
        dh = np.zeros((B, d), dtype=dtype)
        dh_rec = np.empty_like(dh)
        pre_rows = np.empty_like(gi)
        # The forward's workspaces now hold dgi / dgh, zero off the valid rows.
        gi.fill(0.0)
        gh.fill(0.0)
        for t in range(T - 1, -1, -1):
            dh += g_out[:, t]
            if steps[t] is None:
                continue  # the state passed through: so does its gradient
            rows, zr, n, gh_n = steps[t]
            z, r = zr[:, :d], zr[:, d:]
            h_before = out_data[:, t - 1] if t > 0 else h_first
            g = dh[rows]
            dn_pre = g * (1.0 - z) * (1.0 - n * n)
            pre = pre_rows[: len(g)]
            pre[:, :d] = g * (h_before[rows] - n)
            pre[:, d : 2 * d] = dn_pre * gh_n
            pre[:, : 2 * d] *= zr
            pre[:, : 2 * d] *= 1.0 - zr
            pre[:, 2 * d :] = dn_pre
            gi[rows] = pre
            pre[:, 2 * d :] = dn_pre * r
            gh[rows] = pre
            dh[rows] = g * z
            dh += np.matmul(gh, w_hh_d.T, out=dh_rec)
            if d_x is not None:
                d_x[:, t] = np.matmul(gi, w_ih_d.T, out=d_x_t)
            if d_w_ih is not None:
                d_w_ih += x_data[:, t].T @ gi
            if d_w_hh is not None:
                d_w_hh += h_before.T @ gh
            if d_b_ih is not None:
                d_b_ih += gi.sum(axis=0)
            if d_b_hh is not None:
                d_b_hh += gh.sum(axis=0)
            gi[rows] = 0.0
            gh[rows] = 0.0
        if d_x is not None:
            x._accumulate(d_x)
        if h0 is not None and h0.requires_grad:
            h0._accumulate(dh)
        if d_w_ih is not None:
            w_ih._accumulate(d_w_ih)
        if d_w_hh is not None:
            w_hh._accumulate(d_w_hh)
        if d_b_ih is not None:
            b_ih._accumulate(d_b_ih)
        if d_b_hh is not None:
            b_hh._accumulate(d_b_hh)

    parents = (x, w_ih, w_hh, b_ih, b_hh) if h0 is None else (x, w_ih, w_hh, b_ih, b_hh, h0)
    out = Tensor._make(out_data, parents, backward)
    return out


# ----------------------------------------------------------------------
# Embedding
# ----------------------------------------------------------------------
def _scatter_add_rows(buf: np.ndarray, indices: np.ndarray, g: np.ndarray) -> None:
    """``buf[indices] += g`` over rows, via one flattened ``bincount``.

    ``np.add.at`` takes the slow buffered-ufunc path; a single bincount
    over ``index * d + col`` keys is an order of magnitude faster. It
    scans contributions in occurrence order, so the accumulation is
    deterministic. bincount sums in float64: a float64 ``buf`` gets the
    bytes of ``np.add.at``, and a float32 one gets each row sum rounded
    once, as :func:`_scatter_relations` rounds its buckets.
    """
    rows, d = buf.shape
    flat_keys = (indices.reshape(-1)[:, None] * d + np.arange(d)).ravel()
    sums = np.bincount(flat_keys, weights=g.reshape(-1), minlength=rows * d)
    buf += sums.reshape(rows, d)


def embedding_lookup(
    weight: Tensor, indices: np.ndarray, padding_idx: int | None = None
) -> Tensor:
    """Row gather with a one-``bincount`` scatter backward.

    Unlike the generic ``Tensor.take`` backward (which allocates a fresh
    ``zeros(num_embeddings, dim)`` per lookup per step), the scatter target
    is a buffer cached on the parameter (``weight._grad_buffer``) and
    reused across steps — embedding tables are the largest tensors in
    every model here, so this is the single biggest allocation saved.

    Entries equal to ``padding_idx`` are dropped before the scatter builds
    its keys, so the padding row gets no gradient (PyTorch's contract).
    Every model here masks padded positions, so those contributions are
    exactly zero, and ``bincount`` sums the remaining keys in the same
    order: every row keeps its bytes. Padding is 50-85 % of the indices
    in a batch.
    """
    indices = np.asarray(indices, dtype=np.int64)
    out_data = np.take(weight.data, indices, axis=0)
    if not _tracking(weight):
        return Tensor(out_data)

    def backward() -> None:
        g = out.grad
        if weight.grad is None:
            buffer = weight._grad_buffer
            if (
                buffer is None
                or buffer.shape != weight.data.shape
                or buffer.dtype != weight.data.dtype
            ):
                buffer = np.zeros_like(weight.data)
                weight._grad_buffer = buffer
            else:
                buffer.fill(0.0)
            weight.grad = buffer
            weight._grad_owned = True
        elif not weight._grad_owned:
            weight.grad = weight.grad.copy()
            weight._grad_owned = True
        if padding_idx is None:
            _scatter_add_rows(weight.grad, indices, g)
        else:
            keep = indices != padding_idx
            _scatter_add_rows(weight.grad, indices[keep], g[keep])

    out = Tensor._make(out_data, (weight,), backward)
    return out


# ----------------------------------------------------------------------
# Dyadic relation attention (Shaw-style gather-free rewrite)
# ----------------------------------------------------------------------
def _scatter_relations(values: np.ndarray, rel_ids: np.ndarray, R: int) -> np.ndarray:
    """Sum [B, Tq, Tk] ``values`` into [B, Tq, R] buckets keyed by ``rel_ids``.

    One vectorized ``bincount`` over flattened (b, i, r) keys — the scalar
    analogue of the [B, Tq, Tk, d] embedding scatter it replaces.
    """
    B, Tq, Tk = values.shape
    flat_keys = (np.arange(B * Tq)[:, None] * R + rel_ids.reshape(B * Tq, Tk)).ravel()
    out = np.bincount(flat_keys, weights=values.ravel(), minlength=B * Tq * R)
    return out.reshape(B, Tq, R).astype(values.dtype, copy=False)


def relation_scores(q: Tensor, table: Tensor, rel_ids: np.ndarray) -> Tensor:
    """``out[b,i,j] = q[b,i] . table[rel_ids[b,i,j]]`` as one node.

    ``q`` is [B, Tq, d] and ``rel_ids`` [B, Tq, Tk]: EMBSR's attention
    passes the star row alone (Tq = 1) against all Tk keys. The naive
    composition gathers a [B, Tq, Tk, d] tensor of relation embeddings and
    reduces it against ``q``; since the relation vocabulary ``R`` is tiny
    ((num_ops+1)^2), it is far cheaper to project ``q`` onto ALL relations
    at once (``q @ table.T`` -> [B, Tq, R]) and gather scalars. Same math, different summation order — parity with the
    composed version holds to roundoff, not bit-exactly.
    """
    rel_ids = np.asarray(rel_ids, dtype=np.int64)
    R = table.data.shape[0]
    projected = np.matmul(q.data, table.data.T)  # [B, Tq, R]
    out_data = np.take_along_axis(projected, rel_ids, axis=2)
    if not _tracking(q, table):
        return Tensor(out_data)

    def backward() -> None:
        q_data = q.data
        d_projected = _scatter_relations(out.grad, rel_ids, R)  # [B, Tq, R]
        if q.requires_grad:
            q._accumulate(np.matmul(d_projected, table.data))
        if table.requires_grad:
            flat = d_projected.reshape(-1, R)
            table._accumulate(flat.T @ q_data.reshape(-1, q_data.shape[-1]))

    out = Tensor._make(out_data, (q, table), backward)
    return out


def relation_values(alpha: Tensor, table: Tensor, rel_ids: np.ndarray) -> Tensor:
    """``out[b,i] = sum_j alpha[b,i,j] * table[rel_ids[b,i,j]]`` as one node.

    ``alpha`` and ``rel_ids`` are [B, Tq, Tk]. Buckets the attention
    weights by relation id ([B, Tq, R] via bincount) and hits the tiny
    relation table with one matmul — no [B, Tq, Tk, d] gather, no giant
    broadcast multiply, and the backward scatters scalars instead of
    d-vectors.
    """
    rel_ids = np.asarray(rel_ids, dtype=np.int64)
    R = table.data.shape[0]
    bucketed = _scatter_relations(alpha.data, rel_ids, R)  # [B, Tq, R]
    out_data = np.matmul(bucketed, table.data)  # [B, Tq, d]
    if not _tracking(alpha, table):
        return Tensor(out_data)

    def backward() -> None:
        g = out.grad  # [B, Tq, d]
        if alpha.requires_grad:
            d_bucketed = np.matmul(g, table.data.T)  # [B, Tq, R]
            alpha._accumulate(np.take_along_axis(d_bucketed, rel_ids, axis=2))
        if table.requires_grad:
            table._accumulate(bucketed.reshape(-1, R).T @ g.reshape(-1, g.shape[-1]))

    out = Tensor._make(out_data, (alpha, table), backward)
    return out


# ----------------------------------------------------------------------
# Loss
# ----------------------------------------------------------------------
def log_softmax_nll(logits: Tensor, targets: np.ndarray, total: int | None = None) -> Tensor:
    """Mean negative log-likelihood of ``targets`` under softmax(logits).

    Fuses the max-shift, log-sum-exp, gather, and mean into one node; the
    backward is the textbook ``(softmax - onehot) / batch`` — no [B, C]
    temporaries beyond the cached probabilities.

    ``total`` overrides the divisor of the per-row loss sum (default: the
    batch size). Sharded data-parallel steps score a slice of a batch but
    divide by the full batch size, so summing shard losses in fixed order
    reproduces the whole-batch mean objective.
    """
    targets = np.asarray(targets, dtype=np.int64)
    batch = logits.data.shape[0]
    divisor = batch if total is None else int(total)
    rows = np.arange(batch)
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs_at_target = shifted[rows, targets] - lse[:, 0]
    if divisor == batch:
        out_data = -log_probs_at_target.mean()
    else:
        out_data = -(log_probs_at_target.sum() / divisor)
    if not _tracking(logits):
        return Tensor(out_data)

    def backward() -> None:
        scale = out.grad / divisor  # scalar
        d_logits = np.exp(shifted - lse) * scale
        d_logits[rows, targets] -= scale
        logits._accumulate(d_logits)

    out = Tensor._make(np.asarray(out_data), (logits,), backward)
    return out
