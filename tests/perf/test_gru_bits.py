"""Byte-level differential for ``perf.gru_sequence`` (the same-bits contract).

The kernel runs its gate arithmetic on the valid rows of each step only,
while its GEMMs and bias sums keep the full batch height. The oracle below
is the dense unroll the kernel replaced, kept verbatim: every row goes
through every step and the mask blends ``m * h_new + (1 - m) * h``. Outputs
and all six gradients must agree *byte for byte* — ``tobytes()``, not
``allclose`` and not ``array_equal`` (which calls -0.0 and +0.0 equal).

BLAS picks its kernel by operand shape (``docs/performance.md``): a GEMM on
gathered rows differs in bytes from the gathered rows of the full GEMM at
M = 1 (gemv) and, for the transposed-weight products at d = 32, at every
M <= 37 (small-matrix path). The heights below straddle those switches, so
a later change that compacts a GEMM fails here by construction.
"""

import numpy as np
import pytest

from repro import perf
from repro.autograd import Tensor
from repro.autograd.tensor import _stable_sigmoid

HEIGHTS = [1, 2, 37, 38, 640]
MASKS = ["none", "all-valid", "prefix", "holes", "empty-step", "padding-rows", "op-encoder"]


# ----------------------------------------------------------------------
# Oracle: the dense kernel as it stood before active-row selection
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


def dense_gru_sequence(x, w_ih, w_hh, b_ih, b_hh, mask=None, h0=None):
    """The pre-change ``gru_sequence`` minus its tape hook (always tracks)."""
    B, T, _ = x.data.shape
    d = w_hh.data.shape[0]
    x_data = x.data
    w_ih_d, w_hh_d, b_ih_d, b_hh_d = w_ih.data, w_hh.data, b_ih.data, b_hh.data
    h_prev = h0.data if h0 is not None else np.zeros((B, d), dtype=x_data.dtype)
    h0_data = h_prev

    out_data = np.empty((B, T, d), dtype=x_data.dtype)
    zs = np.empty((T, B, d), dtype=x_data.dtype)
    rs = np.empty_like(zs)
    ns = np.empty_like(zs)
    gh_ns = np.empty_like(zs)
    m_cols = None
    if mask is not None:
        m_cols = mask.astype(x_data.dtype)[..., None]  # [B, T, 1]

    for t in range(T):
        h_new, z, r, n, gh_n = _gru_forward_step(
            x_data[:, t, :], h_prev, w_ih_d, w_hh_d, b_ih_d, b_hh_d, d
        )
        if m_cols is not None:
            m = m_cols[:, t, :]
            h_prev = m * h_new + (1.0 - m) * h_prev
        else:
            h_prev = h_new
        out_data[:, t, :] = h_prev
        zs[t], rs[t], ns[t], gh_ns[t] = z, r, n, gh_n

    def backward() -> None:
        x_data = x.data
        w_ih_d, w_hh_d = w_ih.data, w_hh.data
        h_first = h0.data if h0 is not None else h0_data
        g_out = out.grad  # [B, T, d]
        need_w = w_ih.requires_grad or w_hh.requires_grad
        need_b = b_ih.requires_grad or b_hh.requires_grad
        d_w_ih = np.zeros_like(w_ih_d) if w_ih.requires_grad else None
        d_w_hh = np.zeros_like(w_hh_d) if w_hh.requires_grad else None
        d_b_ih = np.zeros_like(b_ih.data) if b_ih.requires_grad else None
        d_b_hh = np.zeros_like(b_hh.data) if b_hh.requires_grad else None
        d_x = np.empty_like(x_data) if x.requires_grad else None
        dh = np.zeros((B, d), dtype=x_data.dtype)
        for t in range(T - 1, -1, -1):
            g = g_out[:, t, :] + dh
            h_before = out_data[:, t - 1, :] if t > 0 else h_first
            m = m_cols[:, t, :] if m_cols is not None else None
            dgi, dgh, dh = _gru_backward_step(
                g, h_before, x_data[:, t, :], zs[t], rs[t], ns[t], gh_ns[t], w_ih_d, w_hh_d, m
            )
            dh = dh + np.matmul(dgh, w_hh_d.T)
            if d_x is not None:
                d_x[:, t, :] = np.matmul(dgi, w_ih_d.T)
            if need_w:
                x_t = x_data[:, t, :]
                if d_w_ih is not None:
                    d_w_ih += x_t.T @ dgi
                if d_w_hh is not None:
                    d_w_hh += h_before.T @ dgh
            if need_b:
                if d_b_ih is not None:
                    d_b_ih += dgi.sum(axis=0)
                if d_b_hh is not None:
                    d_b_hh += dgh.sum(axis=0)
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

    parents = [x, w_ih, w_hh, b_ih, b_hh]
    if h0 is not None:
        parents.append(h0)
    out = Tensor._make(out_data, tuple(parents), backward)
    return out


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def make_mask(kind, rng, B, T, dtype):
    steps = np.arange(T)[None, :]
    if kind == "none":
        return None
    if kind == "all-valid":
        return np.ones((B, T), dtype=dtype)
    if kind == "prefix":
        return (steps < rng.integers(1, T + 1, size=B)[:, None]).astype(dtype)
    if kind == "holes":
        return (rng.random((B, T)) < 0.5).astype(dtype)
    if kind == "empty-step":  # one step where no row is valid
        mask = (rng.random((B, T)) < 0.6).astype(dtype)
        mask[:, T // 2] = 0
        return mask
    if kind == "padding-rows":  # about half the rows never valid
        lengths = np.where(rng.random(B) < 0.5, rng.integers(1, T + 1, size=B), 0)
        return (steps < lengths[:, None]).astype(dtype)
    # "op-encoder": EMBSR's [B*n, k] block, ~43 % real rows, short lengths
    lengths = np.where(rng.random(B) < 0.43, np.minimum(rng.geometric(0.45, size=B), T), 0)
    return (steps < lengths[:, None]).astype(dtype)


def make_arrays(rng, B, T, in_dim, d, dtype):
    """x, w_ih, w_hh, b_ih, b_hh, h0 and the output-gradient seed."""
    shapes = [(B, T, in_dim), (in_dim, 3 * d), (d, 3 * d), (3 * d,), (3 * d,), (B, d), (B, T, d)]
    return [(rng.normal(size=shape) * 0.5).astype(dtype) for shape in shapes]


def run_kernel(kernel, arrays, mask, with_h0):
    *inputs, seed = arrays
    tensors = [Tensor(a.copy(), requires_grad=True) for a in inputs]
    if not with_h0:
        tensors.pop()
    out = kernel(*tensors[:5], mask=mask, h0=tensors[5] if with_h0 else None)
    out.backward(seed)
    return [out.data] + [t.grad for t in tensors]


def assert_same_bytes(got, want):
    names = ["outputs", "d_x", "d_w_ih", "d_w_hh", "d_b_ih", "d_b_hh", "d_h0"]
    assert len(got) == len(want)
    for name, g, w in zip(names, got, want):
        assert g.dtype == w.dtype and g.shape == w.shape, name
        assert g.tobytes() == w.tobytes(), f"{name} differs in bytes"


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("with_h0", [False, True], ids=["zeros", "h0"])
@pytest.mark.parametrize("kind", MASKS)
@pytest.mark.parametrize("B", HEIGHTS)
def test_bytes_equal_dense_oracle(B, kind, with_h0, dtype):
    rng = np.random.default_rng([B, MASKS.index(kind), with_h0, np.dtype(dtype).itemsize])
    arrays = make_arrays(rng, B, 6, 32, 32, dtype)
    mask = make_mask(kind, rng, B, 6, dtype)
    assert_same_bytes(
        run_kernel(perf.gru_sequence, arrays, mask, with_h0),
        run_kernel(dense_gru_sequence, arrays, mask, with_h0),
    )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["none", "all-valid", "holes", "padding-rows"])
@pytest.mark.parametrize("B,T,in_dim,d", [(38, 1, 32, 32), (5, 4, 3, 7), (640, 3, 16, 32)])
def test_bytes_equal_other_shapes(B, T, in_dim, d, kind, dtype):
    """T = 1 and ``input_dim != hidden_dim``."""
    rng = np.random.default_rng(B + T)
    arrays = make_arrays(rng, B, T, in_dim, d, dtype)
    mask = make_mask(kind, rng, B, T, dtype)
    assert_same_bytes(
        run_kernel(perf.gru_sequence, arrays, mask, True),
        run_kernel(dense_gru_sequence, arrays, mask, True),
    )


@pytest.mark.parametrize("mask_dtype", [bool, np.int64])
def test_mask_dtype_does_not_change_bytes(mask_dtype):
    rng = np.random.default_rng(11)
    arrays = make_arrays(rng, 38, 6, 32, 32, np.float64)
    mask = make_mask("holes", rng, 38, 6, np.float64)
    assert_same_bytes(
        run_kernel(perf.gru_sequence, arrays, mask.astype(mask_dtype), True),
        run_kernel(dense_gru_sequence, arrays, mask, True),
    )
