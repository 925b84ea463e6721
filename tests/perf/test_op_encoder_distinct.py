"""Oracle for the distinct-sequence micro-operation encoder (Eqs. 3-4).

``core.encode_op_sequences`` runs the op GRU once per distinct operation
sequence of a batch and gathers the U final states back to [B, n, d]
with ``embedding_lookup``. The composition it replaced is kept here as
its oracle: embed all B·n rows, run the GRU over [B·n, k], reshape, and
(EMBSR only) zero the padded macro positions. Both callers are checked:
EMBSR's ``MicroOpEncoder`` and HUP's micro level.

Roundoff classes, measured on 10 batches of 64 at the ``train_embsr``
shape (U of 44-59 distinct rows out of 640):

* ``h~`` (forward): roundoff. The GRU's GEMMs run at height U, not B·n,
  and BLAS picks its kernel by shape (``docs/performance.md``). It read
  byte-equal on those batches; nothing guarantees it at other heights.
* Every parameter gradient (op table, ``w_ih``, ``w_hh``, ``b_ih``,
  ``b_hh``): roundoff. The GEMM heights change, and a sequence that
  occurs r times reaches the GRU as one row whose upstream gradient is
  the sum of the r rows, added once. Measured: float64 within 1.1e-15,
  float32 within 3.1e-7 of each array's max.

Asserted: float64 within 1e-10 and float32 within 2e-5 of each array's
largest entry. Exact: rows whose ids agree on their valid slots get
``tobytes()``-equal ``h~``, and an empty row gets exactly zero.
"""

import numpy as np
import pytest

from repro.autograd import Tensor, concat, default_dtype
from repro.baselines import HUP
from repro.core import MicroOpEncoder
from repro.core.op_encoder import encode_op_sequences
from repro.data import generate_dataset, jd_appliances_config, prepare_dataset
from repro.data.dataset import collate
from repro.nn import Embedding

DTYPES = [np.float32, np.float64]
NUM_OPS = 10
DIM = 16


# ----------------------------------------------------------------------
# Oracle: the padded [B·n, k] composition
# ----------------------------------------------------------------------
def padded_op_sequences(op_embedding, gru, ops, op_mask):
    """Every row through the GRU, the body both models ran before."""
    B, n, k = ops.shape
    embedded = op_embedding(ops.reshape(B * n, k))
    _, final = gru(embedded, mask=op_mask.reshape(B * n, k))
    return final.reshape(B, n, gru.hidden_dim)


def padded_micro_op_encoder(encoder, op_embedding, ops, op_mask):
    """``MicroOpEncoder.forward`` before it encoded distinct sequences."""
    htilde = padded_op_sequences(op_embedding, encoder.gru, ops, op_mask)
    macro_mask = (op_mask.sum(axis=2) > 0).astype(htilde.data.dtype)[..., None]
    return htilde * Tensor(macro_mask)


# ----------------------------------------------------------------------
# Cases
# ----------------------------------------------------------------------
def _batch(rng, B, n, k, templates=None, empty_share=0.3, junk=True):
    """[B, n, k] shifted ops and a prefix mask. With ``templates`` every
    row copies one of that many random sequences (many duplicates);
    ``empty_share`` of the rows are empty. ``junk`` fills padded slots
    with valid-looking ids, which the encoder must ignore."""
    lengths = rng.integers(1, k + 1, size=(B, n))
    lengths[rng.random((B, n)) < empty_share] = 0
    ops = rng.integers(1, NUM_OPS + 1, size=(B, n, k))
    if templates is not None:
        pool = rng.integers(1, NUM_OPS + 1, size=(templates, k))
        pool_lengths = rng.integers(1, k + 1, size=templates)
        pick = rng.integers(templates, size=(B, n))
        ops = pool[pick]
        lengths = np.where(lengths > 0, pool_lengths[pick], 0)
    mask = (np.arange(k) < lengths[..., None]).astype(np.float64)
    if not junk:
        ops = ops * mask.astype(np.int64)
    return ops, mask


CASES = {
    "duplicates": dict(B=64, n=10, k=6, templates=12),
    "random": dict(B=16, n=7, k=4),
    "empty-rows": dict(B=8, n=6, k=5, empty_share=0.7),
    "all-empty": dict(B=4, n=3, k=6, empty_share=1.0),
    "B=1": dict(B=1, n=5, k=6, templates=2),
    "k=1": dict(B=12, n=4, k=1),
    "no-junk": dict(B=32, n=8, k=6, templates=20, junk=False),
}


def _case(name):
    rng = np.random.default_rng(sorted(CASES).index(name))
    ops, mask = _batch(rng, **CASES[name])
    projection = rng.normal(size=ops.shape[:2] + (DIM,))
    return ops, mask, projection


def _results(modules, encode, ops, mask, projection, dtype):
    """Output and every parameter gradient of ``modules`` under the loss
    ``(h * projection).sum()``."""
    for module in modules:
        module.zero_grad()
    with default_dtype(dtype):
        out = encode(ops, mask)
        (out * Tensor(projection.astype(dtype))).sum().backward()
    params = [p for module in modules for p in module.parameters()]
    return [out.data] + [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]


def _embsr_parts(dtype):
    rng = np.random.default_rng(7)
    with default_dtype(dtype):
        encoder = MicroOpEncoder(DIM, rng=rng)
        table = Embedding(NUM_OPS + 1, DIM, rng=rng, padding_idx=0)
    return encoder, table


def _hup(dtype):
    with default_dtype(dtype):
        return HUP(num_items=30, num_ops=NUM_OPS, dim=DIM, dropout=0.0, seed=7)


def assert_roundoff(got, want, dtype):
    assert len(got) == len(want)
    rtol = 1e-10 if dtype == np.float64 else 2e-5
    for i, (g, w) in enumerate(zip(got, want)):
        assert g.shape == w.shape and g.dtype == w.dtype, i
        assert np.abs(g - w).max(initial=0.0) <= rtol * np.abs(w).max(initial=0.0), i


# ----------------------------------------------------------------------
# Distinct sequences against the padded composition
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_embsr_encoder_matches_padded_composition(dtype, case):
    ops, mask, projection = _case(case)
    encoder, table = _embsr_parts(dtype)
    got = _results([encoder, table], lambda o, m: encoder(table, o, m), ops, mask, projection, dtype)
    want = _results(
        [encoder, table],
        lambda o, m: padded_micro_op_encoder(encoder, table, o, m),
        ops, mask, projection, dtype,
    )
    assert_roundoff(got, want, dtype)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_hup_micro_level_matches_padded_composition(dtype, case):
    ops, mask, projection = _case(case)
    hup = _hup(dtype)
    parts = [hup.op_embedding, hup.micro_gru]

    def distinct(o, m):
        return encode_op_sequences(hup.op_embedding, hup.micro_gru, o, m)

    def padded(o, m):
        return padded_op_sequences(hup.op_embedding, hup.micro_gru, o, m)

    assert_roundoff(
        _results(parts, distinct, ops, mask, projection, dtype),
        _results(parts, padded, ops, mask, projection, dtype),
        dtype,
    )


def padded_hup_sessions(model, batch):
    """``HUP.encode_sessions`` as it stood, micro level padded."""
    op_summary = padded_op_sequences(model.op_embedding, model.micro_gru, batch.ops, batch.op_mask)
    items = model.dropout(model.item_embedding(batch.items))
    fused = model.fuse(concat([items, op_summary], axis=2)).tanh()
    outputs, h_t = model.item_gru(fused, mask=batch.item_mask)
    energy = (model.a1(h_t).unsqueeze(1) + model.a2(outputs)).sigmoid() @ model.v
    alpha = energy * Tensor(batch.item_mask)
    pooled = (alpha.unsqueeze(2) * outputs).sum(axis=1)
    return pooled + h_t


@pytest.mark.parametrize("dtype", DTYPES)
def test_hup_sessions_match_padded_composition(dtype):
    """The whole HUP encoder on a collated batch of generated sessions:
    the session vectors and every parameter gradient."""
    cfg = jd_appliances_config()
    dataset = prepare_dataset(generate_dataset(cfg, 150, seed=4), cfg.operations, min_support=2)
    batch = collate(dataset.train[:48], max_ops_per_item=6)
    rng = np.random.default_rng(3)
    projection = rng.normal(size=(batch.batch_size, DIM))
    with default_dtype(dtype):
        model = HUP(dataset.num_items, dataset.num_operations, dim=DIM, dropout=0.0, seed=2)

    def results(encode):
        model.zero_grad()
        with default_dtype(dtype):
            out = encode(model, batch)
            (out * Tensor(projection.astype(dtype))).sum().backward()
        return [out.data] + [p.grad.copy() for p in model.parameters()]

    assert_roundoff(
        results(lambda m, b: m.encode_sessions(b)), results(padded_hup_sessions), dtype
    )


# ----------------------------------------------------------------------
# Exact properties
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dtype", DTYPES)
def test_equal_sequences_get_byte_equal_states(dtype):
    """Rows that agree on their valid slots share one GRU row, whatever
    their padded slots hold; empty rows are exactly zero."""
    ops, mask = _batch(np.random.default_rng(11), B=16, n=6, k=5, templates=4)
    encoder, table = _embsr_parts(dtype)
    with default_dtype(dtype):
        h = encoder(table, ops, mask).data.reshape(-1, DIM)
    keys = (ops * mask.astype(np.int64)).reshape(len(h), -1)
    for row in range(len(h)):
        twins = np.flatnonzero((keys == keys[row]).all(axis=1))
        assert len({h[t].tobytes() for t in twins}) == 1
    empty = ~keys.any(axis=1)
    assert empty.any() and not h[empty].any()


def test_valid_padding_id_is_rejected():
    """Ids must determine the mask: a valid slot holding id 0 would share
    its key with a padded slot."""
    ops, mask = _batch(np.random.default_rng(0), B=2, n=3, k=4, empty_share=0.0)
    ops[1, 2, 0] = 0
    encoder, table = _embsr_parts(np.float64)
    with pytest.raises(ValueError, match="operation id 0"):
        encoder(table, ops, mask)
    with pytest.raises(ValueError, match="operation id 0"):
        encode_op_sequences(table, encoder.gru, ops, mask)
