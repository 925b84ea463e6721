"""Behavior preservation and cross-path bit-identity of the objective seam.

Two contracts:

* **Golden parity.** Training under the default cross-entropy objective is
  the *same computation* it was before objectives existed. The hashes below
  are sha256 over the sorted state dict plus the per-epoch (epoch,
  train_loss, valid_metric) history, and must never drift. The NARM
  ``workers2`` rows come from the pre-refactor trainer; the NARM ``eager``
  rows were re-pinned once, when the whole-batch step became the
  one-shard grid and its dropout moved to the per-shard streams. The four
  EMBSR rows (both modes, both dtypes) were re-pinned once more, when the
  operation-aware attention block began computing only the star row
  ``z_s`` that Eq. 18 reads: its GEMMs lost their other T - 1 rows, which
  moves roundoff, and its dropout draws a [B, d] mask instead of
  [B, T, d]. ``tests/perf/test_fused_parity.py`` holds the full-row block
  as that change's oracle. They were re-pinned again when the micro-op
  GRU (Eqs. 3-4) began running once per distinct operation sequence
  instead of once per [B·n, k] row: its GEMM heights and the gradient
  summation order changed, roundoff only.
  ``tests/perf/test_op_encoder_distinct.py`` holds the padded composition
  as that change's oracle.
* **InfoNCE parity.** The contrastive objective is shard-compatible:
  serial-grid and N-worker training are bitwise equal.
"""

import hashlib

import numpy as np
import pytest

from repro.eval import ExperimentConfig, ExperimentRunner

GOLDEN = {
    ("EMBSR", "eager"): "60a7bbed5a3c13b6a9db045a1a83e262cb82d4c741264b0de18a1164834a19bc",
    ("EMBSR", "workers2"): "76b8a9781803acc436f01170f56d55428ce9db98771db863b0348c847e4e3b9e",
    ("NARM", "eager"): "12433f74a3718ec6a1f50dbf57d619e7658c05be9e2e180d14d9dded59178aec",
    ("NARM", "workers2"): "032a8feada6038f98d28caef848faeeb7d545d23e49d7d8a02af81df91300bed",
}
# The dtype that ships (``MODEL_DTYPE``), pinned when float32 became the
# default: same runs as above, with the float32 embedding scatter rounding
# each row's float64 sum once.
GOLDEN_FLOAT32 = {
    ("EMBSR", "eager"): "f03417723a1592f037e8f01af107cfe8ecd53f1c66ba95044238eca6835f5a8d",
    ("EMBSR", "workers2"): "3f10fd08d66a540a35e094421edc4b1b6ac92f919ab1fc90f90a55e2c58dec2b",
    ("NARM", "eager"): "8101b9cae9082290a9d7cd093b2184918ba1ddeb5b1eb2b9edeae0ff4b0e7b7f",
    ("NARM", "workers2"): "38c5086f59ccb6363100e9055fe273170e4a1df040f5734d3e5ff2198442fbc1",
}
MODES = {
    "eager": {},
    "workers2": {"workers": 2, "grad_shards": 2},
}


def fit(dataset, name, dtype="float64", **kw):
    config = ExperimentConfig(
        dim=12, epochs=2, batch_size=32, seed=5, dtype=dtype, patience=2, **kw
    )
    runner = ExperimentRunner(dataset, config)
    recommender = runner.build(name)
    recommender.fit(dataset)
    return recommender


def digest(recommender) -> str:
    h = hashlib.sha256()
    state = recommender.model.state_dict()
    for name in sorted(state):
        h.update(name.encode())
        h.update(np.ascontiguousarray(state[name]).tobytes())
    for e in recommender.trainer.history:
        h.update(repr((e.epoch, float(e.train_loss), float(e.valid_metric))).encode())
    return h.hexdigest()


def state_of(recommender) -> dict:
    return {k: v.copy() for k, v in recommender.model.state_dict().items()}


def assert_same_params(a: dict, b: dict) -> None:
    assert a.keys() == b.keys()
    for name in sorted(a):
        assert np.array_equal(a[name], b[name]), f"parameter {name} differs"


class TestGoldenCrossEntropy:
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_embsr_matches_pre_refactor_golden(self, dataset, mode):
        assert digest(fit(dataset, "EMBSR", **MODES[mode])) == GOLDEN[("EMBSR", mode)]

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_narm_matches_pre_refactor_golden(self, dataset, mode):
        assert digest(fit(dataset, "NARM", **MODES[mode])) == GOLDEN[("NARM", mode)]


class TestGoldenFloat32:
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_embsr_float32_golden(self, dataset, mode):
        got = digest(fit(dataset, "EMBSR", dtype="float32", **MODES[mode]))
        assert got == GOLDEN_FLOAT32[("EMBSR", mode)]

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_narm_float32_golden(self, dataset, mode):
        got = digest(fit(dataset, "NARM", dtype="float32", **MODES[mode]))
        assert got == GOLDEN_FLOAT32[("NARM", mode)]


class TestInfoNCEParity:
    def test_ssl_two_workers_is_bitwise_serial(self, dataset):
        serial = fit(dataset, "EMBSR-SSL", grad_shards=2)
        workers = fit(dataset, "EMBSR-SSL", workers=2, grad_shards=2)
        assert_same_params(state_of(serial), state_of(workers))
