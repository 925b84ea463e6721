"""Every registered neural model sends exactly zero gradient to padded
embedding positions.

``Embedding`` drops its ``padding_idx`` entries before the backward scatter
(``repro.perf.fused.embedding_lookup``). That keeps every gradient byte only
because each model masks padded positions, so the upstream rows there are
+0.0 or -0.0. This test runs one training batch of each neural model in the
registry, under its own objective, through the unskipped scatter and checks
those rows. Tables without a ``padding_idx`` (attention positions) are
exempt.
"""

import numpy as np
import pytest

from repro.data import generate_dataset, jd_appliances_config, prepare_dataset
from repro.data.dataset import collate
from repro.nn import Embedding
from repro.objectives import build_objective
from repro.perf import fused
from repro.registry import NEURAL, build_module, registered_models, spec_for

NEURAL_NAMES = [m.name for m in registered_models() if m.kind == NEURAL]


@pytest.fixture(scope="module")
def dataset():
    cfg = jd_appliances_config()
    return prepare_dataset(
        generate_dataset(cfg, 200, seed=3), cfg.operations, min_support=2, name="jd"
    )


@pytest.mark.parametrize("name", NEURAL_NAMES)
def test_padded_positions_get_zero_gradient(dataset, name, monkeypatch):
    probes = []

    def unskipped_lookup(self, indices):
        out = fused.embedding_lookup(self.weight, indices)
        if self.padding_idx is not None:
            probes.append((np.asarray(indices) == self.padding_idx, out))
        return out

    monkeypatch.setattr(Embedding, "forward", unskipped_lookup)
    spec = spec_for(
        name, num_items=dataset.num_items, num_ops=dataset.num_operations, dim=8, dtype="float64"
    )
    model = build_module(spec)
    model.train()
    objective = build_objective(
        spec.train.get("objective", "ce"),
        cl_weight=spec.train.get("cl_weight", 0.1),
        num_ops=dataset.num_operations,
    )
    objective.compute(model, collate(dataset.train[:64])).loss.backward()

    padded = 0
    for pad, out in probes:
        if out.grad is None:
            continue
        assert not out.grad[pad].any(), f"{name}: nonzero gradient at a padded position"
        padded += int(pad.sum())
    assert padded > 0, f"{name}: the batch exercised no padded lookup"
