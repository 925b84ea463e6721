"""API-surface tests: every exported name resolves and is documented."""

import importlib
import importlib.util
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.autograd",
    "repro.nn",
    "repro.data",
    "repro.graphs",
    "repro.core",
    "repro.baselines",
    "repro.eval",
    "repro.registry",
    "repro.artifacts",
    "repro.perf",
    "repro.perf.profiler",
    "repro.perf.fused",
    "repro.parallel",
    "repro.parallel.shm",
    "repro.parallel.sharding",
    "repro.parallel.engine",
    "repro.parallel.pool",
    "repro.utils",
    "repro.serve",
    "repro.serving",
    "repro.serving.metrics",
    "repro.serving.cache",
    "repro.serving.batcher",
    "repro.serving.admission",
    "repro.serving.gateway",
    "repro.serving.loadgen",
    "repro.deploy",
    "repro.deploy.buffer",
    "repro.deploy.canary",
    "repro.deploy.comparator",
    "repro.deploy.lineage",
    "repro.deploy.manager",
    "repro.deploy.trainer",
    "repro.retrieval",
    "repro.retrieval.kmeans",
    "repro.retrieval.pq",
    "repro.retrieval.index",
    "repro.retrieval.factorize",
    "repro.retrieval.pipeline",
    "repro.retrieval.evaluate",
    "repro.retrieval.quantize",
    "repro.cli",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{package}.__all__ lists missing name {name!r}"


@pytest.mark.parametrize("package", PACKAGES)
def test_module_docstrings(package):
    module = importlib.import_module(package)
    assert module.__doc__ and module.__doc__.strip(), f"{package} lacks a docstring"


@pytest.mark.parametrize("package", PACKAGES)
def test_public_classes_documented(package):
    module = importlib.import_module(package)
    for name in getattr(module, "__all__", []):
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__doc__ and obj.__doc__.strip(), f"{package}.{name} lacks a docstring"


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_training_tape_stays_deleted():
    """One eager step path: no tape hook in ``Tensor``, no option selecting one."""
    import dataclasses

    import repro.autograd.tensor
    from repro.data.dataset import DataLoader
    from repro.eval import ExperimentConfig, TrainConfig

    assert importlib.util.find_spec("repro.compile") is None
    assert not hasattr(repro.autograd.tensor, "_TAPE")
    for names in (
        {f.name for f in dataclasses.fields(TrainConfig)},
        {f.name for f in dataclasses.fields(ExperimentConfig)},
        set(inspect.signature(DataLoader.__init__).parameters),
    ):
        assert not names & {"compile", "bucket_lengths"}


def test_fusion_switch_stays_deleted():
    """The fused kernels are the implementation: no switch selects another."""
    import repro.perf
    import repro.perf.fused

    for module in (repro.perf, repro.perf.fused):
        for name in ("fusion", "set_fusion", "fusion_enabled", "gru_cell"):
            assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_object_batch_path_stays_deleted():
    """One batch path: every loader collates from CSR arrays, no option."""
    import dataclasses

    from repro.data.dataset import DataLoader
    from repro.data.packed import PackedDataset, PackedSplit
    from repro.eval import ExperimentConfig, TrainConfig

    for names in (
        {f.name for f in dataclasses.fields(TrainConfig)},
        {f.name for f in dataclasses.fields(ExperimentConfig)},
    ):
        assert not names & {"packed", "prefetch"}
    assert "prefetch" not in inspect.signature(DataLoader.__init__).parameters
    assert not hasattr(PackedSplit, "__packed_split__")
    assert not hasattr(PackedDataset, "__packed_dataset__")


def test_no_accidental_torch_dependency():
    """The whole point: nothing in the library may import torch."""
    import sys

    for package in PACKAGES:
        importlib.import_module(package)
    assert "torch" not in sys.modules
