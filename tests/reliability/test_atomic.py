"""Atomic writes: a crash mid-write leaves the old file intact, no litter."""

import numpy as np
import pytest

from repro import reliability as rel
from repro.artifacts import load_artifact, save_artifact
from repro.reliability import atomic_save_npz, atomic_write


def tmp_litter(directory):
    return [p for p in directory.iterdir() if p.suffix == ".tmp"]


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):
        target = tmp_path / "out.bin"
        result = atomic_write(target, lambda f: f.write(b"payload"))
        assert result == target
        assert target.read_bytes() == b"payload"
        assert tmp_litter(tmp_path) == []

    def test_replaces_existing_file(self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(b"old")
        atomic_write(target, lambda f: f.write(b"new"))
        assert target.read_bytes() == b"new"

    def test_writer_error_preserves_old_file(self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(b"old")

        def exploding(handle):
            handle.write(b"partial")
            raise RuntimeError("disk on fire")

        with pytest.raises(RuntimeError):
            atomic_write(target, exploding)
        assert target.read_bytes() == b"old"
        assert tmp_litter(tmp_path) == []

    def test_mid_write_crash_preserves_old_file(self, tmp_path):
        """The serialization.mid_write failpoint fires at the worst moment:
        after the payload is written but before the rename."""
        target = tmp_path / "out.bin"
        target.write_bytes(b"old")
        rel.arm("serialization.mid_write", rel.crashing())
        with pytest.raises(rel.SimulatedCrash):
            atomic_write(target, lambda f: f.write(b"new"))
        assert target.read_bytes() == b"old"
        assert tmp_litter(tmp_path) == []


class TestAtomicSaveNpz:
    def test_roundtrip(self, tmp_path):
        target = tmp_path / "arrays.npz"
        arrays = {"a": np.arange(6).reshape(2, 3), "b": np.linspace(0.0, 1.0, 4)}
        atomic_save_npz(target, arrays)
        with np.load(target) as archive:
            assert np.array_equal(archive["a"], arrays["a"])
            assert np.array_equal(archive["b"], arrays["b"])

    def test_exact_destination_name(self, tmp_path):
        """No NumPy ``.npz``-appending surprises: the path is used verbatim."""
        target = tmp_path / "checkpoint"  # no suffix on purpose
        atomic_save_npz(target, {"a": np.zeros(2)})
        assert target.exists()
        assert not (tmp_path / "checkpoint.npz").exists()


def _weights(spec, scale):
    from repro.registry import build_module

    return {name: array * scale for name, array in build_module(spec).state_dict().items()}


def _save(path, spec, weights):
    return save_artifact(path, spec=spec, weights=weights, item_ids=list(range(100, 100 + spec.num_items)))


class TestCheckpointAtomicity:
    """Regression: ``save_artifact`` must never destroy the previous file."""

    @pytest.fixture
    def spec(self):
        from repro.registry import spec_for

        return spec_for("STAMP", num_items=6, num_ops=3, dim=4)

    def test_crash_mid_save_keeps_previous_checkpoint(self, tmp_path, spec):
        path = tmp_path / "model.npz"
        good = _weights(spec, 1.0)
        _save(path, spec, good)

        rel.arm("serialization.mid_write", rel.crashing())
        with pytest.raises(rel.SimulatedCrash):
            _save(path, spec, _weights(spec, 99.0))
        rel.disarm("serialization.mid_write")

        restored = load_artifact(path).weights
        for name, array in good.items():
            assert np.array_equal(restored[name], array), name
        assert tmp_litter(tmp_path) == []

    def test_save_then_load_roundtrip(self, tmp_path, spec):
        path = tmp_path / "model.npz"
        weights = _weights(spec, 2.5)
        _save(path, spec, weights)
        restored = load_artifact(path).build_module().state_dict()
        for name, array in weights.items():
            assert np.array_equal(restored[name], array), name
