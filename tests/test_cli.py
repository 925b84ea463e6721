"""End-to-end tests for the command-line interface."""

import pathlib

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def pipeline_files(tmp_path_factory):
    """Run generate -> prepare once; later tests reuse the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    sessions = root / "sessions.jsonl"
    dataset = root / "dataset.rpk"
    assert main([
        "generate", "--config", "jd-appliances", "--sessions", "250",
        "--seed", "5", "--out", str(sessions),
    ]) == 0
    assert main([
        "prepare", "--config", "jd-appliances", "--input", str(sessions),
        "--out", str(dataset), "--min-support", "2",
    ]) == 0
    return root, sessions, dataset


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "--config", "trivago", "--out", "x.jsonl"]
        )
        assert args.config == "trivago"
        assert args.sessions == 2000

    def test_serve_args(self):
        args = build_parser().parse_args(
            ["serve", "--model", "STAMP", "--port", "0", "--max-batch-size", "16"]
        )
        assert args.config == "jd-appliances"
        assert args.port == 0
        assert args.max_batch_size == 16
        assert args.deadline_ms == 250.0

    def test_parallel_args(self):
        base = ["train", "--dataset", "d.json", "--model", "EMBSR"]
        args = build_parser().parse_args(base + ["--workers", "4", "--grad-shards", "8"])
        assert args.workers == 4
        assert args.grad_shards == 8
        # Defaults: single process, auto grid.
        args = build_parser().parse_args(base)
        assert args.workers == 1
        assert args.grad_shards == 0
        args = build_parser().parse_args(
            ["compare", "--dataset", "d.json", "--models", "EMBSR", "NARM",
             "--cell-workers", "3"]
        )
        assert args.cell_workers == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--dataset", "d.json", "--model", "EMBSR", "--compile"],
            ["train", "--dataset", "d.json", "--model", "EMBSR", "--bucket-lengths"],
            ["profile", "--dataset", "d.json", "--model", "EMBSR", "--compiled"],
        ],
    )
    def test_removed_compile_flags_are_rejected(self, argv, capsys):
        """A script never silently trains eager under a flag it believes is on."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--packed", "--prefetch"])
    def test_removed_packed_flags_are_rejected(self, flag, capsys):
        """Every loader batches through the packed collate; nothing to opt into."""
        with pytest.raises(SystemExit) as exit_info:
            main(["train", "--dataset", "d.json", "--model", "EMBSR", flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_removed_fusion_flag_is_rejected(self, capsys):
        """The fused kernels are the only implementation: nothing to switch off."""
        with pytest.raises(SystemExit) as exit_info:
            main(["profile", "--dataset", "d.json", "--model", "EMBSR", "--no-fusion"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,name",
        [
            (["profile", "--dataset", "d.json", "--steps", "-2"], "--steps"),
            (["profile", "--dataset", "d.json", "--steps", "0"], "--steps"),
            (["profile", "--dataset", "d.json", "--batch-size", "0"], "--batch-size"),
            (["profile", "--dataset", "d.json", "--dim", "0"], "--dim"),
        ],
    )
    def test_nonpositive_profile_sizes_are_rejected(self, argv, name, capsys):
        """Checked before the dataset is read or a model built."""
        assert main(argv) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert err.startswith(name) and "must be >= 1" in err

    @pytest.mark.parametrize(
        "argv,name",
        [
            (["serve", "--nprobe", "-3", "--port", "0"], "nprobe"),
            (["index", "build", "model.npz", "--nprobe", "-1"], "nprobe"),
            (["index", "build", "model.npz", "--cells", "-4"], "cells"),
        ],
    )
    def test_negative_retrieval_sizes_are_rejected(self, argv, name, capsys):
        """Checked before any artifact is read or model trained."""
        assert main(argv) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert name in err and "must be >= 0" in err

    def test_profile_trace_arg(self):
        args = build_parser().parse_args(
            ["profile", "--dataset", "d.json", "--model", "EMBSR",
             "--trace", "t.json"]
        )
        assert args.trace == "t.json"


class TestPipeline:
    def test_artifacts_created(self, pipeline_files):
        _root, sessions, dataset = pipeline_files
        assert sessions.exists() and sessions.stat().st_size > 0
        assert dataset.exists() and dataset.stat().st_size > 0

    def test_train_with_checkpoint(self, pipeline_files, capsys):
        """The artifact is the saved model; its training state sits next to it."""
        root, _sessions, dataset = pipeline_files
        ckpt = root / "model.npz"
        code = main([
            "train", "--dataset", str(dataset), "--model", "STAMP",
            "--dim", "8", "--epochs", "1", "--artifact", str(ckpt),
        ])
        assert code == 0
        assert ckpt.exists()
        assert (root / "model.npz.state.npz").exists()
        out = capsys.readouterr().out
        assert "test metrics" in out

    def test_evaluate_checkpoint(self, pipeline_files, capsys):
        root, _sessions, dataset = pipeline_files
        ckpt = root / "model2.npz"
        main([
            "train", "--dataset", str(dataset), "--model", "STAMP",
            "--dim", "8", "--epochs", "1", "--artifact", str(ckpt),
        ])
        code = main(["evaluate", "--dataset", str(dataset), "--artifact", str(ckpt)])
        assert code == 0
        assert "H@20" in capsys.readouterr().out

    def test_train_nonneural_checkpoint_fails_cleanly(self, pipeline_files, capsys):
        root, _sessions, dataset = pipeline_files
        code = main([
            "train", "--dataset", str(dataset), "--model", "S-POP",
            "--artifact", str(root / "nope.npz"),
        ])
        assert code == 1
        assert "no parameters to persist" in capsys.readouterr().err
        assert not (root / "nope.npz").exists()

    @pytest.mark.slow
    def test_serve_smoke(self, capsys):
        """Train-and-serve end to end: boots, prints the address, exits."""
        code = main([
            "serve", "--config", "jd-appliances", "--sessions", "150",
            "--model", "STAMP", "--dim", "8", "--epochs", "1",
            "--port", "0", "--duration", "0.3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "serving STAMP on http://127.0.0.1:" in out
        assert "/metrics" in out

    def test_compare(self, pipeline_files, capsys):
        _root, _sessions, dataset = pipeline_files
        code = main([
            "compare", "--dataset", str(dataset), "--models", "S-POP", "STAMP",
            "--dim", "8", "--epochs", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "S-POP" in out and "STAMP" in out

    def test_compare_artifact_dir(self, pipeline_files, capsys):
        root, _sessions, dataset = pipeline_files
        out_dir = root / "bundles"
        code = main([
            "compare", "--dataset", str(dataset), "--models", "S-POP", "STAMP",
            "--dim", "8", "--epochs", "1", "--artifact-dir", str(out_dir),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert (out_dir / "STAMP.npz").exists()
        assert "S-POP: non-parametric" in out


class TestModels:
    def test_models_lists_registry(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        from repro.registry import model_names

        for name in model_names():
            assert name in out, f"`repro models` omits registered model {name!r}"
        assert "EMBSR-beta=" in out  # the pattern footer

    def test_models_golden_names(self, capsys):
        """Golden sync: the listing and MODEL_NAMES cover the same Table III."""
        from repro.eval import MODEL_NAMES

        main(["models"])
        out = capsys.readouterr().out
        for name in MODEL_NAMES:
            assert name in out


class TestArtifactFlow:
    def test_train_evaluate_serve_artifact(self, pipeline_files, capsys):
        root, _sessions, dataset = pipeline_files
        artifact = root / "stamp_artifact.npz"
        code = main([
            "train", "--dataset", str(dataset), "--model", "STAMP",
            "--dim", "8", "--epochs", "1", "--artifact", str(artifact),
        ])
        assert code == 0
        assert artifact.exists()
        assert "artifact saved" in capsys.readouterr().out

        code = main(["evaluate", "--dataset", str(dataset), "--artifact", str(artifact)])
        assert code == 0
        out = capsys.readouterr().out
        assert "loaded STAMP" in out and "H@20" in out

    def test_serve_artifact_missing_file(self, capsys):
        code = main(["serve", "--artifact", "/nonexistent/model.npz", "--port", "0"])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    @pytest.mark.slow
    def test_serve_from_artifact_smoke(self, pipeline_files, capsys):
        """`repro serve --artifact` boots with no dataset work at all."""
        root, _sessions, dataset = pipeline_files
        artifact = root / "serve_artifact.npz"
        main([
            "train", "--dataset", str(dataset), "--model", "STAMP",
            "--dim", "8", "--epochs", "1", "--artifact", str(artifact),
        ])
        capsys.readouterr()
        code = main([
            "serve", "--artifact", str(artifact), "--port", "0", "--duration", "0.3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "serving STAMP on http://127.0.0.1:" in out
