"""CLI coverage of the training-objective surface (docs/objectives.md)."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def pipeline_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_obj")
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
    return root, dataset


class TestParser:
    def test_objective_args_default_to_registry_deferral(self):
        args = build_parser().parse_args(["train", "--dataset", "d.json"])
        assert args.objective is None
        assert args.cl_weight is None

    def test_objective_args_parse(self):
        args = build_parser().parse_args(
            ["train", "--dataset", "d.json", "--objective", "ssl", "--cl-weight", "0.25"]
        )
        assert args.objective == "ssl"
        assert args.cl_weight == 0.25
        args = build_parser().parse_args(
            ["compare", "--dataset", "d.json", "--models", "EMBSR", "--objective", "op-aux"]
        )
        assert args.objective == "op-aux"

    def test_unknown_objective_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["train", "--dataset", "d.json", "--objective", "nope"]
            )


class TestModelsListing:
    def test_objective_variants_and_sweep_pattern_listed(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "EMBSR-SSL" in out
        assert "MKM-SR-OP" in out
        assert "EMBSR-SSL-cl=" in out  # the sweep-pattern footer


class TestTraining:
    def test_train_embsr_ssl_end_to_end(self, pipeline_files, capsys):
        root, dataset = pipeline_files
        artifact = root / "ssl.npz"
        assert main([
            "train", "--dataset", str(dataset), "--model", "EMBSR-SSL",
            "--dim", "12", "--epochs", "1", "--seed", "5",
            "--artifact", str(artifact),
        ]) == 0
        assert artifact.exists()
        assert "EMBSR-SSL" in capsys.readouterr().out

    def test_explicit_objective_override(self, pipeline_files, capsys):
        _, dataset = pipeline_files
        assert main([
            "train", "--dataset", str(dataset), "--model", "MKM-SR",
            "--dim", "12", "--epochs", "1", "--seed", "5",
            "--objective", "op-aux", "--cl-weight", "0.3",
        ]) == 0
        assert "MKM-SR" in capsys.readouterr().out

    def test_profile_prints_component_losses(self, pipeline_files, capsys):
        _, dataset = pipeline_files
        assert main([
            "profile", "--dataset", str(dataset), "--model", "EMBSR-SSL",
            "--dim", "12", "--steps", "2", "--batch-size", "32",
        ]) == 0
        out = capsys.readouterr().out
        assert "objective ce+infonce" in out
        assert "infonce=" in out
