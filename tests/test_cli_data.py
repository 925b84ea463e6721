"""CLI surface of the packed data pipeline: ``repro data pack/inspect``
and training from ``.rpk`` files."""

import pytest

from repro.cli import build_parser, main
from repro.data.packed import is_packed_file, load_packed, packed_fingerprint

from .reliability.test_resume import rewrite_meta


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """generate -> prepare -> pack (both routes) once for the module."""
    root = tmp_path_factory.mktemp("cli_data")
    sessions = root / "sessions.jsonl"
    dataset = root / "dataset.json"
    packed = root / "dataset.rpk"
    assert main([
        "generate", "--config", "jd-appliances", "--sessions", "250",
        "--seed", "5", "--out", str(sessions),
    ]) == 0
    assert main([
        "prepare", "--config", "jd-appliances", "--input", str(sessions),
        "--out", str(dataset), "--min-support", "2",
    ]) == 0
    assert main(["data", "pack", str(dataset), str(packed)]) == 0
    return root, sessions, dataset, packed


class TestParser:
    def test_pack_args(self):
        args = build_parser().parse_args(["data", "pack", "in.json", "out.rpk"])
        assert args.data_command == "pack"
        assert args.input == "in.json"
        assert args.out == "out.rpk"
        assert args.config is None
        assert not args.jsonl

    def test_inspect_args(self):
        args = build_parser().parse_args(["data", "inspect", "x.rpk"])
        assert args.data_command == "inspect"


class TestPack:
    def test_pack_produces_loadable_file(self, artifacts):
        _, _, _, packed_path = artifacts
        assert is_packed_file(packed_path)
        packed = load_packed(packed_path)
        assert len(packed.train) > 0
        assert packed.fingerprint == packed_fingerprint(packed)

    def test_pack_jsonl_route_matches_prepared_route(self, artifacts, capsys):
        root, sessions, _, packed_path = artifacts
        out2 = root / "from_jsonl.rpk"
        assert main([
            "data", "pack", str(sessions), str(out2),
            "--config", "jd-appliances", "--min-support", "2",
        ]) == 0
        capsys.readouterr()
        a = load_packed(packed_path)
        b = load_packed(out2)
        # Same raw sessions, same preprocessing parameters: the streaming
        # JSONL route must produce the identical logical dataset.
        assert a.fingerprint == b.fingerprint != ""

    def test_pack_jsonl_without_config_fails(self, tmp_path, capsys):
        src = tmp_path / "s.jsonl"
        src.write_text("")
        assert main(["data", "pack", str(src), str(tmp_path / "o.rpk")]) == 1
        assert "--config" in capsys.readouterr().err

    def test_inspect_reports_header(self, artifacts, capsys):
        _, _, _, packed_path = artifacts
        assert main(["data", "inspect", str(packed_path)]) == 0
        out = capsys.readouterr().out
        assert "format v1" in out
        assert "train" in out and "validation" in out and "test" in out
        assert "fingerprint" in out

    def test_inspect_rejects_non_packed(self, artifacts, capsys):
        _, _, dataset, _ = artifacts
        assert main(["data", "inspect", str(dataset)]) == 1
        assert "cannot inspect" in capsys.readouterr().err


class TestTrain:
    def test_train_from_rpk_file(self, artifacts, capsys):
        """``--dataset x.rpk`` is sniffed and loaded as packed."""
        _, _, _, packed_path = artifacts
        assert main([
            "train", "--dataset", str(packed_path), "--model", "SKNN",
        ]) == 0
        assert "SKNN" in capsys.readouterr().out


    def test_evaluate_artifact_against_packed_dataset(self, artifacts, tmp_path, capsys):
        """``evaluate --artifact`` sniffs a ``.rpk`` dataset like ``train`` does."""
        _, _, _, packed_path = artifacts
        artifact = tmp_path / "model.npz"
        assert main([
            "train", "--dataset", str(packed_path), "--model", "STAMP", "--dim", "8",
            "--epochs", "1", "--artifact", str(artifact),
        ]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--dataset", str(packed_path), "--artifact", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "loaded STAMP" in out and "M@20" in out


class TestResumeWrongFile:
    """``train --resume`` with a file that is not a current training state
    is one stderr line and exit 1, never a traceback."""

    def _train(self, packed_path, *extra):
        return main([
            "train", "--dataset", str(packed_path), "--model", "STAMP", "--dim", "8",
            "--epochs", "1", *extra,
        ])

    def test_artifact_is_not_a_state(self, artifacts, tmp_path, capsys):
        _, _, _, packed_path = artifacts
        artifact = tmp_path / "model.npz"
        assert self._train(packed_path, "--artifact", str(artifact)) == 0
        capsys.readouterr()
        before = artifact.read_bytes()
        assert self._train(packed_path, "--resume", str(artifact)) == 1
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert str(artifact) in err and "not a training-state archive" in err
        assert artifact.read_bytes() == before  # the refused file is untouched

    def test_older_format_names_both_versions(self, artifacts, tmp_path, capsys):
        from repro.reliability import TRAINING_STATE_FORMAT_VERSION

        _, _, _, packed_path = artifacts
        state = tmp_path / "state.npz"
        assert self._train(packed_path, "--train-state", str(state)) == 0
        capsys.readouterr()
        rewrite_meta(state, lambda meta: meta.pop("format_version"))  # as before the stamp
        assert self._train(packed_path, "--resume", str(state)) == 1
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert f"format v1; this build reads v{TRAINING_STATE_FORMAT_VERSION}" in err


class TestWrongFileKind:
    """A file that is not a prepared dataset is one stderr line and exit 1."""

    CONTENTS = {
        "empty file": "",
        "json list": "[]",
        "missing splits": '{"name": "x", "operations": [], "item_ids": []}',
    }

    def _wrong_file(self, kind, artifacts, tmp_path):
        if kind == "raw jsonl":
            return artifacts[1]
        if kind == "directory":
            return tmp_path
        path = tmp_path / "wrong.json"
        path.write_text(self.CONTENTS[kind])
        return path

    @pytest.mark.parametrize(
        "kind", ["raw jsonl", "empty file", "json list", "missing splits", "directory"]
    )
    def test_load_raises_named_error(self, kind, artifacts, tmp_path):
        from repro.data.io import DatasetFormatError, load_prepared_dataset

        path = self._wrong_file(kind, artifacts, tmp_path)
        with pytest.raises(DatasetFormatError) as caught:
            load_prepared_dataset(path)
        assert str(path) in str(caught.value)
        assert "expected a prepared dataset" in str(caught.value)
        if kind == "missing splits":
            assert "splits" in str(caught.value)

    @pytest.mark.parametrize(
        "command",
        [
            ["profile", "--steps", "1"],
            ["train", "--epochs", "1"],
            ["evaluate", "--checkpoint", "none.npz"],
            ["evaluate", "--artifact", "none.npz"],
            ["compare"],
        ],
    )
    def test_cli_prints_one_line_and_exits_1(self, command, artifacts, capsys):
        _, sessions, _, _ = artifacts
        assert main([*command, "--dataset", str(sessions)]) == 1
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert str(sessions) in err and "expected a prepared dataset" in err
