"""CLI surface of the prepared-dataset pipeline: ``repro prepare`` packs
raw sessions into ``.rpk``, ``repro data inspect`` reads its header, and
every subcommand that loads a dataset or an artifact refuses any other
file in one stderr line."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.data import jd_appliances_config, load_sessions_jsonl, prepare_dataset
from repro.data.packed import MAGIC, load_packed, packed_fingerprint, read_packed_header

from .reliability.test_resume import rewrite_meta


def write_old_prepared_json(dataset, path):
    """The ``dataset.json`` that ``repro prepare`` wrote before ``.rpk``."""
    payload = {
        "name": dataset.name,
        "operations": list(dataset.operations.names),
        "item_ids": np.asarray(dataset.item_ids).tolist(),
        "splits": {
            name: [
                {"items": ex.macro_items, "ops": ex.op_sequences, "target": ex.target, "session_id": ex.session_id}
                for ex in split
            ]
            for name, split in dataset.splits().items()
        },
    }
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """generate -> prepare once for the module, plus the old JSON form."""
    root = tmp_path_factory.mktemp("cli_data")
    sessions = root / "sessions.jsonl"
    packed = root / "dataset.rpk"
    assert main([
        "generate", "--config", "jd-appliances", "--sessions", "250",
        "--seed", "5", "--out", str(sessions),
    ]) == 0
    assert main([
        "prepare", "--config", "jd-appliances", "--input", str(sessions),
        "--out", str(packed), "--min-support", "2",
    ]) == 0
    old_json = write_old_prepared_json(load_packed(packed), root / "dataset.json")
    return root, sessions, old_json, packed


class TestParser:
    def test_pack_args(self):
        """``repro prepare`` is the command that packs sessions into ``.rpk``."""
        args = build_parser().parse_args([
            "prepare", "--config", "jd-appliances", "--input", "in.jsonl", "--out", "out.rpk",
        ])
        assert args.command == "prepare"
        assert args.input == "in.jsonl"
        assert args.out == "out.rpk"
        assert args.min_support is None

    def test_inspect_args(self):
        args = build_parser().parse_args(["data", "inspect", "x.rpk"])
        assert args.data_command == "inspect"

    @pytest.mark.parametrize(
        "argv",
        [
            ["data", "pack", "in.json", "out.rpk"],
            ["train", "--dataset", "d.rpk", "--checkpoint", "m.npz"],
            ["evaluate", "--dataset", "d.rpk", "--checkpoint", "m.npz"],
            ["serve", "--checkpoint", "m.npz"],
        ],
    )
    def test_removed_model_and_dataset_forms_are_rejected(self, argv, capsys):
        """One dataset file and one model file: the other forms are gone."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        capsys.readouterr()


class TestPack:
    def test_pack_produces_loadable_file(self, artifacts):
        _, _, _, packed_path = artifacts
        assert packed_path.read_bytes()[: len(MAGIC)] == MAGIC
        packed = load_packed(packed_path)
        assert len(packed.train) > 0
        assert packed.fingerprint == packed_fingerprint(packed)

    def test_pack_jsonl_route_matches_prepared_route(self, artifacts, tmp_path):
        """``repro prepare`` writes the file ``prepare_dataset`` + ``save``
        writes for the same sessions: same header, arrays and fingerprint."""
        _, sessions, _, packed_path = artifacts
        cfg = jd_appliances_config()
        dataset = prepare_dataset(
            load_sessions_jsonl(sessions), cfg.operations, name="jd-appliances", min_support=2
        )
        saved = dataset.save(tmp_path / "saved.rpk")
        assert read_packed_header(packed_path) == read_packed_header(saved)
        assert read_packed_header(saved)["fingerprint"] == dataset.fingerprint != ""
        cli, api = load_packed(packed_path), load_packed(saved)
        assert np.array_equal(cli.item_ids, api.item_ids)
        for name in ("train", "validation", "test"):
            for column, array in getattr(api, name).columns().items():
                assert np.array_equal(getattr(cli, name).columns()[column], array), (name, column)
        assert packed_path.read_bytes() == saved.read_bytes()

    def test_pack_jsonl_without_config_fails(self, tmp_path, capsys):
        src = tmp_path / "s.jsonl"
        src.write_text("")
        with pytest.raises(SystemExit) as exit_info:
            main(["prepare", "--input", str(src), "--out", str(tmp_path / "o.rpk")])
        assert exit_info.value.code == 2
        assert "--config" in capsys.readouterr().err

    def test_inspect_reports_header(self, artifacts, capsys):
        _, _, _, packed_path = artifacts
        assert main(["data", "inspect", str(packed_path)]) == 0
        out = capsys.readouterr().out
        assert "format v1" in out
        assert "train" in out and "validation" in out and "test" in out
        assert "fingerprint" in out

    def test_inspect_rejects_non_packed(self, artifacts, capsys):
        _, _, old_json, _ = artifacts
        assert main(["data", "inspect", str(old_json)]) == 1
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert str(old_json) in err and "re-run `repro prepare`" in err
        assert main(["data", "inspect", str(old_json.parent / "missing.rpk")]) == 1
        assert "cannot inspect" in capsys.readouterr().err


class TestTrain:
    def test_train_from_rpk_file(self, artifacts, capsys):
        """``--dataset`` takes the ``.rpk`` file ``repro prepare`` wrote."""
        _, _, _, packed_path = artifacts
        assert main([
            "train", "--dataset", str(packed_path), "--model", "SKNN",
        ]) == 0
        assert "SKNN" in capsys.readouterr().out

    def test_evaluate_artifact_against_packed_dataset(self, artifacts, tmp_path, capsys):
        """``evaluate --artifact`` scores the test split of a ``.rpk`` dataset."""
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

    def test_state_message_follows_the_file(self, artifacts, tmp_path, capsys):
        """A non-parametric model writes no training state, so ``train``
        does not claim one; a neural model's state is written and named."""
        _, _, _, packed_path = artifacts
        artifact = tmp_path / "pop.npz"
        assert main([
            "train", "--dataset", str(packed_path), "--model", "S-POP", "--artifact", str(artifact),
        ]) == 1
        out = capsys.readouterr().out
        assert not (tmp_path / "pop.npz.state.npz").exists()
        assert "training state saved" not in out

        artifact = tmp_path / "stamp.npz"
        assert main([
            "train", "--dataset", str(packed_path), "--model", "STAMP", "--dim", "8",
            "--epochs", "1", "--artifact", str(artifact),
        ]) == 0
        state = tmp_path / "stamp.npz.state.npz"
        assert state.exists() and f"training state saved to {state}" in capsys.readouterr().out


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
    """A file that is not a prepared dataset, or not a model artifact, is
    one stderr line and exit 1 on every subcommand that loads one."""

    CONTENTS = {
        "empty file": "",
        "json list": "[]",
        "missing splits": '{"name": "x", "operations": [], "item_ids": []}',
    }

    DATASET_COMMANDS = [
        ["profile", "--steps", "1"],
        ["train", "--epochs", "1"],
        ["train", "--epochs", "1", "--artifact", "none.npz"],
        ["evaluate", "--artifact", "none.npz"],
        ["compare"],
    ]

    def _wrong_file(self, kind, artifacts, tmp_path):
        if kind == "raw jsonl":
            return artifacts[1]
        if kind == "old prepare json":
            return artifacts[2]
        if kind == "directory":
            return tmp_path
        path = tmp_path / "wrong.json"
        path.write_text(self.CONTENTS[kind])
        return path

    @pytest.mark.parametrize(
        "kind",
        ["raw jsonl", "empty file", "json list", "missing splits", "directory", "old prepare json"],
    )
    def test_load_raises_named_error(self, kind, artifacts, tmp_path):
        from repro.data import DatasetFormatError

        path = self._wrong_file(kind, artifacts, tmp_path)
        with pytest.raises(DatasetFormatError) as caught:
            load_packed(path)
        assert str(path) in str(caught.value)
        assert "expected a prepared dataset" in str(caught.value)
        if kind in ("old prepare json", "missing splits"):
            assert "re-run `repro prepare`" in str(caught.value)

    @pytest.mark.parametrize("command", DATASET_COMMANDS)
    def test_cli_prints_one_line_and_exits_1(self, command, artifacts, capsys):
        _, sessions, _, _ = artifacts
        assert main([*command, "--dataset", str(sessions)]) == 1
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert str(sessions) in err and "expected a prepared dataset" in err

    @pytest.mark.parametrize("command", DATASET_COMMANDS)
    def test_missing_dataset_is_one_line(self, command, tmp_path, capsys):
        missing = tmp_path / "missing.rpk"
        assert main([*command, "--dataset", str(missing)]) == 1
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert f"cannot read dataset {missing}" in err and "No such file" in err

    @pytest.mark.parametrize("command", DATASET_COMMANDS)
    def test_old_prepared_json_is_one_line(self, command, artifacts, capsys):
        """A ``dataset.json`` from an older ``repro prepare`` names its path
        and says to re-run ``repro prepare``."""
        _, _, old_json, _ = artifacts
        assert main([*command, "--dataset", str(old_json)]) == 1
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert str(old_json) in err and "re-run `repro prepare`" in err

    @pytest.mark.parametrize(
        "command",
        [
            ["evaluate", "--dataset", "{packed}", "--artifact", "{bare}"],
            ["profile", "--dataset", "{packed}", "--steps", "1", "--artifact", "{bare}"],
            ["serve", "--artifact", "{bare}", "--port", "0"],
            ["index", "build", "{bare}"],
            ["index", "inspect", "{bare}"],
        ],
    )
    def test_bare_parameters_are_not_an_artifact(self, command, artifacts, tmp_path, capsys):
        """An ``.npz`` of bare parameters (no spec, no vocabulary) passed
        where an artifact belongs is refused by name."""
        _, _, _, packed_path = artifacts
        bare = tmp_path / "bare.npz"
        np.savez(bare, **{"fc.weight": np.zeros((3, 4)), "fc.bias": np.zeros(3)})
        argv = [arg.format(packed=packed_path, bare=bare) for arg in command]
        assert main(argv) == 1
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert str(bare) in err and "not a model artifact" in err
