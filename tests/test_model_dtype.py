"""One model dtype: every default that names a dtype reads ``MODEL_DTYPE``.

Models train, save and serve in float32 (the paper's PyTorch precision)
unless a caller opts into float64. The ambient autograd default stays
float64, because ``check_gradients`` and the bare-``Tensor`` tests need it.
"""

import argparse
import inspect
import pathlib
import re

import numpy as np
import pytest

import repro
from repro import cli
from repro.autograd import MODEL_DTYPE, Tensor, get_default_dtype
from repro.baselines import STAMP
from repro.eval import ExperimentConfig, TrainConfig
from repro.registry import ModelSpec, REGISTRY, spec_for
from repro.retrieval import factorize

SRC = pathlib.Path(repro.__file__).parent


def test_model_dtype_is_float32_and_the_ambient_default_is_not():
    assert MODEL_DTYPE == "float32"
    assert get_default_dtype() == np.float64
    assert Tensor([1.0]).data.dtype == np.float64


def test_config_and_spec_defaults_read_the_constant():
    assert TrainConfig().dtype == MODEL_DTYPE
    assert ExperimentConfig().dtype == MODEL_DTYPE
    assert ModelSpec(name="STAMP", family="stamp", num_items=3, num_ops=1).dtype == MODEL_DTYPE
    assert inspect.signature(REGISTRY.spec_for).parameters["dtype"].default == MODEL_DTYPE
    spec = spec_for("STAMP", num_items=3, num_ops=1)
    assert spec.dtype == MODEL_DTYPE
    assert spec.train_config().dtype == MODEL_DTYPE


@pytest.mark.parametrize("command", ["train", "compare", "profile"])
def test_cli_dtype_flags_default_to_the_constant(command):
    args = cli.build_parser().parse_args([command, "--dataset", "d.json"])
    assert args.dtype == MODEL_DTYPE
    explicit = cli.build_parser().parse_args([command, "--dataset", "d.json", "--dtype", "float64"])
    assert explicit.dtype == "float64"


def test_cli_runner_without_a_dtype_flag_uses_the_constant(monkeypatch):
    monkeypatch.setattr(cli, "load_packed", lambda path: None)
    # A caller with no --dtype flag: the runner falls back to the constant.
    runner = cli._runner(argparse.Namespace(dataset="d.json", dim=8, seed=0))
    assert runner.config.dtype == MODEL_DTYPE


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_factorize_defaults_to_the_model_dtype(dtype):
    from repro.autograd import default_dtype

    with default_dtype(dtype):
        model = STAMP(5, dim=4, seed=0)
    assert factorize(model).dtype == np.dtype(dtype).name


def test_no_dtype_literal_is_a_default_in_src():
    """A ``"float32"``/``"float64"`` literal may name a choice or an explicit
    argument, never a default (an annotated parameter default, an argparse
    ``default=`` or a ``getattr`` fallback): those read ``MODEL_DTYPE``."""
    default = re.compile(
        r"""(dtype\s*:\s*str\s*=\s*|default\s*=\s*|"dtype",\s*)["']float(32|64)["']"""
    )
    offenders = [
        f"{path.relative_to(SRC)}:{number}: {line.strip()}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if default.search(line)
    ]
    assert offenders == []
