"""Shared fixtures for the quantized-inference suite."""

import pytest

from repro.data import generate_dataset, jd_appliances_config, prepare_dataset


@pytest.fixture(scope="package")
def dataset():
    cfg = jd_appliances_config()
    return prepare_dataset(
        generate_dataset(cfg, 200, seed=11), cfg.operations, min_support=2, name="jd"
    )
