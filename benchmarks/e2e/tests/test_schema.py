import json
import pathlib
import re

import schema

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
ROOT = pathlib.Path(__file__).resolve().parents[3]


def test_benchmark_json_is_the_manifest_written_out():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == schema.manifest()
    assert set(committed) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


def test_names_and_units_are_well_formed_and_used_once():
    names = [w["name"] for w in schema.WORKLOADS] + [m["name"] for m in schema.END_TO_END + schema.PER_LAYER]
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    assert all(UNIT.match(m["unit"]) for m in schema.END_TO_END + schema.PER_LAYER)
    assert all(m["better"] in ("higher", "lower") for m in schema.END_TO_END + schema.PER_LAYER)


def test_contract_limits():
    manifest = schema.manifest()
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert isinstance(manifest["run_seconds"], int) and 1 <= manifest["run_seconds"] <= 60
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"] for w in manifest["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in manifest["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in manifest["per_layer"])
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": max(m["bound"] for m in manifest["end_to_end"])}]
    assert len(json.dumps(manifest)) < 64 * 1024
    assert all(part.startswith("benchmarks/e2e") or "/" not in part for part in manifest["command"])
    # 4 + 22 runs per workload must fit the driver's 3420 s with set-up and checks:
    # beyond the window a run takes 2 s (data_ingest) to 11 s (serve_catalog), 7 s on average.
    runs = 4 + 22 * len(manifest["workloads"])
    assert runs * (manifest["run_seconds"] + 10) <= 3420


def test_layer_map_points_at_real_metrics_and_workloads():
    end_to_end = {m["name"] for m in schema.END_TO_END}
    workloads = {w["name"] for w in schema.WORKLOADS}
    for layer in schema.PER_LAYER_FULL:
        assert set(layer["moves"]) <= end_to_end, layer["name"]
        assert layer["on"] and set(layer["on"]) <= workloads, layer["name"]
    for metric, where in schema.ALIASES.values():
        assert metric in end_to_end and set(where.split("|")) <= workloads
    assert set(schema.OPERATIONS) == workloads
