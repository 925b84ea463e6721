"""OpProfiler behavior: hooks, counters, the no-grad zero-allocation contract."""

import json

import numpy as np
import pytest

from repro import nn, perf
from repro.autograd import Tensor, no_grad
from repro.perf.profiler import active_profiler


def _tiny_model(seed=0):
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Linear(4, 8, rng=rng),
        nn.Linear(8, 3, rng=rng),
    )


def test_profiler_counts_backward_nodes_and_ops():
    model = _tiny_model()
    x = Tensor(np.random.default_rng(1).normal(size=(5, 4)))
    with perf.OpProfiler() as prof:
        loss = model(x).sum()
        loss.backward()
    assert prof.backward_nodes > 0
    # Two fused Linear layers -> two addmm nodes, plus the final sum.
    assert prof.node_counts["addmm"] == 2
    assert prof.node_counts["sum"] == 1
    # Every allocated node's closure ran exactly once during backward.
    for name, count in prof.node_counts.items():
        assert prof.backward_stats[name][0] == count


def test_profiler_records_module_self_and_cumulative_time():
    model = _tiny_model()
    x = Tensor(np.random.default_rng(2).normal(size=(3, 4)))
    with perf.OpProfiler() as prof:
        model(x)
    seq = prof.module_stats["Sequential"]
    lin = prof.module_stats["Linear"]
    assert seq[0] == 1 and lin[0] == 2
    # Sequential's cumulative time includes its children; its self time does not.
    assert seq[1] >= seq[2] >= 0.0
    assert lin[1] >= lin[2] >= 0.0


def test_inference_under_no_grad_allocates_zero_backward_nodes():
    """The satellite contract: no_grad inference builds NO graph at all."""
    rng = np.random.default_rng(3)
    model = nn.Sequential(
        nn.Embedding(10, 6, rng=rng),
        nn.Linear(6, 4, rng=rng),
    )
    model.eval()
    indices = np.array([[1, 2, 3]])
    with perf.OpProfiler() as prof:
        with no_grad():
            out = model(indices)
            (out * out).sum()
    assert prof.backward_nodes == 0, "graph built under no_grad"
    assert out._backward is None and out._parents == ()


def test_profiler_enable_disable_restores_previous():
    assert active_profiler() is None
    outer = perf.OpProfiler()
    inner = perf.OpProfiler()
    with outer:
        assert active_profiler() is outer
        with inner:
            assert active_profiler() is inner
        assert active_profiler() is outer
    assert active_profiler() is None


def test_profiler_reset_and_json_roundtrip(tmp_path):
    model = _tiny_model()
    x = Tensor(np.ones((2, 4)))
    with perf.OpProfiler() as prof:
        model(x).sum().backward()
    table = prof.table()
    assert "addmm" in table and "Linear" in table
    path = prof.dump_json(tmp_path / "profile.json")
    payload = json.loads(path.read_text())
    assert payload["backward_nodes"] == prof.backward_nodes
    assert payload["node_counts"]["addmm"] == 2
    assert payload["modules"]["Linear"]["calls"] == 2
    prof.reset()
    assert prof.backward_nodes == 0 and not prof.node_counts
    assert prof.table() == "(no profiled activity)"


def test_backward_time_attributed_to_fused_ops():
    rng = np.random.default_rng(4)
    gru = nn.GRU(3, 4, rng=rng)
    x = Tensor(rng.normal(size=(2, 5, 3)))
    with perf.OpProfiler() as prof:
        outs, _ = gru(x, mask=np.ones((2, 5)))
        outs.sum().backward()
    # The whole unroll is ONE node.
    assert prof.node_counts["gru_sequence"] == 1
    calls, seconds = prof.backward_stats["gru_sequence"]
    assert calls == 1 and seconds >= 0.0


def test_dump_trace_writes_chrome_tracing_json(tmp_path):
    """dump_trace emits a chrome://tracing file with forward and backward
    tracks, nested complete events, and microsecond timestamps."""
    model = _tiny_model()
    x = Tensor(np.random.default_rng(5).normal(size=(3, 4)))
    with perf.OpProfiler() as prof:
        model(x).sum().backward()
    path = prof.dump_trace(tmp_path / "trace.json")
    payload = json.loads(path.read_text())

    assert payload["displayTimeUnit"] == "ms"
    events = payload["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    assert {m["args"]["name"] for m in meta} == {"forward", "backward"}
    complete = [e for e in events if e["ph"] == "X"]
    assert complete, "no timeline events recorded"
    for event in complete:
        assert event["ts"] >= 0.0 and event["dur"] >= 0.0
        assert event["cat"] in ("forward", "backward")
    names = {e["name"] for e in complete}
    # Module forward calls and backward op closures both appear.
    assert "Linear" in names and "addmm" in names
    # Forward and backward land on their own tracks.
    tid_by_cat = {e["cat"]: e["tid"] for e in complete}
    assert tid_by_cat["forward"] != tid_by_cat["backward"]


def test_dump_trace_respects_reset(tmp_path):
    model = _tiny_model()
    x = Tensor(np.ones((2, 4)))
    with perf.OpProfiler() as prof:
        model(x).sum().backward()
        prof.reset()
        model(x)  # forward only after the reset
    payload = json.loads(prof.dump_trace(tmp_path / "trace.json").read_text())
    complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
    assert complete and all(e["cat"] == "forward" for e in complete)


def test_profile_cli_smoke(tmp_path, capsys):
    """`repro profile` prints the table and writes JSON."""
    pytest.importorskip("repro.cli")
    from repro.cli import main
    from repro.data import (
        generate_dataset,
        jd_appliances_config,
        prepare_dataset,
        save_prepared_dataset,
    )

    cfg = jd_appliances_config()
    sessions = generate_dataset(cfg, 120, seed=0)
    dataset = prepare_dataset(sessions, cfg.operations, name="t", min_support=2, seed=0)
    dataset_path = tmp_path / "d.json"
    save_prepared_dataset(dataset, dataset_path)
    json_path = tmp_path / "prof.json"
    code = main(
        [
            "profile",
            "--dataset", str(dataset_path),
            "--model", "NARM",
            "--dim", "8",
            "--steps", "2",
            "--json", str(json_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "steps/s" in out and "backward ops" in out
    assert json.loads(json_path.read_text())["backward_nodes"] > 0
