"""Hot-swap benchmark: two live deployments under faulty load, zero 500s.

Not a paper experiment — this measures the `repro.deploy` control plane.
A gateway serves an incumbent model while closed-loop load-generator
workers (the default persona mix: long-lived browsers + churning
visitors) hammer it over HTTP. While the load runs, the bench performs
two full hot-swaps:

1. stage an identical-weights candidate → **promote** it;
2. stage a corrupted candidate (shuffled embedding rows) → **rollback**.

Throughout, a ``batcher.score`` failpoint injects a scoring fault into
20% of model calls, so the retry/breaker machinery is live during both
swaps. The acceptance shape: every HTTP response is a 200 — no request
observes a swap, a fault, or a demoted generation.

The deployment timeline (every stage/flip/promote/rollback event plus
loadgen and metrics summaries) lands in
``benchmarks/results/deploy_timeline.json``.

Run standalone (``python benchmarks/bench_deploy.py``) or via pytest.
``REPRO_BENCH_FAST=1`` shrinks the run.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
import threading
import time

import numpy as np

from repro.artifacts import load_artifact, save_artifact
from repro.deploy import (
    DeploymentConfig,
    DeploymentManager,
    DeploymentStore,
    EventRingBuffer,
)
from repro.registry import ModelSpec, build_module
from repro.reliability import armed, disarm_all, raising
from repro.serve import RecommenderService
from repro.serving import GatewayConfig, ServingGateway, run_load

FAST = os.environ.get("REPRO_BENCH_FAST") == "1"
RESULTS_DIR = pathlib.Path(__file__).parent / "results"

N_ITEMS = 200
NUM_OPS = 4
DIM = 16
WORKERS = 8
REQUESTS_PER_WORKER = 150 if FAST else 400
FAULT_EVERY = 5  # 20% of model calls raise inside the batcher
CANARY_PCT = 25.0


def build_artifacts(directory: pathlib.Path):
    """v1 incumbent, v2 identical (promote), v3 corrupted (rollback)."""
    spec = ModelSpec(
        name="STAMP", family="stamp", num_items=N_ITEMS, num_ops=NUM_OPS,
        params={"dim": DIM, "seed": 0},
    )
    raw_ids = list(range(1000, 1000 + N_ITEMS))
    weights = dict(build_module(spec).state_dict())
    meta = {"popularity": raw_ids[:20]}

    corrupted = {k: v.copy() for k, v in weights.items()}
    emb = max(corrupted, key=lambda k: corrupted[k].shape[0])
    rng = np.random.default_rng(0)
    corrupted[emb] = corrupted[emb][rng.permutation(corrupted[emb].shape[0])]

    paths = {}
    for name, w in [("v1", weights), ("v2", weights), ("v3", corrupted)]:
        paths[name] = directory / f"{name}.npz"
        save_artifact(paths[name], spec=spec, weights=w, item_ids=raw_ids, metadata=meta)
    return paths, raw_ids


def bench_hot_swaps() -> dict:
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="bench-deploy-"))
    paths, raw_ids = build_artifacts(workdir)

    store = DeploymentStore(workdir / "deploy")
    service = RecommenderService.from_artifact(
        paths["v1"], event_buffer=EventRingBuffer()
    )
    manager = DeploymentManager(
        service,
        store=store,
        config=DeploymentConfig(
            canary_pct=CANARY_PCT, shadow_sample_pct=100.0, auto_decide=False
        ),
        incumbent_path=str(paths["v1"]),
    )
    gateway = ServingGateway(
        service,
        GatewayConfig(deadline_ms=2000.0),
        deployment=manager,
    )

    swap_log: list[dict] = []

    def swaps():
        """Two full hot-swaps, spaced so both land mid-load."""
        for artifact, decide, label in [
            (paths["v2"], manager.promote, "promote-identical"),
            (paths["v3"], manager.rollback, "rollback-corrupted"),
        ]:
            time.sleep(0.4)
            started = time.perf_counter()
            staged = manager.stage(str(artifact), wait=True)
            time.sleep(0.3)  # let the canary take traffic
            decide(reason=f"bench:{label}")
            swap_log.append(
                {
                    "swap": label,
                    "staged": bool(staged),
                    "wall_ms": round((time.perf_counter() - started) * 1000.0, 1),
                }
            )

    with gateway:
        with armed("batcher.score", raising(RuntimeError("injected fault")), every=FAULT_EVERY):
            swapper = threading.Thread(target=swaps, daemon=True)
            swapper.start()
            report = run_load(
                gateway.config.host,
                gateway.port,
                raw_ids,
                num_ops=NUM_OPS,
                workers=WORKERS,
                requests_per_worker=REQUESTS_PER_WORKER,
            )
            swapper.join(timeout=30)
        disarm_all()
        metrics = gateway.registry.snapshot()

    assert manager.generation == 1, "the identical candidate must have promoted"
    assert manager.incumbent.param_hash == param_hash_of(paths["v2"])
    non_200 = {s: n for s, n in report.status_counts.items() if s != 200}

    out = {
        "loadgen": report.summary(),
        "faults_injected_every": FAULT_EVERY,
        "swaps": swap_log,
        "timeline": [
            {k: v for k, v in event.items() if k != "detail"}
            for event in manager.timeline
            if event["event"] != "shadow_eval"
        ],
        "lineage": [
            {"version": r["version"], "status": r["status"]} for r in store.lineage()
        ],
        "metrics": {
            key: metrics[key]
            for key in sorted(metrics)
            if key.startswith(("deploy_", "canary_", "shadow_", "scoring_", "breaker_open"))
        },
        "non_200_responses": non_200,
    }
    print(
        f"hot-swap loadgen: {report.throughput_rps:.1f} rps over {report.requests} requests, "
        f"p99 {report.percentile(0.99):.2f} ms, non-200s: {non_200 or 'none'}"
    )
    for entry in swap_log:
        print(f"  {entry['swap']}: staged={entry['staged']} in {entry['wall_ms']} ms")
    return out


def param_hash_of(path) -> str:
    from repro.deploy import param_hash

    return param_hash(load_artifact(path).weights)


def test_hot_swaps_under_faulty_load():
    RESULTS_DIR.mkdir(exist_ok=True)
    out = bench_hot_swaps()
    (RESULTS_DIR / "deploy_timeline.json").write_text(json.dumps(out, indent=2))

    # Shape criteria: the whole point of the subsystem.
    assert out["loadgen"]["errors"] == 0
    assert out["non_200_responses"] == {}
    assert [s["swap"] for s in out["swaps"]] == ["promote-identical", "rollback-corrupted"]
    events = [e["event"] for e in out["timeline"]]
    assert "promoted" in events and "rolled_back" in events
    statuses = {r["version"]: r["status"] for r in out["lineage"]}
    assert statuses[2] == "promoted" and statuses[3] == "rolled_back"


if __name__ == "__main__":
    test_hot_swaps_under_faulty_load()
    print(f"results -> {RESULTS_DIR / 'deploy_timeline.json'}")
