"""Serving-stack benchmark: micro-batched vs. per-request scoring.

Not a paper experiment — this measures the `repro.serving` gateway layer.
A small neural model is trained on the synthetic JD-like dataset, live
sessions are seeded into a :class:`RecommenderService`, and closed-loop
worker threads then request top-K rankings two ways:

* **unbatched** — each request is its own ``top_k`` (= one batch-1 model
  call) under a service lock, the seed's serving behaviour;
* **batched** — requests go through :class:`MicroBatcher`, so up to
  ``max_batch_size`` concurrent requests share one model call.

Throughput and latency are reported per concurrency level, an HTTP
load-generator leg exercises the full gateway (cache + admission +
metrics), and everything lands in
``benchmarks/results/serving_throughput.json`` for trajectory tracking.

Run standalone (``python benchmarks/bench_serving.py``) or via pytest
(``pytest benchmarks/bench_serving.py``). ``REPRO_BENCH_FAST=1`` shrinks
the run; the ≥2x batching-speedup shape criterion is asserted at
concurrency ≥ 16 either way.

A second cell benchmarks the **million-item retrieval regime**
(``repro.retrieval``): a clustered synthetic catalogue far beyond any
trainable dataset here, scored exact vs. IVF vs. IVF-PQ, with the
recall@k-vs-latency frontier written to
``benchmarks/results/retrieval.json``. Run it alone with
``python benchmarks/bench_serving.py --retrieval-only``.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import time

import numpy as np

from repro.data import generate_dataset, jd_appliances_config, prepare_dataset
from repro.eval import ExperimentConfig, ExperimentRunner
from repro.eval.topk import top_k_indices
from repro.retrieval import (
    IndexSpec,
    RetrievalPipeline,
    build_index,
    recall_frontier,
    sample_queries,
)
from repro.serve import RecommenderService
from repro.serving import (
    GatewayConfig,
    MicroBatcher,
    PopularityFallback,
    ServingGateway,
    run_load,
)

FAST = os.environ.get("REPRO_BENCH_FAST") == "1"
RESULTS_DIR = pathlib.Path(__file__).parent / "results"

SESSIONS = 400 if FAST else 1200
MODEL = "NARM"  # a realistically-sized scorer: ~0.5 ms per batch-1 call
DIM = 64
CONCURRENCY_LEVELS = (4, 16, 32)
REQUESTS_PER_WORKER = 20 if FAST else 40
LIVE_SESSIONS = 64
TOP_K = 10

# Retrieval cell: catalogue sizes no trainable dataset here reaches.
RETRIEVAL_ITEMS = 200_000 if FAST else 1_000_000
RETRIEVAL_DIM = 32
RETRIEVAL_CELLS = 512 if FAST else 1024
RETRIEVAL_QUERIES = 60 if FAST else 200
RETRIEVAL_K = 20
# FAST's smaller catalogue shrinks the exact matmul the ANN path is racing;
# the full-size acceptance bar is 5x.
RETRIEVAL_MIN_SPEEDUP = 2.0 if FAST else 5.0
RETRIEVAL_MIN_RECALL = 0.95


def build_stack():
    """Synthetic JD-like dataset + a small trained model + live sessions."""
    cfg = jd_appliances_config()
    dataset = prepare_dataset(
        generate_dataset(cfg, SESSIONS, seed=0), cfg.operations, min_support=3, name="jd"
    )
    runner = ExperimentRunner(dataset, ExperimentConfig(dim=DIM, epochs=1, seed=0))
    recommender = runner.run(MODEL).recommender
    service = RecommenderService(recommender, dataset.vocab, num_ops=dataset.num_operations)
    # Seed live sessions with real event streams from the test split.
    for i in range(LIVE_SESSIONS):
        example = dataset.test[i % len(dataset.test)]
        for item, ops in zip(example.macro_items, example.op_sequences):
            for op in ops:
                service.record(f"s{i}", dataset.vocab.decode(item), op)
    return dataset, service


def _drive(workers: int, one_request) -> dict:
    """Closed loop: ``workers`` threads each issue REQUESTS_PER_WORKER calls."""
    latencies: list[float] = []
    lock = threading.Lock()
    errors = [0]

    def work(worker_id: int) -> None:
        local = []
        for i in range(REQUESTS_PER_WORKER):
            sid = f"s{(worker_id * REQUESTS_PER_WORKER + i) % LIVE_SESSIONS}"
            started = time.perf_counter()
            try:
                one_request(sid)
            except Exception:
                with lock:
                    errors[0] += 1
                continue
            local.append((time.perf_counter() - started) * 1000.0)
        with lock:
            latencies.extend(local)

    threads = [threading.Thread(target=work, args=(w,)) for w in range(workers)]
    started = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - started
    ordered = sorted(latencies)

    def pct(q: float) -> float:
        if not ordered:
            return 0.0
        return ordered[min(len(ordered) - 1, round(q * (len(ordered) - 1)))]

    return {
        "requests": len(latencies),
        "errors": errors[0],
        "throughput_rps": round(len(latencies) / elapsed, 1),
        "p50_ms": round(pct(0.50), 3),
        "p95_ms": round(pct(0.95), 3),
        "p99_ms": round(pct(0.99), 3),
        "duration_s": round(elapsed, 3),
    }


def bench_modes(service) -> dict:
    """Batched vs unbatched throughput at each concurrency level."""
    service_lock = threading.Lock()

    def unbatched(sid: str) -> None:
        with service_lock:  # the seed's behaviour: one model call per request
            service.top_k(sid, k=TOP_K)

    out: dict[str, dict] = {}
    for workers in CONCURRENCY_LEVELS:
        batcher = MicroBatcher(
            service, max_batch_size=64, max_queue_depth=1024, lock=service_lock
        ).start()
        try:
            batched = _drive(workers, lambda sid: batcher.submit(sid, k=TOP_K).result(timeout=30))
        finally:
            batcher.stop()
        unbatched_stats = _drive(workers, unbatched)
        speedup = (
            batched["throughput_rps"] / unbatched_stats["throughput_rps"]
            if unbatched_stats["throughput_rps"]
            else float("inf")
        )
        out[str(workers)] = {
            "batched": batched,
            "unbatched": unbatched_stats,
            "speedup": round(speedup, 2),
        }
        print(
            f"concurrency {workers:>3}: unbatched {unbatched_stats['throughput_rps']:>8.1f} rps"
            f" | batched {batched['throughput_rps']:>8.1f} rps | speedup {speedup:.2f}x"
        )
    return out


def bench_gateway(dataset, service) -> dict:
    """One HTTP load-generator run against the full gateway stack."""
    gateway = ServingGateway(
        service,
        GatewayConfig(max_batch_size=64, deadline_ms=1000.0),
        fallback=PopularityFallback(dataset),
    )
    items = [dataset.vocab.decode(d) for d in range(1, min(50, dataset.num_items) + 1)]
    with gateway:
        report = run_load(
            gateway.config.host,
            gateway.port,
            items,
            num_ops=dataset.num_operations,
            workers=16,
            requests_per_worker=REQUESTS_PER_WORKER,
            event_every=4,
        )
        metrics = gateway.registry.snapshot()
    print(
        f"gateway loadgen: {report.throughput_rps:.1f} rps, "
        f"p50 {report.percentile(0.5):.2f} ms, p99 {report.percentile(0.99):.2f} ms, "
        f"cache hit rate {metrics.get('cache_hit_rate', 0.0):.2f}"
    )
    return {"loadgen": report.summary(), "metrics": metrics}


def synthetic_catalogue(n: int, dim: int, seed: int = 0) -> np.ndarray:
    """Clustered item embeddings: a mixture of Gaussians around ~sqrt(n) topics.

    Trained item tables cluster by co-purchase topic; uniform random vectors
    have no neighborhood structure at all and would understate ANN recall.
    """
    rng = np.random.default_rng(seed)
    topics = max(64, int(round(n**0.5)) // 4)
    centers = rng.standard_normal((topics, dim)) * 2.0
    vecs = centers[rng.integers(0, topics, n)] + 0.3 * rng.standard_normal((n, dim))
    return np.ascontiguousarray(vecs)


def _latency_summary(samples_ms: list[float]) -> dict:
    arr = np.array(samples_ms)
    return {
        "p50_ms": round(float(np.percentile(arr, 50)), 4),
        "p95_ms": round(float(np.percentile(arr, 95)), 4),
        "p99_ms": round(float(np.percentile(arr, 99)), 4),
        "qps": round(1000.0 / float(arr.mean()), 1),
    }


def bench_retrieval() -> dict:
    """Exact vs. IVF vs. IVF-PQ at catalogue scale, plus the recall frontier."""
    print(f"retrieval: building {RETRIEVAL_ITEMS} item catalogue (dim {RETRIEVAL_DIM})")
    vectors = synthetic_catalogue(RETRIEVAL_ITEMS, RETRIEVAL_DIM)
    queries = sample_queries(vectors, RETRIEVAL_QUERIES, seed=1)

    # Exact baseline: the full [n] matvec + top-k every request pays today.
    exact_ms = []
    exact_top = []
    for q in queries:
        started = time.perf_counter()
        exact_top.append(top_k_indices(vectors @ q, RETRIEVAL_K))
        exact_ms.append((time.perf_counter() - started) * 1000.0)
    modes = {"exact": _latency_summary(exact_ms)}
    print(f"  exact  p95 {modes['exact']['p95_ms']:.3f} ms, {modes['exact']['qps']:.0f} qps")

    specs = {
        "ivf": IndexSpec(kind="ivf", cells=RETRIEVAL_CELLS, seed=0),
        "ivfpq": IndexSpec(
            kind="ivfpq",
            cells=RETRIEVAL_CELLS,
            seed=0,
            pq_m=RETRIEVAL_DIM // 4,
            rerank=1024,
            train_size=32768 if FAST else 131072,
        ),
    }
    frontier = {}
    operating = {}
    ivf_index = None
    for name, spec in specs.items():
        started = time.perf_counter()
        index = build_index(vectors, spec)
        build_s = time.perf_counter() - started
        if name == "ivf":
            ivf_index = index
        nprobes = tuple(
            p for p in (4, 8, 16, 32, 64, 128) if p <= index.n_cells
        )
        points = recall_frontier(index, queries, nprobes, ks=(10, RETRIEVAL_K))
        frontier[name] = points
        # Operating point: the fewest probes reaching the recall bar.
        chosen = next(
            (p for p in points if p["recall"][str(RETRIEVAL_K)] >= RETRIEVAL_MIN_RECALL),
            points[-1],
        )
        # Measure the chosen point end-to-end through the served ranking
        # (probe + scan or shortlist + re-rank), one query per call.
        pipeline = RetrievalPipeline(None, index, nprobe=chosen["nprobe"])
        ann_ms = []
        for q in queries:
            started = time.perf_counter()
            pipeline.rank_queries(q[None, :], RETRIEVAL_K)
            ann_ms.append((time.perf_counter() - started) * 1000.0)
        summary = _latency_summary(ann_ms)
        summary["nprobe"] = chosen["nprobe"]
        summary["recall_at_20"] = chosen["recall"][str(RETRIEVAL_K)]
        summary["speedup_p95"] = round(modes["exact"]["p95_ms"] / summary["p95_ms"], 2)
        summary["build_s"] = round(build_s, 2)
        summary["index_bytes"] = index.memory_bytes()
        modes[name] = summary
        operating[name] = chosen
        print(
            f"  {name:6s} p95 {summary['p95_ms']:.3f} ms ({summary['speedup_p95']}x), "
            f"recall@20 {summary['recall_at_20']:.4f} at nprobe={chosen['nprobe']}, "
            f"build {build_s:.1f}s"
        )

    results = {
        "items": RETRIEVAL_ITEMS,
        "dim": RETRIEVAL_DIM,
        "cells": RETRIEVAL_CELLS,
        "queries": RETRIEVAL_QUERIES,
        "k": RETRIEVAL_K,
        "fast_mode": FAST,
        "modes": modes,
        "frontier": frontier,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "retrieval.json"
    path.write_text(json.dumps(results, indent=2))
    print(f"wrote {path}")
    return results


def run_benchmark() -> dict:
    dataset, service = build_stack()
    results = {
        "dataset": "jd-appliances-synthetic",
        "model": MODEL,
        "dim": DIM,
        "fast_mode": FAST,
        "requests_per_worker": REQUESTS_PER_WORKER,
        "concurrency": bench_modes(service),
        "gateway": bench_gateway(dataset, service),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "serving_throughput.json"
    path.write_text(json.dumps(results, indent=2))
    print(f"wrote {path}")
    return results


def test_bench_retrieval():
    """Shape criterion: ANN+re-rank keeps recall and cuts tail latency."""
    results = bench_retrieval()
    for name in ("ivf", "ivfpq"):
        mode = results["modes"][name]
        assert mode["recall_at_20"] >= RETRIEVAL_MIN_RECALL, (
            f"{name} recall@20 {mode['recall_at_20']} < {RETRIEVAL_MIN_RECALL}"
        )
        assert mode["speedup_p95"] >= RETRIEVAL_MIN_SPEEDUP, (
            f"{name} p95 speedup {mode['speedup_p95']}x < {RETRIEVAL_MIN_SPEEDUP}x"
        )
    # The frontier is monotone: more probes never hurt recall.
    for points in results["frontier"].values():
        recalls = [p["recall"][str(results["k"])] for p in points]
        assert all(b >= a - 1e-9 for a, b in zip(recalls, recalls[1:])), recalls


def test_bench_serving_throughput():
    """Shape criterion: micro-batching >= 2x unbatched at concurrency >= 16."""
    results = run_benchmark()
    for workers in CONCURRENCY_LEVELS:
        if workers >= 16:
            level = results["concurrency"][str(workers)]
            assert level["speedup"] >= 2.0, (
                f"batching speedup {level['speedup']}x < 2x at concurrency {workers}"
            )
            assert level["batched"]["errors"] == 0
    gateway = results["gateway"]
    assert gateway["loadgen"]["errors"] == 0
    assert gateway["metrics"]["request_latency_ms"]["count"] > 0


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--retrieval-only",
        action="store_true",
        help="run only the million-item retrieval cell (writes retrieval.json)",
    )
    cli_args = parser.parse_args()
    if cli_args.retrieval_only:
        bench_retrieval()
    else:
        run_benchmark()
        bench_retrieval()
