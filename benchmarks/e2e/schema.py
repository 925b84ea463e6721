"""The benchmark's names: workloads, metrics, bounds, and how layers map to them.

``BENCHMARK.json`` at the repository root is ``manifest()`` written out; the
self-tests fail when the two drift. Every workload reports every end-to-end
metric, so the end-to-end names are generic and ``OPERATIONS`` says what one
operation is on each workload; ``ALIASES`` gives the workload-specific names
later issues may cite (``train_sessions_per_s`` is ``throughput_per_s @
train_embsr``).
"""

from __future__ import annotations

COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e"]
RUN_SECONDS = 24

WORKLOADS = [
    {
        "name": "train_embsr",
        "why": "EMBSR fit+evaluate on synthetic JD-Appliances: forward+backward are ~97% of a step, "
        "collate ~1%, so autograd/nn/core work shows here and data work must not",
    },
    {
        "name": "data_ingest",
        "why": "JSONL stream-parse, CSR pack, .rpk save, memmap load and loader epochs with no model: "
        "the data layer does all the work, the mirror image of train_embsr",
    },
    {
        "name": "serve_browse",
        "why": "read-heavy small catalogue over HTTP, 1 event per 8 recommends: ~85% cache hits, so HTTP, "
        "ScoreCache, admission and the service lock dominate and model speed-ups barely move it",
    },
    {
        "name": "serve_catalog",
        "why": "write-heavy 50k-item catalogue, every recommend follows an event so the cache never hits: "
        "batcher, collate, encode, IVF probe and exact re-rank do the work",
    },
]

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "latency_p95_ms", "unit": "ms", "better": "lower", "bound": 0.25},
]

# What one operation is, per workload, for the two generic families above.
# Every workload cuts its window into repeated cycles (fit + eval batches,
# pack + loader epochs, closed-loop + open-loop slice) and reports the median
# over the cycles of each cycle's own figure.
OPERATIONS = {
    "train_embsr": {
        "throughput_per_s": "training sessions per second through NeuralRecommender.fit (2 epochs, validation included)",
        "latency": "Trainer.predict + evaluate_scores on one 64-session test batch",
    },
    "data_ingest": {
        "throughput_per_s": "sessions per second through pack_sessions_jsonl + PackedDataset.save",
        "latency": "one 64-session batch from DataLoader over the memmap train split",
    },
    "serve_browse": {
        "throughput_per_s": "completed recommends per second, closed loop, 2 clients on 2 keep-alive connections",
        "latency": "open loop at a fixed rate, 2 senders: from the instant the request was due to its response",
    },
    "serve_catalog": {
        "throughput_per_s": "completed event+recommend pairs per second, closed loop, 2 clients",
        "latency": "open loop at a fixed rate: from the instant the click was due to the fresh recommendations",
    },
}

ALIASES = {
    "train_sessions_per_s": ("throughput_per_s", "train_embsr"),
    "eval_batch_p50_ms": ("latency_p50_ms", "train_embsr"),
    "ingest_sessions_per_s": ("throughput_per_s", "data_ingest"),
    "collate_batch_p50_ms": ("latency_p50_ms", "data_ingest"),
    "capacity_rps": ("throughput_per_s", "serve_browse|serve_catalog"),
    "recommend_p50_ms": ("latency_p50_ms", "serve_browse|serve_catalog"),
    "recommend_p95_ms": ("latency_p95_ms", "serve_browse|serve_catalog"),
}

_TRAIN, _INGEST, _BROWSE, _CATALOG = (w["name"] for w in WORKLOADS)
_SERVE = [_BROWSE, _CATALOG]


def _layer(name, unit, better, moves, on):
    return {"name": name, "unit": unit, "better": better, "moves": moves, "on": on}


# name, unit, direction, the end-to-end metrics it should move, the workloads
# where it is on the path (it reads 0 elsewhere).
PER_LAYER_FULL = [
    _layer("trace.overhead_share", "ratio", "lower", [], [_TRAIN, _INGEST, *_SERVE]),
    _layer("trace.covered_share", "ratio", "higher", [], [_TRAIN, _INGEST, *_SERVE]),
    _layer("trace.spans", "count", "lower", [], [_TRAIN, _INGEST, *_SERVE]),
    _layer("registry.build_ms", "ms/build", "lower", ["setup_s"], [_TRAIN, *_SERVE]),
    _layer("data.collate_ms", "ms/batch", "lower", ["latency_p50_ms", "throughput_per_s"], [_TRAIN, _INGEST, *_SERVE]),
    _layer("data.share_of_run", "ratio", "higher", [], [_TRAIN, _INGEST]),
    _layer("data.parse_sessions_per_s", "1/s", "higher", ["throughput_per_s"], [_INGEST]),
    _layer("data.pack_us_per_session", "us/session", "lower", ["throughput_per_s"], [_INGEST]),
    _layer("data.save_ms", "ms/file", "lower", ["throughput_per_s"], [_INGEST]),
    _layer("data.load_ms", "ms/file", "lower", ["latency_p50_ms"], [_INGEST]),
    _layer("data.rpk_mb", "MB", "lower", ["peak_rss_mb"], [_INGEST]),
    _layer("data.jsonl_mb", "MB", "lower", [], [_INGEST]),
    _layer("data.examples_per_session", "ratio", "higher", [], [_INGEST]),
    _layer("core.forward_ms", "ms/step", "lower", ["throughput_per_s"], [_TRAIN]),
    _layer("autograd.backward_ms", "ms/step", "lower", ["throughput_per_s"], [_TRAIN]),
    _layer("nn.optim_ms", "ms/step", "lower", ["throughput_per_s"], [_TRAIN]),
    _layer("graphs.batch_graph_ms", "ms/batch", "lower", ["throughput_per_s"], [_TRAIN]),
    _layer("autograd.nodes_per_step", "count", "lower", ["throughput_per_s"], [_TRAIN]),
    _layer("train.step_ms", "ms/step", "lower", ["throughput_per_s"], [_TRAIN]),
    _layer("train.step_sum_gap_share", "ratio", "lower", [], [_TRAIN]),
    _layer("eval.predict_ms_per_batch", "ms/batch", "lower", ["latency_p50_ms", "latency_p95_ms"], [_TRAIN]),
    _layer("eval.metrics_ms", "ms/batch", "lower", ["latency_p50_ms", "latency_p95_ms"], [_TRAIN]),
    _layer("eval.validation_ms", "ms/epoch", "lower", ["throughput_per_s"], [_TRAIN]),
    _layer("eval.fit_overhead_share", "ratio", "lower", ["throughput_per_s"], [_TRAIN]),
    _layer("serving.http_p50_ms", "ms/req", "lower", ["latency_p50_ms"], _SERVE),
    _layer("serving.http_overhead_ms", "ms/req", "lower", ["latency_p50_ms", "throughput_per_s"], _SERVE),
    _layer("serving.cache_hit_rate", "ratio", "higher", ["latency_p50_ms", "latency_p95_ms"], [_BROWSE]),
    _layer("serving.hit_ms", "ms/req", "lower", ["latency_p50_ms"], [_BROWSE]),
    _layer("serving.miss_ms", "ms/req", "lower", ["latency_p95_ms", "latency_p50_ms"], _SERVE),
    _layer("serving.batch_wait_ms", "ms/req", "lower", ["latency_p95_ms", "latency_p50_ms", "throughput_per_s"], _SERVE),
    _layer("serving.batch_size_mean", "count", "higher", ["throughput_per_s"], _SERVE),
    _layer("serving.ingest_ms", "ms/req", "lower", ["throughput_per_s"], _SERVE),
    _layer("serve.record_us", "us/event", "lower", ["throughput_per_s"], _SERVE),
    _layer("serving.shed_count", "count", "lower", [], _SERVE),
    _layer("serving.fallback_count", "count", "lower", [], _SERVE),
    _layer("serving.retry_count", "count", "lower", [], _SERVE),
    _layer("serving.recommend_p99_ms", "ms/req", "lower", [], _SERVE),
    _layer("serving.sched_lag_p99_ms", "ms/req", "lower", [], _SERVE),
    _layer("serve.top_k_ms", "ms/req", "lower", ["latency_p95_ms", "latency_p50_ms"], _SERVE),
    _layer("serve.encode_ms", "ms/req", "lower", ["latency_p95_ms", "latency_p50_ms"], _SERVE),
    _layer("serve.score_ms", "ms/req", "lower", ["latency_p95_ms"], [_BROWSE]),
    _layer("eval.topk_ms", "ms/req", "lower", ["latency_p95_ms"], [_BROWSE]),
    _layer("serve.self_ms", "ms/req", "lower", ["latency_p95_ms", "latency_p50_ms"], _SERVE),
    _layer("retrieval.ann_ms", "ms/query", "lower", ["latency_p50_ms", "throughput_per_s"], [_CATALOG]),
    _layer("retrieval.rerank_ms", "ms/query", "lower", ["latency_p50_ms", "throughput_per_s"], [_CATALOG]),
    _layer("retrieval.exact_ms", "ms/query", "lower", [], [_CATALOG]),
    _layer("retrieval.candidates_per_query", "count", "lower", ["latency_p50_ms"], [_CATALOG]),
    _layer("retrieval.probes_per_query", "count", "lower", ["latency_p50_ms"], [_CATALOG]),
    _layer("retrieval.recall_at_20", "ratio", "higher", [], [_CATALOG]),
    _layer("retrieval.index_build_s", "s/build", "lower", ["setup_s"], [_CATALOG]),
    _layer("retrieval.index_mb", "MB", "lower", ["peak_rss_mb"], [_CATALOG]),
]

PER_LAYER = [{k: m[k] for k in ("name", "unit", "better")} for m in PER_LAYER_FULL]


def manifest() -> dict:
    """Exactly the keys the benchmark contract allows in ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def units() -> dict[str, str]:
    return {m["name"]: m["unit"] for m in END_TO_END + PER_LAYER}
