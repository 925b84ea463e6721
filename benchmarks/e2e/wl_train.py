"""Workload ``train_embsr``: the paper's model on the path every table bench uses.

The measured window repeats one cycle: ``registry.build(spec,
TrainConfig).fit(dataset)`` (default eager, object-dataset path, per-epoch
validation included), then ``EVAL_BATCHES`` test batches through
``Trainer.predict`` + ``evaluate_scores``. Every end-to-end figure is the
median over the cycles of the cycle's own figure, so both halves sample the
whole window and a slow episode of the host shorter than half of it moves
neither. Forward and backward are almost all of a step and collation about
1 %, so work on ``autograd``/``nn``/``core``/``perf`` shows here and work on
``data`` must not.
"""

from __future__ import annotations

import dataclasses
import math
import time

from harness import Checks, Deadline, RunResult, peak_rss_mb, repeated_setup, sha256_arrays
from quantiles import median, percentile, supported
from spans import by_name, overhead_share, root_coverage

from repro import registry
from repro.autograd import default_dtype
from repro.data import DataLoader, generate_dataset, jd_appliances_config, prepare_dataset
from repro.eval import TrainConfig, evaluate_scores
from repro.graphs import BatchGraph
from repro.nn import Adam, clip_grad_norm, cross_entropy
from repro.perf import OpProfiler

SESSIONS = 3000
MIN_SUPPORT = 3
DIM = 32
FIT_EPOCHS = 2
EVAL_BATCH = 64
EVAL_BATCHES = 200  # scored after every fit: 10 samples beyond the cycle's p95
MIN_H20 = 40.0  # two epochs reach 51-55 on seeds 0-2; chance is 20 / 585 = 3.4
WARM_STEPS = 5


@dataclasses.dataclass
class State:
    dataset: object
    spec: object
    config: TrainConfig


def _train_config(seed: int, epochs: int) -> TrainConfig:
    return TrainConfig(epochs=epochs, patience=epochs, seed=seed)


def _setup(seed: int, sessions: int, epochs: int, tracer) -> State:
    cfg = jd_appliances_config()
    with tracer.span("data.generate"):
        raw = generate_dataset(cfg, sessions, seed)
    with tracer.span("data.prepare"):
        dataset = prepare_dataset(raw, cfg.operations, name="e2e-train", min_support=MIN_SUPPORT, seed=seed)
    spec = registry.spec_for(
        "EMBSR", num_items=dataset.num_items, num_ops=dataset.num_operations, dim=DIM
    )
    # Warm the interpreter, BLAS and allocator on a slice, so the first
    # measured fit is not the slow one (2.9 s against 1.9 s cold to warm).
    slice_ = dataclasses.replace(
        dataset, train=dataset.train[:256], validation=dataset.validation[:64]
    )
    with tracer.span("eval.fit_warm"):
        registry.build(spec, _train_config(seed, 1)).fit(slice_)
    return State(dataset, spec, _train_config(seed, epochs))


def _fit_once(state: State, tracer, trace_id):
    with tracer.span("registry.build", trace=trace_id):
        recommender = registry.build(state.spec, state.config)
    started = time.perf_counter()
    with tracer.span("eval.fit", trace=trace_id):
        recommender.fit(state.dataset)
    return recommender, time.perf_counter() - started


def _check_fit(checks: Checks, recommender, epochs: int) -> None:
    history = recommender.trainer.history
    losses = [h.train_loss for h in history]
    checks.require(len(history) == epochs, f"fit ran {len(history)} epochs, wanted {epochs}")
    checks.require(all(math.isfinite(x) for x in losses), f"non-finite epoch loss {losses}")
    checks.require(
        all(b < a for a, b in zip(losses, losses[1:])), f"epoch loss did not fall: {losses}"
    )


def _eval_batches(state: State, trainer, count: int | None, tracer, tag: str = "eval"):
    """Score ``count`` test batches, cycling over the split (``None``: one pass)."""
    test = state.dataset.test
    chunks = [test[i : i + EVAL_BATCH] for i in range(0, len(test), EVAL_BATCH)]
    count = max(count or 0, len(chunks))  # at least one pass, for H@20
    latencies, predict_s, metrics_s, hits = [], [], [], 0.0
    for index in range(count):
        chunk = chunks[index % len(chunks)]
        started = time.perf_counter()
        with tracer.span("eval.predict", trace=f"{tag}-{index}"):
            scores, targets = trainer.predict(chunk, batch_size=EVAL_BATCH)
        middle = time.perf_counter()
        with tracer.span("eval.metrics", trace=f"{tag}-{index}"):
            result = evaluate_scores(scores, targets)
        ended = time.perf_counter()
        latencies.append(ended - started)
        predict_s.append(middle - started)
        metrics_s.append(ended - middle)
        if index < len(chunks):
            hits += result["H@20"] * len(chunk)
    return latencies, predict_s, metrics_s, hits / len(test)


def run(seed: int, seconds: float, tracer, smoke: bool = False) -> RunResult:
    sessions = 800 if smoke else SESSIONS
    epochs = 1 if smoke else FIT_EPOCHS
    checks = Checks()
    state, setup_s, setup_times = repeated_setup(lambda: _setup(seed, sessions, epochs, tracer))
    if tracer.enabled:
        return _run_traced(state, seed, seconds, tracer, checks, setup_times, smoke)

    train_len = len(state.dataset.train)
    fit_rates, digests, cycle_p50, cycle_p95 = [], [], [], []
    evaluated = 0
    started = time.perf_counter()
    # Another cycle starts while at least half of one fits in the window.
    while not fit_rates or (time.perf_counter() - started) * (1 + 0.5 / len(fit_rates)) < seconds:
        recommender, wall = _fit_once(state, tracer, None)
        fit_rates.append(epochs * train_len / wall)
        digests.append(sha256_arrays(recommender.model.state_dict()))
        _check_fit(checks, recommender, epochs)
        latencies, _, _, h20 = _eval_batches(state, recommender.trainer, 20 if smoke else EVAL_BATCHES, tracer)
        cycle_p50.append(median(latencies))
        cycle_p95.append(percentile(latencies, 95))
        evaluated += len(latencies)
        checks.count(epochs * train_len + len(latencies) * EVAL_BATCH)
    checks.require(len(set(digests)) == 1, f"same seed, different parameters: {sorted(set(digests))}")
    if not smoke:  # same seed, same parameters: every cycle's H@20 is the last one's
        checks.require(h20 >= MIN_H20, f"test H@20 {h20:.1f} < {MIN_H20}")
        checks.require(supported(len(latencies), 95), f"p95 of {len(latencies)} eval batches per cycle is unsupported")

    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "throughput_per_s": median(fit_rates),
        "latency_p50_ms": median(cycle_p50) * 1e3,
        "latency_p95_ms": median(cycle_p95) * 1e3,
    }
    details = {
        "operation": "throughput: training sessions through fit(); latency: one 64-session predict+evaluate_scores",
        "samples": {"cycles": len(fit_rates), "throughput_per_s": len(fit_rates), "latency": evaluated,
                    "setup_s": len(setup_times)},
        "per_cycle": {"throughput_per_s": fit_rates, "latency_p50_ms": [x * 1e3 for x in cycle_p50],
                      "latency_p95_ms": [x * 1e3 for x in cycle_p95]},
        "train_sessions": train_len,
        "items": state.dataset.num_items,
        "fit_epochs": epochs,
        "test_h20": h20,
        "state_dict_sha256": digests[0],
        "aliases": {
            "train_sessions_per_s": metrics["throughput_per_s"],
            "eval_sessions_per_s": EVAL_BATCH / median(cycle_p50),
        },
    }
    return RunResult(checks, metrics, details)


# ----------------------------------------------------------------------
# Traced run: the same inputs, with the step re-composed from public calls
# ----------------------------------------------------------------------
def _recomposed_steps(state: State, seed: int, window_s: float, tracer):
    """Train with the step spelled out: collate, forward, backward, optimizer.

    Returns per-step wall times (warm steps dropped) and the finite-loss flag.
    """
    cfg = state.config
    with default_dtype(cfg.dtype):
        model = registry.build_module(state.spec)
    optimizer = Adam(model.parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    loader = DataLoader(
        state.dataset.train, batch_size=cfg.batch_size, shuffle=True, seed=seed,
        max_ops_per_item=cfg.max_ops_per_item, reuse_buffers=True,
    )
    model.train()
    walls, finite, step = [], True, 0
    deadline = None
    with default_dtype(cfg.dtype):
        while True:
            batches = iter(loader)  # each pass reshuffles, as fit() does per epoch
            for _ in range(len(loader)):
                started = time.perf_counter()
                with tracer.span("train.step", trace=f"step-{step}"):
                    with tracer.span("data.collate"):
                        batch = next(batches)
                    with tracer.span("core.forward"):
                        loss = cross_entropy(model(batch), batch.target_classes)
                        finite = finite and math.isfinite(float(loss.item()))
                    with tracer.span("autograd.backward"):
                        loss.backward()
                    with tracer.span("nn.optim"):
                        clip_grad_norm(model.parameters(), cfg.grad_clip)
                        optimizer.step()
                        optimizer.zero_grad()
                walls.append(time.perf_counter() - started)
                step += 1
                if step == WARM_STEPS:
                    deadline = Deadline(window_s)
                elif deadline is not None and not deadline.open():
                    return model, walls[WARM_STEPS:], finite


def _nodes_per_step(state: State, model) -> list[int]:
    """Backward nodes allocated by one forward, twice on the same batch."""
    cfg = state.config
    loader = DataLoader(
        state.dataset.train, batch_size=cfg.batch_size, max_ops_per_item=cfg.max_ops_per_item
    )
    batch = next(iter(loader))
    counts = []
    model.train()
    with default_dtype(cfg.dtype):
        for _ in range(2):
            with OpProfiler() as profiler:
                cross_entropy(model(batch), batch.target_classes).backward()
            counts.append(profiler.backward_nodes)
    for parameter in model.parameters():
        parameter.zero_grad()
    return counts


def _run_traced(state: State, seed: int, seconds: float, tracer, checks: Checks, setup_times, smoke: bool) -> RunResult:
    cfg = state.config
    epochs = cfg.epochs
    train_len = len(state.dataset.train)
    steps_per_epoch = math.ceil(train_len / cfg.batch_size)

    # The workload itself, with spans around the opaque public calls.
    window_started = time.perf_counter()
    recommender, fit_wall = _fit_once(state, tracer, "fit-0")
    _check_fit(checks, recommender, epochs)
    checks.count(epochs * train_len)
    latencies, predict_s, metrics_s, _ = _eval_batches(state, recommender.trainer, None, tracer)
    checks.count(len(latencies) * EVAL_BATCH)

    # Per-epoch validation, as fit() runs it.
    for index in range(3):
        with tracer.span("eval.validation", trace=f"validation-{index}"):
            recommender.trainer.evaluate(state.dataset.validation, batch_size=cfg.batch_size)

    model, traced_walls, finite = _recomposed_steps(state, seed, seconds / 2, tracer)
    window_ended = time.perf_counter()
    checks.require(finite, "re-composed step produced a non-finite loss")
    checks.count(len(traced_walls) * cfg.batch_size)

    loader = DataLoader(state.dataset.train, batch_size=cfg.batch_size, max_ops_per_item=cfg.max_ops_per_item)
    for index, batch in enumerate(loader):
        with tracer.span("graphs.batch_graph", trace=f"graph-{index}"):
            BatchGraph.from_batch(batch)

    nodes = _nodes_per_step(state, model)
    checks.require(nodes[0] == nodes[1], f"autograd node count does not repeat: {nodes}")

    spans = tracer.spans()
    names = by_name(spans)
    steps = [s for s in spans if s["name"] == "train.step"][WARM_STEPS:]
    step_ids = {s["id"] for s in steps}

    def part(name: str) -> float:
        values = [s["end"] - s["start"] for s in spans if s["name"] == name and s["parent"] in step_ids]
        return median(values)

    collate, forward, backward, optim = (
        part("data.collate"), part("core.forward"), part("autograd.backward"), part("nn.optim")
    )
    step = median([s["end"] - s["start"] for s in steps])
    gap = abs(collate + forward + backward + optim - step) / step
    checks.require(gap <= 0.05, f"step parts do not sum back: gap share {gap:.3f}")
    if not smoke:
        checks.require(collate / step <= 0.05, f"collate is {collate / step:.3f} of a step on train_embsr")

    validation = median(names["eval.validation"]["durations_s"])
    explained = step * steps_per_epoch * epochs + validation * epochs
    metrics = {
        "trace.overhead_share": overhead_share(spans, window_started, window_ended),
        "trace.covered_share": root_coverage(spans, window_started, window_ended),
        "trace.spans": float(len(spans)),
        "registry.build_ms": median(names["registry.build"]["durations_s"]) * 1e3,
        "data.collate_ms": collate * 1e3,
        "data.share_of_run": collate / step,
        "core.forward_ms": forward * 1e3,
        "autograd.backward_ms": backward * 1e3,
        "nn.optim_ms": optim * 1e3,
        "graphs.batch_graph_ms": median(names["graphs.batch_graph"]["durations_s"]) * 1e3,
        "autograd.nodes_per_step": float(nodes[0]),
        "train.step_ms": step * 1e3,
        "train.step_sum_gap_share": gap,
        "eval.predict_ms_per_batch": median(predict_s) * 1e3,
        "eval.metrics_ms": median(metrics_s) * 1e3,
        "eval.validation_ms": validation * 1e3,
        "eval.fit_overhead_share": 1.0 - explained / fit_wall,
    }
    details = {
        "samples": {"steps": len(steps), "eval_batches": len(latencies), "graph_batches": names["graphs.batch_graph"]["count"]},
        "fit_wall_s": fit_wall,
        "traced_throughput_per_s": epochs * train_len / fit_wall,
        "steps_per_epoch": steps_per_epoch,
        "step_shares": {
            "collate": collate / step, "forward": forward / step,
            "backward": backward / step, "optim": optim / step,
        },
        "setup_s_samples": setup_times,
        "peak_rss_mb": peak_rss_mb(),
    }
    return RunResult(checks, metrics, details)
