#!/usr/bin/env python
"""Training-throughput benchmark: steps/sec and tokens/sec per model.

Unlike the paper-figure benches (which measure recommendation *quality*),
this script measures how fast the pure-NumPy substrate can push trainer
steps for EMBSR and two representative baselines (NARM, SR-GNN) on the
synthetic JD-like data. It is the repo's training-perf trajectory: CI runs
it with ``--smoke`` and uploads the JSON, and ``docs/performance.md``
explains how to read the output.

The timed region is the whole-batch step the trainer's ``train_step``
wraps, without the watchdog and the one-shard executor's gradient copies:
zero_grad -> forward -> cross-entropy -> backward -> clip -> Adam step. ``tokens/sec`` counts valid *micro-behavior events*
(``micro_mask.sum()``) so the number is comparable across models. The
committed ``train_perf_baseline.json`` was recorded on a tree that
predates the fused kernels; its one entry per model is that tree's
composed-op path.

With ``--workers N`` the script additionally benchmarks the data-parallel
engine (``repro.parallel``) against the single-process shard executor on
the same grid, records the speedup, and *asserts bit-identical final
parameters* (``max_abs_param_diff`` must be exactly 0 — the determinism
contract of ``docs/performance.md`` § Parallelism). The observed speedup
is only meaningful when the machine grants at least ``N`` cores; the
available core count is recorded alongside.

Every run also writes a stable, flat summary to ``BENCH_train.json`` at
the repository root (schema 4: steps/sec, tokens/sec, workers, dtype, git
rev) so external trackers can diff training throughput across commits
without parsing the full payload.

Usage::

    PYTHONPATH=src python benchmarks/bench_train_perf.py            # full
    PYTHONPATH=src python benchmarks/bench_train_perf.py --smoke    # CI
    PYTHONPATH=src python benchmarks/bench_train_perf.py --workers 4
    PYTHONPATH=src python benchmarks/bench_train_perf.py \
        --out benchmarks/results/train_perf_baseline.json           # seed tree
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
if not any((pathlib.Path(p) / "repro").is_dir() for p in sys.path if p):
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from repro import nn
from repro.data import generate_dataset, jd_appliances_config, prepare_dataset
from repro.data.dataset import DataLoader
from repro.eval import ExperimentConfig, ExperimentRunner

MODELS = ("EMBSR", "NARM", "SR-GNN")
RESULTS_DIR = pathlib.Path(__file__).parent / "results"
SUMMARY_PATH = ROOT / "BENCH_train.json"  # stable flat summary for trackers


def _git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except Exception:  # pragma: no cover - not a git checkout
        return "unknown"


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def build_batches(sessions: int, batch_size: int, seed: int = 0):
    cfg = jd_appliances_config()
    raw = generate_dataset(cfg, sessions, seed=seed)
    dataset = prepare_dataset(raw, cfg.operations, name="bench", min_support=3, seed=seed)
    loader = DataLoader(
        dataset.train, batch_size=batch_size, shuffle=True, seed=seed, max_ops_per_item=6
    )
    return dataset, list(loader)


def build_model(dataset, name: str, dim: int, seed: int) -> nn.Module:
    runner = ExperimentRunner(
        dataset, ExperimentConfig(dim=dim, dropout=0.1, seed=seed)
    )
    recommender = runner.build(name)
    return recommender.build_model()


def train_steps(model, batches, steps: int, lr: float = 0.003, grad_clip: float = 5.0):
    """Run ``steps`` trainer steps; returns (elapsed_seconds, losses)."""
    optimizer = nn.Adam(model.parameters(), lr=lr)
    model.train()
    losses = []
    start = time.perf_counter()
    for i in range(steps):
        batch = batches[i % len(batches)]
        optimizer.zero_grad()
        logits = model(batch)
        loss = nn.cross_entropy(logits, batch.target_classes)
        loss.backward()
        losses.append(float(loss.item()))
        nn.clip_grad_norm(model.parameters(), grad_clip)
        optimizer.step()
    return time.perf_counter() - start, losses


def measure(name: str, dataset, batches, dim: int, steps: int, warmup: int, seed: int):
    model = build_model(dataset, name, dim, seed)
    train_steps(model, batches, warmup)  # warm caches / amortize first-touch
    elapsed, losses = train_steps(model, batches, steps)
    tokens = sum(float(batches[i % len(batches)].micro_mask.sum()) for i in range(steps))
    return {
        "steps_per_sec": steps / elapsed,
        "tokens_per_sec": tokens / elapsed,
        "elapsed_sec": elapsed,
        "steps": steps,
        "final_loss": losses[-1],
    }


def train_steps_sharded(
    model,
    loader,
    batches,
    steps: int,
    *,
    grad_shards: int,
    workers: int,
    seed: int,
    dtype: str,
    num_items: int,
    lr: float = 0.003,
    grad_clip: float = 5.0,
):
    """Run ``steps`` shard-grid trainer steps through the chosen executor.

    ``workers <= 1`` uses the in-process :class:`SerialShardExecutor`;
    above that a :class:`DataParallelEngine` is forked for the duration.
    Returns ``(elapsed_seconds, losses)``. Both executors replay the
    identical ``(epoch=0, batch_index)`` schedule, so final parameters are
    bit-identical across worker counts by construction — the caller diffs
    them to prove it.
    """
    from repro.parallel import DataParallelEngine, SerialShardExecutor

    optimizer = nn.Adam(model.parameters(), lr=lr)
    model.train()
    engine = None
    if workers > 1:
        engine = DataParallelEngine(
            model, loader,
            workers=min(workers, grad_shards), grad_shards=grad_shards,
            seed=seed, dtype=dtype, num_items=num_items,
        )
        executor = engine
    else:
        executor = SerialShardExecutor(model, grad_shards=grad_shards, seed=seed)
    losses = []
    try:
        start = time.perf_counter()
        for i in range(steps):
            index = i % len(batches)
            optimizer.zero_grad()
            loss = executor.compute(0, index, 0, batch=None if engine else batches[index])
            nn.clip_grad_norm(model.parameters(), grad_clip)
            optimizer.step()
            losses.append(loss)
        elapsed = time.perf_counter() - start
    finally:
        if engine is not None:
            engine.shutdown()
    return elapsed, losses


def measure_parallel(
    name: str, dataset, loader, batches, dim: int, steps: int, warmup: int,
    seed: int, dtype: str, grad_shards: int, workers: int,
):
    """Throughput + final parameters of one executor configuration."""
    model = build_model(dataset, name, dim, seed)
    kwargs = dict(
        grad_shards=grad_shards, workers=workers, seed=seed, dtype=dtype,
        num_items=dataset.num_items,
    )
    train_steps_sharded(model, loader, batches, warmup, **kwargs)
    elapsed, losses = train_steps_sharded(model, loader, batches, steps, **kwargs)
    tokens = sum(float(batches[i % len(batches)].micro_mask.sum()) for i in range(steps))
    stats = {
        "workers": workers,
        "grad_shards": grad_shards,
        "steps_per_sec": steps / elapsed,
        "tokens_per_sec": tokens / elapsed,
        "elapsed_sec": elapsed,
        "steps": steps,
        "final_loss": losses[-1],
    }
    return stats, model.state_dict()


def parallel_section(
    models, dataset, loader, batches, dim: int, steps: int, warmup: int,
    seed: int, dtype: str, grad_shards: int, workers: int,
):
    """Benchmark N workers vs 1 on the same shard grid; assert parity."""
    section = {}
    for name in models:
        serial_stats, serial_params = measure_parallel(
            name, dataset, loader, batches, dim, steps, warmup, seed, dtype,
            grad_shards, workers=1,
        )
        fanned_stats, fanned_params = measure_parallel(
            name, dataset, loader, batches, dim, steps, warmup, seed, dtype,
            grad_shards, workers=workers,
        )
        diff = max(
            float(np.max(np.abs(serial_params[key] - fanned_params[key])))
            for key in serial_params
        )
        speedup = fanned_stats["steps_per_sec"] / serial_stats["steps_per_sec"]
        section[name] = {
            "serial": serial_stats,
            "parallel": fanned_stats,
            "speedup": speedup,
            "max_abs_param_diff": diff,
            "bitwise_identical": bool(diff == 0.0),
        }
        print(
            f"{name:8s} [shards={grad_shards}] 1w {serial_stats['steps_per_sec']:8.2f} steps/s | "
            f"{workers}w {fanned_stats['steps_per_sec']:8.2f} steps/s | "
            f"speedup {speedup:.2f}x | |Δparam|={diff:.1e} "
            f"({'ok' if diff == 0.0 else 'MISMATCH'})"
        )
        if diff != 0.0:
            raise SystemExit(
                f"{name}: {workers}-worker parameters differ from single-process "
                f"by {diff:.3e}; the determinism contract is broken"
            )
    return section


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="CI-sized quick run")
    parser.add_argument("--sessions", type=int, default=None)
    parser.add_argument("--steps", type=int, default=None)
    parser.add_argument("--warmup", type=int, default=None)
    parser.add_argument("--dim", type=int, default=None)
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--models", nargs="+", default=list(MODELS))
    parser.add_argument("--dtype", choices=["float32", "float64"], default="float64")
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="also benchmark the N-worker data-parallel engine vs 1 worker "
        "on the same shard grid, asserting bit-identical parameters",
    )
    parser.add_argument(
        "--grad-shards", type=int, default=0, metavar="G",
        help="summation-tree grid for the parallel section (0 = auto: max(workers, 1))",
    )
    parser.add_argument(
        "--out", default=str(RESULTS_DIR / "train_perf.json"), help="output JSON path"
    )
    parser.add_argument(
        "--baseline",
        default=str(RESULTS_DIR / "train_perf_baseline.json"),
        help="committed pre-optimization baseline to diff against",
    )
    args = parser.parse_args(argv)

    sessions = args.sessions or (300 if args.smoke else 1500)
    steps = args.steps or (6 if args.smoke else 25)
    warmup = args.warmup if args.warmup is not None else (1 if args.smoke else 4)
    dim = args.dim or (16 if args.smoke else 32)
    grad_shards = args.grad_shards or max(args.workers, 1)
    cores = _available_cores()

    from repro.autograd import default_dtype

    dataset, batches = build_batches(sessions, args.batch_size, seed=args.seed)
    print(
        f"dataset: {len(dataset.train)} train examples, {dataset.num_items} items; "
        f"{len(batches)} batches of {args.batch_size}; {cores} core(s) available"
    )

    results: dict[str, dict] = {}
    with default_dtype(args.dtype):
        for name in args.models:
            stats = measure(name, dataset, batches, dim, steps, warmup, args.seed)
            results[name] = {"fused": stats}
            print(
                f"{name:8s} {stats['steps_per_sec']:8.2f} steps/s "
                f"{stats['tokens_per_sec']:10.0f} tokens/s"
            )

        parallel = {}
        if args.workers > 1:
            loader = DataLoader(
                dataset.train, batch_size=args.batch_size, shuffle=True,
                seed=args.seed, max_ops_per_item=6,
            )
            parallel = parallel_section(
                args.models, dataset, loader, batches, dim, steps, warmup,
                args.seed, args.dtype, grad_shards, args.workers,
            )
            if cores < args.workers:
                print(
                    f"note: only {cores} core(s) available for {args.workers} workers — "
                    "the measured speedup understates what the engine delivers on real cores"
                )

    payload = {
        "meta": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cores": cores,
            "git_rev": _git_rev(),
            "smoke": args.smoke,
            "sessions": sessions,
            "steps": steps,
            "dim": dim,
            "batch_size": args.batch_size,
            "seed": args.seed,
            "dtype": args.dtype,
            "workers": args.workers,
            "grad_shards": grad_shards,
        },
        "results": results,
        "parallel": parallel,
    }

    baseline_path = pathlib.Path(args.baseline)
    out_path = pathlib.Path(args.out)
    if baseline_path.exists() and baseline_path.resolve() != out_path.resolve():
        baseline = json.loads(baseline_path.read_text())
        speedups = {}
        for name in args.models:
            base = baseline.get("results", {}).get(name, {})
            # The committed baseline holds one mode entry per model, named
            # after the path of the tree that recorded it.
            base_stats = base.get("fused") or next(iter(base.values()), None)
            if base_stats and baseline["meta"]["smoke"] == args.smoke:
                here = results[name]["fused"]
                speedups[name] = here["steps_per_sec"] / base_stats["steps_per_sec"]
                print(f"{name:8s} speedup vs committed baseline: {speedups[name]:.2f}x")
        payload["speedup_vs_baseline"] = speedups

    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_path}")

    # Stable flat summary at the repo root: one object, fixed top-level
    # keys, one entry per model — safe for external trackers to diff.
    summary_models = {}
    for name in args.models:
        source = parallel.get(name, {}).get("parallel") or results[name]["fused"]
        summary_models[name] = {
            "steps_per_sec": round(source["steps_per_sec"], 4),
            "tokens_per_sec": round(source["tokens_per_sec"], 1),
        }
    # Schema 4 drops schema 3's data-pipeline keys (the per-batch collate
    # timings and the live-loader rates of two loader arms): every loader
    # now batches through the packed collate, so there is one arm.
    summary = {
        "schema": 4,
        "generated_by": "benchmarks/bench_train_perf.py",
        "git_rev": payload["meta"]["git_rev"],
        "python": payload["meta"]["python"],
        "numpy": payload["meta"]["numpy"],
        "cores": cores,
        "smoke": args.smoke,
        # Unambiguous run-size marker (mirrors "smoke", which older
        # trackers already read): "smoke" or "full".
        "profile": "smoke" if args.smoke else "full",
        "dtype": args.dtype,
        "batch_size": args.batch_size,
        "dim": dim,
        "steps": steps,
        "workers": args.workers,
        "grad_shards": grad_shards,
        "models": summary_models,
        "parallel_speedup": {
            name: round(entry["speedup"], 3) for name, entry in parallel.items()
        },
        "parallel_bitwise_identical": all(
            entry["bitwise_identical"] for entry in parallel.values()
        ) if parallel else None,
    }
    SUMMARY_PATH.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {SUMMARY_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
