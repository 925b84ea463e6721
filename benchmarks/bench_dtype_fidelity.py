"""float32 against float64, paired by seed: does the precision move quality?

Models train, save and serve in float32 (``repro.autograd.MODEL_DTYPE``,
the paper's PyTorch precision); the committed EXPERIMENTS.md tables were
float64 runs. This bench trains EMBSR, SGNN-HN and NARM on the Appliances
dataset at the suite's ``SCALE`` under S = 5 model seeds, once per dtype,
and pairs the two runs of each seed. The criterion, per model and metric:
the mean paired difference |Δ| (float32 − float64) falls inside the pooled
seed σ, ``sqrt((σ64² + σ32²) / 2)`` over the S seeds of each dtype.

Results land in ``benchmarks/results/dtype_fidelity.json``::

    PYTHONPATH=src python -m pytest benchmarks/bench_dtype_fidelity.py -q -s --workers 2
    REPRO_BENCH_FAST=1 PYTHONPATH=src python -m pytest benchmarks/bench_dtype_fidelity.py -q -s
"""

from __future__ import annotations

import json

import numpy as np

from conftest import FAST, RESULTS_DIR, SCALE
from repro.eval import ExperimentConfig, ExperimentRunner
from repro.parallel import run_experiment_cells
from repro.utils import render_table

MODELS = ["EMBSR", "SGNN-HN", "NARM"]
DTYPES = ["float64", "float32"]
SEEDS = [0, 1, 2, 3, 4]
METRICS = ["H@20", "M@20"]


def _paired(per_seed: dict) -> dict:
    """Paired deltas, pooled seed σ and the verdict for one model."""
    out = {}
    for metric in METRICS:
        f64 = np.array([row[metric] for row in per_seed["float64"]])
        f32 = np.array([row[metric] for row in per_seed["float32"]])
        delta = f32 - f64
        pooled = float(np.sqrt((f64.std(ddof=1) ** 2 + f32.std(ddof=1) ** 2) / 2))
        out[metric] = {
            "float64_mean": round(float(f64.mean()), 4),
            "float32_mean": round(float(f32.mean()), 4),
            "delta_per_seed": [round(float(d), 4) for d in delta],
            "delta_mean": round(float(delta.mean()), 4),
            "pooled_sigma": round(pooled, 4),
            "inside_sigma": bool(abs(delta.mean()) <= pooled),
        }
    return out


def test_dtype_fidelity(datasets, workers):
    dataset, _cfg = datasets["Appliances"]
    per_model = {m: {dtype: [] for dtype in DTYPES} for m in MODELS}
    for seed in SEEDS:
        for dtype in DTYPES:
            runner = ExperimentRunner(
                dataset,
                ExperimentConfig(
                    dim=SCALE["dim"],
                    epochs=SCALE["epochs"],
                    lr=SCALE["lr"],
                    patience=SCALE["patience"],
                    seed=seed,
                    dtype=dtype,
                ),
            )
            results = run_experiment_cells(runner, MODELS, workers=workers)
            for model in MODELS:
                metrics = results[model].metrics
                per_model[model][dtype].append({m: float(metrics[m]) for m in METRICS})

    summary = {model: _paired(per_model[model]) for model in MODELS}
    rows = [
        [model, metric, s["float64_mean"], s["float32_mean"], s["delta_mean"], s["pooled_sigma"],
         "yes" if s["inside_sigma"] else "NO"]
        for model in MODELS
        for metric, s in summary[model].items()
    ]
    print("\n=== dtype fidelity — Appliances, float32 vs float64 paired by seed ===")
    print(render_table(["model", "metric", "float64", "float32", "mean Δ", "pooled σ", "inside"], rows))

    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "dataset": "Appliances",
        "scale": {**SCALE, "fast": FAST},
        "seeds": SEEDS,
        "criterion": "|mean paired delta (float32 - float64)| <= pooled seed sigma",
        "per_seed": per_model,
        "summary": summary,
    }
    (RESULTS_DIR / "dtype_fidelity.json").write_text(json.dumps(payload, indent=2) + "\n")

    if FAST:
        return  # smoke scale: too few epochs for seed σ to mean anything
    outside = [
        f"{model} {metric}: Δ {s['delta_mean']:+.2f} vs σ {s['pooled_sigma']:.2f}"
        for model in MODELS
        for metric, s in summary[model].items()
        if not s["inside_sigma"]
    ]
    assert not outside, "float32 moves quality beyond the seed noise: " + "; ".join(outside)
