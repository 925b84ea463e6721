#!/usr/bin/env python
"""Quantized inference benchmark: scoring latency + ranking fidelity.

Measures the two claims behind ``repro serve --compute {float16,int8}``
(``repro.retrieval.quantize``):

1. **Fidelity** — a small EMBSR is trained and its test split is scored
   through every compute mode; recall@20 of each reduced-precision mode
   against the exact float32 ranking must be >= 0.999 (the quantized
   modes end in an exact float32 re-rank, so misses can only come from
   the true top-k falling outside the candidate set).
2. **Latency** — the catalogue-scaling stage is microbenchmarked on a
   synthetic item matrix large enough for memory bandwidth to matter, at
   two granularities: raw scoring (``queries @ items.T`` — native float64
   vs ``QuantizedScorer.scores``) and the serving-relevant end-to-end
   score-plus-top-20 path (float64 matmul + ``top_k_indices`` vs the
   fused ``QuantizedScorer.top_k``, which reuses the exact re-rank
   candidates as the selection pool instead of re-selecting over the full
   catalogue).

Results land in ``benchmarks/results/quantized_infer.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_quantized_infer.py           # full
    PYTHONPATH=src python benchmarks/bench_quantized_infer.py --smoke   # CI
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
if not any((pathlib.Path(p) / "repro").is_dir() for p in sys.path if p):
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from repro.retrieval.quantize import QuantizedScorer
from repro.data import generate_dataset, jd_appliances_config, prepare_dataset
from repro.data.dataset import DataLoader
from repro.eval import ExperimentConfig, ExperimentRunner
from repro.eval.topk import top_k_indices
from repro.retrieval.factorize import factorize

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
QUANT_MODES = ("float16", "int8")


def recall_at_k(approx: np.ndarray, exact: np.ndarray, k: int = 20) -> float:
    """Mean fraction of the exact top-k recovered by the approximate top-k."""
    exact_top = np.argsort(-exact, axis=1, kind="stable")[:, :k]
    approx_top = np.argsort(-approx, axis=1, kind="stable")[:, :k]
    hits = 0
    for row in range(exact.shape[0]):
        hits += len(set(exact_top[row]) & set(approx_top[row]))
    return hits / (exact.shape[0] * k)


def fidelity_section(sessions: int, dim: int, epochs: int, seed: int) -> dict:
    """Train a small EMBSR; score its test split through every mode."""
    cfg = jd_appliances_config()
    raw = generate_dataset(cfg, sessions, seed=seed)
    dataset = prepare_dataset(raw, cfg.operations, name="bench", min_support=3, seed=seed)
    runner = ExperimentRunner(
        dataset, ExperimentConfig(dim=dim, epochs=epochs, seed=seed, patience=epochs)
    )
    recommender = runner.run("EMBSR").recommender
    fact = factorize(recommender.model)
    batches = list(DataLoader(dataset.test, batch_size=128))

    scorers = {mode: QuantizedScorer(fact, compute=mode) for mode in QUANT_MODES}
    table32 = np.asarray(fact.item_matrix(), dtype=np.float32)
    exact32 = np.concatenate(
        [np.asarray(fact.query_matrix(b), dtype=np.float32) @ table32.T for b in batches]
    )
    section = {
        "num_items": dataset.num_items,
        "dim": dim,
        "queries": int(exact32.shape[0]),
        "modes": {},
    }
    exact_top20 = top_k_indices(exact32, 20)
    for mode in QUANT_MODES:
        scored = np.concatenate([scorers[mode].score_batch(b) for b in batches])
        recall = recall_at_k(scored, exact32, k=20)
        fused_top = np.concatenate(
            [
                scorers[mode].top_k(scorers[mode].factorization.query_matrix(b), 20)[0]
                for b in batches
            ]
        )
        top_k_agree = float(np.mean(fused_top == exact_top20))
        section["modes"][mode] = {
            "recall_at_20_vs_float32": round(recall, 6),
            "fused_top_k_agreement": round(top_k_agree, 6),
            "storage_nbytes": scorers[mode].storage_nbytes(),
        }
        print(
            f"fidelity  {mode:8s} recall@20 vs float32 exact: {recall:.4f} "
            f"(fused top_k agreement {top_k_agree:.4f})"
        )
        if recall < 0.999:
            raise SystemExit(
                f"{mode}: recall@20 {recall:.4f} < 0.999 — the exact re-rank "
                "contract is broken"
            )
    return section


class _MatrixFactorization:
    """Minimal factorization seam around a fixed item matrix (latency bench)."""

    def __init__(self, table: np.ndarray) -> None:
        self._table = table

    def item_matrix(self) -> np.ndarray:
        return self._table

    def query_matrix(self, batch):  # pragma: no cover - not used by scores()
        raise NotImplementedError


def latency_section(num_items: int, dim: int, batch: int, repeats: int, seed: int) -> dict:
    """Microbenchmark the catalogue matmul: native float64 vs each mode."""
    rng = np.random.default_rng(seed)
    table = np.ascontiguousarray(rng.standard_normal((num_items, dim)))
    queries64 = np.ascontiguousarray(rng.standard_normal((batch, dim)))
    fact = _MatrixFactorization(table)

    def best_of(fn) -> float:
        fn()  # warm
        return min(
            (lambda s: (fn(), time.perf_counter() - s)[1])(time.perf_counter())
            for _ in range(repeats)
        )

    out64 = np.empty((batch, num_items))
    native = best_of(lambda: np.matmul(queries64, table.T, out=out64))
    native_topk = best_of(
        lambda: top_k_indices(np.matmul(queries64, table.T, out=out64), 20)
    )
    section = {
        "num_items": num_items,
        "dim": dim,
        "batch": batch,
        "repeats": repeats,
        "native_float64_ms": round(native * 1e3, 4),
        "native_float64_top20_ms": round(native_topk * 1e3, 4),
        "modes": {},
    }
    print(
        f"latency   native64 {native * 1e3:8.3f} ms/batch scores, "
        f"{native_topk * 1e3:8.3f} ms/batch top-20 (N={num_items}, d={dim})"
    )
    for mode in QUANT_MODES:
        scorer = QuantizedScorer(fact, compute=mode)
        elapsed = best_of(lambda s=scorer: s.scores(queries64))
        topk = best_of(lambda s=scorer: s.top_k(queries64, 20))
        section["modes"][mode] = {
            "ms_per_batch": round(elapsed * 1e3, 4),
            "speedup_vs_native": round(native / elapsed, 3),
            "top20_ms_per_batch": round(topk * 1e3, 4),
            "top20_speedup_vs_native": round(native_topk / topk, 3),
            "storage_nbytes": scorer.storage_nbytes(),
        }
        print(
            f"latency   {mode:8s} {elapsed * 1e3:8.3f} ms/batch scores "
            f"({native / elapsed:.2f}x), {topk * 1e3:8.3f} ms/batch top-20 "
            f"({native_topk / topk:.2f}x, "
            f"{scorer.storage_nbytes() / 1024:.0f} KiB stored)"
        )
    return section


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="CI-sized quick run")
    parser.add_argument("--sessions", type=int, default=None)
    parser.add_argument("--dim", type=int, default=None)
    parser.add_argument("--epochs", type=int, default=None)
    parser.add_argument("--catalog", type=int, default=None, help="latency-bench items")
    parser.add_argument("--batch", type=int, default=128)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out", default=str(RESULTS_DIR / "quantized_infer.json"), help="output JSON"
    )
    args = parser.parse_args(argv)

    sessions = args.sessions or (300 if args.smoke else 1200)
    dim = args.dim or (16 if args.smoke else 32)
    epochs = args.epochs or (1 if args.smoke else 3)
    catalog = args.catalog or (50_000 if args.smoke else 200_000)
    repeats = args.repeats or (5 if args.smoke else 20)

    payload = {
        "meta": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "smoke": args.smoke,
            "profile": "smoke" if args.smoke else "full",
            "seed": args.seed,
        },
        "fidelity": fidelity_section(sessions, dim, epochs, args.seed),
        "latency": latency_section(catalog, max(dim, 64), args.batch, repeats, args.seed),
    }
    out_path = pathlib.Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
