#!/usr/bin/env python
"""Packed-data scale benchmark: bounded-memory ingest and memmap sharing.

Two claims of ``docs/data.md`` are measured here:

1. **Bounded-memory ingest** — streaming a large synthetic corpus
   (default: one million sessions) from chunked JSONL into a packed
   ``.rpk`` file never materializes the corpus as Python objects. The
   script samples ``VmRSS`` throughout the pack and reports the peak
   against the on-disk corpus size: the pack holds its output plus the
   parsed corpus as compact codes (columnar ingest, ``repro.data.ingest``).

2. **Memmap page sharing** — data-parallel workers training from a
   memmap-loaded packed dataset keep the session arrays in *file-backed*
   pages (``RssFile``, shared across all workers by the page cache)
   instead of each holding anonymous object-heap pages. Per-worker
   ``RssAnon`` is compared between the object-path baseline and the
   memmap path on the same data; the memmap workers must come in lower.

Results land in ``benchmarks/results/data_packed.json`` and a flat
summary in ``BENCH_data.json`` at the repo root.

Usage::

    PYTHONPATH=src python benchmarks/bench_data_packed.py --smoke   # CI
    PYTHONPATH=src python benchmarks/bench_data_packed.py           # 1e6 sessions
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys
import tempfile
import threading
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
if not any((pathlib.Path(p) / "repro").is_dir() for p in sys.path if p):
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from repro import nn
from repro.data import (
    generate_dataset,
    jd_appliances_config,
    pack_sessions_jsonl,
)
from repro.data.dataset import DataLoader
from repro.data.packed import load_packed
from repro.eval import ExperimentConfig, ExperimentRunner

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
SUMMARY_PATH = ROOT / "BENCH_data.json"


def _git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except Exception:  # pragma: no cover - not a git checkout
        return "unknown"


def _proc_status(pid: int | None = None) -> dict[str, int]:
    """VmRSS / RssAnon / RssFile of ``pid`` (default: self), in kB."""
    path = f"/proc/{pid or 'self'}/status"
    out = {}
    try:
        for line in pathlib.Path(path).read_text().splitlines():
            if line.startswith(("VmRSS:", "RssAnon:", "RssFile:")):
                key, value = line.split(":", 1)
                out[key] = int(value.strip().split()[0])
    except (OSError, ValueError):  # pragma: no cover - non-Linux
        pass
    return out


class RssSampler:
    """Samples this process's VmRSS on a thread; records the peak."""

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            self.peak_kb = max(self.peak_kb, _proc_status().get("VmRSS", 0))
            self._stop.wait(self.interval)

    def __enter__(self) -> "RssSampler":
        self.peak_kb = _proc_status().get("VmRSS", 0)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)
        self.peak_kb = max(self.peak_kb, _proc_status().get("VmRSS", 0))


def generate_jsonl(path: pathlib.Path, sessions: int, seed: int, chunk: int = 20_000):
    """Write ``sessions`` synthetic sessions as JSONL in bounded chunks.

    Each chunk is generated, appended, and freed before the next — the
    writer itself never holds more than ``chunk`` sessions, so the
    corpus on disk can exceed what would fit as objects in memory.
    """
    cfg = jd_appliances_config()
    written = 0
    start = time.perf_counter()
    with path.open("w", encoding="utf-8") as sink:
        chunk_index = 0
        while written < sessions:
            n = min(chunk, sessions - written)
            batch = generate_dataset(cfg, n, seed=seed + chunk_index)
            # Re-number so session ids stay unique across chunks.
            for offset, session in enumerate(batch):
                sink.write(
                    json.dumps(
                        {
                            "session_id": written + offset,
                            "events": [[x.item, x.operation] for x in session.interactions],
                        }
                    )
                    + "\n"
                )
            written += n
            chunk_index += 1
    return cfg, time.perf_counter() - start


def worker_rss(dataset_sessions: int, seed: int, packed_path: pathlib.Path):
    """Per-worker RssAnon: object-list baseline vs memmap-loaded packed.

    Both runs train the same NARM model on the same examples with 2
    forked workers; only the storage of the training split differs (the
    baseline's loader is handed the split as a list of ``MacroSession``).
    ``RssAnon`` counts each worker's resident anonymous pages — object
    examples land there, memmap arrays do not (they are ``RssFile``,
    shared through the page cache). The loader packs an object list into
    in-memory CSR arrays before the fork, so the object baseline holds
    both the list and that anonymous copy.
    """
    from repro.parallel import DataParallelEngine

    packed = load_packed(packed_path, mmap=True)
    out = {}
    # Memmap first: materializing the object baseline bloats the parent
    # heap, and forked workers inherit every resident page — running it
    # first would charge the object examples to the memmap workers too.
    for mode in ("memmap", "object"):
        train = packed.train.to_examples() if mode == "object" else packed.train
        runner = ExperimentRunner(packed, ExperimentConfig(dim=16, dropout=0.1, seed=seed))
        model = runner.build("NARM").build_model()
        optimizer = nn.Adam(model.parameters(), lr=0.003)
        model.train()
        loader = DataLoader(
            train, batch_size=64, shuffle=True, seed=seed,
            max_ops_per_item=6, reuse_buffers=True,
        )
        engine = DataParallelEngine(
            model, loader, workers=2, grad_shards=2, seed=seed,
            dtype="float64", num_items=packed.num_items,
        )
        try:
            steps = min(20, max(2, len(train) // 64))
            for i in range(steps):
                optimizer.zero_grad()
                engine.compute(0, i, 0, batch=None)
                nn.clip_grad_norm(model.parameters(), 5.0)
                optimizer.step()
            stats = [_proc_status(proc.pid) for proc in engine._procs]
        finally:
            engine.shutdown()
        out[mode] = {
            "workers": len(stats),
            "rss_anon_kb_per_worker": [s.get("RssAnon", 0) for s in stats],
            "rss_file_kb_per_worker": [s.get("RssFile", 0) for s in stats],
            "vm_rss_kb_per_worker": [s.get("VmRSS", 0) for s in stats],
            "max_rss_anon_kb": max((s.get("RssAnon", 0) for s in stats), default=0),
        }
        print(
            f"workers [{mode:6s}] RssAnon/worker "
            f"{[f'{kb / 1024:.0f}MB' for kb in out[mode]['rss_anon_kb_per_worker']]}"
        )
        del train, runner, model, loader, engine
    out["memmap_below_object"] = bool(
        out["memmap"]["max_rss_anon_kb"] < out["object"]["max_rss_anon_kb"]
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="CI-sized quick run")
    parser.add_argument("--sessions", type=int, default=None,
                        help="corpus size for the ingest phase (default 1e6; smoke 20k)")
    parser.add_argument("--worker-sessions", type=int, default=None,
                        help="corpus size for the per-worker RSS phase (default 50k; smoke 5k)")
    parser.add_argument("--min-support", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--keep", action="store_true", help="keep the scratch JSONL/.rpk files")
    parser.add_argument("--out", default=str(RESULTS_DIR / "data_packed.json"))
    args = parser.parse_args(argv)

    sessions = args.sessions or (20_000 if args.smoke else 1_000_000)
    worker_sessions = args.worker_sessions or (20_000 if args.smoke else 100_000)

    scratch = pathlib.Path(tempfile.mkdtemp(prefix="bench_data_packed_"))
    jsonl = scratch / "corpus.jsonl"
    rpk = scratch / "corpus.rpk"
    worker_rpk = scratch / "worker.rpk"
    try:
        print(f"generating {sessions} sessions -> {jsonl} (chunked)")
        with RssSampler() as gen_rss:
            cfg, gen_sec = generate_jsonl(jsonl, sessions, args.seed)
        jsonl_bytes = jsonl.stat().st_size
        print(
            f"generated in {gen_sec:.0f}s, {jsonl_bytes / 1e6:.0f} MB on disk, "
            f"peak RSS {gen_rss.peak_kb / 1024:.0f} MB"
        )

        print("packing (columnar ingest, one parse)")
        with RssSampler() as pack_rss:
            start = time.perf_counter()
            packed = pack_sessions_jsonl(
                jsonl, cfg.operations, name="bench-1m",
                min_support=args.min_support, seed=args.seed,
            )
            pack_sec = time.perf_counter() - start
            packed.save(rpk)
        rpk_bytes = rpk.stat().st_size
        n_examples = sum(len(s) for s in packed.splits().values())
        print(
            f"packed {n_examples} examples in {pack_sec:.0f}s "
            f"({sessions / pack_sec:.0f} sessions/s), {rpk_bytes / 1e6:.0f} MB packed, "
            f"peak RSS {pack_rss.peak_kb / 1024:.0f} MB "
            f"({pack_rss.peak_kb * 1024 / max(jsonl_bytes, 1):.2f}x the corpus bytes)"
        )
        del packed

        # A smaller corpus for the fork-heavy worker phase keeps the
        # object-path baseline affordable while the RssAnon gap is still
        # unambiguous.
        if worker_sessions == sessions:
            worker_rpk = rpk
        else:
            sub = scratch / "worker.jsonl"
            generate_jsonl(sub, worker_sessions, args.seed + 1)
            pack_sessions_jsonl(
                sub, cfg.operations, name="bench-workers",
                min_support=args.min_support, seed=args.seed,
            ).save(worker_rpk)
        workers = worker_rss(worker_sessions, args.seed, worker_rpk)
        if not workers["memmap_below_object"]:
            print("WARNING: memmap workers did not beat the object baseline")

        payload = {
            "meta": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "machine": platform.machine(),
                "git_rev": _git_rev(),
                "smoke": args.smoke,
                "seed": args.seed,
                "min_support": args.min_support,
            },
            "ingest": {
                "sessions": sessions,
                "jsonl_bytes": jsonl_bytes,
                "packed_bytes": rpk_bytes,
                "examples": n_examples,
                "generate_sec": gen_sec,
                "pack_sec": pack_sec,
                "sessions_per_sec": sessions / pack_sec,
                "peak_rss_kb_generate": gen_rss.peak_kb,
                "peak_rss_kb_pack": pack_rss.peak_kb,
                "pack_rss_over_corpus": pack_rss.peak_kb * 1024 / max(jsonl_bytes, 1),
            },
            "workers": {"sessions": worker_sessions, **workers},
        }
    finally:
        if not args.keep:
            import shutil

            shutil.rmtree(scratch, ignore_errors=True)

    out_path = pathlib.Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_path}")

    summary = {
        "schema": 1,
        "generated_by": "benchmarks/bench_data_packed.py",
        "git_rev": payload["meta"]["git_rev"],
        "smoke": args.smoke,
        "sessions": sessions,
        "pack_sec": round(pack_sec, 1),
        "sessions_per_sec": round(sessions / pack_sec, 1),
        "peak_rss_mb_pack": round(pack_rss.peak_kb / 1024, 1),
        "jsonl_mb": round(jsonl_bytes / 1e6, 1),
        "packed_mb": round(rpk_bytes / 1e6, 1),
        "worker_rss_anon_mb": {
            "object": round(workers["object"]["max_rss_anon_kb"] / 1024, 1),
            "memmap": round(workers["memmap"]["max_rss_anon_kb"] / 1024, 1),
        },
        "memmap_below_object": workers["memmap_below_object"],
    }
    SUMMARY_PATH.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {SUMMARY_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
