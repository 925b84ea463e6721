"""The repository's benchmark: one command, four workloads, end to end and per layer.

    python3 benchmarks/e2e/run.py                       # every workload, untraced then traced
    python3 benchmarks/e2e/run.py --workload serve_browse --seed 3 --seconds 24 --trace 0
    python3 benchmarks/e2e/run.py --smoke               # ~3 s windows, to exercise the harness

With ``--workload`` the workload runs in this process and the last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``). Without it each workload runs in a fresh subprocess,
once untraced and once traced, and the collected numbers are written to
``benchmarks/e2e/out/results.json``. See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]  # the benchmark's modules, then the program


def _one_blas_thread() -> None:
    """One BLAS thread, set before NumPy loads; a value the caller set wins.

    The box has 2 cores and the serving workloads already run 2 senders next
    to the gateway's threads; OpenBLAS's default pool of 2 spinning workers on
    top of that measures the scheduler: identical serve_browse runs read
    1000-1330 ops/s with it and 1520-1600 with one thread. The matrices here
    (dim 32) gain nothing from a pool. The environment stamp records the value.
    """
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")


SMOKE_SECONDS = 3


def _load_workload(name: str):
    """Import lazily: each workload pulls in the layers it drives."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"benchmarks/e2e: the program under test is missing ({ROOT / 'src' / 'repro'})")
    import importlib

    module = {
        "train_embsr": "wl_train",
        "data_ingest": "wl_ingest",
        "serve_browse": "wl_serve",
        "serve_catalog": "wl_serve",
    }[name]
    return importlib.import_module(module)


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    module = _load_workload(name)
    import schema
    from harness import OUT_DIR, environment
    from spans import Tracer

    tracer = Tracer(trace)
    kwargs = {"workload": name} if module.__name__ == "wl_serve" else {}
    result = module.run(seed=seed, seconds=seconds, tracer=tracer, smoke=smoke, **kwargs)

    wanted = schema.PER_LAYER if trace else schema.END_TO_END
    units = schema.units()
    # A layer that is not on this workload's path did no work: it reads 0.
    metrics = {
        m["name"]: {"value": float(result.metrics.get(m["name"], 0.0)), "unit": units[m["name"]]}
        for m in wanted
    }
    unknown = set(result.metrics) - {m["name"] for m in wanted}
    if unknown:
        raise SystemExit(f"{name} reported metrics the schema does not name: {sorted(unknown)}")

    print(f"== {name}  seed={seed}  seconds={seconds}  trace={int(trace)}" + ("  SMOKE" if smoke else ""))
    for metric_name, row in metrics.items():
        print(f"  {metric_name:32s} {row['value']:14.4f} {row['unit']}")
    for alias, value in result.details.get("aliases", {}).items():
        print(f"  ({alias:30s} {value:14.4f})")
    for key, value in result.details.items():
        if isinstance(value, (str, int, float)) or key == "samples":
            print(f"  {key}: {value}")
    for problem in result.checks.problems:
        print(f"  FAILED CHECK: {problem}")

    if trace:
        path = tracer.write(
            OUT_DIR / f"trace_{name}.json",
            meta={"workload": name, "seed": seed, "seconds": seconds, "smoke": smoke, "environment": environment()},
        )
        print(f"  trace: {path.relative_to(ROOT)}")

    line = {
        "correct": result.checks.correct,
        "attempted": max(1, result.checks.attempted),
        "failed": result.checks.failed,
        "metrics": metrics,
    }
    return {"line": line, "details": result.details}


def run_all(seed: int, seconds: float, smoke: bool, only: list[str]) -> int:
    """Each workload in a fresh subprocess, untraced then traced."""
    import schema
    from harness import OUT_DIR, environment

    collected = {}
    ok = True
    for workload in schema.WORKLOADS:
        name = workload["name"]
        if name not in only:
            continue
        entry = {"why": workload["why"], "operations": schema.OPERATIONS[name]}
        for trace in (0, 1):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace), "--details",
            ] + (["--smoke"] if smoke else [])
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stdout.write(done.stdout)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                ok = False
                continue
            parsed = json.loads(done.stdout.strip().splitlines()[-1])
            ok = ok and parsed["correct"]
            entry["traced" if trace else "untraced"] = parsed
        if "traced" in entry and "untraced" in entry:
            plain = entry["untraced"]["metrics"]["throughput_per_s"]["value"]
            entry["trace_overhead_share"] = 1.0 - entry["traced"]["details"]["traced_throughput_per_s"] / plain
            print(f"  trace_overhead_share @ {name}: {entry['trace_overhead_share']:.4f} (1 - traced/untraced throughput)")
        collected[name] = entry

    report = {
        "schema": schema.manifest(),
        "layer_map": schema.PER_LAYER_FULL,
        "aliases": schema.ALIASES,
        "environment": environment(),
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "workloads": collected,
        "claim": None,
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    target = OUT_DIR / ("results_smoke.json" if smoke else "results.json")
    target.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {target.relative_to(ROOT)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run only this workload (in this process when --trace is given)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true", help="shrunken workloads; numbers are not benchmark results")
    parser.add_argument("--details", action="store_true", help="include run details in the JSON line")
    parser.add_argument("--write-manifest", action="store_true", help="write BENCHMARK.json from schema.py and exit")
    args = parser.parse_args(argv)
    _one_blas_thread()
    import schema

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(schema.manifest(), indent=2) + "\n")
        return 0

    seconds = args.seconds if args.seconds is not None else (SMOKE_SECONDS if args.smoke else schema.RUN_SECONDS)
    names = [w["name"] for w in schema.WORKLOADS]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")

    if args.workload is None or (args.trace is None and not args.traced):
        return run_all(args.seed, seconds, args.smoke, [args.workload] if args.workload else names)

    outcome = run_workload(args.workload, args.seed, seconds, bool(args.trace or args.traced), args.smoke)
    line = outcome["line"]
    if args.details:
        line = {**line, "details": outcome["details"], "smoke": args.smoke}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
