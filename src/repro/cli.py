"""Command-line interface.

Usage (after ``python setup.py develop``):

.. code-block:: bash

    repro generate --config jd-appliances --sessions 2000 --out sessions.jsonl
    repro prepare  --config jd-appliances --input sessions.jsonl --out dataset.rpk
    repro data inspect dataset.rpk
    repro models
    repro train    --dataset dataset.rpk --model EMBSR --epochs 8 --artifact embsr.npz
    repro train    --dataset dataset.rpk --model EMBSR --resume embsr.npz.state.npz
    repro evaluate --dataset dataset.rpk --artifact embsr.npz
    repro compare  --dataset dataset.rpk --models EMBSR SGNN-HN MKM-SR --artifact-dir out/
    repro profile  --dataset dataset.rpk --model EMBSR --steps 5
    repro serve    --artifact embsr.npz --port 8080
    repro serve    --artifact embsr.npz --deploy-dir deploy/ --online-interval 30
    repro deploy   --url http://127.0.0.1:8080 --artifact embsr_v2.npz --canary-pct 10
    repro deploy   --url http://127.0.0.1:8080 --promote

(Also runnable as ``python -m repro.cli ...`` without installing.)

``prepare`` writes the one prepared-dataset file, ``.rpk`` (``docs/data.md``),
and ``train --artifact`` the one model file, an artifact (``docs/registry.md``).
``models`` lists every name the registry resolves. The ``compare`` command
reproduces a slice of the paper's Table III for any subset of the twelve
systems. ``profile`` runs a few training steps under the op-level profiler
(``repro.perf.OpProfiler``) and prints where forward and backward time goes
(see ``docs/performance.md``). ``serve`` exposes a model through the
micro-batching HTTP gateway (``repro.serving``): ``POST /events``,
``GET /recommend``, ``GET /healthz``, ``GET /metrics`` — from a
self-describing ``--artifact`` bundle (no dataset needed, see
``docs/registry.md``) or by training on synthetic data first.
"""

from __future__ import annotations

import argparse
import sys

from .artifacts import ArtifactFormatError
from .autograd import MODEL_DTYPE
from .data import (
    DatasetFormatError,
    generate_dataset,
    jd_appliances_config,
    jd_computers_config,
    load_packed,
    pack_sessions_jsonl,
    prepare_dataset,
    save_sessions_jsonl,
    trivago_config,
)
from .eval import ExperimentConfig, ExperimentRunner, improvement_table
from .reliability import TrainingStateError
from .utils import render_table

__all__ = ["main"]

_CONFIGS = {
    "jd-appliances": (jd_appliances_config, 3),
    "jd-computers": (jd_computers_config, 3),
    "trivago": (trivago_config, 2),
}

_METRICS = ("H@5", "H@10", "H@20", "M@5", "M@10", "M@20")


def _add_generate(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("generate", help="generate synthetic micro-behavior sessions")
    p.add_argument("--config", choices=sorted(_CONFIGS), required=True)
    p.add_argument("--sessions", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output JSONL path")


def _add_prepare(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("prepare", help="preprocess raw sessions into train/val/test")
    p.add_argument("--config", choices=sorted(_CONFIGS), required=True)
    p.add_argument("--input", required=True, help="sessions JSONL path")
    p.add_argument("--out", required=True, help="prepared dataset path (.rpk, written atomically)")
    p.add_argument("--min-support", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)


def _add_models(sub: argparse._SubParsersAction) -> None:
    sub.add_parser("models", help="list every model name the registry resolves")


def _add_parallel_args(p: argparse.ArgumentParser) -> None:
    """Data-parallel knobs shared by training-style subcommands."""
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="forked data-parallel training workers (1 = in-process; "
        "results are bit-identical for any N under the same --grad-shards)",
    )
    p.add_argument(
        "--grad-shards",
        type=int,
        default=0,
        metavar="G",
        help="gradient summation-tree grid; 0 = auto (follows --workers), "
        "1 = one shard per batch (docs/performance.md, Parallelism)",
    )


def _add_objective_args(p: argparse.ArgumentParser) -> None:
    """Training-objective knobs shared by train/compare (docs/objectives.md)."""
    p.add_argument(
        "--objective",
        choices=["ce", "infonce", "ssl", "op-aux"],
        default=None,
        help="training objective; default defers to the model's registry entry "
        "(EMBSR-SSL pins ssl, MKM-SR-OP pins op-aux, everything else ce)",
    )
    p.add_argument(
        "--cl-weight",
        type=float,
        default=None,
        metavar="W",
        help="weight of the auxiliary term in composite objectives "
        "(ssl: InfoNCE, op-aux: next-operation loss); default from the registry entry",
    )


def _add_train(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("train", help="train one system and save an artifact")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", default="EMBSR")
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--lr", type=float, default=0.005)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dtype", choices=["float32", "float64"], default=MODEL_DTYPE)
    p.add_argument(
        "--artifact",
        default=None,
        metavar="PATH",
        help="save a self-describing artifact bundle (spec + vocab + weights); "
        "serveable with no dataset via `repro serve --artifact`",
    )
    p.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="N",
        help="also write the full training state every N batches (enables kill -9 safe runs)",
    )
    p.add_argument(
        "--train-state",
        default=None,
        metavar="PATH",
        help="training-state file (default: <artifact>.state.npz, or train_state.npz)",
    )
    p.add_argument(
        "--resume",
        default=None,
        metavar="STATE",
        help="continue an interrupted run from this training-state file",
    )
    _add_parallel_args(p)
    _add_objective_args(p)


def _add_evaluate(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("evaluate", help="evaluate a trained artifact on a dataset's test split")
    p.add_argument("--dataset", required=True)
    p.add_argument("--artifact", required=True, help="self-describing bundle; model/dim come from it")


def _add_compare(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("compare", help="train several systems, print a Table-III slice")
    p.add_argument("--dataset", required=True)
    p.add_argument("--models", nargs="+", default=["SGNN-HN", "MKM-SR", "EMBSR"])
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--lr", type=float, default=0.005)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dtype", choices=["float32", "float64"], default=MODEL_DTYPE)
    p.add_argument(
        "--artifact-dir",
        default=None,
        metavar="DIR",
        help="save an artifact bundle per trained (neural) model into this directory",
    )
    _add_parallel_args(p)
    _add_objective_args(p)
    p.add_argument(
        "--cell-workers",
        type=int,
        default=1,
        metavar="N",
        help="fan independent model cells across N processes "
        "(repro.parallel.run_experiment_cells; merge order is deterministic)",
    )


def _add_profile(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("profile", help="profile a few training steps op by op")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", default="EMBSR")
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--steps", type=int, default=5)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--lr", type=float, default=0.003)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dtype", choices=["float32", "float64"], default=MODEL_DTYPE)
    p.add_argument(
        "--artifact",
        default=None,
        metavar="PATH",
        help="profile the model from this artifact (spec + weights) instead of building fresh",
    )
    p.add_argument("--json", default=None, metavar="PATH", help="also dump the profile as JSON")
    p.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="also dump a chrome://tracing / Perfetto timeline JSON",
    )


def _add_serve(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("serve", help="serve a model over HTTP (artifact or fresh-trained)")
    p.add_argument(
        "--artifact",
        default=None,
        metavar="PATH",
        help="boot the gateway from this artifact bundle — no dataset is generated or loaded",
    )
    p.add_argument("--config", choices=sorted(_CONFIGS), default="jd-appliances")
    p.add_argument("--sessions", type=int, default=1000, help="synthetic sessions to train on")
    p.add_argument("--model", default="STAMP")
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--epochs", type=int, default=2)
    p.add_argument("--lr", type=float, default=0.005)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080)
    p.add_argument("--max-batch-size", type=int, default=32)
    p.add_argument("--deadline-ms", type=float, default=250.0)
    p.add_argument("--duration", type=float, default=0.0, help="seconds to serve (0 = until Ctrl-C)")
    p.add_argument(
        "--retrieval",
        choices=["auto", "exact", "ivf", "ivfpq"],
        default="auto",
        help="scoring path: exact full scoring, ANN candidate generation, or auto by catalogue size",
    )
    p.add_argument("--nprobe", type=int, default=None, help="ANN cells probed per query (default: index spec)")
    p.add_argument(
        "--compute",
        choices=["native", "float16", "int8"],
        default="native",
        help="inference precision of the exact scoring path: native is the model's "
        "dtype; quantized modes finish with an exact float32 re-rank (docs/performance.md)",
    )
    p.add_argument(
        "--deploy-dir",
        default=None,
        metavar="DIR",
        help="enable the hot-swap control plane (/deploy) with version lineage in DIR; "
        "boots from DIR's last promoted generation when one exists (docs/deployment.md)",
    )
    p.add_argument(
        "--canary-pct",
        type=float,
        default=10.0,
        help="percent of sessions routed to a staged candidate (sticky per session id)",
    )
    p.add_argument(
        "--shadow-sample",
        type=float,
        default=25.0,
        help="percent of ingested events shadow-scored by both generations",
    )
    p.add_argument(
        "--online-interval",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="snapshot an incrementally trained candidate every N seconds and "
        "auto-stage it (0 = online training off; requires --deploy-dir)",
    )


def _add_deploy(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "deploy", help="drive the hot-swap control plane of a running gateway"
    )
    p.add_argument("--url", default="http://127.0.0.1:8080", help="gateway base URL")
    action = p.add_mutually_exclusive_group(required=True)
    action.add_argument("--artifact", default=None, metavar="PATH", help="stage this artifact as a canary")
    action.add_argument("--status", action="store_true", help="print the deployment status")
    action.add_argument("--promote", action="store_true", help="promote the live candidate")
    action.add_argument("--rollback", action="store_true", help="demote the live candidate")
    p.add_argument("--canary-pct", type=float, default=None, help="override the gateway's canary split")
    p.add_argument("--shadow-sample", type=float, default=None, help="override the shadow sampling rate")
    p.add_argument("--no-wait", action="store_true", help="return before the swap thread finishes")
    p.add_argument("--reason", default="manual", help="recorded in the deployment timeline")


def _add_index(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("index", help="build or inspect the ANN retrieval index of a model artifact")
    action = p.add_subparsers(dest="index_command", required=True)

    b = action.add_parser("build", help="build an index, report recall vs. exact, optionally save the recipe")
    b.add_argument("artifact", help="model artifact (.npz) whose item embeddings to index")
    b.add_argument("--kind", choices=["ivf", "ivfpq"], default="ivf")
    b.add_argument("--cells", type=int, default=0, help="coarse clusters (0 = ~sqrt(n_items))")
    b.add_argument("--nprobe", type=int, default=0, help="cells probed per query (0 = cells/8)")
    b.add_argument("--pq-m", type=int, default=0, help="PQ subspaces (ivfpq; 0 = dim/4)")
    b.add_argument("--pq-bits", type=int, default=8, help="bits per PQ code (ivfpq)")
    b.add_argument("--rerank", type=int, default=512, help="exact re-rank shortlist size (ivfpq)")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--queries", type=int, default=200, help="sampled query vectors for the recall check")
    b.add_argument("--save", action="store_true", help="store the build recipe in the artifact metadata")
    b.add_argument(
        "--min-recall",
        type=float,
        default=None,
        metavar="R",
        help="exit non-zero unless recall@20 >= R (CI gate)",
    )

    i = action.add_parser("inspect", help="print an artifact's stored index recipe and rebuild stats")
    i.add_argument("artifact")


def _add_data(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("data", help="prepared dataset tools (docs/data.md)")
    action = p.add_subparsers(dest="data_command", required=True)

    ins = action.add_parser("inspect", help="print a .rpk file's header and sizes")
    ins.add_argument("input")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    _add_generate(sub)
    _add_prepare(sub)
    _add_data(sub)
    _add_models(sub)
    _add_train(sub)
    _add_evaluate(sub)
    _add_compare(sub)
    _add_profile(sub)
    _add_serve(sub)
    _add_index(sub)
    _add_deploy(sub)
    return parser


def _cmd_generate(args) -> int:
    config_fn, _ = _CONFIGS[args.config]
    sessions = generate_dataset(config_fn(), args.sessions, seed=args.seed)
    save_sessions_jsonl(sessions, args.out)
    print(f"wrote {len(sessions)} sessions to {args.out}")
    return 0


def _cmd_prepare(args) -> int:
    config_fn, default_support = _CONFIGS[args.config]
    dataset = pack_sessions_jsonl(
        args.input,
        config_fn().operations,
        name=args.config,
        min_support=args.min_support or default_support,
        seed=args.seed,
    )
    path = dataset.save(args.out)
    print(
        f"prepared {dataset.name}: {len(dataset.train)} train / "
        f"{len(dataset.validation)} val / {len(dataset.test)} test, "
        f"{dataset.num_items} items -> {path}"
    )
    return 0


def _runner(args, epochs: int | None = None) -> ExperimentRunner:
    dataset = load_packed(args.dataset)
    config = ExperimentConfig(
        dim=args.dim,
        epochs=epochs if epochs is not None else getattr(args, "epochs", 10),
        lr=getattr(args, "lr", 0.005),
        seed=args.seed,
        dtype=getattr(args, "dtype", MODEL_DTYPE),
        checkpoint_path=getattr(args, "train_state_path", None),
        checkpoint_every=getattr(args, "checkpoint_every", 0),
        resume_from=getattr(args, "resume", None),
        workers=getattr(args, "workers", 1),
        grad_shards=getattr(args, "grad_shards", 0),
        objective=getattr(args, "objective", None),
        cl_weight=getattr(args, "cl_weight", None),
    )
    return ExperimentRunner(dataset, config)


def _cmd_data(args) -> int:
    import pathlib

    from .data.packed import read_packed_header

    try:
        header = read_packed_header(args.input)  # names the file when it is no .rpk
    except OSError as error:
        print(f"cannot inspect {args.input}: {error}", file=sys.stderr)
        return 1
    size = pathlib.Path(args.input).stat().st_size
    print(f"{args.input}: packed dataset format v{header['format_version']}")
    print(f"  name         {header['name']}")
    print(f"  fingerprint  {header['fingerprint'] or '(none)'}")
    print(f"  items        {header['num_items']}")
    print(f"  operations   {', '.join(header['operations'])}")
    for split, counts in header["splits"].items():
        print(
            f"  {split:12s} {counts['sessions']} sessions, "
            f"{counts['macro_steps']} macro steps, {counts['micro_ops']} micro ops"
        )
    print(f"  file bytes   {size}")
    return 0


def _cmd_models(args) -> int:
    from .registry import FIXED_BETA_PREFIX, FIXED_CL_PREFIX, registered_models

    rows = [
        [entry.name, entry.kind, entry.family, ", ".join(entry.param_fields) or "-", entry.description]
        for entry in registered_models()
    ]
    print(render_table(["name", "kind", "family", "params", "description"], rows))
    print(f"\npattern: {FIXED_BETA_PREFIX}<float>  (Fig. 6 constant fusion weight)")
    print(f"pattern: {FIXED_CL_PREFIX}<float>  (contrastive-weight sweep, docs/objectives.md)")
    return 0


def _cmd_train(args) -> int:
    import pathlib

    from .eval.trainer import NeuralRecommender

    # Crash safety: a run that saves an artifact (or asks for states) writes
    # its training state atomically next to the artifact (or to train_state.npz).
    if args.checkpoint_every or args.resume or args.train_state or args.artifact:
        state = args.train_state or args.resume or (
            f"{args.artifact}.state.npz" if args.artifact else "train_state.npz"
        )
        args.train_state_path = str(pathlib.Path(state).resolve())
    runner = _runner(args)
    result = runner.run(args.model, verbose=True)
    pretty = ", ".join(f"{k}={v:.2f}" for k, v in result.metrics.items())
    print(f"{args.model} test metrics: {pretty}")
    if getattr(args, "train_state_path", None):
        print(f"training state saved to {args.train_state_path}")
    if args.artifact:
        recommender = result.recommender
        if not isinstance(recommender, NeuralRecommender):
            print(f"{args.model} has no parameters to persist", file=sys.stderr)
            return 1
        recommender.save(args.artifact, metrics=result.metrics)
        print(f"artifact saved to {pathlib.Path(args.artifact).resolve()}")
    return 0


def _cmd_evaluate(args) -> int:
    from .eval.metrics import evaluate_scores
    from .eval.trainer import NeuralRecommender

    # The bundle carries model name, dims, and weights; the dataset only
    # supplies the test examples to score.
    dataset = load_packed(args.dataset)
    recommender = NeuralRecommender.from_artifact(args.artifact)
    print(f"loaded {recommender.name} from {args.artifact}")
    scores, targets = recommender.trainer.predict(dataset.test)
    metrics = evaluate_scores(scores, targets)
    print(render_table(["metric", "value (%)"], sorted(metrics.items())))
    return 0


def _cmd_compare(args) -> int:
    import pathlib

    from .eval.trainer import NeuralRecommender

    from .parallel import run_experiment_cells

    runner = _runner(args)
    run_experiment_cells(runner, args.models, workers=args.cell_workers, verbose=True)
    measured = {name: runner.results[name].metrics for name in args.models}
    rows = [[name] + [measured[name][m] for m in _METRICS] for name in args.models]
    print(render_table(["model"] + list(_METRICS), rows))
    if "EMBSR" in measured and len(measured) > 1:
        imp = improvement_table(measured, "EMBSR")
        print("\nEMBSR improvement over best competitor (%):")
        print(render_table(["metric", "Imp."], sorted(imp.items())))
    if args.artifact_dir:
        out = pathlib.Path(args.artifact_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name in args.models:
            recommender = runner.results[name].recommender
            if not isinstance(recommender, NeuralRecommender):
                print(f"{name}: non-parametric, no artifact written")
                continue
            path = out / f"{name.replace('=', '_')}.npz"
            recommender.save(path, metrics=measured[name])
            print(f"{name}: artifact saved to {path}")
    return 0


def _cmd_profile(args) -> int:
    import time

    from .autograd import default_dtype
    from .data.dataset import DataLoader
    from .eval.trainer import NeuralRecommender, train_step
    from .nn import Adam
    from .objectives import build_objective
    from .parallel import SerialShardExecutor
    from .perf import OpProfiler

    for name in ("steps", "batch_size", "dim"):
        value = getattr(args, name)
        if value < 1:
            print(f"--{name.replace('_', '-')} must be >= 1, got {value}", file=sys.stderr)
            return 2
    runner = _runner(args, epochs=0)
    if args.artifact:
        recommender = NeuralRecommender.from_artifact(args.artifact)
        args.model = recommender.name
        args.dtype = recommender.spec.dtype
    else:
        recommender = runner.build(args.model)
        if not isinstance(recommender, NeuralRecommender):
            print(f"{args.model} is not a neural model", file=sys.stderr)
            return 1
    # The profiled steps optimize exactly what training would: the spec's
    # portable objective (EMBSR-SSL profiles its contrastive term too).
    spec = recommender.spec
    train_defaults = dict(spec.train or {})
    objective = build_objective(
        train_defaults.get("objective", "ce"),
        cl_weight=float(train_defaults.get("cl_weight", 0.1)),
        num_ops=spec.num_ops,
    )
    with default_dtype(args.dtype):
        model = recommender.model if args.artifact else recommender.build_model()
        optimizer = Adam(model.parameters(), lr=args.lr)
        loader = DataLoader(
            runner.dataset.train,
            batch_size=args.batch_size,
            shuffle=True,
            seed=args.seed,
        )
        batches = list(loader)
        model.train()
        # The trainer's own step on the one-shard grid, unwatched: a
        # profile times the step's work, not divergence recovery.
        executor = SerialShardExecutor(model, grad_shards=1, seed=args.seed, objective=objective)
        profiler = OpProfiler()
        components: dict[str, float] = {}
        start = time.perf_counter()
        with profiler:
            for step in range(args.steps):
                _, components = train_step(
                    executor, optimizer, None, epoch=0, batch_index=step,
                    grad_clip=5.0, batch=batches[step % len(batches)],
                )
        elapsed = time.perf_counter() - start
    print(
        f"{args.model} ({args.dtype}): {args.steps} steps in {elapsed:.3f}s "
        f"({args.steps / elapsed:.2f} steps/s), "
        f"{profiler.backward_nodes} backward nodes"
    )
    if components:
        pretty = ", ".join(f"{k}={v:.4f}" for k, v in components.items())
        print(f"objective {objective.name} (last step): {pretty}")
    print()
    print(profiler.table())
    if args.json:
        path = profiler.dump_json(args.json)
        print(f"\nprofile written to {path}")
    if args.trace:
        path = profiler.dump_trace(args.trace)
        print(f"trace written to {path} (open in chrome://tracing or ui.perfetto.dev)")
    return 0


def _cmd_serve(args) -> int:
    import time

    from .serve import RecommenderService
    from .serving import GatewayConfig, PopularityFallback, ServingGateway

    if args.nprobe is not None and args.nprobe < 0:
        print(f"--nprobe must be >= 0 (0 = the index spec's), got {args.nprobe}", file=sys.stderr)
        return 2
    gateway_config = GatewayConfig(
        host=args.host,
        port=args.port,
        max_batch_size=args.max_batch_size,
        deadline_ms=args.deadline_ms,
    )
    if args.artifact:
        # Self-describing bundle: model, vocabulary, and popularity fallback
        # all come from the one file — no dataset is generated or loaded.
        try:
            if args.deploy_dir:
                gateway = _deployed_gateway(args, gateway_config)
            else:
                gateway = ServingGateway.from_artifact(
                    args.artifact,
                    config=gateway_config,
                    retrieval=args.retrieval,
                    nprobe=args.nprobe,
                )
        except FileNotFoundError:
            print(f"artifact not found: {args.artifact}", file=sys.stderr)
            return 1
        except ValueError as error:
            print(f"cannot serve {args.artifact}: {error}", file=sys.stderr)
            return 1
        model_name = gateway.service.recommender.name
        if not _apply_compute(gateway.service, args.compute):
            return 1
        print(f"retrieval mode: {gateway.service.retrieval_mode}")
        return _serve_loop(args, gateway, model_name)
    if args.deploy_dir:
        print("--deploy-dir requires --artifact (lineage needs an on-disk generation)", file=sys.stderr)
        return 1

    config_fn, min_support = _CONFIGS[args.config]
    cfg = config_fn()
    sessions = generate_dataset(cfg, args.sessions, seed=args.seed)
    dataset = prepare_dataset(
        sessions, cfg.operations, name=args.config, min_support=min_support, seed=args.seed
    )
    runner = ExperimentRunner(
        dataset, ExperimentConfig(dim=args.dim, epochs=args.epochs, lr=args.lr, seed=args.seed)
    )
    recommender = runner.run(args.model, verbose=True).recommender
    service = RecommenderService(recommender, dataset.vocab, num_ops=dataset.num_operations)
    try:
        service.enable_retrieval(args.retrieval, nprobe=args.nprobe)
    except ValueError as error:
        print(f"retrieval unavailable for {args.model}: {error}", file=sys.stderr)
        return 1
    if not _apply_compute(service, args.compute):
        return 1
    gateway = ServingGateway(service, gateway_config, fallback=PopularityFallback(dataset))
    print(f"retrieval mode: {service.retrieval_mode}")
    return _serve_loop(args, gateway, args.model)


def _apply_compute(service, mode: str) -> bool:
    """Select the serving precision; False (with stderr detail) on failure."""
    if mode == "native":
        return True
    try:
        service.enable_compute(mode)
    except ValueError as error:
        print(f"--compute {mode} unavailable: {error}", file=sys.stderr)
        return False
    info = service._quantized.describe()
    print(
        f"compute mode: {mode} (item matrix {info['storage_nbytes'] / 1024:.0f} KiB, "
        f"exact re-rank top {info['rerank_top']})"
    )
    return True


def _deployed_gateway(args, gateway_config):
    """Build the serving stack with the hot-swap control plane attached.

    When the deploy dir already records a promoted generation, that
    generation boots (crash recovery); otherwise ``--artifact`` becomes
    generation 1. With ``--online-interval``, ingested events feed an
    :class:`~repro.deploy.OnlineTrainer` whose snapshots auto-stage as
    canaries.
    """
    from .artifacts import load_artifact
    from .deploy import (
        DeploymentConfig,
        DeploymentError,
        DeploymentManager,
        DeploymentStore,
        EventRingBuffer,
        OnlineTrainer,
    )
    from .serve import RecommenderService
    from .serving import PopularityFallback, ServingGateway

    store = DeploymentStore(args.deploy_dir)
    deploy_config = DeploymentConfig(
        canary_pct=args.canary_pct, shadow_sample_pct=args.shadow_sample, seed=args.seed
    )
    promoted = store.latest_promoted()
    if promoted is not None:
        print(f"recovering generation v{promoted['version']} from {args.deploy_dir}")
        manager = DeploymentManager.recover(
            store, config=deploy_config, retrieval=args.retrieval, nprobe=args.nprobe
        )
        service = manager.service
        bundle = load_artifact(promoted["path"])
    else:
        bundle = load_artifact(args.artifact)
        service = RecommenderService.from_artifact(
            bundle, retrieval=args.retrieval, nprobe=args.nprobe
        )
        manager = DeploymentManager(
            service, store=store, config=deploy_config, incumbent_path=args.artifact
        )
    ranked = bundle.metadata.get("popularity") or []
    fallback = PopularityFallback.from_ranked(ranked) if ranked else None

    if args.online_interval > 0:
        service.event_buffer = EventRingBuffer()
        trainer = OnlineTrainer(
            service.recommender,
            service.event_buffer,
            store,
            base_version=manager.incumbent.version,
            seed=args.seed,
        )

        def auto_stage(path) -> None:
            try:
                manager.stage(path, wait=False)
            except DeploymentError:
                pass  # a canary is already live; next snapshot gets its turn

        trainer.start_loop(args.online_interval, on_snapshot=auto_stage)
        print(f"online trainer: snapshot every {args.online_interval:.0f}s -> {args.deploy_dir}")

    gateway = ServingGateway(
        service, gateway_config, fallback=fallback, deployment=manager
    )
    print(f"deployment control plane: POST /deploy (lineage in {args.deploy_dir})")
    return gateway


def _cmd_deploy(args) -> int:
    import json as json_mod
    import urllib.error
    import urllib.request

    base = args.url.rstrip("/")

    def call(method: str, path: str, payload: dict | None = None) -> tuple[int, dict]:
        request = urllib.request.Request(
            base + path,
            method=method,
            data=json_mod.dumps(payload).encode() if payload is not None else None,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=300.0) as response:
                return response.status, json_mod.loads(response.read() or b"{}")
        except urllib.error.HTTPError as error:
            return error.code, json_mod.loads(error.read() or b"{}")
        except urllib.error.URLError as error:
            print(f"cannot reach gateway at {base}: {error.reason}", file=sys.stderr)
            raise SystemExit(1)

    if args.status:
        status, body = call("GET", "/deploy")
    elif args.promote:
        status, body = call("POST", "/deploy/promote", {"reason": args.reason})
    elif args.rollback:
        status, body = call("POST", "/deploy/rollback", {"reason": args.reason})
    else:
        import pathlib

        payload: dict = {
            "artifact": str(pathlib.Path(args.artifact).resolve()),
            "wait": not args.no_wait,
        }
        if args.canary_pct is not None:
            payload["canary_pct"] = args.canary_pct
        if args.shadow_sample is not None:
            payload["shadow_sample"] = args.shadow_sample
        status, body = call("POST", "/deploy", payload)
    print(json_mod.dumps(body, indent=2))
    return 0 if status < 400 else 1


def _index_factorization(path):
    """Load an artifact and factorize its model's scoring head."""
    from .artifacts import load_artifact
    from .retrieval import factorize

    bundle = load_artifact(path)
    recommender = bundle.build()
    fact = factorize(recommender.model)
    if fact is None:
        raise ValueError(
            f"{bundle.spec.name} does not expose encode_sessions(); cannot index"
        )
    return bundle, fact


def _cmd_index(args) -> int:
    import numpy as np

    from .retrieval import IndexSpec, build_index, measure_recall, sample_queries

    if args.index_command == "build":
        try:
            spec = IndexSpec(
                kind=args.kind,
                cells=args.cells,
                nprobe=args.nprobe,
                seed=args.seed,
                pq_m=args.pq_m,
                pq_bits=args.pq_bits,
                rerank=args.rerank,
            )
        except ValueError as error:
            print(f"cannot build an index: {error}", file=sys.stderr)
            return 2
    try:
        bundle, fact = _index_factorization(args.artifact)
    except FileNotFoundError:
        print(f"artifact not found: {args.artifact}", file=sys.stderr)
        return 1
    except ValueError as error:
        print(f"cannot index {args.artifact}: {error}", file=sys.stderr)
        return 1
    items = fact.item_matrix()

    if args.index_command == "inspect":
        spec = bundle.retrieval_spec()
        if spec is None:
            print(f"{args.artifact}: no stored index recipe (run `repro index build ... --save`)")
            return 0
        index = build_index(items, spec)
        sizes = index.list_sizes()
        print(f"{args.artifact}: {spec.kind} index recipe")
        for key, value in spec.resolve(*items.shape).to_dict().items():
            print(f"  {key:12s} {value}")
        print(f"  items        {index.n_items}")
        print(f"  list sizes   min={sizes.min()} mean={sizes.mean():.1f} max={sizes.max()}")
        print(f"  index bytes  {index.memory_bytes()}")
        return 0

    spec = spec.resolve(*items.shape)
    print(f"building {spec.kind} index over {items.shape[0]} items (dim {items.shape[1]})")
    index = build_index(items, spec)
    for key, value in index.spec.to_dict().items():
        print(f"  {key:12s} {value}")

    queries = sample_queries(items, args.queries, seed=spec.seed)
    result = measure_recall(index, queries, ks=(10, 20))
    ann = np.array(result["ann_ms"])
    exact = np.array(result["exact_ms"])
    print(f"recall vs. exact over {len(queries)} sampled queries (nprobe={result['nprobe']}):")
    print(f"  recall@10    {result['recall'][10]:.4f}")
    print(f"  recall@20    {result['recall'][20]:.4f}")
    print(f"  candidates   {result['candidates']:.0f} / query (mean)")
    print(f"  ann p50/p95  {np.percentile(ann, 50):.3f} / {np.percentile(ann, 95):.3f} ms")
    print(f"  exact p50    {np.percentile(exact, 50):.3f} ms")

    if args.save:
        from .artifacts import store_retrieval_spec

        store_retrieval_spec(args.artifact, index.spec)
        print(f"recipe stored in {args.artifact} metadata")
    if args.min_recall is not None and result["recall"][20] < args.min_recall:
        print(
            f"FAIL: recall@20 {result['recall'][20]:.4f} < required {args.min_recall}",
            file=sys.stderr,
        )
        return 1
    return 0


def _serve_loop(args, gateway, model_name: str) -> int:
    import time

    gateway.start()
    print(f"serving {model_name} on {gateway.address}")
    print(f"  POST {gateway.address}/events      {{session_id, item, operation}}")
    print(f"  GET  {gateway.address}/recommend?session_id=...&k=10")
    print(f"  GET  {gateway.address}/healthz")
    print(f"  GET  {gateway.address}/metrics")
    if getattr(gateway, "deployment", None) is not None:
        print(f"  GET/POST {gateway.address}/deploy   (+ /deploy/promote, /deploy/rollback)")
    try:
        if args.duration > 0:
            time.sleep(args.duration)
        else:
            while True:
                time.sleep(1.0)
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        gateway.stop()
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "prepare": _cmd_prepare,
    "data": _cmd_data,
    "models": _cmd_models,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "compare": _cmd_compare,
    "profile": _cmd_profile,
    "serve": _cmd_serve,
    "index": _cmd_index,
    "deploy": _cmd_deploy,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point: parse ``argv`` (or sys.argv) and dispatch a subcommand."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ArtifactFormatError, DatasetFormatError, TrainingStateError) as error:
        print(error, file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
