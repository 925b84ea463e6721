"""Workload ``data_ingest``: the ``data`` layer alone, write side then read side.

Set-up writes a sessions JSONL file from the benchmark's own vectorised
generator (Zipf items, 10 operations, geometric lengths). One unit of the
measured window is ``pack_sessions_jsonl`` -> ``PackedDataset.save`` ->
``load_packed(mmap=True)`` -> loader epochs over the memmap train split with
no model. It reads ``data`` differently from ``train_embsr`` (stream-parse and
CSR write, then memmap read), so a collate win that costs ingest shows.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import shutil
import tempfile
import time

import numpy as np

from harness import OUT_DIR, Checks, Deadline, RunResult, peak_rss_mb, repeated_setup
from quantiles import median, percentile, supported
from spans import by_name, overhead_share, root_coverage

from repro.data import (
    JD_OPERATIONS,
    DataLoader,
    iter_sessions_jsonl,
    load_packed,
    pack_sessions_jsonl,
    packed_fingerprint,
)

SESSIONS = 25_000
CATALOGUE = 5_000
MIN_SUPPORT = 5
MAX_MACRO_LEN = 20
BATCH = 64
MAX_OPS_PER_ITEM = 6
LOADER_EPOCHS = 4  # per unit; the first touches cold memmap pages and is dropped
CHECKED_SESSIONS = 1000


@dataclasses.dataclass
class State:
    directory: pathlib.Path
    jsonl: pathlib.Path
    offsets: np.ndarray  # [S+1] event offsets per session
    items: np.ndarray  # [E] raw item ids
    ops: np.ndarray  # [E]


def generate_events(seed: int, sessions: int):
    """Sessions as flat arrays: geometric lengths, Zipf items, sticky items.

    A user stays on the current item with probability 0.4, so macro steps
    carry several operations and merge-successive has work to do.
    """
    rng = np.random.default_rng(seed)
    lengths = np.clip(rng.geometric(1.0 / 8.0, sessions), 2, 60)
    offsets = np.zeros(sessions + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    total = int(offsets[-1])
    weights = 1.0 / np.arange(1, CATALOGUE + 1) ** 1.1
    fresh = rng.choice(CATALOGUE, size=total, p=weights / weights.sum())
    stay = rng.random(total) < 0.4
    stay[offsets[:-1]] = False
    source = np.maximum.accumulate(np.where(stay, 0, np.arange(total)))
    items = fresh[source] + 1000  # raw ids are not dense ids
    ops = rng.integers(0, len(JD_OPERATIONS), total)
    return offsets, items.astype(np.int64), ops.astype(np.int64)


def write_jsonl(path: pathlib.Path, offsets, items, ops) -> None:
    """The ``save_sessions_jsonl`` format, written from arrays."""
    events = np.stack([items, ops], axis=1).tolist()
    bounds = offsets.tolist()
    with path.open("w") as handle:
        for session_id in range(len(bounds) - 1):
            record = {"session_id": session_id, "events": events[bounds[session_id] : bounds[session_id + 1]]}
            handle.write(json.dumps(record) + "\n")


def _setup(seed: int, sessions: int) -> State:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    directory = pathlib.Path(tempfile.mkdtemp(prefix="ingest_", dir=OUT_DIR))
    offsets, items, ops = generate_events(seed, sessions)
    jsonl = directory / "sessions.jsonl"
    write_jsonl(jsonl, offsets, items, ops)
    return State(directory, jsonl, offsets, items, ops)


def _teardown(state: State) -> None:
    shutil.rmtree(state.directory, ignore_errors=True)


def expected_example(state: State, session_id: int, keep: np.ndarray, dense_of: dict):
    """What ``prepare``-style filtering makes of one source session, or ``None``."""
    lo, hi = state.offsets[session_id], state.offsets[session_id + 1]
    macro_items, op_seqs = [], []
    for item, op in zip(state.items[lo:hi].tolist(), state.ops[lo:hi].tolist()):
        if not keep[item]:
            continue
        if macro_items and macro_items[-1] == item:
            op_seqs[-1].append(op)
        else:
            macro_items.append(item)
            op_seqs.append([op])
    if len(macro_items) < 2:
        return None
    inputs = [dense_of[i] for i in macro_items[:-1]][-MAX_MACRO_LEN:]
    return inputs, op_seqs[:-1][-MAX_MACRO_LEN:], dense_of[macro_items[-1]]


def _check_against_source(checks: Checks, state: State, loaded, seed: int) -> None:
    """Sampled examples decoded from the memmap file equal their JSONL source."""
    support = np.bincount(state.items)
    keep = support >= MIN_SUPPORT
    raw_ids = np.flatnonzero(keep)
    checks.require(
        np.array_equal(np.asarray(loaded.item_ids), raw_ids), "packed vocabulary differs from the kept raw ids"
    )
    dense_of = {int(raw): index + 1 for index, raw in enumerate(raw_ids)}
    sessions = len(state.offsets) - 1
    expected_total = sum(
        expected_example(state, sid, keep, dense_of) is not None
        for sid in range(0, sessions, max(1, sessions // 2000))
    )
    found = {}
    for split in loaded.splits().values():
        for index, sid in enumerate(np.asarray(split.session_ids).tolist()):
            found[sid] = (split, index)
    sampled_total = sum(sid in found for sid in range(0, sessions, max(1, sessions // 2000)))
    checks.require(
        expected_total == sampled_total,
        f"examples kept differ on the sampled sessions: expected {expected_total}, packed {sampled_total}",
    )
    rng = np.random.default_rng(seed)
    sample = rng.choice(sorted(found), size=min(CHECKED_SESSIONS, len(found)), replace=False)
    wrong = 0
    for sid in sample.tolist():
        split, index = found[sid]
        example = split.example(index)
        want = expected_example(state, sid, keep, dense_of)
        got = (list(example.macro_items), [list(o) for o in example.op_sequences], example.target)
        if want is None or got != (want[0], want[1], want[2]):
            wrong += 1
    checks.count(len(sample), wrong)
    if wrong:
        checks.problems.append(f"{wrong} of {len(sample)} sampled sessions differ from their JSONL source")


def _unit(state: State, seed: int, tracer, unit: int):
    """Pack, save, load and read once. Returns timings and the loaded dataset."""
    rpk = state.directory / "dataset.rpk"
    trace_id = f"unit-{unit}"
    started = time.perf_counter()
    with tracer.span("data.pack", trace=trace_id):
        packed = pack_sessions_jsonl(
            state.jsonl, JD_OPERATIONS, name="e2e-ingest", min_support=MIN_SUPPORT,
            max_macro_len=MAX_MACRO_LEN, seed=seed,
        )
    packed_at = time.perf_counter()
    with tracer.span("data.save", trace=trace_id):
        packed.save(rpk)
    saved_at = time.perf_counter()
    with tracer.span("data.load", trace=trace_id):
        loaded = load_packed(rpk, mmap=True)
    loaded_at = time.perf_counter()
    loader = DataLoader(
        loaded.train, batch_size=BATCH, shuffle=True, seed=seed,
        max_ops_per_item=MAX_OPS_PER_ITEM, reuse_buffers=True,
    )
    batch_s = []
    rows = 0
    for epoch in range(LOADER_EPOCHS):
        batches = iter(loader)
        for index in range(len(loader)):
            tick = time.perf_counter()
            with tracer.span("data.collate", trace=f"{trace_id}-e{epoch}-b{index}"):
                batch = next(batches)
            if epoch > 0:
                batch_s.append(time.perf_counter() - tick)
            rows += batch.batch_size
    timings = {
        "pack_s": packed_at - started,
        "save_s": saved_at - packed_at,
        "load_s": loaded_at - saved_at,
        "rows": rows,
    }
    return packed, loaded, timings, batch_s


def run(seed: int, seconds: float, tracer, smoke: bool = False) -> RunResult:
    sessions = 3000 if smoke else SESSIONS
    state, setup_s, setup_times = repeated_setup(lambda: _setup(seed, sessions), _teardown)
    try:
        return _measure(state, seed, seconds, tracer, smoke, setup_s, setup_times)
    finally:
        _teardown(state)


def _measure(state: State, seed, seconds, tracer, smoke, setup_s, setup_times) -> RunResult:
    checks = Checks()
    sessions = len(state.offsets) - 1
    window = Deadline(seconds)
    window_started = time.perf_counter()
    rates, latencies, unit_p50, unit_p95, fingerprints, units = [], [], [], [], [], []
    loaded = None
    while loaded is None or window.open():
        packed, loaded, timings, batch_s = _unit(state, seed, tracer, len(units))
        rates.append(sessions / (timings["pack_s"] + timings["save_s"]))
        latencies.extend(batch_s)
        unit_p50.append(median(batch_s))
        unit_p95.append(percentile(batch_s, 95))
        fingerprints.append(packed.fingerprint)
        units.append(timings)
        checks.count(sessions + timings["rows"])
    window_ended = time.perf_counter()

    checks.require(len(set(fingerprints)) == 1, f"packed fingerprint changed between units: {set(fingerprints)}")
    checks.require(
        packed_fingerprint(loaded) == fingerprints[0], "fingerprint of the memmap file differs from the packed dataset"
    )
    _check_against_source(checks, state, loaded, seed)
    if not smoke:
        per_unit = len(latencies) // len(units)
        checks.require(supported(per_unit, 95), f"p95 of {per_unit} loader batches per unit is unsupported")

    examples = sum(len(split) for split in loaded.splits().values())
    details = {
        "samples": {"throughput_per_s": len(rates), "latency": len(latencies), "setup_s": len(setup_times)},
        "sessions": sessions,
        "examples": examples,
        "fingerprint": fingerprints[0],
    }
    if not tracer.enabled:
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "throughput_per_s": median(rates),
            # Batches differ in padded size, so a pooled percentile moves with
            # the share of the window the machine ran slow; each unit reads the
            # same batches, and the median over units does not.
            "latency_p50_ms": median(unit_p50) * 1e3,
            "latency_p95_ms": median(unit_p95) * 1e3,
        }
        details["aliases"] = {
            "ingest_sessions_per_s": metrics["throughput_per_s"],
            "collate_batches_per_s": 1.0 / median(unit_p50),
        }
        return RunResult(checks, metrics, details)

    # iter_sessions_jsonl alone: the parse share of a pack (which reads twice).
    started = time.perf_counter()
    with tracer.span("data.parse", trace="parse"):
        parsed = sum(1 for _ in iter_sessions_jsonl(state.jsonl))
    parse_s = time.perf_counter() - started
    checks.require(parsed == sessions, f"parsed {parsed} sessions, wrote {sessions}")

    spans = tracer.spans()
    names = by_name(spans)
    data_s = sum(names[n]["self_s"] for n in ("data.pack", "data.save", "data.load", "data.collate"))
    share = data_s / (window_ended - window_started)
    if not smoke:
        checks.require(share >= 0.95, f"data layer is {share:.3f} of the data_ingest window")
    metrics = {
        "trace.overhead_share": overhead_share(spans, window_started, window_ended),
        "trace.covered_share": root_coverage(spans, window_started, window_ended),
        "trace.spans": float(len(spans)),
        "data.collate_ms": median(latencies) * 1e3,
        "data.share_of_run": share,
        "data.parse_sessions_per_s": sessions / parse_s,
        "data.pack_us_per_session": median([u["pack_s"] for u in units]) / sessions * 1e6,
        "data.save_ms": median([u["save_s"] for u in units]) * 1e3,
        "data.load_ms": median([u["load_s"] for u in units]) * 1e3,
        "data.rpk_mb": (state.directory / "dataset.rpk").stat().st_size / 2**20,
        "data.jsonl_mb": state.jsonl.stat().st_size / 2**20,
        "data.examples_per_session": examples / sessions,
    }
    details["traced_throughput_per_s"] = median(rates)
    details["setup_s_samples"] = setup_times
    details["peak_rss_mb"] = peak_rss_mb()
    return RunResult(checks, metrics, details)
