"""Fig. 7: case study — one session, four systems, top-5 lists.

Reproduces the paper's qualitative analysis: find a test session where the
micro-blind SGNN-Self misses the ground truth in its top-5 while EMBSR
recalls it, and print the session's micro-behaviors next to each system's
top-5 list.
"""

from __future__ import annotations

import os

import pytest

from repro.eval import find_interesting_session, run_case_study
from repro.utils import render_table

FAST = os.environ.get("REPRO_BENCH_FAST") == "1"
SYSTEMS = ["SGNN-Self", "SGNN-Seq-Self", "SGNN-Dyadic", "EMBSR"]


def test_fig7_case_study(runners, datasets, benchmark):
    dataset_name = "Computers"  # the paper's case comes from JD-Computers
    runner = runners[dataset_name]
    dataset, gen_cfg = datasets[dataset_name]
    systems = {name: runner.run(name, verbose=True).recommender for name in SYSTEMS}

    example = benchmark.pedantic(
        find_interesting_session,
        args=(dataset, systems),
        kwargs={"macro_only": "SGNN-Self", "full_model": "EMBSR", "k": 5},
        rounds=1,
        iterations=1,
    )

    fallback = example is None
    if fallback:
        if FAST:
            pytest.skip("no flip-case at smoke scale")
        example = dataset.test[0]

    ops = gen_cfg.operations
    print("\n=== Fig 7 — case study session (micro-behaviors) ===")
    for item, op_seq in zip(example.macro_items, example.op_sequences):
        print(f"  item {item:4d}: {', '.join(ops.name_of(o) for o in op_seq)}")
    print(f"  ground truth next item: {example.target}")

    rows = [
        [r.model, " ".join(map(str, r.top_items)), r.target_rank, "yes" if r.hit_at_k else "no"]
        for r in run_case_study(example, systems, k=5)
    ]
    print(render_table(["model", "top-5", "target rank", "hit@5"], rows))

    if not FAST and not fallback:
        by_model = {r.model: r for r in run_case_study(example, systems, k=5)}
        # The defining property of the paper's case: micro-behavior
        # awareness flips a top-5 miss into a hit.
        assert not by_model["SGNN-Self"].hit_at_k
        assert by_model["EMBSR"].hit_at_k
