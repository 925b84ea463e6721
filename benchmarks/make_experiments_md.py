"""Assemble EXPERIMENTS.md from the JSON artifacts in benchmarks/results/.

Run after the full benchmark suite:

.. code-block:: bash

    python -m pytest benchmarks/ --benchmark-only
    python benchmarks/make_experiments_md.py

Each bench writes ``{measured, paper}`` per (experiment, dataset); this
script renders the side-by-side tables plus the shape-criteria checklist
from DESIGN.md §4.
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.utils import render_markdown  # noqa: E402

RESULTS = pathlib.Path(__file__).parent / "results"
OUT = pathlib.Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"

ORDER = [
    ("table_ii", "Table II — dataset statistics"),
    ("table_iii", "Table III — overall performance (12 systems)"),
    ("table_iv", "Table IV — ablation studies"),
    ("fig_4", "Fig. 4 — utility of sequential patterns"),
    ("fig_5", "Fig. 5 — utility of dyadic relational patterns"),
    ("fig_6", "Fig. 6 — utility of the fusion gating mechanism"),
    ("supp_table_i", "Supp. Table I — single-operation item sequences"),
    ("supp_table_ii", "Supp. Table II — dyadic encoding on SGNN-HN"),
    ("supp_table_iii", "Supp. Table III — top-{1,3,5} results"),
    ("ext_op-weighting", "Extension — operation weighting / filtering (future work)"),
]

HEADER = """# EXPERIMENTS — paper vs. measured

Every table and figure from the paper's evaluation, regenerated by
`python -m pytest benchmarks/ --benchmark-only` on the synthetic stand-in
datasets (see DESIGN.md §2 for why absolute values differ by construction
and §4 for the shape criteria each experiment must satisfy — the criteria
are *asserted* inside the corresponding bench, so a green benchmark run is
itself the reproduction record). Values are percentages.

Scale used: ~5k synthetic sessions per JD-like dataset, ~4k trivago-like,
embedding size 32, ≤14 epochs — versus the paper's ~600k real sessions and
d=100. The comparison to read is *within* a column (who wins, by what
factor), not across ours/paper columns.

Precision: the committed tables are float64 runs, made before float32
became the default (`repro.autograd.MODEL_DTYPE`, the paper's PyTorch
precision). `benchmarks/bench_dtype_fidelity.py` trains EMBSR, SGNN-HN and
NARM on Appliances at this scale under seeds 0–4 in both dtypes, paired by
seed. Every mean paired |Δ| falls inside the pooled seed σ
(`benchmarks/results/dtype_fidelity.json`): EMBSR H@20 −0.18 (σ 1.18) and
M@20 −0.08 (σ 0.80), moved by two of the five seeds; SGNN-HN and NARM
give the same H@20 and M@20 in both dtypes on every seed.

## Reproduction summary

Robustly reproduced shapes:

* **Table III** — EMBSR leads or ties *every macro-behavior baseline* on
  every metric of every dataset (the paper's central claim: micro-behavior
  information matters). Against the full twelve-system field it is best on
  H@5/H@10 (Appliances) and M@10/M@20 (Computers), with remaining cells
  within the documented noise band of the best micro baseline; S-POP
  scores ~0 on the exploration-only trivago-like data while staying
  competitive on the repeat-heavy JD-like data (the paper's own
  diagnostic, Sec. V-B).
* **Table IV** — the relational-only ablation (EMBSR-NG) clearly trails
  the full model on MRR everywhere; on Appliances the full model leads all
  ablations on H@5/M@5 and EMBSR-NF sits below it (the paper reports the
  same overall pattern, with occasional ablation wins on single cells —
  see also Known limits #3 for the Computers case).
* **Fig. 4** — adding the micro-op GRU to the star GNN (SGNN-Seq-Self)
  clearly beats the micro-blind SGNN-Self; the flat RNN-Self is the worst
  encoder on MRR.
* **Fig. 6** — fixed fusion weight β=0 (recent interest only) is the worst
  configuration; the learned gate matches the best fixed β.
* **Fig. 7** — flip-cases exist where macro-only models miss the target in
  their top-5 and EMBSR recalls it.
* **Supp. I–III** — EMBSR with all operations beats macro baselines limited
  to click-like events; H@1 == M@1 holds structurally.

Known limits (documented, not hidden):

1. **Fig. 5's** dyadic-vs-absolute margin (~1 point in the paper) sits
   inside our seed-noise band at laptop scale. The dyadic relation table
   has (|O|+1)² rows and needs far more than a few thousand sessions to
   dominate an |O|+1-row absolute table; moreover, self-attention's
   bilinear score is itself a (weaker) pair detector, so absolute encodings
   are not blind to operation pairs. SGNN-Dyadic does beat the micro-blind
   SGNN-Self everywhere; the benches assert parity-within-noise against
   SGNN-Abs-Self and print the exact values.
2. **Trivago-like micro baselines.** On the exploration-only workload the
   persona signal is purely sequential over just 6 operation types, which
   plays to HUP's hierarchical GRUs: at ~3k sessions HUP edges out EMBSR
   there (the paper's real-data result is the opposite: EMBSR 22.95 vs HUP
   14.05 H@10). EMBSR still beats every *macro* baseline on trivago by a
   wide margin — the paper's central claim — and the bench asserts exactly
   that, with a parity band against the micro baselines.
3. **Computers ablation**: on the larger JD-Computers catalogue the
   sequential-only ablation (EMBSR-NS) edges out the full model on MRR —
   the dyadic attention is the most data-starved component there (same
   root cause as limit #1); the full model still leads H@5/M@5 on
   Appliances and beats EMBSR-NG everywhere.
4. **MRR vs the strongest macro GNN on JD-like data** is a near-tie
   (e.g. 32.60 vs 32.66 M@20 on Appliances): macro models capture rank-1
   repeat targets from recency alone. EMBSR's decisive wins are on
   recall (H@K), matching where the paper reports its smallest (H@20)
   and largest (M@5) relative gains in spirit if not in column.
5. **Wilcoxon power.** The paper's significance tests run over ~166k test
   sessions; ours over ~1k, where the per-session reciprocal-rank deltas
   against the single best baseline do not reach p < 0.01. The test
   machinery (`repro.eval.significance`) is identical; only the sample
   size differs.
"""


def table_for(payload: dict) -> str:
    measured, paper = payload["measured"], payload["paper"]
    metrics: list[str] = []
    for row in measured.values():
        for key in row:
            if key not in metrics:
                metrics.append(key)
    headers = ["model"] + [f"{m} ours" for m in metrics] + [f"{m} paper" for m in metrics]
    rows = []
    for model, row in measured.items():
        cells = [model]
        cells += [row.get(m, "—") for m in metrics]
        cells += [paper.get(model, {}).get(m, "—") for m in metrics]
        rows.append(cells)
    return render_markdown(headers, rows)


def main() -> int:
    if not RESULTS.exists():
        print("no benchmarks/results/ directory; run the bench suite first", file=sys.stderr)
        return 1
    files = sorted(RESULTS.glob("*.json"))
    if not files:
        print("benchmarks/results/ is empty; run the bench suite first", file=sys.stderr)
        return 1

    sections: dict[str, list[str]] = {}
    for path in files:
        payload = json.loads(path.read_text())
        stem = path.stem  # e.g. table_iii_appliances
        # Longest-prefix match ("table_iii_*" must not land under "table_ii").
        matches = [prefix for prefix, _ in ORDER if stem.startswith(prefix)]
        if not matches:
            continue
        prefix = max(matches, key=len)
        dataset = stem[len(prefix) :].strip("_") or "all"
        sections.setdefault(prefix, []).append(
            f"\n**{dataset.capitalize()}**\n\n{table_for(payload)}\n"
        )

    parts = [HEADER]
    for prefix, title in ORDER:
        if prefix in sections:
            parts.append(f"\n## {title}\n")
            parts.extend(sorted(sections[prefix]))
    OUT.write_text("".join(parts))
    print(f"wrote {OUT} ({sum(len(v) for v in sections.values())} tables)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
