"""The object-loop preprocessing, kept as the oracle for the columnar core.

This is the loop ``prepare_dataset`` ran before it reduced to
:func:`repro.data.ingest.pack_chunks`: filter items under ``min_support``,
permute the surviving sessions with the seed, cut 70/10/20, merge
successive micro-behaviours, split off the last macro item as the target
and keep the last ``max_macro_len`` inputs. Tests compare the core with it.
"""

from collections import Counter

import numpy as np

from repro.data import ItemVocab, MacroSession, PreparedDataset, Session, merge_successive


def filter_items(sessions: list[Session], min_support: int) -> list[Session]:
    counts: Counter[int] = Counter()
    for session in sessions:
        counts.update(x.item for x in session.interactions)
    keep = {item for item, n in counts.items() if n >= min_support}
    filtered = []
    for session in sessions:
        kept = [x for x in session.interactions if x.item in keep]
        if kept:
            filtered.append(Session(kept, session_id=session.session_id))
    return filtered


def to_example(session: Session, vocab: ItemVocab, max_macro_len: int) -> MacroSession | None:
    """Merge, remap ids, split off the last macro item as the target."""
    macro = merge_successive(session)
    if len(macro) < 2:
        return None
    items = [vocab.encode(v) for v in macro.macro_items]
    target = items[-1]
    inputs = items[:-1][-max_macro_len:]
    ops = macro.op_sequences[:-1][-max_macro_len:]
    return MacroSession(inputs, [list(o) for o in ops], target=target, session_id=session.session_id)


def prepare_dataset_loop(
    sessions, operations, name="dataset", min_support=5, max_macro_len=20, split=(0.7, 0.1, 0.2), seed=0
) -> PreparedDataset:
    filtered = filter_items(sessions, min_support)
    order = np.random.default_rng(seed).permutation(len(filtered))
    n_train = int(len(filtered) * split[0])
    n_val = int(len(filtered) * split[1])
    groups = {
        "train": [filtered[i] for i in order[:n_train]],
        "validation": [filtered[i] for i in order[n_train : n_train + n_val]],
        "test": [filtered[i] for i in order[n_train + n_val :]],
    }
    vocab = ItemVocab([x.item for s in filtered for x in s.interactions])
    examples = {}
    for split_name, split_sessions in groups.items():
        converted = (to_example(s, vocab, max_macro_len) for s in split_sessions)
        examples[split_name] = [m for m in converted if m is not None]
    return PreparedDataset(name=name, vocab=vocab, operations=operations, **examples)
