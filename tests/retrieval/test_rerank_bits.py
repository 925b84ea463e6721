"""Differential for the in-place IVF re-rank (the same-answers contract).

``rank_queries`` scores each probed cell with one matvec over its
contiguous, zero-padded block of ``cell_vectors`` and selects the top k by
(score descending, class ascending). The oracle below is the loop it
replaced, kept verbatim: collect the probed cells' classes, sort them,
gather their rows from the class-ordered matrix, matvec, ``top_k_indices``.
Returned ids must equal the oracle's everywhere, with one measured
exception: exact duplicate vectors tie in the padded blocks, as they do in
the full-height product, while the oracle's gathered matvec can score the
one in its tail rows an ulp apart and so order (or cut) the pair
differently. There the ids must agree as items and the blocks must return
the duplicates in ascending class order.

BLAS picks its kernel by operand shape (``docs/performance.md``): a gemv
computes its last ``M mod 4`` rows with a tail kernel whose bytes differ
from the 4-row block kernel. The catalogues below straddle that rule
(n mod 4, cells of 1-3 items, an empty cell, exact duplicates), and at full
probe with n = 0 (mod 4) every scanned score must have the bytes of the
full-height ``vectors @ q``.

Every test takes the catalogue dtype from the ``dtype`` fixture: float64
here, float32 (the dtype models serve in) in ``test_rerank_bits_float32.py``,
which collects these same tests with the fixture overridden.
"""

import numpy as np
import pytest

from repro.eval.topk import top_k_indices
from repro.retrieval import IndexSpec, RetrievalPipeline, build_index, sample_queries
from repro.retrieval.index import ROW_BLOCK

CATALOGUES = ["gaussian", "duplicates", "tiny-cells", "empty-cell"]
TINY_N = {0: 12, 1: 13, 2: 14, 3: 11}  # 8 cells of 1-3 items each: every block is a tail
PROBES = ["one", "eighth", "all"]


# ----------------------------------------------------------------------
# Oracle: the gathered re-rank as it stood before the cell-major layout
# ----------------------------------------------------------------------
def gathered_candidates(index, query, nprobe=None, min_candidates=0):
    """The pre-change ``IVFIndex.candidates``."""
    nprobe = min(nprobe or index.spec.nprobe, index.n_cells)
    ranked = top_k_indices(query @ index.centroids.T, index.n_cells)
    probed = nprobe
    while True:
        cand = [index.lists[c] for c in ranked[:probed] if len(index.lists[c])]
        total = sum(len(c) for c in cand)
        if total >= min_candidates or probed >= index.n_cells:
            break
        probed += 1
    merged = np.concatenate(cand) if cand else np.empty(0, dtype=np.int64)
    merged.sort()  # ascending classes keep the re-rank's tie order exact
    return merged, probed


def gathered_rank(index, queries, k, seen_classes=None, nprobe=None):
    """The pre-change ``rank_queries`` loop body; returns ids, probes, candidates."""
    nprobe = min(nprobe or index.spec.nprobe, index.n_cells)
    results = []
    probes = candidates = 0
    for row in range(queries.shape[0]):
        query = queries[row]
        need = k + (len(seen_classes[row]) if seen_classes is not None else 0)
        cand, probed = gathered_candidates(index, query, nprobe, min_candidates=need)
        short = index.shortlist(query, cand)

        scores = index.vectors[short] @ query
        if seen_classes is not None and len(seen_classes[row]):
            mask = np.isin(short, seen_classes[row])
            if mask.any():
                scores = scores.copy() if scores.base is not None else scores
                scores[mask] = -np.inf
        top = top_k_indices(scores, k)
        results.append(short[top])

        probes += probed
        candidates += len(cand)
    return results, probes, candidates


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def catalogue(kind, residue, d, dtype):
    """``(vectors, spec)`` with ``len(vectors) % 4 == residue``."""
    rng = np.random.default_rng([CATALOGUES.index(kind), residue, d])
    if kind == "gaussian":
        return rng.standard_normal((400 + residue, d)), IndexSpec(cells=16, seed=1)
    if kind == "duplicates":  # class i and i + 100 are exact ties
        base = rng.standard_normal((100, d))
        extra = rng.standard_normal((residue, d))
        return np.concatenate([base, base, extra]), IndexSpec(cells=16, seed=1)
    if kind == "tiny-cells":
        return np.random.default_rng(TINY_N[residue]).standard_normal((TINY_N[residue], d)), IndexSpec(cells=8)
    # "empty-cell": five directions at varied norms leave some of 8 cells empty.
    # float32 rounding of arbitrary norms splits a direction into near-copies
    # that fill every cell; distinct power-of-two norms keep its unit vector
    # exact.
    directions = rng.standard_normal((5, d))
    n = 40 + residue
    if dtype == np.float64:
        norms = 1.0 + rng.random((n, 1))
    else:
        norms = 2.0 ** (np.arange(n) // 5)[:, None]
    return directions[np.arange(n) % 5] * norms, IndexSpec(cells=8)


def check_catalogue(kind, index):
    sizes = index.list_sizes()
    if kind == "tiny-cells":
        assert sizes.min() >= 1 and sizes.max() < ROW_BLOCK
    if kind == "empty-cell":
        assert (sizes == 0).any()


def nprobe_for(probe, index):
    return {"one": 1, "eighth": max(1, index.n_cells // 8), "all": index.n_cells}[probe]


def seen_for(vectors, queries, rng):
    """Each row's two best classes plus one random class."""
    rows = []
    for query in queries:
        best = top_k_indices(vectors @ query, 2)
        rows.append(np.unique(np.append(best, rng.integers(len(vectors)))).astype(np.int64))
    return rows


@pytest.fixture
def dtype():
    return np.float64


def build(name, residue, d, dtype, **spec_fields):
    vectors, spec = catalogue(name, residue, d, dtype)
    vectors = vectors.astype(dtype)
    index = build_index(vectors, IndexSpec(**{**spec.to_dict(), **spec_fields}))
    assert index.cell_vectors.dtype == dtype
    check_catalogue(name, index)
    queries = sample_queries(vectors, 5, seed=residue + d)
    return vectors, index, queries


def assert_same_ids(got, want, group, seen):
    """Equal ids, where the classes of one exact-duplicate ``group`` are one
    item (a seen class and its unseen duplicate are two)."""
    items = 2 * group[got] + np.isin(got, seen)
    assert np.array_equal(items, 2 * group[want] + np.isin(want, seen))
    for item in np.unique(items):
        classes = got[items == item]
        assert np.array_equal(classes, np.sort(classes))


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
@pytest.mark.parametrize("probe", PROBES)
@pytest.mark.parametrize("d", [8, 32])
@pytest.mark.parametrize("residue", [0, 1, 2, 3])
@pytest.mark.parametrize("kind", CATALOGUES)
def test_ids_equal_gathered_oracle(kind, residue, d, probe, dtype):
    vectors, index, queries = build(kind, residue, d, dtype)
    pipeline = RetrievalPipeline(None, index)
    nprobe = nprobe_for(probe, index)
    seen = seen_for(vectors, queries, np.random.default_rng(d))
    n = len(vectors)
    group = np.unique(vectors, axis=0, return_inverse=True)[1].reshape(-1)
    assert (len(np.unique(group)) < n) == (kind == "duplicates")
    for k in (5, 60, n + 7):  # 60 widens past one probed cell; n + 7 exceeds the catalogue
        for seen_classes in (None, seen):
            got = pipeline.rank_queries(queries, k, seen_classes=seen_classes, nprobe=nprobe)
            want, probes, candidates = gathered_rank(index, queries, k, seen_classes, nprobe)
            for row, (g, w) in enumerate(zip(got, want, strict=True)):
                assert g.dtype == w.dtype
                assert_same_ids(g, w, group, [] if seen_classes is None else seen[row])
                # Padding rows are never returned: real, distinct classes only.
                assert len(g) == min(k, n) and len(np.unique(g)) == len(g)
                assert g.min() >= 0 and g.max() < n
            stats = pipeline.last_stats
            assert (stats.probes, stats.candidates, stats.reranked) == (probes, candidates, candidates)
            if k > n:
                assert stats.candidates == n * len(queries)  # real rows, never padding


@pytest.mark.parametrize("probe", PROBES)
@pytest.mark.parametrize("residue", [0, 1, 2, 3])
def test_ivfpq_position_gather_equals_gathered_oracle(residue, probe, dtype):
    vectors, index, queries = build(
        "gaussian", residue, 32, dtype, kind="ivfpq", pq_m=4, pq_bits=5, rerank=32
    )
    pipeline = RetrievalPipeline(None, index)
    nprobe = nprobe_for(probe, index)
    seen = seen_for(vectors, queries, np.random.default_rng(residue))
    for seen_classes in (None, seen):
        got = pipeline.rank_queries(queries, 10, seen_classes=seen_classes, nprobe=nprobe)
        want, probes, candidates = gathered_rank(index, queries, 10, seen_classes, nprobe)
        for g, w in zip(got, want, strict=True):
            assert np.array_equal(g, w)
        assert (pipeline.last_stats.probes, pipeline.last_stats.candidates) == (probes, candidates)


@pytest.mark.parametrize("d", [8, 32])
@pytest.mark.parametrize("kind", CATALOGUES)
def test_full_probe_scores_have_full_height_bytes(kind, d, dtype):
    vectors, index, queries = build(kind, 0, d, dtype)
    exact = index.vectors
    assert len(exact) % ROW_BLOCK == 0
    for query in queries:
        scores, classes = index.scan(query, np.arange(index.n_cells))
        assert np.array_equal(np.sort(classes), np.arange(len(vectors)))
        assert scores.tobytes() == (exact @ query)[classes].tobytes()


@pytest.mark.parametrize("B", [1, 2, 5])
@pytest.mark.parametrize("kind", CATALOGUES)
def test_row_answer_does_not_depend_on_batch(kind, B, dtype):
    """A row's probe set and scores are its own: no batched centroid product."""
    vectors, index, queries = build(kind, 1, 32, dtype)
    pipeline = RetrievalPipeline(None, index)
    seen = seen_for(vectors, queries, np.random.default_rng(B))[:B]
    for seen_classes in (None, seen):
        batched = pipeline.rank_queries(queries[:B], 7, seen_classes=seen_classes)
        for row in range(B):
            alone = pipeline.rank_queries(
                queries[row : row + 1], 7, seen_classes=None if seen_classes is None else [seen[row]]
            )
            assert np.array_equal(batched[row], alone[0])


@pytest.mark.parametrize("kind", CATALOGUES)
def test_cell_major_layout(kind, dtype):
    vectors, index, _ = build(kind, 3, 8, dtype)
    sizes = index.list_sizes()
    blocks = np.diff(index.cell_starts)
    assert (blocks % ROW_BLOCK == 0).all()
    assert ((blocks - sizes >= 0) & (blocks - sizes < ROW_BLOCK)).all()
    for cell, members in enumerate(index.lists):
        a, b = index.cell_starts[cell], index.cell_starts[cell + 1]
        assert members.base is index.cell_classes
        assert np.array_equal(members, np.sort(members))
        assert np.array_equal(index.cell_vectors[a : a + len(members)], vectors[members])
        assert (index.cell_classes[a + len(members) : b] == -1).all()
        assert not index.cell_vectors[a + len(members) : b].any()
    # ``vectors`` is a class-ordered copy, not a view of the blocks.
    assert np.array_equal(index.vectors, vectors)
    assert not np.shares_memory(index.vectors, index.cell_vectors)
