"""IVF(-PQ) candidate-generation index over the item embedding table.

The catalogue's scoring-space item vectors (see
:mod:`repro.retrieval.factorize`) are partitioned into ``cells`` coarse
clusters by seeded spherical k-means and stored **cell-major**: each
cell's members are one contiguous, zero-padded block of
``cell_vectors``. A query ranks the cell centroids, and the exact re-rank
(:mod:`repro.retrieval.pipeline`) scores each of its best ``nprobe``
cells in place with one matvec per block. With ``kind="ivfpq"`` a
product-quantization codebook over cell residuals shortlists inside the
probed cells first, so the exact re-rank touches only ``rerank`` rows.

Indexes are **rebuilt, not stored**: :class:`IndexSpec` (a few integers +
a seed) is recorded in the model artifact's metadata via
``repro.artifacts.store_retrieval_spec``, and :func:`build_index` is a
pure function of ``(item_vectors, spec)`` — same artifact, same spec,
bit-identical index in any process (``tests/retrieval/test_index.py``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from ..eval.topk import top_k_indices
from .kmeans import spherical_kmeans
from .pq import PQCodebook

__all__ = [
    "AUTO_ANN_THRESHOLD",
    "INDEX_KINDS",
    "IndexSpec",
    "IVFIndex",
    "build_index",
    "default_spec",
    "resolve_retrieval_kind",
]

# Catalogue size beyond which ``repro serve --retrieval auto`` switches from
# exact full scoring to ANN candidate generation. Full scoring is benched
# comfortably fast up to ~10^5 items (bench_supp3_topk.py); past that the
# per-request matmul dominates the latency budget.
AUTO_ANN_THRESHOLD = 100_000

INDEX_KINDS = ("ivf", "ivfpq")

# Each cell's block of ``cell_vectors`` is zero-padded to a multiple of this
# many rows. OpenBLAS's gemv (0.3.31, Haswell kernels) computes a call's rows
# four at a time and its last ``M mod 4`` rows with a tail kernel whose bytes
# differ: a height-7 call changes rows 5 and 6, while 40 identical rows at
# block positions give one value. On the 50,000 x 32 ``serve_catalog``
# catalogue (224 cells, nprobe 28, 200 queries) unpadded blocks differ from
# the full-height ``vectors @ q`` in 200/200 queries and 4-row blocks in
# 0/200 (also 0/200 against the exact path's ``q[None] @ vectors.T``), so a
# probed cell scores its items with the bytes exact scoring gives them. The
# padding costs at most three zero rows per cell (+0.67 % rows there).
# sgemv blocks the same way. One BLAS thread, a 50,000 x 32 catalogue and
# 200 random cells of 1-399 rows starting on a block boundary: blocks padded
# to 4 rows differ in bytes from the full-height product in 0/200 cells in
# float32 (0/200 in float64), to 2 rows in 75/200 (81/200) and unpadded in
# 119/200 (122/200); ``q[None] @ vectors.T`` differs from it in 0/200 in
# both dtypes. So the constant holds for the float32 blocks models serve.
ROW_BLOCK = 4

_NON_NEGATIVE = ("cells", "nprobe", "pq_m", "iters", "train_size", "rerank")
_AUTO_WHEN_ZERO = ("cells", "nprobe", "pq_m")


@dataclass(frozen=True)
class IndexSpec:
    """Everything needed to rebuild an index deterministically.

    ``cells=0`` / ``nprobe=0`` mean "auto": resolved against the catalogue
    size by :meth:`resolve` (and the resolved values are what artifacts
    record, so a bundle's metadata always names the exact build).
    """

    kind: str = "ivf"            # "ivf" | "ivfpq"
    cells: int = 0               # coarse clusters; 0 = ~sqrt(n)
    nprobe: int = 0              # cells scanned per query; 0 = max(1, cells // 8)
    seed: int = 0
    train_size: int = 131072     # k-means training sample bound
    iters: int = 20              # coarse k-means iterations
    pq_m: int = 0                # PQ subspaces; 0 = auto (dim // 4), ivfpq only
    pq_bits: int = 8             # 2^bits codes per subspace
    rerank: int = 512            # exact re-rank shortlist size, ivfpq only

    def __post_init__(self):
        if self.kind not in INDEX_KINDS:
            raise ValueError(f"kind must be one of {INDEX_KINDS}, got {self.kind!r}")
        for name in _NON_NEGATIVE:
            value = getattr(self, name)
            if value is not None and value < 0:
                auto = " (0 = auto)" if name in _AUTO_WHEN_ZERO else ""
                raise ValueError(f"IndexSpec.{name} must be >= 0{auto}, got {value}")
        if self.pq_bits < 1:
            raise ValueError(f"IndexSpec.pq_bits must be >= 1, got {self.pq_bits}")

    def resolve(self, n_items: int, dim: int) -> "IndexSpec":
        """Fill the auto (0) fields for a concrete catalogue."""
        cells = self.cells or max(1, min(n_items, int(round(float(n_items) ** 0.5))))
        cells = min(cells, n_items)
        nprobe = min(self.nprobe or max(1, cells // 8), cells)
        pq_m = self.pq_m
        pq_bits = self.pq_bits
        if self.kind == "ivfpq":
            if pq_m == 0:
                pq_m = next((m for m in (dim // 4, dim // 2, dim) if m and dim % m == 0), 1)
            # A sub-codebook cannot have more centroids than training points.
            pq_bits = min(pq_bits, max(1, n_items.bit_length() - 1))
        return replace(self, cells=cells, nprobe=nprobe, pq_m=pq_m, pq_bits=pq_bits)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "IndexSpec":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})


def default_spec(n_items: int, dim: int, kind: str = "ivf") -> IndexSpec:
    """The auto spec ``repro serve`` builds when the artifact records none."""
    return IndexSpec(kind=kind).resolve(n_items, dim)


def resolve_retrieval_kind(requested: str, n_items: int) -> str:
    """Map a ``--retrieval`` flag onto a concrete mode.

    ``auto`` picks exact scoring below :data:`AUTO_ANN_THRESHOLD` items and
    IVF at or above it; explicit modes pass through (and are validated).
    """
    if requested == "auto":
        return "ivf" if n_items >= AUTO_ANN_THRESHOLD else "exact"
    if requested not in ("exact",) + INDEX_KINDS:
        raise ValueError(
            f"unknown retrieval mode {requested!r}; expected exact, auto, "
            + ", or ".join(INDEX_KINDS)
        )
    return requested


class IVFIndex:
    """Inverted-file index: unit centroids + a cell-major copy of the items.

    Cell ``c`` owns rows ``cell_starts[c]:cell_starts[c + 1]`` of
    ``cell_vectors``: its members in ascending class order, then zero rows
    up to a multiple of :data:`ROW_BLOCK`, in the item vectors' dtype.
    ``cell_classes`` names the item class of every row (``-1`` on padding),
    and ``lists[c]`` is the view of cell ``c``'s real classes in it. This block layout is the only copy of
    the item vectors the index holds; :attr:`vectors` gathers a
    class-ordered one on demand.
    """

    def __init__(
        self,
        spec: IndexSpec,
        centroids: np.ndarray,
        cell_vectors: np.ndarray,
        cell_classes: np.ndarray,
        cell_starts: np.ndarray,
        cell_means: np.ndarray,
        pq: PQCodebook | None = None,
    ):
        self.spec = spec
        self.centroids = centroids
        self.cell_vectors = cell_vectors
        self.cell_classes = cell_classes
        self.cell_starts = cell_starts
        self.cell_means = cell_means
        self.pq = pq
        bounds = list(zip(cell_starts[:-1].tolist(), cell_starts[1:].tolist()))
        self._blocks = [cell_vectors[a:b] for a, b in bounds]
        self.lists = [
            cell_classes[a : a + int(np.count_nonzero(cell_classes[a:b] >= 0))]
            for a, b in bounds
        ]
        self._sizes = np.array([len(members) for members in self.lists], dtype=np.int64)
        rows = np.flatnonzero(cell_classes >= 0)
        self._row_of = np.empty(len(rows), dtype=np.int64)
        self._row_of[cell_classes[rows]] = rows
        self._cell_of = np.empty(len(rows), dtype=np.int64)
        for cell, members in enumerate(self.lists):
            self._cell_of[members] = cell

    # ------------------------------------------------------------------
    @property
    def n_items(self) -> int:
        return len(self._row_of)

    @property
    def n_cells(self) -> int:
        return self.centroids.shape[0]

    @property
    def vectors(self) -> np.ndarray:
        """A class-ordered ``[n_items, d]`` copy of the item vectors.

        Row ``i`` scores item class ``i`` (item id ``i + 1``). Every access
        gathers a fresh copy from ``cell_vectors``: take it once per use.
        """
        return self.cell_vectors[self._row_of]

    def list_sizes(self) -> np.ndarray:
        return self._sizes.copy()

    def memory_bytes(self) -> int:
        """Index-only footprint (centroids + lists + codes), vectors excluded."""
        total = self.centroids.nbytes + self.cell_means.nbytes
        total += sum(l.nbytes for l in self.lists)
        if self.pq is not None:
            total += self.pq.codebooks.nbytes + self.pq.codes.nbytes
        return int(total)

    def resolve_nprobe(self, nprobe: int | None) -> int:
        """Cells to probe: ``nprobe``, or the spec's when 0/None, capped at ``cells``."""
        if nprobe is not None and nprobe < 0:
            raise ValueError(f"nprobe must be >= 0 (0 = the index spec's), got {nprobe}")
        return min(nprobe or self.spec.nprobe, self.n_cells)

    # ------------------------------------------------------------------
    def probe_cells(
        self, query: np.ndarray, nprobe: int | None = None, min_candidates: int = 0
    ) -> np.ndarray:
        """The cells one query scans, best centroid dot product first.

        Probing widens deterministically (next-best cells) past ``nprobe``
        until the cells hold at least ``min_candidates`` items, so a request
        for ``k`` items never starves on unluckily small cells. It takes one
        query: a batched ``[B, cells]`` centroid product has different
        bytes, so a row's probe set would depend on the rows batched with it.
        """
        nprobe = self.resolve_nprobe(nprobe)
        ranked = top_k_indices(query @ self.centroids.T, self.n_cells)
        held = np.cumsum(self._sizes[ranked])
        probed = max(nprobe, int(np.searchsorted(held, min_candidates)) + 1)
        return ranked[: min(probed, self.n_cells)]

    def candidates(
        self, query: np.ndarray, nprobe: int | None = None, min_candidates: int = 0
    ) -> tuple[np.ndarray, int]:
        """Ascending candidate classes for one query, plus cells probed
        (the cells of :meth:`probe_cells`)."""
        cells = self.probe_cells(query, nprobe, min_candidates)
        merged = np.concatenate([self.lists[c] for c in cells])
        merged.sort()  # ascending classes keep the re-rank's tie order exact
        return merged, len(cells)

    def scan(self, query: np.ndarray, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact scores of every item in ``cells``, and their classes.

        One matvec per cell over its whole padded block, cut back to the
        real rows: no rows are gathered, and every score has the bytes of
        the full-height ``vectors @ query`` (see :data:`ROW_BLOCK`). Items
        come in ``cells`` order, ascending class within a cell.
        """
        picked = cells.tolist()
        scores = np.concatenate(
            [(self._blocks[c] @ query)[: self._sizes[c]] for c in picked]
        )
        return scores, np.concatenate([self.lists[c] for c in picked])

    def gather_scores(self, query: np.ndarray, classes: np.ndarray) -> np.ndarray:
        """Exact scores of ``classes``, gathering their rows by position."""
        return self.cell_vectors[self._row_of[classes]] @ query

    def shortlist(
        self,
        query: np.ndarray,
        candidates: np.ndarray,
        rerank: int | None = None,
    ) -> np.ndarray:
        """PQ ADC shortlist of ``candidates`` (ascending classes), or all of
        them when the index carries no codebook / they already fit."""
        rerank = rerank or self.spec.rerank
        if self.pq is None or len(candidates) <= rerank:
            return candidates
        # One [cells, d] matvec then an integer gather — materializing
        # cell_means[cells] would cost as much as gathering the real vectors.
        means_dot = self.cell_means @ query
        approx = means_dot[self._cell_of[candidates]] + self.pq.approx_scores(
            self.pq.lookup_tables(query), candidates
        )
        keep = candidates[top_k_indices(approx, rerank)]
        keep.sort()
        return keep

    # ------------------------------------------------------------------
    def signature(self) -> dict:
        """Cheap content fingerprint used by rebuild-determinism tests."""
        return {
            "centroid_sum": float(self.centroids.sum()),
            "list_sizes": self.list_sizes().tolist(),
            "codes_sum": int(self.pq.codes.sum()) if self.pq is not None else 0,
        }


def build_index(item_vectors: np.ndarray, spec: IndexSpec) -> IVFIndex:
    """Deterministically build an :class:`IVFIndex` from scoring-space vectors.

    A pure function: the same ``(item_vectors, spec)`` produce bit-identical
    centroids, cell blocks, and PQ codes in any process. The index copies
    the vectors into its cell-major blocks, stored in their own dtype (a
    float32 model keeps no float64 item matrix), and keeps no reference to
    ``item_vectors``. Clustering and PQ training run in float64.
    """
    items = np.asarray(item_vectors)
    vectors = np.ascontiguousarray(items, dtype=np.float64)
    n, dim = vectors.shape
    spec = spec.resolve(n, dim)
    rng = np.random.default_rng(spec.seed)
    if n > spec.train_size:
        train = vectors[np.sort(rng.choice(n, size=spec.train_size, replace=False))]
    else:
        train = vectors
    coarse = spherical_kmeans(train, spec.cells, seed=spec.seed, iters=spec.iters)
    from .kmeans import assign_spherical, _normalize_rows  # noqa: PLC0415

    assignments = assign_spherical(_normalize_rows(vectors), coarse.centroids)
    lists = [np.flatnonzero(assignments == cell) for cell in range(spec.cells)]
    padded = [-(-len(members) // ROW_BLOCK) * ROW_BLOCK for members in lists]
    cell_starts = np.concatenate([[0], np.cumsum(padded)]).astype(np.int64)
    cell_dtype = np.promote_types(items.dtype, np.float32)
    cell_vectors = np.zeros((int(cell_starts[-1]), dim), dtype=cell_dtype)
    cell_classes = np.full(int(cell_starts[-1]), -1, dtype=np.int64)
    cell_means = np.zeros((spec.cells, dim), dtype=np.float64)
    for cell, members in enumerate(lists):
        if len(members):
            rows = slice(cell_starts[cell], cell_starts[cell] + len(members))
            cell_vectors[rows] = items[members]
            cell_classes[rows] = members
            cell_means[cell] = vectors[members].mean(axis=0)
    pq = None
    if spec.kind == "ivfpq":
        residuals = vectors - cell_means[assignments]
        pq = PQCodebook.train(
            residuals,
            spec.pq_m,
            spec.pq_bits,
            seed=spec.seed,
            train_size=spec.train_size,
        )
    return IVFIndex(spec, coarse.centroids, cell_vectors, cell_classes, cell_starts, cell_means, pq)
