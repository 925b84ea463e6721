"""Online serving: incremental session tracking and live recommendations.

The training stack works on complete sessions; a production recommender
sees *events* — "user U did operation O on item V" — and must answer
"top-K next items for U?" at any moment. :class:`RecommenderService` keeps
per-session state (with the same merge-successive semantics as training,
Sec. II-B), maps raw item ids through the training vocabulary, and scores
sessions in batches against any fitted :class:`~repro.eval.Recommender`.

Example
-------
>>> service = RecommenderService(recommender, dataset.vocab, num_ops=10)
>>> service.record("u1", item=1042, operation=3)
>>> service.record("u1", item=1042, operation=8)
>>> service.top_k("u1", k=5)
[...five raw item ids...]
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .data.dataset import collate
from .data.preprocess import ItemVocab
from .data.schema import MacroSession
from .eval.recommender import Recommender
from .eval.topk import top_k_indices

__all__ = ["LiveSession", "RecommenderService"]


@dataclass
class LiveSession:
    """Mutable per-user session state (dense ids, merged macro steps)."""

    macro_items: list[int] = field(default_factory=list)
    op_sequences: list[list[int]] = field(default_factory=list)
    last_event_at: float = 0.0
    dropped_events: int = 0  # events whose item was unknown to the vocab

    def record(self, dense_item: int, operation: int, at: float) -> None:
        if self.macro_items and self.macro_items[-1] == dense_item:
            self.op_sequences[-1].append(operation)
        else:
            self.macro_items.append(dense_item)
            self.op_sequences.append([operation])
        self.last_event_at = at

    @property
    def num_macro_steps(self) -> int:
        return len(self.macro_items)

    def window(self, max_macro_len: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """The (items, op-sequences) slice the model actually scores.

        Truncation to the most recent ``max_macro_len`` macro steps matches
        training-time preprocessing; both :meth:`to_example` and everything
        that must agree with scoring semantics (seen-item masking, cache
        fingerprints) derive from this one helper.
        """
        items = tuple(self.macro_items[-max_macro_len:])
        ops = tuple(tuple(o) for o in self.op_sequences[-max_macro_len:])
        return items, ops

    def fingerprint(self, max_macro_len: int) -> tuple:
        """Hashable identity of the scoreable state (for score caches)."""
        return self.window(max_macro_len)

    def to_example(self, max_macro_len: int) -> MacroSession:
        """Snapshot as a scoreable example (target is a placeholder)."""
        items, ops = self.window(max_macro_len)
        return MacroSession(list(items), [list(o) for o in ops], target=1)


class RecommenderService:
    """Serve top-K recommendations over live micro-behavior streams.

    Parameters
    ----------
    recommender:
        Any fitted :class:`Recommender` (EMBSR, a baseline, ...).
    vocab:
        The training :class:`ItemVocab`; raw event item ids are mapped
        through it and unknown items are counted but ignored (cold items
        have no embedding — the paper's closed-set setting).
    num_ops:
        Size of the operation vocabulary; out-of-range operations raise.
    max_macro_len:
        Sessions are truncated to their most recent steps, matching
        training-time preprocessing.
    session_ttl:
        Seconds of inactivity after which :meth:`sweep_expired` evicts a
        session (session segmentation by inactivity gap).
    """

    def __init__(
        self,
        recommender: Recommender,
        vocab: ItemVocab,
        num_ops: int,
        max_macro_len: int = 20,
        session_ttl: float = 1800.0,
        clock=time.monotonic,
        event_buffer=None,
    ):
        self.recommender = recommender
        self.vocab = vocab
        self.num_ops = num_ops
        self.max_macro_len = max_macro_len
        self.session_ttl = session_ttl
        self._clock = clock
        self._sessions: dict[str, LiveSession] = {}
        self.vocab_misses = 0  # unknown-item events from visitors with no session
        self.retrieval = None  # optional RetrievalPipeline (ANN candidate path)
        self.event_buffer = event_buffer  # optional EventRingBuffer (online training)
        self.deployment = None  # optional DeploymentManager (hot-swap/canary)
        self.compute = "native"  # or float16/int8 (QuantizedScorer)
        self._quantized = None  # QuantizedScorer when compute != "native"

    @classmethod
    def from_artifact(cls, artifact, retrieval: str = "exact", nprobe: int | None = None, **kwargs) -> "RecommenderService":
        """Boot a service from a model artifact — no dataset required.

        ``artifact`` is a :class:`~repro.artifacts.ModelArtifact` or a path
        to one; the bundle carries the recommender, the vocabulary, and the
        operation count, so this is the whole serving bootstrap.

        ``retrieval`` selects the scoring path: ``"exact"`` (full-catalogue
        scoring, the default), ``"ivf"`` / ``"ivfpq"`` (ANN candidate
        generation + exact re-rank), or ``"auto"`` (ANN from
        :data:`~repro.retrieval.AUTO_ANN_THRESHOLD` items up). The index is
        rebuilt deterministically from the artifact's stored
        :class:`~repro.retrieval.IndexSpec` when one exists.
        """
        from .artifacts import ModelArtifact, load_artifact

        bundle = artifact if isinstance(artifact, ModelArtifact) else load_artifact(artifact)
        service = cls(bundle.build(), bundle.vocab(), num_ops=bundle.spec.num_ops, **kwargs)
        service.enable_retrieval(retrieval, spec=bundle.retrieval_spec(), nprobe=nprobe)
        return service

    # ------------------------------------------------------------------
    def enable_retrieval(self, mode: str, spec=None, nprobe: int | None = None) -> str:
        """Resolve ``mode`` against the catalogue and attach the ANN path.

        Returns the concrete mode that ended up active ("exact" when the
        catalogue is below the auto threshold, or when ``mode="exact"``).
        """
        from .retrieval import IndexSpec, RetrievalPipeline, resolve_retrieval_kind

        kind = resolve_retrieval_kind(mode, len(self.vocab))
        if kind == "exact":
            self.retrieval = None
            return "exact"
        if spec is None:
            spec = IndexSpec(kind=kind)
        elif spec.kind != kind:
            from dataclasses import replace

            spec = replace(spec, kind=kind)
        self.retrieval = RetrievalPipeline.for_recommender(
            self.recommender, spec=spec, nprobe=nprobe
        )
        return kind

    @property
    def retrieval_mode(self) -> str:
        """"exact", "ivf", or "ivfpq" — whatever scores requests right now."""
        return "exact" if self.retrieval is None else self.retrieval.kind

    def enable_compute(self, mode: str, rerank_top: int = 128) -> str:
        """Select the inference precision of the exact scoring path.

        ``"native"`` scores through the recommender in the model's dtype
        (the default; float32 unless the model opted into float64).
        ``"float16"`` and ``"int8"`` snapshot the item matrix into a
        :class:`~repro.retrieval.quantize.QuantizedScorer` and finish
        with an exact float32 re-rank of the top candidates
        (docs/performance.md, "Quantized inference"). Raises ``ValueError``
        when the model lacks the ``encode_sessions`` factorization seam or
        when an ANN retrieval path is active (it owns candidate scoring).
        """
        from .retrieval.quantize import COMPUTE_MODES

        if mode not in COMPUTE_MODES:
            raise ValueError(f"compute must be one of {COMPUTE_MODES}, got {mode!r}")
        if mode == "native":
            self.compute, self._quantized = "native", None
            return mode
        if self.retrieval is not None:
            raise ValueError(
                "--compute requires exact retrieval; the ANN path already "
                "re-ranks its own candidate set"
            )
        self._quantized = self._build_quantized(mode, rerank_top)
        self.compute = mode
        return mode

    def _build_quantized(self, mode: str, rerank_top: int = 128):
        from .retrieval.quantize import QuantizedScorer
        from .retrieval.factorize import factorize

        fact = factorize(self.recommender.model)
        if fact is None:
            raise ValueError(
                f"{getattr(self.recommender, 'name', type(self.recommender).__name__)} "
                "does not expose encode_sessions(); quantized scoring needs the "
                "factorized head"
            )
        return QuantizedScorer(fact, compute=mode, rerank_top=rerank_top)

    def retrieval_scope(self):
        """Cache-key component for the active scoring configuration."""
        base = None if self.retrieval is None else self.retrieval.scope()
        if self.compute == "native":
            return base
        # Reduced-precision scores must never be served to (or from) a
        # cache entry produced under a different precision.
        return ("compute", self.compute, base)

    # ------------------------------------------------------------------
    def attach_deployment(self, manager) -> None:
        """Wire a :class:`~repro.deploy.DeploymentManager` into scoring."""
        self.deployment = manager

    def adopt_recommender(self, recommender: Recommender) -> None:
        """Replace the serving recommender (a promotion's final step).

        The ANN index, if any, belongs to the *old* model's embeddings, so
        it is rebuilt from the new one under the same spec; if the new
        model cannot be factorized, scoring degrades to exact rather than
        serving stale candidates.
        """
        self.recommender = recommender
        if self.retrieval is not None:
            from .retrieval import RetrievalPipeline

            old = self.retrieval
            try:
                self.retrieval = RetrievalPipeline.for_recommender(
                    recommender, spec=old.index.spec, nprobe=old.nprobe, observer=old.observer
                )
            except Exception:  # noqa: BLE001 — exact scoring is always correct
                self.retrieval = None
        if self._quantized is not None:
            # The snapshot belongs to the old weights; requantize the new
            # ones (or degrade to native if the new model can't factorize).
            try:
                self._quantized = self._build_quantized(
                    self.compute, self._quantized.rerank_top
                )
            except Exception:  # noqa: BLE001 — native scoring is always correct
                self.compute, self._quantized = "native", None

    def score_scope(self, session_id: str):
        """Cache-key component for *this session's* scoring configuration.

        Includes the serving generation (and canary arm) when a deployment
        manager is attached, so entries scored by a generation that was
        later demoted or superseded can never be served again — the scope
        no longer matches.
        """
        if self.deployment is None:
            return self.retrieval_scope()
        return self.deployment.scope_for(session_id, self.retrieval_scope())

    # ------------------------------------------------------------------
    def record(self, session_id: str, item: int, operation: int) -> bool:
        """Ingest one micro-behavior event.

        Returns ``True`` if the event was applied; ``False`` if the item is
        outside the training vocabulary. Unknown items never *create* a
        session — a crawler (or a flood of cold-item visitors) must not grow
        the session table — they only bump ``vocab_misses``, or the dropped
        count of an already-live session.
        """
        if not 0 <= operation < self.num_ops:
            raise ValueError(f"operation {operation} outside 0..{self.num_ops - 1}")
        now = self._clock()
        if item not in self.vocab:
            session = self._sessions.get(session_id)
            if session is None:
                self.vocab_misses += 1
            else:
                session.dropped_events += 1
                session.last_event_at = now
            return False
        session = self._sessions.setdefault(session_id, LiveSession())
        dense = self.vocab.encode(item)
        session.record(dense, operation, now)
        if self.event_buffer is not None:
            from .deploy.buffer import Event

            self.event_buffer.append(Event(session_id, dense, operation, now))
        return True

    def session(self, session_id: str) -> LiveSession | None:
        return self._sessions.get(session_id)

    def end_session(self, session_id: str) -> None:
        self._sessions.pop(session_id, None)

    def sweep_expired(self) -> int:
        """Evict sessions idle beyond the TTL; returns how many."""
        now = self._clock()
        expired = [
            sid
            for sid, s in self._sessions.items()
            if now - s.last_event_at > self.session_ttl
        ]
        for sid in expired:
            del self._sessions[sid]
        return len(expired)

    # ------------------------------------------------------------------
    def top_k(self, session_id: str, k: int = 10, exclude_seen: bool = False) -> list[int]:
        """Top-K raw item ids for one session (best first)."""
        return self.top_k_batch([session_id], k=k, exclude_seen=exclude_seen)[session_id]

    def top_k_batch(
        self,
        session_ids: list[str],
        k: int = 10,
        exclude_seen: bool = False,
    ) -> dict[str, list[int]]:
        """Score many sessions in one model call.

        Sessions with no scoreable events yield an empty list rather than
        an error — a brand-new visitor simply has no personalized ranking
        yet.

        With a deployment manager attached and a candidate live, sessions
        are partitioned by canary arm and each group scores against its
        own generation (the candidate always via the exact path). A
        candidate scoring *error* falls that group back to the incumbent
        and feeds the candidate breaker — callers never see it.
        """
        scoreable: list[str] = []
        examples: list[MacroSession] = []
        results: dict[str, list[int]] = {}
        for sid in session_ids:
            session = self._sessions.get(sid)
            if session is None or session.num_macro_steps == 0:
                results[sid] = []
                continue
            scoreable.append(sid)
            examples.append(session.to_example(self.max_macro_len))
        if not examples:
            return results

        deployment = self.deployment
        if deployment is None or deployment.candidate is None:
            results.update(
                self._score_group(self.recommender, self.retrieval, scoreable, examples, k, exclude_seen)
            )
            return results

        inc_ids: list[str] = []
        inc_examples: list[MacroSession] = []
        cand_ids: list[str] = []
        cand_examples: list[MacroSession] = []
        for sid, example in zip(scoreable, examples):
            arm = deployment.arm_for(sid)
            if arm is deployment.candidate:
                cand_ids.append(sid)
                cand_examples.append(example)
            else:
                inc_ids.append(sid)
                inc_examples.append(example)
        if inc_ids:
            results.update(
                self._score_group(self.recommender, self.retrieval, inc_ids, inc_examples, k, exclude_seen)
            )
        if cand_ids:
            candidate = deployment.candidate  # may have been demoted mid-batch
            try:
                if candidate is None:
                    raise LookupError("candidate demoted before scoring")
                results.update(
                    self._score_group(candidate.recommender, None, cand_ids, cand_examples, k, exclude_seen)
                )
            except Exception as error:  # noqa: BLE001 — incumbent always answers
                deployment.candidate_failure(error)
                results.update(
                    self._score_group(self.recommender, self.retrieval, cand_ids, cand_examples, k, exclude_seen)
                )
        return results

    def _score_group(
        self,
        recommender: Recommender,
        retrieval,
        scoreable: list[str],
        examples: list[MacroSession],
        k: int,
        exclude_seen: bool,
    ) -> dict[str, list[int]]:
        """Score one group of sessions against one generation's model."""
        results: dict[str, list[int]] = {}
        batch = collate(examples)
        if retrieval is not None:
            # ANN path: probe the index, exact re-rank the candidates. The
            # seen mask is applied inside the candidate scores (same -inf
            # semantics as the full path below).
            seen_classes = None
            if exclude_seen:
                seen_classes = []
                for sid in scoreable:
                    window_items, _ = self._sessions[sid].window(self.max_macro_len)
                    seen = sorted(
                        i - 1
                        for i in set(window_items)
                        if i - 1 < retrieval.index.n_items
                    )
                    seen_classes.append(np.asarray(seen, dtype=np.int64))
            ranked = retrieval.top_k_classes(batch, k, seen_classes=seen_classes)
            for row, sid in enumerate(scoreable):
                results[sid] = [self.vocab.decode(int(i) + 1) for i in ranked[row]]
            return results

        if self._quantized is not None and recommender is self.recommender:
            # Reduced-precision exact path (canary candidates above always
            # score native: their generation owns no quantized snapshot).
            scores = np.array(self._quantized.score_batch(batch), dtype=float)
        else:
            scores = np.array(recommender.score_batch(batch), dtype=float)
        for row, sid in enumerate(scoreable):
            if exclude_seen:
                # Mask only what the model actually scored: dense ids inside
                # the truncated window (items that scrolled out of a long
                # session are legitimately recommendable again), clipped to
                # the recommender's score width.
                window_items, _ = self._sessions[sid].window(self.max_macro_len)
                seen = [i - 1 for i in set(window_items) if i - 1 < scores.shape[1]]
                scores[row, seen] = -np.inf
        order = top_k_indices(scores, k)
        for row, sid in enumerate(scoreable):
            results[sid] = [self.vocab.decode(int(i) + 1) for i in order[row]]
        return results

    # ------------------------------------------------------------------
    @property
    def active_sessions(self) -> int:
        return len(self._sessions)
