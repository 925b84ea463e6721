"""EMBSR: the full model (paper Sec. IV, Fig. 2).

Pipeline for one batch:

1. **Sequential patterns** — each macro item's micro-operation sequence is
   GRU-encoded (Eqs. 3-4) and injected into a star multigraph GNN over the
   macro-item sequence (Eqs. 5-11), producing micro-behavior-aware item
   representations ``h^f`` and a session-global star vector.
2. **Dyadic relational patterns** — the micro-behavior sequence
   ``x_i = e_{v_i} + e_{o_i}`` (Eq. 12, items taken from ``h^f``) plus the
   star token ``x_s`` (Eq. 13) pass through operation-aware self-attention
   (Eqs. 14-17), yielding the global preference ``z_s``.
3. **Fusion & prediction** — ``z_s`` is gated against the recent interest
   ``x_t`` (Eq. 18) and scored against L2-normalized item embeddings
   (Eq. 19).

Every ablation and analysis variant in the paper (Tables IV, Figs. 4-6,
Supp. Table II) is a :class:`EMBSRConfig` away — see
``repro.core.variants``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Literal

import numpy as np

from ..autograd import Tensor, concat
from ..data.dataset import SessionBatch
from ..graphs import BatchGraph
from ..nn import GRU, Dropout, Embedding, Module
from .attention import OperationAwareSelfAttention
from .fusion import ConcatMLP, FixedBeta, FusionGate, ScorePredictor
from .gnn import StarMultigraphGNN
from .op_encoder import MicroOpEncoder

__all__ = ["EMBSRConfig", "EMBSR"]

EncoderKind = Literal["star_gnn", "rnn", "none"]
AttentionKind = Literal["dyadic", "absolute", "plain", "none"]
AttentionLevel = Literal["micro", "macro"]


@dataclass(frozen=True)
class EMBSRConfig:
    """Hyper-parameters and architecture switches for EMBSR and variants.

    The defaults describe the *full* EMBSR model; the switch fields carve
    out every ablation the paper studies.
    """

    num_items: int
    num_ops: int
    dim: int = 32
    num_layers: int = 1
    dropout: float = 0.1
    w_k: float = 12.0
    max_seq_len: int = 200
    seed: int = 0

    encoder: EncoderKind = "star_gnn"
    use_op_gru: bool = True
    attention: AttentionKind = "dyadic"
    attention_level: AttentionLevel = "micro"
    fusion: str = "gate"  # "gate" | "concat" | "fixed:<beta>"
    # The paper's Table I lists a single operation embedding matrix M^O
    # shared by the micro-op GRU and the attention input. At our training
    # scale the two consumers pull the shared table in conflicting
    # directions and measurably hurt both patterns, so the library defaults
    # to untied tables; set True for the paper's exact parameterization
    # (documented in DESIGN.md/README "Differences from the paper").
    tie_op_embeddings: bool = False

    def variant(self, **changes) -> "EMBSRConfig":
        """Return a copy with the given switches changed."""
        return replace(self, **changes)


class EMBSR(Module):
    """Encode Micro-Behaviors in Session-based Recommendation."""

    def __init__(self, config: EMBSRConfig):
        super().__init__()
        self.config = config
        rng = np.random.default_rng(config.seed)
        d = config.dim

        self.item_embedding = Embedding(config.num_items + 1, d, rng=rng, padding_idx=0)
        self.op_embedding = Embedding(config.num_ops + 1, d, rng=rng, padding_idx=0)

        if config.encoder == "star_gnn":
            self.op_encoder = MicroOpEncoder(d, rng=rng) if config.use_op_gru else None
            self.gru_op_embedding = (
                self.op_embedding
                if config.tie_op_embeddings
                else Embedding(config.num_ops + 1, d, rng=rng, padding_idx=0)
            )
            self.gnn = StarMultigraphGNN(d, num_layers=config.num_layers, rng=rng)
            self.rnn = None
        elif config.encoder == "rnn":
            self.op_encoder = None
            self.gnn = None
            self.rnn = GRU(d, d, rng=rng)
        elif config.encoder == "none":
            self.op_encoder = None
            self.gnn = None
            self.rnn = None
        else:
            raise ValueError(f"unknown encoder kind: {config.encoder}")

        if config.attention != "none":
            self.attention = OperationAwareSelfAttention(
                d,
                config.num_ops,
                config.max_seq_len,
                dropout=config.dropout,
                rng=rng,
            )
        else:
            self.attention = None

        if config.fusion == "gate":
            self.fusion = FusionGate(d, rng=rng)
        elif config.fusion == "concat":
            self.fusion = ConcatMLP(d, rng=rng)
        elif config.fusion.startswith("fixed:"):
            self.fusion = FixedBeta(float(config.fusion.split(":", 1)[1]))
        else:
            raise ValueError(f"unknown fusion kind: {config.fusion}")

        self.embed_dropout = Dropout(config.dropout, rng=rng)
        self.predictor = ScorePredictor(w_k=config.w_k)

    # ------------------------------------------------------------------
    def _encode_items(
        self, batch: SessionBatch, graph: BatchGraph
    ) -> tuple[Tensor, Tensor, Tensor]:
        """Run the configured sequential encoder.

        Returns ``(micro_reps, macro_reps, star)`` — item representations at
        each micro position [B, t, d], each macro position [B, n, d], and the
        session-global vector [B, d].
        """
        cfg = self.config
        B, n = batch.items.shape

        if cfg.encoder == "star_gnn":
            nodes0 = self.item_embedding(graph.node_items)  # [B, c, d]
            mask = Tensor(graph.node_mask[..., None])
            counts = Tensor(np.maximum(graph.node_mask.sum(axis=1, keepdims=True), 1.0))
            star0 = (nodes0 * mask).sum(axis=1) / counts  # Eq. 2
            if self.op_encoder is not None:
                htilde = self.op_encoder(self.gru_op_embedding, batch.ops, batch.op_mask)
            else:
                htilde = Tensor(np.zeros((B, n, cfg.dim)))
            h_f, star = self.gnn(nodes0, star0, htilde, graph)
            micro_reps = Tensor(graph.micro_gather) @ h_f
            macro_reps = Tensor(graph.gather) @ h_f
            return micro_reps, macro_reps, star

        if cfg.encoder == "rnn":
            inputs = self.item_embedding(batch.micro_items) + self.op_embedding(batch.micro_ops)
            outputs, final = self.rnn(inputs, mask=batch.micro_mask)
            macro_reps = self.item_embedding(batch.items)
            return outputs, macro_reps, final

        # encoder == "none" (EMBSR-NG): raw embeddings, mean-pooled star.
        micro_reps = self.item_embedding(batch.micro_items)
        macro_reps = self.item_embedding(batch.items)
        m = Tensor(batch.micro_mask[..., None])
        counts = Tensor(np.maximum(batch.micro_mask.sum(axis=1, keepdims=True), 1.0))
        star = (micro_reps * m).sum(axis=1) / counts
        return micro_reps, macro_reps, star

    # ------------------------------------------------------------------
    def encode_sessions(self, batch: SessionBatch, graph: BatchGraph | None = None) -> Tensor:
        """[B, d] session representations m (Eq. 16) — the scoring-head queries."""
        cfg = self.config
        if graph is None and cfg.encoder == "star_gnn":
            graph = BatchGraph.from_batch(batch)
        micro_reps, macro_reps, star = self._encode_items(batch, graph)
        B = batch.batch_size

        if cfg.attention_level == "micro":
            seq_reps = micro_reps
            seq_ops = batch.micro_ops
            seq_mask = batch.micro_mask
            last_index = batch.micro_lengths() - 1
        else:
            seq_reps = macro_reps
            # Represent each macro step by its last micro-operation.
            lengths = batch.op_mask.sum(axis=2).astype(np.int64)
            rows = np.arange(batch.max_macro_len)
            seq_ops = batch.ops[
                np.arange(B)[:, None], rows[None, :], np.maximum(lengths - 1, 0)
            ]
            seq_ops = seq_ops * (lengths > 0)
            seq_mask = batch.item_mask
            last_index = batch.macro_lengths() - 1

        # Eq. 12: x_i = e_{v_i} + e_{o_i} (operation part only when the
        # variant uses micro-operation information in the attention input).
        x_seq = seq_reps
        if cfg.attention in ("dyadic", "absolute"):
            x_seq = x_seq + self.op_embedding(seq_ops)
        x_seq = self.embed_dropout(x_seq)

        # Eq. 13: star token; the unknown next operation o_{t+1} is proxied
        # by the last observed operation (teacher signals would leak).
        x_star = star
        if cfg.attention in ("dyadic", "absolute") or (
            cfg.attention == "none" and cfg.use_op_gru
        ):
            x_star = x_star + self.op_embedding(batch.last_op)

        if self.attention is not None:
            full_x = concat([x_star.unsqueeze(1), x_seq], axis=1)  # star at idx 0
            full_ops = np.concatenate([batch.last_op[:, None], seq_ops], axis=1)
            full_mask = np.concatenate([np.ones((B, 1)), seq_mask], axis=1)
            z_s = self.attention(
                full_x, full_ops, full_mask, use_dyadic=cfg.attention == "dyadic"
            )
        else:
            # EMBSR-NS: sequential patterns only; the star vector itself is
            # the global preference.
            z_s = x_star

        # Recent interest x_t: representation of the last micro-behavior.
        x_t = x_seq[np.arange(B), last_index, :]

        return self.fusion(z_s, x_t)

    def forward(self, batch: SessionBatch, graph: BatchGraph | None = None) -> Tensor:
        """Score all items for each session; returns [B, num_items] logits."""
        m = self.encode_sessions(batch, graph)
        return self.predictor(m, self.item_embedding.weight)
