"""Synthetic micro-behavior session generators.

The paper evaluates on two JD.com clickstream dumps and the RecSys Challenge
2019 (trivago) log, none of which can be downloaded in this offline
environment. These generators produce the closest synthetic equivalents; the
substitution is documented in DESIGN.md section 2.

The generative story plants exactly the structure the paper's experiments
measure:

* **Latent personas.** Each session is driven by a hidden (category,
  persona) pair. The persona is observable *only* through the
  micro-operations (e.g. a "researcher" reads comments before carting, a
  "direct buyer" orders straight away — the paper's Fig. 1 example), and the
  next item depends on the persona. Macro-only models therefore face an
  identifiability gap that micro-behavior models can close; this is the
  effect Table III measures.
* **Strongest-signal repeats (JD-like only).** With probability
  ``repeat_prob`` the ground-truth next item is the session item that
  received the strongest operation (Order > Cart > comments > ...). This
  makes S-POP competitive on JD-like data, exactly as in Table III.
* **Exploration targets (trivago-like).** The ground truth is drawn from
  *unseen* items, which reproduces the paper's observation that S-POP scores
  zero on trivago and that H@K improvements there are larger than M@K ones.
* **Item-transition structure.** Macro items follow a within-category random
  walk with Zipf popularity and occasional revisits (revisits are what make
  the session graph a *multigraph* — Fig. 3).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .schema import (
    JD_OPERATIONS,
    TRIVAGO_OPERATIONS,
    Interaction,
    OperationVocab,
    Session,
)

__all__ = [
    "Persona",
    "GeneratorConfig",
    "SyntheticSessionGenerator",
    "jd_appliances_config",
    "jd_computers_config",
    "trivago_config",
    "generate_dataset",
]


@dataclass
class Persona:
    """A latent user type, defined entirely in operation space.

    ``entry_probs`` chooses how the user locates an item (the first
    micro-operation of every macro step); ``transition`` is a Markov chain
    over operations for subsequent micro-operations on the same item;
    ``stop_prob`` ends the per-item operation chain.
    """

    name: str
    entry_probs: dict[int, float]
    transition: dict[int, dict[int, float]]
    stop_prob: float = 0.45
    max_ops_per_item: int = 4


@dataclass
class GeneratorConfig:
    """Knobs for :class:`SyntheticSessionGenerator`."""

    name: str
    operations: OperationVocab
    personas: list[Persona]
    num_items: int = 600
    num_categories: int = 12
    zipf_exponent: float = 1.2
    min_macro_len: int = 2
    max_macro_len: int = 10
    mean_macro_len: float = 4.5
    category_jump_prob: float = 0.12
    revisit_prob: float = 0.18
    repeat_prob: float = 0.45          # P(target is an already-seen item)
    noise_prob: float = 0.15           # P(target is popularity-random in category)
    targets_per_context: int = 4       # size of each (category, persona) target pool
    pool_zipf_exponent: float = 1.0    # concentration of target choice within a pool
    op_strength: dict[int, float] = field(default_factory=dict)
    # P(session is a low-signal "drifter"): short, one uninformative
    # micro-operation per item — the cold/sparse regime the EMBSR-SSL
    # ablation measures (benchmarks/bench_ssl_ablation.py). At the default
    # 0.0 the generator consumes exactly the same RNG draws as before the
    # knob existed, so existing datasets stay bit-identical.
    sparsity: float = 0.0

    @property
    def num_operations(self) -> int:
        return len(self.operations)


def _drifter_persona(personas: list[Persona]) -> Persona:
    """The low-signal persona sparse sessions fall back to.

    One uniformly-drawn entry operation per item and nothing else: the
    micro-operations carry no persona information, so models must lean on
    item-representation quality alone — the regime where the contrastive
    objective (docs/objectives.md) is expected to help.
    """
    entry_ops = sorted({op for p in personas for op in p.entry_probs})
    return Persona(
        name="drifter",
        entry_probs={op: 1.0 for op in entry_ops},
        transition={},
        stop_prob=1.0,
        max_ops_per_item=1,
    )


class _Categorical:
    """A fixed distribution over ``values``, validated once, drawn many times.

    :meth:`draw` consumes one ``rng.random()`` and returns what
    ``rng.choice(values, p=weights / weights.sum())`` returns for one draw
    from the same stream: ``Generator.choice`` builds the same normalised
    CDF and calls ``cdf.searchsorted(u, side="right")``, and
    ``bisect_right`` over the CDF's floats is that search without a NumPy
    call per draw. The CDF is built and ``p`` checked once, not per draw
    (``tests/data/test_synthetic_sampler.py`` holds ``rng.choice`` as
    the oracle).
    """

    __slots__ = ("values", "cdf")

    def __init__(self, values, weights):
        values = np.asarray(values)
        weights = np.asarray(weights, dtype=float)
        if values.ndim != 1 or len(values) == 0 or weights.shape != values.shape:
            raise ValueError(
                f"need one weight per value and at least one value, got "
                f"{values.shape} values and {weights.shape} weights"
            )
        with np.errstate(invalid="ignore", divide="ignore"):
            p = weights / weights.sum()
        if not (np.isfinite(p).all() and (p >= 0).all()):
            raise ValueError(f"weights must be non-negative with a positive sum, got {weights}")
        cdf = p.cumsum()
        cdf /= cdf[-1]
        self.values = values.tolist()
        self.cdf = cdf.tolist()

    @classmethod
    def of(cls, probs: dict[int, float]) -> "_Categorical":
        keys = sorted(probs)
        return cls(keys, [probs[k] for k in keys])

    def draw(self, rng: np.random.Generator) -> int:
        return self.values[bisect_right(self.cdf, rng.random())]


class _OpChain:
    """A persona's operation distributions: entry and per-operation transitions."""

    __slots__ = ("entry", "transition")

    def __init__(self, persona: Persona):
        self.entry = _Categorical.of(persona.entry_probs)
        self.transition = {
            op: _Categorical.of(row) for op, row in persona.transition.items() if row
        }


class SyntheticSessionGenerator:
    """Draws micro-behavior sessions from the latent-persona process."""

    def __init__(self, config: GeneratorConfig, seed: int = 0):
        self.config = config
        self.rng = np.random.default_rng(seed)
        self._drifter = _drifter_persona(config.personas)  # consumes no RNG
        # Every distribution is built once here (none consumes RNG); a
        # persona's chain is keyed by the object, which the config keeps.
        self._chains = {
            id(persona): _OpChain(persona) for persona in [*config.personas, self._drifter]
        }
        self._build_catalogue()
        self._build_target_pools()

    # ------------------------------------------------------------------
    def _build_catalogue(self) -> None:
        cfg = self.config
        items = np.arange(cfg.num_items)
        self.category_of = items % cfg.num_categories
        self.items_in_category = [
            items[self.category_of == c] for c in range(cfg.num_categories)
        ]
        # Zipf popularity within each category.
        self._category_pop = []
        for members in self.items_in_category:
            ranks = np.arange(1, len(members) + 1, dtype=float)
            self._category_pop.append(_Categorical(members, ranks ** (-cfg.zipf_exponent)))

    def _build_target_pools(self) -> None:
        """Assign each (category, persona) a preferred pool of next items.

        Pools are *disjoint* across personas within a category: a model that
        cannot identify the persona (i.e. a macro-only model) must spread
        probability mass over every persona's pool, which is exactly the
        identifiability gap Table III measures.
        """
        cfg = self.config
        self.target_pool: dict[tuple[int, int], np.ndarray] = {}
        num_personas = len(cfg.personas)
        for c in range(cfg.num_categories):
            members = self.rng.permutation(self.items_in_category[c])
            pool_size = min(cfg.targets_per_context, len(members) // num_personas)
            pool_size = max(pool_size, 1)
            for p in range(num_personas):
                start = p * pool_size
                self.target_pool[(c, p)] = members[start : start + pool_size]
        ranks = np.arange(1, max(len(v) for v in self.target_pool.values()) + 1, dtype=float)
        weights = ranks ** (-cfg.pool_zipf_exponent)
        # Rank-position draws, one per pool length (the exploration regime
        # draws from pools with their seen items removed).
        self._pool_ranks = {
            length: _Categorical(np.arange(length), weights[:length])
            for length in range(1, len(ranks) + 1)
        }

    def _sample_from_pool(self, pool: np.ndarray) -> int:
        """Zipf-weighted draw so pools are learnable from few sessions."""
        return int(pool[self._pool_ranks[len(pool)].draw(self.rng)])

    # ------------------------------------------------------------------
    def _sample_macro_length(self) -> int:
        cfg = self.config
        length = int(self.rng.geometric(1.0 / cfg.mean_macro_len))
        return min(max(length, cfg.min_macro_len), cfg.max_macro_len)

    def _sample_item(self, category: int, exclude: int | None = None) -> int:
        popularity = self._category_pop[category]
        item = popularity.draw(self.rng)
        if exclude is not None and item == exclude and len(popularity.values) > 1:
            item = popularity.draw(self.rng)
        return item

    def _sample_ops(self, persona: Persona) -> list[int]:
        chain = self._chains[id(persona)]
        ops = [chain.entry.draw(self.rng)]
        while len(ops) < persona.max_ops_per_item:
            if self.rng.random() < persona.stop_prob:
                break
            row = chain.transition.get(ops[-1])
            if row is None:
                break
            ops.append(row.draw(self.rng))
        return ops

    def _strongest_item(self, items: list[int], op_lists: list[list[int]]) -> int:
        """The non-final item whose operation chain *ends* strongest.

        The signal is deliberately order-sensitive: an item whose chain ends
        at Cart/Order ("left in the cart") outranks one where the user
        carted and then kept browsing ("reconsidered") even though both
        chains contain a Cart — so recovering it requires encoding the
        *sequential pattern* of micro-operations (Eqs. 3-4), not just their
        multiset. Skipping the final item keeps the signal intact after the
        leakage-avoidance rule; ties resolve to the most recent qualifier.
        """
        strength = self.config.op_strength
        last = items[-1]
        best_item, best_score = None, -1.0
        for item, ops in zip(items, op_lists):
            if item == last:
                continue
            score = strength.get(ops[-1], 0.0)
            if score >= best_score:
                best_item, best_score = item, score
        return best_item if best_item is not None else last

    def _sample_target(
        self,
        category: int,
        persona_id: int,
        items: list[int],
        op_lists: list[list[int]],
    ) -> int:
        cfg = self.config
        roll = self.rng.random()
        if roll < cfg.noise_prob:
            return self._sample_item(category)
        if roll < cfg.noise_prob + cfg.repeat_prob:
            return self._strongest_item(items, op_lists)
        pool = self.target_pool[(category, persona_id)]
        if cfg.repeat_prob == 0.0:
            # Exploration regime: prefer unseen items (trivago-like).
            seen = set(items)
            unseen = np.array([i for i in pool if i not in seen])
            if len(unseen):
                return self._sample_from_pool(unseen)
        return self._sample_from_pool(pool)

    # ------------------------------------------------------------------
    def generate_session(self, session_id: int = 0) -> Session:
        """Draw one full session; its last macro item is the ground truth."""
        cfg = self.config
        category = int(self.rng.integers(cfg.num_categories))
        persona_id = int(self.rng.integers(len(cfg.personas)))
        persona = cfg.personas[persona_id]
        # Short-circuit keeps the draw count unchanged at sparsity=0.0
        # (bit-identical datasets for every pre-existing config).
        drifter = cfg.sparsity > 0.0 and self.rng.random() < cfg.sparsity
        if drifter:
            persona = self._drifter

        macro_len = self._sample_macro_length()
        if drifter:
            # Cold sessions are short as well as micro-sparse.
            macro_len = min(macro_len, cfg.min_macro_len + 1)
        items: list[int] = []
        op_lists: list[list[int]] = []
        current_category = category
        for _ in range(macro_len):
            if items and self.rng.random() < cfg.revisit_prob:
                # Revisit an earlier (non-adjacent) item -> multigraph edges.
                candidates = [i for i in items if i != items[-1]]
                item = int(self.rng.choice(candidates)) if candidates else self._sample_item(current_category)
            else:
                if self.rng.random() < cfg.category_jump_prob:
                    current_category = (current_category + 1) % cfg.num_categories
                item = self._sample_item(
                    current_category, exclude=items[-1] if items else None
                )
            items.append(item)
            op_lists.append(self._sample_ops(persona))

        target = self._sample_target(category, persona_id, items, op_lists)
        if target == items[-1]:
            # Ground truth must differ from the final input item; otherwise
            # the example would leak (paper Sec. II-B).
            pool = self.target_pool[(category, persona_id)]
            alternatives = [i for i in pool if i != items[-1]]
            target = int(self.rng.choice(alternatives)) if alternatives else self._sample_item(category, exclude=items[-1])
        items.append(target)
        op_lists.append([self._sample_ops(persona)[0]])

        interactions = [
            Interaction(int(item), int(op))
            for item, ops in zip(items, op_lists)
            for op in ops
        ]
        return Session(interactions, session_id=session_id)

    def generate(self, num_sessions: int) -> list[Session]:
        return [self.generate_session(i) for i in range(num_sessions)]


# ----------------------------------------------------------------------
# Ready-made configurations mirroring the paper's three datasets.
# ----------------------------------------------------------------------
def _jd_personas() -> list[Persona]:
    """Three JD personas (the paper's Fig. 1 intuition, made generative).

    *researcher* and *skeptic* are built as an XOR in operation-pair space:
    both emit the same operations with the same per-position marginals
    (comments/spec as the second operation, cart/similar as the third), but
    the *pairing* differs — the researcher follows comments with Cart and
    spec-reading with more browsing, the skeptic the other way around. A
    model seeing only absolute operation embeddings plus positions cannot
    separate them from per-item chains; the dyadic relation ``(o_i, o_j)``
    separates them directly (Fig. 5's experiment). *direct-buyer* uses
    short cart/order chains. Cart/Order operations are sparse (roughly a
    third of macro items), so the strongest-signal repeat target is not
    recoverable from recency alone.
    """
    op = JD_OPERATIONS.id_of
    entries = {op("SearchList2Product"): 0.6, op("Home2Product"): 0.2, op("ShopList2Product"): 0.2}
    researcher = Persona(
        name="researcher",  # comments -> Cart, spec -> keep browsing
        entry_probs=entries,
        transition={
            op("SearchList2Product"): {op("Detail_comments"): 0.5, op("Detail_specification"): 0.5},
            op("Home2Product"): {op("Detail_comments"): 0.5, op("Detail_specification"): 0.5},
            op("ShopList2Product"): {op("Detail_comments"): 0.5, op("Detail_specification"): 0.5},
            op("Detail_comments"): {op("Cart"): 0.9, op("Order"): 0.1},
            op("Detail_specification"): {op("Detail_similar"): 0.9, op("Order"): 0.1},
            op("Cart"): {op("Detail_similar"): 1.0},
            op("Detail_similar"): {op("Detail_similar"): 1.0},
        },
        stop_prob=0.30,
    )
    skeptic = Persona(
        name="skeptic",  # spec -> Cart, comments -> keep browsing (XOR of above)
        entry_probs=entries,
        transition={
            op("SearchList2Product"): {op("Detail_comments"): 0.5, op("Detail_specification"): 0.5},
            op("Home2Product"): {op("Detail_comments"): 0.5, op("Detail_specification"): 0.5},
            op("ShopList2Product"): {op("Detail_comments"): 0.5, op("Detail_specification"): 0.5},
            op("Detail_comments"): {op("Detail_similar"): 0.9, op("Order"): 0.1},
            op("Detail_specification"): {op("Cart"): 0.9, op("Order"): 0.1},
            op("Cart"): {op("Detail_similar"): 1.0},
            op("Detail_similar"): {op("Detail_similar"): 1.0},
        },
        stop_prob=0.30,
    )
    direct = Persona(
        name="direct-buyer",
        entry_probs={op("CartList2Product"): 0.4, op("SaleList2Product"): 0.4, op("SearchList2Product"): 0.2},
        transition={
            op("CartList2Product"): {op("Order"): 0.45, op("Detail_similar"): 0.55},
            op("SaleList2Product"): {op("Cart"): 0.35, op("Detail_similar"): 0.65},
            op("SearchList2Product"): {op("Cart"): 0.35, op("Detail_similar"): 0.65},
            op("Cart"): {op("Order"): 0.5, op("Detail_similar"): 0.5},
            op("Detail_similar"): {op("Detail_similar"): 1.0},
        },
        stop_prob=0.55,
        max_ops_per_item=3,
    )
    return [researcher, skeptic, direct]


def _jd_op_strength() -> dict[int, float]:
    op = JD_OPERATIONS.id_of
    return {
        op("Order"): 5.0,
        op("Cart"): 4.0,
        op("Detail_comments"): 2.0,
        op("Detail_specification"): 1.5,
        op("Detail_similar"): 1.0,
        op("CartList2Product"): 0.5,
    }


def jd_appliances_config(sparsity: float = 0.0) -> GeneratorConfig:
    """JD-Appliances analogue: heavier repeat purchases, denser sessions."""
    return GeneratorConfig(
        sparsity=sparsity,
        name="jd-appliances",
        operations=JD_OPERATIONS,
        personas=_jd_personas(),
        num_items=600,
        num_categories=10,
        mean_macro_len=4.5,
        revisit_prob=0.20,
        repeat_prob=0.40,
        noise_prob=0.10,
        targets_per_context=10,
        pool_zipf_exponent=1.3,
        op_strength=_jd_op_strength(),
    )


def jd_computers_config(sparsity: float = 0.0) -> GeneratorConfig:
    """JD-Computers analogue: larger catalogue, harder prediction."""
    return GeneratorConfig(
        sparsity=sparsity,
        name="jd-computers",
        operations=JD_OPERATIONS,
        personas=_jd_personas(),
        num_items=800,
        num_categories=14,
        mean_macro_len=4.0,
        revisit_prob=0.16,
        repeat_prob=0.33,
        noise_prob=0.14,
        targets_per_context=10,
        pool_zipf_exponent=1.3,
        op_strength=_jd_op_strength(),
    )


def _trivago_personas() -> list[Persona]:
    op = TRIVAGO_OPERATIONS.id_of
    visual = Persona(
        name="picture-driven",
        entry_probs={op("interaction item image"): 0.6, op("search for item"): 0.4},
        transition={
            op("interaction item image"): {op("interaction item image"): 0.5, op("clickout item"): 0.5},
            op("search for item"): {op("interaction item image"): 0.8, op("interaction item info"): 0.2},
            op("interaction item info"): {op("interaction item image"): 1.0},
        },
        stop_prob=0.5,
        max_ops_per_item=3,
    )
    dealer = Persona(
        name="deal-seeker",
        entry_probs={op("interaction item deals"): 0.5, op("search for item"): 0.3, op("clickout item"): 0.2},
        transition={
            op("interaction item deals"): {op("clickout item"): 0.6, op("interaction item rating"): 0.4},
            op("search for item"): {op("interaction item deals"): 0.9, op("interaction item info"): 0.1},
            op("clickout item"): {op("interaction item deals"): 1.0},
            op("interaction item rating"): {op("clickout item"): 1.0},
        },
        stop_prob=0.5,
        max_ops_per_item=3,
    )
    reader = Persona(
        name="info-reader",
        entry_probs={op("interaction item info"): 0.5, op("interaction item rating"): 0.3, op("search for item"): 0.2},
        transition={
            op("interaction item info"): {op("interaction item rating"): 0.6, op("clickout item"): 0.4},
            op("interaction item rating"): {op("interaction item info"): 0.4, op("clickout item"): 0.6},
            op("search for item"): {op("interaction item info"): 1.0},
        },
        stop_prob=0.5,
        max_ops_per_item=3,
    )
    return [visual, dealer, reader]


def trivago_config(sparsity: float = 0.0) -> GeneratorConfig:
    """Trivago analogue: exploration-only targets (S-POP scores zero)."""
    op = TRIVAGO_OPERATIONS.id_of
    return GeneratorConfig(
        sparsity=sparsity,
        name="trivago",
        operations=TRIVAGO_OPERATIONS,
        personas=_trivago_personas(),
        num_items=900,
        num_categories=15,
        mean_macro_len=3.5,
        max_macro_len=8,
        revisit_prob=0.10,
        repeat_prob=0.0,
        noise_prob=0.15,
        targets_per_context=12,
        pool_zipf_exponent=1.2,
        op_strength={op("clickout item"): 3.0, op("interaction item deals"): 2.0},
    )


def generate_dataset(config: GeneratorConfig, num_sessions: int, seed: int = 0) -> list[Session]:
    """Convenience wrapper: build a generator and draw ``num_sessions``."""
    return SyntheticSessionGenerator(config, seed=seed).generate(num_sessions)
