"""The composable training-objective seam of the one training step.

The shard executors behind :func:`repro.eval.trainer.train_step` (which
the trainer, the online mini-trainer and ``repro profile`` all run) ask
an :class:`Objective` for ``(scalar loss, named component losses)``
instead of inlining ``cross_entropy(model(batch), batch.target_classes)``,
so an auxiliary loss is written once and the step stays agnostic of
*what* is being optimized.

Contracts every objective must honor (docs/objectives.md):

* **Purity per step.** ``compute`` must be a pure function of the model
  parameters, the batch content, the per-shard dropout stream its
  modules consume, and the :class:`StepContext` installed by
  ``begin_step``. Any extra randomness must come from *stateless*
  generators keyed by the context (see
  :func:`repro.data.augment.view_generator`) so serial-shard and
  forked-worker executions of a step agree bitwise.
* **Shard decomposability.** With ``total`` set (the full batch's row
  count), the fixed-order sum of per-shard losses must equal the
  whole-batch loss, mirroring :func:`repro.nn.cross_entropy`'s ``total``
  semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..autograd.tensor import Tensor
from ..nn.loss import cross_entropy

__all__ = [
    "StepContext",
    "ObjectiveParts",
    "Objective",
    "CrossEntropyObjective",
    "CompositeObjective",
]


@dataclass(frozen=True)
class StepContext:
    """Coordinates of one optimization step, for stateless randomness.

    Mirrors the seeding tuple of the shard dropout streams: everything an
    objective needs to rebuild step-local randomness (augmented views)
    identically in any process.
    """

    seed: int = 0
    epoch: int = 0
    batch_index: int = 0
    shard: int = 0
    retry: int = 0


@dataclass
class ObjectiveParts:
    """One step's loss tensor plus its named scalar component tensors.

    ``components`` values are live graph tensors (often aliasing ``loss``
    or its addends); callers read ``float(t.data)`` after the step.
    """

    loss: Tensor
    components: dict[str, Tensor] = field(default_factory=dict)

    def component_values(self) -> dict[str, float]:
        return {name: float(t.data) for name, t in self.components.items()}


class Objective:
    """Produces a scalar training loss from ``(model, batch)``.

    Subclasses override :meth:`compute`; ``component_names`` fixes the
    order in which component losses are reported (the parallel engine
    sizes its shared-memory component block from it, so it must be a
    static property of the objective, not of any particular batch).
    """

    name: str = "objective"
    component_names: tuple[str, ...] = ()

    def __init__(self) -> None:
        self._ctx = StepContext()

    # ------------------------------------------------------------------
    def begin_step(self, ctx: StepContext | None) -> None:
        """Install the step coordinates consumed by stateless randomness.

        Called once per forward, before :meth:`compute`.
        """
        if ctx is not None:
            self._ctx = ctx

    def compute(self, model, batch, *, total: int | None = None) -> ObjectiveParts:
        """Loss of ``batch`` under ``model``; see the module contract.

        ``total`` carries the full batch's row count when ``batch`` is one
        shard of it (``None`` when ``batch`` is scored whole).
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class CrossEntropyObjective(Objective):
    """The paper's objective (Eq. 20): softmax cross-entropy over items.

    Graph-identical to ``cross_entropy(model(batch), batch.target_classes)``.
    """

    name = "ce"
    component_names = ("ce",)

    def compute(self, model, batch, *, total: int | None = None) -> ObjectiveParts:
        logits = model(batch)
        loss = cross_entropy(logits, batch.target_classes, total=total)
        return ObjectiveParts(loss, {"ce": loss})


class CompositeObjective(Objective):
    """Weighted sum of named sub-objectives.

    ``terms`` is ``[(name, objective, weight), ...]``; the composite loss
    is ``sum(weight_i * loss_i)`` accumulated in term order (fixed-order
    floating-point, like everything else in the determinism contract).
    Reported components are the *unweighted* per-term losses.
    """

    def __init__(self, terms) -> None:
        super().__init__()
        self.terms = [(str(n), obj, float(w)) for n, obj, w in terms]
        if not self.terms:
            raise ValueError("CompositeObjective needs at least one term")
        names = [n for n, _, _ in self.terms]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate component names in composite objective: {names}")
        self.name = "+".join(names)
        self.component_names = tuple(names)

    def begin_step(self, ctx: StepContext | None) -> None:
        super().begin_step(ctx)
        for _, objective, _ in self.terms:
            objective.begin_step(ctx)

    def compute(self, model, batch, *, total: int | None = None) -> ObjectiveParts:
        components: dict[str, Tensor] = {}
        loss: Tensor | None = None
        for name, objective, weight in self.terms:
            part = objective.compute(model, batch, total=total)
            components[name] = part.loss
            term = part.loss if weight == 1.0 else part.loss * weight
            loss = term if loss is None else loss + term
        return ObjectiveParts(loss, components)
