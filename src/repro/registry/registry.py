"""The model registry: one declarative construction path for every system.

Three registration surfaces compose the registry:

* **Families** (:meth:`ModelRegistry.register_family`) — an architecture
  family maps to a *pure* builder. Neural families register a
  ``module_builder(spec) -> Module``; non-parametric families register a
  ``recommender_builder(spec) -> Recommender``.
* **Models** (:meth:`ModelRegistry.register_model`) — a concrete name
  (``"EMBSR-NS"``) binds a family to the experiment-config fields it
  consumes (``param_fields``) plus frozen architecture switches
  (``fixed``).
* **Resolvers** (:meth:`ModelRegistry.register_resolver`) — parameterized
  name patterns (``"EMBSR-beta=<x>"``) resolve to synthesized entries.

Everything downstream — :class:`~repro.eval.experiment.ExperimentRunner`,
the CLI, the serving gateway, artifact loading — constructs models
exclusively through :func:`spec_for` + :func:`build`, so a
:class:`~repro.registry.spec.ModelSpec` written to disk today rebuilds the
same network in any process tomorrow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

from ..autograd import MODEL_DTYPE, default_dtype
from .spec import ModelSpec

__all__ = [
    "RegisteredModel",
    "ModelRegistry",
    "REGISTRY",
    "register_family",
    "register_model",
    "register_resolver",
    "resolve",
    "spec_for",
    "build",
    "build_module",
    "model_names",
    "registered_models",
]

NEURAL = "neural"
NONPARAMETRIC = "nonparametric"


@dataclass(frozen=True)
class RegisteredModel:
    """Registry entry: how one concrete model name becomes a spec."""

    name: str
    family: str
    kind: str  # NEURAL | NONPARAMETRIC
    param_fields: tuple[str, ...] = ()
    fixed: Mapping[str, Any] = field(default_factory=dict)
    # Default portable training settings this model carries (e.g. EMBSR-SSL
    # pins {"objective": "ssl", "cl_weight": 0.1}); spec_for merges caller
    # overrides on top, so the same architecture may train under several
    # objectives without separate module builders.
    train: Mapping[str, Any] = field(default_factory=dict)
    description: str = ""


class ModelRegistry:
    """Name -> spec -> recommender, with no construction logic elsewhere."""

    def __init__(self):
        self._models: dict[str, RegisteredModel] = {}
        self._module_builders: dict[str, Callable[[ModelSpec], Any]] = {}
        self._recommender_builders: dict[str, Callable[[ModelSpec], Any]] = {}
        self._resolvers: list[Callable[[str], Optional[RegisteredModel]]] = []

    # ------------------------------------------------------------ register
    def register_family(
        self,
        family: str,
        *,
        module_builder: Callable[[ModelSpec], Any] | None = None,
        recommender_builder: Callable[[ModelSpec], Any] | None = None,
    ) -> None:
        if (module_builder is None) == (recommender_builder is None):
            raise ValueError(
                f"family {family!r} must register exactly one of "
                "module_builder (neural) or recommender_builder (non-parametric)"
            )
        if family in self._module_builders or family in self._recommender_builders:
            raise ValueError(f"family {family!r} is already registered")
        if module_builder is not None:
            self._module_builders[family] = module_builder
        else:
            self._recommender_builders[family] = recommender_builder

    def register_model(self, entry: RegisteredModel) -> None:
        if entry.name in self._models:
            raise ValueError(f"model {entry.name!r} is already registered")
        if entry.family not in self._module_builders.keys() | self._recommender_builders.keys():
            raise ValueError(f"model {entry.name!r} names unregistered family {entry.family!r}")
        self._models[entry.name] = entry

    def register_resolver(self, resolver: Callable[[str], Optional[RegisteredModel]]) -> None:
        """Add a pattern resolver for parameterized names (tried in order)."""
        self._resolvers.append(resolver)

    # ------------------------------------------------------------- resolve
    def __contains__(self, name: str) -> bool:
        try:
            self.resolve(name)
        except KeyError:
            return False
        return True

    def resolve(self, name: str) -> RegisteredModel:
        """The entry registered under ``name`` (exact, then pattern)."""
        entry = self._models.get(name)
        if entry is not None:
            return entry
        for resolver in self._resolvers:
            entry = resolver(name)
            if entry is not None:
                return entry
        raise KeyError(
            f"unknown model name: {name!r} (registered: "
            f"{', '.join(sorted(self._models))}; run `repro models` for details)"
        )

    def model_names(self) -> list[str]:
        """Every concretely registered name, in registration order."""
        return list(self._models)

    def registered_models(self) -> list[RegisteredModel]:
        return list(self._models.values())

    # ---------------------------------------------------------------- spec
    def spec_for(
        self,
        name: str,
        *,
        num_items: int,
        num_ops: int,
        dim: int = 32,
        dropout: float = 0.1,
        seed: int = 0,
        w_k: float = 12.0,
        dtype: str = MODEL_DTYPE,
        train: Mapping[str, Any] | None = None,
        **extra_params: Any,
    ) -> ModelSpec:
        """Build the :class:`ModelSpec` for ``name`` sized to a dataset.

        The entry's ``param_fields`` select which of the shared knobs
        (``dim``/``dropout``/``seed``/``w_k``) the family consumes; its
        ``fixed`` switches are merged on top, then any ``extra_params``.
        """
        entry = self.resolve(name)
        knobs: dict[str, Any] = {"dim": dim, "dropout": dropout, "seed": seed, "w_k": w_k}
        params = {f: knobs[f] for f in entry.param_fields}
        params.update(entry.fixed)
        params.update(extra_params)
        return ModelSpec(
            name=name,
            family=entry.family,
            num_items=num_items,
            num_ops=num_ops,
            params=params,
            train={**entry.train, **(train or {})},
            dtype=dtype,
        )

    # --------------------------------------------------------------- build
    def build(self, spec: ModelSpec, train=None):
        """Construct the (unfitted) recommender described by ``spec``.

        ``train`` optionally supplies a full runtime
        :class:`~repro.eval.trainer.TrainConfig` (checkpoint paths,
        verbosity); when omitted, neural systems derive one from
        ``spec.train``.
        """
        if spec.family in self._recommender_builders:
            return self._recommender_builders[spec.family](spec)
        if spec.family in self._module_builders:
            # Imported lazily: repro.eval.trainer imports back into eval.
            from ..eval.trainer import NeuralRecommender

            return NeuralRecommender(spec, train)
        raise KeyError(f"spec names unregistered family: {spec.family!r}")

    def build_module(self, spec: ModelSpec):
        """Construct the bare :class:`~repro.nn.Module` for a neural spec,
        its parameters in ``spec.dtype``."""
        builder = self._module_builders.get(spec.family)
        if builder is None:
            if spec.family in self._recommender_builders:
                raise KeyError(
                    f"{spec.name} ({spec.family}) is non-parametric: it has no "
                    "neural module — build the recommender with registry.build()"
                )
            raise KeyError(f"spec names unregistered family: {spec.family!r}")
        with default_dtype(spec.dtype):
            return builder(spec)


# The process-wide registry every construction site resolves against.
REGISTRY = ModelRegistry()


def register_family(family, **kwargs) -> None:
    """Register a family builder on the global :data:`REGISTRY`."""
    REGISTRY.register_family(family, **kwargs)


def register_model(entry: RegisteredModel) -> None:
    """Register a model entry on the global :data:`REGISTRY`."""
    REGISTRY.register_model(entry)


def register_resolver(resolver) -> None:
    """Register a name-pattern resolver on the global :data:`REGISTRY`."""
    REGISTRY.register_resolver(resolver)


def resolve(name: str) -> RegisteredModel:
    """Resolve ``name`` to its :class:`RegisteredModel` entry."""
    return REGISTRY.resolve(name)


def spec_for(name: str, **kwargs) -> ModelSpec:
    """Build the :class:`ModelSpec` for ``name`` with the given dimensions/knobs."""
    return REGISTRY.spec_for(name, **kwargs)


def build(spec: ModelSpec, train=None):
    """Construct an unfitted recommender from ``spec``."""
    return REGISTRY.build(spec, train)


def build_module(spec: ModelSpec):
    """Construct the bare :class:`~repro.nn.Module` for a neural ``spec``."""
    return REGISTRY.build_module(spec)


def model_names() -> list[str]:
    """Every registered model name, in registration order."""
    return REGISTRY.model_names()


def registered_models() -> list[RegisteredModel]:
    """Every :class:`RegisteredModel` entry, in registration order."""
    return REGISTRY.registered_models()
