"""Core layers: Linear, Embedding, LayerNorm, Dropout, FeedForward, Sequential."""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor
from ..perf import fused as _fused
from .init import scaled_uniform, zeros
from .module import Module, Parameter

__all__ = [
    "Linear",
    "Embedding",
    "LayerNorm",
    "Dropout",
    "FeedForward",
    "Sequential",
    "ModuleList",
]


class Linear(Module):
    """Affine map ``y = x W + b`` with optional bias.

    Weights use the MKM-SR uniform scheme scaled by the *input* dimension.
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True, *, rng: np.random.Generator):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(scaled_uniform(rng, (in_features, out_features), in_features))
        self.bias = Parameter(zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return _fused.addmm(x, self.weight, self.bias)


class Embedding(Module):
    """Lookup table mapping integer ids to ``dim``-vectors.

    The ``padding_idx`` row is initialized to zero and gets no gradient
    from this lookup: the scatter skips its entries. Every model here also
    multiplies padded positions by an explicit mask, so those entries'
    contributions are exactly zero (``tests/nn/test_padding_grad.py``).
    """

    def __init__(self, num_embeddings: int, dim: int, *, rng: np.random.Generator, padding_idx: int | None = None):
        super().__init__()
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.padding_idx = padding_idx
        weight = scaled_uniform(rng, (num_embeddings, dim), dim)
        if padding_idx is not None:
            weight[padding_idx] = 0.0
        self.weight = Parameter(weight)

    def forward(self, indices: np.ndarray) -> Tensor:
        return _fused.embedding_lookup(self.weight, indices, self.padding_idx)


class LayerNorm(Module):
    """Layer normalization over the last dimension."""

    def __init__(self, dim: int, eps: float = 1e-6):
        super().__init__()
        self.eps = eps
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        variance = (centered * centered).mean(axis=-1, keepdims=True)
        normed = centered / (variance + self.eps).sqrt()
        return normed * self.gamma + self.beta


class Dropout(Module):
    """Inverted dropout; identity when the module is in eval mode."""

    def __init__(self, p: float, *, rng: np.random.Generator):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = (self.rng.random(x.shape) < keep) / keep
        return x * Tensor(mask)


class FeedForward(Module):
    """Position-wise feed-forward network: ``max(0, x W1 + b1) W2 + b2`` (Eq. 17)."""

    def __init__(self, dim: int, hidden_dim: int | None = None, *, rng: np.random.Generator):
        super().__init__()
        hidden_dim = hidden_dim or dim
        self.fc1 = Linear(dim, hidden_dim, rng=rng)
        self.fc2 = Linear(hidden_dim, dim, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(self.fc1(x).relu())


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.items = list(modules)

    def forward(self, x):
        for module in self.items:
            x = module(x)
        return x

    def __iter__(self):
        return iter(self.items)

    def __len__(self):
        return len(self.items)


class ModuleList(Module):
    """Holds an indexable list of modules (registered for parameters())."""

    def __init__(self, modules=()):
        super().__init__()
        self.items = list(modules)

    def append(self, module: Module) -> None:
        self.items.append(module)

    def __getitem__(self, i: int) -> Module:
        return self.items[i]

    def __iter__(self):
        return iter(self.items)

    def __len__(self):
        return len(self.items)
