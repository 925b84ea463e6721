"""Neural-network module library built on ``repro.autograd``.

Provides the layers the EMBSR paper's models need: Linear, Embedding,
GRU(+cell), LayerNorm, Dropout, transformer blocks, losses, and optimizers.
"""

from .attention import MultiHeadSelfAttention, TransformerBlock, scaled_dot_attention
from .init import normal, scaled_uniform, xavier_uniform, zeros
from .layers import (
    Dropout,
    Embedding,
    FeedForward,
    LayerNorm,
    Linear,
    ModuleList,
    Sequential,
)
from .loss import cross_entropy
from .module import Module, Parameter
from .optim import SGD, Adam, Optimizer, StepLR, clip_grad_norm
from .rnn import GRU, GRUCell

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "Embedding",
    "LayerNorm",
    "Dropout",
    "FeedForward",
    "Sequential",
    "ModuleList",
    "GRU",
    "GRUCell",
    "MultiHeadSelfAttention",
    "TransformerBlock",
    "scaled_dot_attention",
    "cross_entropy",
    "Optimizer",
    "SGD",
    "Adam",
    "StepLR",
    "clip_grad_norm",
    "scaled_uniform",
    "xavier_uniform",
    "normal",
    "zeros",
]
