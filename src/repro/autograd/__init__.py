"""Reverse-mode autodiff engine over NumPy (PyTorch substitute).

Public surface:

- :class:`Tensor` — array with gradient tracking
- :func:`no_grad` — disable graph construction
- :func:`concat`, :func:`stack`, :func:`where`, :func:`maximum` — multi-input ops
- :func:`check_gradients` — finite-difference verification
- :func:`set_default_dtype` / :func:`default_dtype` — float32/float64 policy
- :data:`MODEL_DTYPE` — the dtype models train, save and serve in (float32)
"""

from .gradcheck import check_gradients, numerical_gradient
from .tensor import (
    MODEL_DTYPE,
    Tensor,
    concat,
    default_dtype,
    get_default_dtype,
    is_grad_enabled,
    maximum,
    no_grad,
    set_default_dtype,
    stack,
    where,
)

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "concat",
    "stack",
    "where",
    "maximum",
    "check_gradients",
    "numerical_gradient",
    "get_default_dtype",
    "set_default_dtype",
    "default_dtype",
    "MODEL_DTYPE",
]
