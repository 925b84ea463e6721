"""Reverse-mode automatic differentiation over NumPy arrays.

This module is the computational substrate for every neural model in the
repository (the paper's reference implementation uses PyTorch; this engine
replaces it — see DESIGN.md, section 2).

The design follows the classic tape-free approach: each :class:`Tensor`
records its parents and a closure that accumulates gradients into them.
Calling :meth:`Tensor.backward` runs a topological sort and replays the
closures in reverse order.

Performance notes (docs/performance.md):

- Every operation checks the grad mode *before* constructing its backward
  closure, so inference under :func:`no_grad` allocates zero graph state.
- Gradient accumulation is in place: the first contribution is borrowed
  (never mutated), the second allocates a buffer this tensor owns, and all
  later ones are ``+=`` into it. Ownership tracking makes this safe when a
  tensor feeds multiple consumers that hand down the same gradient array.
- The element dtype is configurable (:func:`set_default_dtype`). Models
  train, save and serve in :data:`MODEL_DTYPE` (float32) and enter it
  themselves; the ambient default stays float64 for gradchecks.
- ``softmax`` / ``log_softmax`` are single fused nodes with hand-written
  backward rules rather than compositions of five primitive ops.

Only the operations the models need are implemented, but each supports full
NumPy broadcasting, and every backward rule is verified against central
finite differences in ``tests/autograd`` (and the fused kernels in
``tests/perf``).
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "concat",
    "stack",
    "where",
    "maximum",
    "get_default_dtype",
    "set_default_dtype",
    "default_dtype",
    "MODEL_DTYPE",
]

# The grad mode, the ambient dtype and the active profiler are per thread
# (per ``contextvars`` context): a new thread starts at the defaults, and
# ``no_grad`` / ``default_dtype`` on one thread never leak into another,
# however their blocks interleave. Each scoped change is set and reset by
# token.
_GRAD_ENABLED: ContextVar[bool] = ContextVar("repro_grad_enabled", default=True)

# The dtype models train, save and serve in unless a caller opts into
# float64 explicitly: the paper's artifact is PyTorch, whose default is
# float32. Every model-facing ``dtype`` default (TrainConfig,
# ExperimentConfig, ModelSpec, spec_for, the CLI's --dtype) reads this one
# name; factorize follows the model it is given. It is *not* the ambient
# default below, which stays float64: check_gradients' finite differences
# and the bare-Tensor tests need it, and every model path enters
# ``default_dtype(<its dtype>)``.
MODEL_DTYPE = "float32"
_DEFAULT_DTYPE: ContextVar[np.dtype] = ContextVar("repro_default_dtype", default=np.dtype(np.float64))

# Active profiler (repro.perf.profiler.OpProfiler) or None; set and reset
# by OpProfiler.enable / disable.
_PROFILER: ContextVar = ContextVar("repro_profiler", default=None)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction (like torch.no_grad)
    on the current thread."""
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


def is_grad_enabled() -> bool:
    """Return whether new operations on this thread will be recorded for
    differentiation."""
    return _GRAD_ENABLED.get()


def get_default_dtype() -> np.dtype:
    """Ambient element dtype for new tensors on this thread (float64 unless
    reconfigured; models enter their own dtype, :data:`MODEL_DTYPE` by
    default)."""
    return _DEFAULT_DTYPE.get()


def _float_dtype(dtype) -> np.dtype:
    new = np.dtype(dtype)
    if new not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"default dtype must be float32 or float64, got {new}")
    return new


def set_default_dtype(dtype) -> np.dtype:
    """Set the element dtype for new tensors on this thread; returns the
    previous dtype.

    ``float32`` (:data:`MODEL_DTYPE`, what models train and serve in)
    halves memory traffic and roughly doubles large-matmul throughput;
    ``float64`` is required for finite-difference gradchecks.
    """
    previous = _DEFAULT_DTYPE.get()
    _DEFAULT_DTYPE.set(_float_dtype(dtype))
    return previous


@contextlib.contextmanager
def default_dtype(dtype):
    """Scoped :func:`set_default_dtype` (restores the previous dtype on exit)."""
    token = _DEFAULT_DTYPE.set(_float_dtype(dtype))
    try:
        yield
    finally:
        _DEFAULT_DTYPE.reset(token)


def _as_array(value, dtype=None) -> np.ndarray:
    dtype = dtype or _DEFAULT_DTYPE.get()
    if isinstance(value, np.ndarray):
        if value.dtype != dtype:
            return value.astype(dtype)
        return value
    return np.asarray(value, dtype=dtype)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function (shared with repro.perf.fused).

    ``e = exp(-|x|)`` never overflows; the result is ``1/(1+e)`` for
    ``x >= 0`` and ``e/(1+e)`` otherwise — element-for-element the same
    float ops (hence the same bits) as the textbook two-branch form, in
    six array passes instead of ten.
    """
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    numer = np.where(x >= 0, 1.0, e)
    np.divide(numer, e + 1.0, out=numer)
    return numer


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` undoing NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size 1 in the original shape.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _is_basic_index(index) -> bool:
    """True when ``index`` selects a view: ints, slices, ``None``, ``Ellipsis``.

    Such an index names each element at most once. ``bool`` is excluded:
    NumPy reads it as a mask, an advanced index.
    """
    for item in index if isinstance(index, tuple) else (index,):
        if item is None or item is Ellipsis or isinstance(item, slice):
            continue
        if isinstance(item, (int, np.integer)) and not isinstance(item, bool):
            continue
        return False
    return True


class Tensor:
    """A NumPy array with an attached gradient and differentiation graph.

    Parameters
    ----------
    data:
        Array-like payload; converted to the default dtype
        (:func:`get_default_dtype`, float64 unless reconfigured).
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "_backward",
        "_parents",
        "_grad_owned",
        "_grad_buffer",
        "_topo_cache",
    )

    def __init__(self, data, requires_grad: bool = False):
        self.data: np.ndarray = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad: bool = bool(requires_grad) and _GRAD_ENABLED.get()
        self._backward: Callable[[], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        # True once self.grad is a buffer only this tensor references, so
        # further contributions may be accumulated with an in-place `+=`.
        self._grad_owned: bool = False
        # Reusable scatter buffer for fused embedding backward (repro.perf):
        # avoids a fresh zeros(num_embeddings, dim) allocation every step.
        self._grad_buffer: np.ndarray | None = None
        self._topo_cache: list[Tensor] | None = None

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None
        self._grad_owned = False

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[], None],
    ) -> "Tensor":
        """Create a result tensor wired into the graph.

        Callers are responsible for checking the grad mode first (every op
        early-exits with a plain ``Tensor`` when gradients are off), so a
        ``_make`` call always allocates a backward node.
        """
        out = Tensor(data)
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
        profiler = _PROFILER.get()
        if profiler is not None:
            profiler._record_node(backward)
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add a gradient contribution.

        The first contribution is *borrowed* (stored by reference, never
        written through) because backward rules routinely hand the same
        array to several parents. The second contribution allocates a
        buffer owned by this tensor; every later one is an in-place ``+=``
        into it — one allocation total no matter how many consumers.
        """
        if self.grad is None:
            self.grad = grad
            self._grad_owned = False
        elif self._grad_owned:
            self.grad += grad
        else:
            self.grad = self.grad + grad
            self._grad_owned = True

    def backward(self, grad: np.ndarray | None = None, retain_graph: bool = False) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to 1 for scalar outputs (the usual loss case).
        With ``retain_graph=True`` the graph (and the topological order,
        cached on this tensor) survives for repeated backward passes, e.g.
        gradient accumulation over micro-batches; by default the graph is
        freed node by node to keep memory bounded across training loops.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
            seed_owned = True
        else:
            grad = _as_array(grad)
            if grad.shape != self.shape:
                raise ValueError(f"gradient shape {grad.shape} != tensor shape {self.shape}")
            seed_owned = False

        order = self._topo_cache
        if order is None:
            order = []
            seen: set[int] = set()
            stack: list[tuple[Tensor, bool]] = [(self, False)]
            while stack:
                node, processed = stack.pop()
                if processed:
                    order.append(node)
                    continue
                if id(node) in seen:
                    continue
                seen.add(id(node))
                stack.append((node, True))
                for parent in node._parents:
                    if parent.requires_grad and id(parent) not in seen:
                        stack.append((parent, False))
            if retain_graph:
                self._topo_cache = order

        if self.grad is None:
            self.grad = grad
            self._grad_owned = seed_owned
        elif self._grad_owned:
            self.grad += grad
        else:
            self.grad = self.grad + grad
            self._grad_owned = True

        profiler = _PROFILER.get()
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                if profiler is not None:
                    profiler._run_backward(node._backward)
                else:
                    node._backward()
                if not retain_graph:
                    # Free intermediate graph state once consumed; keeps
                    # memory bounded across long training loops.
                    node._backward = None
                    node._parents = ()
                else:
                    # Clear interior grads so a later pass re-seeds them;
                    # leaves keep accumulating. This also prevents a later
                    # pass from mutating an owned buffer that a leaf still
                    # borrows from this pass.
                    node.grad = None
                    node._grad_owned = False

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data + other.data
        if not (_GRAD_ENABLED.get() and (self.requires_grad or other.requires_grad)):
            return Tensor(out_data)

        def backward() -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad, other.shape))

        out = Tensor._make(out_data, (self, other), backward)
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        if not (_GRAD_ENABLED.get() and self.requires_grad):
            return Tensor(-self.data)

        def backward() -> None:
            self._accumulate(-out.grad)

        out = Tensor._make(-self.data, (self,), backward)
        return out

    def __sub__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data - other.data
        if not (_GRAD_ENABLED.get() and (self.requires_grad or other.requires_grad)):
            return Tensor(out_data)

        def backward() -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-out.grad, other.shape))

        out = Tensor._make(out_data, (self, other), backward)
        return out

    def __rsub__(self, other) -> "Tensor":
        return Tensor(other) - self

    def __mul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data * other.data
        if not (_GRAD_ENABLED.get() and (self.requires_grad or other.requires_grad)):
            return Tensor(out_data)

        def backward() -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad * self.data, other.shape))

        out = Tensor._make(out_data, (self, other), backward)
        return out

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data / other.data
        if not (_GRAD_ENABLED.get() and (self.requires_grad or other.requires_grad)):
            return Tensor(out_data)

        def backward() -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad / other.data, self.shape))
            if other.requires_grad:
                grad = -out.grad * self.data / (other.data**2)
                other._accumulate(_unbroadcast(grad, other.shape))

        out = Tensor._make(out_data, (self, other), backward)
        return out

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent
        if not (_GRAD_ENABLED.get() and self.requires_grad):
            return Tensor(out_data)

        def backward() -> None:
            self._accumulate(out.grad * exponent * self.data ** (exponent - 1))

        out = Tensor._make(out_data, (self,), backward)
        return out

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)
        if not (_GRAD_ENABLED.get() and self.requires_grad):
            return Tensor(out_data)

        def backward() -> None:
            self._accumulate(out.grad * out_data)

        out = Tensor._make(out_data, (self,), backward)
        return out

    def log(self) -> "Tensor":
        out_data = np.log(self.data)
        if not (_GRAD_ENABLED.get() and self.requires_grad):
            return Tensor(out_data)

        def backward() -> None:
            self._accumulate(out.grad / self.data)

        out = Tensor._make(out_data, (self,), backward)
        return out

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)
        if not (_GRAD_ENABLED.get() and self.requires_grad):
            return Tensor(out_data)

        def backward() -> None:
            self._accumulate(out.grad * 0.5 / out_data)

        out = Tensor._make(out_data, (self,), backward)
        return out

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)
        if not (_GRAD_ENABLED.get() and self.requires_grad):
            return Tensor(out_data)

        def backward() -> None:
            self._accumulate(out.grad * (1.0 - out_data**2))

        out = Tensor._make(out_data, (self,), backward)
        return out

    def sigmoid(self) -> "Tensor":
        out_data = _stable_sigmoid(self.data)
        if not (_GRAD_ENABLED.get() and self.requires_grad):
            return Tensor(out_data)

        def backward() -> None:
            self._accumulate(out.grad * out_data * (1.0 - out_data))

        out = Tensor._make(out_data, (self,), backward)
        return out

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask
        if not (_GRAD_ENABLED.get() and self.requires_grad):
            return Tensor(out_data)

        def backward() -> None:
            self._accumulate(out.grad * mask)

        out = Tensor._make(out_data, (self,), backward)
        return out

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)
        if not (_GRAD_ENABLED.get() and self.requires_grad):
            return Tensor(out_data)
        sign = np.sign(self.data)

        def backward() -> None:
            self._accumulate(out.grad * sign)

        out = Tensor._make(out_data, (self,), backward)
        return out

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = np.matmul(self.data, other.data)
        if not (_GRAD_ENABLED.get() and (self.requires_grad or other.requires_grad)):
            return Tensor(out_data)

        def backward() -> None:
            grad = out.grad
            a, b = self.data, other.data
            if self.requires_grad:
                if b.ndim == 1:
                    # (..., n) @ (n,) -> (...,): grad_a = grad[..., None] * b
                    grad_a = grad[..., None] * b
                elif a.ndim == 1:
                    # (n,) @ (n, m) -> (m,): grad_a = grad @ b.T
                    grad_a = np.matmul(grad, np.swapaxes(b, -1, -2))
                    grad_a = _unbroadcast(grad_a, a.shape)
                else:
                    grad_a = np.matmul(grad, np.swapaxes(b, -1, -2))
                    grad_a = _unbroadcast(grad_a, a.shape)
                self._accumulate(grad_a)
            if other.requires_grad:
                if b.ndim == 1:
                    # grad_b = sum over batch of a^T grad
                    grad_b = (a * grad[..., None]).reshape(-1, a.shape[-1]).sum(axis=0)
                elif a.ndim == 1:
                    grad_b = np.outer(a, grad)
                else:
                    grad_b = np.matmul(np.swapaxes(a, -1, -2), grad)
                    grad_b = _unbroadcast(grad_b, b.shape)
                other._accumulate(grad_b)

        out = Tensor._make(out_data, (self, other), backward)
        return out

    def __matmul__(self, other) -> "Tensor":
        return self.matmul(other)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        if not (_GRAD_ENABLED.get() and self.requires_grad):
            return Tensor(out_data)

        def backward() -> None:
            grad = out.grad
            if axis is None:
                grad = np.broadcast_to(grad, self.shape)
            else:
                if not keepdims:
                    grad = np.expand_dims(grad, axis)
                grad = np.broadcast_to(grad, self.shape)
            self._accumulate(grad)

        out = Tensor._make(out_data, (self,), backward)
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.shape[a] for a in axis]))
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        if not (_GRAD_ENABLED.get() and self.requires_grad):
            return Tensor(out_data)

        def backward() -> None:
            grad = out.grad
            expanded = out_data
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
                expanded = np.expand_dims(out_data, axis)
            mask = self.data == expanded
            # Split gradient evenly among ties, matching finite differences.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(grad * mask / counts)

        out = Tensor._make(out_data, (self,), backward)
        return out

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        centered = self - self.mean(axis=axis, keepdims=True)
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        if not (_GRAD_ENABLED.get() and self.requires_grad):
            return Tensor(out_data)
        original = self.shape

        def backward() -> None:
            self._accumulate(out.grad.reshape(original))

        out = Tensor._make(out_data, (self,), backward)
        return out

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        out_data = self.data.transpose(axes)
        if not (_GRAD_ENABLED.get() and self.requires_grad):
            return Tensor(out_data)
        inverse = np.argsort(axes)

        def backward() -> None:
            self._accumulate(out.grad.transpose(inverse))

        out = Tensor._make(out_data, (self,), backward)
        return out

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(tuple(axes))

    def unsqueeze(self, axis: int) -> "Tensor":
        out_data = np.expand_dims(self.data, axis)
        if not (_GRAD_ENABLED.get() and self.requires_grad):
            return Tensor(out_data)

        def backward() -> None:
            self._accumulate(np.squeeze(out.grad, axis=axis))

        out = Tensor._make(out_data, (self,), backward)
        return out

    def squeeze(self, axis: int) -> "Tensor":
        out_data = np.squeeze(self.data, axis=axis)
        if not (_GRAD_ENABLED.get() and self.requires_grad):
            return Tensor(out_data)

        def backward() -> None:
            self._accumulate(np.expand_dims(out.grad, axis))

        out = Tensor._make(out_data, (self,), backward)
        return out

    def broadcast_to(self, shape: tuple[int, ...]) -> "Tensor":
        out_data = np.broadcast_to(self.data, shape).copy()
        if not (_GRAD_ENABLED.get() and self.requires_grad):
            return Tensor(out_data)
        original = self.shape

        def backward() -> None:
            self._accumulate(_unbroadcast(out.grad, original))

        out = Tensor._make(out_data, (self,), backward)
        return out

    # ------------------------------------------------------------------
    # Indexing (slicing and integer-array gather)
    # ------------------------------------------------------------------
    def __getitem__(self, index) -> "Tensor":
        out_data = np.array(self.data[index], copy=True)
        if not (_GRAD_ENABLED.get() and self.requires_grad):
            return Tensor(out_data)

        basic = _is_basic_index(index)

        def backward() -> None:
            grad = np.zeros_like(self.data)
            if basic:
                # A basic index repeats no element, so an in-place add into
                # the view is ``np.add.at``'s sum: the same ``0.0 + g`` per
                # element, which also turns a -0.0 gradient into +0.0.
                grad[index] += out.grad
            else:
                np.add.at(grad, index, out.grad)
            self._accumulate(grad)

        out = Tensor._make(out_data, (self,), backward)
        return out

    def take(self, indices: np.ndarray, axis: int = 0) -> "Tensor":
        """Gather along ``axis`` (used for embedding lookups when axis=0)."""
        indices = np.asarray(indices)
        out_data = np.take(self.data, indices, axis=axis)
        if not (_GRAD_ENABLED.get() and self.requires_grad):
            return Tensor(out_data)

        def backward() -> None:
            grad = np.zeros_like(self.data)
            if axis == 0:
                np.add.at(grad, indices, out.grad)
            else:
                moved = np.moveaxis(grad, axis, 0)
                np.add.at(moved, indices, np.moveaxis(out.grad, axis, 0))
            self._accumulate(grad)

        out = Tensor._make(out_data, (self,), backward)
        return out

    # ------------------------------------------------------------------
    # Fused composite ops (single node, hand-written backward)
    # ------------------------------------------------------------------
    def softmax(self, axis: int = -1) -> "Tensor":
        """Softmax along ``axis`` as one graph node.

        Backward uses the Jacobian-vector product
        ``p * (g - sum(g * p))`` instead of replaying the exp/sum/div
        composition (five nodes and three temporaries in the old form).
        """
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        out_data = e / e.sum(axis=axis, keepdims=True)
        if not (_GRAD_ENABLED.get() and self.requires_grad):
            return Tensor(out_data)

        def backward() -> None:
            g = out.grad
            dot = (g * out_data).sum(axis=axis, keepdims=True)
            self._accumulate(out_data * (g - dot))

        out = Tensor._make(out_data, (self,), backward)
        return out

    def log_softmax(self, axis: int = -1) -> "Tensor":
        """Log-softmax along ``axis`` as one graph node.

        Backward is ``g - softmax * sum(g)`` — the softmax is recovered by
        exponentiating the (already max-shifted) output, so no extra
        stabilization pass is needed.
        """
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out_data = shifted - lse
        if not (_GRAD_ENABLED.get() and self.requires_grad):
            return Tensor(out_data)

        def backward() -> None:
            g = out.grad
            self._accumulate(g - np.exp(out_data) * g.sum(axis=axis, keepdims=True))

        out = Tensor._make(out_data, (self,), backward)
        return out

    def l2_normalize(self, axis: int = -1, eps: float = 1e-12) -> "Tensor":
        norm = ((self * self).sum(axis=axis, keepdims=True) + eps).sqrt()
        return self / norm


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    if not (_GRAD_ENABLED.get() and any(t.requires_grad for t in tensors)):
        return Tensor(out_data)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward() -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                slicer = [slice(None)] * out_data.ndim
                slicer[axis] = slice(start, stop)
                t._accumulate(out.grad[tuple(slicer)])

    out = Tensor._make(out_data, tensors, backward)
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stack along a new ``axis``."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)
    if not (_GRAD_ENABLED.get() and any(t.requires_grad for t in tensors)):
        return Tensor(out_data)

    def backward() -> None:
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t._accumulate(np.take(out.grad, i, axis=axis))

    out = Tensor._make(out_data, tensors, backward)
    return out


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable selection; ``condition`` is a constant boolean array."""
    condition = np.asarray(condition, dtype=bool)
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    out_data = np.where(condition, a.data, b.data)
    if not (_GRAD_ENABLED.get() and (a.requires_grad or b.requires_grad)):
        return Tensor(out_data)

    def backward() -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(out.grad * condition, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(out.grad * ~condition, b.shape))

    out = Tensor._make(out_data, (a, b), backward)
    return out


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Differentiable elementwise maximum (gradient split evenly on ties)."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    out_data = np.maximum(a.data, b.data)
    if not (_GRAD_ENABLED.get() and (a.requires_grad or b.requires_grad)):
        return Tensor(out_data)
    a_wins = a.data > b.data
    tie = a.data == b.data

    b_wins = ~a_wins & ~tie

    def backward() -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(out.grad * (a_wins + 0.5 * tie), a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(out.grad * (b_wins + 0.5 * tie), b.shape))

    out = Tensor._make(out_data, (a, b), backward)
    return out
