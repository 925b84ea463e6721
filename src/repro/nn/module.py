"""Module and Parameter base classes (the `torch.nn.Module` substitute).

A :class:`Module` discovers its parameters and submodules by attribute
inspection, exactly like PyTorch: assigning a :class:`Parameter` or another
:class:`Module` to ``self.<name>`` registers it automatically.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..autograd import Tensor
from ..autograd.tensor import _PROFILER

__all__ = ["Parameter", "Module"]


class Parameter(Tensor):
    """A tensor that is always trainable and discovered by :class:`Module`."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)
        # Parameters must stay trainable even when constructed under
        # no_grad (e.g. when building a model inside an inference context).
        self.requires_grad = True


class Module:
    """Base class for all neural network layers and models."""

    def __init__(self):
        self._training = True

    # -- attribute discovery ------------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        """Yield all unique parameters of this module and its children."""
        seen: set[int] = set()
        yield from self._parameters(seen)

    def _parameters(self, seen: set[int]) -> Iterator[Parameter]:
        for value in self.__dict__.values():
            if isinstance(value, Parameter):
                if id(value) not in seen:
                    seen.add(id(value))
                    yield value
            elif isinstance(value, Module):
                yield from value._parameters(seen)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item._parameters(seen)
                    elif isinstance(item, Parameter) and id(item) not in seen:
                        seen.add(id(item))
                        yield item

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs."""
        for name, value in self.__dict__.items():
            full = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{full}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{full}.{i}.")
                    elif isinstance(item, Parameter):
                        yield f"{full}.{i}", item

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants."""
        yield self
        for value in self.__dict__.values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        """Yield ``(dotted_path, module)`` pairs; the root's path is ``""``."""
        yield prefix, self
        for name, value in self.__dict__.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            if isinstance(value, Module):
                yield from value.named_modules(prefix=child_prefix)
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_modules(prefix=f"{child_prefix}.{i}")

    # -- training state -----------------------------------------------------
    @property
    def training(self) -> bool:
        return self._training

    def train(self) -> "Module":
        for module in self.modules():
            module._training = True
        return self

    def eval(self) -> "Module":
        for module in self.modules():
            module._training = False
        return self

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(p.size for p in self.parameters())

    # -- (de)serialization ---------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter array keyed by dotted name."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load arrays produced by :meth:`state_dict` (strict matching)."""
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        unexpected = set(state) - set(params)
        if missing or unexpected:
            raise KeyError(f"state mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        for name, array in state.items():
            if params[name].data.shape != array.shape:
                raise ValueError(f"shape mismatch for {name}: {params[name].data.shape} != {array.shape}")
            # Cast to the parameter's dtype so a float64 checkpoint loads
            # cleanly into a model built under float32 training mode.
            params[name].data = array.astype(params[name].data.dtype, copy=True)

    # -- call protocol --------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        profiler = _PROFILER.get()
        if profiler is not None:
            return profiler._call_module(self, args, kwargs)
        return self.forward(*args, **kwargs)
