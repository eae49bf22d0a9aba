"""Batch normalisation.

ResNet-18 (paper Fig. 3: "Conv / Batch Norm. + ReLU / Pooling / Dense")
interleaves batch norm after every convolution. Training mode normalises
with batch statistics and maintains exponential running estimates; eval
mode — the mode every fault-injection campaign runs in — uses the frozen
running statistics, so a faulted forward pass is deterministic given the
fault configuration.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn.module import Module, Parameter
from repro.tensor.tensor import Tensor

__all__ = ["BatchNorm1d", "BatchNorm2d"]


class _BatchNorm(Module):
    """Shared machinery for 1-D (NC) and 2-D (NCHW) batch norm."""

    #: axes to reduce over when computing batch statistics
    _reduce_axes: tuple[int, ...]
    #: broadcast shape for per-channel parameters, filled by subclass
    _param_shape: tuple[int, ...]

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        if num_features <= 0:
            raise ValueError(f"num_features must be positive, got {num_features}")
        if not 0.0 < momentum <= 1.0:
            raise ValueError(f"momentum must be in (0, 1], got {momentum}")
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(np.ones(num_features, dtype=np.float32))
        self.bias = Parameter(np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))
        self.register_buffer("num_batches_tracked", np.asarray(0, dtype=np.int64))

    def _check_input(self, x: Tensor) -> None:
        if x.ndim != len(self._param_shape) + 1:
            raise ValueError(
                f"{type(self).__name__} expects {len(self._param_shape) + 1}-D input, got {x.ndim}-D"
            )
        if x.shape[1] != self.num_features:
            raise ValueError(f"expected {self.num_features} channels, got {x.shape[1]}")

    def forward(self, x: Tensor) -> Tensor:
        self._check_input(x)
        shape = (1, self.num_features) + (1,) * (len(self._param_shape) - 1)
        if self.training:
            mean = x.mean(axis=self._reduce_axes, keepdims=True)
            var = x.var(axis=self._reduce_axes, keepdims=True)
            # Update running stats with the *unbiased* variance, as torch does.
            n = float(math.prod(x.shape[a] for a in self._reduce_axes))
            unbiased = var.data.reshape(-1) * (n / max(n - 1.0, 1.0))
            m = self.momentum
            self._set_buffer("running_mean", (1 - m) * self.running_mean + m * mean.data.reshape(-1))
            self._set_buffer("running_var", (1 - m) * self.running_var + m * unbiased)
            self._set_buffer("num_batches_tracked", self.num_batches_tracked + 1)
        else:
            mean = Tensor(self.running_mean.reshape(shape))
            var = Tensor(self.running_var.reshape(shape))
        normalised = (x - mean) / (var + self.eps).sqrt()
        gamma = self.weight.reshape(*shape)
        beta = self.bias.reshape(*shape)
        return normalised * gamma + beta

    def extra_repr(self) -> str:
        return f"features={self.num_features}, eps={self.eps}, momentum={self.momentum}"


class BatchNorm1d(_BatchNorm):
    """Batch norm over (batch,) for NC inputs."""

    _reduce_axes = (0,)
    _param_shape = (1,)


class BatchNorm2d(_BatchNorm):
    """Batch norm over (batch, height, width) for NCHW inputs."""

    _reduce_axes = (0, 2, 3)
    _param_shape = (1, 1, 1)
