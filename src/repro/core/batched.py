"""Vectorised multi-configuration campaign evaluation.

A campaign's cost is #configurations × one forward pass. For dense
networks the per-configuration work is small matrix algebra, so evaluating
``k`` fault configurations *simultaneously* — stacking the faulted weight
tensors into ``(k, in, out)`` arrays and contracting with one stacked
``np.matmul`` — turns ``k`` interpreter round-trips into one call per
layer. On the paper's MLP this is an order-of-magnitude campaign speed-up
(measured in ``benchmarks/bench_micro.py``).

:class:`BatchedNetworkEvaluator` covers the chain-decomposable models,
dense and conv (MLP, LeNet, ResNet — the Fig. 1–4 subjects): the model's
verified forward chain runs *shared* up to the first faulted layer, the
``k`` faulted conv/dense/norm tensors are stacked and contracted in one
stacked ``np.matmul`` (convs over the shared patch rows of
:func:`~repro.tensor.functional.patch_rows`, the kernel ``conv2d`` uses),
and every untouched downstream module runs once on the ``k`` diverged
activations folded into the batch axis. It is bit-identical to the
sequential path — enforced by the fast-path property tests.
"""

from __future__ import annotations

import numpy as np

import repro.obs as obs
from repro.core.hazard import HazardReport
from repro.core.prefix import owning_step
from repro.faults.configuration import FaultConfiguration
from repro.nn.containers import Sequential
from repro.nn.conv import Conv2d
from repro.nn.layers import Dense
from repro.nn.models.resnet import BasicBlock
from repro.nn.module import Module
from repro.nn.norm import _BatchNorm
from repro.tensor.functional import patch_rows
from repro.tensor.tensor import Tensor, no_grad

__all__ = ["BatchedNetworkEvaluator"]


class _State:
    """Activation flowing through the batched chain.

    ``diverged`` marks whether ``data`` carries a leading configurations
    axis: shared activations are ``(B, ...)`` (identical for every
    configuration, i.e. no faulted layer crossed yet), diverged ones are
    ``(k, B, ...)``.
    """

    __slots__ = ("data", "diverged")

    def __init__(self, data: np.ndarray, diverged: bool) -> None:
        self.data = data
        self.diverged = diverged


class BatchedNetworkEvaluator:
    """Evaluate many fault configurations of a conv net in one sweep.

    Covers the chain-decomposable models of
    :func:`repro.core.prefix.forward_chain` (MLP, Sequential, LeNet,
    ResNet). Three mechanisms keep the sweep bit-identical to ``k``
    sequential faulted forwards while doing far less work:

    * the chain starts at the first faulted layer from the golden
      activation entering it, read from the injector's shared
      :class:`~repro.core.prefix.GoldenForward` (clean-prefix reuse);
    * a faulted Conv2d/Dense/BatchNorm contracts all ``k`` stacked faulted
      parameter tensors against the shared input in one stacked
      ``np.matmul`` (conv shares one patch-row gather across
      configurations);
    * every untouched module after the divergence point runs once with the
      ``k`` axis folded into the batch axis — valid because eval-mode
      modules are batch-independent.

    Raises at construction when the model cannot be decomposed-and-verified
    or the campaign has non-parameter surfaces, so callers can fall back to
    the sequential path. Holds the labels and golden state, not the
    injector, so caching it on the injector forms no reference cycle.
    """

    def __init__(self, injector) -> None:
        if injector.activation_modules or injector._wants_inputs:
            raise ValueError("batched evaluation supports parameter surfaces only")
        golden = injector._golden
        steps = golden.steps
        if steps is None:
            raise TypeError(
                f"no forward chain for {type(golden.model).__name__}; batched evaluation unsupported"
            )
        self._steps = steps
        self._targets = sorted(name for name, _ in injector.parameter_targets)
        if not self._targets:
            raise ValueError("no parameter targets to batch over")
        for _, module in golden.model.named_modules():
            if module.training:
                raise ValueError("batched evaluation requires eval-mode models")
        #: dotted target name → owning chain step index
        self.owners: dict[str, int] = {}
        for target in self._targets:
            owner = owning_step(steps, target)
            if owner is None:
                raise ValueError(f"target {target!r} not owned by any chain step")
            self._check_touched_modules(steps[owner].module, steps[owner].name, target)
            self.owners[target] = owner
        self._cut = min(self.owners.values())
        if not golden.engaged:
            raise ValueError("forward chain is not bit-identical to model forward")
        self._golden = golden
        self.labels = injector.labels
        #: configurations scored through :meth:`run_segments`, ever
        self.configs_scored = 0
        #: hazard accounting of the most recent :meth:`evaluate` call
        self.last_hazard = HazardReport()

    def _check_touched_modules(self, module: Module, name: str, target: str) -> None:
        """Ensure the leaf module owning ``target`` has a batched handler."""
        leaf_types = (Dense, Conv2d, _BatchNorm)
        if isinstance(module, leaf_types):
            return
        if isinstance(module, (Sequential, BasicBlock)):
            for child_name, child in module._modules.items():
                prefix = f"{name}.{child_name}"
                if target.startswith(prefix + "."):
                    self._check_touched_modules(child, prefix, target)
                    return
        raise TypeError(
            f"no batched handler for faulted module {type(module).__name__} ({name!r})"
        )

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #

    def evaluate_logits(
        self, configurations: list[FaultConfiguration], guard=None
    ) -> np.ndarray:
        """Logits per configuration, shape ``(k, B, classes)``.

        Bit-identical to running each configuration through
        ``apply_configuration`` + ``model(x)`` sequentially (property-tested
        at the uint level, which is NaN-safe). The caller owns hazard
        accounting — feed each ``logits[i]`` slice to the campaign's
        :class:`~repro.core.hazard.NumericalHazardGuard` exactly as the
        sequential statistic does. Passing that guard here additionally
        counts the FP error events (overflow/invalid) the sweep raises;
        without one they are silenced. Event *counts* are op-granular
        diagnostics and differ from the sequential path's — the scored
        errors do not.
        """
        if not configurations:
            raise ValueError("need at least one configuration")
        k = len(configurations)
        state = self.run_segments(
            configurations, self._prefix_activation(), self._cut, diverged=False, guard=guard
        )
        if not state.diverged:
            return np.broadcast_to(state.data, (k,) + state.data.shape)
        return state.data

    def run_segments(
        self,
        configurations: list[FaultConfiguration],
        activation: np.ndarray,
        start: int,
        diverged: bool,
        guard=None,
        boundaries: list[_State] | None = None,
    ) -> _State:
        """Run ``steps[start:]`` over an explicit entry activation.

        The delta-forward engine's entry point (:mod:`repro.core.delta`):
        ``activation`` is the array entering ``steps[start]`` — shared
        ``(B, ...)`` when ``diverged`` is False, or stacked ``(k, B, ...)``
        with rows aligned to ``configurations`` otherwise. The same
        bit-identity argument as :meth:`evaluate_logits` applies segment by
        segment, so per-row results equal sequential faulted forwards
        whenever ``activation`` itself is bit-identical to the sequential
        activation entering ``start``. When ``boundaries`` is a list, the
        state entering each subsequent step (ending with the logits state)
        is appended in step order. Returns the final state; its ``data``
        holds the logits, still shared when no faulted layer was crossed.
        """
        if not configurations:
            raise ValueError("need at least one configuration")
        self.configs_scored += len(configurations)
        errstate = guard.capture() if guard is not None else np.errstate(all="ignore")
        with no_grad(), errstate:
            state = _State(activation, diverged)
            for step in self._steps[start:]:
                state = self._run_module(step.module, step.name, state, configurations)
                if boundaries is not None:
                    boundaries.append(state)
        return state

    def evaluate(self, configurations: list[FaultConfiguration]) -> np.ndarray:
        """Classification error per configuration, shape ``(k,)``.

        Same hazard taxonomy as ``NumericalHazardGuard.score``: any row with
        a non-finite logit counts as an error deterministically, and the
        call's accounting is left in :attr:`last_hazard`.
        """
        logits = self.evaluate_logits(configurations)
        finite = np.isfinite(logits).all(axis=2)
        predictions = logits.argmax(axis=2)
        hazard_rows = (~finite).sum(axis=1)
        self.last_hazard = HazardReport(
            evaluations=len(configurations),
            hazard_evaluations=int((hazard_rows > 0).sum()),
            rows=int(finite.size),
            hazard_rows=int(hazard_rows.sum()),
        )
        wrong = ((predictions != self.labels[None, :]) & finite).sum(axis=1)
        return (wrong + hazard_rows) / logits.shape[1]

    def _prefix_activation(self) -> np.ndarray:
        """Shared golden activation entering the first faulted step."""
        with obs.phase("prefix.reuse"):
            return self._golden.entering(self._cut).data

    # ------------------------------------------------------------------ #
    # module dispatch
    # ------------------------------------------------------------------ #

    def _touched(self, name: str) -> bool:
        return any(target.startswith(name + ".") for target in self._targets)

    def _run_module(
        self,
        module: Module | None,
        name: str,
        state: _State,
        configurations: list[FaultConfiguration],
    ) -> _State:
        if module is None:  # MLP's synthetic input flatten
            data = state.data
            keep = 2 + (1 if state.diverged else 0)
            if data.ndim > keep:
                data = data.reshape(data.shape[: keep - 1] + (-1,))
            return _State(data, state.diverged)
        if not self._touched(name):
            if not state.diverged:
                return _State(module(Tensor(state.data)).data, False)
            if isinstance(module, Dense):
                # Folding k into the batch axis would change the GEMM's row
                # count, and BLAS kernel selection by M is not bit-stable.
                # Broadcasting over the leading k axis keeps each slice the
                # exact (B, in) @ (in, out) call the sequential path makes.
                out = np.matmul(state.data, module.weight.data)
                if module.bias is not None:
                    out = out + module.bias.data
                return _State(out, True)
            return _State(self._fold(module, state.data), True)
        if isinstance(module, Dense):
            return self._run_dense(module, name, state, configurations)
        if isinstance(module, Conv2d):
            return self._run_conv(module, name, state, configurations)
        if isinstance(module, _BatchNorm):
            return self._run_norm(module, name, state, configurations)
        if isinstance(module, BasicBlock):
            return self._run_block(module, name, state, configurations)
        if isinstance(module, Sequential):
            for child_name, child in module._modules.items():
                state = self._run_module(child, f"{name}.{child_name}", state, configurations)
            return state
        raise TypeError(  # pragma: no cover — construction validates this
            f"no batched handler for faulted module {type(module).__name__}"
        )

    @staticmethod
    def _fold(module: Module, data: np.ndarray, /) -> np.ndarray:
        """Run an untouched module once over the folded ``(k*B, ...)`` batch.

        Bit-identical to ``k`` separate calls because every eval-mode module
        here is batch-independent (elementwise, per-sample pooling, or
        frozen-statistics normalisation).
        """
        k, batch = data.shape[0], data.shape[1]
        folded = data.reshape((k * batch,) + data.shape[2:])
        out = module(Tensor(folded)).data
        return out.reshape((k, batch) + out.shape[1:])

    def _stacked_parameter(
        self, configurations: list[FaultConfiguration], name: str, golden: np.ndarray
    ) -> np.ndarray:
        """(k, *shape) faulted copies of one parameter (sparse XOR per row)."""
        k = len(configurations)
        stack = np.empty((k,) + golden.shape, dtype=golden.dtype)
        stack[...] = golden
        bits = stack.reshape(k, -1).view(np.uint32)
        with obs.phase("flip.sparse"):
            for i, configuration in enumerate(configurations):
                if name in configuration and configuration.touches(name):
                    sparse = configuration.sparse(name)
                    bits[i, sparse.elements] ^= sparse.lane_masks
        return stack

    def _run_dense(
        self, module: Dense, name: str, state: _State, configurations: list[FaultConfiguration]
    ) -> _State:
        weights = self._stacked_parameter(configurations, f"{name}.weight", module.weight.data)
        # (B, in) @ (k, in, out) and (k, B, in) @ (k, in, out) both broadcast
        # to (k, B, out), each k-slice an independent GEMM — bit-identical to
        # the sequential x @ W.
        out = np.matmul(state.data, weights)
        if module.bias is not None:
            biases = self._stacked_parameter(configurations, f"{name}.bias", module.bias.data)
            out = out + biases[:, None, :]
        return _State(out, True)

    def _run_conv(
        self, module: Conv2d, name: str, state: _State, configurations: list[FaultConfiguration]
    ) -> _State:
        weights = self._stacked_parameter(configurations, f"{name}.weight", module.weight.data)
        k = len(configurations)
        size = module.kernel_size
        # Shared (B*P, f) rows broadcast against the k kernels; diverged
        # (k, B*P, f) rows pair with them. Either way each k-slice is the
        # exact sgemm call conv2d makes for one configuration.
        rows, out_h, out_w = patch_rows(state.data, size, size, module.stride, module.padding)
        out = np.matmul(rows, weights.reshape(k, module.out_channels, -1).transpose(0, 2, 1))
        if module.bias is not None:
            biases = self._stacked_parameter(configurations, f"{name}.bias", module.bias.data)
            out = out + biases[:, None, :]
        batch = state.data.shape[-4]
        out = out.reshape(k, batch, out_h, out_w, module.out_channels)
        return _State(out.transpose(0, 1, 4, 2, 3), True)

    def _run_norm(
        self, module: _BatchNorm, name: str, state: _State, configurations: list[FaultConfiguration]
    ) -> _State:
        shape = (1, module.num_features) + (1,) * (len(module._param_shape) - 1)
        mean = module.running_mean.reshape(shape)
        var = module.running_var.reshape(shape)
        # Mirror _BatchNorm.forward exactly, including the float64 promotion
        # from the coerced eps scalar (0-d float64 under Tensor arithmetic).
        normalised = (state.data - mean) / np.sqrt(var + np.asarray(module.eps))
        gammas = self._stacked_parameter(configurations, f"{name}.weight", module.weight.data)
        betas = self._stacked_parameter(configurations, f"{name}.bias", module.bias.data)
        k = len(configurations)
        stacked_shape = (k, 1) + shape[1:]
        out = normalised * gammas.reshape(stacked_shape) + betas.reshape(stacked_shape)
        return _State(out, True)

    def _run_block(
        self, module: BasicBlock, name: str, state: _State, configurations: list[FaultConfiguration]
    ) -> _State:
        out = self._run_module(module.conv1, f"{name}.conv1", state, configurations)
        out = self._run_module(module.bn1, f"{name}.bn1", out, configurations)
        out = self._run_module(module.relu1, f"{name}.relu1", out, configurations)
        out = self._run_module(module.conv2, f"{name}.conv2", out, configurations)
        out = self._run_module(module.bn2, f"{name}.bn2", out, configurations)
        shortcut = self._run_module(module.shortcut, f"{name}.shortcut", state, configurations)
        # Residual add mirrors `out + self.shortcut(x)`; a shared operand
        # broadcasts over the configurations axis bit-identically.
        merged = _State(out.data + shortcut.data, out.diverged or shortcut.diverged)
        return self._run_module(module.relu2, f"{name}.relu2", merged, configurations)

