"""Clean-prefix activation caching for parameter-surface campaigns.

A layerwise (or otherwise layer-filtered) campaign injects faults into one
layer while the entire network below it stays golden — yet the standard
statistic re-runs the whole clean prefix on every faulted forward pass. For
the deep layers of ResNet-18 (the paper's Fig. 3 sweep) that prefix is the
dominant cost.

This module decomposes supported models into a *forward chain* of segments
whose sequential application is verified bit-identical to ``model(x)``,
finds the earliest segment any fault target lives in (the *cut point*),
caches the golden activation entering the cut (keyed by the injector's
fixed evaluation batch), and starts every faulted forward there. Since the
suffix executes exactly the ops the full forward would — on bit-identical
inputs, because the prefix parameters are untouched — the logits are
bit-identical to the standard path; the property tests enforce that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import repro.obs as obs
from repro.nn.containers import Sequential
from repro.nn.conv import Conv2d
from repro.nn.models.lenet import LeNet
from repro.nn.models.mlp import MLP
from repro.nn.models.resnet import ResNet
from repro.nn.module import Module
from repro.tensor.tensor import Tensor, no_grad

__all__ = ["ChainStep", "forward_chain", "run_chain", "PrefixCachedForward"]

#: sentinel step name for the MLP's implicit input flatten (owns no params)
_FLATTEN = "<flatten>"


@dataclass(frozen=True)
class ChainStep:
    """One segment of a model's forward chain.

    ``module is None`` marks the synthetic input-flatten step that
    replicates :meth:`repro.nn.models.mlp.MLP.forward`'s reshape.
    """

    name: str
    module: Module | None

    def __call__(self, x: Tensor) -> Tensor:
        if self.module is None:
            return x.reshape(x.shape[0], -1) if x.ndim > 2 else x
        return self.module(x)


def _expand(name: str, module: Module, out: list[ChainStep]) -> None:
    """Flatten nested Sequentials into leaf/block steps, preserving order."""
    if isinstance(module, Sequential):
        for child_name, child in module._modules.items():
            _expand(f"{name}.{child_name}" if name else child_name, child, out)
    else:
        out.append(ChainStep(name, module))


def forward_chain(model: Module) -> list[ChainStep] | None:
    """Decompose ``model`` into forward-chain segments, or ``None``.

    Supported topologies are the ones whose ``forward`` is a straight-line
    composition of child modules (plus MLP's input flatten): MLP,
    Sequential, LeNet, and ResNet (stem → blocks → pool → fc; each
    BasicBlock stays one segment, its residual structure intact). Callers
    must still verify the chain against the real forward (:func:`run_chain`
    versus ``model(x)``) before trusting it — subclasses may override
    ``forward``.
    """
    steps: list[ChainStep] = []
    if isinstance(model, MLP):
        steps.append(ChainStep(_FLATTEN, None))
        _expand("layers", model.layers, steps)
    elif isinstance(model, LeNet):
        _expand("features", model.features, steps)
        _expand("classifier", model.classifier, steps)
    elif isinstance(model, ResNet):
        _expand("stem", model.stem, steps)
        _expand("stages", model.stages, steps)
        steps.append(ChainStep("pool", model.pool))
        steps.append(ChainStep("fc", model.fc))
    elif isinstance(model, Sequential):
        _expand("", model, steps)
    else:
        return None
    return steps or None


def run_chain(steps: list[ChainStep], x: Tensor, start: int = 0) -> Tensor:
    """Apply ``steps[start:]`` to ``x`` in order."""
    for step in steps[start:]:
        x = step(x)
    return x


def owning_step(steps: list[ChainStep], parameter_name: str) -> int | None:
    """Index of the chain step owning a dotted parameter name, or ``None``."""
    for index, step in enumerate(steps):
        if step.module is None:
            continue
        if step.name and parameter_name.startswith(step.name + "."):
            return index
    return None


def faults_conv_head(model: Module, target_names: list[str]) -> bool:
    """Whether a target lives in a Conv2d that is the first module of the chain.

    Such a campaign shares no golden prefix: every configuration runs every
    conv of the network, so stacking configurations saves no work.
    """
    steps = forward_chain(model) or []
    head = next((index for index, step in enumerate(steps) if step.module is not None), None)
    return head is not None and isinstance(steps[head].module, Conv2d) and any(
        owning_step(steps, name) == head for name in target_names
    )


class PrefixCachedForward:
    """Evaluate faulted forwards from a cached golden prefix activation.

    Parameters
    ----------
    model:
        The golden network (eval mode).
    x:
        The fixed evaluation batch every campaign forward uses — the cache
        key; a different batch needs a different instance.
    target_names:
        Dotted parameter names faults may land in. The cut point is the
        earliest chain segment owning any of them.

    ``engaged`` is False (and :meth:`forward` must not be used) when the
    model topology is unsupported, the chain fails bit-identity
    verification against ``model(x)``, a target cannot be located, or the
    cut point is the first segment (nothing to reuse).
    """

    def __init__(self, model: Module, x: Tensor, target_names: list[str]) -> None:
        self.model = model
        self.x = x
        self.cut = 0
        self._steps = forward_chain(model)
        self._prefix_activation: Tensor | None = None
        if self._steps is None or not target_names:
            return
        owners = [owning_step(self._steps, name) for name in target_names]
        if any(owner is None for owner in owners):
            return
        cut = min(owners)
        if cut <= 0:
            return
        if all(step.module is None for step in self._steps[:cut]):
            # Only synthetic (parameterless) steps precede the cut — e.g. the
            # MLP flatten before its first Dense. Nothing worth caching.
            return
        # Verify the decomposition reproduces the real forward bit-for-bit
        # before trusting it (a subclass could override forward()).
        with no_grad(), np.errstate(all="ignore"):
            direct = model(x)
            chained = run_chain(self._steps, x)
        if not np.array_equal(
            direct.data.view(np.uint32), chained.data.view(np.uint32)
        ):
            return
        self.cut = cut

    @property
    def engaged(self) -> bool:
        """Whether faulted forwards will reuse a cached prefix."""
        return self.cut > 0

    def prefix_activation(self) -> Tensor:
        """Golden activation entering the cut segment (computed once)."""
        if self._prefix_activation is None:
            with no_grad():
                self._prefix_activation = run_chain(self._steps[: self.cut], self.x)
        return self._prefix_activation

    def forward(self) -> Tensor:
        """One faulted forward: cached prefix + live suffix.

        Call with the fault configuration already applied (the suffix reads
        the live parameter arrays) and under the campaign's ``no_grad`` /
        hazard-guard context, exactly like ``model(x)`` on the standard
        path.
        """
        with obs.phase("prefix.reuse"):
            activation = self.prefix_activation()
        return run_chain(self._steps, activation, start=self.cut)
