"""Clean-prefix activation caching for parameter-surface campaigns.

A layerwise (or otherwise layer-filtered) campaign injects faults into one
layer while the entire network below it stays golden — yet the standard
statistic re-runs the whole clean prefix on every faulted forward pass. For
the deep layers of ResNet-18 (the paper's Fig. 3 sweep) that prefix is the
dominant cost.

This module decomposes supported models into a *forward chain* of segments
whose sequential application is verified bit-identical to ``model(x)``,
finds the earliest segment any fault target lives in (the *cut point*),
and starts every faulted forward there from the golden activation entering
it. :class:`GoldenForward` computes the golden state once per model and
evaluation batch — the eager logits, every chain boundary and the
verification — and every injector and engine of a campaign on that batch
reads from it. Since the suffix executes exactly the ops the full forward
would — on bit-identical inputs, because the prefix parameters are
untouched — the logits are bit-identical to the standard path; the
property tests enforce that.
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

__all__ = ["ChainStep", "GoldenForward", "forward_chain", "prefix_cut", "run_chain"]

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


def prefix_cut(steps: list[ChainStep] | None, target_names: list[str]) -> int:
    """Index of the earliest step owning a target, or 0 when no prefix is worth reusing.

    0 also when a target's owner is unknown, or when only synthetic
    (parameterless) steps precede the cut — e.g. the MLP flatten.
    """
    owners = [owning_step(steps, name) for name in target_names] if steps else []
    if not owners or None in owners:
        return 0
    cut = min(owners)
    return 0 if all(step.module is None for step in steps[:cut]) else cut


class GoldenForward:
    """The golden forward of one model on one evaluation batch, computed once.

    Construction runs one eager ``model(x)``, whose :attr:`logits` give the
    golden error. The first use of :attr:`engaged` (or :meth:`entering`)
    runs the forward chain once on the golden parameters, records the
    activation entering every segment, and checks the chained logits bit
    for bit against the eager ones; the outcome, failure included, is
    cached. Injectors derived by
    :meth:`~repro.core.injector.BayesianFaultInjector.retarget`, and every
    engine they build, share one instance; another batch needs another.
    """

    def __init__(self, model: Module, x: Tensor) -> None:
        self.model = model
        self.x = x
        with no_grad():
            self.logits = model(x)
        self.steps = forward_chain(model)
        self._boundaries: list[Tensor] | None = None
        self._verified: bool | None = None

    @property
    def engaged(self) -> bool:
        """Whether the forward chain reproduces ``model(x)`` bit for bit."""
        if self._verified is None:
            boundaries = [self.x]
            with no_grad(), np.errstate(all="ignore"):
                for step in self.steps or []:
                    boundaries.append(step(boundaries[-1]))
            self._verified = self.steps is not None and np.array_equal(
                boundaries[-1].data.view(np.uint32), self.logits.data.view(np.uint32)
            )
            self._boundaries = boundaries if self._verified else None
        return self._verified

    def entering(self, index: int) -> Tensor:
        """Golden activation entering ``steps[index]`` (``len(steps)``: the logits)."""
        if not self.engaged:
            raise ValueError("forward chain is not bit-identical to model forward")
        return self._boundaries[index]

    def forward(self, start: int) -> Tensor:
        """One faulted forward from the golden activation entering ``steps[start]``.

        Call with the fault configuration applied and under the campaign's
        ``no_grad`` / hazard-guard context, like ``model(x)`` on the
        standard path; bit-identical to it when no fault lives below
        ``start`` (the suffix runs the same ops on a bit-identical input).
        """
        with obs.phase("prefix.reuse"):
            activation = self.entering(start)
        return run_chain(self.steps, activation, start=start)


#: former name of the golden-prefix forward, kept importable because the
#: perfbench span tracer wraps ``PrefixCachedForward.forward``
PrefixCachedForward = GoldenForward
