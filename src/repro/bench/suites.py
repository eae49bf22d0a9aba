"""The standard benchmark groups behind ``repro bench``.

Each suite builder returns ``{case_name: CaseSpec}`` — zero-argument
callables over seed-pinned workloads (see :mod:`repro.bench.workloads`)
plus their warmup/repeat protocol. Group names match the historical
``benchmarks/bench_*.py`` files they mirror, and the emitted baselines are
``BENCH_<group>.json``:

* ``bench_micro`` — the primitives campaign cost is built from (mask
  sampling, XOR application, a faulted forward pass, one MCMC stretch,
  the conv2d kernel);
* ``bench_parallel_sweep`` — a probability sweep sequentially and fanned
  over a worker pool;
* ``bench_fig2_mlp_sweep`` — the paper's Fig. 2 error-vs-p sweep on the
  image MLP;
* ``bench_completeness`` — fixed-budget MCMC mixing and adaptive stopping;
* ``bench_fastpath`` — the faulted-forward fast path (prefix caching +
  batched evaluation + sparse apply) against the standard path on one
  deep ResNet-18 layer, on a full ResNet-18 layerwise sweep and on the
  full ResNet-18 surface;
* ``bench_mcmc`` — delta-forward chain campaigns against the standard
  per-proposal forward, across the three proposal locality regimes
  (same-layer, cross-layer, full-surface);
* ``bench_estimator`` — the estimator tracker's fold throughput over 10k
  synthetic task outcomes and the query-side document/exposition builds.

Every suite has a *quick* tier (smaller grids/budgets, same case names) so
CI gates on the same baselines a developer regenerates locally with
``python -m repro bench --quick``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.bench import workloads

__all__ = ["CaseSpec", "SUITES", "suite_names", "build_suite"]

#: seed shared by all campaign workloads (the paper's year, as elsewhere)
DEFAULT_SEED = 2019


@dataclass(frozen=True)
class CaseSpec:
    """One benchmark case: the callable plus its measurement protocol."""

    fn: Callable[[], object]
    warmup: int = 1
    repeats: int = 5


def _micro_suite(quick: bool, seed: int, cache_dir: str | None) -> dict[str, CaseSpec]:
    from repro.bits import apply_bit_mask, sample_bernoulli_mask
    from repro.core import BayesianFaultInjector
    from repro.faults import BernoulliBitFlipModel, FaultConfiguration, TargetSpec
    from repro.mcmc import MetropolisHastingsSampler, PriorTarget, SingleBitToggle
    from repro.tensor import Tensor, conv2d, no_grad

    repeats = 3 if quick else 7
    # Sub-millisecond cases are dominated by scheduler jitter at 3 repeats,
    # which made the CI gate flaky; their per-repeat cost is trivial, so
    # take enough samples for a stable median in both tiers.
    light_repeats = 15
    model = workloads.golden_mlp_moons(cache_dir)
    eval_x, eval_y = workloads.moons_eval_batch()
    injector = BayesianFaultInjector(
        model, eval_x, eval_y, spec=TargetSpec.weights_and_biases(), seed=seed
    )
    fault_model = BernoulliBitFlipModel(1e-3)
    statistic = injector.make_statistic(fault_model, np.random.default_rng(3))
    configuration = FaultConfiguration.sample(
        injector.parameter_targets, fault_model, np.random.default_rng(4)
    )
    values = np.random.default_rng(1).normal(size=1_000_000).astype(np.float32)
    mask = sample_bernoulli_mask((1_000_000,), 1e-4, np.random.default_rng(2))
    conv_rng = np.random.default_rng(7)
    conv_x = Tensor(conv_rng.normal(size=(16, 16, 12, 12)).astype(np.float32))
    conv_w = Tensor(conv_rng.normal(size=(32, 16, 3, 3)).astype(np.float32))

    def mask_sampling():
        workloads_rng = np.random.default_rng(0)
        return sample_bernoulli_mask((1_000_000,), 1e-5, workloads_rng)

    def mcmc_stretch():
        sampler = MetropolisHastingsSampler(
            PriorTarget(fault_model),
            SingleBitToggle(injector.parameter_targets),
            statistic,
            initial=lambda r: FaultConfiguration.sample(
                injector.parameter_targets, fault_model, r
            ),
        )
        return sampler.run_chain(10, np.random.default_rng(6))

    def conv_forward():
        with no_grad():
            return conv2d(conv_x, conv_w, stride=1, padding=1)

    return {
        "mask_sampling_small_p": CaseSpec(mask_sampling, repeats=light_repeats),
        "mask_application": CaseSpec(
            lambda: apply_bit_mask(values, mask), repeats=light_repeats
        ),
        "faulted_forward_mlp": CaseSpec(
            lambda: statistic(configuration), repeats=light_repeats
        ),
        "mcmc_10_steps": CaseSpec(mcmc_stretch, repeats=repeats),
        "conv2d_forward": CaseSpec(conv_forward, repeats=repeats),
    }


def _parallel_sweep_suite(quick: bool, seed: int, cache_dir: str | None) -> dict[str, CaseSpec]:
    from repro.core import BayesianFaultInjector, ProbabilitySweep
    from repro.exec import InjectorRecipe, ParallelCampaignExecutor
    from repro.faults import TargetSpec
    from repro.nn import paper_mlp

    p_values = tuple(np.logspace(-5, -1, 5 if quick else 13))
    samples = 30 if quick else 120
    pool = 2 if quick else 4
    model = workloads.golden_mlp_moons(cache_dir)
    eval_x, eval_y = workloads.moons_eval_batch()
    recipe = InjectorRecipe.from_model(
        model, eval_x, eval_y,
        spec=TargetSpec.weights_and_biases(), seed=seed,
        model_builder=functools.partial(paper_mlp, rng=0),
    )

    def sweep(workers: int):
        injector = BayesianFaultInjector(
            model, eval_x, eval_y, spec=TargetSpec.weights_and_biases(), seed=seed
        )
        executor = ParallelCampaignExecutor(recipe, workers=workers)
        return ProbabilitySweep(
            injector, p_values=p_values, samples=samples, chains=2, executor=executor
        ).run()

    repeats = 2 if quick else 3
    return {
        "sweep_sequential": CaseSpec(lambda: sweep(1), warmup=1, repeats=repeats),
        "sweep_parallel": CaseSpec(lambda: sweep(pool), warmup=1, repeats=repeats),
    }


def _fig2_suite(quick: bool, seed: int, cache_dir: str | None) -> dict[str, CaseSpec]:
    from repro.core import BayesianFaultInjector, ProbabilitySweep
    from repro.faults import TargetSpec

    p_values = tuple(np.logspace(-5, -1, 5 if quick else 13))
    samples = 30 if quick else 150
    data = workloads.mlp_image_data(quick)
    model = workloads.golden_mlp_images(quick, cache_dir, data=data)
    eval_x, eval_y = workloads.mlp_image_eval(quick, data=data)
    injector = BayesianFaultInjector(
        model, eval_x, eval_y, spec=TargetSpec.weights_and_biases(), seed=seed
    )

    def sweep():
        return ProbabilitySweep(
            injector, p_values=p_values, samples=samples, chains=2
        ).run()

    return {"fig2_sweep": CaseSpec(sweep, warmup=1, repeats=2 if quick else 3)}


def _completeness_suite(quick: bool, seed: int, cache_dir: str | None) -> dict[str, CaseSpec]:
    from repro.core import BayesianFaultInjector
    from repro.faults import TargetSpec
    from repro.mcmc import CompletenessCriterion

    flip_p = 5e-3
    chains = 2 if quick else 4
    steps = 60 if quick else 500
    model = workloads.golden_mlp_moons(cache_dir)
    eval_x, eval_y = workloads.moons_eval_batch()
    injector = BayesianFaultInjector(
        model, eval_x, eval_y, spec=TargetSpec.weights_and_biases(), seed=seed
    )
    criterion = CompletenessCriterion(
        stderr_tolerance=0.02 if quick else 0.01, min_ess=50 if quick else 100
    )

    def mcmc_fixed():
        return injector.mcmc_campaign(flip_p, chains=chains, steps=steps)

    def adaptive():
        return injector.run_until_complete(
            flip_p,
            criterion=criterion,
            chains=chains,
            batch_steps=25 if quick else 50,
            max_steps=200 if quick else 1000,
        )

    repeats = 2 if quick else 3
    return {
        "mcmc_fixed_budget": CaseSpec(mcmc_fixed, warmup=0, repeats=repeats),
        "adaptive_stopping": CaseSpec(adaptive, warmup=0, repeats=repeats),
    }


def _fastpath_suite(quick: bool, seed: int, cache_dir: str | None) -> dict[str, CaseSpec]:
    """The faulted-forward fast path against the standard path it replaces.

    The campaign pair is the paper's Fig. 3 regime — a layerwise campaign
    on a deep ResNet-18 layer, where the clean prefix dominates each
    forward — run with ``fast=True`` (prefix caching + batched evaluation)
    and ``fast=False`` (full forward per configuration). Both compute
    bit-identical results; the ratio of their medians is the speedup the
    fast path buys. The layerwise-sweep pair times a whole
    :class:`~repro.core.layerwise.LayerwiseCampaign` (every layer, 2
    configurations each), so per-layer construction is timed too. The
    surface pair is the Fig. 4 regime — the full
    weight+bias surface, where no golden prefix is shared and
    auto-selection therefore takes the standard path; its ratio is what
    forcing the batched engine would cost. The apply pair isolates the
    injection primitive:
    sparse copy-on-write at campaign-realistic flip density versus the
    dense full-array XOR it replaced.
    """
    from repro.bits import apply_bit_mask
    from repro.core import BayesianFaultInjector, LayerwiseCampaign
    from repro.faults import (
        BernoulliBitFlipModel,
        FaultConfiguration,
        TargetSpec,
        apply_configuration,
    )
    from repro.faults.targets import resolve_parameter_targets

    data = workloads.resnet_image_data(quick)
    model = workloads.golden_resnet_images(quick, cache_dir, data=data)
    eval_x, eval_y = workloads.resnet_image_eval(quick, data=data)
    layer = "stages.3.1.conv2"
    samples = 8 if quick else 32
    flip_p = 1e-4

    fast_injector = BayesianFaultInjector(
        model, eval_x, eval_y, spec=TargetSpec.single_layer(layer), seed=seed, fast=True
    )
    standard_injector = BayesianFaultInjector(
        model, eval_x, eval_y, spec=TargetSpec.single_layer(layer), seed=seed, fast=False
    )

    surface = TargetSpec.weights_and_biases()
    surface_fast = BayesianFaultInjector(model, eval_x, eval_y, spec=surface, seed=seed, fast=True)
    surface_standard = BayesianFaultInjector(
        model, eval_x, eval_y, spec=surface, seed=seed, fast=False
    )

    def campaign(injector):
        return injector.forward_campaign(flip_p, samples=samples, chains=1)

    def layerwise_sweep(fast):
        return LayerwiseCampaign(
            model, eval_x, eval_y, p=1e-3, samples=2, chains=2, seed=seed, fast=fast
        ).run()

    # The apply pair shares one sampled configuration over the full
    # parameter surface; the dense reference densifies outside the timed
    # region (``sparse()`` keeps the configuration's storage sparse).
    targets = resolve_parameter_targets(model, TargetSpec.weights_and_biases())
    configuration = FaultConfiguration.sample(
        targets, BernoulliBitFlipModel(1e-5), np.random.default_rng(seed)
    )
    dense_masks = {name: configuration.sparse(name).to_dense() for name, _ in targets}

    def apply_sparse():
        with apply_configuration(model, configuration):
            pass

    def apply_dense():
        return [apply_bit_mask(param.data, dense_masks[name]) for name, param in targets]

    repeats = 3 if quick else 5
    return {
        "resnet_layerwise_fast": CaseSpec(
            functools.partial(campaign, fast_injector), repeats=repeats
        ),
        "resnet_layerwise_standard": CaseSpec(
            functools.partial(campaign, standard_injector), repeats=repeats
        ),
        "resnet_layerwise_sweep_fast": CaseSpec(
            functools.partial(layerwise_sweep, None), repeats=repeats
        ),
        "resnet_layerwise_sweep_standard": CaseSpec(
            functools.partial(layerwise_sweep, False), repeats=repeats
        ),
        "resnet_surface_fast": CaseSpec(
            functools.partial(campaign, surface_fast), repeats=repeats
        ),
        "resnet_surface_standard": CaseSpec(
            functools.partial(campaign, surface_standard), repeats=repeats
        ),
        "apply_sparse_cow": CaseSpec(apply_sparse, repeats=15),
        "apply_dense_xor": CaseSpec(apply_dense, repeats=15),
    }


def _mcmc_suite(quick: bool, seed: int, cache_dir: str | None) -> dict[str, CaseSpec]:
    """Delta-forward chain campaigns against the standard per-proposal path.

    Three proposal locality regimes, each as a fast/standard pair whose
    median ratio is the speedup the delta engine buys (results are
    bit-identical, so only wall-clock differs):

    * *same-layer* — MCMC confined to a deep ResNet-18 layer; every
      proposal diff lands at the layer's chain segment, so the delta path
      reuses almost the whole network per round (the headline case);
    * *cross-layer* — targets at two depths; the reusable prefix per
      proposal alternates between the shallow and deep cut;
    * *full-surface* — a tempered campaign over every MLP parameter; the
      delta often spans most of the (short) chain, so the win comes mainly
      from round batching — the fallback regime.
    """
    from repro.core import BayesianFaultInjector
    from repro.faults import TargetSpec

    data = workloads.resnet_image_data(quick)
    resnet = workloads.golden_resnet_images(quick, cache_dir, data=data)
    resnet_x, resnet_y = workloads.resnet_image_eval(quick, data=data)
    mlp = workloads.golden_mlp_moons(cache_dir)
    mlp_x, mlp_y = workloads.moons_eval_batch()

    chains = 2
    steps = 10 if quick else 40
    flip_p = 1e-4

    def pair(model, x, y, spec):
        fast = BayesianFaultInjector(model, x, y, spec=spec, seed=seed, fast=True)
        standard = BayesianFaultInjector(model, x, y, spec=spec, seed=seed, fast=False)
        return fast, standard

    same_fast, same_standard = pair(
        resnet, resnet_x, resnet_y, TargetSpec.single_layer("stages.3.1.conv2")
    )
    cross_fast, cross_standard = pair(
        resnet, resnet_x, resnet_y,
        TargetSpec.weights_and_biases(
            include_layers=("stages.2.0.conv1", "stages.3.1.conv2")
        ),
    )
    full_fast, full_standard = pair(
        mlp, mlp_x, mlp_y, TargetSpec.weights_and_biases()
    )

    def mcmc(injector):
        return injector.mcmc_campaign(flip_p, chains=chains, steps=steps)

    def tempered(injector):
        return injector.tempered_campaign(flip_p, beta=8.0, chains=chains, steps=steps)

    repeats = 3 if quick else 5
    return {
        "resnet_chain_fast": CaseSpec(functools.partial(mcmc, same_fast), repeats=repeats),
        "resnet_chain_standard": CaseSpec(
            functools.partial(mcmc, same_standard), repeats=repeats
        ),
        "resnet_cross_layer_fast": CaseSpec(
            functools.partial(mcmc, cross_fast), repeats=repeats
        ),
        "resnet_cross_layer_standard": CaseSpec(
            functools.partial(mcmc, cross_standard), repeats=repeats
        ),
        "mlp_full_surface_fast": CaseSpec(
            functools.partial(tempered, full_fast), repeats=repeats
        ),
        "mlp_full_surface_standard": CaseSpec(
            functools.partial(tempered, full_standard), repeats=repeats
        ),
    }


def _estimator_suite(quick: bool, seed: int, cache_dir: str | None) -> dict[str, CaseSpec]:
    from repro.obs.estimator import EstimatorTracker, StoppingTarget
    from repro.obs.progress import ProgressEvent

    # synthetic outcome stream: 10k tasks over 20 strata (4 layer labels ×
    # 5 flip probabilities), 40 trials each — the fold must stay O(1) per
    # event for the live tracker to be free on the delivery path
    rng = np.random.default_rng(seed)
    layers = ("all", "fc1", "fc2", "conv1")
    events = []
    for task in range(10_000):
        degraded = np.flatnonzero(rng.random(40) < 0.3)
        events.append(
            ProgressEvent(
                kind="estimate",
                payload={
                    "task": task,
                    "layer": layers[task % len(layers)],
                    "bitfield": "all",
                    "p": 10.0 ** -(task % 5 + 1),
                    "trials": 40,
                    "degraded_trials": [int(i) for i in degraded],
                },
            )
        )

    def fold():
        tracker = EstimatorTracker(target=StoppingTarget(0.05))
        for event in events:
            tracker.emit(event)
        return tracker

    folded = fold()

    repeats = 3 if quick else 7
    return {
        "fold_10k_outcomes": CaseSpec(fold, repeats=repeats),
        "estimates_document": CaseSpec(folded.estimates, repeats=repeats),
        "metric_families": CaseSpec(folded.metric_families, repeats=repeats),
    }


#: group name → suite builder ``(quick, seed, cache_dir) → {name: CaseSpec}``
SUITES: dict[str, Callable[[bool, int, str | None], dict[str, CaseSpec]]] = {
    "bench_micro": _micro_suite,
    "bench_parallel_sweep": _parallel_sweep_suite,
    "bench_fig2_mlp_sweep": _fig2_suite,
    "bench_completeness": _completeness_suite,
    "bench_fastpath": _fastpath_suite,
    "bench_mcmc": _mcmc_suite,
    "bench_estimator": _estimator_suite,
}


def suite_names() -> list[str]:
    return sorted(SUITES)


def build_suite(name: str, *, quick: bool, seed: int = DEFAULT_SEED, cache_dir: str | None = None):
    """Instantiate one suite's cases (trains/loads its workloads)."""
    if name not in SUITES:
        raise ValueError(f"unknown bench suite {name!r}; choose from {suite_names()}")
    return SUITES[name](quick, seed, cache_dir)
