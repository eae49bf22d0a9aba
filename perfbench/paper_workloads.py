"""The three paper pipelines the benchmark drives, each as repeatable rounds.

Every workload builds its inputs from the workload seed (the injector
seed, hence every campaign's fault realisations) over golden networks
that :mod:`repro.bench.workloads` trains once and caches. A *round* is
one full pass of the pipeline from one caller, submitted and awaited in
order (a closed loop with a single client). The *reference* is the same
campaign list on the standard path (``fast=False``, ``workers=1``), run
once per benchmark run; every round's outcomes must equal it bit for bit.

Only public entry points are used: ``BayesianFaultInjector``,
``ProbabilitySweep``, ``LayerwiseCampaign``, ``ParallelCampaignExecutor``,
``CampaignJournal`` and ``EstimatorTracker``.
"""

from __future__ import annotations

import functools
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

import repro.obs as obs
from repro.bench import workloads as golden
from repro.core import BayesianFaultInjector, ProbabilitySweep
from repro.core.layerwise import LayerwiseCampaign, parameterised_layers
from repro.exec import (
    AdaptiveSpec,
    CampaignJournal,
    ForwardSpec,
    InjectorRecipe,
    McmcSpec,
    ParallelCampaignExecutor,
    StratifiedSpec,
    TemperedSpec,
    TemperingSpec,
    campaign_fingerprint,
)
from repro.faults import TargetSpec
from repro.mcmc import CompletenessCriterion
from repro.nn import MLP
from repro.obs import estimator as estimator_mod

#: campaign kinds whose digests carry Metropolis–Hastings acceptance
CHAIN_KINDS = ("mcmc", "tempered", "tempering")


@dataclass
class Round:
    """Outcome of one pass: per-campaign results in submission order."""

    wall_s: float
    kinds: list[str]
    #: CampaignResult, ``(CampaignResult, weighted)`` pair, or ``None`` when failed
    outcomes: list
    #: outcomes a second pass of the same round returned (journal resume)
    replayed: list | None = None
    notes: dict = field(default_factory=dict)
    #: why each failed campaign failed, in order of failure
    failures: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.outcomes) + len(self.replayed or ())

    @property
    def evaluations(self) -> int:
        """Faulted configurations scored (first pass; a replay scores none)."""
        return sum(
            (o[0] if isinstance(o, tuple) else o).total_evaluations
            for o in self.outcomes
            if o is not None
        )


def signature(outcome) -> tuple:
    """Bit-exact identity of an outcome: chain values, mean error, weighted error."""
    if outcome is None:
        return ("failed",)
    weighted = b""
    if isinstance(outcome, tuple):
        outcome, weighted = outcome[0], np.float64(outcome[1]).tobytes()
    chains = tuple(np.asarray(c.values, dtype=np.float64).tobytes() for c in outcome.chains.chains)
    return ("ok", chains, np.float64(outcome.mean_error).tobytes(), weighted)


def digest_counters(outcome) -> dict:
    if outcome is None:
        return {}
    if isinstance(outcome, tuple):
        outcome = outcome[0]
    return dict((outcome.metrics or {}).get("counters", {}))


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def _attempt(run, count: int, failures: list) -> list:
    """Outcomes of one in-process call; a raise fails all ``count`` campaigns.

    The benchmark counts a failure and goes on, as the pooled workload's
    ``on_failure="degrade"`` executor does, instead of stopping the run.
    """
    try:
        return run()
    except Exception as exc:
        failures.append(repr(exc))
        return [None] * count


class Workload:
    """Base: ``setup`` (timed as set-up), ``round``, ``reference``."""

    name = ""
    workers = 1

    def __init__(self, seed: int, cache_dir: str, work_dir: str) -> None:
        self.seed = seed
        self.cache_dir = cache_dir
        self.work_dir = work_dir

    def prepare(self) -> None:
        """Train (first run) or load the golden network; never timed."""
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, counters: bool = False) -> Round:
        """One pass on the selected path; ``counters`` attaches a metrics
        registry so digests carry the detailed delta/flip counters."""
        raise NotImplementedError

    def reference(self) -> Round:
        raise NotImplementedError

    def standard_round(self) -> Round:
        """A round of the same shape as ``round`` on the ``fast=False`` path."""
        return self.reference()

    def comparison_rounds(self) -> list[tuple[str, Round]]:
        """Paired rounds for the traced run's interleaved ratios, by label."""
        return [("standard", self.standard_round())]


class _Registry:
    """Attach a fresh process-wide registry for one round (``--metrics`` style)."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled

    def __enter__(self):
        if self.enabled:
            obs.configure(metrics=obs.MetricsRegistry())

    def __exit__(self, *_exc):
        if self.enabled:
            obs.configure(metrics=None)


# ---------------------------------------------------------------------- #
# fig4_surface
# ---------------------------------------------------------------------- #


class Fig4Surface(Workload):
    """Fig-4 sweep: full weight+bias surface of the full-tier ResNet-18."""

    name = "fig4_surface"
    #: one point in each regime of the error-vs-p curve, whose knee sits
    #: near 2e-6: flat (1e-7), rising (1e-5) and saturated (1e-3)
    GRID = tuple(float(p) for p in np.logspace(-7, -3, 3))
    #: 16 configurations per campaign, as in the auto-versus-standard
    #: measurement that motivates this workload: two chains of 8, so each
    #: chain fills one whole batched chunk of the fast path
    TEMPLATE = ForwardSpec(p=1e-7, samples=16, chains=2)

    def prepare(self) -> None:
        golden.golden_resnet_images(False, self.cache_dir, data=golden.resnet_image_data(False))
        self._reference_injector = None

    def setup(self) -> None:
        data = golden.resnet_image_data(False)
        self.model = golden.golden_resnet_images(False, self.cache_dir, data=data)
        self.x, self.y = golden.resnet_image_eval(False, data=data)
        self.injector = BayesianFaultInjector(
            self.model, self.x, self.y, spec=TargetSpec.weights_and_biases(), seed=self.seed
        )
        # engine construction is lazy; one warm-up configuration builds it
        self.injector.run(ForwardSpec(p=self.GRID[0], samples=1, chains=1, stream="warmup"))

    def _sweep(self, injector, counters: bool) -> Round:
        failures: list[str] = []

        def sweep():
            swept = ProbabilitySweep(injector, p_values=self.GRID, spec=self.TEMPLATE).run()
            return [point.campaign for point in swept.points]

        with _Registry(counters):
            outcomes, wall = _timed(lambda: _attempt(sweep, len(self.GRID), failures))
        return Round(wall, ["forward"] * len(self.GRID), outcomes, failures=failures)

    def round(self, counters: bool = False) -> Round:
        return self._sweep(self.injector, counters)

    def reference(self) -> Round:
        if self._reference_injector is None:
            self._reference_injector = BayesianFaultInjector(
                self.model, self.x, self.y, spec=TargetSpec.weights_and_biases(),
                seed=self.seed, fast=False,
            )
        return self._sweep(self._reference_injector, False)


# ---------------------------------------------------------------------- #
# fig3_layers
# ---------------------------------------------------------------------- #


class Fig3Layers(Workload):
    """Fig-3 layerwise campaign, then E5/E6 estimators on the same network."""

    name = "fig3_layers"
    #: eval images per forward, half the quick-tier batch: the per-layer
    #: construction cost scales with it, and at 16 a round stays short
    #: enough for several rounds plus the standard-path reference per run
    EVAL = 16
    LAYER_P = 1e-3
    CHAIN_P = 1e-4
    DEEP = "stages.3.1.conv2"
    PAIR = ("stages.2.0.conv1", "stages.3.1.conv2")
    #: stated accuracy for the adaptive arm (E5 time-to-accuracy)
    CRITERION = CompletenessCriterion(r_hat_threshold=1.1, min_ess=8.0, stderr_tolerance=0.02)

    def prepare(self) -> None:
        golden.golden_resnet_images(False, self.cache_dir, data=golden.resnet_image_data(False))
        self._reference_injectors = None

    def _injectors(self, fast):
        deep = BayesianFaultInjector(
            self.model, self.x, self.y, spec=TargetSpec.single_layer(self.DEEP),
            seed=self.seed, fast=fast,
        )
        pair = BayesianFaultInjector(
            self.model, self.x, self.y,
            spec=TargetSpec.weights_and_biases(include_layers=self.PAIR),
            seed=self.seed, fast=fast,
        )
        return deep, pair

    def setup(self) -> None:
        data = golden.resnet_image_data(False)
        self.model = golden.golden_resnet_images(False, self.cache_dir, data=data)
        x, y = golden.resnet_image_eval(False, data=data)
        self.x, self.y = x[: self.EVAL], y[: self.EVAL]
        self.layers = parameterised_layers(self.model)
        self.deep, self.pair = self._injectors(None)
        for injector in (self.deep, self.pair):
            injector.run(ForwardSpec(p=self.CHAIN_P, samples=1, chains=1, stream="warmup"))

    def _pass(self, deep, pair, fast, counters: bool) -> Round:
        p = self.CHAIN_P
        failures: list[str] = []

        def layerwise():
            campaign = LayerwiseCampaign(
                self.model, self.x, self.y, p=self.LAYER_P, samples=2, chains=2,
                layers=tuple(self.layers), seed=self.seed, fast=fast,
            ).run()
            return [result.campaign for result in campaign.results]

        def campaigns():
            outcomes = _attempt(layerwise, len(self.layers), failures)
            kinds = ["forward"] * len(outcomes)
            for kind, run in (
                ("mcmc", lambda: deep.run(McmcSpec(p=p, chains=4, steps=8))),
                ("tempered", lambda: deep.run(TemperedSpec(p=p, beta=8.0, chains=4, steps=8))),
                ("tempering", lambda: deep.run(TemperingSpec(p=p, chains=1, sweeps=8))),
                ("adaptive", lambda: deep.run_until_complete(
                    p, criterion=self.CRITERION, chains=2, batch_steps=4, max_steps=24)),
                ("stratified", lambda: deep.run(StratifiedSpec(p=p / 10, samples_per_stratum=2))),
                ("mcmc", lambda: pair.run(McmcSpec(p=p, chains=4, steps=8))),
            ):
                outcomes += _attempt(lambda: [run()], 1, failures)
                kinds.append(kind)
            return kinds, outcomes

        with _Registry(counters):
            (kinds, outcomes), wall = _timed(campaigns)
        return Round(wall, kinds, outcomes, failures=failures)

    def round(self, counters: bool = False) -> Round:
        return self._pass(self.deep, self.pair, None, counters)

    def reference(self) -> Round:
        if self._reference_injectors is None:
            self._reference_injectors = self._injectors(False)
        return self._pass(*self._reference_injectors, False, False)


# ---------------------------------------------------------------------- #
# fig2_pool
# ---------------------------------------------------------------------- #


class Fig2Pool(Workload):
    """Fig-2/E5/E6 sweep of the image MLP over a two-worker pool, then resumed."""

    name = "fig2_pool"
    workers = 2
    GRID = tuple(float(p) for p in np.logspace(-5, -1, 13))

    def prepare(self) -> None:
        golden.golden_mlp_images(False, self.cache_dir, data=golden.mlp_image_data(False))
        self._rounds = 0
        self._standard_recipe = None
        self.specs = []
        for p in self.GRID:
            self.specs += [
                ForwardSpec(p=p, samples=100, chains=2),
                McmcSpec(p=p, chains=2, steps=50),
                AdaptiveSpec(p=p, chains=2, batch_steps=25, max_steps=100),
                StratifiedSpec(p=p, samples_per_stratum=8),
            ]
        self.kinds = [spec.kind for spec in self.specs]
        self.fingerprint = campaign_fingerprint(self.specs, self.seed)

    def _recipe(self, fast):
        return InjectorRecipe.from_model(
            self.model, self.x, self.y, spec=TargetSpec.weights_and_biases(), seed=self.seed,
            model_builder=functools.partial(MLP, self.x[0].size, (8,), 10, rng=0), fast=fast,
        )

    def setup(self) -> None:
        data = golden.mlp_image_data(False)
        self.model = golden.golden_mlp_images(False, self.cache_dir, data=data)
        self.x, self.y = golden.mlp_image_eval(False, data=data)
        self.recipe = self._recipe(None)
        # the sweep's own injector in this process (golden evaluation)
        self.injector = self.recipe.build()
        self.executor = ParallelCampaignExecutor(
            self.recipe, workers=self.workers, on_failure="degrade"
        )

    def _pass_on(self, executor, journal, recipe=None) -> tuple[list, dict, list[str]]:
        executor.journal = journal
        try:
            outcomes = executor.run(self.specs, recipe)
        finally:
            executor.journal = None
        stats = executor.stats
        notes = {
            "tasks": stats.tasks,
            "failed": stats.failed,
            "retries": stats.retries,
            "journal_hits": stats.journal_hits,
        }
        failures = [
            f"{self.kinds[failure.index]} p={self.specs[failure.index].p:.3g}: {failure.reason}"
            for failure in stats.failed_tasks
        ]
        return outcomes, notes, failures

    def round(self, counters: bool = False, instrumented: bool = True, recipe=None) -> Round:
        """Fresh pass into a new journal, then the same sweep resumed from it.

        ``recipe`` replaces the executor's own (selected-path) recipe for
        both passes.
        """
        self._rounds += 1
        directory = os.path.join(self.work_dir, f"round-{self._rounds}")
        os.makedirs(directory)
        path = os.path.join(directory, "journal.jsonl")
        if instrumented:
            # what --metrics/--serve attach: a registry and the estimator fold
            tracker = estimator_mod.install(estimator_mod.EstimatorTracker())
            obs.configure(metrics=obs.MetricsRegistry(), progress=tracker)
        try:
            start = time.perf_counter()
            with CampaignJournal(path, fingerprint=self.fingerprint) as journal:
                fresh, fresh_notes, failures = self._pass_on(self.executor, journal, recipe)
            fresh_s = time.perf_counter() - start
            with CampaignJournal.resume(path, fingerprint=self.fingerprint) as journal:
                replayed, replay_notes, replay_failures = self._pass_on(
                    self.executor, journal, recipe
                )
            wall = time.perf_counter() - start
        finally:
            if instrumented:
                obs.configure(metrics=None, progress=None)
                estimator_mod.uninstall()
            shutil.rmtree(directory, ignore_errors=True)
        notes = {
            "fresh_s": fresh_s,
            "fresh": fresh_notes,
            "resume": replay_notes,
        }
        return Round(wall, list(self.kinds), fresh, replayed=replayed, notes=notes,
                     failures=failures + replay_failures)

    def reference(self) -> Round:
        executor = ParallelCampaignExecutor(self._recipe(False), workers=1, on_failure="degrade")
        (outcomes, _, failures), wall = _timed(lambda: self._pass_on(executor, None))
        return Round(wall, list(self.kinds), outcomes, failures=failures)

    def standard_round(self) -> Round:
        if self._standard_recipe is None:
            self._standard_recipe = self._recipe(False)
        return self.round(recipe=self._standard_recipe)

    def comparison_rounds(self):
        return [("standard", self.standard_round()), ("bare", self.round(instrumented=False))]


WORKLOADS = {cls.name: cls for cls in (Fig4Surface, Fig3Layers, Fig2Pool)}
