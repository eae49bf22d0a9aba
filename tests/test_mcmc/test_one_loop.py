"""One stepping loop per sampler, over one scoring interface.

Each sampler used to keep a sequential loop over the statistic next to a
lockstep loop over the delta engine (and the forward campaign had its own
batched executor). The copies below are those earlier sequential loops,
kept verbatim in substance; the single loops must reproduce them bit for
bit, both on a parameter-only surface (where the delta engine runs every
chain in lockstep) and on a mixed weights + activations surface (where the
reference engine must step chain after chain, because every chain reads
one shared transient-fault stream).

Adaptive (E5) and stratified (E6) campaigns now score through the engine
the forward routing rule selects, and must equal the ``fast=False`` path.
"""

import math

import numpy as np
import pytest

from repro.core import BayesianFaultInjector
from repro.core.hazard import NumericalHazardGuard
from repro.exec import StratifiedSpec
from repro.faults import BernoulliBitFlipModel, FaultConfiguration, FaultSurface, TargetSpec
from repro.mcmc import (
    Chain,
    ChainSet,
    CompletenessCriterion,
    ForwardSampler,
    MetropolisHastingsSampler,
    ParallelTemperingSampler,
    PriorTarget,
)
from repro.mcmc.engine import StatisticEngine
from repro.utils.rng import spawn_generators

CHAINS = 2
MIXED = TargetSpec(surfaces=frozenset({FaultSurface.WEIGHTS, FaultSurface.ACTIVATIONS}))


# ---------------------------------------------------------------------- #
# the earlier sequential loops
# ---------------------------------------------------------------------- #


def sequential_mh(sampler, chains, steps, rng):
    """``MetropolisHastingsSampler.run`` / ``run_chain`` without an engine."""
    result = []
    for chain_id, gen in enumerate(spawn_generators(rng, chains)):
        state = sampler.initial(gen)
        state_stat = sampler.statistic(state)
        state_logd = sampler._log_density(state, state_stat)
        chain = Chain(chain_id)
        for _ in range(steps):
            candidate, log_hastings = sampler.proposal.propose(state, gen)
            candidate_stat = sampler.statistic(candidate)
            candidate_logd = sampler._log_density(candidate, candidate_stat)
            log_alpha = candidate_logd - state_logd + log_hastings
            accepted = math.log(gen.random()) < log_alpha if log_alpha < 0 else True
            if accepted:
                state, state_stat, state_logd = candidate, candidate_stat, candidate_logd
            chain.record(state_stat, state.total_flips(), accepted=accepted)
        result.append(chain)
    return ChainSet(result)


def sequential_tempering(sampler, chains, sweeps, rng):
    """``ParallelTemperingSampler.run`` / ``run_chain`` without an engine."""
    n_rungs = len(sampler.betas)
    colds, rung_totals, attempts, accepts = [], np.zeros(n_rungs), 0, 0
    for chain_id, gen in enumerate(spawn_generators(rng, chains)):
        states = [
            FaultConfiguration.sample(sampler.targets, sampler.fault_model, gen)
            for _ in range(n_rungs)
        ]
        stats = [sampler.statistic(s) for s in states]
        log_priors = [s.log_prob(sampler.fault_model) for s in states]
        cold = Chain(chain_id)
        rung_sums = np.zeros(n_rungs)
        for _ in range(sweeps):
            for rung, beta in enumerate(sampler.betas):
                candidate, log_hastings = sampler.proposal.propose(states[rung], gen)
                candidate_stat = sampler.statistic(candidate)
                candidate_log_prior = candidate.log_prob(sampler.fault_model)
                log_alpha = (
                    (candidate_log_prior + beta * candidate_stat)
                    - (log_priors[rung] + beta * stats[rung])
                    + log_hastings
                )
                if log_alpha >= 0 or np.log(gen.random()) < log_alpha:
                    states[rung], stats[rung], log_priors[rung] = (
                        candidate, candidate_stat, candidate_log_prior,
                    )
            low = int(gen.integers(0, n_rungs - 1))
            high = low + 1
            log_alpha = (sampler.betas[low] - sampler.betas[high]) * (stats[high] - stats[low])
            attempts += 1
            if log_alpha >= 0 or np.log(gen.random()) < log_alpha:
                states[low], states[high] = states[high], states[low]
                stats[low], stats[high] = stats[high], stats[low]
                log_priors[low], log_priors[high] = log_priors[high], log_priors[low]
                accepts += 1
            cold.record(stats[0], states[0].total_flips())
            rung_sums += stats
        colds.append(cold)
        rung_totals += rung_sums / sweeps
    rung_means = tuple(float(v) for v in rung_totals / chains)
    return ChainSet(colds), rung_means, accepts / attempts


def sequential_forward(sampler, chains, steps, rng):
    """``ForwardSampler.run`` one configuration at a time."""
    result = []
    for chain_id, gen in enumerate(spawn_generators(rng, chains)):
        chain = Chain(chain_id)
        for _ in range(steps):
            configuration = FaultConfiguration.sample(sampler.targets, sampler.fault_model, gen)
            chain.record(sampler.statistic(configuration), configuration.total_flips())
        result.append(chain)
    return ChainSet(result)


def batched_forward(injector, fault_model, chains, steps, rng):
    """The injector's former batched forward executor, chunks of 8."""
    evaluator = injector._batched_evaluator()
    guard = NumericalHazardGuard()
    result = []
    for chain_id, gen in enumerate(spawn_generators(rng, chains)):
        chain = Chain(chain_id)
        configurations = [
            FaultConfiguration.sample(injector.parameter_targets, fault_model, gen)
            for _ in range(steps)
        ]
        for start in range(0, steps, 8):
            chunk = configurations[start : start + 8]
            logits = evaluator.evaluate_logits(chunk, guard=guard)
            for configuration, row in zip(chunk, logits):
                chain.record(guard.score(row, injector.labels), configuration.total_flips())
        result.append(chain)
    return ChainSet(result)


# ---------------------------------------------------------------------- #
# helpers
# ---------------------------------------------------------------------- #


class LockstepStatistic(StatisticEngine):
    """The reference engine wrongly allowed to interleave chains."""

    lockstep = True


def assert_same_chains(a: ChainSet, b: ChainSet):
    assert len(a) == len(b) == CHAINS
    for ca, cb in zip(a.chains, b.chains):
        assert ca.chain_id == cb.chain_id
        assert np.array_equal(ca.values, cb.values)
        assert np.array_equal(ca.flips, cb.flips)
        assert np.array_equal(ca.accepts, cb.accepts)


@pytest.fixture(params=["parameters", "mixed"])
def surface(request, trained_mlp, moons_eval):
    """(surface kind, injector, fault model) per surface."""
    eval_x, eval_y = moons_eval
    spec = TargetSpec.weights_and_biases() if request.param == "parameters" else MIXED
    injector = BayesianFaultInjector(trained_mlp, eval_x, eval_y, spec=spec, seed=5)
    return request.param, injector, BernoulliBitFlipModel(5e-3)


def statistic(injector, fault_model):
    """A statistic with a fresh transient stream (read only on the mixed surface)."""
    return injector.make_statistic(fault_model, np.random.default_rng(99))


def mh(injector, fault_model, engine=None):
    return MetropolisHastingsSampler(
        PriorTarget(fault_model),
        injector._make_proposal(fault_model, 0.5, 0.5),
        statistic(injector, fault_model),
        initial=lambda r: FaultConfiguration.sample(injector.parameter_targets, fault_model, r),
        engine=engine,
    )


def tempering(injector, fault_model, engine=None):
    return ParallelTemperingSampler(
        injector.parameter_targets,
        fault_model,
        statistic(injector, fault_model),
        injector._make_proposal(fault_model, 0.8, 0.2),
        betas=(0.0, 10.0, 40.0),
        engine=engine,
    )


# ---------------------------------------------------------------------- #
# one loop == the earlier sequential loops
# ---------------------------------------------------------------------- #


class TestMetropolisHastings:
    def test_engine_the_campaign_picks(self, surface):
        kind, injector, fault_model = surface
        engine = injector._chain_engine()
        assert (engine is not None) == (kind == "parameters")
        expected = sequential_mh(mh(injector, fault_model), CHAINS, 12, 3)
        assert_same_chains(mh(injector, fault_model, engine).run(CHAINS, 12, 3), expected)

    def test_reference_engine(self, surface):
        _, injector, fault_model = surface
        expected = sequential_mh(mh(injector, fault_model), CHAINS, 12, 3)
        assert_same_chains(mh(injector, fault_model).run(CHAINS, 12, 3), expected)

    def test_run_chain_is_a_group_of_one(self, surface):
        _, injector, fault_model = surface
        expected = sequential_mh(mh(injector, fault_model), 1, 12, 3).chains[0]
        sampler = mh(injector, fault_model, injector._chain_engine())
        chain = sampler.run_chain(12, spawn_generators(3, 1)[0])
        assert np.array_equal(chain.values, expected.values)
        assert np.array_equal(chain.accepts, expected.accepts)

    def test_transient_stream_order_is_pinned(self, trained_mlp, moons_eval):
        """Interleaving chains would reorder the shared transient draws."""
        eval_x, eval_y = moons_eval
        injector = BayesianFaultInjector(trained_mlp, eval_x, eval_y, spec=MIXED, seed=5)
        fault_model = BernoulliBitFlipModel(5e-2)
        expected = sequential_mh(mh(injector, fault_model), CHAINS, 12, 3)
        interleaved = mh(injector, fault_model, LockstepStatistic(statistic(injector, fault_model)))
        got = interleaved.run(CHAINS, 12, 3)
        assert not all(
            np.array_equal(a.values, b.values) for a, b in zip(got.chains, expected.chains)
        )


class TestParallelTempering:
    def test_engine_the_campaign_picks(self, surface):
        _, injector, fault_model = surface
        cold, rung_means, swap = sequential_tempering(tempering(injector, fault_model), CHAINS, 10, 4)
        result = tempering(injector, fault_model, injector._chain_engine()).run(CHAINS, 10, 4)
        assert_same_chains(result.cold_chains, cold)
        assert result.rung_means == rung_means
        assert result.swap_acceptance == swap

    def test_reference_engine(self, surface):
        _, injector, fault_model = surface
        cold, rung_means, swap = sequential_tempering(tempering(injector, fault_model), CHAINS, 10, 4)
        result = tempering(injector, fault_model).run(CHAINS, 10, 4)
        assert_same_chains(result.cold_chains, cold)
        assert result.rung_means == rung_means
        assert result.swap_acceptance == swap


class TestForward:
    def test_single_loop_matches_earlier_paths(self, surface):
        kind, injector, fault_model = surface
        engine = injector._forward_engine()
        assert (engine is not None) == (kind == "parameters")
        targets = injector.parameter_targets
        sampler = ForwardSampler(targets, fault_model, statistic(injector, fault_model), engine)
        got = sampler.run(CHAINS, 19, 6)  # 19 = two whole chunks and a partial one
        if kind == "parameters":
            expected = batched_forward(injector, fault_model, CHAINS, 19, 6)
        else:
            reference = ForwardSampler(targets, fault_model, statistic(injector, fault_model))
            expected = sequential_forward(reference, CHAINS, 19, 6)
        assert_same_chains(got, expected)

    def test_campaign_counts_batched_configs(self, surface):
        kind, injector, _ = surface
        result = injector.forward_campaign(5e-3, samples=20, chains=CHAINS)
        configs = result.metrics["counters"]["engine.batched.configs"]
        assert configs == (20 if kind == "parameters" else 0)


# ---------------------------------------------------------------------- #
# adaptive (E5) and stratified (E6) reach the engine
# ---------------------------------------------------------------------- #


@pytest.fixture(params=["mlp", "resnet-deep"])
def pair(request, trained_mlp, moons_eval, tiny_resnet, tiny_images):
    """(default injector, fast=False injector, flip probability) per model."""
    if request.param == "mlp":
        model, (x, y), spec, p = trained_mlp, moons_eval, TargetSpec.weights_and_biases(), 2e-3
    else:
        model, (x, y), spec, p = (
            tiny_resnet, tiny_images, TargetSpec.single_layer("stages.3.1.conv2"), 1e-6
        )
    return (
        BayesianFaultInjector(model, x, y, spec=spec, seed=7),
        BayesianFaultInjector(model, x, y, spec=spec, seed=7, fast=False),
        p,
    )


def assert_same_campaign(fast, standard):
    assert_chain_values(fast, standard)
    assert fast.mean_error == standard.mean_error
    counters, reference = fast.metrics["counters"], standard.metrics["counters"]
    assert counters["evaluations"] == reference["evaluations"]
    assert fast.hazard.rows == standard.hazard.rows
    assert fast.hazard.evaluations == standard.hazard.evaluations
    assert counters["engine.batched.configs"] > 0
    assert reference["engine.batched.configs"] == 0


def assert_chain_values(a, b):
    assert len(a.chains) == len(b.chains)
    for ca, cb in zip(a.chains.chains, b.chains.chains):
        assert np.array_equal(ca.values, cb.values)
        assert np.array_equal(ca.flips, cb.flips)


class TestEstimatorsReachTheEngine:
    def test_adaptive(self, pair):
        fast, standard, p = pair
        criterion = CompletenessCriterion(r_hat_threshold=1.1, min_ess=8.0, stderr_tolerance=0.02)

        def run(injector):
            return injector.run_until_complete(
                p, criterion=criterion, chains=2, batch_steps=5, max_steps=15
            )

        rf, rs = run(fast), run(standard)
        assert_same_campaign(rf, rs)
        assert rf.completeness.r_hat == rs.completeness.r_hat or (
            np.isnan(rf.completeness.r_hat) and np.isnan(rs.completeness.r_hat)
        )

    def test_stratified(self, pair):
        fast, standard, p = pair
        spec = StratifiedSpec(p=p, samples_per_stratum=3)
        assert_same_campaign(fast.run(spec), standard.run(spec))

    def test_stratified_estimate(self, pair):
        from repro.core.stratified import StratifiedErrorEstimator

        fast, standard, p = pair
        ef = StratifiedErrorEstimator(fast, samples_per_stratum=3).estimate(p)
        es = StratifiedErrorEstimator(standard, samples_per_stratum=3).estimate(p)
        assert ef.mean_error == es.mean_error
        assert ef.evaluations == es.evaluations
        for k in es.stratum_samples:
            assert np.array_equal(ef.stratum_samples[k], es.stratum_samples[k])
