"""Batched multi-configuration evaluation: equivalence and speed."""

import time

import numpy as np
import pytest

from repro.core import BatchedNetworkEvaluator, BayesianFaultInjector
from repro.core.delta import DeltaChainEvaluator
from repro.faults import BernoulliBitFlipModel, FaultConfiguration, FaultSurface, TargetSpec
from repro.nn import Dense, Module


@pytest.fixture()
def injector(trained_mlp, moons_eval):
    eval_x, eval_y = moons_eval
    return BayesianFaultInjector(
        trained_mlp, eval_x, eval_y, spec=TargetSpec.weights_and_biases(), seed=0
    )


@pytest.fixture()
def evaluator(injector):
    return BatchedNetworkEvaluator(injector)


@pytest.fixture()
def standard(trained_mlp, moons_eval):
    eval_x, eval_y = moons_eval
    return BayesianFaultInjector(
        trained_mlp, eval_x, eval_y, spec=TargetSpec.weights_and_biases(), seed=0, fast=False
    )


class TestEquivalence:
    def test_matches_sequential_statistic_exactly(self, injector, evaluator, rng):
        """Bit-for-bit agreement with the standard per-configuration path
        on the argmax decisions (float64 batched math vs float32 sequential
        can differ in ULPs, but decisions — hence errors — must agree)."""
        statistic = injector.make_statistic(None, rng)
        configurations = [
            FaultConfiguration.sample(injector.parameter_targets, BernoulliBitFlipModel(0.01), rng)
            for _ in range(25)
        ]
        batched = DeltaChainEvaluator(injector, evaluator).score(configurations)
        sequential = np.asarray([statistic(c) for c in configurations])
        assert np.allclose(batched, sequential, atol=1e-9)

    def test_empty_configuration_gives_golden(self, injector, evaluator):
        empty = FaultConfiguration.empty(injector.parameter_targets)
        errors = DeltaChainEvaluator(injector, evaluator).score([empty])
        assert errors[0] == pytest.approx(injector.golden_error)

    def test_handles_nonfinite_weights(self, injector, evaluator):
        name, param = injector.parameter_targets[0]
        masks = {n: np.zeros(p.shape, dtype=np.uint32) for n, p in injector.parameter_targets}
        masks[name][tuple(0 for _ in param.shape)] = np.uint32(1) << np.uint32(30)
        errors = DeltaChainEvaluator(injector, evaluator).score([FaultConfiguration(masks)])
        assert 0.0 <= errors[0] <= 1.0


class TestCampaignFrontEnd:
    """The injector batches dense forward campaigns itself."""

    def test_campaign_statistics_match_standard_path(self, injector, standard):
        p = 5e-3
        batched = injector.forward_campaign(p, samples=300)
        reference = standard.forward_campaign(p, samples=300)
        assert batched.metrics["counters"]["engine.batched.configs"] == 300
        assert np.array_equal(batched.chains.matrix(), reference.chains.matrix())
        assert batched.mean_error == reference.mean_error

    def test_not_slower_than_sequential(self, injector, standard):
        """Best-of-3 timing with generous slack: wall-clock tests on a
        shared box are noisy, so assert only that batching does not
        regress (typical observed speed-up on this MLP is 3-15x)."""
        p = 1e-2
        n = 200

        def best_of_three(fn):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                fn()
                times.append(time.perf_counter() - start)
            return min(times)

        batched_time = best_of_three(lambda: injector.forward_campaign(p, samples=n))
        sequential_time = best_of_three(lambda: standard.forward_campaign(p, samples=n))
        assert batched_time < 1.5 * sequential_time

    def test_validation(self, injector, evaluator):
        with pytest.raises(ValueError):
            injector.forward_campaign(1e-3, samples=0)
        with pytest.raises(ValueError):
            DeltaChainEvaluator(injector, evaluator).score([])


class TestScope:
    def test_transient_surfaces_rejected(self, trained_mlp, moons_eval):
        eval_x, eval_y = moons_eval
        injector = BayesianFaultInjector(
            trained_mlp, eval_x, eval_y,
            spec=TargetSpec(surfaces=frozenset({FaultSurface.WEIGHTS, FaultSurface.ACTIVATIONS})),
            seed=0,
        )
        with pytest.raises(ValueError, match="parameter surfaces"):
            BatchedNetworkEvaluator(injector)

    def test_unsupported_models_rejected(self, moons_eval):
        class Custom(Module):
            def __init__(self):
                super().__init__()
                self.dense = Dense(2, 2, rng=0)

            def forward(self, x):
                return self.dense(x)

        eval_x, eval_y = moons_eval
        injector = BayesianFaultInjector(
            Custom().eval(), eval_x, eval_y, spec=TargetSpec.weights_and_biases(), seed=0
        )
        with pytest.raises(TypeError, match="no forward chain"):
            BatchedNetworkEvaluator(injector)
