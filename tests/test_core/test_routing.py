"""Engine selection for i.i.d. forward campaigns, and its digest provenance.

Auto-selection batches a forward campaign only when batching removes work;
``engine.batched.configs`` in every campaign digest records how many
configurations the batched engine scored (0 on the reference path).
"""

import numpy as np
import pytest

import repro.obs as obs
from repro.core import BayesianFaultInjector
from repro.core.injector import _UNSET
from repro.faults import TargetSpec
from repro.obs.openmetrics import parse_samples, render_openmetrics


def batched_configs(result) -> int:
    return result.metrics["counters"]["engine.batched.configs"]


@pytest.fixture()
def resnet_surface(tiny_resnet, tiny_images):
    x, y = tiny_images
    return BayesianFaultInjector(tiny_resnet, x, y, spec=TargetSpec.weights_and_biases(), seed=2)


class TestForwardRouting:
    def test_resnet_full_surface_takes_reference_path(self, resnet_surface):
        assert resnet_surface._forward_evaluator() is None
        result = resnet_surface.forward_campaign(1e-4, samples=4, chains=2)
        assert batched_configs(result) == 0
        # the rule reads structure only: no batched engine was built for it
        assert resnet_surface._fast_evaluator is _UNSET

    def test_mlp_full_surface_is_batched(self, trained_mlp, moons_eval):
        eval_x, eval_y = moons_eval
        injector = BayesianFaultInjector(
            trained_mlp, eval_x, eval_y, spec=TargetSpec.weights_and_biases(), seed=2
        )
        assert injector._forward_evaluator() is not None
        result = injector.forward_campaign(1e-3, samples=6, chains=2)
        assert batched_configs(result) == 6

    def test_deep_resnet_layer_is_batched(self, tiny_resnet, tiny_images):
        x, y = tiny_images
        injector = BayesianFaultInjector(
            tiny_resnet, x, y, spec=TargetSpec.single_layer("stages.3.1.conv2"), seed=2
        )
        assert injector._forward_evaluator() is not None
        assert batched_configs(injector.forward_campaign(1e-3, samples=4, chains=1)) == 4

    def test_fast_true_forces_batching(self, tiny_resnet, tiny_images, resnet_surface):
        x, y = tiny_images
        forced = BayesianFaultInjector(
            tiny_resnet, x, y, spec=TargetSpec.weights_and_biases(), seed=2, fast=True
        )
        assert forced._forward_evaluator() is not None
        fast = forced.forward_campaign(1e-4, samples=4, chains=2)
        auto = resnet_surface.forward_campaign(1e-4, samples=4, chains=2)
        assert batched_configs(fast) == 4
        for a, b in zip(fast.chains.chains, auto.chains.chains):
            assert np.array_equal(a.values, b.values)

    def test_fast_false_digest_reports_zero(self, tiny_resnet, tiny_images):
        x, y = tiny_images
        injector = BayesianFaultInjector(
            tiny_resnet, x, y, spec=TargetSpec.single_layer("stages.3.1.conv2"), seed=2, fast=False
        )
        assert batched_configs(injector.forward_campaign(1e-3, samples=4, chains=1)) == 0
        assert batched_configs(injector.mcmc_campaign(1e-3, chains=2, steps=3)) == 0

    def test_delta_chain_campaign_counts_batched_configs(self, tiny_resnet, tiny_images):
        x, y = tiny_images
        injector = BayesianFaultInjector(
            tiny_resnet, x, y, spec=TargetSpec.single_layer("stages.3.1.conv2"), seed=2
        )
        result = injector.mcmc_campaign(1e-3, chains=2, steps=3)
        # initial states and recomputed proposals go through the batched
        # segments; unchanged proposals reuse cached logits and are not rescored
        assert 0 < batched_configs(result) <= 2 * (1 + 3)

    def test_counter_reaches_metrics_exposition(self, trained_mlp, moons_eval):
        eval_x, eval_y = moons_eval
        injector = BayesianFaultInjector(
            trained_mlp, eval_x, eval_y, spec=TargetSpec.weights_and_biases(), seed=2
        )
        obs.configure(metrics=True)
        try:
            injector.forward_campaign(1e-3, samples=4, chains=2)
            text = render_openmetrics(obs.metrics().snapshot())
        finally:
            obs.reset()
        assert parse_samples(text)["repro_engine_batched_configs_total"] == 4
