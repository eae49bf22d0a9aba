"""The faulted-forward fast path must be bit-identical to the standard path.

Three layers under test: batched conv-net evaluation
(:class:`BatchedNetworkEvaluator`), the prefix-cached statistic inside
:class:`BayesianFaultInjector`, and the fast forward-campaign executor —
each compared at the bit level against the sequential
``apply_configuration`` + ``model(x)`` reference.
"""

import numpy as np
import pytest

from repro.core import BatchedNetworkEvaluator, BayesianFaultInjector
from repro.core.delta import DeltaChainEvaluator
from repro.faults import (
    BernoulliBitFlipModel,
    FaultConfiguration,
    FaultSurface,
    TargetSpec,
    apply_configuration,
)
from repro.nn import LeNet
from repro.nn.module import Module
from repro.tensor.tensor import no_grad

EXPONENT_LANES = tuple(range(23, 31))
MANTISSA_LANES = tuple(range(0, 23))


def sequential_logits(injector, configuration):
    with apply_configuration(injector.model, configuration), no_grad(), np.errstate(all="ignore"):
        return injector.model(injector._x).data


def as_bits(array):
    return np.ascontiguousarray(array).view(np.uint8)


def assert_bit_identical(evaluator, injector, configurations):
    batched = evaluator.evaluate_logits(configurations)
    for i, configuration in enumerate(configurations):
        reference = sequential_logits(injector, configuration)
        assert batched[i].dtype == reference.dtype
        assert np.array_equal(as_bits(batched[i]), as_bits(reference)), (
            f"configuration {i} diverged from the sequential path"
        )


@pytest.fixture()
def lenet_injector(rng):
    model = LeNet(in_channels=3, image_size=12, rng=0).eval()
    x = rng.normal(size=(6, 3, 12, 12)).astype(np.float32)
    y = rng.integers(0, 10, size=6).astype(np.int64)
    return BayesianFaultInjector(
        model, x, y, spec=TargetSpec.weights_and_biases(), seed=3
    )


@pytest.fixture()
def resnet_injector(tiny_resnet, tiny_images):
    x, y = tiny_images
    return BayesianFaultInjector(
        tiny_resnet, x, y, spec=TargetSpec.single_layer("stages.2.0.conv1"), seed=3
    )


class TestBatchedBitIdentity:
    def test_empty_configurations_give_golden_logits(self, lenet_injector):
        evaluator = BatchedNetworkEvaluator(lenet_injector)
        empty = [FaultConfiguration.empty(lenet_injector.parameter_targets) for _ in range(3)]
        assert_bit_identical(evaluator, lenet_injector, empty)

    @pytest.mark.parametrize("p", [1e-7, 1e-3, 0.5])
    def test_lenet_all_layers(self, lenet_injector, p, rng):
        evaluator = BatchedNetworkEvaluator(lenet_injector)
        model = BernoulliBitFlipModel(p)
        configurations = [
            FaultConfiguration.sample(lenet_injector.parameter_targets, model, rng)
            for _ in range(4)
        ]
        assert_bit_identical(evaluator, lenet_injector, configurations)

    @pytest.mark.parametrize("p", [1e-3, 0.5])
    def test_resnet_mid_layer(self, resnet_injector, p, rng):
        evaluator = BatchedNetworkEvaluator(resnet_injector)
        model = BernoulliBitFlipModel(p)
        configurations = [
            FaultConfiguration.sample(resnet_injector.parameter_targets, model, rng)
            for _ in range(4)
        ]
        assert_bit_identical(evaluator, resnet_injector, configurations)

    @pytest.mark.parametrize(
        "lanes", [None, (31,), EXPONENT_LANES, MANTISSA_LANES], ids=["all", "sign", "exp", "mant"]
    )
    def test_lane_restrictions(self, lenet_injector, lanes, rng):
        evaluator = BatchedNetworkEvaluator(lenet_injector)
        model = BernoulliBitFlipModel(0.01, bits=lanes)
        configurations = [
            FaultConfiguration.sample(lenet_injector.parameter_targets, model, rng)
            for _ in range(3)
        ]
        assert_bit_identical(evaluator, lenet_injector, configurations)

    def test_no_fault_leakage_into_golden_model(self, lenet_injector, rng):
        """The sweep stacks faulted copies; the live parameters never change."""
        evaluator = BatchedNetworkEvaluator(lenet_injector)
        golden = {
            name: param.data.copy() for name, param in lenet_injector.parameter_targets
        }
        configurations = [
            FaultConfiguration.sample(
                lenet_injector.parameter_targets, BernoulliBitFlipModel(0.1), rng
            )
            for _ in range(4)
        ]
        evaluator.evaluate_logits(configurations)
        for name, param in lenet_injector.parameter_targets:
            assert np.array_equal(param.data.view(np.uint32), golden[name].view(np.uint32))

    def test_error_taxonomy_matches_guard(self, lenet_injector, rng):
        """score() applies the hazard-aware scoring of the sequential path."""
        statistic = lenet_injector.make_statistic(None, rng)
        evaluator = BatchedNetworkEvaluator(lenet_injector)
        configurations = [
            FaultConfiguration.sample(
                lenet_injector.parameter_targets, BernoulliBitFlipModel(0.05), rng
            )
            for _ in range(6)
        ]
        batched = DeltaChainEvaluator(lenet_injector, evaluator).score(configurations)
        sequential = np.asarray([statistic(c) for c in configurations])
        assert np.array_equal(batched, sequential)


class TestFastCampaignIdentity:
    @pytest.mark.parametrize("p", [1e-7, 1e-3, 0.5])
    def test_forward_campaign_bit_identical(self, lenet_injector, p):
        slow = BayesianFaultInjector(
            lenet_injector.model, lenet_injector.inputs, lenet_injector.labels,
            spec=TargetSpec.weights_and_biases(), seed=3, fast=False,
        )
        fast = BayesianFaultInjector(
            lenet_injector.model, lenet_injector.inputs, lenet_injector.labels,
            spec=TargetSpec.weights_and_biases(), seed=3, fast=True,
        )
        rs = slow.forward_campaign(p, samples=20, chains=2)
        rf = fast.forward_campaign(p, samples=20, chains=2)
        for cs, cf in zip(rs.chains.chains, rf.chains.chains):
            assert np.array_equal(cs.values, cf.values)
            assert np.array_equal(cs.flips, cf.flips)
        assert rs.hazard.rows == rf.hazard.rows
        assert rs.hazard.hazard_rows == rf.hazard.hazard_rows
        assert rs.mean_error == rf.mean_error

    def test_mcmc_campaign_bit_identical(self, tiny_resnet, tiny_images):
        x, y = tiny_images
        spec = TargetSpec.single_layer("stages.3.1.conv2")
        slow = BayesianFaultInjector(tiny_resnet, x, y, spec=spec, seed=5, fast=False)
        fast = BayesianFaultInjector(tiny_resnet, x, y, spec=spec, seed=5)
        assert fast._prefix_forward() is not None and fast._prefix_forward().engaged
        rs = slow.mcmc_campaign(1e-3, chains=2, steps=10)
        rf = fast.mcmc_campaign(1e-3, chains=2, steps=10)
        for cs, cf in zip(rs.chains.chains, rf.chains.chains):
            assert np.array_equal(cs.values, cf.values)
        assert rs.chains.accepted_total() == rf.chains.accepted_total()

    def test_fast_false_disables_machinery(self, lenet_injector):
        slow = BayesianFaultInjector(
            lenet_injector.model, lenet_injector.inputs, lenet_injector.labels,
            spec=TargetSpec.weights_and_biases(), seed=3, fast=False,
        )
        assert slow._prefix_forward() is None
        assert slow._batched_evaluator() is None


class TestFastValidation:
    def test_fast_true_rejects_transient_surfaces(self, trained_mlp, moons_eval):
        eval_x, eval_y = moons_eval
        with pytest.raises(ValueError, match="parameter-only"):
            BayesianFaultInjector(
                trained_mlp, eval_x, eval_y,
                spec=TargetSpec(surfaces=(FaultSurface.ACTIVATIONS,)),
                fast=True,
            )

    def test_fast_true_raises_for_undecomposable_model(self, moons_eval):
        from repro.nn import MLP

        class Custom(Module):
            def __init__(self):
                super().__init__()
                self.inner = MLP(2, (4,), 2, rng=0)

            def forward(self, x):
                return self.inner(x)

        eval_x, eval_y = moons_eval
        injector = BayesianFaultInjector(Custom().eval(), eval_x, eval_y, fast=True)
        with pytest.raises(ValueError, match="fast=True"):
            injector.forward_campaign(1e-3, samples=4, chains=1)

    def test_transient_surfaces_fall_back_to_standard_path(self, trained_mlp, moons_eval):
        eval_x, eval_y = moons_eval
        injector = BayesianFaultInjector(
            trained_mlp, eval_x, eval_y,
            spec=TargetSpec(surfaces=(FaultSurface.WEIGHTS, FaultSurface.ACTIVATIONS)),
        )
        assert injector._prefix_forward() is None
        assert injector._batched_evaluator() is None
        result = injector.forward_campaign(1e-3, samples=8, chains=2)
        assert result.chains.steps == 4


class TestCliFlag:
    @pytest.mark.parametrize(
        "argv,expected",
        [([], None), (["--fast"], True), (["--no-fast"], False)],
    )
    def test_campaign_fast_flag(self, argv, expected):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["campaign", "golden.npz", "--workbench", "mlp-moons", *argv]
        )
        assert args.fast is expected

    def test_layerwise_and_sweep_expose_flag(self):
        from repro.cli import build_parser

        for command in ("layerwise", "sweep"):
            args = build_parser().parse_args(
                [command, "golden.npz", "--workbench", "mlp-moons", "--no-fast"]
            )
            assert args.fast is False
