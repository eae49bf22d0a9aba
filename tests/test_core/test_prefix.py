"""Clean-prefix activation caching: chain decomposition and bit-identity."""

import gc
import weakref

import numpy as np
import pytest

from repro.core import BatchedNetworkEvaluator, BayesianFaultInjector
from repro.core.prefix import GoldenForward, forward_chain, owning_step, prefix_cut, run_chain
from repro.faults import BernoulliBitFlipModel, FaultConfiguration, TargetSpec, apply_configuration
from repro.faults.targets import resolve_parameter_targets
from repro.nn import LeNet, MLP, Sequential
from repro.nn.module import Module
from repro.tensor.tensor import Tensor, no_grad


def logits_bits(tensor):
    return np.ascontiguousarray(tensor.data).view(np.uint8)


class TestForwardChain:
    def test_mlp_chain_matches_forward(self, trained_mlp, moons_eval):
        x = Tensor(moons_eval[0])
        steps = forward_chain(trained_mlp)
        assert steps is not None
        with no_grad():
            direct = trained_mlp(x)
            chained = run_chain(steps, x)
        assert np.array_equal(logits_bits(direct), logits_bits(chained))

    def test_resnet_chain_matches_forward(self, tiny_resnet, tiny_images):
        x = Tensor(tiny_images[0])
        steps = forward_chain(tiny_resnet)
        assert steps is not None
        with no_grad():
            direct = tiny_resnet(x)
            chained = run_chain(steps, x)
        assert np.array_equal(logits_bits(direct), logits_bits(chained))

    def test_lenet_chain_matches_forward(self, rng):
        model = LeNet(in_channels=1, image_size=12, rng=0).eval()
        x = Tensor(rng.normal(size=(4, 1, 12, 12)).astype(np.float32))
        steps = forward_chain(model)
        with no_grad():
            direct = model(x)
            chained = run_chain(steps, x)
        assert np.array_equal(logits_bits(direct), logits_bits(chained))

    def test_unsupported_model_returns_none(self):
        class Custom(Module):
            def forward(self, x):  # pragma: no cover - structure only
                return x

        assert forward_chain(Custom()) is None

    def test_owning_step(self, tiny_resnet):
        steps = forward_chain(tiny_resnet)
        fc_owner = owning_step(steps, "fc.weight")
        stem_owner = owning_step(steps, "stem.0.weight")
        assert fc_owner == len(steps) - 1
        assert stem_owner is not None and stem_owner < fc_owner
        assert owning_step(steps, "nonexistent.weight") is None


def golden_cut(model, x, targets):
    """Shared golden forward plus the cut a campaign on ``targets`` starts at."""
    golden = GoldenForward(model, x)
    return golden, prefix_cut(golden.steps, [name for name, _ in targets])


class TestGoldenForward:
    @pytest.mark.parametrize("layer", ["layers.2"])
    @pytest.mark.parametrize("p", [1e-7, 1e-3, 0.5])
    def test_mlp_faulted_forward_bit_identical(self, trained_mlp, moons_eval, layer, p, rng):
        x = Tensor(moons_eval[0])
        targets = resolve_parameter_targets(trained_mlp, TargetSpec.single_layer(layer))
        cached, cut = golden_cut(trained_mlp, x, targets)
        assert cached.engaged and cut > 0
        for _ in range(5):
            configuration = FaultConfiguration.sample(targets, BernoulliBitFlipModel(p), rng)
            with apply_configuration(trained_mlp, configuration), no_grad(), np.errstate(all="ignore"):
                fast = cached.forward(cut)
                standard = trained_mlp(x)
            assert np.array_equal(logits_bits(fast), logits_bits(standard))

    @pytest.mark.parametrize("layer", ["stages.3.1.conv2", "fc"])
    def test_resnet_faulted_forward_bit_identical(self, tiny_resnet, tiny_images, layer, rng):
        x = Tensor(tiny_images[0])
        targets = resolve_parameter_targets(tiny_resnet, TargetSpec.single_layer(layer))
        cached, cut = golden_cut(tiny_resnet, x, targets)
        assert cached.engaged and cut > 0
        for p in (1e-3, 0.5):
            configuration = FaultConfiguration.sample(targets, BernoulliBitFlipModel(p), rng)
            with apply_configuration(tiny_resnet, configuration), no_grad(), np.errstate(all="ignore"):
                fast = cached.forward(cut)
                standard = tiny_resnet(x)
            assert np.array_equal(logits_bits(fast), logits_bits(standard))

    def test_first_layer_target_disengages(self, trained_mlp, moons_eval, tiny_resnet, tiny_images):
        # MLP: only the synthetic flatten precedes layers.0 — nothing to cache
        x = Tensor(moons_eval[0])
        targets = resolve_parameter_targets(trained_mlp, TargetSpec.single_layer("layers.0"))
        assert golden_cut(trained_mlp, x, targets)[1] == 0
        # ResNet: the stem conv is the very first chain step (cut = 0)
        targets = resolve_parameter_targets(tiny_resnet, TargetSpec.single_layer("stem.0"))
        assert golden_cut(tiny_resnet, Tensor(tiny_images[0]), targets)[1] == 0

    def test_unsupported_model_disengages(self, moons_eval):
        class Custom(Module):
            def __init__(self):
                super().__init__()
                self.inner = MLP(2, (4,), 2, rng=0)

            def forward(self, x):
                return self.inner(x)

        model = Custom().eval()
        golden = GoldenForward(model, Tensor(moons_eval[0]))
        assert not golden.engaged
        assert prefix_cut(golden.steps, ["inner.layers.0.weight"]) == 0

    def test_boundaries_computed_once(self, trained_mlp, moons_eval):
        x = Tensor(moons_eval[0])
        targets = resolve_parameter_targets(trained_mlp, TargetSpec.single_layer("layers.2"))
        cached, cut = golden_cut(trained_mlp, x, targets)
        first = cached.entering(cut)
        assert cached.entering(cut) is first
        # the boundary after the last step is the verified golden logits
        assert np.array_equal(
            logits_bits(cached.entering(len(cached.steps))), logits_bits(cached.logits)
        )

    def test_failed_verification_is_cached(self, trained_mlp, moons_eval):
        """A chain that does not reproduce forward() is checked once and never used."""

        class Scaled(Sequential):
            def forward(self, x):
                return super().forward(x) * 2.0

        model = Scaled(*trained_mlp.layers._modules.values()).eval()
        golden = GoldenForward(model, Tensor(moons_eval[0]))
        assert golden.steps is not None
        calls = []
        first = golden.steps[0].module
        original = first.forward
        first.forward = lambda x: calls.append(1) or original(x)
        try:
            assert not golden.engaged
            assert not golden.engaged
        finally:
            del first.forward
        assert len(calls) == 1
        with pytest.raises(ValueError, match="not bit-identical"):
            golden.entering(1)
        injector = BayesianFaultInjector(
            model, *moons_eval, spec=TargetSpec.single_layer("2"), seed=0
        )
        with pytest.raises(ValueError, match="forward chain is not bit-identical"):
            BatchedNetworkEvaluator(injector)
        # auto-selection falls back to the standard path
        assert injector._prefix_forward() is None
        assert injector._batched_evaluator() is None


class TestChainEdgeCases:
    def test_flatten_step_is_synthetic(self, trained_mlp, moons_eval):
        steps = forward_chain(trained_mlp)
        assert steps[0].module is None and steps[0].name == "<flatten>"
        # The synthetic step owns no parameters and is skipped by ownership
        assert owning_step(steps, "layers.0.weight") == 1
        # Flattening an already-2D batch is the identity
        x = Tensor(moons_eval[0])
        assert steps[0](x) is x
        # and a >2D batch reshapes exactly like MLP.forward
        img = Tensor(np.arange(24, dtype=np.float32).reshape(2, 3, 4))
        assert steps[0](img).shape == (2, 12)

    def test_first_segment_fault_runs_with_zero_reuse(self, trained_mlp, moons_eval, rng):
        """A fault in the first real segment leaves nothing to cache, but the
        delta chain path must still run (from the golden input) bit-identically."""
        eval_x, eval_y = moons_eval
        spec = TargetSpec.single_layer("layers.0")
        slow = BayesianFaultInjector(trained_mlp, eval_x, eval_y, spec=spec, seed=8, fast=False)
        fast = BayesianFaultInjector(trained_mlp, eval_x, eval_y, spec=spec, seed=8)
        assert fast._prefix_forward() is None  # zero-reuse regime
        engine = fast._chain_engine()
        assert engine is not None
        # The static cut sits right at the first faultable segment (only the
        # synthetic flatten precedes it): no parameterized prefix to reuse.
        assert min(engine.owners.values()) == engine.base
        rs = slow.mcmc_campaign(1e-3, chains=2, steps=8)
        rf = fast.mcmc_campaign(1e-3, chains=2, steps=8)
        for cs, cf in zip(rs.chains.chains, rf.chains.chains):
            assert np.array_equal(cs.values, cf.values)
            assert np.array_equal(cs.accepts, cf.accepts)

    def test_cache_keyed_by_eval_batch(self, trained_mlp, moons_eval):
        """A different evaluation batch needs (and gets) a different cache."""
        eval_x, _ = moons_eval
        x1 = Tensor(eval_x)
        x2 = Tensor(eval_x[::-1].copy())
        targets = resolve_parameter_targets(trained_mlp, TargetSpec.single_layer("layers.2"))
        cached1, cut = golden_cut(trained_mlp, x1, targets)
        cached2, _ = golden_cut(trained_mlp, x2, targets)
        assert cached1.engaged and cached2.engaged
        assert not np.array_equal(cached1.entering(cut).data, cached2.entering(cut).data)
        # Each instance reproduces the golden forward of *its own* batch
        with no_grad():
            for cached, x in ((cached1, x1), (cached2, x2)):
                assert np.array_equal(
                    logits_bits(cached.forward(cut)), logits_bits(trained_mlp(x))
                )

    def test_batched_evaluator_prefix_tracks_injector_batch(self, trained_mlp, moons_eval):
        """Two injectors over different batches never share prefix activations."""
        eval_x, eval_y = moons_eval
        spec = TargetSpec.single_layer("layers.2")
        inj1 = BayesianFaultInjector(trained_mlp, eval_x, eval_y, spec=spec, seed=8)
        inj2 = BayesianFaultInjector(
            trained_mlp, eval_x[::-1].copy(), eval_y[::-1].copy(), spec=spec, seed=8
        )
        ev1 = BatchedNetworkEvaluator(inj1)
        ev2 = BatchedNetworkEvaluator(inj2)
        empty = [FaultConfiguration.empty(inj1.parameter_targets)]
        with no_grad():
            golden1 = trained_mlp(inj1._x).data
            golden2 = trained_mlp(inj2._x).data
        assert np.array_equal(ev1.evaluate_logits(empty)[0], golden1)
        assert np.array_equal(ev2.evaluate_logits(empty)[0], golden2)
        assert not np.array_equal(golden1, golden2)


class TestInjectorLifetime:
    def test_fast_path_injector_freed_without_cycle_collector(self, tiny_resnet, tiny_images):
        """No injector ↔ engine reference cycle: refcounting alone frees it."""
        x, y = tiny_images
        enabled = gc.isenabled()
        gc.disable()
        try:
            injector = BayesianFaultInjector(
                tiny_resnet, x, y, spec=TargetSpec.single_layer("stages.3.1.conv2"), seed=4
            )
            injector.forward_campaign(1e-3, samples=4, chains=2)
            injector.mcmc_campaign(1e-3, chains=2, steps=4)
            assert injector._fast_evaluator is not None  # the fast path was taken
            injector_ref = weakref.ref(injector)
            evaluator_ref = weakref.ref(injector._fast_evaluator)
            del injector
            assert injector_ref() is None
            assert evaluator_ref() is None
        finally:
            if enabled:
                gc.enable()
