"""Experiment drivers: sweeps (Figs. 2/4), layerwise (Fig. 3), boundary (Fig. 1③)."""

import contextlib

import numpy as np
import pytest

from repro.core import (
    BayesianFaultInjector,
    DecisionBoundaryAnalysis,
    LayerwiseCampaign,
    ProbabilitySweep,
)
from repro.core.layerwise import parameterised_layers
from repro.exec import McmcSpec, StratifiedSpec
from repro.faults import BernoulliBitFlipModel, TargetSpec


@pytest.fixture()
def injector(trained_mlp, moons_eval):
    eval_x, eval_y = moons_eval
    return BayesianFaultInjector(
        trained_mlp, eval_x, eval_y, spec=TargetSpec.weights_and_biases(), seed=0
    )


class TestProbabilitySweep:
    def test_default_grid_is_paper_range(self, injector):
        sweep = ProbabilitySweep(injector)
        assert sweep.p_values[0] == pytest.approx(1e-5)
        assert sweep.p_values[-1] == pytest.approx(1e-1)

    def test_run_produces_point_per_p(self, injector):
        sweep = ProbabilitySweep(
            injector, p_values=tuple(np.logspace(-4, -1, 5)), samples=40
        ).run()
        assert len(sweep.points) == 5
        assert len(sweep.table()) == 5

    def test_two_regimes_found_on_real_sweep(self, injector):
        sweep = ProbabilitySweep(
            injector, p_values=tuple(np.logspace(-5, -1, 9)), samples=80
        ).run()
        fit = sweep.fit_regimes()
        assert fit.has_two_regimes  # the paper's finding F2

    def test_stratified_method(self, injector):
        sweep = ProbabilitySweep(
            injector, p_values=tuple(np.logspace(-5, -3, 5)),
            spec=StratifiedSpec(p=1e-5, samples_per_stratum=5),
        ).run()
        assert all(pt.campaign.method == "stratified" for pt in sweep.points)

    def test_mcmc_method(self, injector):
        sweep = ProbabilitySweep(
            injector, p_values=(1e-3, 1e-2, 1e-1), spec=McmcSpec(p=1e-3, chains=2, steps=20)
        ).run()
        assert all(pt.campaign.completeness is not None for pt in sweep.points)

    def test_accessors_before_run_raise(self, injector):
        sweep = ProbabilitySweep(injector)
        with pytest.raises(RuntimeError):
            sweep.errors()

    def test_validation(self, injector):
        with pytest.raises(ValueError):
            ProbabilitySweep(injector, p_values=(0.1, 0.01))  # not increasing
        with pytest.raises(ValueError):
            ProbabilitySweep(injector, p_values=(0.0, 0.1))


class TestLayerwise:
    def test_parameterised_layers_of_mlp(self, trained_mlp):
        assert parameterised_layers(trained_mlp) == ["layers.0", "layers.2"]

    def test_campaign_per_layer(self, trained_mlp, moons_eval):
        eval_x, eval_y = moons_eval
        campaign = LayerwiseCampaign(
            trained_mlp, eval_x, eval_y, p=1e-2, samples=40, seed=0
        ).run()
        assert [r.layer for r in campaign.results] == ["layers.0", "layers.2"]
        assert all(r.parameter_count > 0 for r in campaign.results)

    def test_depth_correlation_keys(self, tiny_resnet, tiny_images):
        x, y = tiny_images
        layers = tuple(parameterised_layers(tiny_resnet)[:5])
        campaign = LayerwiseCampaign(
            tiny_resnet, x, y, p=1e-3, samples=10, layers=layers, seed=0
        ).run()
        stats = campaign.depth_correlation()
        assert set(stats) == {"spearman_rho", "spearman_p", "kendall_tau", "kendall_p"}
        assert -1 <= stats["spearman_rho"] <= 1

    def test_results_required_before_stats(self, trained_mlp, moons_eval):
        eval_x, eval_y = moons_eval
        campaign = LayerwiseCampaign(trained_mlp, eval_x, eval_y, seed=0)
        with pytest.raises(RuntimeError):
            campaign.depth_correlation()

    def test_validation(self, trained_mlp, moons_eval):
        eval_x, eval_y = moons_eval
        with pytest.raises(ValueError):
            LayerwiseCampaign(trained_mlp, eval_x, eval_y, p=0.0)


#: digest counters that do not depend on which engine scored a campaign
ENGINE_FREE = (
    "evaluations", "flips.applied", "proposal.steps", "proposal.accepted",
    "hazard.rows", "hazard.hazard_rows",
)


@contextlib.contextmanager
def golden_forward_counter(model):
    """Count top-level ``model(x)`` calls made with every parameter golden."""
    snapshot = {name: param.data.copy() for name, param in model.named_parameters()}
    calls = []
    original = model.forward

    def counting(x):
        if all(
            np.array_equal(param.data.view(np.uint32), snapshot[name].view(np.uint32))
            for name, param in model.named_parameters()
        ):
            calls.append(1)
        return original(x)

    model.forward = counting
    try:
        yield calls
    finally:
        del model.forward


class TestLayerwiseSharedGolden:
    """One golden forward per run, shared by every layer's injector and engine."""

    # high enough that every configuration of the stem conv (6912 bits,
    # reference path) flips something, so its faulted forwards never count
    # as golden ones
    KWARGS = dict(p=5e-3, samples=4, chains=2, seed=11)

    def assert_matches_reference(self, campaign, reference):
        assert [r.layer for r in campaign.results] == [r.layer for r in reference.results]
        for ours, ref in zip(campaign.results, reference.results):
            for a, b in zip(ours.campaign.chains.chains, ref.campaign.chains.chains):
                assert np.array_equal(a.values.view(np.uint64), b.values.view(np.uint64))
                assert np.array_equal(a.flips, b.flips)
            assert ours.mean_error == ref.mean_error
            counters, ref_counters = ours.campaign.metrics["counters"], ref.campaign.metrics["counters"]
            for name in ENGINE_FREE:
                assert counters.get(name) == ref_counters.get(name), (ours.layer, name)

    def test_every_layer_matches_reference_with_one_golden_forward(self, tiny_resnet, tiny_images):
        x, y = tiny_images
        reference = LayerwiseCampaign(tiny_resnet, x, y, fast=False, **self.KWARGS).run()
        with golden_forward_counter(tiny_resnet) as golden_calls:
            campaign = LayerwiseCampaign(tiny_resnet, x, y, **self.KWARGS).run()
        assert len(campaign.results) == len(parameterised_layers(tiny_resnet))
        assert len(golden_calls) == 1
        self.assert_matches_reference(campaign, reference)
        # the engines really served the deep layers
        assert sum(
            r.campaign.metrics["counters"]["engine.batched.configs"] for r in campaign.results
        ) > 0

    def test_journal_resumed_run_with_leading_hits(self, tmp_path, tiny_resnet, tiny_images):
        from repro.exec import CampaignJournal

        x, y = tiny_images
        layers = tuple(parameterised_layers(tiny_resnet))
        reference = LayerwiseCampaign(tiny_resnet, x, y, fast=False, **self.KWARGS).run()
        path = str(tmp_path / "layers.jsonl")
        journal = CampaignJournal(path)
        LayerwiseCampaign(tiny_resnet, x, y, layers=layers[:3], journal=journal, **self.KWARGS).run()
        journal.close()
        with golden_forward_counter(tiny_resnet) as golden_calls:
            resumed = LayerwiseCampaign(
                tiny_resnet, x, y, journal=CampaignJournal.resume(path), **self.KWARGS
            ).run()
        assert len(golden_calls) <= 1
        self.assert_matches_reference(resumed, reference)

    def test_retarget_equals_fresh_injector(self, tiny_resnet, tiny_images):
        x, y = tiny_images
        root = BayesianFaultInjector(
            tiny_resnet, x, y, spec=TargetSpec.single_layer("stages.0.0.conv1"), seed=3
        )
        spec = TargetSpec.single_layer("stages.3.1.conv2")
        derived = root.retarget(spec, 7)
        fresh = BayesianFaultInjector(tiny_resnet, x, y, spec=spec, seed=7)
        assert derived._golden is root._golden
        assert derived.golden_error == fresh.golden_error
        assert [name for name, _ in derived.parameter_targets] == [
            name for name, _ in fresh.parameter_targets
        ]
        for run in (
            lambda inj: inj.forward_campaign(1e-3, samples=4, chains=2),
            lambda inj: inj.mcmc_campaign(1e-3, chains=2, steps=4),
        ):
            a, b = run(derived), run(fresh)
            for ca, cb in zip(a.chains.chains, b.chains.chains):
                assert np.array_equal(ca.values, cb.values)
            assert a.metrics["counters"] == b.metrics["counters"]
        # the root keeps its own targets
        assert all(name.startswith("stages.0.0.conv1.") for name, _ in root.parameter_targets)


class TestBoundary:
    def test_map_shapes(self, trained_mlp):
        analysis = DecisionBoundaryAnalysis(
            trained_mlp, bounds=(-1.5, 2.5, -1.2, 1.7), resolution=20,
            fault_model=BernoulliBitFlipModel(1e-3), seed=0,
        )
        bmap = analysis.run(samples=20)
        assert bmap.flip_probability.shape == (20, 20)
        assert bmap.golden_prediction.shape == (20, 20)
        assert np.all((bmap.flip_probability >= 0) & (bmap.flip_probability <= 1))

    def test_boundary_distance_zero_on_boundary_cells(self, trained_mlp):
        analysis = DecisionBoundaryAnalysis(
            trained_mlp, bounds=(-1.5, 2.5, -1.2, 1.7), resolution=24, seed=0
        )
        bmap = analysis.run(samples=5)
        assert bmap.boundary_distance.min() == 0.0
        assert bmap.boundary_distance.max() > 1.0

    def test_errors_concentrate_near_boundary(self, trained_mlp):
        """Finding F1: flip probability decays with boundary distance."""
        analysis = DecisionBoundaryAnalysis(
            trained_mlp, bounds=(-1.5, 2.5, -1.2, 1.7), resolution=30,
            fault_model=BernoulliBitFlipModel(1e-3), seed=0,
        )
        bmap = analysis.run(samples=60)
        corr = bmap.distance_correlation()
        assert corr["spearman_rho"] < -0.1
        assert corr["spearman_p"] < 0.01
        bands = bmap.band_summary(4)
        assert bands[0]["mean_flip_probability"] > bands[-1]["mean_flip_probability"]

    def test_log_flip_probability_finite(self, trained_mlp):
        analysis = DecisionBoundaryAnalysis(
            trained_mlp, bounds=(-1.5, 2.5, -1.2, 1.7), resolution=16, seed=0
        )
        bmap = analysis.run(samples=10)
        assert np.isfinite(bmap.log_flip_probability()).all()

    def test_validation(self, trained_mlp):
        with pytest.raises(ValueError):
            DecisionBoundaryAnalysis(trained_mlp, bounds=(1, 0, 0, 1))
        with pytest.raises(ValueError):
            DecisionBoundaryAnalysis(trained_mlp, bounds=(0, 1, 0, 1), resolution=2)
        analysis = DecisionBoundaryAnalysis(trained_mlp, bounds=(0, 1, 0, 1), resolution=8, seed=0)
        with pytest.raises(ValueError):
            analysis.run(samples=0)
        with pytest.raises(ValueError):
            bands = analysis.run(samples=2).band_summary(1)
