"""Warm worker pool: injector reuse, replacement workers, clean shutdown.

The pool starts ``min(workers, pending tasks)`` processes per ``execute()``
and feeds them tasks one at a time; each worker keeps the injector of the
last recipe it ran. These tests pin the reuse with an exact build count
and drive the failure paths on tasks that are *not* a worker's first, so
the process a fault kills or hangs is a warm one holding an injector.
"""

import functools
import multiprocessing

import numpy as np
import pytest

import repro.obs as obs
from repro.exec import (
    CampaignExecutionError,
    CampaignTask,
    ChaosPlan,
    ForwardSpec,
    InjectorRecipe,
    ParallelCampaignExecutor,
)
from repro.exec import chaos as chaos_mod
from repro.faults import TargetSpec
from repro.nn import paper_mlp
from repro.nn.models import resnet18_cifar_small
from repro.obs import MemorySink

SPECS = [ForwardSpec(p=p, samples=8, chains=2) for p in np.logspace(-4, -1, 6)]


@pytest.fixture()
def recipe(trained_mlp, moons_eval):
    eval_x, eval_y = moons_eval
    return InjectorRecipe.from_model(
        trained_mlp,
        eval_x,
        eval_y,
        spec=TargetSpec.weights_and_biases(),
        seed=7,
        model_builder=functools.partial(paper_mlp, rng=0),
    )


@pytest.fixture(scope="module")
def clean(trained_mlp, moons_eval):
    eval_x, eval_y = moons_eval
    recipe = InjectorRecipe.from_model(
        trained_mlp, eval_x, eval_y, spec=TargetSpec.weights_and_biases(), seed=7,
        model_builder=functools.partial(paper_mlp, rng=0),
    )
    return ParallelCampaignExecutor(recipe, workers=1).run(SPECS)


@pytest.fixture(autouse=True)
def no_leaked_state():
    chaos_mod.uninstall()
    yield
    chaos_mod.uninstall()
    obs.reset()


def _seed_firing_only_on(site: str, rate: float, fire: set, clear: set) -> int:
    """A plan seed whose ``site`` fires on every (index, attempt) in ``fire``
    and on none in ``clear``."""
    def fires(seed, key):
        return chaos_mod.chaos_uniform(seed, site, key) < rate

    return next(
        seed for seed in range(20000)
        if all(fires(seed, key) for key in fire) and not any(fires(seed, key) for key in clear)
    )


def _assert_identical(results, clean):
    assert len(results) == len(clean)
    for got, want in zip(results, clean):
        assert np.array_equal(got.chains.matrix(), want.chains.matrix())
        assert np.array_equal(got.posterior.samples, want.posterior.samples)


def _run_watched(executor):
    """Run SPECS, returning results and each task's delivery count."""
    sink = MemorySink()
    obs.configure(progress=sink)
    results = executor.run(SPECS)
    delivered = [event.payload["task"] for event in sink.of_kind("executor.task_done")]
    return results, {index: delivered.count(index) for index in range(len(SPECS))}


class TestInjectorBuilds:
    @pytest.mark.parametrize("workers,n_tasks", [(2, 6), (4, 6), (4, 2), (1, 6)])
    def test_one_build_per_worker_for_a_single_recipe(self, recipe, clean, workers, n_tasks):
        obs.configure(metrics=True)
        executor = ParallelCampaignExecutor(recipe, workers=workers)
        _assert_identical(executor.run(SPECS[:n_tasks]), clean[:n_tasks])
        expected = min(workers, n_tasks)
        assert executor.stats.injector_builds == expected
        assert executor.stats.to_dict()["injector_builds"] == expected
        assert obs.metrics().snapshot()["counters"]["executor.injector_builds"] == expected

    def test_each_recipe_change_rebuilds(self, recipe, trained_mlp, moons_eval):
        eval_x, eval_y = moons_eval
        other = InjectorRecipe.from_model(
            trained_mlp, eval_x, eval_y, seed=8,
            model_builder=functools.partial(paper_mlp, rng=0),
        )
        tasks = [CampaignTask(spec, recipe) for spec in SPECS[:2]]
        tasks += [CampaignTask(spec, other) for spec in SPECS[:2]]
        executor = ParallelCampaignExecutor(workers=1)
        executor.execute(tasks)
        assert executor.stats.injector_builds == 2

    def test_spawn_workers_get_the_task_list_once(self, recipe, clean):
        executor = ParallelCampaignExecutor(recipe, workers=2, start_method="spawn")
        _assert_identical(executor.run(SPECS[:3]), clean[:3])
        assert executor.stats.injector_builds == 2
        assert multiprocessing.active_children() == []


class TestWarmWorkerChaos:
    def test_sigkill_on_a_later_task_retries_in_a_fresh_worker(self, recipe, clean):
        # tasks 0 and 1 are the two workers' first; kill the warm worker
        # that picks up task 3, and let the retry through
        seed = _seed_firing_only_on(
            "worker.sigkill", 0.3, fire={(3, 1)},
            clear={(index, 1) for index in range(len(SPECS)) if index != 3} | {(3, 2)},
        )
        plan = ChaosPlan.from_rates({"worker.sigkill": 0.3}, seed=seed)
        executor = ParallelCampaignExecutor(
            recipe, workers=2, max_attempts=3, chaos=plan, start_method="fork"
        )
        results, deliveries = _run_watched(executor)
        assert multiprocessing.active_children() == []
        _assert_identical(results, clean)
        stats = executor.stats
        assert stats.crashes == 1 and stats.retries_by_cause["crash"] == 1
        assert stats.completed + stats.failed == stats.tasks == len(SPECS)
        assert deliveries == {index: 1 for index in range(len(SPECS))}
        assert stats.pipe_duplicates == 0
        # the two original workers, plus the replacement if it got a task
        # before the surviving worker drained the queue
        assert stats.injector_builds in (2, 3)

    def test_sigkill_abort_leaves_no_workers(self, recipe):
        seed = _seed_firing_only_on(
            "worker.sigkill", 0.3, fire={(2, 1), (2, 2)}, clear={(0, 1), (1, 1)}
        )
        plan = ChaosPlan.from_rates({"worker.sigkill": 0.3}, seed=seed)
        executor = ParallelCampaignExecutor(
            recipe, workers=2, max_attempts=2, chaos=plan, start_method="fork"
        )
        with pytest.raises(CampaignExecutionError, match="gave up after 2"):
            executor.run(SPECS)
        assert multiprocessing.active_children() == []

    def test_hang_past_timeout_is_replaced(self, recipe, clean):
        seed = _seed_firing_only_on(
            "worker.hang", 0.3, fire={(2, 1)},
            clear={(index, 1) for index in range(len(SPECS)) if index != 2} | {(2, 2)},
        )
        plan = ChaosPlan.from_rates({"worker.hang": 0.3}, seed=seed)
        executor = ParallelCampaignExecutor(
            recipe, workers=2, max_attempts=2, timeout_s=1.0, chaos=plan, start_method="fork"
        )
        results, deliveries = _run_watched(executor)
        assert multiprocessing.active_children() == []
        _assert_identical(results, clean)
        stats = executor.stats
        assert stats.timeouts == 1 and stats.retries_by_cause["timeout"] == 1
        assert stats.completed + stats.failed == stats.tasks == len(SPECS)
        assert deliveries == {index: 1 for index in range(len(SPECS))}

    def test_hang_abort_leaves_no_workers(self, recipe):
        seed = _seed_firing_only_on(
            "worker.hang", 0.3, fire={(2, 1)}, clear={(0, 1), (1, 1)}
        )
        plan = ChaosPlan.from_rates({"worker.hang": 0.3}, seed=seed)
        executor = ParallelCampaignExecutor(
            recipe, workers=2, max_attempts=1, timeout_s=1.0, chaos=plan, start_method="fork"
        )
        with pytest.raises(CampaignExecutionError, match="timed out"):
            executor.run(SPECS)
        assert multiprocessing.active_children() == []


class TestLayerwiseRetarget:
    """A layerwise run's per-layer recipes share one checkpoint, so a warm
    worker retargets its injector instead of building one per layer."""

    @pytest.fixture()
    def golden_forwards(self, monkeypatch):
        from repro.core.prefix import GoldenForward

        calls = {"n": 0}
        original = GoldenForward.__init__

        def counted(self, *args, **kwargs):
            calls["n"] += 1
            original(self, *args, **kwargs)

        monkeypatch.setattr(GoldenForward, "__init__", counted)
        return calls

    def run(self, tiny_resnet, tiny_images, path, executor=None):
        from repro.core import LayerwiseCampaign
        from repro.exec import CampaignJournal

        x, y = tiny_images
        with CampaignJournal(path) as journal:
            campaign = LayerwiseCampaign(
                tiny_resnet, x, y, p=1e-3, samples=2, chains=1, seed=3,
                executor=executor, journal=journal,
                model_builder=functools.partial(resnet18_cifar_small, num_classes=10, rng=0),
            ).run()
            keys = journal.keys()
        return campaign, keys

    def test_one_golden_forward_per_worker(self, tiny_resnet, tiny_images, golden_forwards, tmp_path):
        in_process, keys = self.run(tiny_resnet, tiny_images, str(tmp_path / "a.jsonl"))
        assert golden_forwards["n"] == 1
        layers = len(in_process.layers)
        assert layers > 1
        golden_forwards["n"] = 0
        executor = ParallelCampaignExecutor(workers=1)
        pooled, pooled_keys = self.run(
            tiny_resnet, tiny_images, str(tmp_path / "b.jsonl"), executor=executor
        )
        assert golden_forwards["n"] == 1
        assert executor.stats.injector_builds == 1
        assert pooled_keys == keys and len(keys) == layers
        for a, b in zip(in_process.results, pooled.results):
            assert a.layer == b.layer
            assert np.array_equal(a.campaign.chains.matrix(), b.campaign.chains.matrix())
            assert a.campaign.mean_error == b.campaign.mean_error

    def test_each_worker_builds_once(self, tiny_resnet, tiny_images, tmp_path):
        in_process, keys = self.run(tiny_resnet, tiny_images, str(tmp_path / "a.jsonl"))
        executor = ParallelCampaignExecutor(workers=2, start_method="fork")
        pooled, pooled_keys = self.run(
            tiny_resnet, tiny_images, str(tmp_path / "b.jsonl"), executor=executor
        )
        assert executor.stats.injector_builds == 2
        assert sorted(pooled_keys) == sorted(keys)
        for a, b in zip(in_process.results, pooled.results):
            assert np.array_equal(a.campaign.chains.matrix(), b.campaign.chains.matrix())
