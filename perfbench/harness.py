"""Measurement loop, correctness check and metric derivation for one run.

Imported by ``run.py`` only after the BLAS/OpenMP thread pools are pinned
and the program's sources are on the import path.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import time

import numpy as np

from paper_workloads import CHAIN_KINDS, WORKLOADS, digest_counters, signature
from spans import LayerStats, Recorder, instrument

#: before each measured round, set-up is repeated (at least once) for at
#: least this long; setup_s is the median over the run. Spread between
#: the rounds, the repeats see the same host speed as the rounds do,
#: which drifts within a run on a shared host
SETUP_SLICE_S = 0.5

#: digest counters reported (and required to repeat exactly) in the traced run
DIGEST_COUNTERS = (
    "evaluations",
    "flips.applied",
    "proposal.steps",
    "proposal.accepted",
    "delta.cache.hit",
    "delta.cache.miss",
    "delta.segments.reused",
    "hazard.evaluations",
    "hazard.rows",
    "hazard.hazard_evaluations",
    "hazard.hazard_rows",
)
#: digest counters that do not depend on which engine served the campaign
ENGINE_FREE_COUNTERS = (
    "campaigns",
    "evaluations",
    "flips.applied",
    "proposal.steps",
    "proposal.accepted",
    "hazard.rows",
    "hazard.hazard_rows",
)


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest reaped worker, whichever is larger (MB).

    A forked worker's own peak already counts the pages it shares with
    this process, so the two are not added.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, worker) / 1024.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Check:
    """Correctness bookkeeping: every outcome against its reference.

    Rounds are grouped by how they ran (untraced, traced with a registry
    attached, ...); within a group every campaign's digest counters must
    repeat exactly, and the engine-independent ones must equal the
    reference's.
    """

    def __init__(self, reference) -> None:
        self.reference = [signature(o) for o in reference.outcomes]
        self.reference_digests = [engine_free(o) for o in reference.outcomes]
        self.first_digests: dict[str, list] = {}
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        #: distinct reasons campaigns failed for, first seen first
        self.failure_reasons: dict[str, None] = {}

    def add(self, round_, group: str) -> None:
        """Score one round; ``group`` names how it ran (untraced, traced, ...)."""
        digests = [digest_counters(o) for o in round_.outcomes]
        first = self.first_digests.setdefault(group, digests)
        drifted = {index for index, (a, b) in enumerate(zip(digests, first)) if a != b}
        passes = [(group, round_.outcomes, self.reference, self.reference_digests, drifted)]
        if round_.replayed is not None:
            fresh = [signature(o) for o in round_.outcomes]
            passes.append((f"{group}.resumed", round_.replayed, fresh, None, set()))
        for label, outcomes, expected, expected_digests, bad in passes:
            for index, outcome in enumerate(outcomes):
                if signature(outcome) != expected[index] or (
                    expected_digests is not None
                    and engine_free(outcome) != expected_digests[index]
                ):
                    bad.add(index)
            self.mismatches += [f"{label}[{index}]" for index in sorted(bad)]
            # raised, quarantined, or disagreeing: each campaign counts once
            failed = {index for index, outcome in enumerate(outcomes) if outcome is None}
            self.failed += len(bad | failed)
        self.attempted += round_.attempted
        self.failure_reasons.update(dict.fromkeys(round_.failures))

    @property
    def correct(self) -> bool:
        return not self.mismatches


def engine_free(outcome) -> dict:
    counters = digest_counters(outcome)
    return {key: counters[key] for key in ENGINE_FREE_COUNTERS if key in counters}


def run_rounds(seconds: float, step) -> None:
    """Closed loop: call ``step()`` until the next call would overrun ``seconds``."""
    start = time.perf_counter()
    durations = []
    while True:
        began = time.perf_counter()
        step()
        durations.append(time.perf_counter() - began)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return


def layer_metrics(stats: dict, round_, extras: dict) -> dict:
    """Per-layer metrics of one traced pass (one set-up plus one round)."""

    def stat(name: str) -> LayerStats:
        return stats.get(name, LayerStats())

    totals: dict[str, float] = {}
    chain_steps = chain_accepted = stratified_evaluations = 0
    campaign_s = 0.0
    for kind, outcome in zip(round_.kinds, round_.outcomes):
        if outcome is None:
            continue
        result = outcome[0] if isinstance(outcome, tuple) else outcome
        counters = digest_counters(result)
        for key, value in counters.items():
            totals[key] = totals.get(key, 0) + value
        if kind in CHAIN_KINDS:
            chain_steps += counters.get("proposal.steps", 0)
            chain_accepted += counters.get("proposal.accepted", 0)
        if kind == "stratified":
            stratified_evaluations += result.total_evaluations
        campaign_s += result.duration_s
    hits = totals.get("delta.cache.hit", 0)
    misses = totals.get("delta.cache.miss", 0)
    notes = round_.notes
    fresh, resume = notes.get("fresh", {}), notes.get("resume", {})
    # executor accounting exists only where an executor pool ran the tasks
    compute_s = campaign_s if fresh else 0.0
    dispatch_s = (
        ratio(notes["fresh_s"] * extras["workers"] - compute_s, fresh["tasks"]) if fresh else 0.0
    )
    metrics = {
        "injector.build.calls": (stat("injector.build").calls, "count"),
        "injector.build.self_s": (stat("injector.build").self_s, "s"),
        "injector.build.total_s": (stat("injector.build").total_s, "s"),
        "engine.batched.build_s": (stat("engine.batched.build").total_s, "s"),
        "faults.sample.self_s": (stat("faults.sample").self_s, "s"),
        "faults.apply.self_s": (stat("faults.apply").self_s, "s"),
        "faults.flips": (totals.get("flips.applied", 0), "count"),
        "engine.batched.calls": (stat("engine.batched").calls, "count"),
        "engine.batched.configs": (stat("engine.batched").count, "count"),
        "engine.batched.self_s": (stat("engine.batched").self_s, "s"),
        "tensor.conv2d.calls": (stat("tensor.conv2d").calls, "count"),
        "tensor.conv2d.self_s": (stat("tensor.conv2d").self_s, "s"),
        "tensor.conv2d.flops": (stat("tensor.conv2d").count, "flop"),
        "nn.forward.calls": (stat("nn.forward").calls, "count"),
        "nn.forward.self_s": (stat("nn.forward").self_s, "s"),
        "engine.selected_over_standard": (extras["selected_over_standard"], "ratio"),
        "engine.prefix.calls": (stat("engine.prefix").calls, "count"),
        "engine.prefix.self_s": (stat("engine.prefix").self_s, "s"),
        "engine.delta.rounds": (stat("engine.delta").calls, "count"),
        "engine.delta.self_s": (stat("engine.delta").self_s, "s"),
        "engine.delta.reuse_ratio": (ratio(hits, hits + misses), "ratio"),
        "engine.delta.segments_reused": (totals.get("delta.segments.reused", 0), "count"),
        "mcmc.assess.calls": (stat("mcmc.assess").calls, "count"),
        "mcmc.assess.self_s": (stat("mcmc.assess").self_s, "s"),
        "mcmc.accept_ratio": (ratio(chain_accepted, chain_steps), "ratio"),
        "stratified.evaluations": (stratified_evaluations, "count"),
        "stratified.self_s": (stat("stratified").self_s, "s"),
        "hazard.quarantined": (totals.get("hazard.hazard_rows", 0), "count"),
        "exec.tasks": (fresh.get("tasks", 0) + resume.get("tasks", 0), "count"),
        "exec.failed": (fresh.get("failed", 0) + resume.get("failed", 0), "count"),
        "exec.retries": (fresh.get("retries", 0) + resume.get("retries", 0), "count"),
        "exec.task_compute_s": (compute_s, "s"),
        "exec.dispatch_overhead_s": (dispatch_s, "s"),
        "journal.record.self_s": (stat("journal.record").self_s, "s"),
        "journal.replay_s": (stat("journal.replay").total_s, "s"),
        "journal.hits": (resume.get("journal_hits", 0), "count"),
        "obs.emit.calls": (stat("obs.emit").calls, "count"),
        "obs.emit.self_s": (stat("obs.emit").self_s, "s"),
        "obs.overhead_ratio": (extras["obs_overhead_ratio"], "ratio"),
        "trace.overhead_s": (extras["trace_overhead_s"], "s"),
    }
    for key in DIGEST_COUNTERS:
        metrics[f"digest.{key}"] = (totals.get(key, 0), "count")
    return metrics


def prepare(args, cache_dir: str) -> int:
    """Train (first run in a checkout) or load the workload's golden network."""
    os.makedirs(cache_dir, exist_ok=True)
    WORKLOADS[args.workload](args.seed, cache_dir, None).prepare()
    return 0


def run(args, pinned_env: dict, blas_threads: int, cache_dir: str, work_root: str) -> int:
    """Prepare, set up, check against the reference, measure, print the result."""
    nproc = os.cpu_count() or 1
    work_dir = os.path.join(work_root, str(os.getpid()))
    os.makedirs(cache_dir, exist_ok=True)
    os.makedirs(work_dir, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, cache_dir, work_dir)
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "workers": workload.workers,
        "blas_threads_per_process": blas_threads,
        "total_threads": workload.workers * blas_threads,
        "pinned_env": pinned_env,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    print("perfbench env " + json.dumps(env, sort_keys=True), flush=True)
    try:
        workload.prepare()
        setup_times = []

        def set_up():
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)

        set_up()
        reference = workload.reference()
        check = Check(reference)
        walls, rates = [], []

        def untraced_step():
            began = time.perf_counter()
            set_up()
            while time.perf_counter() - began < SETUP_SLICE_S:
                set_up()
            round_ = workload.round()
            check.add(round_, "untraced")
            walls.append(round_.wall_s)
            rates.append(ratio(round_.evaluations, round_.wall_s))

        if args.trace:
            metrics = traced_run(workload, args.seconds, check, untraced_step, walls)
        else:
            run_rounds(args.seconds, untraced_step)
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "wall_s": (statistics.median(walls), "s"),
                "configs_per_s": (statistics.median(rates), "1/s"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
                "ok_ratio": (ratio(check.attempted - check.failed, check.attempted), "ratio"),
            }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass  # another run still owns a directory there
    for reason in check.failure_reasons:
        print(f"perfbench failure: {reason}", flush=True)
    if check.mismatches:
        print("perfbench mismatches: " + ", ".join(check.mismatches[:20]), flush=True)
    result = {
        "correct": check.correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def traced_run(workload, seconds, check, untraced_step, walls) -> dict:
    """Interleave untraced rounds, paired comparison rounds and traced passes.

    A traced pass is one set-up plus one round with every layer entry
    point wrapped (only then) and a metrics registry attached; per-layer
    metrics are medians over passes. Paired rounds of the same shape give
    the interleaved ratios: the standard path (``fast=False``) for
    ``engine.selected_over_standard`` and, where instruments are attached,
    a bare round for ``obs.overhead_ratio``.
    """
    comparisons: dict[str, list[float]] = {"standard": [], "bare": []}
    traced_walls: list[float] = []
    passes: list[tuple[dict, object]] = []

    def step():
        untraced_step()
        for label, round_ in workload.comparison_rounds():
            check.add(round_, label)
            comparisons[label].append(round_.wall_s)
        recorder = Recorder()
        handle = instrument(recorder)
        try:
            workload.setup()
            round_ = workload.round(counters=True)
        finally:
            handle.restore()
        check.add(round_, "traced")
        traced_walls.append(round_.wall_s)
        passes.append((recorder.stats, round_))

    run_rounds(seconds, step)
    selected = statistics.median(walls)
    extras = dict(
        workers=workload.workers,
        selected_over_standard=ratio(selected, statistics.median(comparisons["standard"])),
        obs_overhead_ratio=(
            ratio(selected, statistics.median(comparisons["bare"])) if comparisons["bare"] else 0.0
        ),
        trace_overhead_s=statistics.median(traced_walls) - selected,
    )
    per_pass = [layer_metrics(stats, round_, extras) for stats, round_ in passes]
    return {
        name: (statistics.median(m[name][0] for m in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
