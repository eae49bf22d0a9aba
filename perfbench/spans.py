"""In-memory span recording around calls into the program's layers.

The benchmark times the program from outside: :func:`instrument` replaces
each layer entry point *where its caller looks it up* (a class attribute,
or the module attribute a caller resolves at call time) with a wrapper
that records a span around the call, and :meth:`Instrumentation.restore`
puts the originals back. Nothing in the program changes.

A span's self time is its duration minus the time covered by the spans
it directly encloses, so nested layers (a conv inside a batched segment
run inside a delta round) are billed once each. Spans are aggregated in
memory per name — calls, total seconds, self seconds and an optional
per-layer count such as configurations or FLOPs — and read out when the
traced pass ends.

Wrappers recorded in a forked worker would be lost with the worker, so
they pass straight through in any process other than the one that
installed them: the pooled workload is measured in the parent process only.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass, field


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    count: float = 0.0


@dataclass
class Recorder:
    """Aggregates spans by name, in the process that created it only."""

    pid: int = field(default_factory=os.getpid)
    stats: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)

    def recording(self) -> bool:
        return os.getpid() == self.pid

    def enter(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list, call: bool = True, count: float = 0.0) -> None:
        duration = time.perf_counter() - frame[1]
        # a span left open by an exception deeper down is closed with it
        while self._stack and self._stack.pop() is not frame:
            pass
        entry = self.stats.get(frame[0])
        if entry is None:
            entry = self.stats[frame[0]] = LayerStats()
        entry.calls += int(call)
        entry.total_s += duration
        entry.self_s += duration - frame[2]
        entry.count += count
        if self._stack:
            self._stack[-1][2] += duration


def _wrap_call(recorder: Recorder, name: str, fn, count=None):
    """Span around a plain call; ``count(args, result)`` adds to the layer count."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.recording():
            return fn(*args, **kwargs)
        frame = recorder.enter(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            recorder.exit(frame, count=count(args, result) if count and result is not None else 0.0)

    return wrapper


class _TimedContext:
    """Bills a context manager's enter and exit (not its body) to one layer."""

    def __init__(self, recorder: Recorder, name: str, inner) -> None:
        self._recorder, self._name, self._inner = recorder, name, inner

    def __enter__(self):
        frame = self._recorder.enter(self._name)
        try:
            return self._inner.__enter__()
        finally:
            self._recorder.exit(frame)

    def __exit__(self, *exc):
        frame = self._recorder.enter(self._name)
        try:
            return self._inner.__exit__(*exc)
        finally:
            self._recorder.exit(frame, call=False)


def _wrap_context(recorder: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        if not recorder.recording():
            return inner
        return _TimedContext(recorder, name, inner)

    return wrapper


def _conv_flops(args, result) -> float:
    """2 × outputs × fan-in, from the shapes of the call.

    ``args[1]`` is the weight of ``conv2d(x, weight, ...)`` or the module
    of the batched engine's ``_run_conv(module, ...)``.
    """
    weight = getattr(args[1], "weight", args[1])
    return 2.0 * result.data.size * weight.data[0].size


def _configurations(args, result) -> float:
    return float(len(args[1]))


class Instrumentation:
    """The installed wrappers; :meth:`restore` undoes :func:`instrument`."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, make) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def instrument(recorder: Recorder) -> Instrumentation:
    """Wrap every traced layer entry point; returns the handle that restores them."""
    import repro.core.injector as injector_mod
    import repro.obs as obs_mod
    import repro.tensor.functional as functional
    from repro.core.batched import BatchedNetworkEvaluator
    from repro.core.delta import DeltaChainEvaluator
    from repro.core.injector import BayesianFaultInjector
    from repro.core.prefix import PrefixCachedForward
    from repro.core.stratified import StratifiedErrorEstimator
    from repro.exec.journal import CampaignJournal
    from repro.faults.configuration import FaultConfiguration
    from repro.mcmc.mixing import CompletenessCriterion
    from repro.nn.module import Module

    def call(name, count=None):
        return lambda fn: _wrap_call(recorder, name, fn, count)

    handle = Instrumentation()
    table = [
        (BayesianFaultInjector, "__init__", call("injector.build")),
        (BatchedNetworkEvaluator, "__init__", call("engine.batched.build")),
        (FaultConfiguration, "sample", call("faults.sample")),
        # the standard path applies through the injector's imported name;
        # the batched path stacks faulted copies per parameter
        (injector_mod, "apply_configuration", lambda fn: _wrap_context(recorder, "faults.apply", fn)),
        (BatchedNetworkEvaluator, "_stacked_parameter", call("faults.apply")),
        (BatchedNetworkEvaluator, "run_segments", call("engine.batched", _configurations)),
        (functional, "conv2d", call("tensor.conv2d", _conv_flops)),
        (BatchedNetworkEvaluator, "_run_conv", call("tensor.conv2d", _conv_flops)),
        (Module, "__call__", call("nn.forward")),
        (PrefixCachedForward, "forward", call("engine.prefix")),
        (BatchedNetworkEvaluator, "_prefix_activation", call("engine.prefix")),
        (DeltaChainEvaluator, "evaluate_round", call("engine.delta")),
        (CompletenessCriterion, "assess", call("mcmc.assess")),
        (StratifiedErrorEstimator, "estimate", call("stratified")),
        (CampaignJournal, "record", call("journal.record")),
        (CampaignJournal, "resume", call("journal.replay")),
        (obs_mod, "publish", call("obs.emit")),
        (obs_mod, "merge_metrics", call("obs.emit")),
        (obs_mod, "merge_campaign_metrics", call("obs.emit")),
    ]
    try:
        for owner, attr, make in table:
            handle.patch(owner, attr, make)
    except BaseException:
        handle.restore()
        raise
    return handle
