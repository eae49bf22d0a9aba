"""The scoring interface every sampler loop is written against.

An engine scores fault configurations: ``score(configurations)`` for
i.i.d. draws, and ``evaluate_round(sessions, candidates)`` for chains,
where each chain holds a ``session()`` and calls ``commit()`` on it when
it accepts the candidate just scored. ``lockstep`` says whether a
sampler may advance several chains through one round.

:class:`StatisticEngine` is the reference implementation: one call of
the statistic per configuration. The fast one is
:class:`~repro.core.delta.DeltaChainEvaluator`.
"""

from __future__ import annotations

from typing import Callable

from repro.faults.configuration import FaultConfiguration

__all__ = ["StatisticEngine"]


class _Session:
    """A chain's session on the reference engine: it caches nothing."""

    __slots__ = ()

    def commit(self) -> None:
        pass


class StatisticEngine:
    """Score each configuration with ``statistic``, one at a time.

    Chains advance one at a time (``lockstep = False``): a statistic over
    transient (activation/input) surfaces reads one fault stream shared by
    every chain, and chain after chain is the order it is read in.
    """

    lockstep = False

    def __init__(self, statistic: Callable[[FaultConfiguration], float]) -> None:
        self.statistic = statistic

    def score(self, configurations: list[FaultConfiguration]) -> list[float]:
        return [self.statistic(configuration) for configuration in configurations]

    def session(self) -> _Session:
        return _Session()

    def evaluate_round(self, sessions: list, candidates: list[FaultConfiguration]) -> list[float]:
        return self.score(candidates)
