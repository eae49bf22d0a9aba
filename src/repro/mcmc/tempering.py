"""Parallel tempering over fault-configuration space.

The failure-biased tempered target of :mod:`repro.mcmc.targets` explores
error-causing configurations but pays an importance-weighting variance
cost. Parallel tempering gets the best of both: a ladder of chains at
inverse temperatures β₀ = 0 < β₁ < … < β_K runs side by side, adjacent
rungs periodically *swap* states, and the cold rung (β = 0) — whose
stationary distribution is exactly the fault prior — inherits the hot
rungs' ability to cross between fault-space modes. Its trace is therefore
an unbiased prior-expectation estimator with improved mixing; no
reweighting needed.

Swap rule: for rungs i, j with states x_i, x_j and shared prior,
``log α = (β_i − β_j) · (stat(x_j) − stat(x_i))`` — the standard replica
exchange acceptance, costing zero forward passes because statistics are
cached per state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.faults.configuration import FaultConfiguration
from repro.faults.model import FaultModel
from repro.mcmc.chain import Chain, ChainSet
from repro.mcmc.engine import StatisticEngine
from repro.utils.rng import spawn_generators

__all__ = ["TemperingResult", "ParallelTemperingSampler"]


@dataclass(frozen=True)
class TemperingResult:
    """Outcome of a parallel-tempering run."""

    #: cold-rung (β=0) chains — samples from the fault prior
    cold_chains: ChainSet
    #: per-rung mean statistic (after burn-in), index-aligned with betas
    rung_means: tuple[float, ...]
    betas: tuple[float, ...]
    swap_acceptance: float

    def to_dict(self) -> dict:
        """JSON-clean summary: the ``nan`` swap-acceptance sentinel (no swap
        attempts) serialises as ``null`` rather than invalid-JSON ``NaN``."""
        from repro.utils.persist import sanitize_nonfinite

        return sanitize_nonfinite(
            {
                "rung_means": list(self.rung_means),
                "betas": list(self.betas),
                "swap_acceptance": self.swap_acceptance,
                "chains": len(self.cold_chains),
                "steps": self.cold_chains.steps,
            }
        )


class ParallelTemperingSampler:
    """Replica-exchange MH over fault configurations.

    Parameters
    ----------
    targets / fault_model:
        The mask space and its prior.
    statistic:
        ``FaultConfiguration → float`` (classification error for BDLFI).
    proposal:
        Local proposal shared by every rung (e.g.
        :class:`~repro.mcmc.proposals.SingleBitToggle`).
    betas:
        Inverse-temperature ladder; must start at 0 (the prior rung) and be
        strictly increasing.
    engine:
        Scoring engine (:mod:`repro.mcmc.engine`). ``None`` scores through
        ``statistic``; a :class:`~repro.core.delta.DeltaChainEvaluator`
        advances all replicas in lockstep and scores each rung's proposals
        across replicas through one grouped delta forward — bit-identical.
    """

    def __init__(
        self,
        targets: list,
        fault_model: FaultModel,
        statistic: Callable[[FaultConfiguration], float],
        proposal,
        betas: tuple[float, ...] = (0.0, 5.0, 20.0, 80.0),
        engine=None,
    ) -> None:
        if not targets:
            raise ValueError("ParallelTemperingSampler requires targets")
        betas = tuple(float(b) for b in betas)
        if len(betas) < 2:
            raise ValueError("need at least two rungs (a cold and a hot chain)")
        if betas[0] != 0.0:
            raise ValueError(f"the ladder must start at beta=0 (the prior rung), got {betas[0]}")
        if any(a >= b for a, b in zip(betas, betas[1:])):
            raise ValueError(f"betas must be strictly increasing, got {betas}")
        self.targets = list(targets)
        self.fault_model = fault_model
        self.statistic = statistic
        self.proposal = proposal
        self.betas = betas
        self.engine = engine

    def run_chain(self, sweeps: int, rng: np.random.Generator, chain_id: int = 0) -> tuple[Chain, np.ndarray, int, int]:
        """One replica system: ``sweeps`` × (MH step per rung + one swap try).

        Returns (cold chain, per-rung mean statistic, swap attempts, swap accepts).
        """
        return self._run(sweeps, [rng], chain_id)[0]

    def run(self, chains: int, sweeps: int, rng) -> TemperingResult:
        """``chains`` independent replica systems with split streams."""
        if chains <= 0:
            raise ValueError(f"chains must be positive, got {chains}")
        replicas = self._run(sweeps, spawn_generators(rng, chains))
        rung_totals = np.zeros(len(self.betas))
        attempts = 0
        accepts = 0
        for _, rung_means, att, acc in replicas:
            rung_totals += rung_means
            attempts += att
            accepts += acc
        return TemperingResult(
            cold_chains=ChainSet([cold for cold, _, _, _ in replicas]),
            rung_means=tuple(float(v) for v in rung_totals / chains),
            betas=self.betas,
            swap_acceptance=accepts / attempts if attempts else float("nan"),
        )

    def _run(self, sweeps: int, generators: list, first_id: int = 0) -> list[tuple[Chain, np.ndarray, int, int]]:
        """Advance one replica system per generator, a lockstep group at a time.

        Each replica consumes its own generator in one order however
        replicas are grouped (initial rung draws; then per sweep, per rung:
        proposal + conditional accept draw; then the swap draws), so
        grouping changes no value. Under the delta engine all replicas form
        one group and each rung's proposals across replicas are one grouped
        forward; rungs within a replica stay sequential, because a rung's
        accept draw shifts the stream the next rung proposes from. Under
        the reference engine each replica is its own group (see
        :class:`StatisticEngine`).
        """
        if sweeps <= 0:
            raise ValueError(f"sweeps must be positive, got {sweeps}")
        engine = self.engine or StatisticEngine(self.statistic)
        width = len(generators) if engine.lockstep else 1
        n_rungs = len(self.betas)
        done = []
        for first in range(0, len(generators), width):
            group = generators[first : first + width]
            states = [
                [FaultConfiguration.sample(self.targets, self.fault_model, g) for _ in range(n_rungs)]
                for g in group
            ]
            sessions = [[engine.session() for _ in range(n_rungs)] for _ in group]
            flat_sessions = [session for replica in sessions for session in replica]
            flat_stats = engine.evaluate_round(flat_sessions, [s for replica in states for s in replica])
            for session in flat_sessions:
                session.commit()
            stats = [flat_stats[i * n_rungs : (i + 1) * n_rungs] for i in range(len(group))]
            log_priors = [[s.log_prob(self.fault_model) for s in replica] for replica in states]
            colds = [Chain(first_id + first + i) for i in range(len(group))]
            rung_sums = [np.zeros(n_rungs) for _ in group]
            accepts = [0] * len(group)
            for _ in range(sweeps):
                for rung, beta in enumerate(self.betas):
                    proposals = [
                        self.proposal.propose(replica[rung], g) for replica, g in zip(states, group)
                    ]
                    cand_stats = engine.evaluate_round(
                        [replica[rung] for replica in sessions], [c for c, _ in proposals]
                    )
                    for i, (candidate, log_hastings) in enumerate(proposals):
                        candidate_stat = cand_stats[i]
                        candidate_log_prior = candidate.log_prob(self.fault_model)
                        log_alpha = (
                            (candidate_log_prior + beta * candidate_stat)
                            - (log_priors[i][rung] + beta * stats[i][rung])
                            + log_hastings
                        )
                        if log_alpha >= 0 or np.log(group[i].random()) < log_alpha:
                            states[i][rung] = candidate
                            stats[i][rung] = candidate_stat
                            log_priors[i][rung] = candidate_log_prior
                            sessions[i][rung].commit()
                # One adjacent-pair swap attempt per sweep and replica.
                for i, g in enumerate(group):
                    low = int(g.integers(0, n_rungs - 1))
                    high = low + 1
                    log_alpha = (self.betas[low] - self.betas[high]) * (stats[i][high] - stats[i][low])
                    if log_alpha >= 0 or np.log(g.random()) < log_alpha:
                        # sessions carry their state's cached activations: they swap with it
                        for per_rung in (states[i], stats[i], log_priors[i], sessions[i]):
                            per_rung[low], per_rung[high] = per_rung[high], per_rung[low]
                        accepts[i] += 1
                    colds[i].record(stats[i][0], states[i][0].total_flips())
                    rung_sums[i] += stats[i]
            done += [(colds[i], rung_sums[i] / sweeps, sweeps, accepts[i]) for i in range(len(group))]
        return done
