"""Detailed per-configuration outcome taxonomy for BDLFI campaigns.

Traditional FI reports outcomes as **masked** (no visible effect), **SDC**
(silent data corruption: predictions changed, outputs finite) and **DUE**
(detectable uncorrectable error: non-finite values reached the output —
a real deployment could trap these with an isfinite check). The scalar
classification-error statistic the paper's figures use folds all of this
together; :class:`OutcomeCampaign` keeps the taxonomy, so BDLFI results
are directly comparable with the numbers traditional injectors publish.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.compare import wilson_interval
from repro.faults.configuration import FaultConfiguration
from repro.faults.injection import apply_configuration
from repro.faults.model import FaultModel
from repro.tensor.tensor import no_grad

__all__ = ["ConfigurationOutcome", "OutcomeCampaign"]


@dataclass(frozen=True)
class ConfigurationOutcome:
    """What one sampled fault configuration did."""

    flips: int
    #: fraction of evaluation samples whose prediction changed vs golden
    mismatch_fraction: float
    #: classification error vs the labels
    error: float
    #: non-finite values reached the logits
    due: bool

    @property
    def outcome(self) -> str:
        if self.due:
            return "due"
        if self.mismatch_fraction > 0:
            return "sdc"
        return "masked"


class OutcomeCampaign:
    """Forward campaign recording the masked/SDC/DUE taxonomy per draw.

    Parameters
    ----------
    injector:
        A configured :class:`~repro.core.injector.BayesianFaultInjector`
        (parameter surfaces; the taxonomy needs raw logits, so transient
        hook surfaces are not supported here).
    """

    def __init__(self, injector) -> None:
        if injector.activation_modules or injector._wants_inputs:
            raise ValueError("outcome campaigns support parameter surfaces only")
        self.injector = injector
        self._x = injector._x
        self._golden_predictions = injector._golden.logits.data.argmax(axis=1)
        self.outcomes: list[ConfigurationOutcome] = []

    def _evaluate(self, configuration: FaultConfiguration) -> ConfigurationOutcome:
        with apply_configuration(self.injector.model, configuration):
            with no_grad(), np.errstate(all="ignore"):
                logits = self.injector.model(self._x).data
        predictions = logits.argmax(axis=1)
        return ConfigurationOutcome(
            flips=configuration.total_flips(),
            mismatch_fraction=float((predictions != self._golden_predictions).mean()),
            error=float((predictions != self.injector.labels).mean()),
            due=bool(not np.isfinite(logits).all()),
        )

    def run(self, p: float, samples: int, fault_model: FaultModel | None = None, stream: str = "outcomes") -> "OutcomeCampaign":
        """Sample ``samples`` configurations at flip probability ``p``."""
        if samples <= 0:
            raise ValueError(f"samples must be positive, got {samples}")
        from repro.faults.bernoulli import BernoulliBitFlipModel

        model = fault_model if fault_model is not None else BernoulliBitFlipModel(p)
        rng = self.injector._rng_factory.stream(f"{stream}:p={p!r}")
        for _ in range(samples):
            configuration = FaultConfiguration.sample(self.injector.parameter_targets, model, rng)
            self.outcomes.append(self._evaluate(configuration))
        return self

    # ------------------------------------------------------------------ #
    # rates
    # ------------------------------------------------------------------ #

    def _require_outcomes(self) -> None:
        if not self.outcomes:
            raise RuntimeError("campaign has not been run; call .run() first")

    def _rate(self, kind: str) -> float:
        self._require_outcomes()
        return float(np.mean([o.outcome == kind for o in self.outcomes]))

    @property
    def masked_rate(self) -> float:
        return self._rate("masked")

    @property
    def sdc_rate(self) -> float:
        return self._rate("sdc")

    @property
    def due_rate(self) -> float:
        return self._rate("due")

    def rate_interval(self, kind: str, confidence: float = 0.95) -> tuple[float, float]:
        """Wilson interval on one outcome rate."""
        self._require_outcomes()
        hits = sum(o.outcome == kind for o in self.outcomes)
        return wilson_interval(hits, len(self.outcomes), confidence)

    def mean_error(self) -> float:
        self._require_outcomes()
        return float(np.mean([o.error for o in self.outcomes]))

    def detectable_fraction_of_damage(self) -> float:
        """Among non-masked outcomes, the fraction a deployment could trap.

        DUE outcomes are detectable with an isfinite output check; SDCs are
        the silent residue — the number that matters for safety cases.
        """
        self._require_outcomes()
        damaged = [o for o in self.outcomes if o.outcome != "masked"]
        if not damaged:
            return float("nan")
        return float(np.mean([o.outcome == "due" for o in damaged]))

    def summary(self) -> dict[str, float]:
        self._require_outcomes()
        return {
            "samples": float(len(self.outcomes)),
            "masked_rate": self.masked_rate,
            "sdc_rate": self.sdc_rate,
            "due_rate": self.due_rate,
            "mean_error": self.mean_error(),
            "detectable_damage_fraction": self.detectable_fraction_of_damage(),
        }
