"""Spatial burst faults: multi-bit upsets in adjacent cells.

Modern dense SRAM/DRAM sees *multi-cell upsets*: one particle strike flips
a run of physically adjacent bits. Within a 32-bit stored word that is a
contiguous burst of bit lanes. :class:`BurstBitFlipModel` draws, per
event, a uniformly placed burst of a configurable length in one uniformly
chosen element; the event count follows a Binomial over elements so the
model composes with campaign probability sweeps the same way the paper's
Bernoulli model does.
"""

from __future__ import annotations

import math

import numpy as np

from repro.bits.float32 import BITS_PER_FLOAT
from repro.faults.model import FaultModel

__all__ = ["BurstBitFlipModel"]


class BurstBitFlipModel(FaultModel):
    """Bursts of ``burst_length`` adjacent bit flips.

    Parameters
    ----------
    event_probability:
        Per-element probability that a burst event strikes it (one event
        per struck element per draw).
    burst_length:
        Number of adjacent lanes flipped per event (clipped at the word
        boundary, so edge bursts may flip fewer bits).
    """

    def __init__(self, event_probability: float, burst_length: int = 2) -> None:
        if not 0.0 <= event_probability <= 1.0:
            raise ValueError(f"event probability must be in [0, 1], got {event_probability}")
        if not 1 <= burst_length <= BITS_PER_FLOAT:
            raise ValueError(f"burst_length must be in [1, 32], got {burst_length}")
        self.event_probability = float(event_probability)
        self.burst_length = int(burst_length)

    def sample_mask(self, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        n = math.prod(shape)
        mask = np.zeros(n, dtype=np.uint32)
        if n == 0 or self.event_probability == 0.0:
            return mask.reshape(shape)
        count = int(rng.binomial(n, self.event_probability))
        if count == 0:
            return mask.reshape(shape)
        elements = rng.choice(n, size=count, replace=False)
        starts = rng.integers(0, BITS_PER_FLOAT, size=count)
        base = np.uint32((1 << self.burst_length) - 1)
        for element, start in zip(elements, starts):
            burst = np.uint32((int(base) << int(start)) & 0xFFFFFFFF)
            mask[element] ^= burst
        return mask.reshape(shape)

    def expected_flips(self, n_elements: int) -> float:
        # Edge clipping: a burst starting at lane s flips min(L, 32−s) bits;
        # uniform s gives mean L − L(L−1)/(2·32).
        clipped = self.burst_length - self.burst_length * (self.burst_length - 1) / (2 * BITS_PER_FLOAT)
        return n_elements * self.event_probability * clipped

    def __repr__(self) -> str:
        return f"BurstBitFlipModel(event_p={self.event_probability}, length={self.burst_length})"
