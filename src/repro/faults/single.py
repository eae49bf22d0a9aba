"""Fault models from the broader fault-injection literature.

These are the models traditional injectors (TensorFI, Ares, Li et al.)
implement; BDLFI subsumes them, and :mod:`repro.baselines` uses them to
reproduce the comparisons the paper's Section III draws.
"""

from __future__ import annotations

import math

import numpy as np

from repro.bits.float32 import BITS_PER_FLOAT, float_to_bits, bits_to_float, positions_to_mask
from repro.faults.model import FaultModel

__all__ = ["SingleBitFlipModel", "StuckAtModel", "ByteErrorModel"]


class SingleBitFlipModel(FaultModel):
    """Exactly one uniformly chosen bit of one uniformly chosen element flips.

    The canonical "one fault per run" model of debugger-level injectors.
    ``bits`` restricts the candidate bit lanes.
    """

    def __init__(self, bits: tuple[int, ...] | None = None) -> None:
        if bits is not None:
            lanes = sorted(set(bits))
            if not lanes or min(lanes) < 0 or max(lanes) >= BITS_PER_FLOAT:
                raise ValueError("bits must be a non-empty subset of [0, 32)")
            self.bits: tuple[int, ...] | None = tuple(lanes)
        else:
            self.bits = None

    def sample_mask(self, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        n = math.prod(shape)
        if n == 0:
            raise ValueError("cannot inject a single bit flip into an empty array")
        element = int(rng.integers(0, n))
        lane = int(rng.choice(self.bits)) if self.bits is not None else int(rng.integers(0, BITS_PER_FLOAT))
        return positions_to_mask(np.asarray([element * BITS_PER_FLOAT + lane]), shape)

    def expected_flips(self, n_elements: int) -> float:
        return 1.0

    def __repr__(self) -> str:
        return f"SingleBitFlipModel(bits={self.bits or 'all'})"


class StuckAtModel(FaultModel):
    """A random bit of a random element is stuck at 0 or 1.

    Value-dependent: the corruption is a no-op when the bit already holds
    the stuck value, so it cannot be expressed as a fixed XOR mask.
    """

    def __init__(self, stuck_value: int) -> None:
        if stuck_value not in (0, 1):
            raise ValueError(f"stuck_value must be 0 or 1, got {stuck_value}")
        self.stuck_value = stuck_value

    def sample_mask(self, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError("stuck-at faults are value-dependent; use corrupt()")

    def corrupt(self, values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        values = np.asarray(values, dtype=np.float32)
        flat_bits = float_to_bits(values).reshape(-1).copy()
        if flat_bits.size == 0:
            raise ValueError("cannot inject into an empty array")
        element = int(rng.integers(0, flat_bits.size))
        lane = np.uint32(rng.integers(0, BITS_PER_FLOAT))
        if self.stuck_value == 1:
            flat_bits[element] |= np.uint32(1) << lane
        else:
            flat_bits[element] &= ~(np.uint32(1) << lane)
        return bits_to_float(flat_bits).reshape(values.shape)

    def expected_flips(self, n_elements: int) -> float:
        # A stuck-at changes the value half the time on average.
        return 0.5

    def __repr__(self) -> str:
        return f"StuckAtModel(stuck_value={self.stuck_value})"


class ByteErrorModel(FaultModel):
    """One whole byte of one element is replaced with random bits.

    Models word-line/driver failures that corrupt a full byte; an 8-bit XOR
    with a uniform random pattern (possibly zero on up to 1/256 of draws).
    """

    def sample_mask(self, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        n = math.prod(shape)
        if n == 0:
            raise ValueError("cannot inject into an empty array")
        element = int(rng.integers(0, n))
        byte = int(rng.integers(0, 4))
        pattern = np.uint32(rng.integers(0, 256)) << np.uint32(8 * byte)
        mask = np.zeros(n, dtype=np.uint32)
        mask[element] = pattern
        return mask.reshape(shape)

    def expected_flips(self, n_elements: int) -> float:
        return 4.0

    def __repr__(self) -> str:
        return "ByteErrorModel()"
