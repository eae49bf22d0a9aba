"""Flip bookkeeping: byte-table popcount, one-pass flip counters, sparse strata.

Each fast form is checked against a plain reference kept in this file —
Python's own bit counting, the per-target counting loop the injector used
to run, and the dense masks the stratified estimator used to build.
"""

import numpy as np
import pytest

from repro.bits import count_set_bits, positions_to_mask
from repro.bits.fields import field_mask
from repro.core import BayesianFaultInjector, StratifiedErrorEstimator
from repro.core.injector import _record_configuration
from repro.faults import TargetSpec
from repro.faults.configuration import FaultConfiguration
from repro.faults.sparse import SparseMask
from repro.obs import MetricsRegistry


def _python_popcount(values) -> int:
    return sum(bin(int(value)).count("1") for value in np.asarray(values).reshape(-1))


def _reference_record(metrics, configuration) -> None:
    """The per-target loop: four popcounts per touched target."""
    metrics.inc("forward_passes")
    for name, sparse in configuration.sparse_items():
        flips = _python_popcount(sparse.lane_masks)
        if not flips:
            continue
        metrics.inc(f"flips.layer.{name}", flips)
        for field in ("sign", "exponent", "mantissa"):
            in_field = _python_popcount(sparse.lane_masks & field_mask(field))
            if in_field:
                metrics.inc(f"flips.field.{field}", in_field)


def _counters(record, configurations) -> dict:
    registry = MetricsRegistry()
    for configuration in configurations:
        record(registry, configuration)
    return registry.snapshot()["counters"]


class TestCountSetBits:
    def test_matches_python_on_random_values_and_extremes(self):
        rng = np.random.default_rng(11)
        values = np.concatenate([
            rng.integers(0, 2**32, size=1000, dtype=np.uint32),
            np.array([0, 0xFFFFFFFF, 1, 0x80000000], dtype=np.uint32),
        ])
        assert count_set_bits(values) == _python_popcount(values)
        for value in (0, 0xFFFFFFFF):
            assert count_set_bits(np.array([value], dtype=np.uint32)) == bin(value).count("1")

    def test_empty(self):
        assert count_set_bits(np.empty(0, dtype=np.uint32)) == 0
        assert count_set_bits(np.empty((3, 0), dtype=np.uint32)) == 0

    def test_zero_dimensional(self):
        assert count_set_bits(np.uint32(0xF0F0F0F0)) == 16
        assert count_set_bits(np.array(0xFFFFFFFF, dtype=np.uint32)) == 32

    def test_non_contiguous(self):
        rng = np.random.default_rng(12)
        grid = rng.integers(0, 2**32, size=(40, 30), dtype=np.uint32)
        for view in (grid[::3], grid[:, ::2], grid.T, grid[5:20, 7:9]):
            assert not view.flags.c_contiguous
            assert count_set_bits(view) == _python_popcount(view)

    def test_input_untouched(self):
        values = np.array([7, 255], dtype=np.uint32)
        count_set_bits(values)
        assert values.tolist() == [7, 255]


class TestRecordConfiguration:
    SHAPES = {"fc1.weight": (16, 2), "fc1.bias": (16,), "fc2.weight": (3, 16), "fc2.bias": (3,)}

    def _sparse(self, rng, shape, flips):
        n_bits = int(np.prod(shape)) * 32
        positions = rng.choice(n_bits, size=min(flips, n_bits), replace=False)
        return SparseMask.from_positions(positions, shape)

    def _dense(self, rng, shape, density):
        mask = rng.integers(0, 2**32, size=shape, dtype=np.uint32)
        mask[rng.random(shape) > density] = 0
        return mask

    def _assert_matches(self, configurations):
        assert _counters(_record_configuration, configurations) == _counters(
            _reference_record, configurations
        )

    def test_sparse_configurations(self):
        rng = np.random.default_rng(21)
        self._assert_matches([
            FaultConfiguration({
                name: self._sparse(rng, shape, int(rng.integers(0, 6)))
                for name, shape in self.SHAPES.items()
            })
            for _ in range(25)
        ])

    def test_dense_configurations(self):
        rng = np.random.default_rng(22)
        self._assert_matches([
            FaultConfiguration({
                name: self._dense(rng, shape, density)
                for name, shape in self.SHAPES.items()
            })
            for density in (0.05, 0.5, 1.0)
        ])

    def test_mixed_configurations(self):
        rng = np.random.default_rng(23)
        configurations = []
        for _ in range(10):
            masks = {}
            for index, (name, shape) in enumerate(self.SHAPES.items()):
                if index % 2:
                    masks[name] = self._dense(rng, shape, 0.3)
                else:
                    masks[name] = self._sparse(rng, shape, int(rng.integers(0, 4)))
            configurations.append(FaultConfiguration(masks))
        # one target flipped and the rest empty, in first and last position
        names = list(self.SHAPES)
        for flipped in (names[0], names[-1]):
            configurations.append(FaultConfiguration({
                name: self._sparse(rng, shape, 3 if name == flipped else 0)
                for name, shape in self.SHAPES.items()
            }))
        self._assert_matches(configurations)

    def test_all_empty_configuration_creates_no_flip_counters(self):
        configuration = FaultConfiguration(
            {name: SparseMask.empty(shape) for name, shape in self.SHAPES.items()}
        )
        dense_zero = FaultConfiguration(
            {name: np.zeros(shape, dtype=np.uint32) for name, shape in self.SHAPES.items()}
        )
        counters = _counters(_record_configuration, [configuration, dense_zero])
        assert counters == {"forward_passes": 2}
        assert not any(name.startswith("flips.") for name in counters)


class TestStratifiedMasks:
    @pytest.fixture()
    def estimator(self, trained_mlp, moons_eval):
        eval_x, eval_y = moons_eval
        injector = BayesianFaultInjector(
            trained_mlp, eval_x, eval_y, spec=TargetSpec.weights_and_biases(), seed=0
        )
        return StratifiedErrorEstimator(injector, samples_per_stratum=4)

    @staticmethod
    def _dense_reference(estimator, k, rng) -> dict:
        """The dense masks ``configuration_with_flips`` used to build."""
        positions = rng.choice(estimator.total_bits, size=k, replace=False)
        masks = {}
        for index, (name, param) in enumerate(estimator._targets):
            lo, hi = estimator._offsets[index], estimator._offsets[index + 1]
            local = positions[(positions >= lo) & (positions < hi)] - lo
            masks[name] = positions_to_mask(local, param.shape)
        return masks

    @pytest.mark.parametrize("k", [1, 2, 7, 40, 300])
    def test_sparse_masks_equal_dense_masks_bit_for_bit(self, estimator, k):
        for seed in range(5):
            configuration = estimator.configuration_with_flips(k, np.random.default_rng(seed))
            reference = self._dense_reference(estimator, k, np.random.default_rng(seed))
            assert configuration.names() == list(reference)
            for name, mask in reference.items():
                assert isinstance(configuration.sparse(name), SparseMask)
                assert configuration.sparse(name).to_dense().tobytes() == mask.tobytes()
            assert configuration.total_flips() == k
