"""Measurement protocol and the versioned ``repro.bench/1`` record schema.

One benchmark *case* is a zero-argument callable; :func:`measure` times it
under the warmup/repeat protocol on the canonical clock and reduces the
samples to robust statistics (median + IQR — a stray scheduler hiccup
shifts the mean but barely moves the median). A *group* of cases freezes
into a record via :func:`make_record`; records are what ``BENCH_*.json``
baselines contain and what the regression gate compares.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.obs.profile import clock_s, wall_display
from repro.obs.schema import SCHEMA_VERSION, artifact_version, artifact_stamp

__all__ = [
    "BENCH_SCHEMA",
    "CaseStats",
    "measure",
    "make_record",
    "validate_bench_record",
]

#: schema identifier stamped on (and required of) every bench record
BENCH_SCHEMA = "repro.bench/1"

#: per-case statistic fields, all in seconds except the integer protocol ones
_CASE_FLOAT_FIELDS = ("median_s", "iqr_s", "mean_s", "min_s", "max_s")
_CASE_INT_FIELDS = ("repeats", "warmup")


@dataclass(frozen=True)
class CaseStats:
    """Robust timing summary of one benchmark case."""

    median_s: float
    iqr_s: float
    mean_s: float
    min_s: float
    max_s: float
    repeats: int
    warmup: int

    @classmethod
    def from_samples(cls, samples: list[float], warmup: int) -> "CaseStats":
        if not samples:
            raise ValueError("no timing samples")
        if len(samples) >= 2:
            quartiles = statistics.quantiles(samples, n=4, method="inclusive")
            iqr = quartiles[2] - quartiles[0]
        else:
            iqr = 0.0
        return cls(
            median_s=statistics.median(samples),
            iqr_s=iqr,
            mean_s=statistics.fmean(samples),
            min_s=min(samples),
            max_s=max(samples),
            repeats=len(samples),
            warmup=warmup,
        )

    def as_dict(self) -> dict:
        return {
            "median_s": self.median_s,
            "iqr_s": self.iqr_s,
            "mean_s": self.mean_s,
            "min_s": self.min_s,
            "max_s": self.max_s,
            "repeats": self.repeats,
            "warmup": self.warmup,
        }


def measure(fn: Callable[[], object], *, warmup: int = 1, repeats: int = 5) -> CaseStats:
    """Time ``fn`` under the warmup/repeat protocol.

    ``warmup`` untimed calls absorb one-time costs (imports, numpy
    allocator warm-up, checkpoint mmap), then ``repeats`` timed calls on
    :func:`~repro.obs.profile.clock_s` feed the robust summary.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    for _ in range(warmup):
        fn()
    samples: list[float] = []
    for _ in range(repeats):
        started = clock_s()
        fn()
        samples.append(clock_s() - started)
    return CaseStats.from_samples(samples, warmup=warmup)


#: BLAS/OpenMP thread-pool variables; baselines are recorded with each set to 1
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": sys.platform,
        "cpu_count": os.cpu_count(),
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def make_record(
    group: str,
    cases: Mapping[str, CaseStats],
    *,
    quick: bool,
    seed: int,
) -> dict:
    """Freeze one suite run into a ``repro.bench/1`` record.

    ``created`` is a display timestamp (wall clock, never subtracted);
    every duration inside ``cases`` came from the monotonic clock.
    """
    return {
        "schema": BENCH_SCHEMA,
        **artifact_stamp(),
        "group": group,
        "quick": quick,
        "seed": seed,
        "created": wall_display(),
        "environment": _environment(),
        "cases": {name: stats.as_dict() for name, stats in sorted(cases.items())},
    }


def validate_bench_record(record: object) -> dict:
    """Schema-check a bench record; returns it on success, raises ValueError.

    The gate and the tests both call this, so a malformed baseline (hand
    edit, truncated write, schema drift) fails loudly instead of silently
    comparing garbage.
    """
    if not isinstance(record, dict):
        raise ValueError(f"bench record must be a dict, got {type(record).__name__}")
    schema = record.get("schema")
    if schema != BENCH_SCHEMA:
        raise ValueError(f"unsupported bench schema {schema!r} (expected {BENCH_SCHEMA!r})")
    # artifact stamp: records written before the stamp existed load as v0
    if artifact_version(record) > SCHEMA_VERSION:
        raise ValueError(
            f"bench record schema_version {record.get('schema_version')!r} is newer than "
            f"supported version {SCHEMA_VERSION}"
        )
    for key, kind in (("group", str), ("quick", bool), ("seed", int), ("cases", dict)):
        if not isinstance(record.get(key), kind):
            raise ValueError(f"bench record field {key!r} must be {kind.__name__}")
    if not record["cases"]:
        raise ValueError("bench record has no cases")
    for name, case in record["cases"].items():
        if not isinstance(case, dict):
            raise ValueError(f"case {name!r} must be a dict")
        for field in _CASE_FLOAT_FIELDS:
            value = case.get(field)
            if not isinstance(value, (int, float)) or isinstance(value, bool) or value < 0:
                raise ValueError(f"case {name!r} field {field!r} must be a non-negative number")
        for field in _CASE_INT_FIELDS:
            value = case.get(field)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValueError(f"case {name!r} field {field!r} must be a non-negative int")
        if case["repeats"] < 1:
            raise ValueError(f"case {name!r} has repeats < 1")
    return record
