"""Measurement protocol, record schema, and schema validation."""

import pytest

from repro.bench import BENCH_SCHEMA, CaseStats, make_record, measure, validate_bench_record


class TestMeasure:
    def test_warmup_and_repeat_counts(self):
        calls = []
        stats = measure(lambda: calls.append(1), warmup=2, repeats=4)
        assert len(calls) == 6  # 2 warmup + 4 timed
        assert stats.repeats == 4 and stats.warmup == 2

    def test_statistics_are_consistent(self):
        stats = measure(lambda: sum(range(500)), warmup=1, repeats=5)
        assert stats.min_s <= stats.median_s <= stats.max_s
        assert stats.min_s <= stats.mean_s <= stats.max_s
        assert stats.iqr_s >= 0.0

    def test_invalid_protocol_rejected(self):
        with pytest.raises(ValueError):
            measure(lambda: None, repeats=0)
        with pytest.raises(ValueError):
            measure(lambda: None, warmup=-1)

    def test_from_samples_median_and_iqr(self):
        stats = CaseStats.from_samples([1.0, 2.0, 3.0, 4.0, 5.0], warmup=0)
        assert stats.median_s == 3.0
        assert stats.iqr_s == pytest.approx(2.0)  # inclusive quartiles: 4 - 2

    def test_single_sample_has_zero_iqr(self):
        stats = CaseStats.from_samples([0.5], warmup=1)
        assert stats.median_s == 0.5 and stats.iqr_s == 0.0


class TestRecordSchema:
    def _stats(self) -> CaseStats:
        return CaseStats.from_samples([0.01, 0.011, 0.012], warmup=1)

    def test_make_record_validates(self):
        record = make_record("bench_micro", {"case_a": self._stats()}, quick=True, seed=2019)
        assert validate_bench_record(record) is record
        assert record["schema"] == BENCH_SCHEMA
        assert record["cases"]["case_a"]["repeats"] == 3
        assert "python" in record["environment"]

    def test_record_states_blas_thread_settings(self, monkeypatch):
        from repro.bench.harness import THREAD_VARIABLES

        for name in THREAD_VARIABLES:
            monkeypatch.setenv(name, "1")
        monkeypatch.delenv("MKL_NUM_THREADS")
        record = make_record("g", {"c": self._stats()}, quick=True, seed=0)
        expected = {name: "1" for name in THREAD_VARIABLES} | {"MKL_NUM_THREADS": None}
        assert record["environment"]["threads"] == expected

    def test_record_is_json_serialisable(self):
        import json

        record = make_record("g", {"c": self._stats()}, quick=False, seed=0)
        assert json.loads(json.dumps(record)) == record

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda r: r.pop("schema"),
            lambda r: r.update(schema="repro.bench/99"),
            lambda r: r.update(cases={}),
            lambda r: r.update(cases={"c": "not-a-dict"}),
            lambda r: r["cases"]["c"].pop("median_s"),
            lambda r: r["cases"]["c"].update(median_s=-1.0),
            lambda r: r["cases"]["c"].update(repeats=0),
            lambda r: r["cases"]["c"].update(repeats=1.5),
        ],
    )
    def test_malformed_records_rejected(self, mutate):
        record = make_record("g", {"c": self._stats()}, quick=True, seed=1)
        mutate(record)
        with pytest.raises(ValueError):
            validate_bench_record(record)

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError):
            validate_bench_record([1, 2, 3])
