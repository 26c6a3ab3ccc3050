import dataclasses

import pytest

from deltadebug import Configuration, EngineOptions, Outcome, TestRecord, ddmin
from deltadebug.core import SOURCE_AXIOM, SOURCE_EXACT_CACHE, SOURCE_ORACLE
from deltadebug.oracles import conjunction
from deltadebug.report import render_log_line, write_report
from support import Report, random_table, read_report


def record(universe, members, outcome, source=SOURCE_ORACLE, granularity=2):
    return TestRecord(
        config=Configuration(universe, members),
        granularity=granularity,
        outcome=outcome,
        source=source,
        duration_ms=0.0,
    )


class TestRenderLogLine:
    def test_partial_fail(self):
        assert render_log_line(record(4, [0, 1], Outcome.FAIL)) == "**.. F"

    def test_empty_pass(self):
        assert render_log_line(record(4, [], Outcome.PASS)) == ".... P"

    def test_cached_unresolved_full(self):
        line = render_log_line(
            record(4, [0, 1, 2, 3], Outcome.UNRESOLVED, source=SOURCE_EXACT_CACHE)
        )
        assert line == "**** ?#"

    def test_wide_sparse_row_matches_per_cell_rendering(self):
        config = Configuration(20000, [0, 3, 64, 12345, 19998, 19999])
        rec = TestRecord(config, 2, Outcome.PASS, SOURCE_ORACLE, 0.0)
        cells = "".join("*" if i in config else "." for i in range(20000))
        assert render_log_line(rec) == cells + " P"


class TestReportDocument:
    def test_round_trip_identity(self, tmp_path):
        result = ddmin(Configuration.full(8), conjunction(8, [2, 5]))
        result = dataclasses.replace(result, verified_1_minimal=False)
        path = tmp_path / "report.json"
        write_report(result.log, path, result)
        loaded = read_report(path)
        assert loaded.verified_1_minimal is False
        assert loaded == Report.of(result.log, result)

    def test_conjunction_run_fields(self, tmp_path):
        result = ddmin(Configuration.full(8), conjunction(8, [2, 5]))
        write_report(result.log, tmp_path / "report.json", result)
        doc = read_report(tmp_path / "report.json")
        assert doc.universe_size == 8
        assert doc.final == [2, 5]
        assert doc.ratio == pytest.approx(0.25)
        total = sum(sum(per.values()) for per in doc.counters.values())
        assert total == len(doc.records) == len(result.log.records)

    def test_axiom_only_report(self, tmp_path):
        from deltadebug import AxiomViolation

        with pytest.raises(AxiomViolation) as info:
            ddmin(Configuration.full(4), lambda c: Outcome.PASS)
        write_report(info.value.log, tmp_path / "report.json")
        doc = read_report(tmp_path / "report.json")
        assert set(doc.counters) == {SOURCE_AXIOM}
        assert doc.final == []

    def test_deterministic_mode_zeroes_durations(self, tmp_path):
        result = ddmin(Configuration.full(8), conjunction(8, [2, 5]))
        write_report(result.log, tmp_path / "det.json", result, deterministic=True)
        loaded = read_report(tmp_path / "det.json")
        assert all(r.duration_ms == 0.0 for r in loaded.records)


class TestCacheFile:
    """A saved outcome table, preloaded, answers a whole run."""

    def test_replaying_cache_reproduces_the_original_outcomes(self):
        oracle = random_table(10, seed=77)
        first = ddmin(Configuration.full(10), oracle)
        snapshot = {}
        for rec in first.log:
            snapshot[rec.config.bits] = rec.outcome

        def poisoned(config):
            raise AssertionError("the underlying oracle must not be consulted")

        replay = ddmin(
            Configuration.full(10),
            poisoned,
            EngineOptions(preloaded_cache=snapshot),
        )
        assert replay.final == first.final
        assert [r.outcome for r in replay.log] == [r.outcome for r in first.log]
        assert [r.config for r in replay.log] == [r.config for r in first.log]
