import pytest

from deltadebug import Configuration, EngineOptions, Outcome, TestRecord, ddmin
from deltadebug.core import SOURCE_AXIOM, SOURCE_ORACLE
from deltadebug.oracles import conjunction, random_table
from deltadebug.report import (
    CacheWriter,
    build_report,
    read_cache,
    read_report,
    render_log_line,
    write_cache,
    write_report,
)


def record(universe, members, outcome, cached=False, granularity=2):
    return TestRecord(
        config=Configuration(universe, members),
        granularity=granularity,
        outcome=outcome,
        cached=cached,
        source=SOURCE_ORACLE,
        duration_ms=0.0,
    )


class TestRenderLogLine:
    def test_partial_fail(self):
        assert render_log_line(record(4, [0, 1], Outcome.FAIL), 4) == "**.. F"

    def test_empty_pass(self):
        assert render_log_line(record(4, [], Outcome.PASS), 4) == ".... P"

    def test_cached_unresolved_full(self):
        line = render_log_line(
            record(4, [0, 1, 2, 3], Outcome.UNRESOLVED, cached=True), 4
        )
        assert line == "**** ?#"

    def test_wide_sparse_row_matches_per_cell_rendering(self):
        config = Configuration(20000, [0, 3, 64, 12345, 19998, 19999])
        rec = TestRecord(config, 2, Outcome.PASS, False, SOURCE_ORACLE, 0.0)
        cells = "".join("*" if i in config else "." for i in range(20000))
        assert render_log_line(rec, 20000) == cells + " P"

    def test_universe_size_mismatch(self):
        with pytest.raises(ValueError):
            render_log_line(record(4, [0], Outcome.PASS), 5)


class TestReportDocument:
    def test_round_trip_identity(self, tmp_path):
        result = ddmin(Configuration.full(8), conjunction(8, [2, 5]))
        doc = build_report(result, verified=True)
        path = tmp_path / "report.json"
        write_report(doc, path)
        loaded = read_report(path)
        assert loaded == doc

    def test_conjunction_run_fields(self, tmp_path):
        result = ddmin(Configuration.full(8), conjunction(8, [2, 5]))
        doc = build_report(result)
        assert doc.universe_size == 8
        assert doc.final == [2, 5]
        assert doc.ratio == pytest.approx(0.25)
        total = sum(sum(per.values()) for per in doc.counters.values())
        assert total == len(doc.tests) == len(result.log.records)

    def test_axiom_only_report(self):
        from deltadebug import AxiomViolation

        with pytest.raises(AxiomViolation) as info:
            ddmin(Configuration.full(4), lambda c: Outcome.PASS)
        doc = build_report(None, log_=info.value.log)
        assert set(doc.counters) == {SOURCE_AXIOM}
        assert doc.final == []

    def test_deterministic_mode_zeroes_durations(self, tmp_path):
        result = ddmin(Configuration.full(8), conjunction(8, [2, 5]))
        doc = build_report(result)
        write_report(doc, tmp_path / "det.json", deterministic=True)
        loaded = read_report(tmp_path / "det.json")
        assert all(t["duration_ms"] == 0.0 for t in loaded.tests)


class TestCacheFile:
    def test_round_trip(self, tmp_path):
        cache = {
            Configuration(12, [0, 3]).bits: Outcome.FAIL,
            Configuration(12, [1]).bits: Outcome.PASS,
            Configuration(12, []).bits: Outcome.UNRESOLVED,
        }
        path = tmp_path / "cache.tsv"
        write_cache(cache, 12, path)
        assert read_cache(path) == cache

    def test_malformed_lines_are_skipped_with_warning(self, tmp_path, caplog):
        path = tmp_path / "cache.tsv"
        path.write_text("09\tF\nnot-a-line\nzz\tQ\n03\tP\n")
        with caplog.at_level("WARNING"):
            cache = read_cache(path)
        assert cache == {0x09: Outcome.FAIL, 0x03: Outcome.PASS}
        assert len(caplog.records) == 2

    def test_cache_writer_appends_and_flushes(self, tmp_path):
        path = tmp_path / "cache.tsv"
        with CacheWriter(path) as sink:
            opts = EngineOptions(cache_sink=sink)
            result = ddmin(Configuration.full(8), conjunction(8, [2, 5]), opts)
        cache = read_cache(path)
        # Every distinct tested configuration is present with its outcome.
        seen = {}
        for rec in result.log:
            seen[rec.config.bits] = rec.outcome
        assert cache == seen

    def test_replaying_cache_reproduces_the_original_outcomes(self, tmp_path):
        oracle = random_table(10, seed=77)
        first = ddmin(Configuration.full(10), oracle)
        snapshot = {}
        for rec in first.log:
            snapshot[rec.config.bits] = rec.outcome
        path = tmp_path / "cache.tsv"
        write_cache(snapshot, 10, path)

        def poisoned(config):
            raise AssertionError("the underlying oracle must not be consulted")

        replay = ddmin(
            Configuration.full(10),
            poisoned,
            EngineOptions(preloaded_cache=read_cache(path)),
        )
        assert replay.final == first.final
        assert [r.outcome for r in replay.log] == [r.outcome for r in first.log]
        assert [r.config for r in replay.log] == [r.config for r in first.log]
