import dataclasses
import json

import pytest

from deltadebug import Configuration, EngineOptions, Outcome, TestRecord, ddmin
from deltadebug.core import (
    SOURCE_AXIOM, SOURCE_EXACT_CACHE, SOURCE_ORACLE, MinimizationResult, Pass,
)
from deltadebug.oracles import conjunction
from deltadebug.report import render_log_line, write_report
from support import Report, passes_of, random_table, read_report


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
        write_report(passes_of(result), path)
        # The flag was set by hand, so the log does not bear it out.
        loaded = read_report(path, audit=False)
        assert loaded.verified_1_minimal is False
        assert loaded == Report.of(result)

    def test_conjunction_run_fields(self, tmp_path):
        result = ddmin(Configuration.full(8), conjunction(8, [2, 5]))
        write_report(passes_of(result), tmp_path / "report.json")
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
        log = info.value.log
        aborted = Pass("aborted", MinimizationResult(Configuration(4), log), ())
        write_report([aborted], tmp_path / "report.json")
        doc = read_report(tmp_path / "report.json")
        assert set(doc.counters) == {SOURCE_AXIOM}
        assert doc.final == []
        assert doc.ratio == 0.0
        assert doc.verified_1_minimal is None
        assert json.loads((tmp_path / "report.json").read_text())["input_final"] == []

    def test_each_earlier_pass_is_written_as_its_own_report(self, tmp_path):
        passes = [
            passes_of(ddmin(Configuration.full(n), conjunction(n, [1, n - 2])), f"pass {i}")[0]
            for i, n in enumerate((4, 8, 6))
        ]
        write_report(passes, tmp_path / "run.json")
        doc = json.loads((tmp_path / "run.json").read_text())
        alone = []
        for p in passes:
            write_report([p], tmp_path / "pass.json")
            keys = json.loads((tmp_path / "pass.json").read_text())
            assert keys.pop("input_final") == list(p.kept)
            alone.append({"label": p.label, **keys})
        assert doc.pop("input_final") == list(passes[-1].kept)
        assert doc.pop("passes") == alone[:-1]
        assert {"label": passes[-1].label, **doc} == alone[-1]

    def test_input_final_names_the_last_pass_in_input_ids(self, tmp_path):
        result = ddmin(Configuration.full(4), conjunction(4, [1, 3]))
        # Delta i stands for input ids 10i and 10i + 1.
        run = Pass("pairs", result, [(10 * i, 10 * i + 1) for i in range(4)])
        write_report([run], tmp_path / "report.json")
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["final"] == [1, 3]
        assert doc["input_final"] == [10, 11, 30, 31]

    def test_deterministic_mode_zeroes_durations(self, tmp_path):
        result = ddmin(Configuration.full(8), conjunction(8, [2, 5]))
        write_report(passes_of(result), tmp_path / "det.json", deterministic=True)
        loaded = read_report(tmp_path / "det.json")
        assert all(r.duration_ms == 0.0 for r in loaded.records)


class TestCacheFile:
    """A saved outcome table, preloaded, answers a whole run."""

    def test_replaying_cache_reproduces_the_original_outcomes(self):
        # A preloaded PASS that leaves out at most one interval covers from
        # the start, so a replay may skip a candidate that the original
        # asked, but never one that FAILed: the final, the FAILs in order
        # and the verified flag stay, and every configuration it logs is
        # the original's.
        def poisoned(config):
            raise AssertionError("the underlying oracle must not be consulted")

        fewer = 0
        for seed in range(300):
            size = 2 + seed % 9
            oracle = random_table(size, seed=77 + seed)
            first = ddmin(Configuration.full(size), oracle)
            snapshot = {}
            for rec in first.log:
                snapshot.setdefault(rec.config.bits, rec.outcome)
            replay = ddmin(
                Configuration.full(size),
                poisoned,
                EngineOptions(preloaded_cache=snapshot),
            )
            assert replay.final == first.final
            assert replay.verified_1_minimal == first.verified_1_minimal
            fails = [[r.config for r in run.log if r.outcome == Outcome.FAIL] for run in (first, replay)]
            assert fails[0] == fails[1]
            assert {r.config for r in replay.log} <= {r.config for r in first.log}
            fewer += len(replay.log) < len(first.log)
        assert fewer >= 200
