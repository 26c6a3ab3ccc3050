"""Byte-exact `--deterministic-report` output of fixed runs.

Each digest is the SHA-256 of the whole report file.  The report writer
formats test records itself instead of going through ``json.dumps``, so
these pin its bytes: key order, spacing, the float rendering of
``duration_ms`` and the line layout.
"""

import hashlib
import json

import pytest

from deltadebug import Configuration, Outcome, RunLog, TestRecord, ddmin
from deltadebug.cli import run
from deltadebug.changes import write_tree
from deltadebug.core import (
    MinimizationResult, SOURCE_AXIOM, SOURCE_EXACT_CACHE, SOURCE_FEASIBILITY, SOURCE_MONOTONY, SOURCE_ORACLE,
)
from deltadebug.oracles import conjunction
from deltadebug.report import write_report
from support import bitmap_hex, passes_of


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


TRACE_SLICES = {
    "sum-and-mul": (
        ["--expect", "sum = 15\\nmul = 0\\n"],
        "841f42c8ef563d418fad21e4d60cff4e9f8b3ec52ea81fb7716780e314428239",
    ),
    "sum-only": (
        ["--expect", "sum = 15\\n", "--filter", "sum"],
        "43c7422a8f32913f43c3cf3fe99178644aeb0054880a19bd74325ca9424f5525",
    ),
    "mul-only": (
        ["--expect", "mul = 0\\n", "--filter", "mul"],
        "59b9a5090e18309ab30f800579de52e6e9053e7400ee3032cee286cfde8023c9",
    ),
}


@pytest.mark.parametrize("name", sorted(TRACE_SLICES))
def test_reduce_trace_report_bytes(name, tmp_path, sample_source, capsys):
    flags, expected = TRACE_SLICES[name]
    program = tmp_path / "sample.toy"
    program.write_text(sample_source)
    report = tmp_path / "report.json"
    code = run([
        "reduce-trace", "--program", str(program), "--stdin", "0,5", *flags,
        "--report", str(report), "--deterministic-report",
    ])
    assert code == 0
    assert sha256(report) == expected


def test_minimize_input_report_bytes(tmp_path, make_script, capsys):
    crash = tmp_path / "crash.txt"
    crash.write_text("".join(f"{i}\n" for i in range(100)))
    report = tmp_path / "report.json"
    code = run([
        "minimize-input", "--input", str(crash),
        "--test", make_script('grep -q 78 "$1"'),
        "--output", str(tmp_path / "crash.min"),
        "--workspace", str(tmp_path / "ws"),
        "--report", str(report), "--deterministic-report",
    ])
    assert code == 0
    assert sha256(report) == (
        "7db1d11574563d7893fc38a3a3841096c1bbac33b1c88b00e6e4aac9281e55c8"
    )


def test_axiom_violation_report_bytes(tmp_path, make_script, capsys):
    # A test that never fails: the run aborts after its two axiom checks.
    crash = tmp_path / "crash.txt"
    crash.write_text("a\nBUG\nb\n")
    report = tmp_path / "report.json"
    code = run([
        "minimize-input", "--input", str(crash),
        "--test", make_script("exit 1"),
        "--workspace", str(tmp_path / "ws"),
        "--report", str(report), "--deterministic-report",
    ])
    assert code == 2
    assert sha256(report) == (
        "319892ab574a4f816bcee41633a3554d5b0902974e24018b0a3aa81467ede4e4"
    )


CHANGE_RUNS = {
    "groups-file": (
        ["--groups", "file"],
        "16af33c88d83d0bc19a727dc9130dadf951148102d1c1af12a06bb08815233fd",
    ),
    "deps": (
        ["--deps", "deps.tsv"],
        "ec50ab795ead49aec12d7dd19dd7d336e603c35cf38f438670a00958be72f7b1",
    ),
}


@pytest.mark.parametrize("name", sorted(CHANGE_RUNS))
def test_minimize_changes_report_bytes(name, tmp_path, two_cause_changes, capsys):
    baseline, diff, deps, test = two_cause_changes
    write_tree(baseline, tmp_path / "baseline")
    (tmp_path / "changes.diff").write_text(diff)
    (tmp_path / "deps.tsv").write_text(deps)
    flags, expected = CHANGE_RUNS[name]
    report = tmp_path / "report.json"
    code = run([
        "minimize-changes", "--baseline", str(tmp_path / "baseline"),
        "--diff", str(tmp_path / "changes.diff"), "--test", test,
        *(str(tmp_path / f) if f.endswith(".tsv") else f for f in flags),
        "--workspace", str(tmp_path / "ws"),
        "--report", str(report), "--deterministic-report",
    ])
    assert code == 0
    assert sha256(report) == expected


def test_ddmin_report_bytes(tmp_path):
    result = ddmin(Configuration.full(8), conjunction(8, [2, 5]))
    report = tmp_path / "report.json"
    write_report(passes_of(result), report, deterministic=True)
    assert sha256(report) == (
        "e1377feb784c25132856359296200abda68f0c6cc7c12574233a544a10c7cbbd"
    )


def test_records_are_written_as_json_dumps_would(tmp_path):
    # Durations chosen for float rendering: exponents, the extremes and an int.
    durations = [0.0, 0.1, 1e-07, 2.5e-05, 123456.789, 1e16,
                 1.7976931348623157e308, 5e-324, 7]
    sources = [SOURCE_ORACLE, SOURCE_EXACT_CACHE, SOURCE_AXIOM, SOURCE_MONOTONY,
               SOURCE_FEASIBILITY]
    outcomes = list(Outcome)
    log = RunLog(12)
    for i, duration in enumerate(durations):
        log.records.append(TestRecord(
            Configuration(12, range(i)), 2 + i, outcomes[i % 3], sources[i % 5], duration,
        ))
    report = tmp_path / "report.json"
    write_report(passes_of(MinimizationResult(Configuration(12), log)), report)
    lines = report.read_text().splitlines()
    start = lines.index('  "tests": [') + 1
    assert lines[start:start + len(durations) + 1] == [
        "    " + json.dumps({
            "config": bitmap_hex(r.config),
            "granularity": r.granularity,
            "outcome": r.outcome.value,
            "cached": r.source in (SOURCE_EXACT_CACHE, SOURCE_MONOTONY),
            "source": r.source,
            "duration_ms": r.duration_ms,
        }) + ("," if i < len(durations) - 1 else "")
        for i, r in enumerate(log.records)
    ] + ["  ],"]
