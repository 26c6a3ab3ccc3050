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
    SOURCE_AXIOM, SOURCE_EXACT_CACHE, SOURCE_FEASIBILITY, SOURCE_MONOTONY, SOURCE_ORACLE,
)
from deltadebug.oracles import conjunction
from deltadebug.report import write_report
from support import bitmap_hex


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


TRACE_SLICES = {
    "sum-and-mul": (
        ["--expect", "sum = 15\\nmul = 0\\n"],
        "592da8f512110a1c2d7e055be3f8ef6c28a9a610f1f9b654777a0be68c45379e",
    ),
    "sum-only": (
        ["--expect", "sum = 15\\n", "--filter", "sum"],
        "eed796db590c9782051822171eb7d57586dd15e2adc8ecaf17d252378ee65338",
    ),
    "mul-only": (
        ["--expect", "mul = 0\\n", "--filter", "mul"],
        "da81abb340ee829a80a52190c6e1b7cb690ef3a1468bb9da3f2c30b87a077757",
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
        "b0f8bc022d9a772f9b86c853b9fc1cbd84693da67cd89e06e2fa2ebc31554717"
    )


CHANGE_RUNS = {
    "groups-file": (
        ["--groups", "file"],
        "3ef901224021ed2f996712bf0ee4b0059a8c014bdc87b95dee3c410c62f7187a",
    ),
    "deps": (
        ["--deps", "deps.tsv"],
        "31a29c69bff53f82944566be6b9e26d58b711436c49e5d510068c485a20c95ee",
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
    write_report(result.log, report, result, deterministic=True)
    assert sha256(report) == (
        "7be0ef5b03cabbb0ced4a43563f7345685f2077504eb33720498d990462cf194"
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
    write_report(log, report)
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
