"""Run-log rendering and the machine-readable run report.

The report is a single JSON document with one test record per line.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from .core import (
    Configuration,
    MinimizationResult,
    Outcome,
    RunLog,
    TestRecord,
    bit_string,
)

_OUTCOME_MARK = {Outcome.FAIL: "F", Outcome.PASS: "P", Outcome.UNRESOLVED: "?"}
_CELLS = str.maketrans("01", ".*")


def render_log_line(record: TestRecord) -> str:
    """One bitmap row per test: `*` included, `.` excluded, then the outcome.

    Cache-answered records get a trailing `#`.
    """
    config = record.config
    cells = bit_string(config.bits, config.universe_size).translate(_CELLS)
    mark = _OUTCOME_MARK[record.outcome]
    return f"{cells} {mark}#" if record.cached else f"{cells} {mark}"


@dataclass
class ReportDocument:
    universe_size: int
    final: list[int]
    counters: dict[str, dict[str, int]]
    records: list[TestRecord] = field(default_factory=list)
    ratio: float = 0.0
    verified_1_minimal: Optional[bool] = None


def build_report(
    result: Union[MinimizationResult, None],
    log_: Optional[RunLog] = None,
) -> ReportDocument:
    """Assemble the report for a finished (or aborted) run.

    Pass a ``MinimizationResult`` for completed runs; for aborted runs
    (axiom violations) pass ``result=None`` with the partial ``log_``.
    The document shares the log's records; nothing is copied per test.
    """
    if result is not None:
        log_ = result.log
        final = list(result.final.members)
        ratio = result.reduction_ratio
        verified = result.verified_1_minimal
    else:
        if log_ is None:
            raise ValueError("need a result or a run log")
        final = []
        ratio = 0.0
        verified = None
    return ReportDocument(
        universe_size=log_.universe_size,
        final=final,
        counters=log_.counts_by_source(),
        records=log_.records,
        ratio=ratio,
        verified_1_minimal=verified,
    )


def write_report(
    doc: ReportDocument, path: Union[str, Path], deterministic: bool = False
) -> None:
    """Write ``doc`` as JSON; ``deterministic`` writes every duration as 0.0."""
    path = Path(path)
    try:
        path.write_text(_dump_report(doc, deterministic), encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write report {path}: {exc}") from exc


# One test record per line, exactly as ``json.dumps`` renders its dict:
# outcome values and the hex bitmap need no escaping, and ``%r`` of a float
# is ``float.__repr__``, which is what the JSON encoder writes.
_TEST_LINE = (
    '    {"config": "%s", "granularity": %d, "outcome": "%s", '
    '"cached": %s, "source": %s, "duration_ms": %r}'
)
_TEST_FIELDS = operator.attrgetter(
    "config.bits", "granularity", "outcome._value_", "cached", "source", "duration_ms"
)
_JSON_BOOL = ("false", "true")
_SOURCE = operator.attrgetter("source")


def _test_lines(doc: ReportDocument, deterministic: bool) -> str:
    nbytes = (doc.universe_size + 7) // 8
    quoted = {s: json.dumps(s) for s in set(map(_SOURCE, doc.records))}
    return ",\n".join(
        _TEST_LINE % (
            bits.to_bytes(nbytes, "little").hex(),
            granularity,
            outcome,
            _JSON_BOOL[cached],
            quoted[source],
            0.0 if deterministic else duration,
        )
        for bits, granularity, outcome, cached, source, duration
        in map(_TEST_FIELDS, doc.records)
    )


def _indented(value) -> str:
    return json.dumps(value, indent=2).replace("\n", "\n  ")


def _dump_report(doc: ReportDocument, deterministic: bool) -> str:
    """Top-level keys indented, each test record on one line of its own."""
    tests = f"[\n{_test_lines(doc, deterministic)}\n  ]" if doc.records else "[]"
    fields = {
        "universe_size": _indented(doc.universe_size),
        "final": _indented(doc.final),
        "counters": _indented(doc.counters),
        "tests": tests,
        "ratio": _indented(doc.ratio),
        "verified_1_minimal": _indented(doc.verified_1_minimal),
    }
    body = ",\n".join(f'  "{key}": {text}' for key, text in fields.items())
    return "{\n" + body + "\n}\n"


def read_report(path: Union[str, Path]) -> ReportDocument:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise OSError(f"cannot read report {path}: {exc}") from exc
    universe_size = data["universe_size"]
    return ReportDocument(
        universe_size=universe_size,
        final=data["final"],
        counters=data["counters"],
        records=[
            TestRecord(
                config=Configuration.from_bitmap_hex(universe_size, t["config"]),
                granularity=t["granularity"],
                outcome=Outcome(t["outcome"]),
                cached=t["cached"],
                source=t["source"],
                duration_ms=t["duration_ms"],
            )
            for t in data["tests"]
        ],
        ratio=data["ratio"],
        verified_1_minimal=data["verified_1_minimal"],
    )
