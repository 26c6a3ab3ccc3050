"""Run-log rendering and the machine-readable run report.

The report is a single JSON document with one test record per line.
"""

from __future__ import annotations

import json
import operator
from pathlib import Path
from typing import Optional, Union

from .core import (
    CACHED_SOURCES,
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


def write_report(
    log: RunLog,
    path: Union[str, Path],
    result: Optional[MinimizationResult] = None,
    deterministic: bool = False,
) -> None:
    """Write the report of the run that logged ``log`` as JSON.

    ``result`` is the finished run's result, whose log is ``log``; an
    aborted run (an axiom violation) has none, and its report holds an
    empty ``final``.  ``deterministic`` writes every duration as 0.0.
    """
    path = Path(path)
    try:
        path.write_text(_dump_report(log, result, deterministic), encoding="utf-8")
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
    "config.bits", "granularity", "outcome._value_", "source", "duration_ms"
)
_SOURCE = operator.attrgetter("source")


def _test_lines(log: RunLog, deterministic: bool) -> str:
    nbytes = (log.universe_size + 7) // 8
    # Each source's "cached" flag and quoted name, as JSON.
    columns = {
        s: (json.dumps(s in CACHED_SOURCES), json.dumps(s))
        for s in set(map(_SOURCE, log.records))
    }
    return ",\n".join(
        _TEST_LINE % (
            bits.to_bytes(nbytes, "little").hex(),
            granularity,
            outcome,
            *columns[source],
            0.0 if deterministic else duration,
        )
        for bits, granularity, outcome, source, duration
        in map(_TEST_FIELDS, log.records)
    )


def _indented(value) -> str:
    return json.dumps(value, indent=2).replace("\n", "\n  ")


def _dump_report(
    log: RunLog, result: Optional[MinimizationResult], deterministic: bool
) -> str:
    """Top-level keys indented, each test record on one line of its own."""
    if result is None:
        final, ratio, verified = [], 0.0, None
    else:
        final = list(result.final.members)
        ratio, verified = result.reduction_ratio, result.verified_1_minimal
    tests = f"[\n{_test_lines(log, deterministic)}\n  ]" if log.records else "[]"
    fields = {
        "universe_size": _indented(log.universe_size),
        "final": _indented(final),
        "counters": _indented(log.counts_by_source()),
        "tests": tests,
        "ratio": _indented(ratio),
        "verified_1_minimal": _indented(verified),
    }
    body = ",\n".join(f'  "{key}": {text}' for key, text in fields.items())
    return "{\n" + body + "\n}\n"
