"""Run-log rendering and the machine-readable run report.

The report is a single JSON document with one test record per line.
"""

from __future__ import annotations

import json
import operator
from pathlib import Path
from typing import Sequence, Union

from .core import (
    CACHED_SOURCES,
    MinimizationResult,
    Outcome,
    Pass,
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
    passes: Sequence[Pass], path: Union[str, Path], deterministic: bool = False
) -> None:
    """Write the report of a run's ``passes`` as JSON.

    The last pass's keys are at the top level.  If there are earlier
    passes, ``passes`` lists them, oldest first, each with its label and
    the keys its own report would have.  The last key, ``input_final``,
    is the run's result in the ids of its input.  ``deterministic`` writes
    every duration as 0.0.
    """
    path = Path(path)
    *earlier, last = passes
    body = _dump_pass(last.result, deterministic, "  ")
    if earlier:
        entries = ",\n".join(
            f'    {{\n      "label": {json.dumps(p.label)},\n'
            f'{_dump_pass(p.result, deterministic, "      ")}\n    }}'
            for p in earlier
        )
        body += f',\n  "passes": [\n{entries}\n  ]'
    body += f',\n  "input_final": {_indented(list(last.kept), "  ")}'
    try:
        path.write_text("{\n" + body + "\n}\n", encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write report {path}: {exc}") from exc


# One test record per line, exactly as ``json.dumps`` renders its dict:
# outcome values and the hex bitmap need no escaping, and ``%r`` of a float
# is ``float.__repr__``, which is what the JSON encoder writes.
_TEST_LINE = (
    '{"config": "%s", "granularity": %d, "outcome": "%s", '
    '"cached": %s, "source": %s, "duration_ms": %r}'
)
_TEST_FIELDS = operator.attrgetter(
    "config.bits", "granularity", "outcome._value_", "source", "duration_ms"
)


def _test_lines(log: RunLog, deterministic: bool, pad: str) -> str:
    nbytes = (log.universe_size + 7) // 8
    # Each source's "cached" flag and quoted name, as JSON.
    columns = {
        s: (json.dumps(s in CACHED_SOURCES), json.dumps(s))
        for s in {r.source for r in log.records}
    }
    return pad + (",\n" + pad).join(
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


def _indented(value, pad: str) -> str:
    return json.dumps(value, indent=2).replace("\n", "\n" + pad)


def _dump_pass(result: MinimizationResult, deterministic: bool, pad: str) -> str:
    """A pass's keys, each on a line of its own after ``pad``, and each test
    record on one line of its own.  The report is one such pass at the top
    level."""
    log = result.log
    inner = pad + "  "
    tests = f"[\n{_test_lines(log, deterministic, inner)}\n{pad}]" if log.records else "[]"
    fields = {
        "universe_size": _indented(log.universe_size, pad),
        "final": _indented(list(result.final.members), pad),
        "counters": _indented(log.counts_by_source(), pad),
        "tests": tests,
        "ratio": _indented(result.reduction_ratio, pad),
        "verified_1_minimal": _indented(result.verified_1_minimal, pad),
    }
    return ",\n".join(f'{pad}"{key}": {text}' for key, text in fields.items())
