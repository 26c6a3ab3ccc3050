"""Run-log rendering and machine-readable result/cache persistence.

The report is a single JSON document with one test record per line; the
outcome cache is line-oriented (`<hex bitmap><TAB><F|P|U>`) so it can be
appended between tests and reloaded to restore exact-cache behavior bit
for bit.
"""

from __future__ import annotations

import json
import logging
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

log = logging.getLogger(__name__)

_OUTCOME_MARK = {Outcome.FAIL: "F", Outcome.PASS: "P", Outcome.UNRESOLVED: "?"}
_CACHE_LETTER = {Outcome.FAIL: "F", Outcome.PASS: "P", Outcome.UNRESOLVED: "U"}
_CACHE_OUTCOME = {v: k for k, v in _CACHE_LETTER.items()}
_CELLS = str.maketrans("01", ".*")


def render_log_line(record: TestRecord, universe_size: int) -> str:
    """One bitmap row per test: `*` included, `.` excluded, then the outcome.

    Cache-answered records get a trailing `#`.
    """
    if record.config.universe_size != universe_size:
        raise ValueError(
            f"record is over a universe of {record.config.universe_size}, "
            f"not {universe_size}"
        )
    cells = bit_string(record.config.bits, universe_size).translate(_CELLS)
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
    verified: Optional[bool] = None,
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
        if verified is None:
            verified = result.verified_1_minimal
    else:
        if log_ is None:
            raise ValueError("need a result or a run log")
        final = []
        ratio = 0.0
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


def cache_line(config: Configuration, outcome: Outcome) -> str:
    return f"{config.bitmap_hex()}\t{_CACHE_LETTER[outcome]}"


def write_cache(
    cache: dict[int, Outcome], universe_size: int, path: Union[str, Path]
) -> None:
    path = Path(path)
    lines = [
        cache_line(Configuration.from_bits(universe_size, bits), outcome)
        for bits, outcome in sorted(cache.items())
    ]
    try:
        path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write cache {path}: {exc}") from exc


def read_cache(path: Union[str, Path]) -> dict[int, Outcome]:
    """Reload a persisted outcome cache; malformed lines are skipped."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot read cache {path}: {exc}") from exc
    cache: dict[int, Outcome] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        try:
            if len(parts) != 2:
                raise ValueError("expected two tab-separated fields")
            hex_part, letter = parts
            bits = int.from_bytes(bytes.fromhex(hex_part), "little") if hex_part else 0
            cache[bits] = _CACHE_OUTCOME[letter]
        except (ValueError, KeyError):
            log.warning("%s:%d: skipping malformed cache line %r", path, lineno, line)
    return cache


class CacheWriter:
    """Appends cache lines as tests complete, flushing per record."""

    def __init__(self, path: Union[str, Path]):
        self._fh = open(path, "a", encoding="utf-8")

    def __call__(self, config: Configuration, outcome: Outcome) -> None:
        self._fh.write(cache_line(config, outcome) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "CacheWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
