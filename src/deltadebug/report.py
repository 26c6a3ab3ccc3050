"""Run-log rendering and machine-readable result/cache persistence.

The report is a single JSON document with one test record per line; the
outcome cache is line-oriented (`<hex bitmap><TAB><F|P|U>`) so it can be
appended between tests and reloaded to restore exact-cache behavior bit
for bit.
"""

from __future__ import annotations

import json
import logging
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
    tests: list[dict] = field(default_factory=list)
    ratio: float = 0.0
    verified_1_minimal: Optional[bool] = None

    def to_json_dict(self, deterministic: bool = False) -> dict:
        tests = self.tests
        if deterministic:
            tests = [dict(t, duration_ms=0.0) for t in tests]
        return {
            "universe_size": self.universe_size,
            "final": list(self.final),
            "counters": self.counters,
            "tests": tests,
            "ratio": self.ratio,
            "verified_1_minimal": self.verified_1_minimal,
        }


def _record_to_dict(record: TestRecord) -> dict:
    return {
        "config": record.config.bitmap_hex(),
        "granularity": record.granularity,
        "outcome": record.outcome.value,
        "cached": record.cached,
        "source": record.source,
        "duration_ms": record.duration_ms,
    }


def build_report(
    result: Union[MinimizationResult, None],
    log_: Optional[RunLog] = None,
    verified: Optional[bool] = None,
) -> ReportDocument:
    """Assemble the report for a finished (or aborted) run.

    Pass a ``MinimizationResult`` for completed runs; for aborted runs
    (axiom violations) pass ``result=None`` with the partial ``log_``.
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
        tests=[_record_to_dict(r) for r in log_.records],
        ratio=ratio,
        verified_1_minimal=verified,
    )


def write_report(
    doc: ReportDocument, path: Union[str, Path], deterministic: bool = False
) -> None:
    path = Path(path)
    try:
        path.write_text(
            _dump_report(doc.to_json_dict(deterministic=deterministic)),
            encoding="utf-8",
        )
    except OSError as exc:
        raise OSError(f"cannot write report {path}: {exc}") from exc


def _dump_report(data: dict) -> str:
    """Top-level keys indented, each test record on one line of its own.

    An ``indent`` keeps ``json.dumps`` on its pure-Python encoder, so the
    records, which are nearly all of a report, are encoded without one.
    """
    fields = []
    for key, value in data.items():
        if key == "tests" and value:
            records = ",\n".join("    " + json.dumps(record) for record in value)
            text = f"[\n{records}\n  ]"
        else:
            text = json.dumps(value, indent=2).replace("\n", "\n  ")
        fields.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(fields) + "\n}\n"


def read_report(path: Union[str, Path]) -> ReportDocument:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise OSError(f"cannot read report {path}: {exc}") from exc
    return ReportDocument(
        universe_size=data["universe_size"],
        final=data["final"],
        counters=data["counters"],
        tests=data["tests"],
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
