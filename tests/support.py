"""Test-only helpers: a table oracle, the exhaustive n-minimality check the
engine's results are compared against, an audit of run logs, and a reader
for run reports."""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

from deltadebug.changes import render_unified_diff
from deltadebug.core import (
    SOURCE_AXIOM,
    SOURCE_EXACT_CACHE,
    SOURCE_FEASIBILITY,
    SOURCE_MONOTONY,
    SOURCE_ORACLE,
    Configuration,
    DeltaDebugError,
    EngineOptions,
    MinimizationResult,
    OracleLike,
    Outcome,
    Pass,
    TestRecord,
    as_oracle,
)

DEFAULT_VERIFY_BUDGET = 2 ** 16


# --- oracles ------------------------------------------------------------------

class TableOracle:
    """Outcome lookup table keyed by configuration bitmap."""

    def __init__(
        self,
        universe_size: int,
        table: dict[int, Outcome],
        default: Outcome = Outcome.PASS,
    ):
        self.universe_size = universe_size
        self.table = table
        self.default = default

    def evaluate(self, config: Configuration) -> Outcome:
        return self.table.get(config.bits, self.default)


def random_table(
    universe_size: int,
    seed: int,
    fail_p: float = 0.25,
    unresolved_p: float = 0.25,
) -> TableOracle:
    """Arbitrary (non-monotone) failure family with the axioms forced.

    Enumerates all subsets, so keep the universe small (<= ~16 deltas).
    """
    rng = random.Random(seed)
    full = (1 << universe_size) - 1
    table = {0: Outcome.PASS, full: Outcome.FAIL}
    for bits in range(1, full):
        roll = rng.random()
        if roll < fail_p:
            table[bits] = Outcome.FAIL
        elif roll < fail_p + unresolved_p:
            table[bits] = Outcome.UNRESOLVED
        else:
            table[bits] = Outcome.PASS
    return TableOracle(universe_size, table)


# --- exhaustive minimality ----------------------------------------------------

class VerifyBudgetExceeded(DeltaDebugError):
    """Exhaustive minimality verification would exceed the subset budget."""


def verify_n_minimal(
    config: Configuration,
    oracle: OracleLike,
    n: int,
    budget: int = DEFAULT_VERIFY_BUDGET,
) -> bool:
    """Exhaustively check n-minimality: no removal of up to n deltas FAILs.

    Tests every proper subset obtained by dropping 1..n members, which is
    sum(C(|config|, k)) subsets; refuses (rather than guessing) when that
    count exceeds ``budget``.  With n = len(config) this is full minimality.
    """
    size = len(config)
    if not 1 <= n <= size:
        raise ValueError(f"n must be in 1..{size}")
    oracle = as_oracle(oracle)
    total = sum(math.comb(size, k) for k in range(1, n + 1))
    if total > budget:
        raise VerifyBudgetExceeded(
            f"verification needs {total} tests, budget is {budget}"
        )
    members = config.members
    for k in range(1, n + 1):
        for removed in itertools.combinations(members, k):
            if oracle.evaluate(config.without(removed)) == Outcome.FAIL:
                return False
    return True


# --- run-log audit ------------------------------------------------------------

class AuditError(AssertionError):
    """A ddmin run log breaks a rule that every run keeps."""


def _one_interval(part: int, config: int) -> bool:
    """Whether the bitmap ``part`` of ``config`` is empty or one run of
    consecutive members of ``config``."""
    low = part & -part
    return not part or config & (1 << part.bit_length()) - low == part


def audit_log(
    universe: int,
    records: Sequence[TestRecord],
    final: int,
    verified: Optional[bool],
    monotone: Optional[bool] = None,
    preloaded: Optional[Mapping[int, Outcome]] = None,
) -> list[str]:
    """The rules that the log of a ddmin run from the bitmap ``universe``
    breaks, one line each, naming the record; empty for a sound log.  It
    reads the log, the result (``final`` as a bitmap, and
    ``verified_1_minimal``) and the options, and re-derives no round.
    ``monotone`` and ``preloaded`` are None where the options are unknown,
    as for a report read back: then a monotony record may stand, and a
    first record from the exact cache is a preloaded answer.

    - The first two records are the axiom checks, the empty configuration
      and ``universe``, at granularity 0.  A log whose axiom check breaks
      its axiom ends there, and nothing more is checked: the run raised.
    - A bitmap's later records are ``exact-cache`` records with its first
      answer, and so is a preloaded bitmap's first record.
    - Every later record asks a non-empty proper subset of the current
      configuration, at a granularity from 2 to its size, and each FAIL
      becomes the current one.  The final is the last FAIL.
    - A ``monotony`` record is a late complement, and only under
      ``monotone``: one member short of the current configuration, at a
      granularity equal to its size.
    - The cover: no ``oracle`` or ``monotony`` record other than a late
      complement lies inside an earlier PASS that leaves out at most one
      interval of the configuration after its round.  That configuration
      is the FAIL that ended the round, else the round's own.  A preloaded
      PASS covers from the start, with ``universe`` as that configuration.
    - ``verified_1_minimal`` equals its recomputation from the first
      answers to ``final`` and to ``final`` minus each member.
    - The run takes at most n^2 + 3n oracle tests, n the universe's size.
    """
    problems: list[str] = []
    # Each bitmap's first answer, with its source; a preloaded answer is one
    # given before the run.
    first = {bits: (outcome, SOURCE_EXACT_CACHE) for bits, outcome in (preloaded or {}).items()}

    def answer(k: int, rec: TestRecord) -> None:
        earlier = first.get(rec.config.bits)
        if earlier is None:
            if rec.source == SOURCE_EXACT_CACHE and preloaded is not None:
                problems.append(f"record {k}: an exact-cache answer to a bitmap not asked before")
            first[rec.config.bits] = (rec.outcome, rec.source)
        elif rec.source != SOURCE_EXACT_CACHE or rec.outcome is not earlier[0]:
            problems.append(f"record {k}: a repeat that is not an exact-cache record with the first answer")

    for k, (bits, axiom) in enumerate(((0, Outcome.PASS), (universe, Outcome.FAIL))):
        if k == len(records) or (records[k].config.bits, records[k].granularity) != (bits, 0):
            return problems + [f"record {k}: not the axiom check of {bits:#x}"]
        if records[k].source not in (SOURCE_AXIOM, SOURCE_EXACT_CACHE, SOURCE_FEASIBILITY):
            problems.append(f"record {k}: an axiom check tagged {records[k].source}")
        answer(k, records[k])
        if records[k].outcome is not axiom:
            if len(records) > k + 1:
                problems.append(f"record {k + 1}: a test after a broken axiom")
            return problems

    # The cover, as what each covering PASS leaves out of the current
    # configuration: a record lies inside that PASS when it misses all of it.
    gaps = {
        universe & ~bits for bits, outcome in (preloaded or {}).items()
        if outcome is Outcome.PASS and _one_interval(universe & ~bits, universe)
    }
    current, round_key, round_passes, oracle_tests = universe, None, [], 0
    for k, rec in enumerate(records[2:], 2):
        bits, granularity, source = rec.config.bits, rec.granularity, rec.source
        if (current, granularity) != round_key:
            # A new round: the last round's passes join the cover.
            gaps.update(current & ~p for p in round_passes if _one_interval(current & ~p, current))
            round_key, round_passes = (current, granularity), []
        width = current.bit_count()
        if not bits or bits & ~current or bits == current:
            problems.append(f"record {k}: not a non-empty proper subset of the current configuration")
        if not 2 <= granularity <= width:
            problems.append(f"record {k}: granularity {granularity} outside 2..{width}")
        if source == SOURCE_AXIOM:
            problems.append(f"record {k}: an axiom record after the axiom checks")
        answer(k, rec)
        late = granularity == width and (current ^ bits).bit_count() == 1
        if source == SOURCE_MONOTONY and not (late and monotone is not False):
            problems.append(f"record {k}: a monotony answer that is not a late complement under monotone")
        if source in (SOURCE_ORACLE, SOURCE_MONOTONY) and not late and not all(bits & g for g in gaps):
            problems.append(f"record {k}: lies inside an earlier PASS that covers it")
        oracle_tests += source == SOURCE_ORACLE
        if rec.outcome is Outcome.PASS:
            round_passes.append(bits)
        elif rec.outcome is Outcome.FAIL:
            current = bits
            gaps = {g & current for g in gaps}

    if final != current:
        problems.append("the final is not the last FAIL")
    witnesses = [first.get(final)]
    rest = final
    while rest:
        low = rest & -rest
        witnesses.append(first.get(final ^ low))
        rest ^= low
    own, *others = witnesses
    if any(w is None or w[1] == SOURCE_MONOTONY for w in witnesses):
        recomputed = None
    else:
        recomputed = own[0] is Outcome.FAIL and all(w[0] is not Outcome.FAIL for w in others)
    if verified is not recomputed:
        problems.append(f"verified_1_minimal is {verified}, recomputed {recomputed}")
    size = universe.bit_count()
    if oracle_tests > size * size + 3 * size:
        problems.append(f"{oracle_tests} oracle tests exceed n^2 + 3n for n = {size}")
    return problems


def audit_result(
    universe: Configuration, options: Optional[EngineOptions], result: MinimizationResult,
) -> list[str]:
    """``audit_log`` of a ``ddmin`` run, with its options known."""
    opts = options or EngineOptions()
    return audit_log(
        universe.bits, result.log.records, result.final.bits, result.verified_1_minimal,
        opts.monotone, opts.preloaded_cache or {},
    )


def _raise_on(problems: list[str]) -> None:
    if problems:
        raise AuditError("run log audit:\n" + "\n".join(problems[:8]))


def audited(engine):
    """``engine``, a ``ddmin``, with the log of each run that returns
    audited: one that breaks a rule of ``audit_log`` raises ``AuditError``."""

    @functools.wraps(engine)
    def ddmin(universe, oracle, options=None):
        result = engine(universe, oracle, options)
        _raise_on(audit_result(universe, options, result))
        return result

    return ddmin


# --- front-end results --------------------------------------------------------

def minimized(data: bytes, run) -> bytes:
    """The bytes of ``data`` that a ``minimize_input`` run kept."""
    return bytes(data[i] for i in run.passes[-1].kept)


def kept_diff(changeset, run) -> str:
    """The changes that a ``minimize_changes`` run kept, as a unified diff."""
    return render_unified_diff([changeset.changes[i] for i in run.passes[-1].kept])


def slice_labels(reduction) -> list[str]:
    """The labels of the trace events that a ``reduce_trace`` run kept."""
    return [reduction.trace[i].label for i in reduction.passes[-1].kept]


# --- run reports --------------------------------------------------------------

def bitmap_hex(config: Configuration) -> str:
    """Hex encoding of the member bitmap, little-endian by delta id, as the
    report writes it."""
    nbytes = (config.universe_size + 7) // 8
    return config.bits.to_bytes(nbytes, "little").hex()


def from_bitmap_hex(universe_size: int, text: str) -> Configuration:
    bits = int.from_bytes(bytes.fromhex(text), "little") if text else 0
    return Configuration.from_bits(universe_size, bits)


def passes_of(result: MinimizationResult, label: str = "ddmin") -> list[Pass]:
    """A library ``ddmin`` result as the one pass of a run whose input ids
    are its delta ids."""
    return [Pass(label, result, [(i,) for i in range(result.log.universe_size)])]


@dataclass
class Report:
    """The fields of a run report, with its test records as ``TestRecord``s."""

    universe_size: int
    final: list[int]
    counters: dict[str, dict[str, int]]
    records: list[TestRecord]
    ratio: float
    verified_1_minimal: Optional[bool]

    @classmethod
    def of(cls, result: MinimizationResult) -> "Report":
        """What ``write_report(passes_of(result), path)`` writes."""
        return cls(
            universe_size=result.log.universe_size,
            final=list(result.final.members),
            counters=result.log.counts_by_source(),
            records=result.log.records,
            ratio=result.reduction_ratio,
            verified_1_minimal=result.verified_1_minimal,
        )


def _records(universe_size: int, tests: list[dict]) -> list[TestRecord]:
    return [
        TestRecord(
            config=from_bitmap_hex(universe_size, t["config"]),
            granularity=t["granularity"],
            outcome=Outcome(t["outcome"]),
            source=t["source"],
            duration_ms=t["duration_ms"],
        )
        for t in tests
    ]


def read_report(path: Union[str, Path], audit: bool = True) -> Report:
    """The top-level pass of a report.  With ``audit``, each pass's log is
    audited first (see ``audit_log``), as a run whose options are unknown;
    a report whose ``verified_1_minimal`` was edited after the run needs
    ``audit=False``."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    universe_size = data["universe_size"]
    records = _records(universe_size, data["tests"])
    if audit:
        for entry in [*data.get("passes", []), data]:
            logged = records if entry is data else _records(entry["universe_size"], entry["tests"])
            universe = logged[1].config.bits if len(logged) > 1 else 0
            final = sum(1 << m for m in entry["final"])
            _raise_on(audit_log(universe, logged, final, entry["verified_1_minimal"]))
    return Report(
        universe_size=universe_size,
        final=data["final"],
        counters=data["counters"],
        records=records,
        ratio=data["ratio"],
        verified_1_minimal=data["verified_1_minimal"],
    )
