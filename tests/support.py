"""Test-only helpers: a table oracle, the exhaustive n-minimality check the
engine's results are compared against, and a reader for run reports."""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from deltadebug.core import (
    Configuration,
    DeltaDebugError,
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


def read_report(path: Union[str, Path]) -> Report:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    universe_size = data["universe_size"]
    return Report(
        universe_size=universe_size,
        final=data["final"],
        counters=data["counters"],
        records=[
            TestRecord(
                config=from_bitmap_hex(universe_size, t["config"]),
                granularity=t["granularity"],
                outcome=Outcome(t["outcome"]),
                source=t["source"],
                duration_ms=t["duration_ms"],
            )
            for t in data["tests"]
        ],
        ratio=data["ratio"],
        verified_1_minimal=data["verified_1_minimal"],
    )
