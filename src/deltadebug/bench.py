"""Benchmark mode: run ddmin against synthetic oracles and check the
complexity claims (quadratic worst case, logarithmic best case, linear
growth under the monotony shortcut)."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Configuration, EngineOptions, ddmin
from . import oracles

ORACLE_NAMES = ("single", "conjunction:K", "random-monotone:SEED", "adversarial")


def make_oracle(name: str, universe_size: int):
    """Build a synthetic oracle from its CLI name.

    Names: ``single``, ``conjunction:K`` (K spread causes),
    ``random-monotone:SEED``, ``adversarial``.
    """
    if name == "single":
        return oracles.single_cause(universe_size)
    if name == "adversarial":
        return oracles.adversarial(universe_size)
    if name.startswith("conjunction:"):
        k = _int_param(name)
        return oracles.conjunction_spread(universe_size, k)
    if name.startswith("random-monotone:"):
        seed = _int_param(name)
        return oracles.random_monotone(universe_size, seed)
    raise ValueError(f"unknown oracle {name!r}; expected one of {ORACLE_NAMES}")


def _int_param(name: str) -> int:
    label, _, param = name.partition(":")
    try:
        return int(param)
    except ValueError as exc:
        raise ValueError(f"{label} needs an integer parameter, got {param!r}") from exc


def quadratic_bound(n: int) -> int:
    return n * n + 3 * n


def log_bound(n: int) -> int:
    return 2 * math.ceil(math.log2(n)) + 2 if n > 1 else 2


@dataclass
class BenchRow:
    n: int
    tests_oracle: int
    tests_cached: int
    bound_quadratic: int
    bound_log: int

    @property
    def within_quadratic_bound(self) -> bool:
        return self.tests_oracle <= self.bound_quadratic

    def csv(self) -> str:
        return (
            f"{self.n},{self.tests_oracle},{self.tests_cached},"
            f"{self.bound_quadratic},{self.bound_log}"
        )


CSV_HEADER = "n,tests_oracle,tests_cached,bound_quadratic,bound_log"


def run_one(oracle_name: str, n: int, monotone: bool = False) -> BenchRow:
    oracle = make_oracle(oracle_name, n)
    result = ddmin(
        Configuration.full(n), oracle, EngineOptions(monotone=monotone)
    )
    tests_oracle, tests_cached, _ = result.log.test_counts()
    return BenchRow(
        n=n,
        tests_oracle=tests_oracle,
        tests_cached=tests_cached,
        bound_quadratic=quadratic_bound(n),
        bound_log=log_bound(n),
    )


def run_bench(
    oracle_name: str, sizes: list[int], monotone: bool = False
) -> tuple[list[BenchRow], list[str]]:
    """Run one minimization per size; returns rows plus bound violations."""
    rows = []
    violations = []
    for n in sizes:
        row = run_one(oracle_name, n, monotone=monotone)
        rows.append(row)
        if not row.within_quadratic_bound:
            violations.append(
                f"n={n}: {row.tests_oracle} oracle tests exceed the "
                f"n^2+3n bound of {row.bound_quadratic}"
            )
    return rows, violations


def parse_sizes(text: str) -> list[int]:
    """Parse a size list: comma-separated entries, each an int or A..B range."""
    sizes: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        lo_text, dots, hi_text = part.partition("..")
        try:
            lo, hi = int(lo_text), int(hi_text if dots else lo_text)
        except ValueError:
            raise ValueError(f"bad size {'range ' if dots else ''}{part!r}") from None
        if dots and (lo < 1 or hi < lo):
            raise ValueError(f"bad size range {part!r}")
        if lo < 1:
            raise ValueError(f"sizes must be positive, got {lo}")
        sizes.extend(range(lo, hi + 1))
    if not sizes:
        raise ValueError("no sizes given")
    return sizes
