"""Benchmark mode: run ddmin against synthetic oracles and check each run
against the worst-case bound of n^2 + 3n oracle tests.  The logarithmic
best-case figure, ``bound_log``, is reported beside the counts, not
checked."""

from __future__ import annotations

import math
from typing import Callable

from .core import Configuration, EngineOptions, ddmin
from . import oracles

ORACLE_NAMES = ("single", "conjunction:K", "random-monotone:SEED", "adversarial")


def oracle_family(name: str) -> Callable[[int], oracles.SetFamilyOracle]:
    """Resolve an oracle's CLI name to its family: a function from the
    universe size to the oracle.

    Names: ``single``, ``conjunction:K`` (K spread causes),
    ``random-monotone:SEED``, ``adversarial``.  A name's integer parameter
    is parsed here, once, and a K below 1, which no size takes, raises
    here too; a size the family cannot take raises when the family is
    called.
    """
    label, colon, param = name.partition(":")
    plain = {"single": oracles.single_cause, "adversarial": oracles.adversarial}
    with_param = {"conjunction": oracles.conjunction_spread,
                  "random-monotone": oracles.random_monotone}
    if colon and label in with_param:
        try:
            value = int(param)
        except ValueError as exc:
            raise ValueError(f"{label} needs an integer parameter, got {param!r}") from exc
        if label == "conjunction" and value < 1:
            raise ValueError(f"conjunction needs K >= 1, got {value}")
        return lambda n: with_param[label](n, value)
    if name in plain:
        return plain[name]
    raise ValueError(f"unknown oracle {name!r}; expected one of {ORACLE_NAMES}")


def quadratic_bound(n: int) -> int:
    return n * n + 3 * n


def log_bound(n: int) -> int:
    return 2 * math.ceil(math.log2(n)) + 2 if n > 1 else 2


CSV_HEADER = "n,tests_oracle,tests_cached,bound_quadratic,bound_log"


def run_bench(
    oracle_name: str, sizes: list[int], monotone: bool = False
) -> tuple[list[str], list[str]]:
    """Run one minimization per size; returns one CSV line per size, without
    ``CSV_HEADER``, and one line per bound violation.  A bad oracle name
    raises before the first size; a size the oracle cannot take raises
    with the oracle and the size named."""
    family = oracle_family(oracle_name)
    lines, violations = [], []
    for n in sizes:
        try:
            oracle = family(n)
        except ValueError as exc:
            raise ValueError(f"{oracle_name} at n={n}: {exc}") from exc
        result = ddmin(Configuration.full(n), oracle, EngineOptions(monotone=monotone))
        tests_oracle, tests_cached, _ = result.log.test_counts()
        bound = quadratic_bound(n)
        lines.append(f"{n},{tests_oracle},{tests_cached},{bound},{log_bound(n)}")
        if tests_oracle > bound:
            violations.append(
                f"n={n}: {tests_oracle} oracle tests exceed the n^2+3n bound of {bound}"
            )
    return lines, violations


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
