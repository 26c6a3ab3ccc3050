"""Benchmark mode: run ddmin against synthetic oracles and check each run
against the worst-case bound of n^2 + 3n oracle tests.  The logarithmic
best-case figure, ``bound_log``, is reported beside the counts, not
checked."""

from __future__ import annotations

import math

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


CSV_HEADER = "n,tests_oracle,tests_cached,bound_quadratic,bound_log"


def run_bench(
    oracle_name: str, sizes: list[int], monotone: bool = False
) -> tuple[list[str], list[str]]:
    """Run one minimization per size; returns one CSV line per size, without
    ``CSV_HEADER``, and one line per bound violation."""
    lines, violations = [], []
    for n in sizes:
        try:
            oracle = make_oracle(oracle_name, n)
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
