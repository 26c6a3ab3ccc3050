"""Synthetic test oracles for benchmarks and property suites.

All families are deterministic given their parameters, honor the axioms
(empty passes, full universe fails), and are cheap enough to drive large
simulated runs.
"""

from __future__ import annotations

import random
from typing import Optional

from .core import Configuration, OracleLike, Outcome, as_oracle


class SetFamilyOracle:
    """FAIL iff the configuration is a superset of any generator set.

    Monotone by construction: supersets of failing configurations fail.
    """

    def __init__(self, universe_size: int, generators: list[frozenset[int]]):
        if not generators:
            raise ValueError("need at least one generator set")
        self.universe_size = universe_size
        self.generators = [
            sum(1 << m for m in gen) for gen in generators
        ]
        if any(g == 0 for g in self.generators):
            raise ValueError("generator sets must be nonempty")

    def evaluate(self, config: Configuration) -> Outcome:
        bits = config.bits
        for gen in self.generators:
            if bits & gen == gen:
                return Outcome.FAIL
        return Outcome.PASS


def single_cause(universe_size: int, cause: Optional[int] = None) -> SetFamilyOracle:
    """FAIL iff one fixed delta is included (defaults to the middle one)."""
    if cause is None:
        cause = universe_size // 2
    return SetFamilyOracle(universe_size, [frozenset([cause])])


def conjunction(universe_size: int, members: list[int]) -> SetFamilyOracle:
    """FAIL iff all of ``members`` are included."""
    return SetFamilyOracle(universe_size, [frozenset(members)])


def conjunction_spread(universe_size: int, k: int) -> SetFamilyOracle:
    """Conjunction of ``k`` causes spread evenly across the universe."""
    if not 1 <= k <= universe_size:
        raise ValueError(f"k must be in 1..{universe_size}")
    members = sorted({(i + 1) * universe_size // (k + 1) for i in range(k)})
    return conjunction(universe_size, members)


def random_monotone(universe_size: int, seed: int) -> SetFamilyOracle:
    """A random monotone failure family, comparable across universe sizes.

    Generator members are drawn as fractional positions so the same seed
    yields the "same" oracle shape at every size; that keeps test-count
    growth measurable across doublings.
    """
    rng = random.Random(seed)
    count = rng.randint(1, 3)
    generators = []
    for _ in range(count):
        size = rng.randint(1, 3)
        fractions = [rng.random() for _ in range(size)]
        members = frozenset(
            min(universe_size - 1, int(f * universe_size)) for f in fractions
        )
        generators.append(members)
    return SetFamilyOracle(universe_size, generators)


def adversarial(universe_size: int) -> SetFamilyOracle:
    """A test-hungry family: FAIL iff every odd-id delta is included.

    The cause set is maximally spread out, so no contiguous chunk ever
    fails, granularity climbs all the way to singletons, and reduction
    then proceeds one complement at a time.
    """
    odds = frozenset(range(1, universe_size, 2))
    if not odds:
        odds = frozenset([0])
    return SetFamilyOracle(universe_size, [odds])


class CountingOracle:
    """Wrapper counting raw invocations of the underlying oracle, which
    may be a plain ``config -> Outcome`` callable."""

    def __init__(self, oracle: OracleLike):
        self._oracle = as_oracle(oracle)
        self.calls = 0

    def evaluate(self, config: Configuration) -> Outcome:
        self.calls += 1
        return self._oracle.evaluate(config)
