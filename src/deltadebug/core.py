"""Minimizing delta debugging engine over abstract change sets.

A *delta* is an atomic change identified by a dense 0-based id; a
*configuration* is a subset of the delta universe.  A test oracle maps a
configuration to one of three outcomes (FAIL means "the failure of interest
reproduced").  ``ddmin`` shrinks a failing configuration to a 1-minimal one:
removing any single remaining delta makes the failure disappear.

The engine is deterministic: subsets and complements are scanned in
ascending order and the first failing candidate wins, so two runs against
the same oracle behavior produce identical run logs.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Protocol, Union

DEFAULT_VERIFY_BUDGET = 2 ** 16

# Provenance tags for test records.
SOURCE_ORACLE = "oracle"
SOURCE_EXACT_CACHE = "exact-cache"
SOURCE_MONOTONY = "monotony"
SOURCE_FEASIBILITY = "feasibility-reject"
SOURCE_AXIOM = "axiom"

# Sources that count as an actual invocation of the underlying test.
UNDERLYING_SOURCES = (SOURCE_ORACLE,)
CACHED_SOURCES = (SOURCE_EXACT_CACHE, SOURCE_MONOTONY)


class Outcome(enum.Enum):
    """Three-valued test result."""

    FAIL = "fail"          # the failure of interest reproduced
    PASS = "pass"          # it did not
    UNRESOLVED = "unresolved"  # the test could not decide

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"Outcome.{self.name}"


class DeltaDebugError(Exception):
    """Base class for engine errors."""


class AxiomViolation(DeltaDebugError):
    """The oracle does not satisfy test(empty)=PASS / test(universe)=FAIL.

    Carries the run log accumulated so far (axiom-check records only) so
    callers can still report what happened.
    """

    def __init__(self, message: str, log: Optional["RunLog"] = None):
        super().__init__(message)
        self.log = log


class NondeterminismDetected(DeltaDebugError):
    """The cache saw two different outcomes for one configuration."""


class VerifyBudgetExceeded(DeltaDebugError):
    """Exhaustive minimality verification would exceed the subset budget."""


def bit_string(bits: int, width: int) -> str:
    """The low ``width`` bits of ``bits`` as ``0``/``1`` digits, lowest first.

    One ``bin()`` call, so reading a bitmap costs O(width), not a shift
    per bit.
    """
    return bin(bits)[:1:-1].ljust(width, "0")[:width]


# Maps the ASCII digits of ``bit_string`` to false/true selector bytes.
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def range_mask(lo: int, hi: int) -> int:
    """The bitmap of delta ids ``lo`` to ``hi - 1``."""
    return (1 << hi) - (1 << lo)


class Configuration:
    """An ordered subset of a delta universe, canonically a bitmap.

    Member ids are strictly ascending and all less than ``universe_size``.
    Two configurations are equal iff their universe sizes and member lists
    are equal.
    """

    __slots__ = ("universe_size", "bits")

    def __init__(self, universe_size: int, members: Iterable[int] = ()):
        if universe_size < 0:
            raise ValueError("universe_size must be >= 0")
        bits = 0
        for m in members:
            if not 0 <= m < universe_size:
                raise ValueError(f"delta id {m} outside universe 0..{universe_size - 1}")
            bits |= 1 << m
        object.__setattr__(self, "universe_size", universe_size)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("Configuration is immutable")

    @classmethod
    def from_bits(cls, universe_size: int, bits: int) -> "Configuration":
        if bits < 0 or bits >> universe_size:
            raise ValueError("bitmap has bits outside the universe")
        cfg = cls.__new__(cls)
        object.__setattr__(cfg, "universe_size", universe_size)
        object.__setattr__(cfg, "bits", bits)
        return cfg

    @classmethod
    def empty(cls, universe_size: int) -> "Configuration":
        return cls.from_bits(universe_size, 0)

    @classmethod
    def full(cls, universe_size: int) -> "Configuration":
        return cls.from_bits(universe_size, (1 << universe_size) - 1)

    @property
    def members(self) -> tuple[int, ...]:
        digits = bit_string(self.bits, self.bits.bit_length())
        flags = digits.encode().translate(_DIGIT_FLAGS)
        return tuple(itertools.compress(itertools.count(), flags))

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, delta_id: int) -> bool:
        return 0 <= delta_id < self.universe_size and bool(self.bits >> delta_id & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Configuration)
            and self.universe_size == other.universe_size
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.universe_size, self.bits))

    def __repr__(self) -> str:
        members = ",".join(str(m) for m in self.members)
        return f"<Configuration {{{members}}}/{self.universe_size}>"

    def issubset(self, other: "Configuration") -> bool:
        return self.bits & other.bits == self.bits

    def minus(self, other: "Configuration") -> "Configuration":
        return Configuration.from_bits(self.universe_size, self.bits & ~other.bits)

    def without(self, delta_ids: Iterable[int]) -> "Configuration":
        bits = self.bits
        for m in delta_ids:
            bits &= ~(1 << m)
        return Configuration.from_bits(self.universe_size, bits)

    def bitmap_hex(self) -> str:
        """Hex encoding of the member bitmap, little-endian by delta id."""
        nbytes = (self.universe_size + 7) // 8
        return self.bits.to_bytes(nbytes, "little").hex()

    @classmethod
    def from_bitmap_hex(cls, universe_size: int, text: str) -> "Configuration":
        bits = int.from_bytes(bytes.fromhex(text), "little") if text else 0
        return cls.from_bits(universe_size, bits)


def partition(config: Configuration, n: int) -> list[Configuration]:
    """Split ``config`` into ``n`` contiguous chunks of near-equal size.

    Chunk sizes differ by at most one; the first ``len(config) % n`` chunks
    carry the extra element.  Concatenating the chunks in order reproduces
    the member order of ``config``.
    """
    if not 2 <= n <= len(config):
        raise ValueError(f"granularity {n} out of range 2..{len(config)}")
    members = config.members
    q, r = divmod(len(members), n)
    chunks = []
    start = 0
    for i in range(n):
        end = start + q + (1 if i < r else 0)
        mask = range_mask(members[start], members[end - 1] + 1)
        chunks.append(Configuration.from_bits(config.universe_size, config.bits & mask))
        start = end
    return chunks


class TestOracle(Protocol):
    __test__ = False  # not a pytest class, despite the name

    def evaluate(self, config: Configuration) -> Outcome: ...


OracleLike = Union[TestOracle, Callable[[Configuration], Outcome]]


class FunctionOracle:
    """Adapts a plain ``config -> Outcome`` callable to the oracle interface."""

    def __init__(self, fn: Callable[[Configuration], Outcome]):
        self._fn = fn

    def evaluate(self, config: Configuration) -> Outcome:
        return self._fn(config)


def as_oracle(oracle: OracleLike) -> TestOracle:
    if hasattr(oracle, "evaluate"):
        return oracle  # type: ignore[return-value]
    if callable(oracle):
        return FunctionOracle(oracle)
    raise TypeError(f"not a test oracle: {oracle!r}")


def _evaluate_ex(oracle: TestOracle, config: Configuration) -> tuple[Outcome, str]:
    """Evaluate and report the answer's provenance.

    Oracles may implement ``evaluate_ex`` to tag answers themselves (the
    cache wrapper and the feasibility filter do); plain oracles count as a
    real invocation.
    """
    ex = getattr(oracle, "evaluate_ex", None)
    if ex is not None:
        return ex(config)
    return oracle.evaluate(config), SOURCE_ORACLE


class CachedOracle:
    """Exact-duplicate caching plus the optional monotony shortcut.

    Exact duplicates are answered from the cache without re-invoking the
    underlying oracle.  With ``monotone=True``, a configuration that is a
    subset of any previously passed configuration is answered PASS without
    invocation: under monotony, subsets of passing sets always pass.  Only
    the maximal passed bitmaps are kept for that lookup (an antichain): a
    subset of a kept one adds no answer, and a new one replaces every kept
    one it contains.
    """

    def __init__(
        self,
        oracle: OracleLike,
        monotone: bool = False,
        preload: Optional[dict[int, Outcome]] = None,
        sink: Optional[Callable[[Configuration, Outcome], None]] = None,
    ):
        self._oracle = as_oracle(oracle)
        self.monotone = monotone
        self._exact: dict[int, Outcome] = dict(preload or {})
        self._passed: set[int] = set()  # maximal passed bitmaps, if monotone
        self._sink = sink

    def evaluate(self, config: Configuration) -> Outcome:
        return self.evaluate_ex(config)[0]

    def evaluate_ex(self, config: Configuration) -> tuple[Outcome, str]:
        bits = config.bits
        hit = self._exact.get(bits)
        if hit is not None:
            self._note_pass(bits, hit)
            return hit, SOURCE_EXACT_CACHE
        if self.monotone and self._covered(bits):
            self.store(config, Outcome.PASS)
            return Outcome.PASS, SOURCE_MONOTONY
        outcome, source = _evaluate_ex(self._oracle, config)
        self.store(config, outcome)
        return outcome, source

    def store(self, config: Configuration, outcome: Outcome) -> None:
        """Record an outcome, rejecting contradictions with earlier ones."""
        bits = config.bits
        known = self._exact.get(bits)
        if known is not None:
            if known != outcome:
                raise NondeterminismDetected(
                    f"configuration {config!r} produced {outcome.name} but was "
                    f"cached as {known.name}"
                )
            return
        self._exact[bits] = outcome
        self._note_pass(bits, outcome)
        if self._sink is not None:
            self._sink(config, outcome)

    def _covered(self, bits: int) -> bool:
        return any(bits & p == bits for p in self._passed)

    def _note_pass(self, bits: int, outcome: Outcome) -> None:
        if not self.monotone or outcome != Outcome.PASS or self._covered(bits):
            return
        self._passed.difference_update([p for p in self._passed if p & bits == p])
        self._passed.add(bits)


@dataclass
class EngineState:
    """Where the reduction currently stands; handed to progress callbacks."""

    current: Configuration
    granularity: int
    phase: str  # subset-scan | complement-scan | regranulate | done


@dataclass
class TestRecord:
    __test__ = False  # not a pytest class, despite the name

    config: Configuration
    granularity: int
    outcome: Outcome
    cached: bool
    source: str
    duration_ms: float


class RunLog:
    """Ordered record of every test the engine issued, with provenance."""

    def __init__(self, universe_size: int):
        self.universe_size = universe_size
        self.records: list[TestRecord] = []

    def append(self, record: TestRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TestRecord]:
        return iter(self.records)

    def counts_by_source(self) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {}
        for rec in self.records:
            per = out.setdefault(rec.source, {o.value: 0 for o in Outcome})
            per[rec.outcome.value] += 1
        return out

    def counts_by_outcome(self) -> dict[str, int]:
        out = {o.value: 0 for o in Outcome}
        for rec in self.records:
            out[rec.outcome.value] += 1
        return out

    @property
    def oracle_test_count(self) -> int:
        """Underlying invocations, excluding axiom checks and cache answers."""
        return sum(1 for r in self.records if r.source == SOURCE_ORACLE)

    @property
    def cached_test_count(self) -> int:
        return sum(1 for r in self.records if r.source in CACHED_SOURCES)

    @property
    def axiom_test_count(self) -> int:
        return sum(1 for r in self.records if r.source == SOURCE_AXIOM)

    def last_fail_config(self) -> Optional[Configuration]:
        for rec in reversed(self.records):
            if rec.outcome == Outcome.FAIL:
                return rec.config
        return None

    def fingerprint(self) -> tuple:
        """Timing-free identity of the log, for determinism checks."""
        return tuple(
            (r.config.bits, r.granularity, r.outcome.value, r.cached, r.source)
            for r in self.records
        )


@dataclass
class MinimizationResult:
    final: Configuration
    log: RunLog
    verified_1_minimal: Optional[bool] = None

    @property
    def reduction_ratio(self) -> float:
        if self.log.universe_size == 0:
            return 0.0
        return len(self.final) / self.log.universe_size


@dataclass
class EngineOptions:
    verify_axioms: bool = True
    monotone: bool = False
    preloaded_cache: Optional[dict[int, Outcome]] = None
    cache_sink: Optional[Callable[[Configuration, Outcome], None]] = None
    on_record: Optional[Callable[[TestRecord, Optional[EngineState]], None]] = None


def next_pass_options(
    options: Optional[EngineOptions], universe: Configuration
) -> EngineOptions:
    """Options for a pass that starts from the previous pass's result.

    Both axiom answers of such a pass are known: the empty configuration
    passed and ``universe``, the previous result, failed.  They replace any
    preloaded cache, whose bitmaps belong to the previous universe.
    """
    return dataclasses.replace(
        options or EngineOptions(),
        preloaded_cache={0: Outcome.PASS, universe.bits: Outcome.FAIL},
    )


def ddmin(
    universe: Configuration,
    oracle: OracleLike,
    options: Optional[EngineOptions] = None,
) -> MinimizationResult:
    """Reduce a failing configuration to a 1-minimal one.

    Starting from the full ``universe`` at granularity 2, each round
    partitions the current configuration into n contiguous chunks and

    * reduces to the first failing chunk (granularity resets to 2), else
    * reduces to the first failing complement (granularity drops by one,
      floored at 2), else
    * doubles the granularity up to the configuration size, else
    * stops: every chunk and complement passed at singleton granularity,
      so removing any one delta no longer fails.

    Only FAIL triggers reduction; UNRESOLVED steers like PASS but is
    tallied separately.  With ``verify_axioms`` the empty and the full
    configuration are tested first and must come out PASS and FAIL
    respectively; these checks are logged under their own source tag and
    excluded from the worst-case test accounting.  The result's
    ``verified_1_minimal`` is read off the log, without further tests.
    """
    opts = options or EngineOptions()
    cached = CachedOracle(
        oracle,
        monotone=opts.monotone,
        preload=opts.preloaded_cache,
        sink=opts.cache_sink,
    )
    log = RunLog(universe.universe_size)
    state: Optional[EngineState] = None

    def run_test(config: Configuration, granularity: int, axiom: bool = False) -> Outcome:
        start = time.perf_counter()
        outcome, source = cached.evaluate_ex(config)
        duration = (time.perf_counter() - start) * 1000.0
        if axiom and source == SOURCE_ORACLE:
            source = SOURCE_AXIOM
        record = TestRecord(
            config=config,
            granularity=granularity,
            outcome=outcome,
            cached=source in CACHED_SOURCES,
            source=source,
            duration_ms=duration,
        )
        log.append(record)
        if opts.on_record is not None:
            opts.on_record(record, state)
        return outcome

    if opts.verify_axioms:
        empty = Configuration.empty(universe.universe_size)
        got = run_test(empty, 0, axiom=True)
        if got != Outcome.PASS:
            raise AxiomViolation(
                f"the empty configuration must PASS but tested {got.name}", log
            )
        got = run_test(universe, 0, axiom=True)
        if got != Outcome.FAIL:
            raise AxiomViolation(
                f"the full configuration must FAIL but tested {got.name}", log
            )
    elif len(universe) == 0:
        raise ValueError("universe must contain at least one delta")

    current = universe
    n = 2
    while len(current) >= 2:
        # Recursion invariant: current is known to FAIL and n <= |current|.
        state = EngineState(current=current, granularity=n, phase="subset-scan")
        chunks = partition(current, n)
        reduced = None
        for chunk in chunks:
            if run_test(chunk, n) == Outcome.FAIL:
                reduced = (chunk, 2)
                break
        if reduced is None:
            state.phase = "complement-scan"
            for chunk in chunks:
                complement = current.minus(chunk)
                if run_test(complement, n) == Outcome.FAIL:
                    reduced = (complement, max(n - 1, 2))
                    break
        if reduced is not None:
            current, n = reduced
            continue
        if n < len(current):
            state.phase = "regranulate"
            n = min(len(current), 2 * n)
            continue
        break

    return MinimizationResult(
        final=current, log=log, verified_1_minimal=_verified_1_minimal(log, current)
    )


def _verified_1_minimal(log: RunLog, final: Configuration) -> Optional[bool]:
    """Read the 1-minimality of ``final`` off the run log; tests nothing.

    The witnesses are the first record of ``final`` and of each ``final``
    minus one member (for a one-member result, the empty set of the axiom
    check).  A finished ddmin run has answered every such complement in its
    last round.  True when ``final`` FAILed and no other witness did; None
    when a witness is missing or was a monotony answer, which is an
    assumption, not a test; False only when the log contradicts itself.
    """
    witnesses = {final.bits}
    rest = final.bits
    while rest:
        low = rest & -rest
        witnesses.add(final.bits ^ low)
        rest ^= low
    first: dict[int, TestRecord] = {}
    for rec in log.records:
        if rec.config.bits in witnesses:
            first.setdefault(rec.config.bits, rec)
    if len(first) < len(witnesses) or any(
        rec.source == SOURCE_MONOTONY for rec in first.values()
    ):
        return None
    own = first.pop(final.bits)
    return own.outcome == Outcome.FAIL and all(
        rec.outcome != Outcome.FAIL for rec in first.values()
    )


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
