"""Minimizing delta debugging engine over abstract change sets.

A *delta* is an atomic change identified by a dense 0-based id; a
*configuration* is a subset of the delta universe.  A test oracle maps a
configuration to one of three outcomes (FAIL means "the failure of interest
reproduced").  ``ddmin`` shrinks a failing configuration to a 1-minimal one:
removing any single remaining delta makes the failure disappear.

The engine is deterministic: each round tests one ordered list, the chunks
then their complements, and the first failing candidate wins, so two runs
against the same oracle behavior produce identical run logs.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import itertools
import operator
from time import perf_counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Optional, Protocol, Sequence, Union

# Provenance tags for test records.
SOURCE_ORACLE = "oracle"
SOURCE_EXACT_CACHE = "exact-cache"
SOURCE_MONOTONY = "monotony"
SOURCE_FEASIBILITY = "feasibility-reject"
SOURCE_AXIOM = "axiom"

CACHED_SOURCES = (SOURCE_EXACT_CACHE, SOURCE_MONOTONY)

# The kinds of a ddmin round's candidates.
_CHUNK, _COMPLEMENT = "chunk", "complement"


class Outcome(enum.Enum):
    """Three-valued test result."""

    FAIL = "fail"          # the failure of interest reproduced
    PASS = "pass"          # it did not
    UNRESOLVED = "unresolved"  # the test could not decide

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"Outcome.{self.name}"


_OUTCOME_VALUES = tuple(o.value for o in Outcome)
# A record's source and outcome value; ``_value_`` is the plain attribute
# behind the ``value`` descriptor, so the getter stays in C.
_SOURCE_AND_OUTCOME = operator.attrgetter("source", "outcome._value_")


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


def bit_string(bits: int, width: int) -> str:
    """The low ``width`` bits of ``bits`` as ``0``/``1`` digits, lowest first.

    One ``bin()`` call, so reading a bitmap costs O(width), not a shift
    per bit.
    """
    return bin(bits)[:1:-1].ljust(width, "0")[:width]


# Maps the ASCII digits of ``bit_string`` to false/true selector bytes.
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


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

    def without(self, delta_ids: Iterable[int]) -> "Configuration":
        bits = self.bits
        for m in delta_ids:
            bits &= ~(1 << m)
        return Configuration.from_bits(self.universe_size, bits)


# Build a Configuration like ``from_bits`` but without its bounds check, for
# bitmaps the engine derives from one it holds.  The slot setters bypass the
# immutability guard in ``__setattr__``.
_new_configuration = Configuration.__new__
_set_universe_size = Configuration.universe_size.__set__
_set_bits = Configuration.bits.__set__


def partition(bits: int, members: Sequence[int], n: int) -> list[tuple[int, int, int]]:
    """Split the configuration ``bits`` into ``n`` contiguous chunks of
    near-equal size, as ``(lo, hi, chunk)`` triples.

    ``members`` are the ascending member ids of ``bits``; chunk ``i`` holds
    ``members[lo:hi]`` and ``chunk`` is its bitmap.  Chunk sizes differ by
    at most one; the first ``len(members) % n`` chunks carry the extra
    element.  Concatenating the chunks in order reproduces ``members``.
    """
    if not 2 <= n <= len(members):
        raise ValueError(f"granularity {n} out of range 2..{len(members)}")
    q, r = divmod(len(members), n)
    chunks = []
    lo = 0
    for i in range(n):
        hi = lo + q + (i < r)
        # The ids members[lo] .. members[hi - 1], masked to those in ``bits``.
        mask = (1 << members[hi - 1] + 1) - (1 << members[lo])
        chunks.append((lo, hi, bits & mask))
        lo = hi
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


class PassOracle:
    """Tests a pass over a run's input ids: delta ``i`` stands for the input
    ids ``ids[i]``, and each test asks ``oracle`` about the configuration of
    those input ids over ``universe_size``.

    A configuration holding an input id without one it ``requires`` (input
    id -> required input ids) is answered UNRESOLVED as a feasibility
    reject, without consulting ``oracle``.
    """

    def __init__(
        self, oracle: OracleLike, universe_size: int, ids: Sequence[Sequence[int]],
        requires: Optional[Mapping[int, Iterable[int]]] = None,
    ):
        self._oracle = as_oracle(oracle)
        self._universe_size = universe_size
        self._width = width = len(ids)
        owner = [width] * universe_size  # each input id's delta; width: none
        for delta, members in enumerate(ids):
            for m in members:
                if not 0 <= m < universe_size:
                    raise ValueError(f"input id {m} outside universe 0..{universe_size - 1}")
                if owner[m] != width:
                    raise ValueError(f"input id {m} is in deltas {owner[m]} and {delta}")
                owner[m] = delta
        # Reads a test's digits (see ``bit_string``, one digit longer so that
        # index ``width`` reads 0) as the input ids' digits, highest id first.
        # Two leading zeros keep the result a tuple for a universe of one id.
        self._gather = operator.itemgetter(width, width, *reversed(owner))
        # (bit, bitmap of the input ids it requires) per id with requirements.
        self._requires = [
            (1 << child, sum(1 << parent for parent in parents))
            for child, parents in (requires or {}).items()
        ]

    def evaluate(self, config: Configuration) -> Outcome:
        return self.evaluate_ex(config)[0]

    def evaluate_ex(self, config: Configuration) -> tuple[Outcome, str]:
        digits = self._gather(bit_string(config.bits, self._width + 1))
        bits = int("".join(digits), 2)
        for child, required in self._requires:
            if bits & child and required & ~bits:
                return Outcome.UNRESOLVED, SOURCE_FEASIBILITY
        config = Configuration.from_bits(self._universe_size, bits)
        return self._oracle.evaluate(config), SOURCE_ORACLE


def _scan(passed: set[int], bits: int) -> Optional[list[int]]:
    """None if a kept pass covers ``bits``, else the kept passes that
    ``bits`` contains."""
    subsumed = []
    for p in passed:
        common = bits & p
        if common == bits:
            return None
        if common == p:
            subsumed.append(p)
    return subsumed


@dataclass(slots=True)
class TestRecord:
    __test__ = False  # not a pytest class, despite the name

    config: Configuration
    granularity: int
    outcome: Outcome
    source: str
    duration_ms: float

    @property
    def cached(self) -> bool:
        """Whether a cache answered the test, read off ``source``."""
        return self.source in CACHED_SOURCES


class RunLog:
    """Ordered record of every test the engine issued, with provenance."""

    def __init__(self, universe_size: int):
        self.universe_size = universe_size
        self.records: list[TestRecord] = []

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TestRecord]:
        return iter(self.records)

    def counts_by_source(self) -> dict[str, dict[str, int]]:
        """Outcome tallies per source, sources in order of first appearance."""
        out: dict[str, dict[str, int]] = {}
        pairs = collections.Counter(map(_SOURCE_AND_OUTCOME, self.records))
        for (source, outcome), count in pairs.items():
            out.setdefault(source, dict.fromkeys(_OUTCOME_VALUES, 0))[outcome] = count
        return out

    def test_counts(self) -> tuple[int, int, int]:
        """Oracle, cached and axiom record counts, from one pass over the log.

        Oracle counts underlying invocations, excluding axiom checks and
        cache answers.
        """
        per_source = {s: sum(c.values()) for s, c in self.counts_by_source().items()}
        return (
            per_source.get(SOURCE_ORACLE, 0),
            sum(per_source.get(s, 0) for s in CACHED_SOURCES),
            per_source.get(SOURCE_AXIOM, 0),
        )

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
    monotone: bool = False
    preloaded_cache: Optional[dict[int, Outcome]] = None
    on_record: Optional[Callable[[TestRecord], None]] = None


def ddmin(
    universe: Configuration,
    oracle: OracleLike,
    options: Optional[EngineOptions] = None,
) -> MinimizationResult:
    """Reduce a failing configuration to a 1-minimal one.

    Starting from the full ``universe`` at granularity 2, each round tests
    one ordered list: the n contiguous chunks of the current configuration,
    then their complements.  The first FAIL wins and becomes the current
    configuration; a chunk resets the granularity to 2, a complement drops
    it by one, floored at 2.  If none fails, the granularity doubles up to
    the configuration size, or the run stops: every chunk and complement
    passed at singleton granularity, so removing any one delta no longer
    fails.  At n = 2 the complements equal the chunks and are answered
    from the exact cache.

    Only FAIL triggers reduction; UNRESOLVED steers like PASS but is
    tallied separately.  The empty and the full configuration are tested
    first (or answered from ``preloaded_cache``) and must come out PASS and
    FAIL respectively; these checks are logged under their own source tag
    and excluded from the worst-case test accounting.  The result's
    ``verified_1_minimal`` is read off the log, without further tests.

    No configuration is tested twice: a repeat, like a configuration in
    ``preloaded_cache``, is answered untimed as an ``exact-cache`` record,
    with its first answer.  With ``monotone`` a subset of a passed
    configuration is answered PASS as a ``monotony`` record.  Only the
    maximal passed bitmaps are kept for that scan (an antichain): a new
    PASS replaces every kept one it contains, and a preloaded PASS joins
    when it is first asked, not before.
    """
    opts = options or EngineOptions()
    oracle = as_oracle(oracle)
    # ``ask`` answers with its provenance: an oracle with ``evaluate_ex``
    # tags its own answers (a ``PassOracle`` rejects infeasible subsets); a
    # plain answer is an oracle call.
    ask = getattr(oracle, "evaluate_ex", None)
    if ask is None:
        evaluate = oracle.evaluate

        def ask(config: Configuration) -> tuple[Outcome, str]:
            return evaluate(config), SOURCE_ORACLE
    monotone = opts.monotone
    preloaded = opts.preloaded_cache or {}
    passed: set[int] = set()  # the maximal passed bitmaps, if monotone
    size = universe.universe_size
    log = RunLog(size)
    append = log.records.append
    on_record = opts.on_record
    first: dict[int, TestRecord] = {}  # the first record of each bitmap asked

    def run_test(bits: int, granularity: int, axiom: bool = False) -> Outcome:
        earlier = first.get(bits)
        if earlier is not None:
            # An exact hit: one dict lookup, not worth a timer.  The record
            # shares the earlier record's Configuration.
            record = TestRecord(
                earlier.config, granularity, earlier.outcome, SOURCE_EXACT_CACHE, 0.0
            )
        else:
            # Every bitmap here is a subset of ``universe``: no bounds check.
            config = _new_configuration(Configuration)
            _set_universe_size(config, size)
            _set_bits(config, bits)
            # The preload answers untimed, else monotony, else ``ask``.
            outcome = preloaded.get(bits)
            start = None if outcome is not None else perf_counter()
            subsumed = _scan(passed, bits) if monotone else None
            if outcome is not None:
                source = SOURCE_EXACT_CACHE
            elif monotone and subsumed is None:
                outcome, source = Outcome.PASS, SOURCE_MONOTONY
            else:
                outcome, source = ask(config)
                if axiom and source == SOURCE_ORACLE:
                    source = SOURCE_AXIOM
            if subsumed is not None and outcome is Outcome.PASS:
                passed.difference_update(subsumed)
                passed.add(bits)
            duration = 0.0 if start is None else (perf_counter() - start) * 1000.0
            record = TestRecord(config, granularity, outcome, source, duration)
            first[bits] = record
        append(record)
        if on_record is not None:
            on_record(record)
        return record.outcome

    got = run_test(0, 0, axiom=True)
    if got != Outcome.PASS:
        raise AxiomViolation(
            f"the empty configuration must PASS but tested {got.name}", log
        )
    got = run_test(universe.bits, 0, axiom=True)
    if got != Outcome.FAIL:
        raise AxiomViolation(
            f"the full configuration must FAIL but tested {got.name}", log
        )

    # The current configuration as a bitmap and as its ascending member ids;
    # a reduction slices the member list instead of re-reading the bitmap.
    current, members = universe.bits, universe.members
    n = 2
    while len(members) >= 2:
        # Recursion invariant: current is known to FAIL and n <= |current|.
        chunks = partition(current, members, n)
        candidates = [(chunk, _CHUNK, lo, hi) for lo, hi, chunk in chunks] + [
            (current ^ chunk, _COMPLEMENT, lo, hi) for lo, hi, chunk in chunks
        ]
        for bits, kind, lo, hi in candidates:
            if run_test(bits, n) is Outcome.FAIL:
                if kind is _CHUNK:
                    current, members, n = bits, members[lo:hi], 2
                else:
                    current, members, n = bits, members[:lo] + members[hi:], max(n - 1, 2)
                break
        else:
            if n >= len(members):
                break
            n = min(len(members), 2 * n)

    final = Configuration.from_bits(size, current)
    return MinimizationResult(
        final=final, log=log, verified_1_minimal=_verified_1_minimal(first, current)
    )


@dataclass
class Pass:
    """One ddmin pass of a run, whose delta ``i`` stands for the run's input
    ids ``ids[i]``: byte offsets of the original input, diff change ids, or
    trace event numbers."""

    label: str
    result: MinimizationResult
    ids: Sequence[Sequence[int]]

    @property
    def kept(self) -> tuple[int, ...]:
        """The ascending input ids of the pass's result."""
        members = map(self.ids.__getitem__, self.result.final.members)
        return tuple(sorted(itertools.chain.from_iterable(members)))


def run_passes(
    input_ids: Sequence[int],
    steps: Iterable[Callable[[Sequence[int]], tuple[str, Sequence[Sequence[int]], OracleLike]]],
    options: Optional[EngineOptions] = None,
) -> list[Pass]:
    """Run one ddmin pass per step.  A step maps the input ids kept so far
    (``input_ids`` at first) to its pass's label, ids and oracle, and the
    pass starts from the full configuration of those ids.

    A later pass takes both axiom answers from the pass before it: the
    empty configuration passed and its full configuration, that pass's
    result, failed.  They replace any preloaded cache, whose bitmaps belong
    to the first pass's universe.  An axiom violation names its pass.
    """
    passes: list[Pass] = []
    kept = input_ids
    for step in steps:
        label, ids, oracle = step(kept)
        universe = Configuration.full(len(ids))
        if passes:
            options = dataclasses.replace(
                options or EngineOptions(),
                preloaded_cache={0: Outcome.PASS, universe.bits: Outcome.FAIL},
            )
        try:
            # Through the module global, so a wrapped ``ddmin`` sees every pass.
            result = ddmin(universe, oracle, options)
        except AxiomViolation as exc:
            raise AxiomViolation(f"{label} pass: {exc}", exc.log) from exc
        passes.append(Pass(label, result, ids))
        kept = passes[-1].kept
    return passes


def _verified_1_minimal(first: dict[int, TestRecord], final: int) -> Optional[bool]:
    """Read the 1-minimality of the bitmap ``final`` off the run log, given
    as the first record of each bitmap asked; tests nothing.

    The witnesses are the first record of ``final`` and of each ``final``
    minus one member (for a one-member result, the empty set of the axiom
    check).  A finished ddmin run has answered every such complement in its
    last round.  True when ``final`` FAILed and no other witness did; None
    when a witness is missing or was a monotony answer, which is an
    assumption, not a test; False only when the log contradicts itself.
    """
    witnesses = [first.get(final)]
    rest = final
    while rest:
        low = rest & -rest
        witnesses.append(first.get(final ^ low))
        rest ^= low
    if any(rec is None or rec.source == SOURCE_MONOTONY for rec in witnesses):
        return None
    own, *others = witnesses
    return own.outcome == Outcome.FAIL and all(
        rec.outcome != Outcome.FAIL for rec in others
    )

