"""Minimizing delta debugging engine over abstract change sets.

A *delta* is an atomic change identified by a dense 0-based id; a
*configuration* is a subset of the delta universe.  A test oracle maps a
configuration to one of three outcomes (FAIL means "the failure of interest
reproduced").  ``ddmin`` shrinks a failing configuration to a 1-minimal one:
removing any single remaining delta makes the failure disappear.

The engine is deterministic: each round tests one ordered list, the chunks
then their complements, and the first failing candidate wins, so two runs
against the same oracle behavior produce identical run logs.  Only the
candidates asked are built.  A candidate that lies inside a configuration
that passed in an earlier round, or a preloaded PASS shaped like a
candidate, is not tested, asked before or not, except that a round at
singleton granularity tests such complements after its other candidates.

A run may instead start with a *scan*, for a configuration that is
expected to be nearly 1-minimal already: rounds at singleton granularity
that ask only complements, until two FAILs in a row show removable deltas
side by side, and the run goes on from granularity 2.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import itertools
import operator
from bisect import bisect_left, bisect_right
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
# The first answers a run carries into its later passes: tested and
# preloaded ones.  A monotony answer is an assumption, and a feasibility
# reject costs nothing to repeat.
CARRIED_SOURCES = (SOURCE_ORACLE, SOURCE_AXIOM, SOURCE_EXACT_CACHE)

# The kinds of a ddmin round's candidates.
_CHUNK, _COMPLEMENT, _LATE = "chunk", "complement", "late"
_START, _END = operator.itemgetter(0), operator.itemgetter(1)


class Outcome(enum.Enum):
    """Three-valued test result."""

    FAIL = "fail"          # the failure of interest reproduced
    PASS = "pass"          # it did not
    UNRESOLVED = "unresolved"  # the test could not decide

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"Outcome.{self.name}"


_OUTCOME_VALUES = tuple(o.value for o in Outcome)


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


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Configuration:
    """An ordered subset of a delta universe, canonically a bitmap.

    Member ids are strictly ascending and all less than ``universe_size``.
    Two configurations are equal iff their universe sizes and member lists
    are equal.
    """

    universe_size: int
    bits: int

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

    def __repr__(self) -> str:
        members = ",".join(str(m) for m in self.members)
        return f"<Configuration {{{members}}}/{self.universe_size}>"

    def without(self, delta_ids: Iterable[int]) -> "Configuration":
        bits = self.bits
        for m in delta_ids:
            bits &= ~(1 << m)
        return Configuration.from_bits(self.universe_size, bits)


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


class _IdMap:
    """A pass's deltas as sets of input ids: delta ``i`` stands for the
    input ids ``ids[i]``, each below ``universe_size`` and in at most one
    delta.

    Maps a pass bitmap to the bitmap of the input ids it stands for, and
    back.  Each way is one gather over the bitmap's digits (see
    ``bit_string``): linear in the universe, with no Python loop per id.
    """

    def __init__(self, universe_size: int, ids: Sequence[Sequence[int]]):
        self._size = universe_size
        self._width = width = len(ids)
        owner = [width] * universe_size  # each input id's delta; width: none
        for delta, members in enumerate(ids):
            for m in members:
                if not 0 <= m < universe_size:
                    raise ValueError(f"input id {m} outside universe 0..{universe_size - 1}")
                if owner[m] != width:
                    raise ValueError(f"input id {m} is in deltas {owner[m]} and {delta}")
                owner[m] = delta
        # Reads a pass bitmap's digits (one digit longer, so that index
        # ``width`` reads 0) as the input ids' digits, highest id first.
        # Two leading zeros keep the result a tuple for a universe of one id.
        self._gather = operator.itemgetter(width, width, *reversed(owner))
        # Reads each delta's digit off its first input id's, the other way
        # round; an empty delta reads index ``universe_size``, a 0.
        firsts = [members[0] if members else universe_size for members in ids]
        self._pick = operator.itemgetter(universe_size, universe_size, *reversed(firsts))

    def expand(self, bits: int) -> int:
        """The input ids of the pass bitmap ``bits``."""
        return int("".join(self._gather(bit_string(bits, self._width + 1))), 2)

    def contract(self, input_bits: int) -> Optional[int]:
        """The pass bitmap that stands for exactly the input ids
        ``input_bits``, or None if no union of the pass's deltas does."""
        if input_bits >> self._size:
            return None
        bits = int("".join(self._pick(bit_string(input_bits, self._size + 1))), 2)
        return bits if self.expand(bits) == input_bits else None


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
        self._id_map = _IdMap(universe_size, ids)
        self._expand = self._id_map.expand
        # (bit, bitmap of the input ids it requires) per id with requirements.
        self._requires = [
            (1 << child, sum(1 << parent for parent in parents))
            for child, parents in (requires or {}).items()
        ]

    def evaluate(self, config: Configuration) -> Outcome:
        return self.evaluate_ex(config)[0]

    def evaluate_ex(self, config: Configuration) -> tuple[Outcome, str]:
        bits = self._expand(config.bits)
        for child, required in self._requires:
            if bits & child and required & ~bits:
                return Outcome.UNRESOLVED, SOURCE_FEASIBILITY
        config = Configuration.from_bits(self._universe_size, bits)
        return self._oracle.evaluate(config), SOURCE_ORACLE


def _round(
    current: int, members: Sequence[int], n: int,
    held: list[tuple[int, int]], gaps: list[tuple[int, int]], chunks: bool,
) -> Iterator[tuple[int, str, int, int]]:
    """The candidates of a ddmin round that splits ``current``, with the
    ascending member ids ``members``, into ``n`` contiguous chunks, as
    ``(bits, kind, lo, hi)`` in the order they are asked: the chunks, then
    the complements.  Chunk ``i`` holds ``members[lo:hi]``, and only a
    candidate that is yielded gets a bitmap.

    A candidate is *covered* when it lies inside a PASS candidate of an
    earlier round, given as intervals [lo, hi) of member positions, each
    list ascending in both ends.  ``held`` holds the outermost positions
    of the passing chunks that reach neither end of ``current``.  ``gaps``
    holds the innermost positions that a passing candidate leaves out,
    for every one that leaves out a single interval: a complement, or a
    chunk that reaches an end.  The gap ``(width, 0)`` lies inside every
    interval: a pass that holds all of ``current``.  A covered candidate
    is skipped, except that a round at singleton granularity asks its
    covered complements after all other candidates, tagged ``_LATE``.
    Without ``chunks`` the round asks complements only.

    Chunk bounds are arithmetic, and only the chunks that every gap cuts
    are visited; ``held`` covers the rest.  One walk along ``gaps`` visits
    the complements: one is covered when a gap lies inside it.  The
    covered complements are listed only if nothing FAILed.
    """
    width = len(members)
    q, r = divmod(width, n)
    # Chunk i starts at i*q + min(i, r): the first r chunks hold q + 1 members.
    cut = r * (q + 1)

    def chunk(lo: int, hi: int) -> int:
        # The ids members[lo] .. members[hi - 1], masked to those in ``current``.
        return current & (1 << members[hi - 1] + 1) - (1 << members[lo])

    if chunks:
        # A gap that ends before a chunk or starts after it leaves it whole:
        # visit the chunks from the one that holds the last gap's start to
        # the one that holds the first gap's last position.
        end, start = (gaps[0][1] - 1, gaps[-1][0]) if gaps else (width - 1, 0)
        i = start // (q + 1) if start < cut else r + (start - cut) // q
        stop = (end // (q + 1) if end < cut else r + (end - cut) // q) + 1
        lo = i * q + min(i, r)
        for i in range(i, stop):
            hi = lo + q + (i < r)
            j = bisect_left(held, (lo + 1,))
            if j == 0 or held[j - 1][1] < hi:
                yield chunk(lo, hi), _CHUNK, lo, hi
            lo = hi
    j, gaps = 0, [*gaps, (width + 1, width + 1)]
    gap_lo, gap_hi = gaps[0]  # the first gap that starts at lo or later
    bounds = itertools.pairwise(itertools.chain(range(0, cut, q + 1), range(cut, width + 1, q)))
    for lo, hi in bounds:
        while gap_lo < lo:
            j += 1
            gap_lo, gap_hi = gaps[j]
        if gap_hi > hi:
            yield current ^ chunk(lo, hi), _COMPLEMENT, lo, hi
    if n == width:
        # No complement FAILed: the covered ones, in order.  A gap inside
        # singleton chunk i is (i, i + 1), or the whole gap.
        late = [lo for lo, hi in gaps if hi == lo + 1]
        for lo in range(width) if gaps[0][1] == 0 else late:
            yield current ^ chunk(lo, lo + 1), _LATE, lo, lo + 1


def _preloaded_passes(
    current: int, preloaded: Mapping[int, Outcome],
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The preloaded PASSes shaped like a candidate of a round over the
    bitmap ``current``, as intervals [lo, hi) of its member positions: one
    whose members in ``current`` are one interval is a chunk pass, and one
    that leaves out one interval of them is a gap pass (see ``_round``).
    Other shapes, FAILs and passes that hold nothing of ``current`` are
    left out.

    The shape is read off bitmaps, with no loop per position: a part of
    ``current`` is one interval when ``current`` has no member between the
    part's lowest and highest bit that the part lacks, and the part starts
    at the number of members below its lowest bit.
    """
    chunk_passes: list[tuple[int, int]] = []
    gap_passes: list[tuple[int, int]] = []
    for bits, outcome in preloaded.items():
        inside = bits & current
        if outcome is not Outcome.PASS or not inside:
            continue
        # ``inside`` is not all of ``current`` when it is no interval, so
        # neither part is empty.
        for part, passes in ((inside, chunk_passes), (current ^ inside, gap_passes)):
            low = part & -part
            if current & (1 << part.bit_length()) - low == part:
                lo = (current & low - 1).bit_count()
                passes.append((lo, lo + part.bit_count()))
                break
    return chunk_passes, gap_passes


def _mapped(intervals: list[tuple[int, int]], lo: int, hi: int) -> list[tuple[int, int]]:
    """Position intervals mapped to the positions left when [lo, hi) is
    removed: the removed positions collapse to ``lo``, later ones move
    down.  Every reduction is such a removal, and keeping a chunk is two."""
    d = hi - lo
    return [
        (l if l <= lo else lo if l <= hi else l - d, h if h <= lo else lo if h <= hi else h - d)
        for l, h in intervals
    ]


def _removed(gaps: list[tuple[int, int]], lo: int, hi: int, width: int) -> list[tuple[int, int]]:
    """Innermost ``gaps`` mapped, as ``_mapped`` does, to the ``width``
    positions left when [lo, hi) is removed, and innermost again: the whole
    gap if one is left empty.  Only the gaps that overlap [lo, hi), and the
    last before and the first after them, are mapped; later ones move down.
    This is the only way that ``gaps`` follows a reduction."""
    i = bisect_right(gaps, lo, key=_END)  # the gaps before i end by lo
    j = bisect_left(gaps, hi, key=_START)  # those from j on start at hi or later
    near = []
    if i != j:  # some overlap [lo, hi), or it is the whole gap
        i, j = max(i - 1, 0), j + 1
        near = _mapped(gaps[i:j], lo, hi)
        near = _innermost([p if p[0] < p[1] else (width, 0) for p in near])
        if near[:1] == [(width, 0)]:
            return near
    d = hi - lo
    return gaps[:i] + near + [(l - d, h - d) for l, h in gaps[j:]]


def _outermost(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The intervals that lie inside no other, ascending."""
    out: list[tuple[int, int]] = []
    for lo, hi in sorted(intervals):
        if out and out[-1][0] == lo:
            out.pop()  # it lies inside this one
        if not out or out[-1][1] < hi:
            out.append((lo, hi))
    return out


def _innermost(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The intervals that hold no other, ascending."""
    out: list[tuple[int, int]] = []
    for lo, hi in sorted(intervals, reverse=True):
        if out and out[-1][0] == lo:
            out.pop()  # it holds this one
        if not out or hi < out[-1][1]:
            out.append((lo, hi))
    out.reverse()
    return out


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
        pairs = collections.Counter((r.source, r.outcome.value) for r in self.records)
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
    scan: bool = False


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
    the configuration size, or the run stops: no complement failed at
    singleton granularity, so removing any one delta no longer fails.  At
    n = 2 the complements equal the chunks and are answered from the exact
    cache.

    A candidate is *covered* when it lies inside a candidate of an earlier
    round (one that found a FAIL too) that answered PASS, from the oracle,
    a cache or monotony.  A covered chunk is skipped, with no record, and
    so is a covered complement below singleton granularity, whether or not
    the run asked it before.  A round at singleton granularity asks its
    covered complements after all its other candidates, in list order, so
    the last round still tests every ``current - {d}``.  Under an oracle
    where nothing inside a passing configuration fails (a monotone
    failure, also one whose invalid inputs answer UNRESOLVED), a covered
    candidate cannot fail: the run makes the same reductions and returns
    the same result as testing every candidate in order would, with no
    more tests.  Under any other oracle the result is still 1-minimal with
    respect to the tests run.

    Only FAIL triggers reduction; UNRESOLVED steers like PASS but is
    tallied separately.  The empty and the full configuration are tested
    first (or answered from ``preloaded_cache``) and must come out PASS and
    FAIL respectively; these checks are logged under their own source tag
    and excluded from the worst-case test accounting.  The result's
    ``verified_1_minimal`` is read off the log, without further tests.

    No configuration is tested twice: a repeat is answered untimed as an
    ``exact-cache`` record, with its first answer.  A configuration in
    ``preloaded_cache`` is answered the same way: its entry is a first
    answer given before the run, and an entry whose bitmap lies outside
    the universe is a ``ValueError``, raised before any test.  With
    ``monotone`` the covered complements of a round at singleton
    granularity are answered PASS as ``monotony`` records, unless asked
    before or preloaded.  A preloaded PASS shaped like a candidate covers
    from the start, as a PASS of a round before the first would: in the
    positions of ``universe``'s members it is one interval, or it leaves
    out exactly one interval.  So a later pass of ``run_passes`` skips the
    candidates inside the configurations that an earlier pass saw pass.
    A preloaded PASS of another shape covers nothing until a round asks
    it, and neither does a preloaded FAIL or the empty configuration.

    The run keeps its cover as intervals of positions in the current
    configuration: ``held``, the passing chunks that reach neither end,
    and ``gaps``, what each other passing candidate leaves out, one
    interval each (see ``_round``).

    With ``scan`` the run starts with a scan, for a ``universe`` that is
    nearly 1-minimal: coarse rounds would find nothing to remove there.
    It starts at singleton granularity and asks no chunks, only the
    complements, in list order; the covered ones still come last, so
    ``verified_1_minimal`` rests on the same tests.  A FAIL leaves the
    granularity at the new size, and the next round asks first the
    complements after the one removed.  When a round's first candidate
    FAILs right after the FAIL that ended the round before, with no other
    answer between them, two removable deltas lie side by side, and
    bisection removes such a run faster: the scan ends, and the run goes
    on from n = 2, keeping every PASS as cover.  Where nothing inside a
    passing configuration fails, a scan that ends the run costs at most
    one test per delta plus one per delta kept; a scan round asks each
    complement at most once, so the run stays within n^2 + 3n tests.
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
    size = universe.universe_size
    log = RunLog(size)
    append = log.records.append
    on_record = opts.on_record
    # The first record of each bitmap asked or preloaded: a preloaded
    # answer is a first answer given before the run.
    first: dict[int, TestRecord] = {
        bits: TestRecord(Configuration.from_bits(size, bits), 0, outcome, SOURCE_EXACT_CACHE, 0.0)
        for bits, outcome in (opts.preloaded_cache or {}).items()
    }

    def run_test(bits: int, granularity: int, assumed: bool = False, axiom: bool = False) -> Outcome:
        earlier = first.get(bits)
        if earlier is not None:
            # An exact hit: one dict lookup, not worth a timer.  The record
            # shares the earlier record's Configuration.
            record = TestRecord(
                earlier.config, granularity, earlier.outcome, SOURCE_EXACT_CACHE, 0.0
            )
        else:
            config = Configuration.from_bits(size, bits)
            # An ``assumed`` PASS, else ``ask``.
            start = perf_counter()
            if assumed:
                outcome, source = Outcome.PASS, SOURCE_MONOTONY
            else:
                outcome, source = ask(config)
                if axiom and source == SOURCE_ORACLE:
                    source = SOURCE_AXIOM
            duration = (perf_counter() - start) * 1000.0
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
    # a reduction deletes the removed positions from the member list instead
    # of re-reading the bitmap.
    current, members = universe.bits, list(universe.members)
    scan = opts.scan
    n = len(members) if scan else 2
    last_fail = -2  # the log length right after the scan's last FAIL; none yet
    # The PASS candidates of the earlier rounds, as intervals of positions
    # in ``members`` (see ``_round``).  Before each round the update below
    # merges in the last round's passes, maps both lists through its
    # removals and moves each chunk pass that reaches an end into ``gaps``.
    # Before the first round it merges the preloaded PASSes shaped like a
    # candidate.
    held: list[tuple[int, int]] = []
    gaps: list[tuple[int, int]] = []
    chunk_passes, gap_passes = _preloaded_passes(current, opts.preloaded_cache or {})
    removals: tuple[tuple[int, int], ...] = ()
    while True:
        # The one update, FAIL or not: merge the passes, then follow each
        # removal.  A chunk pass with no position left holds nothing of
        # ``current``; a gap with none left is a pass that holds all of it.
        held = held + chunk_passes
        if gap_passes:
            gaps = _innermost(gaps + gap_passes)
        for lo, hi in removals:
            del members[lo:hi]
            held = [p for p in _mapped(held, lo, hi) if p[0] < p[1]]
            gaps = _removed(gaps, lo, hi, len(members))
        held = _outermost(held)
        # A chunk pass that reaches an end leaves out one interval, so it
        # becomes a gap: [0, b) leaves out [b, width), [a, width) leaves out
        # [0, a), and [0, width) nothing, the whole gap.
        width = len(members)
        ends = [(b, width) if a == 0 else (0, a) for a, b in held if a == 0 or b == width]
        if ends:
            held = [p for p in held if 0 < p[0] and p[1] < width]
            gaps = _innermost(gaps + [p if p[0] < p[1] else (width, 0) for p in ends])
        if width < 2:
            break
        # Recursion invariant: current is known to FAIL and n <= |current|.
        # This round's PASS candidates, as intervals like ``held`` and ``gaps``,
        # and the position intervals that its FAIL removes, in turn.
        chunk_passes, gap_passes, removals = [], [], ()
        for bits, kind, lo, hi in _round(current, members, n, held, gaps, not scan):
            outcome = run_test(bits, n, monotone and kind is _LATE)
            if outcome is Outcome.FAIL:
                if kind is _CHUNK:
                    # Keeping [lo, hi) removes the positions after it, then those before.
                    current, n, removals = bits, 2, ((hi, width), (0, lo))
                else:
                    current, n, removals = bits, max(n - 1, 2), ((lo, hi),)
                if scan:
                    # Two FAILs in a row: removable deltas side by side, which
                    # bisection removes faster.
                    if len(log.records) == last_fail + 1:
                        scan, n = False, 2
                    last_fail = len(log.records)
                break
            if outcome is Outcome.PASS:
                (chunk_passes if kind is _CHUNK else gap_passes).append((lo, hi))
        else:
            if n >= width:
                break
            n = min(width, 2 * n)

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
    steps: Iterable[Callable[[Sequence[int]], tuple]],
    options: Optional[EngineOptions] = None,
) -> list[Pass]:
    """Run one ddmin pass per step.  A step maps the input ids kept so far
    (``input_ids`` at first) to its pass's label, ids and oracle, and the
    pass starts from the full configuration of those ids.  The first pass
    runs with ``options`` as given.  A later step may add a fourth item,
    ``scan``, which sets ``EngineOptions.scan`` for its pass; without it
    the pass does not scan.

    No pass tests a scenario that an earlier pass tested.  The run keeps
    one table from the input ids each tested configuration stands for to
    its first answer, taken from the ``oracle``, ``axiom`` and
    ``exact-cache`` records of each finished pass; a ``monotony`` answer is
    an assumption and a ``feasibility-reject`` is free, so neither is
    carried.  A later pass's preloaded cache holds every entry that a
    union of its deltas stands for exactly.  Among them are both axiom
    answers: the empty configuration passed, and the pass's full
    configuration, the result of the pass before it, failed.  Any other
    carried FAIL would contain that result, so none is in reach; a
    carried PASS shaped like a candidate covers from the start of the pass
    (see ``ddmin``).  The table replaces any preloaded cache, whose bitmaps belong to the first
    pass's universe.  A ``PassOracle`` must be over its step's ids: the
    run maps the table through its id map.  An axiom violation names its pass.
    """
    passes: list[Pass] = []
    kept = input_ids
    known: dict[int, Outcome] = {}  # input-id bitmap -> its first answer
    steps = list(steps)
    for number, step in enumerate(steps, 1):
        label, ids, oracle, *scan = step(kept)
        universe = Configuration.full(len(ids))
        if isinstance(oracle, PassOracle):
            id_map = oracle._id_map  # built over the same ids
        elif len(steps) > 1:
            id_map = _IdMap(max(itertools.chain.from_iterable(ids), default=-1) + 1, ids)
        if passes:
            preloaded = {}
            for input_bits, outcome in known.items():
                bits = id_map.contract(input_bits)
                if bits is not None:
                    preloaded[bits] = outcome
            options = dataclasses.replace(
                options or EngineOptions(), preloaded_cache=preloaded, scan=bool(scan and scan[0])
            )
        try:
            # Through the module global, so a wrapped ``ddmin`` sees every pass.
            result = ddmin(universe, oracle, options)
        except AxiomViolation as exc:
            raise AxiomViolation(f"{label} pass: {exc}", exc.log) from exc
        passes.append(Pass(label, result, ids))
        kept = passes[-1].kept
        if number < len(steps):
            first: dict[int, TestRecord] = {}
            for record in result.log.records:
                first.setdefault(record.config.bits, record)
            for bits, record in first.items():
                if record.source in CARRIED_SOURCES:
                    known.setdefault(id_map.expand(bits), record.outcome)
    return passes


def _verified_1_minimal(first: dict[int, TestRecord], final: int) -> Optional[bool]:
    """Read the 1-minimality of the bitmap ``final`` off the run log, given
    as the first record of each bitmap asked or preloaded; tests nothing.

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

