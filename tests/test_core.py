import collections
import dataclasses
import itertools
import random
from bisect import bisect_left

import pytest

from deltadebug import (
    AxiomViolation,
    Configuration,
    EngineOptions,
    Outcome,
    PassOracle,
    ddmin,
)
from deltadebug import core
from deltadebug.core import (
    _CHUNK,
    _COMPLEMENT,
    _LATE,
    SOURCE_AXIOM,
    SOURCE_EXACT_CACHE,
    SOURCE_FEASIBILITY,
    SOURCE_MONOTONY,
    SOURCE_ORACLE,
    MinimizationResult,
    RunLog,
    TestRecord,
    _innermost,
    _mapped,
    _outermost,
    _removed,
    _round,
    as_oracle,
)
from deltadebug.oracles import (
    CountingOracle,
    adversarial,
    conjunction,
    conjunction_spread,
    random_monotone,
    single_cause,
)
from support import (
    VerifyBudgetExceeded,
    bitmap_hex,
    from_bitmap_hex,
    random_table,
    verify_n_minimal,
)


def cfg(universe, *members):
    return Configuration(universe, members)


def first_records(log):
    """The first record of each bitmap asked, keyed by bitmap."""
    first = {}
    for rec in log:
        first.setdefault(rec.config.bits, rec)
    return first


class TestConfiguration:
    def test_members_are_sorted_and_unique(self):
        c = Configuration(8, [5, 2, 5, 0])
        assert c.members == (0, 2, 5)
        assert len(c) == 3

    def test_ids_outside_universe_rejected(self):
        with pytest.raises(ValueError):
            Configuration(4, [4])
        with pytest.raises(ValueError):
            Configuration(4, [-1])

    @pytest.mark.parametrize("make, message", [
        (lambda: Configuration(-1), "universe_size must be >= 0"),
        (lambda: Configuration.from_bits(4, 1 << 4), "bitmap has bits outside the universe"),
        (lambda: Configuration.from_bits(4, -1), "bitmap has bits outside the universe"),
    ], ids=["negative-universe", "bit-above", "negative-bits"])
    def test_a_bad_universe_or_bitmap_is_rejected(self, make, message):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message

    def test_equality_is_member_list_equality(self):
        assert cfg(8, 1, 2) == cfg(8, 2, 1)
        assert cfg(8, 1, 2) != cfg(9, 1, 2)
        assert cfg(8, 1, 2) != cfg(8, 1, 3)

    def test_fields_cannot_be_assigned(self):
        c = cfg(8, 1, 2)
        for name in ("universe_size", "bits"):
            with pytest.raises(AttributeError):
                setattr(c, name, 0)
        assert not hasattr(c, "__dict__")
        assert c == cfg(8, 1, 2)
        assert hash(c) == hash((8, 0b110))

    def test_bitmap_hex_round_trip(self):
        c = Configuration(12, [0, 1, 9])
        assert from_bitmap_hex(12, bitmap_hex(c)) == c

    def test_bitmap_hex_is_little_endian_by_delta_id(self):
        assert bitmap_hex(cfg(8, 5)) == "20"
        assert bitmap_hex(cfg(16, 0, 8)) == "0101"


def shift_loop_members(bits: int) -> tuple[int, ...]:
    """Reference reader: one shift per bit."""
    out = []
    i = 0
    while bits:
        if bits & 1:
            out.append(i)
        bits >>= 1
        i += 1
    return tuple(out)


def reference_partition(config: Configuration, n: int) -> list[Configuration]:
    """Reference chunking: each chunk rebuilt member by member."""
    members = shift_loop_members(config.bits)
    q, r = divmod(len(members), n)
    chunks = []
    start = 0
    for i in range(n):
        size = q + (1 if i < r else 0)
        chunks.append(Configuration(config.universe_size, members[start:start + size]))
        start += size
    return chunks


def seeded_bitmaps(rng: random.Random):
    """Dense, half-full and sparse bitmaps, then wide ones with only high bits."""
    for _ in range(60):
        universe = rng.randint(2, 120)
        density = rng.choice([0.05, 0.5, 0.95])
        members = [m for m in range(universe) if rng.random() < density]
        yield Configuration(universe, members or [universe - 1])
    for universe in (5000, 8191, 9000):
        members = rng.sample(range(universe - 64, universe), rng.randint(2, 24))
        yield Configuration(universe, members)


class TestBitmapReadingMatchesShiftLoop:
    def test_members(self):
        rng = random.Random(4401)
        assert Configuration(7).members == ()
        assert Configuration(0).members == ()
        for config in seeded_bitmaps(rng):
            assert config.members == shift_loop_members(config.bits)

    def test_preloaded_pass_shapes(self):
        # The shapes read off bitmaps against member-by-member positions:
        # intervals of positions, what they leave out, and arbitrary
        # bitmaps, some with ids outside the configuration, some FAILs.
        rng = random.Random(4403)
        shaped = 0
        for config in seeded_bitmaps(rng):
            members, size = config.members, config.universe_size
            preload = {}
            for _ in range(8):
                lo = rng.randrange(len(members))
                hi = rng.randint(lo + 1, len(members))
                interval = sum(1 << m for m in members[lo:hi])
                for bits in (interval, config.bits ^ interval, rng.getrandbits(size)):
                    preload[bits | rng.getrandbits(size) & ~config.bits] = rng.choice(
                        [Outcome.PASS, Outcome.PASS, Outcome.FAIL]
                    )
            expected = ([], [])
            for bits, outcome in preload.items():
                inside = [i for i, m in enumerate(members) if bits >> m & 1]
                outside = [i for i, m in enumerate(members) if not bits >> m & 1]
                if outcome != Outcome.PASS or not inside:
                    continue
                for positions, passes in ((inside, expected[0]), (outside, expected[1])):
                    if positions == list(range(positions[0], positions[-1] + 1)):
                        passes.append((positions[0], positions[-1] + 1))
                        shaped += 1
                        break
            assert core._preloaded_passes(config.bits, preload) == expected
        assert shaped >= 500


class TestDdmin:
    def test_an_object_that_is_no_oracle_is_rejected(self):
        with pytest.raises(TypeError, match="not a test oracle"):
            as_oracle(object())

    def test_single_cause_example(self):
        oracle = single_cause(8, 5)
        result = ddmin(Configuration.full(8), oracle)
        assert result.final == cfg(8, 5)
        assert verify_n_minimal(result.final, oracle, 1)

    def test_conjunction_example(self):
        oracle = conjunction(8, [2, 5])
        result = ddmin(Configuration.full(8), oracle)
        assert result.final == cfg(8, 2, 5)
        # Brute force: {2,5} is the unique minimal failing set.
        minimal = [
            bits for bits in range(1, 256)
            if oracle.evaluate(Configuration.from_bits(8, bits)) == Outcome.FAIL
            and all(
                oracle.evaluate(Configuration.from_bits(8, bits & ~(1 << i))) != Outcome.FAIL
                for i in range(8) if bits >> i & 1
            )
        ]
        assert minimal == [cfg(8, 2, 5).bits]

    def test_singleton_universe_needs_no_tests(self):
        result = ddmin(Configuration.full(1), lambda c: Outcome.FAIL if len(c) else Outcome.PASS)
        assert result.final == Configuration.full(1)
        assert result.log.test_counts()[0] == 0
        assert result.log.test_counts()[2] == 2

    def test_axiom_violation_on_passing_universe(self):
        with pytest.raises(AxiomViolation) as info:
            ddmin(Configuration.full(4), lambda c: Outcome.PASS)
        assert info.value.log is not None
        assert info.value.log.test_counts()[2] >= 1

    def test_axiom_violation_on_failing_empty(self):
        with pytest.raises(AxiomViolation):
            ddmin(Configuration.full(4), lambda c: Outcome.FAIL)

    def test_empty_universe_cannot_satisfy_both_axioms(self):
        with pytest.raises(AxiomViolation):
            ddmin(Configuration.full(0), lambda c: Outcome.PASS)

    def test_unresolved_steers_like_pass_but_is_tallied(self):
        def oracle(c):
            if 5 in c:
                return Outcome.FAIL
            return Outcome.UNRESOLVED if len(c) % 2 else Outcome.PASS

        result = ddmin(Configuration.full(8), oracle)
        assert 5 in result.final
        assert any(r.outcome == Outcome.UNRESOLVED for r in result.log.records)

    def test_duplicate_complement_answered_from_cache_at_n2(self):
        # At granularity 2 each complement equals the other subset; the
        # duplicate shows up in the log tagged exact-cache.
        oracle = conjunction(8, [2, 5])
        result = ddmin(Configuration.full(8), oracle)
        sources = [r.source for r in result.log]
        assert SOURCE_EXACT_CACHE in sources

    def test_last_fail_record_is_the_final_configuration(self):
        rng = random.Random(99)
        for i in range(40):
            n = rng.randint(2, 10)
            oracle = random_table(n, seed=i)
            result = ddmin(Configuration.full(n), oracle)
            fails = [r.config for r in result.log.records if r.outcome == Outcome.FAIL]
            assert fails[-1] == result.final

    def test_determinism_identical_logs(self):
        oracle_a = random_table(10, seed=5)
        oracle_b = random_table(10, seed=5)
        r1 = ddmin(Configuration.full(10), oracle_a)
        r2 = ddmin(Configuration.full(10), oracle_b)
        assert r1.final == r2.final
        assert r1.log.fingerprint() == r2.log.fingerprint()

    def test_on_record_sees_each_record_as_it_is_logged(self):
        seen = []
        oracle = conjunction(8, [2, 5])
        result = ddmin(Configuration.full(8), oracle, EngineOptions(on_record=seen.append))
        assert seen == result.log.records

    def test_evaluate_ex_is_looked_up_once_per_run(self):
        # An oracle's own provenance tags reach the log; the engine reads
        # the method once, not once per test.
        lookups = []
        inner = conjunction(8, [2, 5])

        class Tagging:
            def evaluate(self, config):
                raise AssertionError("evaluate_ex answers every test")

            @property
            def evaluate_ex(self):
                lookups.append(1)
                return lambda config: (
                    inner.evaluate(config),
                    SOURCE_FEASIBILITY if len(config) == 3 else SOURCE_ORACLE,
                )

        result = ddmin(Configuration.full(8), Tagging())
        assert lookups == [1]
        assert result.final == cfg(8, 2, 5)
        sources = {rec.source for rec in result.log}
        assert {SOURCE_AXIOM, SOURCE_ORACLE, SOURCE_FEASIBILITY} <= sources

    def test_worst_case_bound_over_random_tables(self):
        rng = random.Random(13)
        for i in range(60):
            n = rng.randint(2, 12)
            oracle = random_table(n, seed=700 + i)
            result = ddmin(Configuration.full(n), oracle)
            assert result.log.test_counts()[0] <= n * n + 3 * n

    def test_best_case_single_cause_scaling(self):
        for k in (4, 6, 8, 10):
            n = 2 ** k
            result = ddmin(Configuration.full(n), single_cause(n))
            assert result.log.test_counts()[0] <= 2 * k + 2



class Received:
    """An oracle that records each configuration it is asked about."""

    def __init__(self, outcome=Outcome.PASS):
        self.outcome = outcome
        self.configs = []

    def evaluate(self, config):
        self.configs.append(config)
        return self.outcome


def expanded(universe_size, ids, config):
    """The configuration ``PassOracle`` hands on, as the OR of one bitmap per
    member delta."""
    bits = 0
    for delta in config.members:
        for i in ids[delta]:
            bits |= 1 << i
    return Configuration.from_bits(universe_size, bits)


class TestPassOracle:
    @pytest.mark.parametrize("universe_size, ids", [
        (0, []),
        (1, [(0,)]),
        (2, [(1,), (0,)]),
        (2, [(0, 1)]),
        (10, [(7,), (3,)]),  # a later pass: ids the pass before it kept
        (4321, [(i,) for i in range(4320, -1, -1)]),
        (9000, [tuple(range(k, 9000, 7)) for k in range(7)]),
    ])
    def test_every_configuration_asked_is_the_union_of_its_deltas(self, universe_size, ids):
        rng = random.Random(universe_size)
        width = len(ids)
        configs = [Configuration(width), Configuration.full(width)] + [
            Configuration.from_bits(width, rng.getrandbits(width)) for _ in range(5)
        ]
        received = Received()
        oracle = PassOracle(received, universe_size, ids)
        for config in configs:
            assert oracle.evaluate_ex(config) == (Outcome.PASS, SOURCE_ORACLE)
        assert received.configs == [expanded(universe_size, ids, c) for c in configs]

    def test_interleaved_groups(self):
        # The slice/rest pass of reduce-trace and --groups dir both hand
        # over groups whose input ids interleave.
        received = Received()
        oracle = PassOracle(received, 9, [(5, 1, 8), (0, 2, 3), (6,)])
        for members in ([0], [1], [2], [0, 2], [0, 1, 2]):
            oracle.evaluate(cfg(3, *members))
        assert received.configs == [
            cfg(9, 1, 5, 8), cfg(9, 0, 2, 3), cfg(9, 6), cfg(9, 1, 5, 6, 8),
            cfg(9, 0, 1, 2, 3, 5, 6, 8),
        ]

    def test_a_missing_requirement_is_a_feasibility_reject(self):
        counting = CountingOracle(lambda c: Outcome.FAIL)
        # Input id 4 requires 0 and 2; delta 1 holds 4, delta 0 holds 0 and 1.
        oracle = PassOracle(counting, 6, [(0, 1), (4,), (2,)], {4: {0, 2}})
        assert oracle.evaluate_ex(cfg(3, 0, 1)) == (Outcome.UNRESOLVED, SOURCE_FEASIBILITY)
        assert oracle.evaluate_ex(cfg(3, 1, 2)) == (Outcome.UNRESOLVED, SOURCE_FEASIBILITY)
        assert counting.calls == 0
        assert oracle.evaluate_ex(cfg(3, 0, 2)) == (Outcome.FAIL, SOURCE_ORACLE)
        assert oracle.evaluate_ex(cfg(3, 0, 1, 2)) == (Outcome.FAIL, SOURCE_ORACLE)
        assert counting.calls == 2
        # FAIL needs input id 4, so a 1-minimal result holds all three deltas.
        needs_4 = PassOracle(lambda c: Outcome.FAIL if 4 in c else Outcome.PASS, 6,
                             [(0, 1), (4,), (2,)], {4: {0, 2}})
        result = ddmin(Configuration.full(3), needs_4)
        assert result.final == Configuration.full(3)
        rejects = {r.config.members for r in result.log if r.source == SOURCE_FEASIBILITY}
        assert rejects == {(0, 1), (1,), (1, 2)}

    @pytest.mark.parametrize("universe_size, ids, message", [
        (4, [(0,), (4,)], "input id 4 outside universe 0..3"),
        (4, [(-1,)], "input id -1 outside universe 0..3"),
        (0, [(0,)], "input id 0 outside universe 0..-1"),
        (4, [(0, 2), (1,), (2, 3)], "input id 2 is in deltas 0 and 2"),
        (4, [(1, 1)], "input id 1 is in deltas 0 and 0"),
    ])
    def test_bad_ids_are_rejected_when_built(self, universe_size, ids, message):
        with pytest.raises(ValueError) as info:
            PassOracle(Received(), universe_size, ids)
        assert str(info.value) == message

    def test_seeded_differential_against_or_of_bitmaps(self):
        rng = random.Random(20261019)
        for _ in range(200):
            universe_size = rng.randint(0, 300)
            # A random share of the input ids, cut into random groups.
            kept = [i for i in range(universe_size) if rng.random() < 0.7]
            rng.shuffle(kept)
            ids, rest = [], kept
            while rest:
                cut = rng.randint(1, len(rest))
                ids.append(tuple(rest[:cut]))
                rest = rest[cut:]
            received = Received(Outcome.FAIL)
            oracle = PassOracle(received, universe_size, ids)
            configs = [
                Configuration.from_bits(len(ids), rng.getrandbits(len(ids))) for _ in range(4)
            ]
            for config in configs:
                assert oracle.evaluate(config) == Outcome.FAIL
            assert received.configs == [expanded(universe_size, ids, c) for c in configs]

class TestTestRecord:
    def test_five_stored_fields_and_cached_read_off_source(self):
        names = [f.name for f in dataclasses.fields(TestRecord)]
        assert names == ["config", "granularity", "outcome", "source", "duration_ms"]
        for source in (SOURCE_ORACLE, SOURCE_EXACT_CACHE, SOURCE_MONOTONY,
                       SOURCE_FEASIBILITY, SOURCE_AXIOM):
            record = TestRecord(cfg(4), 0, Outcome.PASS, source, 0.0)
            assert record.cached == (source in (SOURCE_EXACT_CACHE, SOURCE_MONOTONY))


class TestVerifyNMinimal:
    def test_conjunction_pair_is_1_minimal(self):
        oracle = conjunction(8, [2, 5])
        assert verify_n_minimal(cfg(8, 2, 5), oracle, 1) is True

    def test_superset_is_not_1_minimal(self):
        oracle = conjunction(8, [2, 5])
        assert verify_n_minimal(cfg(8, 2, 5, 7), oracle, 1) is False

    def test_full_minimality_when_n_equals_size(self):
        target = cfg(5, 0, 1, 2, 3, 4)

        def oracle(c):
            return Outcome.FAIL if c == target else Outcome.PASS

        assert verify_n_minimal(target, oracle, 5) is True

    def test_budget_refusal_is_an_error_not_an_answer(self):
        oracle = conjunction(40, [2, 5])
        with pytest.raises(VerifyBudgetExceeded):
            verify_n_minimal(Configuration.full(40), oracle, 40, budget=2 ** 10)

    def test_n_range_validation(self):
        with pytest.raises(ValueError):
            verify_n_minimal(cfg(4, 1), lambda c: Outcome.PASS, 2)


class TestCachedOracle:
    """The engine's own cache: repeats, monotony and preloaded answers."""

    def test_exact_duplicates_not_reinvoked(self):
        for seed in range(12):
            counting = CountingOracle(random_table(8, seed=300 + seed))
            result = ddmin(Configuration.full(8), counting)
            asked = [r.config.bits for r in result.log if r.source != SOURCE_EXACT_CACHE]
            assert len(asked) == len(set(asked)) == counting.calls
            repeats = [r for r in result.log if r.source == SOURCE_EXACT_CACHE]
            assert repeats and all(r.cached and r.duration_ms == 0.0 for r in repeats)

    def test_monotony_answers_subsets_of_passed(self):
        counting = CountingOracle(conjunction(8, [0, 7]))
        result = ddmin(Configuration.full(8), counting, EngineOptions(monotone=True))
        assert result.final == cfg(8, 0, 7)
        passed = []
        monotony = 0
        for rec in result.log:
            if rec.source == SOURCE_MONOTONY:
                assert rec.outcome == Outcome.PASS and rec.cached
                assert any(rec.config.bits & p == rec.config.bits for p in passed)
                monotony += 1
            elif rec.outcome == Outcome.PASS:
                passed.append(rec.config.bits)
        # Only the last round's complements {7} and {0}, inside the passed
        # {4, 5, 6, 7} and {0, 1, 2, 3}; no earlier round asks a covered
        # candidate.
        assert monotony == 2
        oracle_tests, _, axiom_tests = result.log.test_counts()
        assert counting.calls == oracle_tests + axiom_tests

    def test_non_subset_still_invokes(self):
        counting = CountingOracle(conjunction(8, [0, 7]))
        result = ddmin(Configuration.full(8), counting, EngineOptions(monotone=True))
        # {1, 6, 7} is a subset of no passed configuration before it is asked.
        assert first_records(result.log)[cfg(8, 1, 6, 7).bits].source == SOURCE_ORACLE

    def test_a_candidate_shaped_preloaded_pass_covers_from_the_start(self):
        oracle = conjunction(8, [0, 7])
        first_chunk = cfg(8, 0, 1, 2, 3)
        # {0..6} leaves out one interval, {7}, as a complement does: it
        # covers its subsets from the start, so neither it nor the first
        # chunk {0..3} is asked, and a subset of it is only answered by
        # monotony in the last round.
        shaped = cfg(8, 0, 1, 2, 3, 4, 5, 6)
        counting = CountingOracle(oracle)
        result = ddmin(
            Configuration.full(8), counting,
            EngineOptions(monotone=True, preloaded_cache={shaped.bits: Outcome.PASS}),
        )
        records = first_records(result.log)
        assert first_chunk.bits not in records and shaped.bits not in records
        inside = [
            rec for rec in result.log
            if rec.config.bits & shaped.bits == rec.config.bits and rec.source != SOURCE_AXIOM
        ]
        assert {rec.config for rec in inside} == {cfg(8, 0)}
        assert all(rec.source == SOURCE_MONOTONY for rec in inside)
        assert result.final == cfg(8, 0, 7)
        oracle_tests, _, axiom_tests = result.log.test_counts()
        assert counting.calls == oracle_tests + axiom_tests
        # {0..3, 5} is two intervals and leaves out two: it covers nothing
        # until a round asks it, so the run is the one without it.
        unshaped = cfg(8, 0, 1, 2, 3, 5)
        plain = ddmin(Configuration.full(8), oracle, EngineOptions(monotone=True))
        result = ddmin(
            Configuration.full(8), oracle,
            EngineOptions(monotone=True, preloaded_cache={unshaped.bits: Outcome.PASS}),
        )
        assert result.log.fingerprint() == plain.log.fingerprint()
        assert first_records(result.log)[first_chunk.bits].source == SOURCE_ORACLE
        # {1, 6, 7} is not shaped like a candidate of the first round; a
        # later round asks it, and the preload answers, untimed.
        asked = cfg(8, 1, 6, 7)
        result = ddmin(
            Configuration.full(8), oracle,
            EngineOptions(monotone=True, preloaded_cache={asked.bits: Outcome.PASS}),
        )
        record = first_records(result.log)[asked.bits]
        assert (record.source, record.duration_ms) == (SOURCE_EXACT_CACHE, 0.0)
        assert plain.log.fingerprint() != result.log.fingerprint()
        assert result.final == plain.final

    def test_a_preloaded_bitmap_outside_the_universe_is_rejected_before_any_test(self):
        counting = CountingOracle(conjunction(8, [0, 7]))
        with pytest.raises(ValueError, match="bitmap has bits outside the universe"):
            ddmin(
                Configuration.full(8), counting,
                EngineOptions(preloaded_cache={cfg(8, 0).bits: Outcome.PASS, 1 << 8: Outcome.PASS}),
            )
        assert counting.calls == 0

    def test_a_preloaded_late_complement_wins_over_monotony(self):
        # The last round of TestCoveredComplements' run: monotony would
        # answer the covered complement {0, 1, 3}, but its preload answers
        # first, as an exact-cache record, so the result is tested 1-minimal.
        counting = CountingOracle(conjunction(5, [0, 1, 2, 3]))
        result = ddmin(
            Configuration.full(5), counting,
            EngineOptions(monotone=True, preloaded_cache={cfg(5, 0, 1, 3).bits: Outcome.PASS}),
        )
        last = [(rec.config, rec.source) for rec in result.log if rec.granularity == 4][-4:]
        assert last == [
            (cfg(5, 1, 2, 3), SOURCE_ORACLE), (cfg(5, 0, 2, 3), SOURCE_ORACLE),
            (cfg(5, 0, 1, 3), SOURCE_EXACT_CACHE), (cfg(5, 0, 1, 2), SOURCE_EXACT_CACHE),
        ]
        assert SOURCE_MONOTONY not in result.log.counts_by_source()
        assert result.verified_1_minimal is True
        oracle_tests, _, axiom_tests = result.log.test_counts()
        assert counting.calls == oracle_tests + axiom_tests

    def test_monotone_cache_reduces_calls_for_multi_cause_oracles(self):
        # Monotony pays off once singleton granularity is reached: tested
        # singletons are subsets of previously passed chunks.
        plain = ddmin(Configuration.full(64), conjunction_spread(64, 2))
        cached = ddmin(
            Configuration.full(64),
            conjunction_spread(64, 2),
            EngineOptions(monotone=True),
        )
        assert cached.final == plain.final
        assert cached.log.test_counts()[0] < plain.log.test_counts()[0]

    def test_single_cause_halving_path_gains_nothing_from_monotony(self):
        # The pure halving descent never queries a subset of a previously
        # passed configuration, so the counts come out equal (never higher).
        plain = ddmin(Configuration.full(64), single_cause(64))
        cached = ddmin(
            Configuration.full(64), single_cause(64), EngineOptions(monotone=True)
        )
        assert cached.final == plain.final
        assert cached.log.test_counts()[0] == plain.log.test_counts()[0]

    def test_monotone_filter_never_reinvokes_subsets_of_passed(self):
        for seed in range(12):
            oracle = random_monotone(16, seed)
            result = ddmin(
                Configuration.full(16), oracle, EngineOptions(monotone=True)
            )
            passed_bits: list[int] = []
            for rec in result.log:
                if rec.source == SOURCE_ORACLE:
                    assert not any(
                        rec.config.bits & p == rec.config.bits for p in passed_bits
                    )
                if rec.outcome == Outcome.PASS:
                    passed_bits.append(rec.config.bits)

    def test_final_identical_with_cache_on_and_off(self):
        for seed in range(12):
            on = ddmin(
                Configuration.full(24),
                random_monotone(24, seed),
                EngineOptions(monotone=True),
            )
            off = ddmin(Configuration.full(24), random_monotone(24, seed))
            assert on.final == off.final


def reference_ddmin(universe, oracle, opts, classic=False):
    """The ddmin loop on ``Configuration`` objects, with member sets and
    member-by-member chunks: the reference the engine must equal.

    A candidate not asked yet is covered when its members are a subset of
    a PASS candidate of any earlier round, or of a preloaded PASS shaped
    like a candidate of the first round: its members in ``universe`` sit
    at consecutive positions, or those it leaves out do.  A covered chunk
    is skipped, and so is a covered complement, except in a round at
    granularity ``len(current)``: it asks its covered complements after
    every other candidate, answered PASS by monotony if ``opts.monotone``.
    With ``classic`` every candidate is asked in the paper's order.
    """
    oracle = as_oracle(oracle)
    preload = opts.preloaded_cache or {}
    log = RunLog(universe.universe_size)
    answered = {}  # configuration -> its first record

    def consecutive(positions):
        return positions == list(range(positions[0], positions[-1] + 1))

    def candidate_shaped(bits):
        inside = [i for i, m in enumerate(universe.members) if bits >> m & 1]
        outside = [i for i, m in enumerate(universe.members) if not bits >> m & 1]
        return bool(inside) and (consecutive(inside) or bool(outside) and consecutive(outside))

    # Member sets of the PASS candidates of the earlier rounds, and of the
    # preloaded PASSes shaped like a candidate.
    passed = [
        set(Configuration.from_bits(universe.universe_size, bits).members)
        for bits, outcome in preload.items()
        if outcome == Outcome.PASS and candidate_shaped(bits)
    ]
    passed_in_round = []

    def run_test(config, granularity, axiom=False, assumed=False):
        if config in answered:
            outcome, source = answered[config].outcome, SOURCE_EXACT_CACHE
        elif config.bits in preload:
            outcome, source = preload[config.bits], SOURCE_EXACT_CACHE
        elif assumed:
            outcome, source = Outcome.PASS, SOURCE_MONOTONY
        else:
            outcome = oracle.evaluate(config)
            source = SOURCE_AXIOM if axiom else SOURCE_ORACLE
        record = TestRecord(config, granularity, outcome, source, 0.0)
        log.records.append(record)
        answered.setdefault(config, record)
        if outcome == Outcome.PASS:
            passed_in_round.append(set(config.members))
        if opts.on_record is not None:
            opts.on_record(record)
        return outcome

    def covered(config):
        members = set(config.members)
        return any(members <= p for p in passed)

    got = run_test(Configuration(universe.universe_size), 0, axiom=True)
    if got != Outcome.PASS:
        raise AxiomViolation(
            f"the empty configuration must PASS but tested {got.name}", log
        )
    got = run_test(universe, 0, axiom=True)
    if got != Outcome.FAIL:
        raise AxiomViolation(
            f"the full configuration must FAIL but tested {got.name}", log
        )
    current = universe
    n = 2
    while len(current) >= 2:
        chunks = reference_partition(current, n)
        complements = (
            Configuration(
                current.universe_size,
                set(current.members) - set(chunk.members),
            )
            for chunk in chunks
        )
        candidates = itertools.chain(
            ((c, 2, False) for c in chunks),
            ((c, max(n - 1, 2), True) for c in complements),
        )
        passed_in_round.clear()
        reduced = None
        late = []
        for config, next_n, is_complement in candidates:
            if not classic and covered(config):
                if is_complement and n == len(current):
                    late.append((config, next_n))
                continue
            if run_test(config, n) == Outcome.FAIL:
                reduced = (config, next_n)
                break
        else:
            for config, next_n in late:
                if run_test(config, n, assumed=opts.monotone) == Outcome.FAIL:
                    reduced = (config, next_n)
                    break
        passed.extend(passed_in_round)
        if reduced is not None:
            current, n = reduced
            continue
        if n < len(current):
            n = min(len(current), 2 * n)
            continue
        break

    witnesses = [answered.get(current)] + [
        answered.get(current.without([m])) for m in current
    ]
    if None in witnesses or any(r.source == SOURCE_MONOTONY for r in witnesses):
        verified = None
    else:
        verified = witnesses[0].outcome == Outcome.FAIL and all(
            r.outcome != Outcome.FAIL for r in witnesses[1:]
        )
    return MinimizationResult(final=current, log=log, verified_1_minimal=verified)


class TestEngineMatchesReference:
    """``ddmin`` gives the reference's log, result, callbacks and errors."""

    @staticmethod
    def draws():
        rng = random.Random(4404)
        for i in range(600):
            family = i % 4
            if family == 0:
                n = rng.randint(1, 12)
                oracle = random_table(n, seed=8000 + i, fail_p=0.3, unresolved_p=0.2)
            elif family == 1:
                n = rng.randint(1, 40)
                oracle = random_monotone(n, seed=9000 + i)
            elif family == 2:
                n = rng.randint(1, 24)
                oracle = adversarial(n)
            else:
                n = rng.randint(2, 40)
                oracle = conjunction(n, rng.sample(range(n), rng.randint(1, min(n, 5))))
            full = Configuration.full(n)
            # Half the draws start from a sparse universe, as a later pass does.
            if i % 8 >= 4 and n > 1:
                members = [m for m in range(n) if rng.random() < 0.7]
                universe = Configuration(n, members or [n - 1])
            else:
                universe = full
            # Preloaded answers: large passing sets, which cover many
            # subsets under monotony, and failing sets.
            preload = {}
            for _ in range(rng.randint(1, 4)):
                dense = Configuration(n, [m for m in range(n) if rng.random() < 0.8])
                if oracle.evaluate(dense) == Outcome.PASS:
                    preload[dense.bits] = Outcome.PASS
                sparse = Configuration.from_bits(n, rng.getrandbits(n))
                if oracle.evaluate(sparse) == Outcome.FAIL:
                    preload[sparse.bits] = Outcome.FAIL
            yield universe, oracle, preload
        # Long runs at singleton granularity: adversarial from full and from
        # sparse universes (every odd id and some even ones), and the same
        # with UNRESOLVED answers, whose complements stay uncovered, so a
        # later round can ask one again from the exact cache.
        for i, n in enumerate((48, 64, 96, 128, 56, 80)):
            if i % 2:
                universe = Configuration(n, [m for m in range(n) if m % 2 or rng.random() < 0.5])
            else:
                universe = Configuration.full(n)
            oracle = adversarial(n)
            if i >= 4:
                oracle = unresolved_on(oracle, universe, seed=4406 + i)
            below = Configuration.from_bits(n, universe.bits ^ 1 << n - 1)
            preload = {below.bits: Outcome.PASS} if oracle.evaluate(below) == Outcome.PASS else {}
            yield universe, oracle, preload
        # Tables where, at singleton granularity, a chunk pass holds every
        # member but the first, and no gap covers the first complement.
        for n, seed in ((4, 1273), (6, 493), (7, 187), (8, 274)):
            yield Configuration.full(n), random_table(n, seed, fail_p=0.3, unresolved_p=0.2), {}

    @staticmethod
    def observe(engine, universe, oracle, monotone, preload, watch):
        seen = []

        def on_record(record):
            seen.append((record.config, record.granularity, record.outcome, record.source))

        options = EngineOptions(
            monotone=monotone,
            preloaded_cache=preload,
            on_record=on_record if watch else None,
        )
        try:
            result = engine(universe, oracle, options)
        except AxiomViolation as exc:
            return "axiom", str(exc), exc.log.fingerprint(), seen
        return result.log.fingerprint(), result.final, result.verified_1_minimal, seen

    def test_seeded_draws_in_every_mode(self):
        compared = 0
        for draw, (universe, oracle, preload) in enumerate(self.draws()):
            for mode in range(4):
                monotone, preloaded = mode & 1, mode & 2
                args = (
                    universe, oracle, bool(monotone),
                    preload if preloaded else None, draw % 2 == 0,
                )
                got = self.observe(ddmin, *args)
                assert got == self.observe(reference_ddmin, *args), (draw, mode)
                compared += 1
        assert compared >= 2000

    def test_wide_sparse_universes(self):
        # The engine's chunk arithmetic on member positions against the
        # reference's member-by-member chunks, also over universes of 5000
        # to 9000 ids that hold only high ids.
        rng = random.Random(4402)
        for draw, universe in enumerate(seeded_bitmaps(rng)):
            members, size = universe.members, universe.universe_size
            oracles = [
                conjunction(size, rng.sample(members, rng.randint(1, min(len(members), 5)))),
                conjunction(size, members[1::2] or members),  # adversarial's shape
            ]
            if len(members) >= 3:
                suppressed, unless, *causes = rng.sample(members, rng.randint(3, min(len(members), 5)))
                oracles.append(suppressor(causes, suppressed, unless))
            for oracle in oracles:
                args = (universe, oracle, draw % 2 == 1, None, False)
                assert self.observe(ddmin, *args) == self.observe(reference_ddmin, *args), draw


def unresolved_on(oracle, universe, seed, share=0.25):
    """``oracle``'s answers, except UNRESOLVED on a seeded share of the
    bitmaps other than the empty one and ``universe``'s: the axioms hold."""
    oracle = as_oracle(oracle)

    def evaluate(config):
        bits = config.bits
        if bits not in (0, universe.bits) and random.Random(bits ^ seed).random() < share:
            return Outcome.UNRESOLVED
        return oracle.evaluate(config)

    return as_oracle(evaluate)


def reference_mapped(intervals, lo, hi, kept):
    """Position intervals mapped to the configuration that a reduction
    leaves: the chunk [lo, hi) if ``kept``, which clamps them to it, else
    everything but it, which collapses it to its start.  The reference for
    ``_mapped``, which maps through removals only, and for keeping a chunk
    as two removals."""
    d = hi - lo
    if kept:
        return [
            (0 if l <= lo else l - lo if l <= hi else d, 0 if h <= lo else h - lo if h <= hi else d)
            for l, h in intervals
        ]
    return [
        (l if l <= lo else lo if l <= hi else l - d, h if h <= lo else lo if h <= hi else h - d)
        for l, h in intervals
    ]


def random_intervals(rng, width, count):
    """``count`` seeded non-empty position intervals below ``width``."""
    out = []
    for _ in range(count):
        l = rng.randrange(width)
        out.append((l, rng.randint(l + 1, min(width, l + rng.choice((1, 3, width))))))
    return out


class TestRemovedGaps:
    """``_removed`` against mapping every gap and pass with the reference
    ``_mapped``, which keeps no gap in place."""

    @staticmethod
    def reference(gaps, passes, lo, hi, width):
        return _innermost([
            p if p[0] < p[1] else (width, 0)
            for p in reference_mapped(gaps + passes, lo, hi, False)
        ])

    def test_seeded_draws(self):
        rng = random.Random(4405)
        seen = collections.Counter()
        for draw in range(4000):
            width = rng.randint(2, 40)
            lo = rng.randrange(width)
            hi = rng.randint(lo + 1, min(width, lo + 1 + width // 3))
            if draw % 10 == 0:
                gaps = [(width, 0)]
            else:
                gaps = random_intervals(rng, width, rng.randint(0, 12))
                if draw % 3 == 0:
                    gaps.append((rng.randint(lo, hi - 1), hi))  # emptied by the removal
                gaps = _innermost(gaps)
            passes = []
            for _ in range(rng.choice((0, 0, 1, 2))):
                l = rng.randrange(width)
                passes.append((l, rng.randint(l + 1, width)))
            merged = _innermost(gaps + passes) if passes else gaps
            left = width - (hi - lo)
            got = _removed(merged, lo, hi, left)
            assert got == self.reference(gaps, passes, lo, hi, left), draw
            seen["whole"] += got == [(left, 0)]
            seen["moved"] += any(l >= hi for l, _ in merged if l < width)
            seen["mapped"] += any(l < hi and lo < h for l, h in merged)
        assert min(seen.values()) >= 400, seen

    def test_whole_gaps_take_the_new_width_and_later_gaps_move_down(self):
        assert _removed([(10, 0)], 2, 5, 7) == [(7, 0)]
        assert _removed([(10, 0)], 7, 10, 7) == [(7, 0)]
        assert _removed([(1, 3), (4, 6), (8, 9)], 4, 6, 8) == [(8, 0)]
        assert _removed([(1, 3), (4, 6), (8, 9)], 3, 4, 9) == [(1, 3), (3, 5), (7, 8)]


class TestChunkKeptAsTwoRemovals:
    """Keeping the chunk [lo, hi) as ``ddmin`` does, by removing [hi, width)
    and then [0, lo), against clamping every interval to the chunk in one
    step with the reference ``_mapped``: the same ``held`` and ``gaps``."""

    @staticmethod
    def clamped(held, gaps, chunk_passes, gap_passes, lo, hi):
        left = hi - lo
        held = [p for p in reference_mapped(held + chunk_passes, lo, hi, True) if p[0] < p[1]]
        gaps = _innermost([
            p if p[0] < p[1] else (left, 0)
            for p in reference_mapped(gaps + gap_passes, lo, hi, True)
        ])
        return _outermost(held), gaps

    @staticmethod
    def removed(held, gaps, chunk_passes, gap_passes, lo, hi, width):
        # ddmin's update after a round whose chunk [lo, hi) FAILed.
        held = held + chunk_passes
        if gap_passes:
            gaps = _innermost(gaps + gap_passes)
        for l, h in ((hi, width), (0, lo)):
            width -= h - l
            held = [p for p in _mapped(held, l, h) if p[0] < p[1]]
            gaps = _removed(gaps, l, h, width)
        return _outermost(held), gaps

    def test_seeded_draws(self):
        rng = random.Random(4407)
        seen = collections.Counter()
        for draw in range(4000):
            width = rng.randint(2, 40)
            n = rng.randint(2, width)
            q, r = divmod(width, n)
            i = (0, n - 1, rng.randrange(n))[draw % 3]
            lo = i * q + min(i, r)
            hi = lo + q + (i < r)
            held = _outermost(random_intervals(rng, width, rng.randint(0, 6)))
            chunk_passes = random_intervals(rng, width, rng.choice((0, 0, 1, 2)))
            if draw % 10 == 0:
                gaps = [(width, 0)]
            else:
                gaps = _innermost(random_intervals(rng, width, rng.randint(0, 12)))
            gap_passes = random_intervals(rng, width, rng.choice((0, 0, 1, 2)))
            args = (held, gaps, chunk_passes, gap_passes, lo, hi)
            got = self.removed(*args, width)
            assert got == self.clamped(*args), draw
            seen["lo == 0"] += lo == 0
            seen["hi == width"] += hi == width
            outside = [p for p in held + chunk_passes + gaps + gap_passes if p[1] <= lo or hi <= p[0]]
            seen["emptied"] += bool(outside)
            seen["whole"] += got[1][:1] == [(hi - lo, 0)]
        assert min(seen.values()) >= 400, seen

    def test_edges(self):
        # The whole configuration kept: nothing moves.
        assert self.removed([(0, 3)], [(1, 2)], [], [], 0, 5, 5) == ([(0, 3)], [(1, 2)])
        # A held interval outside the chunk is dropped, a gap outside it
        # becomes the whole gap, and the whole gap takes the new width.
        assert self.removed([(0, 4), (5, 10)], [(1, 2), (4, 5), (7, 8)], [], [], 3, 6, 10) == (
            [(0, 1), (2, 3)], [(3, 0)]
        )
        assert self.removed([], [(10, 0)], [], [], 5, 10, 10) == ([], [(5, 0)])
        # Passes of the round are merged before the removals.
        assert self.removed([], [], [(0, 5)], [(6, 8)], 5, 10, 10) == ([], [(1, 3)])


def reference_round(current, members, n, held, gaps, chunks):
    """``_round`` as it was while ``held`` also kept the chunk passes that
    reach an end of ``current``: a held interval that holds every
    position, and ``head`` and ``tail``, which cover the first and the last
    complement, stood in for the gaps that such passes leave out.  The
    reference for ``_round`` on the same cover with those passes moved
    into ``gaps``."""
    width = len(members)
    q, r = divmod(width, n)
    cut = r * (q + 1)

    def chunk(lo, hi):
        return current & (1 << members[hi - 1] + 1) - (1 << members[lo])

    if held and held[0] == (0, width):
        gaps = [(width, 0)]
    if chunks:
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
    head = bool(held) and held[-1][0] <= q + (r > 0) and held[-1][1] == width
    tail = bool(held) and held[0][0] == 0 and held[0][1] >= width - q
    j, gaps = 0, [*gaps, (width + 1, width + 1)]
    gap_lo, gap_hi = gaps[0]
    bounds = itertools.pairwise(itertools.chain(range(0, cut, q + 1), range(cut, width + 1, q)))
    for lo, hi in bounds:
        while gap_lo < lo:
            j += 1
            gap_lo, gap_hi = gaps[j]
        if not (gap_hi <= hi or lo == 0 and head or hi == width and tail):
            yield current ^ chunk(lo, hi), _COMPLEMENT, lo, hi
    if n == width:
        late = {lo for lo, hi in gaps if hi == lo + 1}
        late.update([0] * head + [width - 1] * tail)
        for lo in range(width) if gaps[0][1] == 0 else sorted(late):
            yield current ^ chunk(lo, lo + 1), _LATE, lo, lo + 1


def moved_to_gaps(width, held, gaps):
    """The cover ``held``, ``gaps`` with each held interval that reaches an
    end replaced by the one interval it leaves out, as ``ddmin`` keeps it."""
    inner, moved = [], []
    for lo, hi in held:
        if (lo, hi) == (0, width):
            moved.append((width, 0))
        elif lo == 0:
            moved.append((hi, width))
        elif hi == width:
            moved.append((0, lo))
        else:
            inner.append((lo, hi))
    return inner, _innermost(gaps + moved)


class TestChunkPassesAtAnEndAreGaps:
    """A chunk pass that reaches an end of ``current`` leaves out a single
    interval, so ``ddmin`` keeps it in ``gaps``; ``held`` keeps only the
    chunk passes that reach neither end."""

    def test_seeded_draws_against_the_reference_round(self):
        rng = random.Random(4408)
        seen = collections.Counter()
        for draw in range(4000):
            width = rng.randint(2, 40)
            n = width if draw % 4 == 0 else rng.randint(2, width)
            held = random_intervals(rng, width, rng.randint(0, 6))
            # Passes that reach an end, most near what head and tail cover.
            if draw % 3 == 0:
                held.append((0, rng.randint(max(1, width - width // n - 1), width)))
            if draw % 5 == 0:
                held.append((rng.randint(0, min(width - 1, width // n + 1)), width))
            held = _outermost(held)
            if draw % 10 == 0:
                gaps = [(width, 0)]
            else:
                gaps = _innermost(random_intervals(rng, width, rng.randint(0, 12)))
            members = sorted(rng.sample(range(2 * width), width))
            current = sum(1 << m for m in members)
            chunks = draw % 7 != 0
            want = list(reference_round(current, members, n, held, gaps, chunks))
            got = list(_round(current, members, n, *moved_to_gaps(width, held, gaps), chunks))
            assert got == want, draw
            # Draws where an end-reaching pass covers a complement that no
            # gap covers: the first, the last, or every one.
            without = {(lo, hi) for _, kind, lo, hi in reference_round(
                current, members, n, [p for p in held if 0 < p[0] and p[1] < width], gaps, chunks
            ) if kind is _COMPLEMENT}
            asked = {(lo, hi) for _, kind, lo, hi in want if kind is _COMPLEMENT}
            seen["held all"] += held[:1] == [(0, width)] and gaps != [(width, 0)]
            seen["first covered"] += (0 in {lo for lo, _ in without - asked}) and held[:1] != [(0, width)]
            seen["last covered"] += (width in {hi for _, hi in without - asked}) and held[:1] != [(0, width)]
            seen["late"] += any(kind is _LATE for _, kind, _, _ in want)
        assert min(seen.values()) >= 100, seen

    def test_held_reaches_neither_end_after_any_update(self, monkeypatch):
        covers = []

        def watched(current, members, n, held, gaps, chunks):
            covers.append((len(members), held))
            return _round(current, members, n, held, gaps, chunks)

        monkeypatch.setattr(core, "_round", watched)
        for draw, (universe, oracle, preload) in enumerate(TestEngineMatchesReference.draws()):
            try:
                ddmin(universe, oracle, EngineOptions(monotone=draw % 2 == 1, preloaded_cache=preload))
            except AxiomViolation:
                pass  # a sparse universe that passes: no round
        assert all(0 < lo and hi < width for width, held in covers for lo, hi in held)
        assert sum(bool(held) for _, held in covers) >= 200

    def test_a_chunk_pass_that_reaches_an_end_only_after_a_removal(self):
        # At granularity 4 over {0, ..., 5} the chunk {2, 3} passes, at
        # positions [2, 4), and the complement {2, ..., 5} FAILs.  Removing
        # {0, 1} moves the pass to [0, 2), the start, so it becomes the gap
        # [2, 4).  Once {4} is gone too, the round at granularity 2 over
        # {2, 3, 5} finds both its complements covered, {2, 3} by that gap,
        # and asks neither.
        result = ddmin(Configuration.full(6), conjunction(6, [2, 5]))
        asked = [(rec.granularity, rec.config.members) for rec in result.log.records[2:]]
        assert asked == [
            (2, (0, 1, 2)), (2, (3, 4, 5)), (2, (3, 4, 5)), (2, (0, 1, 2)),
            (4, (2, 3)), (4, (2, 3, 4, 5)), (3, (2, 3, 5)), (3, (2, 5)), (2, (5,)), (2, (2,)),
        ]
        assert result.final == cfg(6, 2, 5)
        assert result.verified_1_minimal is True


def bracket(n, causes):
    """UNRESOLVED whenever a pair (2i, 2i + 1) is split, else FAIL iff every
    cause is included: an invalid input inside a passing one never FAILs."""
    need = sum(1 << c for c in causes)
    low = sum(1 << i for i in range(0, n - 1, 2))  # the first id of each pair

    def evaluate(config):
        bits = config.bits
        if (bits ^ bits >> 1) & low:
            return Outcome.UNRESOLVED
        return Outcome.FAIL if bits & need == need else Outcome.PASS

    return evaluate


def suppressor(causes, suppressed, unless):
    """FAIL iff every cause is included and ``suppressed`` is not, unless
    ``unless`` is: removing ``suppressed`` from a passing set can FAIL."""
    need = sum(1 << c for c in causes)

    def evaluate(config):
        bits = config.bits
        if bits & need != need:
            return Outcome.PASS
        if bits >> suppressed & 1 and not bits >> unless & 1:
            return Outcome.PASS
        return Outcome.FAIL

    return evaluate


class TestSkippedChunksAgainstClassic:
    """Seeded differential of ``ddmin`` against the classic reference, which
    asks every candidate."""

    @staticmethod
    def run_both(n, oracle):
        new, old = CountingOracle(oracle), CountingOracle(oracle)
        result = ddmin(Configuration.full(n), new)
        classic = reference_ddmin(Configuration.full(n), old, EngineOptions(), classic=True)
        return result, new.calls, classic, old.calls

    @staticmethod
    def fails(log):
        return [rec.config for rec in log if rec.outcome == Outcome.FAIL]

    def test_same_reductions_and_no_more_calls_where_nothing_inside_a_pass_fails(self):
        rng = random.Random(2416)
        calls = collections.Counter()
        for i in range(280):
            n = rng.randint(2, 120)
            family = i % 7
            if family == 0:
                oracle = single_cause(n, rng.randrange(n))
            elif family == 1:
                k = rng.randint(1, min(n, 6))
                start = rng.randint(0, n - k)
                oracle = conjunction(n, list(range(start, start + k)))
            elif family == 2:
                oracle = conjunction_spread(n, rng.randint(1, min(n, 8)))
            elif family == 3:
                oracle = conjunction(n, rng.sample(range(n), rng.randint(1, min(n, 6))))
            elif family == 4:
                oracle = random_monotone(n, seed=7000 + i)
            elif family == 5:
                oracle = adversarial(n)
            else:
                n += n % 2
                oracle = bracket(n, rng.sample(range(n), rng.randint(1, 3)))
            result, new_calls, classic, old_calls = self.run_both(n, oracle)
            assert result.final == classic.final, i
            assert self.fails(result.log) == self.fails(classic.log), i
            assert new_calls <= old_calls, i
            assert result.verified_1_minimal is classic.verified_1_minimal is True
            calls["new", family] += new_calls
            calls["classic", family] += old_calls
        # Single causes halve without a covered candidate to skip; every
        # other family asks fewer.
        assert calls["new", 0] == calls["classic", 0]
        assert all(calls["new", f] < calls["classic", f] for f in range(1, 7))

    def test_results_stay_1_minimal_where_something_inside_a_pass_fails(self):
        rng = random.Random(2417)
        for i in range(160):
            if i % 2:
                n = rng.randint(5, 12)
                oracle = random_table(n, seed=9500 + i)
            else:
                n = rng.randint(4, 40)
                suppressed, unless, *causes = rng.sample(range(n), rng.randint(3, min(n, 5)))
                oracle = suppressor(causes, suppressed, unless)
            result = ddmin(Configuration.full(n), oracle)
            assert as_oracle(oracle).evaluate(result.final) == Outcome.FAIL
            assert verify_n_minimal(result.final, oracle, 1)
            assert result.verified_1_minimal is not False


class TestScan:
    """``EngineOptions(scan=True)``: the run starts at singleton granularity
    and asks only complements, until two FAILs in a row send it on as
    ddmin from n = 2."""

    @staticmethod
    def scanned(log, universe):
        """How many records after the axiom checks belong to the scan.  Each
        must ask the current configuration minus one delta, at singleton
        granularity, and the scan ends right after two FAILs in a row."""
        current, last_fail = universe.bits, None
        records = log.records[2:]
        for k, rec in enumerate(records):
            removed = current & ~rec.config.bits
            assert rec.config.bits | removed == current and removed.bit_count() == 1, k
            assert rec.granularity == current.bit_count(), k
            if rec.outcome is Outcome.FAIL:
                current = rec.config.bits
                if last_fail == k - 1:
                    return k + 1
                last_fail = k
        return len(records)

    def test_monotone_and_bracket_families(self):
        # The families of TestSkippedChunksAgainstClassic, where nothing
        # inside a passing configuration fails.
        rng = random.Random(2418)
        fell_back = collections.Counter()
        for i in range(280):
            n = rng.randint(2, 120)
            family = i % 7
            if family == 0:
                oracle = single_cause(n, rng.randrange(n))
            elif family == 1:
                k = rng.randint(1, min(n, 6))
                start = rng.randint(0, n - k)
                oracle = conjunction(n, list(range(start, start + k)))
            elif family == 2:
                oracle = conjunction_spread(n, rng.randint(1, min(n, 8)))
            elif family == 3:
                oracle = conjunction(n, rng.sample(range(n), rng.randint(1, min(n, 6))))
            elif family == 4:
                oracle = random_monotone(n, seed=7000 + i)
            elif family == 5:
                oracle = adversarial(n)
            else:
                n += n % 2
                oracle = bracket(n, rng.sample(range(n), rng.randint(1, min(n, 3))))
            universe = Configuration.full(n)
            result = ddmin(universe, oracle, EngineOptions(scan=True))
            assert as_oracle(oracle).evaluate(result.final) == Outcome.FAIL, i
            assert verify_n_minimal(result.final, oracle, 1), i
            assert result.verified_1_minimal is True, i
            assert result.log.test_counts()[0] <= n * n + 3 * n, i
            scanned = self.scanned(result.log, universe)
            fell_back[scanned < len(result.log) - 2] += 1
        assert fell_back[True] > 100 and fell_back[False] > 50

    def test_a_lone_removable_delta_does_not_end_the_scan(self):
        # Only delta 3 can go.  The scan asks the complements in order,
        # removes 3 and goes on from 4; the complements of 0, 1 and 2 lie
        # inside passes, so they come last.
        oracle = CountingOracle(conjunction(8, [0, 1, 2, 4, 5, 6, 7]))
        result = ddmin(Configuration.full(8), oracle, EngineOptions(scan=True))
        assert result.final == cfg(8, 0, 1, 2, 4, 5, 6, 7)
        asked = [(rec.granularity, rec.config.members) for rec in result.log.records[2:]]
        removed = [sorted(set(range(8)) - set(config)) for _, config in asked]
        assert removed == [[0], [1], [2], [3], [3, 4], [3, 5], [3, 6], [3, 7], [0, 3], [1, 3], [2, 3]]
        assert [g for g, _ in asked] == [8] * 4 + [7] * 7
        assert oracle.calls == 2 + 11
        assert result.verified_1_minimal is True

    def test_two_removable_deltas_in_a_row_fall_back_to_bisection(self):
        # Deltas 1 and 2 go one by one; the scan would then ask 61 more
        # complements to find each of 3 .. 62.  From n = 2 the run halves
        # instead, and the passing complement without 0 still covers every
        # chunk that lacks delta 0.
        universe = Configuration.full(64)
        result = ddmin(universe, conjunction(64, [0, 63]), EngineOptions(scan=True))
        assert result.final == cfg(64, 0, 63)
        records = result.log.records
        assert [(r.config, r.outcome) for r in records[2:5]] == [
            (universe.without([0]), Outcome.PASS),
            (universe.without([1]), Outcome.FAIL),
            (universe.without([1, 2]), Outcome.FAIL),
        ]
        assert self.scanned(result.log, universe) == 3
        assert records[5].granularity == 2
        classic = ddmin(universe, conjunction(64, [0, 63]))
        assert result.log.test_counts()[0] <= classic.log.test_counts()[0] + 3
        assert result.verified_1_minimal is True

    def test_every_delta_needed_costs_one_test_each(self):
        oracle = CountingOracle(conjunction(40, list(range(40))))
        result = ddmin(Configuration.full(40), oracle, EngineOptions(scan=True))
        assert result.final == Configuration.full(40)
        assert result.log.test_counts() == (40, 0, 2) and oracle.calls == 42
        classic = ddmin(Configuration.full(40), conjunction(40, list(range(40))))
        assert classic.log.test_counts()[0] > 40


class TestCoveredComplements:
    """A complement that lies inside a PASS of an earlier round is asked
    only at singleton granularity, after every other candidate, whether or
    not the run asked it before."""

    def test_skipped_though_asked_before(self):
        counting = CountingOracle(conjunction(8, [2, 5]))
        result = ddmin(Configuration.full(8), counting)
        # At granularity 3 over {2, ..., 7}, the complement {4, 5, 6, 7} is
        # the chunk that passed at granularity 2: no record, not even an
        # exact-cache one.
        asked = [(rec.granularity, rec.config) for rec in result.log]
        assert (2, cfg(8, 4, 5, 6, 7)) in asked and (3, cfg(8, 4, 5, 6, 7)) not in asked
        assert len(result.log) == 14
        assert result.log.test_counts()[0] == 10 and counting.calls == 12
        assert result.final == cfg(8, 2, 5)

    def test_skipped_until_singleton_granularity(self):
        result = ddmin(Configuration.full(6), adversarial(6))
        asked = [(rec.granularity, rec.config) for rec in result.log]
        # At granularity 3 over {0, 1, 2, 3, 5}, the complements {2, 3, 5}
        # and {0, 1, 5} lie inside {2, 3, 4, 5} and {0, 1, 4, 5}, which
        # passed at granularity 4; {0, 1, 2, 3} lies inside no pass.
        assert (4, cfg(6, 2, 3, 4, 5)) in asked and (4, cfg(6, 0, 1, 4, 5)) in asked
        assert (3, cfg(6, 0, 1, 2, 3)) in asked
        assert (3, cfg(6, 2, 3, 5)) not in asked and (3, cfg(6, 0, 1, 5)) not in asked
        # The last round over {1, 3, 5} finds all three complements covered
        # and asks them, in order, so that the result is tested 1-minimal.
        assert asked[-3:] == [(3, cfg(6, 3, 5)), (3, cfg(6, 1, 5)), (3, cfg(6, 1, 3))]
        assert result.final == cfg(6, 1, 3, 5)
        assert result.verified_1_minimal is True

    @pytest.mark.parametrize("monotone, source, verified", [
        (False, SOURCE_ORACLE, True), (True, SOURCE_MONOTONY, None),
    ])
    def test_asked_after_the_other_candidates_of_the_last_round(self, monotone, source, verified):
        result = ddmin(
            Configuration.full(5), conjunction(5, [0, 1, 2, 3]), EngineOptions(monotone=monotone)
        )
        assert result.final == cfg(5, 0, 1, 2, 3)
        # The last round's chunks lie inside passes; of its complements,
        # {0, 1, 3} lies inside {0, 1, 3, 4}, which passed at granularity
        # 4, and {0, 1, 2} is the chunk that passed at granularity 2.  Both
        # come last, in list order, {0, 1, 2} from the exact cache.
        last = [(rec.config, rec.source) for rec in result.log if rec.granularity == 4][-4:]
        assert last == [
            (cfg(5, 1, 2, 3), SOURCE_ORACLE), (cfg(5, 0, 2, 3), SOURCE_ORACLE),
            (cfg(5, 0, 1, 3), source), (cfg(5, 0, 1, 2), SOURCE_EXACT_CACHE),
        ]
        assert result.verified_1_minimal is verified


class TestVerifiedFromLog:
    """``verified_1_minimal`` is read off the run log; no oracle call."""

    @staticmethod
    def draws():
        rng = random.Random(31)
        for i in range(300):
            n = rng.randint(1, 12)
            yield random_table(n, seed=5000 + i)
            yield random_monotone(n, seed=6000 + i)

    def test_matches_the_reference_without_monotony(self):
        for oracle in self.draws():
            counting = CountingOracle(oracle)
            result = ddmin(Configuration.full(oracle.universe_size), counting)
            log = result.log
            oracle_tests, _, axiom_tests = log.test_counts()
            assert counting.calls == oracle_tests + axiom_tests
            assert result.verified_1_minimal is True
            assert result.verified_1_minimal == verify_n_minimal(result.final, oracle, 1)

    def test_monotony_answers_are_never_reported_as_proof(self):
        unproved = 0
        for oracle in self.draws():
            result = ddmin(
                Configuration.full(oracle.universe_size), oracle,
                EngineOptions(monotone=True),
            )
            reference = verify_n_minimal(result.final, oracle, 1)
            assert result.verified_1_minimal in (True, None)
            if not reference:
                assert result.verified_1_minimal is None
            unproved += result.verified_1_minimal is None
        assert unproved > 0


class TestDdminProperty:
    """Randomized postcondition check over monotone and arbitrary families."""

    def test_result_fails_and_is_1_minimal(self):
        rng = random.Random(2026)
        for i in range(120):
            n = rng.randint(2, 12)
            if i % 2 == 0:
                oracle = random_monotone(n, seed=3000 + i)
            else:
                oracle = random_table(n, seed=4000 + i)
            result = ddmin(Configuration.full(n), oracle)
            assert oracle.evaluate(result.final) == Outcome.FAIL
            assert verify_n_minimal(result.final, oracle, 1)
