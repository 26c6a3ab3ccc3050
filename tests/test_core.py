import collections
import dataclasses
import itertools
import random

import pytest

from deltadebug import (
    AxiomViolation,
    Configuration,
    EngineOptions,
    Outcome,
    PassOracle,
    ddmin,
)
from deltadebug.core import (
    SOURCE_AXIOM,
    SOURCE_EXACT_CACHE,
    SOURCE_FEASIBILITY,
    SOURCE_MONOTONY,
    SOURCE_ORACLE,
    MinimizationResult,
    RunLog,
    TestRecord,
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

    def test_equality_is_member_list_equality(self):
        assert cfg(8, 1, 2) == cfg(8, 2, 1)
        assert cfg(8, 1, 2) != cfg(9, 1, 2)
        assert cfg(8, 1, 2) != cfg(8, 1, 3)

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


class TestDdmin:
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

    def test_preloaded_pass_covers_subsets_only_once_asked(self):
        oracle = conjunction(8, [0, 7])
        asked = cfg(8, 0, 1, 2, 3)
        # {0..6} passes but is never asked: it covers no later question.
        unasked = cfg(8, 0, 1, 2, 3, 4, 5, 6)
        counting = CountingOracle(oracle)
        result = ddmin(
            Configuration.full(8), counting,
            EngineOptions(monotone=True, preloaded_cache={unasked.bits: Outcome.PASS}),
        )
        records = first_records(result.log)
        assert unasked.bits not in records
        assert records[asked.bits].source == SOURCE_ORACLE
        # {0..3} is asked first and answered from the preload, never
        # invoked; from then on it covers its subsets: they are skipped, or
        # answered by monotony in the last round.
        counting = CountingOracle(oracle)
        result = ddmin(
            Configuration.full(8), counting,
            EngineOptions(monotone=True, preloaded_cache={asked.bits: Outcome.PASS}),
        )
        records = result.log.records
        at = [rec.config for rec in records].index(asked)
        assert records[at].source == SOURCE_EXACT_CACHE
        assert records[at].duration_ms == 0.0  # a preloaded answer is untimed
        covered = [
            rec for rec in records[at + 1:]
            if rec.config.bits & asked.bits == rec.config.bits
            and rec.source != SOURCE_EXACT_CACHE
        ]
        assert {rec.config for rec in covered} == {cfg(8, 0)}
        assert all(rec.source == SOURCE_MONOTONY for rec in covered)
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
    a PASS candidate of any earlier round.  A covered chunk is skipped, and
    so is a covered complement, except in a round at granularity
    ``len(current)``: it asks its covered complements after every other
    candidate, answered PASS by monotony if ``opts.monotone``.  With
    ``classic`` every candidate is asked in the paper's order.
    """
    oracle = as_oracle(oracle)
    preload = opts.preloaded_cache or {}
    log = RunLog(universe.universe_size)
    answered = {}  # configuration -> its first record
    passed = []  # member sets of the PASS candidates of the earlier rounds
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
