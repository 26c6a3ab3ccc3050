"""The pass driver: each pass's deltas mapped to the run's input ids."""

import dataclasses
import itertools
import random

import pytest

from deltadebug import (
    AxiomViolation, Configuration, EngineOptions, Outcome, Pass, PassOracle, core, ddmin,
    run_passes,
)
from deltadebug.changes import (
    ChangeSet, minimize_changes, parse_dependencies, parse_group_map, split_unified_diff,
)
from deltadebug.core import (
    SOURCE_AXIOM, SOURCE_EXACT_CACHE, SOURCE_FEASIBILITY, SOURCE_MONOTONY, SOURCE_ORACLE,
    MinimizationResult, RunLog,
)
from deltadebug.inputmin import minimize_input
from deltadebug.oracles import conjunction
from deltadebug.proc import CommandOracleSpec
from deltadebug.toylang import parse_program
from deltadebug.tracered import OutputExpectation, reduce_trace
from support import minimized


def needs(*input_ids):
    """A step's oracle over ``ids``: FAIL iff the configuration's deltas
    stand for all of ``input_ids``."""
    def make(ids):
        def oracle(config):
            present = set(itertools.chain.from_iterable(ids[i] for i in config.members))
            return Outcome.FAIL if set(input_ids) <= present else Outcome.PASS
        return oracle
    return make


class TestRunPasses:
    def test_kept_is_ascending_input_ids_whatever_the_grouping(self):
        groups = [(5, 1), (7, 0), (11, 3, 9), (2, 4, 6, 8, 10)]
        make_oracle = needs(3, 7)
        passes = run_passes(range(12), [
            lambda kept: ("groups", groups, make_oracle(groups)),
            lambda kept: ("members", [(i,) for i in kept], make_oracle([(i,) for i in kept])),
        ])
        assert [p.label for p in passes] == ["groups", "members"]
        assert passes[0].result.final.members == (1, 2)
        assert passes[0].kept == (0, 3, 7, 9, 11)
        assert passes[1].kept == (3, 7)

    def test_a_later_pass_starts_from_the_kept_ids_with_both_axiom_answers(self):
        seen = []

        def step(kept):
            seen.append(kept)
            ids = [(i,) for i in kept]
            return "pass", ids, needs(4)(ids)

        passes = run_passes(range(6), [step, step], EngineOptions(monotone=True))
        assert seen == [range(6), (4,)]
        assert passes[1].result.log.universe_size == 1
        head = [(r.source, r.outcome) for r in passes[1].result.log.records]
        assert head == [(SOURCE_EXACT_CACHE, Outcome.PASS), (SOURCE_EXACT_CACHE, Outcome.FAIL)]

    def test_an_axiom_violation_names_its_pass(self):
        step = lambda kept: ("trace", [(i,) for i in kept], lambda config: Outcome.PASS)
        with pytest.raises(AxiomViolation, match="^trace pass: the full configuration") as info:
            run_passes(range(3), [step])
        assert [r.config.bits for r in info.value.log] == [0, 0b111]

    def test_kept_of_an_empty_result(self):
        result = MinimizationResult(Configuration(2), RunLog(2))
        assert Pass("p", result, [(0,), (1,)]).kept == ()


def first_by_input_ids(p: Pass) -> dict[frozenset, object]:
    """The first record of each configuration of pass ``p``, keyed by the
    input ids it stands for."""
    first = {}
    for record in p.result.log.records:
        ids = frozenset(itertools.chain.from_iterable(p.ids[d] for d in record.config.members))
        first.setdefault(ids, record)
    return first


def singletons(make_oracle):
    return lambda kept: ("members", [(i,) for i in kept], make_oracle([(i,) for i in kept]))


class TestCarriedAnswers:
    def test_a_later_pass_takes_every_answer_an_earlier_pass_tested(self):
        # Both groups pass, so the members pass starts from all six ids.
        # Its first chunks are the two groups, carried PASSes that cover
        # from the start: the round at granularity 2 asks nothing.
        groups = [(0, 1, 2), (3, 4, 5)]
        calls = []

        def counted(ids):
            oracle = needs(0, 3)(ids)
            return lambda config: calls.append(config) or oracle(config)

        passes = run_passes(range(6), [
            lambda kept: ("groups", groups, counted(groups)),
            singletons(counted),
        ])
        assert passes[0].kept == tuple(range(6))
        head = passes[1].result.log.records[:3]
        assert [(r.config.members, r.granularity, r.outcome, r.source) for r in head] == [
            ((), 0, Outcome.PASS, SOURCE_EXACT_CACHE),
            ((0, 1, 2, 3, 4, 5), 0, Outcome.FAIL, SOURCE_EXACT_CACHE),
            ((2, 3), 4, Outcome.PASS, SOURCE_ORACLE),
        ]
        assert all(r.duration_ms == 0.0 for r in head[:2])
        asked = first_by_input_ids(passes[1])
        assert frozenset({0, 1, 2}) not in asked and frozenset({3, 4, 5}) not in asked
        assert passes[1].kept == (0, 3)
        # One oracle call per oracle and axiom record, over both passes.
        counts = [p.result.log.test_counts() for p in passes]
        assert len(calls) == sum(oracle + axiom for oracle, _, axiom in counts)

    def test_a_monotony_answer_is_not_carried(self):
        # Pass 1 answers {0} and {2} by monotony; pass 2, over {0, 2},
        # tests them.
        step = singletons(needs(0, 2))
        passes = run_passes(range(4), [step, step], EngineOptions(monotone=True))
        earlier, later = map(first_by_input_ids, passes)
        for ids in (frozenset({0}), frozenset({2})):
            assert earlier[ids].source == SOURCE_MONOTONY
            assert later[ids].source == SOURCE_ORACLE

    def test_a_feasibility_reject_is_not_carried(self):
        # Input id 0 requires 1: pass 1 rejects {0}, and so does pass 2.
        def step(kept):
            ids = [(i,) for i in kept]
            return "members", ids, PassOracle(needs(0, 1)([(i,) for i in range(3)]), 3, ids, {0: {1}})

        passes = run_passes(range(3), [step, step])
        earlier, later = map(first_by_input_ids, passes)
        assert earlier[frozenset({0})].source == SOURCE_FEASIBILITY
        assert later[frozenset({0})].source == SOURCE_FEASIBILITY

    def test_a_run_of_one_pass_takes_the_preloaded_cache(self):
        # {0, 1}, the first chunk, covers from the start: only {2} is asked.
        preload = {0b011: Outcome.PASS}
        passes = run_passes(range(3), [singletons(needs(2))], EngineOptions(preloaded_cache=preload))
        records = [(r.config.bits, r.source) for r in passes[0].result.log.records]
        assert records == [(0, SOURCE_AXIOM), (0b111, SOURCE_AXIOM), (0b100, SOURCE_ORACLE)]


def axiom_only_passes(input_ids, steps, options=None):
    """The pass driver as it was before answers were carried: a later pass
    took only both axiom answers from the pass before it."""
    passes, kept = [], input_ids
    for step in steps:
        label, ids, oracle = step(kept)
        universe = Configuration.full(len(ids))
        if passes:
            options = dataclasses.replace(
                options or EngineOptions(),
                preloaded_cache={0: Outcome.PASS, universe.bits: Outcome.FAIL},
            )
        passes.append(Pass(label, ddmin(universe, oracle, options), ids))
        kept = passes[-1].kept
    return passes


def random_steps(rng: random.Random, input_ids: list[int], count: int, unresolved: bool):
    """``count`` steps, each cutting the kept ids, shuffled, into random
    groups, and an oracle over input-id sets: FAIL iff the set holds
    ``input_ids``, else PASS or, with ``unresolved``, for some sets
    UNRESOLVED."""
    salt = rng.getrandbits(32)

    def answer(present: frozenset) -> Outcome:
        if present >= frozenset(input_ids):
            return Outcome.FAIL
        if unresolved and present and hash((salt, present)) % 5 == 0:
            return Outcome.UNRESOLVED
        return Outcome.PASS

    def make_step(seed: int):
        def step(kept):
            order = list(kept)
            random.Random(seed).shuffle(order)
            cuts = sorted(random.Random(seed + 1).sample(range(1, len(order)), min(len(order) - 1, 3)))
            ids = [tuple(order[lo:hi]) for lo, hi in zip([0, *cuts], [*cuts, len(order)])]

            def oracle(config):
                return answer(frozenset(itertools.chain.from_iterable(ids[d] for d in config.members)))
            return "pass", ids, oracle
        return step

    return [make_step(rng.getrandbits(32)) for _ in range(count)]


def fails_in_order(p: Pass) -> list:
    return [r.config for r in p.result.log.records if r.outcome == Outcome.FAIL]


def oracle_records(p: Pass) -> int:
    return p.result.log.test_counts()[0]


def witnesses(p: Pass) -> list:
    """The first record of the final and of each final minus one member."""
    first = {}
    for record in p.result.log.records:
        first.setdefault(record.config.bits, record)
    final = p.result.final
    return [first.get(final.bits)] + [first.get(final.bits ^ 1 << m) for m in final.members]


def test_carried_answers_keep_results_seeded():
    # A carried PASS that leaves out at most one interval of the next
    # pass's deltas covers from the start of that pass, so a later pass
    # may skip tests, but never FAIL ones: each pass keeps its final,
    # verified flag and FAILs in order.
    rng = random.Random(20261019)
    passes = fewer = 0
    for _ in range(300):
        universe = rng.randint(2, 40)
        needed = rng.sample(range(universe), rng.randint(1, min(universe, 4)))
        steps = random_steps(rng, needed, rng.randint(2, 4), unresolved=True)
        before, after = axiom_only_passes(range(universe), steps), run_passes(range(universe), steps)
        assert len(before) == len(after)
        for old, new in zip(before, after):
            assert new.result.final == old.result.final
            assert new.result.verified_1_minimal == old.result.verified_1_minimal
            assert fails_in_order(new) == fails_in_order(old)
            assert oracle_records(new) <= oracle_records(old)
            passes += 1
            fewer += oracle_records(new) < oracle_records(old)
    assert (passes, fewer) == (920, 113)


def test_carried_answers_under_monotony_seeded():
    # Under monotony a later pass may answer from an earlier pass's test
    # what monotony would have assumed, which can make the result tested
    # 1-minimal; or a carried PASS covers a last-round complement that was
    # tested, which monotony then assumes, and the result is no longer
    # tested 1-minimal, which ``verified_1_minimal`` reports as null.
    rng = random.Random(7)
    assumed = 0
    for _ in range(200):
        universe = rng.randint(2, 40)
        needed = rng.sample(range(universe), rng.randint(1, min(universe, 4)))
        steps = random_steps(rng, needed, rng.randint(2, 4), unresolved=False)
        options = EngineOptions(monotone=True)
        before, after = axiom_only_passes(range(universe), steps, options), run_passes(range(universe), steps, options)
        for old, new in zip(before, after):
            assert new.result.final == old.result.final
            assert fails_in_order(new) == fails_in_order(old)
            assert oracle_records(new) <= oracle_records(old)
            was, now = old.result.verified_1_minimal, new.result.verified_1_minimal
            if (was, now) == (True, None):
                assert any(
                    a.source != SOURCE_MONOTONY and b.source == SOURCE_MONOTONY
                    for a, b in zip(witnesses(old), witnesses(new))
                )
                assumed += 1
            else:
                assert now in (was, True)
    assert assumed == 7


def two_pass_steps(units: list[tuple[int, ...]], causes: list[int]):
    """A groups pass over ``units``, then a members pass over what it kept,
    both through ``PassOracle`` over a monotone oracle: FAIL iff every
    input id in ``causes`` is present."""
    size = sum(map(len, units))
    oracle = conjunction(size, causes)

    def members(kept):
        ids = [(i,) for i in kept]
        return "members", ids, PassOracle(oracle, size, ids)

    return size, [lambda kept: ("groups", units, PassOracle(oracle, size, units)), members]


def units_of(lengths: list[int]) -> list[tuple[int, ...]]:
    bounds = list(itertools.accumulate(lengths, initial=0))
    return [tuple(range(lo, hi)) for lo, hi in itertools.pairwise(bounds)]


def grouped_runs(rng: random.Random, count: int):
    # Files of changes, and 2-4 causes among the changes.
    for _ in range(count):
        units = units_of([rng.randint(1, 6) for _ in range(rng.randint(2, 8))])
        size = units[-1][-1] + 1
        yield two_pass_steps(units, rng.sample(range(size), rng.randint(2, min(4, size))))


def line_char_runs(rng: random.Random, count: int):
    # Lines of characters, and one cause on each of 2-8 lines.
    for _ in range(count):
        units = units_of([rng.randint(1, 40) for _ in range(rng.randint(2, 16))])
        lines = rng.sample(units, rng.randint(2, min(8, len(units))))
        yield two_pass_steps(units, [rng.choice(line) for line in lines])


@pytest.mark.parametrize("runs, seed, count, totals", [
    (grouped_runs, 35, 800, (10391, 8451)),
    (line_char_runs, 36, 1200, (45487, 38344)),
], ids=["files-changes", "lines-chars"])
def test_carried_passes_cut_later_pass_tests_seeded(runs, seed, count, totals):
    # Each run against the same run given only the axiom answers: the same
    # results, and never more tests of the oracle in either pass.  The
    # totals are the members pass's oracle tests, without and with carried
    # answers.
    tested = [0, 0]
    for size, steps in runs(random.Random(seed), count):
        before, after = axiom_only_passes(range(size), steps), run_passes(range(size), steps)
        for old, new in zip(before, after, strict=True):
            assert new.result.final == old.result.final
            assert new.result.verified_1_minimal == old.result.verified_1_minimal
            assert oracle_records(new) <= oracle_records(old)
        tested[0] += oracle_records(before[1])
        tested[1] += oracle_records(after[1])
    assert tuple(tested) == totals


@pytest.fixture
def two_token_spec(make_script, workspace_root):
    # FAIL iff the candidate holds both planted tokens.
    script = make_script('grep -q AB "$1" && grep -q CD "$1"')
    return CommandOracleSpec(argv=[script], workspace_root=workspace_root)


def seeded_input(seed: int, lines: int, odd: bytes = b"") -> bytes:
    """``lines`` lines of seeded words, some with multi-byte characters;
    two of them hold the planted tokens AB and CD, each next to ``odd``."""
    rng = random.Random(seed)
    words = ["ab", "cd", "é", "玉", "x", "yz", "b", "c"]
    rows = [" ".join(rng.choice(words) for _ in range(3)).encode() for _ in range(lines)]
    first, second = rng.sample(range(lines), 2)
    rows[first] += b" " + odd + b"AB"
    rows[second] = b"CD" + odd + b" " + rows[second]
    return b"".join(row + b"\n" for row in rows)


def check_input_ids(data: bytes, outcome) -> None:
    # Each pass's ids split what the pass before it kept, in order.
    kept = tuple(range(len(data)))
    for p in outcome.passes:
        assert tuple(itertools.chain.from_iterable(p.ids)) == kept
        assert set(p.kept) <= set(kept)
        kept = p.kept


@pytest.mark.parametrize("seed", [1, 2, 3])
class TestInputIds:
    def test_line_then_char(self, seed, two_token_spec):
        data = seeded_input(seed, 12)
        outcome = minimize_input(data, two_token_spec)
        assert [p.label for p in outcome.passes] == ["line", "char"]
        assert minimized(data, outcome) in (b"ABCD", b"CDAB")
        check_input_ids(data, outcome)

    def test_char_only(self, seed, two_token_spec):
        data = seeded_input(seed, 3)
        outcome = minimize_input(data, two_token_spec, schedule=["char"])
        assert minimized(data, outcome) in (b"ABCD", b"CDAB")
        check_input_ids(data, outcome)

    def test_byte_fallback_over_bytes_that_are_not_utf8(self, seed, two_token_spec):
        data = seeded_input(seed, 12, odd=b"\xff")
        outcome = minimize_input(data, two_token_spec)
        assert [p.label for p in outcome.passes] == ["line", "byte"]
        assert minimized(data, outcome) in (b"ABCD", b"CDAB")
        check_input_ids(data, outcome)


def test_change_ids_through_a_group_map_out_of_id_order(two_cause_changes, workspace_root):
    # Group p holds changes 0, 4, 5 and 10, listed out of order, ahead of
    # group q's 1 and 2; the group pass keeps both groups.
    baseline, diff, deps, test = two_cause_changes
    changeset = ChangeSet(tuple(split_unified_diff(diff)), parse_dependencies(deps))
    group_map = parse_group_map(
        "10\tp\n1\tq\n5\tp\n0\tp\n2\tq\n4\tp\n"
        + "".join(f"{i}\tr\n" for i in (11, 3, 9, 6, 8, 7))
    )
    spec = CommandOracleSpec(argv=[test], workspace_root=workspace_root)
    outcome = minimize_changes(baseline, changeset, spec, groups=group_map)
    groups, changes = outcome.passes
    assert [list(ids) for ids in groups.ids] == [[0, 4, 5, 10], [1, 2], [3, 6, 7, 8, 9, 11]]
    assert groups.result.final.members == (0, 1)
    assert groups.kept == (0, 1, 2, 4, 5, 10)
    assert set(changes.kept) <= set(groups.kept)
    # The only 1-minimal failing set closed under the dependencies.
    assert changes.kept == (1, 2, 4, 5, 10)


def spawned(passes) -> int:
    """The oracle and axiom records of a run: one process each."""
    counts = [p.result.log.test_counts() for p in passes]
    return sum(oracle + axiom for oracle, _, axiom in counts)


class TestNoScenarioRunsTwice:
    def test_the_char_pass_takes_the_line_answers(self, make_script, workspace_root, tmp_path):
        counter = tmp_path / "runs"
        script = make_script(f'printf x >> {counter}; grep -q A "$1" && grep -q B "$1"')
        spec = CommandOracleSpec(argv=[script], workspace_root=workspace_root)
        data = b"xA\nyB\n"
        outcome = minimize_input(data, spec)
        line, char = outcome.passes
        assert line.kept == tuple(range(6))
        # The char pass's first chunks are the two lines, which passed in
        # the line pass and cover from the start: no record, no process.
        assert [r.granularity for r in char.result.log.records[:3]] == [0, 0, 4]
        asked = first_by_input_ids(char)
        assert frozenset({0, 1, 2}) not in asked and frozenset({3, 4, 5}) not in asked
        assert minimized(data, outcome) == b"AB"
        assert len(counter.read_bytes()) == spawned(outcome.passes)

    def test_a_grouped_change_run_spawns_once_per_record(
        self, two_cause_changes, make_script, workspace_root, tmp_path
    ):
        baseline, diff, _, test = two_cause_changes
        counter = tmp_path / "runs"
        script = make_script(f'printf x >> {counter}; exec {test} "$1"')
        spec = CommandOracleSpec(argv=[script], workspace_root=workspace_root)
        changeset = ChangeSet(tuple(split_unified_diff(diff)))
        outcome = minimize_changes(baseline, changeset, spec, groups="file")
        groups, changes = outcome.passes
        assert groups.kept == (0, 1, 2, 3, 8, 9, 10, 11)
        # The changes pass's first chunks are the groups of lib/a.txt and
        # main/c.txt, which passed in the groups pass and cover from the
        # start: neither is asked again.
        first = first_by_input_ids(changes)
        for ids in ((0, 1, 2, 3), (8, 9, 10, 11)):
            assert frozenset(ids) not in first
        assert changes.kept == (2, 10)
        assert len(counter.read_bytes()) == spawned(outcome.passes)


@pytest.fixture
def id_map_builds(monkeypatch):
    """The number of ``_IdMap`` tables built, by ``PassOracle`` and by
    ``run_passes`` alike."""
    builds = []

    class Counted(core._IdMap):
        def __init__(self, *args):
            builds.append(args)
            super().__init__(*args)

    monkeypatch.setattr(core, "_IdMap", Counted)
    return builds


class TestOneIdMapPerPass:
    def test_pass_oracles_lend_their_map(self, id_map_builds):
        # The README's groups/members example: one map per pass oracle, none
        # built again by run_passes.
        needs_3_and_7 = needs(3, 7)([(i,) for i in range(12)])

        def groups(kept):
            ids = [(5, 1), (7, 0), (11, 3, 9), (2, 4, 6, 8, 10)]
            return "groups", ids, PassOracle(needs_3_and_7, 12, ids)

        def members(kept):
            ids = [(i,) for i in kept]
            return "members", ids, PassOracle(needs_3_and_7, 12, ids)

        first, second = run_passes(range(12), [groups, members])
        assert second.kept == (3, 7)
        assert len(id_map_builds) == 2

    def test_a_desk_trace_run_builds_one_map_per_pass(self, id_map_builds, sample_source):
        # The slice pass's map is its PassOracle's; the trace pass's oracle
        # is a replay oracle, so run_passes builds that pass's map.
        expectation = OutputExpectation.derive("sum = 15\nmul = 0\n")
        reduction = reduce_trace(parse_program(sample_source), [0, 5], expectation)
        assert [p.label for p in reduction.passes] == ["slice", "trace"]
        assert len(id_map_builds) == 2
