"""The pass driver: each pass's deltas mapped to the run's input ids."""

import itertools
import random

import pytest

from deltadebug import AxiomViolation, Configuration, EngineOptions, Outcome, Pass, run_passes
from deltadebug.changes import (
    ChangeSet, minimize_changes, parse_dependencies, parse_group_map, split_unified_diff,
)
from deltadebug.core import SOURCE_EXACT_CACHE, MinimizationResult, RunLog
from deltadebug.inputmin import minimize_input
from deltadebug.proc import CommandOracleSpec


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
    passes = outcome.passes
    assert bytes(data[i] for i in passes[-1].kept) == outcome.minimized
    # Each pass's ids split what the pass before it kept, in order.
    kept = tuple(range(len(data)))
    for p in passes:
        assert tuple(itertools.chain.from_iterable(p.ids)) == kept
        assert set(p.kept) <= set(kept)
        kept = p.kept


@pytest.mark.parametrize("seed", [1, 2, 3])
class TestInputIds:
    def test_line_then_char(self, seed, two_token_spec):
        data = seeded_input(seed, 12)
        outcome = minimize_input(data, two_token_spec)
        assert [p.label for p in outcome.passes] == ["line", "char"]
        assert outcome.minimized in (b"ABCD", b"CDAB")
        check_input_ids(data, outcome)

    def test_char_only(self, seed, two_token_spec):
        data = seeded_input(seed, 3)
        outcome = minimize_input(data, two_token_spec, schedule=["char"])
        assert outcome.minimized in (b"ABCD", b"CDAB")
        check_input_ids(data, outcome)

    def test_byte_fallback_over_bytes_that_are_not_utf8(self, seed, two_token_spec):
        data = seeded_input(seed, 12, odd=b"\xff")
        outcome = minimize_input(data, two_token_spec)
        assert [p.label for p in outcome.passes] == ["line", "byte"]
        assert outcome.minimized in (b"ABCD", b"CDAB")
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
