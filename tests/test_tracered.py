import collections
import random
import tracemalloc

import pytest

from deltadebug import Configuration, Outcome, PassOracle, core, ddmin, tracered
from deltadebug.core import AxiomViolation
from deltadebug.toylang import (
    KIND_STATEMENT, parse_program, replay_events, trace_program,
)
from deltadebug.tracered import (
    OutputExpectation,
    ReplayOracle,
    data_slice,
    filter_output,
    reduce_trace,
    render_two_column,
)
from support import verify_n_minimal
from test_toylang import random_program, seeded_program

SUM_CORE = {"8_8", "6_11", "8_13", "6_16", "8_18", "6_21", "8_23", "6_26", "8_28", "6_31"}


class TestFilterOutput:
    def test_keeps_suffix_from_first_prefix_match(self):
        # Prompts are written without a newline, so real output can be glued
        # onto them; the filter recovers the matching suffix.
        text = "a? b? sum = 15\nmul = 0\n"
        assert filter_output(text, ["sum", "mul"]) == "sum = 15\nmul = 0\n"

    def test_drops_lines_without_a_match(self):
        assert filter_output("noise\nmul = 0\n", ["sum"]) == ""
        assert filter_output("noise\nmul = 0\n", ["mul"]) == "mul = 0\n"

    def test_prefix_derivation_from_expected_text(self):
        exp = OutputExpectation.derive("sum = 15\nmul = 0\n")
        assert exp.prefixes == ("sum", "mul")

    def test_explicit_prefixes_win(self):
        exp = OutputExpectation.derive("sum = 15\n", ["sum"])
        assert exp.prefixes == ("sum",)

    @pytest.mark.parametrize("text, prefixes", [("sum = 15\n", []), ("\n\n", None)],
                             ids=["given-none", "derived-none"])
    def test_an_expectation_without_a_prefix_is_rejected(self, text, prefixes):
        with pytest.raises(ValueError, match="at least one filter prefix"):
            OutputExpectation.derive(text, prefixes)


@pytest.fixture
def sample_program(sample_source):
    return parse_program(sample_source)


@pytest.fixture
def scans(monkeypatch):
    """Whether each ddmin pass of a run was asked to scan."""
    seen = []
    ddmin = core.ddmin

    def spy(universe, oracle, options=None):
        seen.append(options is not None and options.scan)
        return ddmin(universe, oracle, options)

    monkeypatch.setattr(core, "ddmin", spy)
    return seen


class TestReplayOracle:
    def test_outcomes(self, sample_program):
        trace, _ = trace_program(sample_program, [0, 5])
        oracle = ReplayOracle(
            sample_program, trace, [0, 5],
            OutputExpectation.derive("sum = 15\nmul = 0\n"),
        )
        assert oracle.evaluate(Configuration.full(37)) == Outcome.FAIL
        assert oracle.evaluate(Configuration(37)) == Outcome.PASS


class TestReduceTrace:
    def test_both_outputs_give_13_event_slice(self, sample_program):
        reduction = reduce_trace(
            sample_program, [0, 5], OutputExpectation.derive("sum = 15\nmul = 0\n")
        )
        labels = set(reduction.slice_labels)
        assert len(reduction.slice_events) == 13
        assert SUM_CORE <= labels
        assert "10_36" in labels and "11_37" in labels
        mul_events = [l for l in labels if l.startswith("7_")]
        assert len(mul_events) == 1
        assert reduction.passes[-1].result.verified_1_minimal is True

    def test_sum_filter_gives_the_unique_11_event_slice(self, sample_program):
        reduction = reduce_trace(
            sample_program, [0, 5], OutputExpectation.derive("sum = 15\n", ["sum"])
        )
        assert set(reduction.slice_labels) == SUM_CORE | {"10_36"}
        assert reduction.passes[-1].result.verified_1_minimal is True

    def test_mul_filter_gives_a_2_event_slice(self, sample_program):
        reduction = reduce_trace(
            sample_program, [0, 5], OutputExpectation.derive("mul = 0\n", ["mul"])
        )
        labels = reduction.slice_labels
        assert len(labels) == 2
        assert "11_37" in labels
        assert any(l.startswith("7_") for l in labels)
        assert reduction.passes[-1].result.verified_1_minimal is True

    def test_slice_replays_to_the_expected_output(self, sample_program):
        expectation = OutputExpectation.derive("sum = 15\nmul = 0\n")
        reduction = reduce_trace(sample_program, [0, 5], expectation)
        oracle = ReplayOracle(sample_program, reduction.trace, [0, 5], expectation)
        final = Configuration(len(reduction.trace), reduction.passes[-1].kept)
        assert oracle.evaluate(final) == Outcome.FAIL
        replayed = oracle.replay(final)
        assert filter_output(replayed.stdout, expectation.prefixes) == expectation.expected_text

    def test_removing_any_single_slice_event_breaks_the_output(self, sample_program):
        expectation = OutputExpectation.derive("sum = 15\nmul = 0\n")
        reduction = reduce_trace(sample_program, [0, 5], expectation)
        oracle = ReplayOracle(sample_program, reduction.trace, [0, 5], expectation)
        final = Configuration(len(reduction.trace), reduction.passes[-1].kept)
        assert len(final) == 13
        for member in final.members:
            assert oracle.evaluate(final.without([member])) != Outcome.FAIL
        assert verify_n_minimal(final, oracle, 1)

    @pytest.mark.parametrize("source, status", [
        ("x = 1 / 0;\n", "runtime-error (division by zero)"),
        ('x = input("x? ");\n', "runtime-error (line 1: input underrun)"),
    ])
    def test_a_traced_run_that_does_not_complete_is_named(self, source, status):
        with pytest.raises(ValueError) as info:
            reduce_trace(parse_program(source), [], OutputExpectation.derive("x\n"))
        assert str(info.value) == f"tracing did not complete: {status}"

    def test_impossible_expectation_is_an_axiom_violation(self, sample_program):
        with pytest.raises(AxiomViolation):
            reduce_trace(
                sample_program, [0, 5],
                OutputExpectation.derive("sum = 99\n", ["sum"]),
            )


def is_1_minimal_on_the_full_trace(reduction, stdin, expectation) -> bool:
    """The kept events FAIL on a replay oracle over the whole trace, and no
    set of them minus one does."""
    oracle = ReplayOracle(reduction.program, reduction.trace, stdin, expectation)
    final = Configuration(len(reduction.trace), reduction.passes[-1].kept)
    return oracle.evaluate(final) == Outcome.FAIL and verify_n_minimal(final, oracle, 1)


def pass_events(reduction):
    return [reduction.trace[i] for p in reduction.passes for ids in p.ids for i in ids]


class TestDataSlice:
    def test_desk_slices(self, sample_program):
        trace, _ = trace_program(sample_program, [0, 5])
        sizes = [
            len(data_slice(sample_program, trace, prefixes))
            for prefixes in (["sum", "mul"], ["sum"], ["mul"])
        ]
        assert sizes == [22, 14, 14]
        sum_slice = [trace[i].label for i in data_slice(sample_program, trace, ["sum"])]
        # The last write of each name before a read, back from the sum print;
        # the loop heads and the b read are not data dependencies.
        assert sum_slice == [
            "1_1", "3_3", "6_6", "8_8", "6_11", "8_13", "6_16", "8_18",
            "6_21", "8_23", "6_26", "8_28", "6_31", "10_36",
        ]

    def test_a_read_in_the_slice_pulls_in_every_earlier_read(self):
        program = parse_program(
            'a = input("a? ");\nb = input("b? ");\nx = 5;\nc = input("c? ");\n'
            'print("c=", c, "\\n");\nd = input("d? ");\n'
        )
        trace, _ = trace_program(program, [1, 2, 3, 4])
        assert data_slice(program, trace, ["c="]) == [0, 1, 3, 4]
        expectation = OutputExpectation.derive("c=3\n", ["c="])
        reduction = reduce_trace(program, [1, 2, 3, 4], expectation)
        assert [(p.label, p.kept) for p in reduction.passes] == [
            ("slice", (0, 1, 3, 4)), ("trace", (0, 1, 3, 4)),
        ]
        assert is_1_minimal_on_the_full_trace(reduction, [1, 2, 3, 4], expectation)

    def test_prints_without_a_prefix_in_a_string_are_not_criteria(self):
        program = parse_program('x = 1;\ny = 2;\nprint(x, y);\nprint("y", y);\n')
        trace, _ = trace_program(program, [])
        assert data_slice(program, trace, ["y"]) == [1, 3]
        assert data_slice(program, trace, ["1"]) == []


class TestReducedUniverse:
    def test_no_pass_holds_a_loop_head_or_loop_end(self, sample_program):
        reduction = reduce_trace(
            sample_program, [0, 5], OutputExpectation.derive("sum = 15\nmul = 0\n")
        )
        assert [p.label for p in reduction.passes] == ["slice", "trace"]
        kinds = {e.kind for e in reduction.trace}
        assert kinds == {"statement", "loop-head", "loop-end"}
        assert {e.kind for e in pass_events(reduction)} == {KIND_STATEMENT}
        # The slice FAILs: the group pass keeps it and tests nothing else.
        first = reduction.passes[0]
        assert len(first.ids) == 2 and len(first.ids[0]) == 22
        assert first.result.final.members == (0,)
        assert first.result.log.test_counts() == (1, 0, 2)

    def test_a_slice_that_does_not_fail_falls_back(self, scans):
        # The newline comes from a print that writes no prefix, so the slice
        # prints "x=1" without it and PASSes.
        program = parse_program('x = 1;\ny = 2;\nprint("x=", x);\nprint("\\n");\n')
        expectation = OutputExpectation.derive("x=1\n", ["x="])
        reduction = reduce_trace(program, [], expectation)
        first = reduction.passes[0]
        assert first.ids == [[0, 2], [1, 3]]
        assert first.result.final == Configuration.full(2)
        assert scans == [False, False]  # the trace pass bisects
        # An event-only reduction: one pass over the replayable events.
        trace = reduction.trace
        oracle = ReplayOracle(program, trace, [], expectation)
        event_only = ddmin(Configuration.full(len(trace)), oracle)
        assert reduction.passes[-1].kept == event_only.final.members == (0, 2, 3)
        assert is_1_minimal_on_the_full_trace(reduction, [], expectation)

    def test_seeded_programs_reduce_to_1_minimal_full_trace_slices(self):
        # A digit prefix is in no print's string, so its slice is empty and
        # the slice pass has the one group of every replayable event.
        rng = random.Random(21)
        groups = collections.Counter()
        for k in range(400):
            program = parse_program((seeded_program if k % 2 else random_program)(rng))
            stdin = [rng.randint(-3, 9) for _ in range(rng.randint(0, 4))]
            trace, out = trace_program(program, stdin)
            prefix = rng.choice(("a=", "b=", "c=", "=", "1"))
            expected = filter_output(out.stdout, [prefix])
            if out.status != "completed" or not expected:
                continue
            expectation = OutputExpectation.derive(expected, [prefix])
            reduction = reduce_trace(program, stdin, expectation)
            groups[len(reduction.passes[0].ids)] += 1
            assert {e.kind for e in pass_events(reduction)} == {KIND_STATEMENT}
            assert is_1_minimal_on_the_full_trace(reduction, stdin, expectation)
        assert groups[1] > 20 and groups[2] > 150


    def test_a_long_loop_reduces_in_memory_linear_in_the_trace(self):
        # 10,000 iterations give 30,005 events.  Without a filter the
        # derived prefix "x=7" is in no string, so the slice is empty and
        # the trace pass starts from every replayable event.  Building one
        # bitmap per delta for each test peaks near 25 MiB of Python
        # allocations; gathering the digits, near 6 MiB.
        program = parse_program(
            'x = input("");\nn = input("");\ni = 0;\n'
            'while (i < n) {\n  i = i + 1;\n}\nprint("x=", x, "\\n");\n'
        )
        tracemalloc.start()
        try:
            reduction = reduce_trace(program, [7, 10_000], OutputExpectation.derive("x=7\n"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(reduction.trace) == 30_005
        assert reduction.passes[-1].kept == (0, 30_004)  # x = input and the print
        assert peak < 12 * 2**20

class TestTracePassScan:
    """The trace pass scans the data slice when the slice FAILed alone,
    and bisects as usual otherwise."""

    def test_a_run_of_removable_events_falls_back_to_bisection(self, sample_program, scans):
        # With a = 0, mul stays 0, and an undefined mul counts as 0 too: of
        # the 1604 slice events, one mul update and the print are enough.
        # A scan alone would ask about one complement per event.
        reduction = reduce_trace(
            sample_program, [0, 800], OutputExpectation.derive("mul = 0\n", ["mul"])
        )
        trace_pass = reduction.passes[-1]
        assert scans == [False, True]
        assert len(trace_pass.ids) == 1604 and len(trace_pass.kept) == 2
        assert trace_pass.result.log.test_counts()[0] <= 30
        assert trace_pass.result.verified_1_minimal is True

    def test_a_dense_slice_costs_about_one_test_per_event(self, sample_program, scans):
        # From a = 1 every sum update counts; only "sum = 0" can go, since
        # an undefined sum counts as 0.
        expectation = OutputExpectation.derive("sum = 210\n", ["sum"])
        reduction = reduce_trace(sample_program, [1, 20], expectation)
        trace_pass = reduction.passes[-1]
        assert scans == [False, True]
        events, kept = len(trace_pass.ids), len(trace_pass.kept)
        assert (events, kept) == (42, 41)
        assert trace_pass.result.log.test_counts()[0] <= events + kept + 2
        assert trace_pass.result.verified_1_minimal is True
        assert is_1_minimal_on_the_full_trace(reduction, [1, 20], expectation)

    def test_an_empty_slice_is_not_scanned(self, scans):
        # The derived prefix "x=7" is in no string, so the slice is empty.
        program = parse_program(
            'x = input("");\nn = input("");\ni = 0;\n'
            'while (i < n) {\n  i = i + 1;\n}\nprint("x=", x, "\\n");\n'
        )
        reduction = reduce_trace(program, [7, 50], OutputExpectation.derive("x=7\n"))
        assert len(reduction.passes[0].ids) == 1
        assert scans == [False, False]
        assert reduction.passes[-1].kept == (0, len(reduction.trace) - 1)


def test_a_trace_pass_replays_its_own_events_as_the_full_trace_would():
    # The trace pass asks a ReplayOracle over the kept events; expanding
    # each configuration to the full trace gives the same replay, runtime
    # errors and the step budget included.  A replay that keeps the
    # division but not the assignment before it divides by zero.
    rng = random.Random(23)
    statuses = collections.Counter()
    for k in range(300):
        program = parse_program("z = 2;\nz = 6 / z;\n" + seeded_program(rng))
        stdin = [rng.randint(-3, 9) for _ in range(rng.randint(0, 4))]
        trace, out = trace_program(program, stdin)
        if out.status != "completed" or len(trace) < 2:
            continue
        expectation = OutputExpectation.derive(out.stdout or "x", ["="])
        kept = sorted(rng.sample(range(len(trace)), rng.randint(1, len(trace))))
        full = ReplayOracle(program, trace, stdin, expectation)
        expanded = PassOracle(full, len(trace), [(i,) for i in kept])
        # As reduce_trace builds it, over the kept events alone.  They
        # resolve to the actions the full trace resolved them to.
        own = ReplayOracle(program, [trace[i] for i in kept], stdin, expectation)
        assert own.trace.actions == tuple([full.trace.actions[i] for i in kept])
        for _ in range(4):
            config = Configuration.from_bits(len(kept), rng.getrandbits(len(kept)))
            wide = Configuration(len(trace), [kept[i] for i in config.members])
            assert own.evaluate(config) == expanded.evaluate(config)
            budget = rng.randint(0, len(config)) if rng.random() < 0.25 else len(config)
            replayed = replay_events(program, own.trace, config, stdin, budget)
            assert replayed == replay_events(program, full.trace, wide, stdin, budget)
            statuses[replayed.status] += 1
    assert min(statuses.values()) > 20 and len(statuses) == 3


@pytest.mark.parametrize("seeded", [False, True], ids=["desk", "seeded"])
def test_a_trace_pass_replays_only_the_events_the_slice_pass_kept(
    seeded, sample_program, monkeypatch
):
    # The README's promise: the trace pass replays a trace of the surviving
    # events only, not the full trace with the rest left out.
    if seeded:
        rng = random.Random(67)
        program = parse_program(seeded_program(rng))
        stdin = [rng.randint(-3, 9) for _ in range(4)]
        _, out = trace_program(program, stdin)
        expectation = OutputExpectation.derive(filter_output(out.stdout, ["="]), ["="])
    else:
        program, stdin = sample_program, [0, 5]
        expectation = OutputExpectation.derive("sum = 15\nmul = 0\n")
    lengths = []

    def spy(program, trace, *args):
        lengths.append(len(trace))
        return replay_events(program, trace, *args)

    monkeypatch.setattr(tracered, "replay_events", spy)
    reduction = reduce_trace(program, stdin, expectation)
    # Every oracle and axiom record is one replay; cache answers are none.
    first, second = reduction.passes
    counts = [p.result.log.test_counts() for p in (first, second)]
    replays = [oracle + axiom for oracle, _, axiom in counts]
    assert len(lengths) == sum(replays) and replays[1] > 1
    assert len(first.kept) < len(reduction.trace)
    assert set(lengths[replays[0]:]) == {len(first.kept)}


class TestTwoColumnRendering:
    def test_rows_cover_every_event(self, sample_program):
        reduction = reduce_trace(
            sample_program, [0, 5], OutputExpectation.derive("mul = 0\n", ["mul"])
        )
        text = render_two_column(reduction)
        lines = text.splitlines()
        assert len(lines) == 38  # header plus one row per event
        assert lines[0].startswith("event")
        row_11_37 = next(l for l in lines if l.startswith("11_37"))
        assert row_11_37.count('print("mul = "') == 2  # original and reduced
        row_1_1 = next(l for l in lines if l.startswith("1_1 "))
        assert row_1_1.count("sum = 0;") == 1  # excluded from the slice
