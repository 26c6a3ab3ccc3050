import pytest

from deltadebug import Configuration, Outcome
from deltadebug.core import AxiomViolation
from deltadebug.toylang import parse_program, trace_program
from deltadebug.tracered import (
    OutputExpectation,
    ReplayOracle,
    filter_output,
    reduce_trace,
    render_two_column,
)
from support import verify_n_minimal

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


@pytest.fixture
def sample_program(sample_source):
    return parse_program(sample_source)


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
        replayed = oracle.replay(reduction.passes[-1].result.final)
        from deltadebug.tracered import filter_output as fo
        assert fo(replayed.stdout, expectation.prefixes) == expectation.expected_text

    def test_removing_any_single_slice_event_breaks_the_output(self, sample_program):
        expectation = OutputExpectation.derive("sum = 15\nmul = 0\n")
        reduction = reduce_trace(sample_program, [0, 5], expectation)
        oracle = ReplayOracle(sample_program, reduction.trace, [0, 5], expectation)
        final = reduction.passes[-1].result.final
        for member in final.members:
            assert oracle.evaluate(final.without([member])) != Outcome.FAIL
        assert verify_n_minimal(final, oracle, 1)

    def test_impossible_expectation_is_an_axiom_violation(self, sample_program):
        with pytest.raises(AxiomViolation):
            reduce_trace(
                sample_program, [0, 5],
                OutputExpectation.derive("sum = 99\n", ["sum"]),
            )


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
