import collections
import hashlib
import random
import re
import sys

import pytest

from deltadebug import Configuration
from deltadebug.core import Outcome
from deltadebug.toylang import (
    Event,
    LoopEnd,
    ToyParseError,
    While,
    format_trace,
    parse_program,
    parse_trace,
    read_trace,
    replay_events,
    trace_program,
    write_trace,
)
from deltadebug.tracered import OutputExpectation, ReplayOracle, reduce_trace


class TestParser:
    def test_sample_parses_to_eleven_statements(self, sample_source):
        program = parse_program(sample_source)
        flat = program.statements
        assert len(flat) == 11
        assert [s.line for s in flat] == list(range(1, 12))
        head = next(i for i, s in enumerate(flat) if isinstance(s, While))
        assert flat[head].line == 5
        end = flat[head].end
        assert end - head - 1 == 4  # three assignments plus the closing brace
        assert isinstance(flat[end - 1], LoopEnd)
        assert flat[end - 1].line == 9
        assert flat[end - 1].head == head

    def test_statement_kinds(self, sample_source):
        program = parse_program(sample_source)
        kinds = [type(s).__name__ for s in program.statements]
        assert kinds == ["Statement", "Statement", "Read", "Read", "While", "Statement",
                         "Statement", "Statement", "LoopEnd", "Statement", "Statement"]

    def test_missing_expression_is_a_syntax_error(self):
        with pytest.raises(ToyParseError) as info:
            parse_program("x = ;\n")
        assert info.value.line == 1

    def test_empty_program(self):
        program = parse_program("")
        assert program.statements == ()

    def test_a_line_outside_the_source_is_empty(self, sample_source):
        program = parse_program(sample_source)
        assert program.source_line(1) == sample_source.splitlines()[0]
        assert program.source_line(0) == ""
        assert program.source_line(len(sample_source.splitlines()) + 1) == ""

    def test_error_carries_line_and_column(self):
        with pytest.raises(ToyParseError) as info:
            parse_program("x = 1;\ny = $;\n")
        assert info.value.line == 2

    def test_one_statement_per_line_enforced(self):
        with pytest.raises(ToyParseError, match="one statement per line"):
            parse_program("x = 1; y = 2;\n")

    def test_nested_loops(self):
        src = (
            "i = 0;\n"
            "while (i < 2) {\n"
            "    j = 0;\n"
            "    while (j < 2) {\n"
            "        j = j + 1;\n"
            "    }\n"
            "    i = i + 1;\n"
            "}\n"
        )
        stmts = parse_program(src).statements
        outer, inner = stmts[1], stmts[3]
        assert isinstance(outer, While) and isinstance(inner, While)
        assert (outer.end, inner.end) == (8, 6)
        assert isinstance(stmts[5], LoopEnd) and stmts[5].head == 3
        assert isinstance(stmts[7], LoopEnd) and stmts[7].head == 1

    def test_operator_precedence(self):
        src = "x = 1 + 2 * 3;\nprint(x == 7);\n"
        program = parse_program(src)
        _, out = trace_program(program, [])
        assert out.stdout == "1"

    def test_string_escapes(self):
        program = parse_program('print("a\\tb\\\\c\\"d\\n");\n')
        _, out = trace_program(program, [])
        assert out.stdout == 'a\tb\\c"d\n'


class TestLexer:
    # One row per source: the ToyParseError text, or what running it prints.
    ROWS = [
        ('x = "ab', "1:5: unterminated string"),
        ('x = "ab\ny = 1;\n', "1:5: unterminated string"),
        ('x = "a\\q";\n', "1:7: unknown escape"),
        ('x = "a\\', "1:7: unknown escape"),
        ("\tx = 1 @ 2;\n", "1:8: unexpected character '@'"),
        ("x = 1;\r\ny = $;\n", "2:5: unexpected character '$'"),
        ("x = ½;\n", "1:5: unexpected character '½'"),
        ("é_1 = ٣;\nprint(é_1);\n", "3"),
        ("x = 12ab;\n", "1:7: expected ';', found 'ab'"),
        # str.isdigit holds for "²", but integer literals are decimal digits.
        ("x = ²;\n", "1:5: unexpected character '²'"),
        ("x = 1²;\n", "1:6: unexpected character '²'"),
        ("x = (1 + 2;\n", "1:11: expected ')', found ';'"),
        ("x = 1;\n}\n", "2:1: expected a statement, found '}'"),
        ("x = 1;\nwhile (x < 3) {\nx = x + 1;\n", "2:1: unterminated loop body"),
    ]

    @pytest.mark.parametrize("source, expected", ROWS)
    def test_table(self, source, expected):
        try:
            program = parse_program(source)
        except ToyParseError as exc:
            got = str(exc)
        else:
            got = trace_program(program, [])[1].stdout
        assert got == expected


class TestTraceProgram:
    def test_sample_run_has_37_events(self, sample_source):
        program = parse_program(sample_source)
        trace, out = trace_program(program, [0, 5])
        assert len(trace) == 37
        assert out.status == "completed"
        assert "sum = 15" in out.stdout
        assert "mul = 0" in out.stdout
        assert [e.seq for e in trace] == list(range(1, 38))
        assert trace[-1].label == "11_37"
        # Seven condition evaluations, six completed iterations.
        assert sum(1 for e in trace if e.kind == "loop-head") == 7
        assert sum(1 for e in trace if e.kind == "loop-end") == 6

    def test_loop_never_entered(self, sample_source):
        program = parse_program(sample_source)
        trace, out = trace_program(program, [1, 0])
        assert [e.line for e in trace] == [1, 2, 3, 4, 5, 10, 11]
        assert len(trace) == 7
        assert "sum = 0" in out.stdout

    def test_empty_program_traces_nothing(self):
        trace, out = trace_program(parse_program(""), [])
        assert trace == []
        assert out.stdout == ""
        assert out.status == "completed"

    def test_input_underrun_is_a_runtime_error(self, sample_source):
        program = parse_program(sample_source)
        trace, out = trace_program(program, [3])
        assert out.status == "runtime-error"
        assert "underrun" in out.error

    def test_division_by_zero(self):
        program = parse_program("x = 1 / 0;\n")
        _, out = trace_program(program, [])
        assert out.status == "runtime-error"

    def test_division_is_exact_for_large_integers(self):
        program = parse_program("a = 100000000000000000001;\nb = a / 1;\nprint(b);\n")
        _, out = trace_program(program, [])
        assert out.stdout == "100000000000000000001"

    def test_division_truncates_toward_zero(self):
        program = parse_program(
            "print(-7 / 2, \" \", 7 / -2, \" \", -7 / -2, \" \", 7 / 2);\n"
        )
        _, out = trace_program(program, [])
        assert out.stdout == "-3 -3 3 3"

    def test_division_of_a_400_digit_dividend(self):
        dividend = int("9" * 400)
        program = parse_program(f"a = -{dividend};\nb = a / 7;\nprint(b);\n")
        trace, out = trace_program(program, [])
        assert out.status == "completed"
        assert out.stdout == str(-(dividend // 7))
        replayed = replay_events(program, trace, Configuration.full(len(trace)), [])
        assert replayed.stdout == out.stdout

    def test_budget_converts_hangs(self):
        program = parse_program("x = 0;\nwhile (x < 1) {\ny = 1;\n}\n")
        trace, out = trace_program(program, [], budget=500)
        assert out.status == "budget-exhausted"
        assert len(trace) <= 500


class TestReplayEvents:
    def test_full_replay_matches_trace_output(self, sample_source):
        program = parse_program(sample_source)
        trace, traced = trace_program(program, [0, 5])
        replayed = replay_events(program, trace, Configuration.full(37), [0, 5])
        assert replayed.stdout == traced.stdout
        assert replayed.status == "completed"

    def test_empty_replay_is_empty(self, sample_source):
        program = parse_program(sample_source)
        trace, _ = trace_program(program, [0, 5])
        replayed = replay_events(program, trace, Configuration(37), [0, 5])
        assert replayed.stdout == ""

    def test_undef_semantics_subset(self, sample_source):
        # Events 3_3 (read a), 7_7 (mul = mul * a), 11_37 (print mul):
        # a reads 0, mul = Undef * 0 = 0, print shows "mul = 0".
        program = parse_program(sample_source)
        trace, _ = trace_program(program, [0, 5])
        config = Configuration(37, [2, 6, 36])
        replayed = replay_events(program, trace, config, [0, 5])
        assert replayed.stdout == "a? mul = 0\n"

    def test_skipped_reads_consume_nothing(self, sample_source):
        # Skipping 3_3 makes 4_4 read the first token into b.
        program = parse_program(sample_source)
        trace, _ = trace_program(program, [0, 5])
        config = Configuration(37, [3])  # only "b = input(...)"
        replayed = replay_events(program, trace, config, [7, 5])
        assert replayed.stdout == "b? "
        config_print_b = Configuration(37, [3, 36])
        # print mul shows empty since mul is undefined; b got token 7.
        replayed = replay_events(program, trace, config_print_b, [7, 5])
        assert replayed.stdout == "b? mul = \n"

    def test_loop_head_and_end_are_noops(self, sample_source):
        program = parse_program(sample_source)
        trace, _ = trace_program(program, [0, 5])
        heads = [e.seq - 1 for e in trace if e.kind != "statement"]
        replayed = replay_events(program, trace, Configuration(37, heads), [0, 5])
        assert replayed.stdout == ""
        assert replayed.status == "completed"

    def test_division_by_zero_in_a_replay(self):
        # Skipping "a = 1" leaves the divisor at its first value, 0.
        program = parse_program("a = 0;\nprint(\"x\");\na = 1;\nc = 5 / a;\n")
        trace, traced = trace_program(program, [])
        assert traced.status == "completed"
        replayed = replay_events(program, trace, Configuration(4, [0, 1, 3]), [])
        assert replayed.status == "runtime-error"
        assert replayed.error == "division by zero"
        assert replayed.stdout == "x"

    def test_input_underrun_in_a_replay(self, sample_source):
        program = parse_program(sample_source)
        trace, _ = trace_program(program, [0, 5])
        replayed = replay_events(program, trace, Configuration.full(37), [0])
        assert replayed.status == "runtime-error"
        assert replayed.error == "line 4: input underrun"
        assert replayed.stdout == "a? b? "

    def test_budget_exhausted_in_a_replay(self, sample_source):
        program = parse_program(sample_source)
        trace, _ = trace_program(program, [0, 5])
        replayed = replay_events(
            program, trace, Configuration.full(37), [0, 5], budget=10
        )
        assert replayed.status == "budget-exhausted"
        assert replayed.error == "exceeded 10 events"
        assert replayed.stdout == "a? b? "
        exact = replay_events(program, trace, Configuration(37, range(10)), [0, 5], budget=10)
        assert exact.status == "completed"

    def test_statement_event_off_a_statement_line(self, sample_source):
        # Line 5 is a loop head and line 99 does not exist.
        program = parse_program(sample_source)
        for line in (5, 99):
            trace = [Event(line=1, seq=1, kind="statement"),
                     Event(line=line, seq=2, kind="statement")]
            replayed = replay_events(program, trace, Configuration.full(2), [])
            assert replayed.status == "runtime-error"
            assert replayed.error == f"event at line {line} is not a statement"

    def test_statement_event_on_a_closing_brace(self):
        # Line 4 is a loop's closing brace: like a loop head, not a statement.
        program = parse_program("i = 0;\nwhile (i < 1) {\ni = i + 1;\n}\nprint(i);\n")
        trace = [Event(line=line, seq=seq, kind="statement")
                 for seq, line in enumerate((1, 4, 5), start=1)]
        replayed = replay_events(program, trace, Configuration.full(3), [])
        assert (replayed.status, replayed.error, replayed.stdout) == (
            "runtime-error", "event at line 4 is not a statement", ""
        )

    def test_control_event_off_its_line(self):
        # Line 1 is an assignment and line 99 does not exist: no loop head.
        program = parse_program("x = 1;\nprint(x);\n")
        trace = [Event(1, 1, "loop-head"), Event(2, 2, "statement"), Event(99, 3, "loop-head")]
        replayed = replay_events(program, trace, Configuration.full(3), [])
        assert (replayed.status, replayed.error, replayed.stdout) == (
            "runtime-error", "event at line 1 is not a loop-head", ""
        )
        replayed = replay_events(program, trace, Configuration(3, [1, 2]), [])
        assert (replayed.status, replayed.error) == (
            "runtime-error", "event at line 99 is not a loop-head"
        )
        # A loop's head and its closing brace are not interchangeable.
        program = parse_program("i = 0;\nwhile (i < 1) {\ni = i + 1;\n}\n")
        for line, kind in ((2, "loop-end"), (4, "loop-head")):
            replayed = replay_events(program, [Event(line, 1, kind)], Configuration.full(1), [])
            assert (replayed.status, replayed.error) == (
                "runtime-error", f"event at line {line} is not a {kind}"
            )

    def test_universe_mismatch_rejected(self, sample_source):
        program = parse_program(sample_source)
        trace, _ = trace_program(program, [0, 5])
        with pytest.raises(ValueError):
            replay_events(program, trace, Configuration.full(5), [0, 5])


needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="this Python converts integers of any size to text",
)

# Squares 10 thirteen times: a 8193-digit value, over the 4300-digit default.
HUGE_VALUE = "a = 10;\ni = 0;\nwhile (i < 13) {\na = a * a;\ni = i + 1;\n}\n"


class TestNoPythonErrorEscapes:
    @needs_digit_limit
    def test_printing_a_huge_value_is_a_runtime_error(self):
        program = parse_program(HUGE_VALUE + 'print("a=", a);\n')
        trace, out = trace_program(program, [])
        assert (out.status, out.error) == ("runtime-error", "integer too large to print")
        assert out.stdout == "a="
        replayed = replay_events(program, trace, Configuration.full(len(trace)), [])
        assert (replayed.status, replayed.error) == (out.status, out.error)

    @needs_digit_limit
    def test_a_replay_printing_a_huge_value_is_unresolved(self):
        program = parse_program(HUGE_VALUE + "a = 1;\nprint(a);\n")
        trace, out = trace_program(program, [])
        assert out.stdout == "1"
        oracle = ReplayOracle(program, trace, [], OutputExpectation.derive("1"))
        reset_line = HUGE_VALUE.count("\n") + 1
        skip_reset = [i for i, e in enumerate(trace) if e.line != reset_line]
        assert oracle.evaluate(Configuration(len(trace), skip_reset)) == Outcome.UNRESOLVED
        assert oracle.evaluate(Configuration.full(len(trace))) == Outcome.FAIL

    @needs_digit_limit
    def test_a_5000_digit_literal_is_a_parse_error(self):
        with pytest.raises(ToyParseError, match="integer literal of 5000 digits"):
            parse_program("a = " + "7" * 5000 + ";\n")

    def test_250_nested_parentheses(self):
        program = parse_program("a = " + "(" * 250 + "2 - 5" + ")" * 250 + ";\nprint(a);\n")
        trace, out = trace_program(program, [])
        assert (out.status, out.stdout) == ("completed", "-3")
        replayed = replay_events(program, trace, Configuration.full(len(trace)), [])
        assert replayed.stdout == "-3"

    def test_a_3000_term_chain(self):
        chain = " + ".join(["x"] * 3000)
        program = parse_program(f"x = 1;\na = {chain};\nprint(a);\n")
        trace, out = trace_program(program, [])
        assert (out.status, out.stdout) == ("completed", "3000")
        replayed = replay_events(program, trace, Configuration.full(len(trace)), [])
        assert replayed.stdout == "3000"

    def test_a_3000_term_program_prints_compares_and_hashes(self):
        # Statements compare by identity, so nothing here walks the program.
        source = "x = 1;\na = " + " + ".join(["x"] * 3000) + ";\nprint(a);\n"
        program = parse_program(source)
        assert repr(program).startswith("<deltadebug.toylang.Program object")
        assert program == program
        assert program != parse_program(source)
        assert hash(program.statements[1]) == hash(program.statements[1])
        reduction = reduce_trace(program, [], OutputExpectation.derive("3000"))
        assert reduction.slice_labels == ["1_1", "2_2", "3_3"]
        assert "TraceReduction(program=<deltadebug.toylang.Program" in repr(reduction)

    def test_loops_nest_to_any_depth(self):
        # Nothing recurses per loop: not the parser, the tracer or replay.
        trace, out = trace_program(parse_program("while (0) {\n" * 5000 + "}\n" * 5000), [])
        assert (out.status, len(trace)) == ("completed", 1)
        # Each of 300 levels runs its body once: the innermost sets d = 1.
        level = "d = 0;\nwhile (d == 0) {\nn = n + 1;\n"
        source = level * 300 + "d = 1;\n" + "}\n" * 300 + "print(n);\n"
        program = parse_program(source)
        trace, out = trace_program(program, [])
        assert (out.status, out.stdout) == ("completed", "300")
        replayed = replay_events(program, trace, Configuration.full(len(trace)), [])
        assert (replayed.status, replayed.stdout) == ("completed", "300")


def random_program(rng: random.Random) -> str:
    """A random straight-line program with bounded counting loops.

    Inside a loop only non-counter variables are assigned, so every loop
    terminates.
    """
    lines = []
    variables = ["a", "b", "c"]
    for v in variables:
        lines.append(f"{v} = {rng.randint(0, 9)};")
    counter = None
    for _ in range(rng.randint(3, 10)):
        roll = rng.random()
        if roll < 0.25 and counter is None:
            counter = rng.choice(variables)
            lines.append(f"{counter} = 0;")
            lines.append(f"while ({counter} < {rng.randint(1, 4)}) {{")
            lines.append(f"{counter} = {counter} + 1;")
        elif roll < 0.45 and counter is not None:
            lines.append("}")
            counter = None
        elif roll < 0.8:
            v = rng.choice([x for x in variables if x != counter])
            w = rng.choice(variables)
            op = rng.choice(["+", "-", "*"])
            lines.append(f"{v} = {w} {op} {rng.randint(0, 5)};")
        else:
            v = rng.choice(variables)
            lines.append(f'print("{v}=", {v}, "\\n");')
    if counter is not None:
        lines.append("}")
    for v in variables:
        lines.append(f'print("{v}=", {v}, "\\n");')
    return "\n".join(lines) + "\n"


class TestReplayIdentityProperty:
    def test_full_replay_equals_traced_output_on_random_programs(self):
        rng = random.Random(1905)
        for _ in range(60):
            program = parse_program(random_program(rng))
            trace, traced = trace_program(program, [])
            assert traced.status == "completed"
            replayed = replay_events(
                program, trace, Configuration.full(len(trace)), []
            )
            assert replayed.stdout == traced.stdout


def seeded_program(rng: random.Random) -> str:
    """A seeded program of reads, prints and assignments in loops nested up
    to three deep.

    Each loop counts its own counter to a bound of at most 3, and nothing
    else assigns a counter, so every loop ends; a divisor may be 0.
    """
    lines = []
    names = ("a", "b", "c")

    def block(depth: int) -> None:
        for _ in range(rng.randint(1, 4)):
            roll = rng.random()
            v, w, u = (rng.choice(names) for _ in range(3))
            if roll < 0.25 and depth < 3:
                counter = f"i{depth}"
                lines.append(f"{counter} = 0;")
                lines.append(f"while ({counter} < {rng.randint(0, 3)}) {{")
                block(depth + 1)
                lines.append(f"{counter} = {counter} + 1;")
                lines.append("}")
            elif roll < 0.4:
                lines.append(f'{v} = input("{v}? ");')
            elif roll < 0.55:
                lines.append(f'print("{v}=", {v}, "\\n");')
            else:
                op = rng.choice(("+", "-", "+", "/", "<", "==", "!="))
                lines.append(f"{v} = {w} {op} {u} {rng.choice('+-*')} {rng.randint(1, 3)};")

    block(0)
    return "\n".join(lines) + "\n"


class TestTracePinned:
    # SHA-256 over 600 seeded programs of the trace text, stdout, status
    # and error of each run, and of full and three seeded partial replays.
    DIGEST = "ab0a51afd0669e9dae45cef11fa1b35bb91b1cc9509f9aa3c4cc556914b7c6ee"

    def test_seeded_programs_trace_as_pinned(self):
        rng = random.Random(18)
        h = hashlib.sha256()
        statuses = collections.Counter()
        innermost_heads = 0
        for _ in range(600):
            program = parse_program(seeded_program(rng))
            stdin = [rng.randint(-3, 9) for _ in range(rng.randint(0, 4))]
            budget = rng.choice((10, 40, 1_000_000))
            trace, out = trace_program(program, stdin, budget)
            statuses[out.status] += 1
            innermost_heads += sum(
                program.source_line(e.line).startswith("while (i2") for e in trace
            )
            h.update(format_trace(trace).encode() + repr(tuple(out)).encode() + b"\n")
            configs = [Configuration.full(len(trace))] + [
                Configuration.from_bits(len(trace), rng.getrandbits(len(trace)))
                for _ in range(3)
            ]
            for config in configs:
                replayed = replay_events(program, trace, config, stdin, budget)
                h.update(repr(tuple(replayed)).encode() + b"\n")
        assert innermost_heads > 30  # loops nested three deep ran
        assert min(statuses[s] for s in ("completed", "runtime-error", "budget-exhausted")) > 30
        assert h.hexdigest() == self.DIGEST


class TestTraceFile:
    def test_format_round_trip(self, sample_source, tmp_path):
        program = parse_program(sample_source)
        trace, _ = trace_program(program, [0, 5])
        path = tmp_path / "sample.trace"
        write_trace(trace, path)
        assert read_trace(path) == trace
        first = path.read_text().splitlines()[0]
        assert first == "1\t1\tstatement"

    def test_malformed_trace_rejected(self):
        with pytest.raises(ValueError):
            parse_trace("1\t2\n")
        with pytest.raises(ValueError):
            parse_trace("2\t1\tstatement\n")

    def test_blank_lines_are_skipped(self):
        trace = parse_trace("1\t1\tstatement\n\n \t\n2\t2\tstatement\n")
        assert trace == [
            Event(seq=1, line=1, kind="statement"), Event(seq=2, line=2, kind="statement")
        ]
        # A blank line still counts in the line number an error names.
        with pytest.raises(ValueError, match="^line 3: "):
            parse_trace("1\t1\tstatement\n\nbad\n")

    @pytest.mark.parametrize("bad", ["x\t1\tstatement", "1\ty\tstatement", "1\t\tloop-end"])
    def test_a_non_integer_field_names_the_line(self, bad):
        message = f"line 2: malformed trace line {bad!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_trace(f"1\t1\tstatement\n{bad}\n")
