import random

import pytest

from deltadebug import Configuration
from deltadebug.toylang import (
    Assign,
    Event,
    LoopEnd,
    PrintStmt,
    Read,
    ToyParseError,
    While,
    parse_program,
    parse_trace,
    read_trace,
    replay_events,
    trace_program,
    write_trace,
)


class TestParser:
    def test_sample_parses_to_eleven_statements(self, sample_source):
        program = parse_program(sample_source)
        flat = program.flattened()
        assert len(flat) == 11
        assert [s.line for s in flat] == list(range(1, 12))
        loop = next(s for s in flat if isinstance(s, While))
        assert len(loop.body) == 4  # three assignments plus the closing brace
        assert isinstance(loop.body[-1], LoopEnd)
        assert loop.body[-1].line == 9

    def test_statement_kinds(self, sample_source):
        program = parse_program(sample_source)
        kinds = [type(s).__name__ for s in program.statements]
        assert kinds == ["Assign", "Assign", "Read", "Read", "While",
                         "PrintStmt", "PrintStmt"]

    def test_missing_expression_is_a_syntax_error(self):
        with pytest.raises(ToyParseError) as info:
            parse_program("x = ;\n")
        assert info.value.line == 1

    def test_empty_program(self):
        program = parse_program("")
        assert program.statements == ()

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
        program = parse_program(src)
        outer = program.statements[1]
        assert isinstance(outer, While)
        inner = outer.body[1]
        assert isinstance(inner, While)

    def test_operator_precedence(self):
        src = "x = 1 + 2 * 3;\nprint(x == 7);\n"
        program = parse_program(src)
        _, out = trace_program(program, [])
        assert out.stdout == "1"

    def test_string_escapes(self):
        program = parse_program('print("a\\tb\\\\c\\"d\\n");\n')
        _, out = trace_program(program, [])
        assert out.stdout == 'a\tb\\c"d\n'


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
        replayed = replay_events(program, trace, Configuration.empty(37), [0, 5])
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

    def test_universe_mismatch_rejected(self, sample_source):
        program = parse_program(sample_source)
        trace, _ = trace_program(program, [0, 5])
        with pytest.raises(ValueError):
            replay_events(program, trace, Configuration.full(5), [0, 5])


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
