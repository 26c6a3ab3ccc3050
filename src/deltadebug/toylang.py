"""A small imperative language with an execution tracer and a trace-driven
replayer that can skip events.

Grammar (statements end with ';', one statement per line):

    program := stmt*
    stmt    := IDENT "=" expr ";"
             | IDENT "=" "input" "(" STRING? ")" ";"
             | "print" "(" arg ("," arg)* ")" ";"
             | "while" "(" expr ")" "{" stmt* "}"
    arg     := STRING | expr
    expr    := integer arithmetic and comparisons with the usual precedence

An IDENT starts with a letter or "_" and goes on with letters, digits and
"_"; an integer literal is a run of decimal digits.  Strings support \\n,
\\t, \\" and \\\\ escapes.  Expressions and loops nest to any depth.
Variables hold integers and start out undefined; an undefined value
coerces to 0 in arithmetic and comparisons and prints as the empty string.
Reading consumes the next stdin token and echoes the prompt (if any) to
the output.

The parser writes a program as one flat table of statements, each
assignment, print and loop condition with its Python source; the tracer
walks that table with a program counter.

Tracing records one event per executed statement, one loop-head event per
condition evaluation, and one loop-end event per completed iteration (the
closing brace line).  Replay executes a chosen subset of recorded events
in trace order: control-flow events are no-ops because the flow is already
spelled out by the trace, and skipped reads consume no input.  An event is
a runtime error unless its line holds its kind of statement: an assignment,
read or print for a statement event, a ``while`` for a loop head, a closing
brace for a loop end.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence, Union

from .core import Configuration

DEFAULT_STEP_BUDGET = 1_000_000

KIND_STATEMENT = "statement"
KIND_LOOP_HEAD = "loop-head"
KIND_LOOP_END = "loop-end"

STATUS_COMPLETED = "completed"
STATUS_RUNTIME_ERROR = "runtime-error"
STATUS_BUDGET_EXHAUSTED = "budget-exhausted"


class ToyParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class ToyRuntimeError(Exception):
    pass


class _Budget(Exception):
    pass


# --- statements --------------------------------------------------------------
#
# A program's statements are one flat table in source order.  They compare
# by identity and print with the default repr.

class _Node:
    __slots__ = ()

    def __init__(self, *fields):
        for name, value in zip(self.__slots__, fields, strict=True):
            setattr(self, name, value)


class Statement(_Node):
    """An assignment or print; ``source`` is the Python text that runs it.

    ``writes`` is the name an assignment writes, None for a print; ``reads``
    are the names it reads, and ``strings`` a print's string literals.
    """

    __slots__ = ("line", "source", "writes", "reads", "strings")


class Read(_Node):
    __slots__ = __match_args__ = ("line", "name", "prompt")


class While(_Node):
    """A loop head; ``source`` returns its condition's value, and ``end`` is
    the index after its ``LoopEnd``."""

    __slots__ = ("line", "source", "end")


class LoopEnd(_Node):
    """The closing brace of a loop body; ``head`` is its ``While``'s index."""

    __slots__ = ("line", "head")


Stmt = Union[Statement, Read, While, LoopEnd]


class Program:
    __slots__ = ("statements", "source_lines", "_compiled")

    def __init__(self, statements: tuple[Stmt, ...], source_lines: tuple[str, ...]):
        self.statements = statements
        self.source_lines = source_lines
        # Functions of the statements and loop conditions run so far, by
        # line; see ``_action``.
        self._compiled: dict[int, Action] = {}

    def source_line(self, line: int) -> str:
        if 1 <= line <= len(self.source_lines):
            return self.source_lines[line - 1]
        return ""


# --- lexer -------------------------------------------------------------------

class _Token(NamedTuple):
    kind: str  # "ident" | "int" | "string" | "op" | "eof"
    value: str
    line: int
    col: int


_KEYWORDS = {"while", "input", "print"}
# One token per match.  \d matches only decimal digits, the ones int()
# reads.  A string's closing quote is optional, so that a missing one can be
# reported.  An "other" match, and an "ident" match that does not start with
# a letter or "_", are errors.
_TOKEN = re.compile(r"""
    (?P<space>[ \t\r]+) | (?P<newline>\n)
  | (?P<string>"(?P<body>(?:[^"\\\n]|\\.?)*)(?P<close>"?))
  | (?P<int>\d+) | (?P<ident>\w+)
  | (?P<op><=|>=|==|!=|[-=+*/<>(){},;]) | (?P<other>.)
""", re.VERBOSE)
_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}
_BINARY_PRECEDENCE = {
    "<=": 1, "<": 1, "==": 1, "!=": 1, ">": 1, ">=": 1,
    "+": 2, "-": 2,
    "*": 3, "/": 3,
}
_NEG = "neg"  # unary minus on the parser's operator stack
_PRECEDENCE = {**_BINARY_PRECEDENCE, _NEG: 4}


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0  # the line's number and its offset in ``text``
    for match in _TOKEN.finditer(text):
        kind, value = match.lastgroup, match.group()
        col = match.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, match.end()
        elif kind == "string":
            def unescape(escape: re.Match) -> str:
                if escape[1] not in _ESCAPES:
                    raise ToyParseError("unknown escape", line, col + 1 + escape.start())
                return _ESCAPES[escape[1]]

            value = re.sub(r"\\(.?)", unescape, match["body"])
            if not match["close"]:
                raise ToyParseError("unterminated string", line, col)
            tokens.append(_Token(kind, value, line, col))
        elif kind == "other" or kind == "ident" and not (value[0].isalpha() or value[0] == "_"):
            raise ToyParseError(f"unexpected character {value[0]!r}", line, col)
        elif kind != "space":
            tokens.append(_Token(kind, value, line, col))
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens


# --- parser ------------------------------------------------------------------
#
# The parser writes each assignment, print and loop condition as the Python
# source of one function, ``statement(machine)``, which reads and writes
# the local ``store``.  Toy names, strings and integers enter that text only
# as ``repr`` literals, so no toy text is ever read as Python.

# The Python text of each toy operator applied to its operands' texts.
_OPERATORS = {
    "+": "{} + {}", "-": "{} - {}", "*": "{} * {}", "/": "_divide({}, {})",
    **{op: f"int({{}} {op} {{}})" for op in ("<=", "<", "==", "!=", ">", ">=")},
    _NEG: "-{}",
}


def _define(lines: list[str]) -> str:
    """The source of the function ``statement`` whose body is ``lines``."""
    return "\n    ".join(["def statement(machine):", "store = machine.store", *lines]) + "\n"


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._pos = 0
        self._used_lines: set[int] = set()
        self._locals = 0  # operator results ``_<n>`` in the statement's source so far
        self._reads: set[str] = set()  # the toy names the statement reads so far

    def _peek(self) -> _Token:
        return self._tokens[self._pos]

    def _next(self) -> _Token:
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def _expect(self, kind: str, value: Optional[str] = None) -> _Token:
        tok = self._peek()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            raise ToyParseError(f"expected {want!r}, found {tok.value!r}", tok.line, tok.col)
        return self._next()

    def _claim_line(self, tok: _Token) -> int:
        if tok.line in self._used_lines:
            raise ToyParseError("one statement per line", tok.line, tok.col)
        self._used_lines.add(tok.line)
        return tok.line

    def statements(self) -> tuple[Stmt, ...]:
        stmts: list[Stmt] = []
        open_loops: list[tuple[int, _Token]] = []  # each open loop's index and ``while``
        while (tok := self._peek()).kind != "eof":
            self._locals = 0
            self._reads = set()
            if open_loops and tok.kind == "op" and tok.value == "}":
                self._next()
                index = open_loops.pop()[0]
                stmts[index].end = len(stmts) + 1
                stmts.append(LoopEnd(self._claim_line(tok), index))
            elif tok.kind == "ident" and tok.value == "while":
                open_loops.append((len(stmts), tok))
                stmts.append(self._while())
            elif tok.kind == "ident" and tok.value == "print":
                stmts.append(self._print())
            elif tok.kind == "ident" and tok.value not in _KEYWORDS:
                stmts.append(self._assign_or_read())
            else:
                raise ToyParseError(f"expected a statement, found {tok.value!r}", tok.line, tok.col)
        if open_loops:
            head = open_loops[-1][1]
            raise ToyParseError("unterminated loop body", head.line, head.col)
        return tuple(stmts)

    def _assign_or_read(self) -> Stmt:
        name_tok = self._next()
        line = self._claim_line(name_tok)
        self._expect("op", "=")
        nxt = self._peek()
        if nxt.kind == "ident" and nxt.value == "input":
            self._next()
            self._expect("op", "(")
            prompt = ""
            if self._peek().kind == "string":
                prompt = self._next().value
            self._expect("op", ")")
            self._expect("op", ";")
            return Read(line, name_tok.value, prompt)
        lines: list[str] = []
        value = self._expr(lines)[0]
        self._expect("op", ";")
        lines.append(f"store[{name_tok.value!r}] = {value}")
        return Statement(line, _define(lines), name_tok.value, frozenset(self._reads), ())

    def _print(self) -> Stmt:
        line = self._claim_line(self._next())
        self._expect("op", "(")
        lines = ["out = machine.out"]
        strings: list[str] = []
        self._arg(lines, strings)
        while self._peek().value == ",":
            self._next()
            self._arg(lines, strings)
        self._expect("op", ")")
        self._expect("op", ";")
        return Statement(line, _define(lines), None, frozenset(self._reads), tuple(strings))

    def _arg(self, lines: list[str], strings: list[str]) -> None:
        if self._peek().kind == "string":
            strings.append(self._next().value)
            text = repr(strings[-1])
        else:
            value, name = self._expr(lines)
            if name is None:
                text = f"_show({value})"
            else:  # print shows the raw variable: undefined renders empty, not 0
                text = f"_show(store[{name!r}]) if {name!r} in store else ''"
        lines.append(f"out.append({text})")

    def _while(self) -> While:
        line = self._claim_line(self._next())
        self._expect("op", "(")
        lines: list[str] = []
        cond = self._expr(lines)[0]
        self._expect("op", ")")
        self._expect("op", "{")
        lines.append(f"return {cond}")
        return While(line, _define(lines), None)  # ``statements`` sets ``end``

    # Operator precedence parsing with explicit stacks: nesting and long
    # operator chains cost no recursion.  Precedence: comparison < additive
    # < multiplicative < unary minus; binary operators are left-associative.
    # Operators are applied in post-order, and each result goes into the
    # next local ``_<n>`` as it is applied: evaluation runs left to right,
    # and no expression nests.
    def _expr(self, lines: list[str]) -> tuple[str, Optional[str]]:
        """Parse an expression, appending the lines of its operators but the
        last to ``lines``; return its value's text and, if it is a bare
        variable, that variable's name."""
        operands: list[str] = []
        pending: list[str] = []  # binary operators, _NEG and "(" not yet applied
        written = len(lines)

        def apply(precedence: int) -> None:
            """Apply the pending operators that bind at least this tightly."""
            while pending and pending[-1] != "(" and _PRECEDENCE[pending[-1]] >= precedence:
                op = pending.pop()
                arity = 1 if op == _NEG else 2
                text = _OPERATORS[op].format(*operands[-arity:])
                del operands[-arity:]
                operands.append(f"_{self._locals}")
                lines.append(f"_{self._locals} = {text}")
                self._locals += 1

        open_parens = 0
        while True:
            tok = self._peek()
            if tok.kind == "op" and tok.value in ("-", "("):
                self._next()
                pending.append(_NEG if tok.value == "-" else "(")
                open_parens += tok.value == "("
                continue
            primary = tok
            operands.append(self._primary())
            tok = self._peek()
            while open_parens and tok.kind == "op" and tok.value == ")":
                self._next()
                apply(1)
                pending.pop()
                open_parens -= 1
                tok = self._peek()
            if tok.kind == "op" and tok.value in _BINARY_PRECEDENCE:
                self._next()
                apply(_PRECEDENCE[tok.value])
                pending.append(tok.value)
                continue
            if open_parens:
                self._expect("op", ")")
            apply(1)
            if len(lines) == written:  # no operator: one literal or variable
                return operands.pop(), primary.value if primary.kind == "ident" else None
            self._locals -= 1  # the last operator's result stays in place
            return lines.pop().partition(" = ")[2], None

    def _primary(self) -> str:
        tok = self._peek()
        if tok.kind == "int":
            self._next()
            try:
                return repr(int(tok.value))
            except ValueError:  # past the interpreter's int/str digit limit
                raise ToyParseError(
                    f"integer literal of {len(tok.value)} digits is too long",
                    tok.line, tok.col,
                ) from None
        if tok.kind == "ident" and tok.value not in _KEYWORDS:
            self._next()
            self._reads.add(tok.value)
            return f"store.get({tok.value!r}, 0)"
        raise ToyParseError(f"expected an expression, found {tok.value!r}", tok.line, tok.col)


def parse_program(text: str) -> Program:
    return Program(_Parser(_lex(text)).statements(), tuple(text.split("\n")))


# --- trace events ------------------------------------------------------------

class Event(NamedTuple):
    line: int
    seq: int  # 1-based execution time
    kind: str

    @property
    def label(self) -> str:
        return f"{self.line}_{self.seq}"


Trace = list[Event]


class ReplayOutput(NamedTuple):
    stdout: str
    status: str
    error: Optional[str] = None


# --- compiled evaluation -----------------------------------------------------
#
# Each assignment, read, print and loop condition is compiled once, on
# first use, into one Python function: a read into a closure, the others
# from the source the parser wrote for them.
# Tracing and replay both run these functions.  Variables that were never
# assigned are absent from the store: they read as 0 in arithmetic and
# comparisons and print as the empty string.

Store = dict[str, int]


def _divide(left: int, right: int) -> int:
    """Integer division truncating toward zero, exact for any size."""
    if right == 0:
        raise ToyRuntimeError("division by zero")
    quotient = abs(left) // abs(right)
    return -quotient if (left < 0) != (right < 0) else quotient


def _show(value: int) -> str:
    """The decimal text of ``value`` for ``print``."""
    try:
        return str(value)
    except ValueError:  # past the interpreter's int/str digit limit
        raise ToyRuntimeError("integer too large to print") from None


class _Machine:
    """The state a program runs against: variables, output, input, events."""

    __slots__ = ("store", "out", "tokens", "next_token", "events", "budget")

    def __init__(self, stdin_tokens: Sequence[int], budget: int):
        self.store: Store = {}
        self.out: list[str] = []
        self.tokens = list(stdin_tokens)
        self.next_token = 0
        self.events: Trace = []
        self.budget = budget

    def emit(self, line: int, kind: str) -> None:
        """Record the next trace event; the budget caps their number."""
        if len(self.events) >= self.budget:
            raise _Budget()
        self.events.append(Event(line, len(self.events) + 1, kind))

    def output(self) -> str:
        return "".join(self.out)


Action = Callable[[_Machine], None]

# The only names compiled statements can reach: no builtins.
_GLOBALS = {"__builtins__": {}, "_divide": _divide, "_show": _show, "int": int}


def _action(program: Program, stmt: Union[Statement, Read, While]) -> Action:
    """The function of ``stmt``, compiled on first use and kept with ``program``."""
    found = program._compiled.get(stmt.line)
    if found is None:
        found = program._compiled[stmt.line] = _compile(stmt)
    return found


def _compile(stmt: Union[Statement, Read, While]) -> Action:
    match stmt:
        case Read(line, name, prompt):
            def read(machine: _Machine) -> None:
                machine.out.append(prompt)
                if machine.next_token >= len(machine.tokens):
                    raise ToyRuntimeError(f"line {line}: input underrun")
                machine.store[name] = machine.tokens[machine.next_token]
                machine.next_token += 1

            return read
    namespace = dict(_GLOBALS)
    exec(compile(stmt.source, f"<toy line {stmt.line}>", "exec"), namespace)
    return namespace["statement"]


# The statements each kind of event must sit on.
_EVENT_STATEMENTS = {
    KIND_STATEMENT: (Statement, Read), KIND_LOOP_HEAD: While, KIND_LOOP_END: LoopEnd,
}


def _misplaced(event: Event) -> Action:
    def effect(machine: _Machine) -> None:
        raise ToyRuntimeError(f"event at line {event.line} is not a {event.kind}")

    return effect


# --- tracing and replay ------------------------------------------------------

def _trace(program: Program, machine: _Machine) -> None:
    """Run ``program`` on ``machine``, recording its events."""
    statements, pc = program.statements, 0
    while pc < len(statements):
        stmt = statements[pc]
        pc += 1
        if isinstance(stmt, LoopEnd):
            machine.emit(stmt.line, KIND_LOOP_END)
            pc = stmt.head
        elif isinstance(stmt, While):
            machine.emit(stmt.line, KIND_LOOP_HEAD)
            if _action(program, stmt)(machine) == 0:
                pc = stmt.end
        else:
            machine.emit(stmt.line, KIND_STATEMENT)
            _action(program, stmt)(machine)


def trace_program(
    program: Program,
    stdin_tokens: Sequence[int],
    budget: int = DEFAULT_STEP_BUDGET,
) -> tuple[Trace, ReplayOutput]:
    """Execute the program, recording the sequence of events."""
    machine = _Machine(stdin_tokens, budget)
    try:
        _trace(program, machine)
        status, error = STATUS_COMPLETED, None
    except ToyRuntimeError as exc:
        status, error = STATUS_RUNTIME_ERROR, str(exc)
    except _Budget:
        status, error = STATUS_BUDGET_EXHAUSTED, f"exceeded {budget} events"
    output = ReplayOutput(stdout=machine.output(), status=status, error=error)
    return machine.events, output


class ResolvedTrace(tuple):
    """A trace whose events are paired with what replaying them does.

    ``actions[i]`` is the effect of event ``i`` under ``program``, or None
    for an event that only counts against the budget (a loop head on a
    ``while`` line, a loop end on a closing brace).  Built by
    ``resolve_trace``; a replayer holding one does not resolve the trace
    again for every configuration.
    """

    program: Program
    actions: tuple[Optional[Action], ...]

    def __new__(
        cls,
        program: Program,
        events: Sequence[Event],
        actions: tuple[Optional[Action], ...],
    ) -> "ResolvedTrace":
        resolved = super().__new__(cls, events)
        resolved.program = program
        resolved.actions = actions
        return resolved


def resolve_trace(program: Program, trace: Sequence[Event]) -> ResolvedTrace:
    """Pair each event with its compiled effect, once per trace."""
    if isinstance(trace, ResolvedTrace) and trace.program is program:
        return trace
    by_line = {stmt.line: stmt for stmt in program.statements}
    actions = []
    for event in trace:
        stmt = by_line.get(event.line)
        if not isinstance(stmt, _EVENT_STATEMENTS.get(event.kind, ())):
            actions.append(_misplaced(event))
        elif event.kind == KIND_STATEMENT:
            actions.append(_action(program, stmt))
        else:
            actions.append(None)
    return ResolvedTrace(program, trace, tuple(actions))


def replay_events(
    program: Program,
    trace: Sequence[Event],
    config: Configuration,
    stdin_tokens: Sequence[int],
    budget: int = DEFAULT_STEP_BUDGET,
) -> ReplayOutput:
    """Execute exactly the included trace events, in trace order.

    Loop heads and loop ends are no-ops (conditions are never evaluated;
    the trace already dictates the flow).  An event on a line without a
    statement of its kind is a runtime error.  Skipped events have no effect
    at all, and skipped reads consume no stdin tokens.  Every included
    event counts against ``budget``.  Pass a ``resolve_trace`` result to
    replay many configurations of one trace without resolving it each time.
    """
    if config.universe_size != len(trace):
        raise ValueError(
            f"configuration is over {config.universe_size} deltas, "
            f"trace has {len(trace)} events"
        )
    actions = resolve_trace(program, trace).actions
    included = config.members
    machine = _Machine(stdin_tokens, budget)
    try:
        for effect in filter(None, map(actions.__getitem__, included[:budget])):
            effect(machine)
    except ToyRuntimeError as exc:
        return ReplayOutput(machine.output(), STATUS_RUNTIME_ERROR, str(exc))
    if len(included) > budget:
        return ReplayOutput(
            machine.output(), STATUS_BUDGET_EXHAUSTED, f"exceeded {budget} events"
        )
    return ReplayOutput(machine.output(), STATUS_COMPLETED)


# --- trace file format -------------------------------------------------------

def format_trace(trace: Trace) -> str:
    """One event per line: SEQ<TAB>LINE<TAB>KIND."""
    return "".join(f"{e.seq}\t{e.line}\t{e.kind}\n" for e in trace)


def parse_trace(text: str) -> Trace:
    events: Trace = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        try:
            if len(parts) != 3 or parts[2] not in (KIND_STATEMENT, KIND_LOOP_HEAD, KIND_LOOP_END):
                raise ValueError
            events.append(Event(seq=int(parts[0]), line=int(parts[1]), kind=parts[2]))
        except ValueError:
            raise ValueError(f"line {lineno}: malformed trace line {line!r}") from None
    for i, event in enumerate(events, start=1):
        if event.seq != i:
            raise ValueError(f"trace seq values must be dense 1..{len(events)}")
    return events


def read_trace(path: Union[str, Path]) -> Trace:
    return parse_trace(Path(path).read_text(encoding="utf-8"))
