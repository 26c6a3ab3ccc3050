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
\\t, \\" and \\\\ escapes.  Expressions nest to any depth; loops nest at
most MAX_LOOP_NESTING deep.  Variables hold integers and start out
undefined; an undefined value coerces to 0 in arithmetic and comparisons
and prints as the empty string.  Reading consumes the next stdin token and
echoes the prompt (if any) to the output.

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
# Parsing, compiling and running a loop recurse once per enclosing loop.
MAX_LOOP_NESTING = 200

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


# --- AST ---------------------------------------------------------------------
#
# Nodes compare by identity and print with the default repr: no method
# walks a tree, so a program of any depth can be printed, compared and
# hashed.

class _Node:
    __slots__ = ()

    def __init__(self, *fields):
        for name, value in zip(self.__slots__, fields, strict=True):
            setattr(self, name, value)


class IntLit(_Node):
    __slots__ = __match_args__ = ("value",)


class VarRef(_Node):
    __slots__ = __match_args__ = ("name",)


class BinOp(_Node):
    __slots__ = __match_args__ = ("op", "left", "right")


class Neg(_Node):
    __slots__ = __match_args__ = ("operand",)


Expr = Union[IntLit, VarRef, BinOp, Neg]
PrintArg = Union[str, Expr]  # a string literal is its decoded text


class Assign(_Node):
    __slots__ = __match_args__ = ("line", "name", "expr")


class Read(_Node):
    __slots__ = __match_args__ = ("line", "name", "prompt")


class PrintStmt(_Node):
    __slots__ = __match_args__ = ("line", "args")


class LoopEnd(_Node):
    """The closing brace of a loop body; marks the back edge."""

    __slots__ = __match_args__ = ("line",)


class While(_Node):
    __slots__ = __match_args__ = ("line", "cond", "body")  # body ends with a LoopEnd


Stmt = Union[Assign, Read, PrintStmt, While, LoopEnd]


class Program:
    __slots__ = ("statements", "source_lines", "_compiled")

    def __init__(self, statements: tuple[Stmt, ...], source_lines: tuple[str, ...]):
        self.statements = statements
        self.source_lines = source_lines
        # Functions of the statements and loop conditions run so far, by
        # line; see ``_action``.
        self._compiled: dict[int, Action] = {}

    def flattened(self) -> list[Stmt]:
        out: list[Stmt] = []

        def walk(stmts: Sequence[Stmt]) -> None:
            for s in stmts:
                out.append(s)
                if isinstance(s, While):
                    walk(s.body)

        walk(self.statements)
        return out

    def line_map(self) -> dict[int, Stmt]:
        return {s.line: s for s in self.flattened()}

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

class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._pos = 0
        self._used_lines: set[int] = set()
        self._loops = 0  # loops open around the statement being parsed

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

    def parse_program(self) -> tuple[Stmt, ...]:
        stmts: list[Stmt] = []
        while self._peek().kind != "eof":
            stmts.append(self._statement())
        return tuple(stmts)

    def _statement(self) -> Stmt:
        tok = self._peek()
        if tok.kind == "ident" and tok.value == "while":
            return self._while()
        if tok.kind == "ident" and tok.value == "print":
            return self._print()
        if tok.kind == "ident" and tok.value not in _KEYWORDS:
            return self._assign_or_read()
        raise ToyParseError(f"expected a statement, found {tok.value!r}", tok.line, tok.col)

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
        expr = self._expr()
        self._expect("op", ";")
        return Assign(line, name_tok.value, expr)

    def _print(self) -> Stmt:
        tok = self._next()
        line = self._claim_line(tok)
        self._expect("op", "(")
        args: list[PrintArg] = [self._arg()]
        while self._peek().value == ",":
            self._next()
            args.append(self._arg())
        self._expect("op", ")")
        self._expect("op", ";")
        return PrintStmt(line, tuple(args))

    def _arg(self) -> PrintArg:
        if self._peek().kind == "string":
            return self._next().value
        return self._expr()

    def _while(self) -> Stmt:
        tok = self._next()
        line = self._claim_line(tok)
        if self._loops == MAX_LOOP_NESTING:
            raise ToyParseError("loops nested too deeply", tok.line, tok.col)
        self._loops += 1
        self._expect("op", "(")
        cond = self._expr()
        self._expect("op", ")")
        self._expect("op", "{")
        body: list[Stmt] = []
        while not (self._peek().kind == "op" and self._peek().value == "}"):
            if self._peek().kind == "eof":
                raise ToyParseError("unterminated loop body", tok.line, tok.col)
            body.append(self._statement())
        brace = self._next()
        body.append(LoopEnd(self._claim_line(brace)))
        self._loops -= 1
        return While(line, cond, tuple(body))

    # Operator precedence parsing with explicit stacks: nesting and long
    # operator chains cost no recursion.  Precedence: comparison < additive
    # < multiplicative < unary minus; binary operators are left-associative.
    def _expr(self) -> Expr:
        operands: list[Expr] = []
        pending: list[str] = []  # binary operators, _NEG and "(" not yet applied

        def apply(precedence: int) -> None:
            """Apply the pending operators that bind at least this tightly."""
            while pending and pending[-1] != "(" and _PRECEDENCE[pending[-1]] >= precedence:
                op = pending.pop()
                if op == _NEG:
                    operands.append(Neg(operands.pop()))
                else:
                    right = operands.pop()
                    operands.append(BinOp(op, operands.pop(), right))

        open_parens = 0
        while True:
            tok = self._peek()
            if tok.kind == "op" and tok.value in ("-", "("):
                self._next()
                pending.append(_NEG if tok.value == "-" else "(")
                open_parens += tok.value == "("
                continue
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
            return operands.pop()

    def _primary(self) -> Expr:
        tok = self._peek()
        if tok.kind == "int":
            self._next()
            try:
                return IntLit(int(tok.value))
            except ValueError:  # past the interpreter's int/str digit limit
                raise ToyParseError(
                    f"integer literal of {len(tok.value)} digits is too long",
                    tok.line, tok.col,
                ) from None
        if tok.kind == "ident" and tok.value not in _KEYWORDS:
            self._next()
            return VarRef(tok.value)
        raise ToyParseError(f"expected an expression, found {tok.value!r}", tok.line, tok.col)


def parse_program(text: str) -> Program:
    tokens = _lex(text)
    statements = _Parser(tokens).parse_program()
    return Program(statements, tuple(text.split("\n")))


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
# first use, into one Python function: ``_source`` writes its Python text,
# with the result of each operator but the last in a local, and ``_compile``
# compiles that.  Toy names, strings and integers enter the text only as
# ``repr`` literals, so no toy text is ever read as Python.
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

# The Python text of each toy operator applied to its operands' texts.
_OPERATORS = {
    "+": "{} + {}", "-": "{} - {}", "*": "{} * {}", "/": "_divide({}, {})",
    **{op: f"int({{}} {op} {{}})" for op in ("<=", "<", "==", "!=", ">", ">=")},
    _NEG: "-{}",
}
# The only names compiled statements can reach: no builtins.
_GLOBALS = {"__builtins__": {}, "_divide": _divide, "_show": _show, "int": int}


def _source(stmt: Union[Assign, PrintStmt, While]) -> str:
    """The Python source of the function ``statement`` that runs ``stmt``.

    Toy names, strings and integers enter it only as ``repr`` literals.  A
    loop's function is its condition: it returns the condition's value.
    """
    lines = ["def statement(machine):", "store = machine.store"]
    count = 0  # locals written so far

    def expr(root: Expr) -> str:
        """``root`` as Python text reading the local ``store``.

        Built with an explicit stack, post-order, so any depth works.  The
        result of each operator but the last goes into a fresh local as soon
        as its operands are built: evaluation runs left to right, and no
        expression nests.
        """
        nonlocal count
        done: list[str] = []
        todo: list = [root]
        while todo:
            match todo.pop():
                case IntLit(value):
                    done.append(repr(value))
                case VarRef(name):
                    done.append(f"store.get({name!r}, 0)")
                case Neg(operand):
                    todo += (_NEG, operand)
                case BinOp(op, left, right):
                    todo += (op, right, left)
                case op:  # the operands of ``op`` are the last ones built
                    arity = 1 if op == _NEG else 2
                    text = _OPERATORS[op].format(*done[-arity:])
                    del done[-arity:]
                    if todo:
                        lines.append(f"_{count} = {text}")
                        text, count = f"_{count}", count + 1
                    done.append(text)
        return done.pop()

    match stmt:
        case Assign(_, name, value):
            lines.append(f"store[{name!r}] = {expr(value)}")
        case PrintStmt(_, args):
            lines.append("out = machine.out")
            for arg in args:
                match arg:
                    case str():
                        text = repr(arg)
                    case VarRef(name):
                        # Print shows the raw variable: undefined renders empty, not 0.
                        text = f"_show(store[{name!r}]) if {name!r} in store else ''"
                    case _:
                        text = f"_show({expr(arg)})"
                lines.append(f"out.append({text})")
        case While(_, cond, _):
            lines.append(f"return {expr(cond)}")
    return "\n    ".join(lines) + "\n"


def _action(program: Program, stmt: Union[Assign, Read, PrintStmt, While]) -> Action:
    """The function of ``stmt``, compiled on first use and kept with ``program``.

    A loop's function is its condition: it returns the condition's value.
    """
    found = program._compiled.get(stmt.line)
    if found is None:
        found = program._compiled[stmt.line] = _compile(stmt)
    return found


def _compile(stmt: Union[Assign, Read, PrintStmt, While]) -> Action:
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
    exec(compile(_source(stmt), f"<toy line {stmt.line}>", "exec"), namespace)
    return namespace["statement"]


# The statements each kind of event must sit on.
_EVENT_STATEMENTS = {
    KIND_STATEMENT: (Assign, Read, PrintStmt), KIND_LOOP_HEAD: While, KIND_LOOP_END: LoopEnd,
}


def _misplaced(event: Event) -> Action:
    def effect(machine: _Machine) -> None:
        raise ToyRuntimeError(f"event at line {event.line} is not a {event.kind}")

    return effect


# --- tracing and replay ------------------------------------------------------

def _trace(program: Program, machine: _Machine, statements: Sequence[Stmt]) -> None:
    """Run ``statements`` on ``machine``, recording their events."""
    for stmt in statements:
        if isinstance(stmt, LoopEnd):
            machine.emit(stmt.line, KIND_LOOP_END)
        elif isinstance(stmt, While):
            test = _action(program, stmt)
            while True:
                machine.emit(stmt.line, KIND_LOOP_HEAD)
                if test(machine) == 0:
                    break
                _trace(program, machine, stmt.body)
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
        _trace(program, machine, program.statements)
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
    ``while`` line, a loop end on a closing brace).  Built by ``resolve_trace``; a replayer holding one does not
    resolve the trace again for every configuration.
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
    line_map = program.line_map()
    actions = []
    for event in trace:
        stmt = line_map.get(event.line)
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


def write_trace(trace: Trace, path: Union[str, Path]) -> None:
    Path(path).write_text(format_trace(trace), encoding="utf-8")


def read_trace(path: Union[str, Path]) -> Trace:
    return parse_trace(Path(path).read_text(encoding="utf-8"))
