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

Strings support \\n, \\t, \\" and \\\\ escapes.  Variables hold integers and
start out undefined; an undefined value coerces to 0 in arithmetic and
comparisons and prints as the empty string.  Reading consumes the next
stdin token and echoes the prompt (if any) to the output.

Tracing records one event per executed statement, one loop-head event per
condition evaluation, and one loop-end event per completed iteration (the
closing brace line).  Replay executes a chosen subset of recorded events
in trace order: control-flow events are no-ops because the flow is already
spelled out by the trace, and skipped reads consume no input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


class ToyParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class ToyRuntimeError(Exception):
    pass


class _Budget(Exception):
    pass


# --- AST ---------------------------------------------------------------------

@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class VarRef:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


Expr = Union[IntLit, VarRef, BinOp, Neg]


@dataclass(frozen=True)
class StrLit:
    value: str


PrintArg = Union[StrLit, IntLit, VarRef, BinOp, Neg]


@dataclass(frozen=True)
class Assign:
    line: int
    name: str
    expr: Expr


@dataclass(frozen=True)
class Read:
    line: int
    name: str
    prompt: str


@dataclass(frozen=True)
class PrintStmt:
    line: int
    args: tuple[PrintArg, ...]


@dataclass(frozen=True)
class LoopEnd:
    """The closing brace of a loop body; marks the back edge."""

    line: int


@dataclass(frozen=True)
class While:
    line: int
    cond: Expr
    body: tuple["Stmt", ...]  # ends with the LoopEnd marker


Stmt = Union[Assign, Read, PrintStmt, While, LoopEnd]


@dataclass(frozen=True)
class Program:
    statements: tuple[Stmt, ...]
    source_lines: tuple[str, ...]
    # Closures of the statements run so far, by line; see ``_compiled``.
    _compiled: dict[int, "_Compiled"] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

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

@dataclass(frozen=True)
class _Token:
    kind: str  # "ident" | "int" | "string" | "op" | "eof"
    value: str
    line: int
    col: int


_KEYWORDS = {"while", "input", "print"}
_TWO_CHAR_OPS = ("<=", ">=", "==", "!=")
_ONE_CHAR_OPS = "=+-*/<>(){},;"
_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        start_col = col
        if ch == '"':
            i += 1
            col += 1
            value = []
            while i < n and text[i] != '"':
                if text[i] == "\n":
                    raise ToyParseError("unterminated string", line, start_col)
                if text[i] == "\\":
                    if i + 1 >= n or text[i + 1] not in _ESCAPES:
                        raise ToyParseError("unknown escape", line, col)
                    value.append(_ESCAPES[text[i + 1]])
                    i += 2
                    col += 2
                else:
                    value.append(text[i])
                    i += 1
                    col += 1
            if i >= n:
                raise ToyParseError("unterminated string", line, start_col)
            i += 1
            col += 1
            tokens.append(_Token("string", "".join(value), line, start_col))
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if text[i:i + 2] in _TWO_CHAR_OPS:
            tokens.append(_Token("op", text[i:i + 2], line, start_col))
            i += 2
            col += 2
            continue
        if ch in _ONE_CHAR_OPS:
            tokens.append(_Token("op", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ToyParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


# --- parser ------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._pos = 0
        self._used_lines: set[int] = set()

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
            return Read(line=line, name=name_tok.value, prompt=prompt)
        expr = self._expr()
        self._expect("op", ";")
        return Assign(line=line, name=name_tok.value, expr=expr)

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
        return PrintStmt(line=line, args=tuple(args))

    def _arg(self) -> PrintArg:
        if self._peek().kind == "string":
            return StrLit(self._next().value)
        return self._expr()

    def _while(self) -> Stmt:
        tok = self._next()
        line = self._claim_line(tok)
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
        body.append(LoopEnd(line=self._claim_line(brace)))
        return While(line=line, cond=cond, body=tuple(body))

    # Precedence: comparison < additive < multiplicative < unary < primary.
    def _expr(self) -> Expr:
        left = self._additive()
        while self._peek().kind == "op" and self._peek().value in ("<=", "<", "==", "!=", ">", ">="):
            op = self._next().value
            left = BinOp(op, left, self._additive())
        return left

    def _additive(self) -> Expr:
        left = self._multiplicative()
        while self._peek().kind == "op" and self._peek().value in ("+", "-"):
            op = self._next().value
            left = BinOp(op, left, self._multiplicative())
        return left

    def _multiplicative(self) -> Expr:
        left = self._unary()
        while self._peek().kind == "op" and self._peek().value in ("*", "/"):
            op = self._next().value
            left = BinOp(op, left, self._unary())
        return left

    def _unary(self) -> Expr:
        if self._peek().kind == "op" and self._peek().value == "-":
            self._next()
            return Neg(self._unary())
        return self._primary()

    def _primary(self) -> Expr:
        tok = self._peek()
        if tok.kind == "int":
            self._next()
            return IntLit(int(tok.value))
        if tok.kind == "ident" and tok.value not in _KEYWORDS:
            self._next()
            return VarRef(tok.value)
        if tok.kind == "op" and tok.value == "(":
            self._next()
            inner = self._expr()
            self._expect("op", ")")
            return inner
        raise ToyParseError(f"expected an expression, found {tok.value!r}", tok.line, tok.col)


def parse_program(text: str) -> Program:
    tokens = _lex(text)
    statements = _Parser(tokens).parse_program()
    return Program(statements=statements, source_lines=tuple(text.split("\n")))


# --- trace events ------------------------------------------------------------

@dataclass(frozen=True)
class Event:
    line: int
    seq: int  # 1-based execution time
    kind: str

    @property
    def label(self) -> str:
        return f"{self.line}_{self.seq}"


Trace = list[Event]


@dataclass
class ReplayOutput:
    stdout: str
    status: str
    error: Optional[str] = None


# --- compiled evaluation -----------------------------------------------------
#
# Each statement and expression is compiled once, on first use, into a
# closure; tracing and replay both run those closures.  Variables that were
# never assigned are absent from the store: they read as 0 in arithmetic
# and comparisons and print as the empty string.

Store = dict[str, int]
Evaluator = Callable[[Store], int]


def _divide(left: int, right: int) -> int:
    """Integer division truncating toward zero, exact for any size."""
    if right == 0:
        raise ToyRuntimeError("division by zero")
    quotient = abs(left) // abs(right)
    return -quotient if (left < 0) != (right < 0) else quotient


_BINARY: dict[str, Callable[[Evaluator, Evaluator], Evaluator]] = {
    "+": lambda l, r: lambda store: l(store) + r(store),
    "-": lambda l, r: lambda store: l(store) - r(store),
    "*": lambda l, r: lambda store: l(store) * r(store),
    "/": lambda l, r: lambda store: _divide(l(store), r(store)),
    "<=": lambda l, r: lambda store: int(l(store) <= r(store)),
    "<": lambda l, r: lambda store: int(l(store) < r(store)),
    "==": lambda l, r: lambda store: int(l(store) == r(store)),
    "!=": lambda l, r: lambda store: int(l(store) != r(store)),
    ">": lambda l, r: lambda store: int(l(store) > r(store)),
    ">=": lambda l, r: lambda store: int(l(store) >= r(store)),
}


def _compile_expr(expr: Expr) -> Evaluator:
    match expr:
        case IntLit(value):
            return lambda store: value
        case VarRef(name):
            return lambda store: store.get(name, 0)
        case Neg(operand):
            inner = _compile_expr(operand)
            return lambda store: -inner(store)
        case BinOp(op, left, right):
            return _BINARY[op](_compile_expr(left), _compile_expr(right))
    raise ToyRuntimeError(f"cannot evaluate {expr!r}")


def _compile_print_arg(arg: PrintArg) -> Callable[[Store], str]:
    match arg:
        case StrLit(text):
            return lambda store: text
        case VarRef(name):
            # Print shows the raw variable: undefined renders empty, not 0.
            return lambda store: str(store[name]) if name in store else ""
    value = _compile_expr(arg)
    return lambda store: str(value(store))


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
        self.events.append(Event(line=line, seq=len(self.events) + 1, kind=kind))

    def output(self) -> str:
        return "".join(self.out)


Action = Callable[[_Machine], None]


class _Compiled(NamedTuple):
    effect: Optional[Action]  # what a replayed statement event does; None: nothing
    trace: Action  # runs the statement and records its events


def _compiled(program: Program, stmt: Stmt) -> _Compiled:
    """The closures of ``stmt``, compiled on first use and kept with ``program``."""
    found = program._compiled.get(stmt.line)
    if found is None:
        found = program._compiled[stmt.line] = _compile_statement(program, stmt)
    return found


def _not_a_statement(line: int) -> Action:
    def effect(machine: _Machine) -> None:
        raise ToyRuntimeError(f"event at line {line} is not a statement")

    return effect


def _compile_statement(program: Program, stmt: Stmt) -> _Compiled:
    line = stmt.line
    match stmt:
        case Assign(_, name, expr):
            value = _compile_expr(expr)

            def effect(machine: _Machine) -> None:
                machine.store[name] = value(machine.store)

        case Read(_, name, prompt):
            def effect(machine: _Machine) -> None:
                machine.out.append(prompt)
                if machine.next_token >= len(machine.tokens):
                    raise ToyRuntimeError(f"line {line}: input underrun")
                machine.store[name] = machine.tokens[machine.next_token]
                machine.next_token += 1

        case PrintStmt(_, args):
            renders = tuple(_compile_print_arg(arg) for arg in args)

            def effect(machine: _Machine) -> None:
                out, store = machine.out, machine.store
                for render in renders:
                    out.append(render(store))

        case LoopEnd():
            def trace_end(machine: _Machine) -> None:
                machine.emit(line, KIND_LOOP_END)

            return _Compiled(effect=None, trace=trace_end)

        case While(_, cond, body):
            test = _compile_expr(cond)
            steps = tuple(_compiled(program, s).trace for s in body)

            def run(machine: _Machine) -> None:
                while True:
                    machine.emit(line, KIND_LOOP_HEAD)
                    if test(machine.store) == 0:
                        return
                    for step in steps:
                        step(machine)

            return _Compiled(effect=_not_a_statement(line), trace=run)

        case _:
            raise ToyRuntimeError(f"cannot execute {stmt!r}")

    def trace(machine: _Machine) -> None:
        machine.emit(line, KIND_STATEMENT)
        effect(machine)

    return _Compiled(effect=effect, trace=trace)


# --- tracing and replay ------------------------------------------------------

def trace_program(
    program: Program,
    stdin_tokens: Sequence[int],
    budget: int = DEFAULT_STEP_BUDGET,
) -> tuple[Trace, ReplayOutput]:
    """Execute the program, recording the sequence of events."""
    machine = _Machine(stdin_tokens, budget)
    try:
        for stmt in program.statements:
            _compiled(program, stmt).trace(machine)
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
    for an event that only counts against the budget (loop heads and loop
    ends).  Built by ``resolve_trace``; a replayer holding one does not
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
        if event.kind != KIND_STATEMENT:
            actions.append(None)
        elif stmt is None:
            actions.append(_not_a_statement(event.line))
        else:
            actions.append(_compiled(program, stmt).effect)
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
    the trace already dictates the flow).  Skipped events have no effect
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
        if len(parts) != 3 or parts[2] not in (KIND_STATEMENT, KIND_LOOP_HEAD, KIND_LOOP_END):
            raise ValueError(f"line {lineno}: malformed trace line {line!r}")
        events.append(Event(seq=int(parts[0]), line=int(parts[1]), kind=parts[2]))
    for i, event in enumerate(events, start=1):
        if event.seq != i:
            raise ValueError(f"trace seq values must be dense 1..{len(events)}")
    return events


def write_trace(trace: Trace, path: Union[str, Path]) -> None:
    Path(path).write_text(format_trace(trace), encoding="utf-8")


def read_trace(path: Union[str, Path]) -> Trace:
    return parse_trace(Path(path).read_text(encoding="utf-8"))
