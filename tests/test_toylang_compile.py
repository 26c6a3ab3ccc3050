"""The compiled evaluator against a reference evaluator written here.

Random expression trees are rendered as toy source, fully parenthesized,
and run through all three places an expression appears: an assignment, a
print argument and a loop condition.  Each result must equal the
reference's value, or its runtime error message.
"""

import operator
import random
from typing import NamedTuple

import pytest

from deltadebug import Configuration, toylang
from deltadebug.toylang import ToyRuntimeError, parse_program, replay_events, trace_program


# The expression trees generated here; ``render`` writes them as toy source.
class IntLit(NamedTuple):
    value: int


class VarRef(NamedTuple):
    name: str


class BinOp(NamedTuple):
    op: str
    left: object
    right: object


class Neg(NamedTuple):
    operand: object


BINARY_OPS = ("+", "-", "*", "/", "<=", "<", "==", "!=", ">", ">=")
# Names and text that mean something in the generated Python.
TRICKY_NAMES = ("s", "machine", "store", "_divide", "int", "__import__", "out", "_0")
DEFINED = {"x": 7, "y": -3, "z": 0, "s": 11, "machine": -2, "store": 5, "_divide": 2,
           "int": 9, "__import__": -13, "out": 4, "_0": 1}
UNDEFINED = ("u", "v", "_1")


def divide(left, right):
    if right == 0:
        raise ToyRuntimeError("division by zero")
    quotient = left // right
    if quotient < 0 and quotient * right != left:
        quotient += 1  # floor division rounded down; truncate toward zero
    return quotient


ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}
COMPARISON = {"<=": operator.le, "<": operator.lt, "==": operator.eq,
              "!=": operator.ne, ">": operator.gt, ">=": operator.ge}


def apply(op, left, right):
    if op == "/":
        return divide(left, right)
    if op in ARITHMETIC:
        return ARITHMETIC[op](left, right)
    return int(COMPARISON[op](left, right))


def reference(expr, store):
    """Left to right; left operands are walked in a loop, not recursively."""
    spine = []
    while isinstance(expr, BinOp):
        spine.append(expr)
        expr = expr.left
    if isinstance(expr, IntLit):
        value = expr.value
    elif isinstance(expr, VarRef):
        value = store.get(expr.name, 0)
    else:
        value = -reference(expr.operand, store)
    for node in reversed(spine):
        value = apply(node.op, value, reference(node.right, store))
    return value


def render(expr):
    """Toy source for ``expr`` with every operation parenthesized."""
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, VarRef):
        return expr.name
    if isinstance(expr, Neg):
        return f"(-{render(expr.operand)})"
    spine = []
    while isinstance(expr, BinOp):
        spine.append(expr)
        expr = expr.left
    text = render(expr)
    for node in reversed(spine):
        text = f"({text} {node.op} {render(node.right)})"
    return text


def leaf(rng):
    roll = rng.random()
    if roll < 0.4:
        return IntLit(rng.choice([0, 0, 1, 2, 3, 5, 9, 10, 12345678901234567890]))
    if roll < 0.85:
        return VarRef(rng.choice(sorted(DEFINED)))
    return VarRef(rng.choice(UNDEFINED))


def random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.2:
        return leaf(rng)
    if rng.random() < 0.15:
        return Neg(random_tree(rng, depth - 1))
    return BinOp(
        rng.choice(BINARY_OPS), random_tree(rng, depth - 1), random_tree(rng, depth - 1)
    )


def chain(rng, terms):
    expr = leaf(rng)
    for _ in range(terms - 1):
        expr = BinOp(rng.choice(BINARY_OPS), expr, leaf(rng))
    return expr


def nested(rng, levels):
    """Right-nested: every right operand is a parenthesized subexpression."""
    expr = leaf(rng)
    for _ in range(levels):
        expr = BinOp(rng.choice(BINARY_OPS), leaf(rng), expr)
    return expr


def expected(expr):
    try:
        return reference(expr, DEFINED), None
    except ToyRuntimeError as exc:
        return None, str(exc)


def setup_lines():
    return [f"{name} = {value};" for name, value in DEFINED.items()]


def run(source, replay=True):
    """Trace ``source``; a full replay must end the same way."""
    program = parse_program(source)
    trace, out = trace_program(program, [])
    if replay:
        replayed = replay_events(program, trace, Configuration.full(len(trace)), [])
        assert (replayed.stdout, replayed.status, replayed.error) == (
            out.stdout, out.status, out.error
        )
    return trace, out


def check_assignment(expr):
    value, error = expected(expr)
    lines = setup_lines() + [f"r = {render(expr)};", "print(r);"]
    _, out = run("\n".join(lines) + "\n")
    if error is None:
        assert (out.status, out.stdout) == ("completed", str(value))
    else:
        assert (out.status, out.error, out.stdout) == ("runtime-error", error, "")


def check_print_argument(expr):
    value, error = expected(expr)
    lines = setup_lines() + [f'print("<", {render(expr)}, ">");']
    _, out = run("\n".join(lines) + "\n")
    if isinstance(expr, VarRef) and expr.name not in DEFINED:
        value = ""  # a bare undefined variable prints as nothing
    if error is None:
        assert (out.status, out.stdout) == ("completed", f"<{value}>")
    else:
        assert (out.status, out.error, out.stdout) == ("runtime-error", error, "<")


def check_condition(expr):
    value, error = expected(expr)
    # The body runs at most once: the second check multiplies by f = 0.
    # Replay does not evaluate conditions, so only the trace is checked.
    lines = setup_lines() + [
        "f = 1;", f"while (f * {render(expr)} != 0) {{", "f = 0;", "}"
    ]
    trace, out = run("\n".join(lines) + "\n", replay=False)
    heads = sum(1 for e in trace if e.kind == "loop-head")
    if error is None:
        assert out.status == "completed"
        assert heads == (2 if value != 0 else 1)
    else:
        assert (out.status, out.error, heads) == ("runtime-error", error, 1)


CHECKS = (check_assignment, check_print_argument, check_condition)


@pytest.mark.parametrize("check", CHECKS)
def test_random_trees_match_the_reference(check):
    rng = random.Random(4711)
    errors = 0
    for _ in range(150):
        expr = random_tree(rng, rng.randint(1, 6))
        errors += expected(expr)[1] is not None
        check(expr)
    assert 0 < errors < 150  # both paths were taken


@pytest.mark.parametrize("check", CHECKS)
def test_a_900_term_chain(check):
    rng = random.Random(91)
    for _ in range(3):
        check(chain(rng, 900))


@pytest.mark.parametrize("check", CHECKS)
def test_180_nested_parentheses(check):
    rng = random.Random(180)
    for _ in range(3):
        check(nested(rng, 180))


def test_deep_trees_evaluate_left_to_right(monkeypatch):
    # n / 1 for n = 1..200, each right operand nesting the rest: each
    # operator's result goes into a local in post-order, so every division
    # runs before the nested operand to its right.
    dividends = []

    def divide_and_note(left, right):
        dividends.append(left)
        return toylang._divide(left, right)

    monkeypatch.setitem(toylang._GLOBALS, "_divide", divide_and_note)
    expr = IntLit(0)
    for n in range(200, 0, -1):
        expr = BinOp("+", BinOp("/", IntLit(n), IntLit(1)), expr)
    check_assignment(expr)
    assert dividends == list(range(1, 201)) * 2  # traced, then replayed


def test_every_operator_with_negative_operands_and_zero():
    for op in BINARY_OPS:
        for left in (-7, -1, 0, 2, 7):
            for right in (-2, 0, 3):
                expr = BinOp(op, Neg(IntLit(-left)) if left < 0 else IntLit(left),
                             Neg(IntLit(-right)) if right < 0 else IntLit(right))
                check_assignment(expr)


def test_tricky_names_are_plain_toy_variables():
    lines = [f"{name} = {i + 1};" for i, name in enumerate(TRICKY_NAMES)]
    lines.append("print(" + ', " ", '.join(TRICKY_NAMES) + ");")
    lines.append("print(" + " + ".join(TRICKY_NAMES) + ");")
    _, out = run("\n".join(lines) + "\n")
    count = len(TRICKY_NAMES)
    assert out.stdout == " ".join(str(i + 1) for i in range(count)) + str(
        count * (count + 1) // 2
    )


def test_undefined_tricky_names_read_zero_and_print_empty():
    names = ", ".join(TRICKY_NAMES)
    _, out = run(f'print("[", {names}, "]", {" + ".join(TRICKY_NAMES)} - 1);\n')
    assert out.stdout == "[]-1"


@pytest.mark.parametrize("text", [
    '\\"', "\\\\", "{", "}", "{}", "{0}", "{r}", "%s", "'", "'''", '\\"\\"\\"',
    "\\\\n", "\\n", "\\t", "}}{{", "\\\\\\\"",
])
def test_string_literals_are_plain_text(text):
    decoded = (text.replace("\\\\", "\0").replace('\\"', '"').replace("\\n", "\n")
               .replace("\\t", "\t").replace("\0", "\\"))
    _, out = run(f'print("{text}", "|", 1);\n')
    assert out.stdout == decoded + "|1"
