"""The Python text that toy statements compile from.

Toy names and strings must reach that text only as literals: its Python
names are the compiled function's own, and renaming every toy name and
string changes nothing in the parsed text but its constants.
"""

import ast
import random
import re

import pytest

from deltadebug import toylang
from deltadebug.toylang import Statement, While, parse_program

from test_toylang_compile import DEFINED, UNDEFINED, random_tree, render

TOY_NAMES = tuple(sorted(DEFINED)) + UNDEFINED  # TRICKY_NAMES among them
# Toy string literals, as written in toy source, holding ', ", \ and newlines.
TOY_STRINGS = ("'", r"\"", r"\\", r"\n", r"it's \"q\" \\ \n '''", r"\\\"\n")
# The function's parameter and locals, and the globals it is given.
PYTHON_NAMES = {"machine", "store", "out", *toylang._GLOBALS} - {"__builtins__"}
OPERATOR_LOCAL = re.compile(r"_\d+")


def random_source(rng, name, string):
    """A toy program with each toy name written ``name(n)`` and each string
    ``string(s)``."""
    def expr():
        text = render(random_tree(rng, rng.randint(0, 6)))
        return re.sub(r"[A-Za-z_]\w*", lambda match: name(match[0]), text)

    def var():
        return name(rng.choice(TOY_NAMES))

    return (
        f"{var()} = {expr()};\n"
        f'print("{string(rng.choice(TOY_STRINGS))}", {expr()}, {var()});\n'
        f"while ({expr()}) {{\n{var()} = {expr()};\n}}\n"
    )


def toy_texts(program, stmt):
    """The toy names and decoded strings on ``stmt``'s line."""
    return {
        tok.value for tok in toylang._lex(program.source_line(stmt.line))
        if tok.kind == "string" or tok.kind == "ident" and tok.value not in toylang._KEYWORDS
    }


def python_source(stmt):
    return stmt.source


PROLOGUE = "def statement(machine):\n    store = machine.store\n"
# One row per toy source: the Python source of its first statement, after
# PROLOGUE.  Each operator's result but the last goes into the next local
# ``_<n>``.
SOURCE_ROWS = [
    ("r = a + 1;", "store['r'] = store.get('a', 0) + 1"),
    ("r = a - 1;", "store['r'] = store.get('a', 0) - 1"),
    ("r = a * 2;", "store['r'] = store.get('a', 0) * 2"),
    ("r = a / 2;", "store['r'] = _divide(store.get('a', 0), 2)"),
    ("r = a <= b;", "store['r'] = int(store.get('a', 0) <= store.get('b', 0))"),
    ("r = a < b;", "store['r'] = int(store.get('a', 0) < store.get('b', 0))"),
    ("r = a == b;", "store['r'] = int(store.get('a', 0) == store.get('b', 0))"),
    ("r = a != b;", "store['r'] = int(store.get('a', 0) != store.get('b', 0))"),
    ("r = a > b;", "store['r'] = int(store.get('a', 0) > store.get('b', 0))"),
    ("r = a >= b;", "store['r'] = int(store.get('a', 0) >= store.get('b', 0))"),
    ("r = -5;", "store['r'] = -5"),
    ("r = -a;", "store['r'] = -store.get('a', 0)"),
    ("r = (a - (b + 1)) * c;",
     "_0 = store.get('b', 0) + 1\n"
     "    _1 = store.get('a', 0) - _0\n"
     "    store['r'] = _1 * store.get('c', 0)"),
    # A bare variable, parenthesized or not, prints empty when undefined.
    ('print("x\\"\\\\\\n", x, (x), x + 1);',
     "out = machine.out\n"
     "    out.append('x\"\\\\\\n')\n"
     "    out.append(_show(store['x']) if 'x' in store else '')\n"
     "    out.append(_show(store['x']) if 'x' in store else '')\n"
     "    out.append(_show(store.get('x', 0) + 1))"),
    ("while (i < 3) {\n}\n", "return int(store.get('i', 0) < 3)"),
    ("store = machine * _0;", "store['store'] = store.get('machine', 0) * store.get('_0', 0)"),
]


@pytest.mark.parametrize("toy, body", SOURCE_ROWS)
def test_python_source_table(toy, body):
    assert python_source(parse_program(toy).statements[0]) == PROLOGUE + "    " + body + "\n"


def shape(tree):
    """``tree`` dumped with every constant blanked."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant):
            node.value = None
    return ast.dump(tree)


def test_toy_text_enters_the_python_source_only_as_constants():
    rng = random.Random(1919)
    checked = 0
    for _ in range(300):
        state = rng.getstate()
        toy = parse_program(random_source(rng, str, str))
        rng.setstate(state)
        renamed = parse_program(random_source(
            rng, lambda name: f"v{TOY_NAMES.index(name)}", lambda string: "s"
        ))
        for stmt, twin in zip(toy.statements, renamed.statements, strict=True):
            if not isinstance(stmt, (Statement, While)):
                continue
            tree = ast.parse(python_source(stmt))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    assert node.id in PYTHON_NAMES or OPERATOR_LOCAL.fullmatch(node.id)
            constants = {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)}
            assert toy_texts(toy, stmt) <= constants
            assert shape(tree) == shape(ast.parse(python_source(twin)))
            checked += 1
    assert checked == 1200
