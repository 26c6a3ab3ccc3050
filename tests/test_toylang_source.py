"""The Python text that toy statements compile from.

Toy names and strings must reach that text only as literals: its Python
names are the compiled function's own, and renaming every toy name and
string changes nothing in the parsed text but its constants.
"""

import ast
import random
import re

from deltadebug import toylang
from deltadebug.toylang import Assign, BinOp, Neg, PrintStmt, VarRef, While, parse_program

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


def toy_texts(stmt):
    """The toy names and decoded strings that ``stmt`` holds."""
    texts, todo = set(), []
    match stmt:
        case Assign(_, name, expr):
            texts.add(name)
            todo.append(expr)
        case PrintStmt(_, args):
            todo += args
        case While(_, cond, _):
            todo.append(cond)
    while todo:
        match todo.pop():
            case str() as text:
                texts.add(text)
            case VarRef(name):
                texts.add(name)
            case BinOp(_, left, right):
                todo += (left, right)
            case Neg(operand):
                todo.append(operand)
    return texts


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
        for stmt, twin in zip(toy.flattened(), renamed.flattened(), strict=True):
            if not isinstance(stmt, (Assign, PrintStmt, While)):
                continue
            tree = ast.parse(toylang._source(stmt))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    assert node.id in PYTHON_NAMES or OPERATOR_LOCAL.fullmatch(node.id)
            constants = {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)}
            assert toy_texts(stmt) <= constants
            assert shape(tree) == shape(ast.parse(toylang._source(twin)))
            checked += 1
    assert checked == 1200
