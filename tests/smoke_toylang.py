"""Trace and replay the desk program, deep-expression and nested-loop probes,
and print, compare and hash a deep program.

Needs only the standard library, so it runs on a Python without pytest:

    python -W error tests/smoke_toylang.py

Prints one line per probe and exits 1 if any probe ends otherwise than
expected.
"""

import operator
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from deltadebug import Configuration  # noqa: E402
from deltadebug.toylang import (  # noqa: E402
    ToyParseError,
    parse_program,
    replay_events,
    trace_program,
)

DESK = """\
sum = 0;
mul = 1;
a = input("a? ");
b = input("b? ");
while (a <= b) {
    sum = sum + a;
    mul = mul * a;
    a = a + 1;
}
print("sum = ", sum, "\\n");
print("mul = ", mul, "\\n");
"""

HUGE = "a = 10;\ni = 0;\nwhile (i < 13) {\na = a * a;\ni = i + 1;\n}\nprint(a);\n"
OPS = ["+", "-", "*", "/", "<=", "<", "==", "!=", ">", ">="]
CHAIN_900 = "x = 3;\nr = " + " ".join(
    f"{OPS[i % 10]} x" if i else "x" for i in range(900)
) + ";\nprint(r);\n"


STEP = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "<=": operator.le, "<": operator.lt, "==": operator.eq,
    "!=": operator.ne, ">": operator.gt, ">=": operator.ge,
}


def chain_900_value() -> str:
    """The chain folded left to right; ``/`` truncates toward zero."""
    value = 3
    for i in range(1, 900):
        op = OPS[i % 10]
        if op == "/":
            value = -(-value // 3) if value < 0 else value // 3
        else:
            value = int(STEP[op](value, 3))
    return str(value)


# Far past any recursion limit: parsing, tracing and replay recurse nowhere.
LOOPS = "while (0) {\n" * 5000 + "}\n" * 5000


def probe(name, source, stdin=(), expect=("completed", None)):
    """Parse, trace and fully replay; compare the outcome with ``expect``."""
    try:
        program = parse_program(source)
    except ToyParseError as exc:
        got = ("parse-error", str(exc))
    else:
        trace, out = trace_program(program, stdin)
        full = Configuration.full(len(trace))
        replayed = replay_events(program, trace, full, stdin)
        if (replayed.status, replayed.stdout) != (out.status, out.stdout):
            got = ("replay-differs", replayed.status)
        else:
            got = (out.status, out.error if out.error else out.stdout)
    ok = got[0] == expect[0] and (expect[1] is None or got[1] == expect[1])
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {got[0]} {str(got[1])[:60]!r}")
    return ok


def deep_program_probe(source):
    """``repr``, ``==`` and ``hash`` of a deep program walk no tree."""
    try:
        program = parse_program(source)
        repr(program)
        ok = program == program and program != parse_program(source)
        hash(program.statements[1])
        got = "identity" if ok else "compared by value"
    except RecursionError:
        got = "RecursionError"
    print(f"{'ok  ' if got == 'identity' else 'FAIL'} 3000-term program repr, ==, hash: {got}")
    return got == "identity"


def main() -> int:
    print(f"Python {sys.version.split()[0]}")
    digit_limit = hasattr(sys, "get_int_max_str_digits")
    chain_3000 = "x = 1;\na = " + " + ".join(["x"] * 3000) + ";\nprint(a);\n"
    results = [
        probe("desk 0,5", DESK, [0, 5], ("completed", "a? b? sum = 15\nmul = 0\n")),
        probe("250 nested parentheses", "a = " + "(" * 250 + "1" + ")" * 250
              + ";\nprint(a);\n", expect=("completed", "1")),
        probe("3000-term chain", chain_3000, expect=("completed", "3000")),
        deep_program_probe(chain_3000),
        probe("900-term chain, ten operators", CHAIN_900,
              expect=("completed", chain_900_value())),
        probe("3001 unary minuses", "a = " + "-" * 3001 + "1;\nprint(a);\n",
              expect=("completed", "-1")),
        probe("5000 nested loops", LOOPS, expect=("completed", "")),
    ]
    if digit_limit:
        results += [
            probe("5000-digit literal", "a = " + "7" * 5000 + ";\n",
                  expect=("parse-error", None)),
            probe("print past the digit limit", HUGE,
                  expect=("runtime-error", "integer too large to print")),
        ]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
