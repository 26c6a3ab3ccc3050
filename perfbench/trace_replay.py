"""trace-replay: ``ddmin reduce-trace`` through the in-process CLI.

Replay and the post-run verification replays dominate: the engine works
over only a hundred-odd events, but it runs many tests.  A pass runs the
desk program at the scale of the acceptance suite (three fixed slices with
known answers), the desk program scaled by seeded stdin, and seeded
generated programs with several accumulators, each expecting one line.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

from common import CliSlot, check_exit
from harness import Result

# The desk example of the source paper, as in the repository's tests.
DESK_PROGRAM = """\
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

# Slices asserted by the acceptance suite for stdin 0,5.
SUM_CORE = {"8_8", "6_11", "8_13", "6_16", "8_18", "6_21", "8_23",
            "6_26", "8_28", "6_31"}

DESK_ITERATIONS = (20, 24)            # seeded start value, fixed length
GENERATED = ((3, 20), (4, 17), (5, 14))  # (accumulators, iterations)

_SLICE_RE = re.compile(r"^critical slice \((\d+) events\): ?(.*)$", re.M)


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def acceptance_errors(kind: str, labels: set[str]) -> list[str]:
    """The desk slices of the acceptance suite, for stdin 0,5."""
    sevens = sum(1 for label in labels if label.startswith("7_"))
    ok = {
        "both": len(labels) == 13 and SUM_CORE <= labels
        and {"10_36", "11_37"} <= labels and sevens == 1,
        "sum": labels == SUM_CORE | {"10_36"},
        "mul": len(labels) == 2 and "11_37" in labels and sevens == 1,
    }[kind]
    return [] if ok else [f"desk {kind} slice {sorted(labels)} differs from the acceptance suite"]


def generated_program(rng: random.Random, accumulators: int) -> tuple[str, list]:
    """A loop updating a chain of accumulators; the last one is printed.

    Every coefficient and start value is nonzero, so the printed value
    depends on every update and the slice has the same shape for every
    seed.  Returns the source and the terms the reference simulation uses.
    """
    terms = [(rng.randint(1, 9), rng.randint(1, 4), rng.randint(1, 9))
             for _ in range(accumulators)]
    lines = ['n = input("n? ");', "i = 0;"]
    lines += [f"acc{k} = {start};" for k, (start, _, _) in enumerate(terms)]
    lines.append("while (i < n) {")
    for k, (_, mult, add) in enumerate(terms):
        source = "i" if k == 0 else f"acc{k - 1}"
        lines.append(f"    acc{k} = acc{k} + {source} * {mult} - {add};")
    lines += ["    i = i + 1;", "}"]
    last = accumulators - 1
    lines.append(f'print("acc{last} = ", acc{last}, "\\n");')
    return "\n".join(lines) + "\n", terms


def simulate_generated(terms, iterations: int) -> int:
    acc = [start for start, _, _ in terms]
    for i in range(iterations):
        for k, (_, mult, add) in enumerate(terms):
            acc[k] += (i if k == 0 else acc[k - 1]) * mult - add
    return acc[-1]


class TraceSlot(CliSlot):
    def __init__(self, mods, label, root: Path, source: str, tokens: list[int],
                 expected: str, prefixes: list[str], acceptance: str = ""):
        stem = root / label
        self.program_path = stem.with_suffix(".toy")
        self.program_path.write_text(source, encoding="utf-8")
        self.trace_path = stem.with_suffix(".trace")
        self.report_path = stem.with_suffix(".report.json")
        self.tokens = tokens
        self.expected = expected
        self.prefixes = prefixes
        self.acceptance = acceptance
        argv = [
            "reduce-trace", "--program", str(self.program_path),
            "--stdin", ",".join(map(str, tokens)),
            "--expect", _escape(expected),
            "--filter", ",".join(prefixes),
            "--trace-out", str(self.trace_path),
            "--slice-out", str(stem.with_suffix(".slice")),
            "--report", str(self.report_path),
        ]
        super().__init__(mods, label, argv)

    def answer(self, exit_code: int):
        match = _SLICE_RE.search(self.out.getvalue())
        if exit_code != 0 or match is None:
            return None, 0
        return tuple(match.group(2).split()), int(match.group(1))

    def check(self, result: Result) -> list[str]:
        errors = check_exit(result)
        if errors or result.answer is None:
            return errors or ["no critical slice printed"]
        labels = set(result.answer)
        if self.acceptance:
            errors += acceptance_errors(self.acceptance, labels)
        report = json.loads(self.report_path.read_text(encoding="utf-8"))
        if report.get("verified_1_minimal") is not True:
            errors.append("report does not say verified_1_minimal")
        errors += self._replay_check(labels)
        return errors

    def _replay_check(self, labels: set[str]) -> list[str]:
        """Replay the slice and each slice minus one event with the raw
        replay oracle: the slice must reproduce the output, no smaller one."""
        toylang, tracered, core = self.mods.toylang, self.mods.tracered, self.mods.core
        program = toylang.parse_program(self.program_path.read_text(encoding="utf-8"))
        trace = toylang.read_trace(self.trace_path)
        seqs = {int(label.split("_")[1]) for label in labels}
        if {f"{trace[s - 1].line}_{s}" for s in seqs} != labels:
            return ["slice labels do not match the trace file"]
        oracle = tracered.ReplayOracle(
            program, trace, self.tokens,
            tracered.OutputExpectation.derive(self.expected, self.prefixes),
        )
        full = core.Configuration(len(trace), [s - 1 for s in seqs])
        if oracle.evaluate(full) is not core.Outcome.FAIL:
            return ["slice replay does not reproduce the expected output"]
        for s in sorted(seqs):
            if oracle.evaluate(full.without([s - 1])) is core.Outcome.FAIL:
                return [f"slice is not 1-minimal: event {s} can go"]
        return []


class TraceReplay:
    name = "trace-replay"

    def generate(self, seed: int, root: Path, mods) -> list[TraceSlot]:
        rng = random.Random(seed)
        slots = [
            TraceSlot(mods, "desk-both", root, DESK_PROGRAM, [0, 5],
                      "sum = 15\nmul = 0\n", ["sum", "mul"], acceptance="both"),
            TraceSlot(mods, "desk-sum", root, DESK_PROGRAM, [0, 5],
                      "sum = 15\n", ["sum"], acceptance="sum"),
            TraceSlot(mods, "desk-mul", root, DESK_PROGRAM, [0, 5],
                      "mul = 0\n", ["mul"], acceptance="mul"),
        ]
        for iterations, both in zip(DESK_ITERATIONS, (False, True)):
            a = rng.randint(1, 9)
            b = a + iterations - 1
            total = sum(range(a, b + 1))
            product = 1
            for v in range(a, b + 1):
                product *= v
            expected = f"sum = {total}\n" + (f"mul = {product}\n" if both else "")
            prefixes = ["sum", "mul"] if both else ["sum"]
            slots.append(TraceSlot(mods, f"desk-{iterations}", root, DESK_PROGRAM,
                                   [a, b], expected, prefixes))
        for accumulators, iterations in GENERATED:
            source, terms = generated_program(rng, accumulators)
            name = f"acc{accumulators - 1}"
            expected = f"{name} = {simulate_generated(terms, iterations)}\n"
            slots.append(TraceSlot(mods, f"gen{accumulators}x{iterations}", root,
                                   source, [iterations], expected, [name]))
        return slots
