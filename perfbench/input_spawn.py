"""input-spawn: ``ddmin minimize-input`` with the default line,char
schedule and final verification, through the in-process CLI.

Every test spawns a generated ``sh`` + ``grep`` script, and materializing
a candidate is one small file write, so spawn and wait dominate.  The
inputs are seeded text files with planted tokens; the failure reproduces
while every token is present.
"""

from __future__ import annotations

import random
import string
from pathlib import Path

from common import CliSlot, check_exit, run_script, write_script
from harness import Result

# (lines, planted tokens) per slot.  Slots of similar cost keep the median
# and tail reductions inside one cluster of samples.
SLOTS = ((100, 2), (200, 2), (300, 2))
TOKEN_LENGTH = 4
VERIFIED = "verified 1-minimal at char granularity: True"


def generate_input(rng: random.Random, lines: int, count: int) -> tuple[bytes, list[str]]:
    """Lines of two lowercase words, with ``count`` uppercase tokens, each
    ending the line at the centre of its stratum of lines.

    Tokens share no letter with each other or with the filler, so the only
    1-minimal failing input is the tokens in file order.  The seed draws
    the text; the shape of the input, and so the number of tests ddmin
    needs, does not depend on it.
    """
    letters = rng.sample(string.ascii_uppercase, TOKEN_LENGTH * count)
    tokens = ["".join(letters[i * TOKEN_LENGTH:(i + 1) * TOKEN_LENGTH]) for i in range(count)]
    rows = [
        ["".join(rng.choice(string.ascii_lowercase) for _ in range(4)) for _ in range(2)]
        for _ in range(lines)
    ]
    for k, token in enumerate(tokens):
        rows[(2 * k + 1) * lines // (2 * count)].append(token)
    text = "".join(" ".join(row) + "\n" for row in rows)
    return text.encode("ascii"), tokens


class InputSlot(CliSlot):
    def __init__(self, mods, label, root: Path, data: bytes, tokens: list[str],
                 counter: Path):
        stem = root / label
        self.input_path = stem.with_suffix(".txt")
        self.input_path.write_bytes(data)
        self.output_path = stem.with_suffix(".min")
        self.script = write_script(
            stem.with_suffix(".sh"), counter,
            [f'grep -qF {token} "$1"' for token in tokens],
        )
        self.expected = "".join(tokens).encode("ascii")
        argv = [
            "minimize-input", "--input", str(self.input_path),
            "--test", str(self.script),
            "--workspace", str(stem.with_suffix(".ws")),
            "--output", str(self.output_path),
            "--report", str(stem.with_suffix(".report.json")),
        ]
        super().__init__(mods, label, argv, workspace=stem.with_suffix(".ws"), counter=counter)

    def answer(self, exit_code: int):
        data = self.output_path.read_bytes() if exit_code == 0 else b""
        return data, len(data)

    def check(self, result: Result) -> list[str]:
        errors = check_exit(result)
        if errors:
            return errors
        if result.answer != self.expected:
            errors.append(f"minimized input {result.answer!r}, planted {self.expected!r}")
        if VERIFIED not in result.stdout:
            errors.append("the CLI did not report a verified 1-minimal result")
        candidate = self.output_path.with_suffix(".check")
        try:
            candidate.write_bytes(result.answer)
            if run_script(self.script, candidate) != 0:
                errors.append("the minimized input does not fail the script")
            for i in range(len(result.answer)):
                candidate.write_bytes(result.answer[:i] + result.answer[i + 1:])
                if run_script(self.script, candidate) == 0:
                    errors.append(f"not 1-minimal: byte {i} can go")
                    break
        finally:
            candidate.unlink(missing_ok=True)
        return errors


class InputSpawn:
    name = "input-spawn"

    def generate(self, seed: int, root: Path, mods) -> list[InputSlot]:
        rng = random.Random(seed)
        counter = root / "spawns.count"
        counter.write_bytes(b"")
        slots = []
        for lines, count in SLOTS:
            data, tokens = generate_input(rng, lines, count)
            slots.append(InputSlot(mods, f"lines{lines}-tokens{count}", root, data, tokens, counter))
        return slots
