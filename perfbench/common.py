"""Pieces shared by the workloads: in-process CLI slots and test scripts."""

from __future__ import annotations

import io
import shlex
import shutil
import subprocess
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Optional

from harness import Result

SCRIPT_TIMEOUT_S = 30

# Each test script also sleeps this long, standing for the test's own work.
# The program waits for a test with Popen.wait(timeout), which polls about
# 1, 3, 7, 15 and 31 ms after the spawn, so a test that ends just past a
# poll waits for the next one.  Without the sleep a script runs about 2 ms
# and ends just before the 3 ms poll: a host slower by half moves most
# tests to the 7 ms poll and doubles the run time.  With it a script runs
# about 9 ms on a 2-CPU x86-64 machine, midway between the polls at 7 and
# 15 ms, so its spawn cost may more than double before a test moves.
TEST_WORK_S = 0.006


def write_script(path: Path, counter: Path, checks: list[str]) -> Path:
    """A ``sh`` test script that appends one byte to ``counter`` per run,
    sleeps ``TEST_WORK_S``, then exits 0 (failure reproduced) only if every
    check command succeeds."""
    lines = ["#!/bin/sh", f"printf x >> {shlex.quote(str(counter))}",
             f"sleep {TEST_WORK_S}"]
    lines += [f"{check} || exit 1" for check in checks]
    lines.append("exit 0")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    path.chmod(0o755)
    return path


def run_script(script: Path, argument: Path) -> int:
    """Run a test script directly, outside the program under test."""
    done = subprocess.run(
        [str(script), str(argument)],
        cwd=argument if argument.is_dir() else argument.parent,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        timeout=SCRIPT_TIMEOUT_S,
    )
    return done.returncode


class CliSlot:
    """One in-process ``cli.run`` call.  Subclasses say what the final
    result is (``answer``) and how to check it (``check``)."""

    def __init__(self, mods, label: str, argv: list[str],
                 workspace: Optional[Path] = None, counter: Optional[Path] = None):
        self.mods = mods
        self.label = label
        self.argv = argv
        self.workspace = workspace
        self.counter = counter
        if workspace is not None:
            workspace.mkdir(parents=True, exist_ok=True)

    def _count(self) -> int:
        return self.counter.stat().st_size if self.counter else 0

    def prepare(self) -> None:
        self.out = io.StringIO()
        self.err = io.StringIO()
        self.counted_before = self._count()

    def call(self) -> int:
        with redirect_stdout(self.out), redirect_stderr(self.err):
            return self.mods.cli.run(self.argv)

    def collect(self, exit_code: int, capture) -> Result:
        if self.counter is not None:
            tests = self._count() - self.counted_before
        else:
            tests = capture.oracle_calls
        leftover = 0
        if self.workspace is not None:
            # Reported as proc.leftover_workspaces, then cleared so every
            # repetition starts from an empty workspace root.
            for entry in list(self.workspace.iterdir()):
                leftover += 1
                if entry.is_dir():
                    shutil.rmtree(entry, ignore_errors=True)
                else:
                    entry.unlink()
        answer, size = self.answer(exit_code)
        return Result(
            exit_code=exit_code,
            size=size,
            tests=tests,
            answer=answer,
            results=list(capture.results),
            leftover_workspaces=leftover,
            stdout=self.out.getvalue() + self.err.getvalue(),
        )

    def answer(self, exit_code: int) -> tuple[object, int]:
        raise NotImplementedError

    def check(self, result: Result) -> list[str]:
        raise NotImplementedError


def check_exit(result: Result) -> list[str]:
    if result.exit_code != 0:
        tail = result.stdout.strip().splitlines()[-1:] or [""]
        return [f"exit code {result.exit_code}: {tail[0]}"]
    return []
