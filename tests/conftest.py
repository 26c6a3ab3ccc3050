import difflib
import stat
from pathlib import Path

import pytest

import deltadebug
from deltadebug import core
from support import audited

SAMPLE_PROGRAM = """\
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


def pytest_configure(config):
    """Audit the log of every ddmin run of the session, ``run_passes``'s
    passes and the front-ends' included (see ``support.audit_log``).  The
    wrap comes before collection, so a test module's ``from deltadebug
    import ddmin`` reads it too."""
    core.ddmin = deltadebug.ddmin = audited(core.ddmin)


def pytest_unconfigure(config):
    core.ddmin = deltadebug.ddmin = core.ddmin.__wrapped__


@pytest.fixture
def sample_source() -> str:
    return SAMPLE_PROGRAM


@pytest.fixture
def make_script(tmp_path):
    """Write an executable shell script and return its path."""

    counter = {"n": 0}

    def write(body: str) -> str:
        counter["n"] += 1
        path = tmp_path / f"script{counter['n']}.sh"
        path.write_text("#!/bin/sh\n" + body + "\n")
        path.chmod(path.stat().st_mode | stat.S_IXUSR | stat.S_IXGRP | stat.S_IXOTH)
        return str(path)

    return write


@pytest.fixture
def workspace_root(tmp_path) -> Path:
    root = tmp_path / "workspaces"
    root.mkdir()
    return root


CAUSES = {("lib/a.txt", 9): "CAUSE_A", ("main/c.txt", 9): "CAUSE_B"}


@pytest.fixture
def two_cause_changes(make_script):
    """Twelve one-line edits, four in each of three files in two
    directories, as (baseline tree, unified diff, dependency TSV, test
    script).

    The failure needs change 2 (``CAUSE_A``) and change 10 (``CAUSE_B``).
    The dependencies make 2 require 1, 10 require 5, 5 require 4 and 11
    require 0, so the smallest closed failing set is {1, 2, 4, 5, 10}.
    """
    baseline, chunks = {}, []
    for path in ("lib/a.txt", "lib/b.txt", "main/c.txt"):
        old = [f"{path} {i}\n" for i in range(1, 17)]
        new = [
            f"{path} {i} {CAUSES.get((path, i), 'edited')}\n" if i % 4 == 1 else line
            for i, line in enumerate(old, start=1)
        ]
        baseline[path] = "".join(old)
        chunks.extend(difflib.unified_diff(old, new, f"a/{path}", f"b/{path}"))
    deps = "# child<TAB>parent\n2\t1\n10\t5\n5\t4\n11\t0\n"
    test = make_script('grep -rq CAUSE_A "$1" && grep -rq CAUSE_B "$1"')
    return baseline, "".join(chunks), deps, test
