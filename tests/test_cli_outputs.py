"""Output paths that cannot be written: each is named before the first
test, and a report that fails after an axiom violation ends the run with
exit 2 and a message, not an exception."""

import pytest

from deltadebug import tracered
from deltadebug.cli import run

DESK = """\
sum = 0;
a = input("a? ");
while (a <= 3) {
    sum = sum + a;
    a = a + 1;
}
print("sum = ", sum, "\\n");
"""


@pytest.fixture
def command(tmp_path, make_script, monkeypatch):
    """For a command name, its argv over inputs in ``tmp_path``.  Each test
    of a run adds a line to ``tmp_path / "runs"``: a run of the test script,
    or a replay of ``reduce-trace``."""
    runs = tmp_path / "runs"
    count = f'echo >> "{runs}"\n'
    (tmp_path / "crash.txt").write_text("a\n78\nb\n")
    (tmp_path / "base").mkdir()
    (tmp_path / "base" / "f").write_text("x\n")
    (tmp_path / "new.diff").write_text("--- a/f\n+++ b/f\n@@ -1 +1 @@\n-x\n+78\n")
    (tmp_path / "desk.toy").write_text(DESK)
    replay = tracered.replay_events

    def counted_replay(*args):
        with runs.open("a") as f:
            f.write("\n")
        return replay(*args)

    monkeypatch.setattr(tracered, "replay_events", counted_replay)
    workspace = str(tmp_path / "ws")
    argvs = {
        "minimize-input": [
            "--input", str(tmp_path / "crash.txt"), "--workspace", workspace,
            "--test", make_script(count + 'grep -q 78 "$1"'),
        ],
        "minimize-changes": [
            "--baseline", str(tmp_path / "base"), "--diff", str(tmp_path / "new.diff"),
            "--workspace", workspace, "--test", make_script(count + 'grep -q 78 "$1/f"'),
        ],
        "reduce-trace": [
            "--program", str(tmp_path / "desk.toy"), "--stdin", "1",
            "--expect", "sum = 6\\n",
        ],
    }
    return lambda name: [name, *argvs[name]]


@pytest.mark.parametrize("name, flag", [
    ("minimize-input", "--output"),
    ("minimize-input", "--report"),
    ("minimize-changes", "--output-diff"),
    ("minimize-changes", "--report"),
    ("reduce-trace", "--trace-out"),
    ("reduce-trace", "--slice-out"),
    ("reduce-trace", "--report"),
])
@pytest.mark.parametrize("bad, reason", [
    ("no-such-dir/out", "no directory {tmp_path}/no-such-dir"),
    ("out", "it names a directory"),  # made below
    ("new/", "it names a directory"),
])
def test_an_output_that_cannot_be_written_exits_1_before_any_test(
    name, flag, bad, reason, command, tmp_path, capsys
):
    (tmp_path / "out").mkdir()
    path = f"{tmp_path}/{bad}"
    before = sorted(tmp_path.iterdir())
    assert run([*command(name), flag, path]) == 1
    kind = "report " if flag == "--report" else ""
    assert capsys.readouterr().err == (
        f"error: cannot write {kind}{path}: {reason.format(tmp_path=tmp_path)}\n"
    )
    # No test ran (``runs`` is absent), no workspace was made, and no
    # other output was written.
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("name, default", [
    ("minimize-input", "crash.txt.min"),
    ("minimize-changes", "new.diff.min"),
    ("reduce-trace", "desk.toy.trace"),
    ("reduce-trace", "desk.toy.slice"),
])
def test_a_default_output_that_is_a_directory_exits_1_before_any_test(
    name, default, command, tmp_path, capsys
):
    (tmp_path / default).mkdir()
    before = sorted(tmp_path.iterdir())
    assert run(command(name)) == 1
    assert capsys.readouterr().err == (
        f"error: cannot write {tmp_path / default}: it names a directory\n"
    )
    assert sorted(tmp_path.iterdir()) == before


def test_a_report_lost_after_an_axiom_violation_exits_2(tmp_path, make_script, capsys):
    # Every test fails, the empty input's too, so the run ends in an axiom
    # violation.  The report's directory exists when the run starts, and
    # the first test removes it.
    crash = tmp_path / "crash.txt"
    crash.write_text("a\nb\n")
    reports = tmp_path / "reports"
    reports.mkdir()
    report = reports / "report.json"
    code = run([
        "minimize-input", "--input", str(crash), "--report", str(report),
        "--test", make_script(f'rm -rf "{reports}"'), "--workspace", str(tmp_path / "ws"),
    ])
    assert code == 2
    axiom, error = capsys.readouterr().err.splitlines()
    assert axiom.startswith("axiom violation: ")
    assert error.startswith(f"error: cannot write report {report}: ")
