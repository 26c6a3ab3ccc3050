"""Output paths that cannot be written: each is named before the first
test, as are two outputs that name one file; an output lost during the
run leaves the summary and the other outputs; and a report that fails
after an axiom violation ends the run with exit 2 and a message, not an
exception."""

import json
import shutil

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
    or a replay of ``reduce-trace``.  Each test also removes
    ``tmp_path / "late"``."""
    runs = tmp_path / "runs"
    late = tmp_path / "late"
    count = f'echo >> "{runs}"\nrm -rf "{late}"\n'
    (tmp_path / "crash.txt").write_text("a\n78\nb\n")
    (tmp_path / "base").mkdir()
    (tmp_path / "base" / "f").write_text("x\n")
    (tmp_path / "new.diff").write_text("--- a/f\n+++ b/f\n@@ -1 +1 @@\n-x\n+78\n")
    (tmp_path / "desk.toy").write_text(DESK)
    replay = tracered.replay_events

    def counted_replay(*args):
        with runs.open("a") as f:
            f.write("\n")
        shutil.rmtree(late, ignore_errors=True)
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


@pytest.mark.parametrize("name, flags, message", [
    ("minimize-input", ["--output", "same", "--report", "same"], "report same: output same"),
    ("minimize-changes", ["--output-diff", "same", "--report", "same"], "report same: output same"),
    ("reduce-trace", ["--trace-out", "same", "--report", "same"], "report same: output same"),
    ("reduce-trace", ["--trace-out", "same", "--slice-out", "same"], "same: output same"),
    ("reduce-trace", ["--trace-out", "desk.toy.slice"],
     "{tmp_path}/desk.toy.slice: output desk.toy.slice"),
    ("minimize-input", ["--output", "out.min", "--report", "./out.min"],
     "report ./out.min: output out.min"),
    ("minimize-input", ["--output", "link", "--report", "out.min"], "report out.min: output link"),
], ids=["input-report", "changes-report", "trace-report", "trace-slice",
        "trace-default-slice", "dot-slash", "symlink"])
def test_two_outputs_that_name_one_file_exit_1_before_any_test(
    name, flags, message, command, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "link").symlink_to("out.min")
    before = sorted(tmp_path.iterdir())
    assert run([*command(name), *flags]) == 1
    assert capsys.readouterr().err == (
        f"error: cannot write {message.format(tmp_path=tmp_path)} names the same file\n"
    )
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("name, flag", [
    ("minimize-input", "--output"),
    ("minimize-changes", "--output-diff"),
    ("reduce-trace", "--trace-out"),
    ("reduce-trace", "--slice-out"),
    ("reduce-trace", "--report"),
])
def test_an_output_lost_during_the_run_leaves_the_rest(name, flag, command, tmp_path, capsys):
    # The output goes to kept/ in a first run and to late/ in a second.
    # The tests of a run remove late/, which exists when the run starts,
    # so the check before the first test passes and the write fails.
    others = ["--deterministic-report"]
    if flag != "--report":
        others += ["--report", str(tmp_path / "r.json")]
    runs = []
    for place in ("kept", "late"):
        (tmp_path / place).mkdir()
        code = run([*command(name), *others, flag, f"{tmp_path}/{place}/out"])
        out, err = capsys.readouterr()
        written = {}
        for other in ("r.json", "desk.toy.trace", "desk.toy.slice"):
            if (tmp_path / other).exists():
                written[other] = (tmp_path / other).read_bytes()
                (tmp_path / other).unlink()
        runs.append((code, out, err, written))
    (kept_code, kept_out, kept_err, kept_written), (code, out, err, written) = runs
    assert (kept_code, kept_err) == (0, "")
    lost = f"{tmp_path}/late/out"
    assert code == 1
    kind = "report " if flag == "--report" else ""
    assert err.startswith(f"error: cannot write {kind}{lost}: ")
    assert err.count("\n") == 1
    # Every summary line, and every other output, as in the first run.
    expected = kept_out.replace(f"{tmp_path}/kept/out", lost)
    assert out == expected.replace(f"report: {lost}\n", "")
    assert written == kept_written
    if flag != "--report":
        assert "input_final" in json.loads(written["r.json"])
    assert not (tmp_path / "late").exists()


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
