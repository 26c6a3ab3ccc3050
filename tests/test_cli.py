import difflib
import json
import re
from pathlib import Path

import pytest

from deltadebug import bench
from deltadebug.cli import run


@pytest.fixture
def crash_input(tmp_path):
    path = tmp_path / "crash.txt"
    path.write_text("".join(f"{i}\n" for i in range(300)))
    return path


@pytest.fixture
def grep_script(make_script):
    return make_script('grep -q 78 "$1"')


def common_flags(tmp_path):
    return ["--workspace", str(tmp_path / "ws"), "--deterministic-report"]


@pytest.mark.parametrize("argv, prog, message", [
    ([], "ddmin", "the following arguments are required: command"),
    (["minimize-input"], "ddmin minimize-input",
     "the following arguments are required: --input, --test"),
    (["minimize-changes"], "ddmin minimize-changes",
     "the following arguments are required: --baseline, --diff, --test"),
    (["reduce-trace"], "ddmin reduce-trace",
     "the following arguments are required: --program, --expect"),
    (["bench"], "ddmin bench", "the following arguments are required: --oracle, --sizes"),
    (["bench", "--oracle", "single", "--sizes", "4", "--frobnicate"], "ddmin",
     "unrecognized arguments: --frobnicate"),
], ids=["top-level", "minimize-input", "minimize-changes", "reduce-trace", "bench",
        "unknown-option"])
def test_a_usage_error_exits_1_after_the_usage_line(argv, prog, message, capsys):
    # --help exits 0 and prints the usage line that a usage error repeats;
    # 2 is the exit status of an axiom violation.
    assert run([*prog.split()[1:], "--help"]) == 0
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert usage.startswith(f"usage: {prog} ")
    assert run(argv) == 1
    assert capsys.readouterr() == ("", f"{usage}\n{prog}: error: {message}\n")


class TestMinimizeInputCommand:
    def test_reduces_to_the_substring(self, tmp_path, crash_input, grep_script, capsys):
        report = tmp_path / "report.json"
        code = run([
            "minimize-input", "--input", str(crash_input),
            "--test", grep_script, "--report", str(report),
            *common_flags(tmp_path),
        ])
        assert code == 0
        assert Path(f"{crash_input}.min").read_bytes() == b"78"
        doc = json.loads(report.read_text())
        assert doc["verified_1_minimal"] is True

    def test_no_test_runs_after_the_passes(self, tmp_path, crash_input, make_script, capsys):
        # Every spawn of the script is a test some pass logged: the result
        # is not re-tested once the passes are done.
        runs = tmp_path / "runs"
        script = make_script(f'echo >> "{runs}"\ngrep -q 78 "$1"')
        code = run([
            "minimize-input", "--input", str(crash_input), "--test", script,
            *common_flags(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "verified 1-minimal at char granularity: True" in out
        logged = re.findall(r"\((\d+) oracle tests, \d+ cached, (\d+) axiom checks\)", out)
        assert len(logged) == 2
        spawned = len(runs.read_text().splitlines())
        assert spawned == sum(int(oracle) + int(axiom) for oracle, axiom in logged)

    def test_keep_failing_keeps_one_workspace_per_run(
        self, tmp_path, crash_input, make_script, capsys
    ):
        # A line pass and a char pass share one oracle: the test numbers
        # run on across the passes and one failing workspace survives.
        seqs = tmp_path / "seqs"
        script = make_script(f'echo "$DDMIN_TEST_SEQ" >> "{seqs}"\ngrep -q 78 "$1"')
        code = run([
            "minimize-input", "--input", str(crash_input), "--test", script,
            "--keep-failing", *common_flags(tmp_path),
        ])
        assert code == 0
        printed = re.findall(r"failing workspace kept: (.+)", capsys.readouterr().out)
        survivors = [str(p) for p in (tmp_path / "ws").iterdir()]
        assert survivors == printed
        numbers = [int(line) for line in seqs.read_text().split()]
        assert numbers == list(range(1, len(numbers) + 1))

    def test_unknown_granularity_exits_1_before_any_test(self, tmp_path, make_script, capsys):
        # The whole schedule is checked first, not once the line pass is done.
        crash = tmp_path / "crash.txt"
        crash.write_text("a\nBUG\nb\n")
        runs = tmp_path / "runs"
        script = make_script(f'echo >> "{runs}"\ngrep -q BUG "$1"')
        code = run([
            "minimize-input", "--input", str(crash), "--test", script,
            "--granularity", "line,chr", *common_flags(tmp_path),
        ])
        assert code == 1
        assert "unknown granularity 'chr'" in capsys.readouterr().err
        assert not runs.exists()

    def test_a_timeout_beyond_what_poll_takes_exits_1_before_any_test(
        self, tmp_path, crash_input, make_script, capsys
    ):
        runs = tmp_path / "runs"
        code = run([
            "minimize-input", "--input", str(crash_input),
            "--test", make_script(f'echo >> "{runs}"\ngrep -q 78 "$1"'),
            "--timeout", str(2**31), *common_flags(tmp_path),
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: timeout must be at most 2147483647 ms\n"
        assert not runs.exists()

    def test_char_pass_over_bytes_that_are_not_utf8_runs_over_bytes(
        self, tmp_path, make_script, capsys
    ):
        crash = tmp_path / "crash.txt"
        crash.write_bytes(b"a\nBUG\xff\nb\n")
        code = run([
            "minimize-input", "--input", str(crash), "--test", make_script('grep -q BUG "$1"'),
            *common_flags(tmp_path),
        ])
        assert code == 0
        assert Path(f"{crash}.min").read_bytes() == b"BUG"
        out = capsys.readouterr().out
        assert "byte pass: 5 -> 3 deltas" in out
        assert "verified 1-minimal at byte granularity: True" in out

    def test_a_first_char_pass_over_bytes_that_are_not_utf8_exits_1(
        self, tmp_path, make_script, capsys
    ):
        crash = tmp_path / "crash.txt"
        crash.write_bytes(b"a\nBUG\xff\nb\n")
        code = run([
            "minimize-input", "--input", str(crash), "--test", make_script('grep -q BUG "$1"'),
            "--granularity", "char", *common_flags(tmp_path),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: input is not valid UTF-8; use byte granularity instead\n"
        )

    def test_a_report_that_cannot_be_written_exits_1(
        self, tmp_path, crash_input, grep_script, capsys
    ):
        report = tmp_path / "missing" / "report.json"
        code = run([
            "minimize-input", "--input", str(crash_input), "--test", grep_script,
            "--report", str(report), *common_flags(tmp_path),
        ])
        assert code == 1
        assert f"cannot write report {report}" in capsys.readouterr().err

    def test_an_empty_input_reports_a_ratio_of_zero(self, tmp_path, make_script):
        # Its one configuration is both the full and the empty one, so one
        # axiom fails; the report still covers the empty universe.
        empty = tmp_path / "empty.txt"
        empty.write_bytes(b"")
        report = tmp_path / "report.json"
        code = run([
            "minimize-input", "--input", str(empty), "--test", make_script("exit 0"),
            "--report", str(report), *common_flags(tmp_path),
        ])
        assert code == 2
        doc = json.loads(report.read_text())
        assert (doc["universe_size"], doc["final"], doc["ratio"]) == (0, [], 0.0)

    def test_missing_test_flag_is_a_usage_error(self, crash_input):
        assert run(["minimize-input", "--input", str(crash_input)]) == 1

    def test_relative_test_command_resolves_against_invocation_dir(
        self, tmp_path, crash_input, grep_script, monkeypatch
    ):
        # The test command runs inside the per-test workspace; a ./script
        # given on the command line must still be found.
        monkeypatch.chdir(Path(grep_script).parent)
        code = run([
            "minimize-input", "--input", str(crash_input),
            "--test", f"./{Path(grep_script).name}",
            "--output", str(tmp_path / "rel.min"),
            *common_flags(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "rel.min").read_bytes() == b"78"

    def test_passing_oracle_exits_2(self, tmp_path, crash_input, make_script):
        never_fails = make_script("exit 1")
        report = tmp_path / "report.json"
        code = run([
            "minimize-input", "--input", str(crash_input),
            "--test", never_fails, "--report", str(report),
            *common_flags(tmp_path),
        ])
        assert code == 2
        doc = json.loads(report.read_text())
        assert doc["final"] == []
        assert set(doc["counters"]) == {"axiom"}
        assert list(doc)[-1] == "input_final"
        assert doc["input_final"] == []

    def test_deterministic_reports_are_byte_identical(self, tmp_path, crash_input, grep_script):
        reports = []
        for name in ("r1.json", "r2.json"):
            report = tmp_path / name
            code = run([
                "minimize-input", "--input", str(crash_input),
                "--test", grep_script, "--report", str(report),
                "--output", str(tmp_path / "out.min"),
                *common_flags(tmp_path),
            ])
            assert code == 0
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]


@pytest.fixture
def change_fixture(tmp_path, make_script):
    baseline_dir = tmp_path / "baseline"
    (baseline_dir / "src").mkdir(parents=True)
    content = {}
    for name in ("alpha.txt", "beta.txt"):
        content[name] = "".join(f"{name} {i}\n" for i in range(1, 33))
        (baseline_dir / "src" / name).write_text(content[name])
    modified = {}
    for name, text in content.items():
        for ln in (4, 12, 20, 28):
            marker = " BUG" if (name, ln) == ("beta.txt", 20) else ""
            text = text.replace(f"{name} {ln}\n", f"{name} {ln} touched{marker}\n")
        modified[name] = text
    diff_chunks = []
    for name in content:
        diff_chunks.extend(difflib.unified_diff(
            content[name].splitlines(keepends=True),
            modified[name].splitlines(keepends=True),
            fromfile=f"a/src/{name}", tofile=f"b/src/{name}",
        ))
    diff_path = tmp_path / "changes.diff"
    diff_path.write_text("".join(diff_chunks))
    test_script = make_script('grep -rq BUG "$1"')
    return baseline_dir, diff_path, test_script


class TestMinimizeChangesCommand:
    def test_isolates_the_culprit_hunk(self, tmp_path, change_fixture):
        baseline_dir, diff_path, test_script = change_fixture
        out_diff = tmp_path / "min.diff"
        report = tmp_path / "report.json"
        code = run([
            "minimize-changes", "--baseline", str(baseline_dir),
            "--diff", str(diff_path), "--test", test_script,
            "--output-diff", str(out_diff), "--report", str(report),
            *common_flags(tmp_path),
        ])
        assert code == 0
        text = out_diff.read_text()
        assert "BUG" in text
        assert sum(1 for l in text.splitlines() if l.startswith("@@")) == 1
        doc = json.loads(report.read_text())
        assert len(doc["final"]) == 1
        assert doc["verified_1_minimal"] is True

    def test_grouping_pass_gives_the_same_answer(self, tmp_path, change_fixture):
        baseline_dir, diff_path, test_script = change_fixture
        out_a = tmp_path / "direct.diff"
        out_b = tmp_path / "grouped.diff"
        for out, extra in ((out_a, []), (out_b, ["--groups", "file"])):
            code = run([
                "minimize-changes", "--baseline", str(baseline_dir),
                "--diff", str(diff_path), "--test", test_script,
                "--output-diff", str(out), *extra,
                *common_flags(tmp_path),
            ])
            assert code == 0
        assert out_a.read_text() == out_b.read_text()

    def test_report_names_the_result_in_change_ids(self, tmp_path, two_cause_changes):
        # The member pass counts in its own ids: its deltas 2 and 6 are the
        # diff's changes 2 and 10.
        from deltadebug.changes import write_tree

        baseline, diff, _, test = two_cause_changes
        write_tree(baseline, tmp_path / "baseline")
        (tmp_path / "changes.diff").write_text(diff)
        report = tmp_path / "report.json"
        code = run([
            "minimize-changes", "--baseline", str(tmp_path / "baseline"),
            "--diff", str(tmp_path / "changes.diff"), "--test", test,
            "--groups", "file", "--report", str(report), *common_flags(tmp_path),
        ])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["final"] == [2, 6]
        assert list(doc)[-1] == "input_final"
        assert doc["input_final"] == [2, 10]

    def test_dependency_chain_reduces_underlying_tests(self, tmp_path, make_script):
        # Eight single-line edits in one file, each requiring its
        # predecessors; FAIL iff edit 5 is applied.
        baseline_dir = tmp_path / "chainbase"
        baseline_dir.mkdir()
        base = "".join(f"line {i}\n" for i in range(1, 33))
        (baseline_dir / "code.txt").write_text(base)
        modified = base
        for i in range(8):
            ln = 2 + 4 * i
            marker = " CAUSE" if i == 5 else ""
            modified = modified.replace(f"line {ln}\n", f"line {ln} v2{marker}\n")
        diff = "".join(difflib.unified_diff(
            base.splitlines(keepends=True), modified.splitlines(keepends=True),
            fromfile="a/code.txt", tofile="b/code.txt",
        ))
        diff_path = tmp_path / "chain.diff"
        diff_path.write_text(diff)
        deps_path = tmp_path / "deps.tsv"
        deps_path.write_text("".join(f"{i}\t{i - 1}\n" for i in range(1, 8)))
        test_script = make_script('grep -rq CAUSE "$1"')
        report = tmp_path / "report.json"
        code = run([
            "minimize-changes", "--baseline", str(baseline_dir),
            "--diff", str(diff_path), "--test", test_script,
            "--deps", str(deps_path), "--report", str(report),
            *common_flags(tmp_path),
        ])
        assert code == 0
        doc = json.loads(report.read_text())
        oracle_tests = sum(
            1 for t in doc["tests"] if t["source"] == "oracle"
        )
        assert oracle_tests <= 2 * 3 + 2  # binary-search degeneration
        rejected = sum(
            1 for t in doc["tests"] if t["source"] == "feasibility-reject"
        )
        assert rejected > 0
        assert doc["final"] == list(range(6))  # prefix through the cause

    def test_dependency_on_a_change_outside_the_diff_exits_1(
        self, tmp_path, make_script, capsys
    ):
        baseline_dir = tmp_path / "b"
        baseline_dir.mkdir()
        (baseline_dir / "f").write_text("x\n")
        diff = tmp_path / "one.diff"
        diff.write_text("--- a/f\n+++ b/f\n@@ -1 +1 @@\n-x\n+y\n")
        deps = tmp_path / "deps.tsv"
        deps.write_text("0\t5\n")
        code = run([
            "minimize-changes", "--baseline", str(baseline_dir), "--diff", str(diff),
            "--deps", str(deps), "--test", make_script('grep -q y "$1/f"'),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "change 5" in err
        assert "axiom" not in err

    def test_a_dependency_cycle_exits_1(self, tmp_path, make_script, capsys):
        baseline_dir = tmp_path / "b"
        baseline_dir.mkdir()
        (baseline_dir / "f").write_text("".join(f"{i}\n" for i in range(10)))
        diff = tmp_path / "two.diff"
        diff.write_text("--- a/f\n+++ b/f\n@@ -1 +1 @@\n-0\n+x\n@@ -9 +9 @@\n-8\n+y\n")
        deps = tmp_path / "deps.tsv"
        deps.write_text("0\t1\n1\t0\n")
        code = run([
            "minimize-changes", "--baseline", str(baseline_dir), "--diff", str(diff),
            "--deps", str(deps), "--test", make_script('grep -q y "$1/f"'),
            "--workspace", str(tmp_path / "ws"),
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: dependency cycle through change 0: [0, 1, 0]\n"

    def test_a_baseline_file_that_is_not_utf8_is_named(self, tmp_path, make_script, capsys):
        baseline_dir = tmp_path / "b"
        (baseline_dir / "img").mkdir(parents=True)
        (baseline_dir / "f").write_text("x\n")
        (baseline_dir / "img" / "logo.png").write_bytes(b"\x89PNG\xff\n")
        diff = tmp_path / "one.diff"
        diff.write_text("--- a/f\n+++ b/f\n@@ -1 +1 @@\n-x\n+y\n")
        code = run([
            "minimize-changes", "--baseline", str(baseline_dir), "--diff", str(diff),
            "--test", make_script('grep -q y "$1/f"'), "--workspace", str(tmp_path / "ws"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: img/logo.png: 'utf-8' codec can't decode")

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_a_baseline_that_is_not_a_directory_exits_1_before_any_test(
        self, kind, tmp_path, make_script, capsys
    ):
        baseline = tmp_path / "baseline"
        if kind == "file":
            baseline.write_text("x\n")
        diff = tmp_path / "new.diff"
        diff.write_text("--- /dev/null\n+++ b/a.txt\n@@ -0,0 +1 @@\n+x\n")
        runs = tmp_path / "runs"
        code = run([
            "minimize-changes", "--baseline", str(baseline), "--diff", str(diff),
            "--test", make_script(f'echo >> "{runs}"\nexit 0'),
            "--workspace", str(tmp_path / "ws"),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: {baseline}: not a directory\n"
        assert not runs.exists()

    @pytest.mark.parametrize("option", ["--diff", "--deps", "--groups"])
    def test_an_input_file_that_is_not_utf8_is_named(
        self, option, tmp_path, make_script, capsys
    ):
        baseline_dir = tmp_path / "b"
        baseline_dir.mkdir()
        (baseline_dir / "f").write_text("x\n")
        files = {
            "--diff": b"--- a/f\n+++ b/f\n@@ -1 +1 @@\n-x\n+y\n",
            "--deps": b"",
            "--groups": b"0\tf\n",
        }
        files[option] = b"0\t\xff\n"
        paths = {}
        for name, content in files.items():
            paths[name] = tmp_path / f"{name[2:]}.txt"
            paths[name].write_bytes(content)
        code = run([
            "minimize-changes", "--baseline", str(baseline_dir),
            *(arg for name, path in paths.items() for arg in (name, str(path))),
            "--test", make_script('grep -q y "$1/f"'), "--workspace", str(tmp_path / "ws"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"error: {paths[option]}: 'utf-8' codec can't decode byte 0xff in position 2"
        )

    @pytest.mark.parametrize("groups, named", [
        ("0\tx\n1\ty\n99\tz\n", "change 99, but the diff has 2 changes"),
        ("0\tx\n1\ty\n1\tz\n", "line 3: change id 1 is listed twice"),
    ], ids=["outside-the-diff", "listed-twice"])
    def test_a_bad_group_map_exits_1(self, tmp_path, make_script, capsys, groups, named):
        baseline_dir = tmp_path / "b"
        baseline_dir.mkdir()
        (baseline_dir / "f").write_text("".join(f"{i}\n" for i in range(10)))
        diff = tmp_path / "two.diff"
        diff.write_text("--- a/f\n+++ b/f\n@@ -1 +1 @@\n-0\n+x\n@@ -9 +9 @@\n-8\n+y\n")
        group_map = tmp_path / "groups.tsv"
        group_map.write_text(groups)
        code = run([
            "minimize-changes", "--baseline", str(baseline_dir), "--diff", str(diff),
            "--groups", str(group_map), "--test", make_script('grep -q y "$1/f"'),
            "--workspace", str(tmp_path / "ws"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert named in err
        assert "axiom" not in err

    def test_crlf_tree_and_diff_keep_their_line_endings(self, tmp_path, make_script):
        # The test sees the patched file with its CRLF endings, and an
        # untouched file with lone CRs, byte for byte.
        baseline_dir = tmp_path / "b"
        baseline_dir.mkdir()
        (baseline_dir / "a.txt").write_bytes(b"one\r\ntwo\r\n")
        (baseline_dir / "c.txt").write_bytes(b"p\rq\r")
        diff = tmp_path / "crlf.diff"
        diff.write_bytes(b"--- a/a.txt\r\n+++ b/a.txt\r\n@@ -1 +1 @@\r\n-one\r\n+BUG\r\n")
        script = make_script(
            "printf 'BUG\\r\\ntwo\\r\\n' | cmp -s - \"$1/a.txt\" && "
            "printf 'p\\rq\\r' | cmp -s - \"$1/c.txt\""
        )
        out_diff = tmp_path / "min.diff"
        code = run([
            "minimize-changes", "--baseline", str(baseline_dir), "--diff", str(diff),
            "--test", script, "--output-diff", str(out_diff), *common_flags(tmp_path),
        ])
        assert code == 0
        assert out_diff.read_bytes() == (
            b"--- a/a.txt\n+++ b/a.txt\n@@ -1,1 +1,1 @@\n-one\r\n+BUG\r\n"
        )

    def test_axiom_message_says_when_the_full_diff_does_not_apply(
        self, tmp_path, make_script, capsys
    ):
        # A CRLF diff against an LF baseline: every test is a patch conflict.
        baseline_dir = tmp_path / "b"
        baseline_dir.mkdir()
        (baseline_dir / "a.txt").write_bytes(b"one\ntwo\n")
        diff = tmp_path / "crlf.diff"
        diff.write_bytes(b"--- a/a.txt\r\n+++ b/a.txt\r\n@@ -1 +1 @@\r\n-one\r\n+BUG\r\n")
        report = tmp_path / "report.json"
        code = run([
            "minimize-changes", "--baseline", str(baseline_dir), "--diff", str(diff),
            "--test", make_script('grep -q BUG "$1/a.txt"'), "--report", str(report),
            *common_flags(tmp_path),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "axiom violation: changes pass: the full configuration must FAIL but "
            "tested UNRESOLVED; the full diff does not apply: "
            "change 0 at a.txt:1: context mismatch\n"
        )
        doc = json.loads(report.read_text())
        assert [t["source"] for t in doc["tests"]] == ["axiom", "axiom"]
        # A diff that applies gets the plain message.
        diff.write_bytes(b"--- a/a.txt\n+++ b/a.txt\n@@ -1 +1 @@\n-one\n+ONE\n")
        code = run([
            "minimize-changes", "--baseline", str(baseline_dir), "--diff", str(diff),
            "--test", make_script('grep -q BUG "$1/a.txt"'), *common_flags(tmp_path),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "axiom violation: changes pass: the full configuration must FAIL but tested PASS\n"
        )

    def test_malformed_diff_is_a_hard_error(self, tmp_path, make_script, capsys):
        baseline_dir = tmp_path / "b"
        baseline_dir.mkdir()
        (baseline_dir / "f").write_text("x\n")
        bad = tmp_path / "bad.diff"
        bad.write_text("--- a/f\n+++ b/f\n@@ nonsense @@\n")
        code = run([
            "minimize-changes", "--baseline", str(baseline_dir),
            "--diff", str(bad), "--test", make_script("exit 0"),
        ])
        assert code == 1
        assert "line 3" in capsys.readouterr().err


    def test_a_git_rename_exits_1_before_any_test(self, tmp_path, make_script, capsys):
        baseline_dir = tmp_path / "b"
        baseline_dir.mkdir()
        (baseline_dir / "old.txt").write_text("x\n")
        diff = tmp_path / "rename.diff"
        diff.write_text(
            "diff --git a/old.txt b/new.txt\nsimilarity index 100%\n"
            "rename from old.txt\nrename to new.txt\n"
            "diff --git a/c.txt b/c.txt\nnew file mode 100644\nindex 0000000..3367afd\n"
            "--- /dev/null\n+++ b/c.txt\n@@ -0,0 +1 @@\n+new\n"
        )
        runs = tmp_path / "runs"
        code = run([
            "minimize-changes", "--baseline", str(baseline_dir),
            "--diff", str(diff), "--test", make_script(f"printf x >> {runs}"),
            "--workspace", str(tmp_path / "ws"),
        ])
        assert code == 1
        assert "error: line 2: unsupported git header 'similarity index 100%'" in (
            capsys.readouterr().err
        )
        assert not runs.exists()
        assert not (tmp_path / "rename.diff.min").exists()

    def test_a_diff_path_outside_the_tree_exits_1_and_writes_nothing(
        self, tmp_path, make_script, capsys
    ):
        baseline_dir = tmp_path / "b"
        baseline_dir.mkdir()
        (baseline_dir / "f").write_text("x\n")
        outside = tmp_path / "outside.txt"
        diff = tmp_path / "escape.diff"
        diff.write_text(
            "--- a/f\n+++ b/f\n@@ -1 +1 @@\n-x\n+y\n"
            f"--- /dev/null\n+++ {outside}\n@@ -0,0 +1 @@\n+escaped\n"
        )
        code = run([
            "minimize-changes", "--baseline", str(baseline_dir),
            "--diff", str(diff), "--test", make_script('grep -q y "$1/f"'),
            "--workspace", str(tmp_path / "ws"),
        ])
        assert code == 1
        assert f"line 7: path {str(outside)!r} leaves the tree" in capsys.readouterr().err
        assert not outside.exists()

    @pytest.mark.parametrize("path", ["", "sub/"])
    def test_a_diff_path_that_names_no_file_exits_1_and_writes_nothing(
        self, path, tmp_path, make_script, capsys
    ):
        baseline_dir = tmp_path / "b"
        baseline_dir.mkdir()
        diff = tmp_path / "dir.diff"
        diff.write_text(f"--- /dev/null\n+++ b/{path}\n@@ -0,0 +1 @@\n+x\n")
        code = run([
            "minimize-changes", "--baseline", str(baseline_dir),
            "--diff", str(diff), "--test", make_script("exit 0"),
            "--workspace", str(tmp_path / "ws"),
        ])
        assert code == 1
        assert f"line 2: path {path!r} names no file" in capsys.readouterr().err
        assert not (tmp_path / "dir.diff.min").exists()

    def test_a_git_diff_with_a_quoted_path_is_read(self, tmp_path, make_script):
        # git quotes a path with a byte >= 0x80 and writes the byte in octal.
        baseline_dir = tmp_path / "b"
        baseline_dir.mkdir()
        (baseline_dir / "b.txt").write_text("two\n")
        (baseline_dir / "föo.txt").write_text("one\n")
        diff = tmp_path / "git.diff"
        diff.write_text(
            "diff --git a/b.txt b/b.txt\nindex f719efd..6333d30 100644\n"
            "--- a/b.txt\n+++ b/b.txt\n@@ -1 +1 @@\n-two\n+TWO\n"
            'diff --git "a/f\\303\\266o.txt" "b/f\\303\\266o.txt"\n'
            "index 5626abf..3b1399e 100644\n"
            '--- "a/f\\303\\266o.txt"\n+++ "b/f\\303\\266o.txt"\n@@ -1 +1 @@\n-one\n+BUG\n'
        )
        code = run([
            "minimize-changes", "--baseline", str(baseline_dir), "--diff", str(diff),
            "--test", make_script('grep -q BUG "$1/föo.txt"'), *common_flags(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "git.diff.min").read_text(encoding="utf-8") == (
            "--- a/föo.txt\n+++ b/föo.txt\n@@ -1,1 +1,1 @@\n-one\n+BUG\n"
        )

    def test_a_malformed_quoted_path_exits_1_before_any_test(
        self, tmp_path, make_script, capsys
    ):
        baseline_dir = tmp_path / "b"
        baseline_dir.mkdir()
        diff = tmp_path / "quote.diff"
        diff.write_text('--- /dev/null\n+++ "b/f\\303\n@@ -0,0 +1 @@\n+x\n')
        runs = tmp_path / "runs"
        code = run([
            "minimize-changes", "--baseline", str(baseline_dir),
            "--diff", str(diff), "--test", make_script(f"printf x >> {runs}"),
            "--workspace", str(tmp_path / "ws"),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            'error: line 2: malformed quoted path "b/f\\303\n'
        )
        assert not runs.exists()
        assert not (tmp_path / "quote.diff.min").exists()


class TestSizeVariables:
    """What DDMIN_CONFIG_SIZE and DDMIN_UNIVERSE_SIZE count, per test."""

    def test_minimize_input_counts_the_tokens_of_the_pass(self, tmp_path, make_script, capsys):
        crash = tmp_path / "crash.txt"
        crash.write_text("one\nBUG12345\nthree\n")
        sizes = tmp_path / "sizes"
        script = make_script(
            f'echo "$DDMIN_CONFIG_SIZE $DDMIN_UNIVERSE_SIZE $(wc -l < "$1") $(wc -c < "$1")"'
            f' >> "{sizes}"\ngrep -q BUG "$1"'
        )
        assert run([
            "minimize-input", "--input", str(crash), "--test", script,
            *common_flags(tmp_path),
        ]) == 0
        rows = [[int(word) for word in line.split()] for line in sizes.read_text().splitlines()]
        # The line pass's 3 lines, then the 9 characters of the kept line
        # "BUG12345\n" in the char pass.
        universes = [universe for _, universe, _, _ in rows]
        line_tests = universes.index(9)
        assert line_tests > 0
        assert universes == [3] * line_tests + [9] * (len(rows) - line_tests)
        for config, universe, lines, chars in rows:
            assert config == (lines if universe == 3 else chars)

    def test_minimize_changes_counts_the_changes_in_the_group_pass_too(
        self, tmp_path, make_script, capsys
    ):
        # Six changes, two in each of three files.  A changed line starts
        # with an upper-case letter, so a test counts the changes it got.
        baseline = tmp_path / "baseline"
        baseline.mkdir()
        chunks = []
        for name, first, last in (("a", "A1", "BUG"), ("b", "B1", "B5"), ("c", "BUG", "C5")):
            old = [f"{name}{i}\n" for i in range(1, 6)]
            (baseline / f"{name}.txt").write_text("".join(old))
            new = [f"{first}\n", *old[1:4], f"{last}\n"]
            chunks.extend(difflib.unified_diff(
                old, new, fromfile=f"a/{name}.txt", tofile=f"b/{name}.txt", n=0,
            ))
        diff = tmp_path / "changes.diff"
        diff.write_text("".join(chunks))
        sizes = tmp_path / "sizes"
        script = make_script(
            f'''echo "$DDMIN_CONFIG_SIZE $DDMIN_UNIVERSE_SIZE $(cat "$1"/*.txt | grep -c '^[A-Z]')"'''
            f' >> "{sizes}"\ngrep -q BUG "$1/a.txt" && grep -q BUG "$1/c.txt"'
        )
        assert run([
            "minimize-changes", "--baseline", str(baseline), "--diff", str(diff),
            "--test", script, "--groups", "file", *common_flags(tmp_path),
        ]) == 0
        assert "groups pass: 3 -> 2 deltas" in capsys.readouterr().out
        rows = [[int(word) for word in line.split()] for line in sizes.read_text().splitlines()]
        assert {universe for _, universe, _ in rows} == {6}
        for config, _, changed in rows:
            assert config == changed


class TestReduceTraceCommand:
    def test_default_filter_gives_13_events(self, tmp_path, sample_source, capsys):
        program = tmp_path / "sample.toy"
        program.write_text(sample_source)
        report = tmp_path / "report.json"
        code = run([
            "reduce-trace", "--program", str(program), "--stdin", "0,5",
            "--expect", "sum = 15\\nmul = 0\\n", "--report", str(report),
            "--deterministic-report",
        ])
        assert code == 0
        doc = json.loads(report.read_text())
        assert len(doc["final"]) == 13
        assert doc["verified_1_minimal"] is True
        assert (tmp_path / "sample.toy.trace").exists()
        assert (tmp_path / "sample.toy.slice").exists()
        out = capsys.readouterr().out
        assert "critical slice (13 events)" in out
        # Each progress line tallies the outcomes of the tests so far, over
        # the slice pass and then the trace pass.
        assert [p["label"] for p in doc["passes"]] == ["slice"]
        outcomes = [t["outcome"] for p in doc["passes"] for t in p["tests"]]
        outcomes += [t["outcome"] for t in doc["tests"]]
        progress = re.findall(
            r"^\.\.\. (\d+) tests \(fail=(\d+) pass=(\d+) unresolved=(\d+)\)$", out, re.M
        )
        assert progress
        for count, fail, passed, unresolved in progress:
            so_far = outcomes[:int(count)]
            assert (int(fail), int(passed), int(unresolved)) == (
                so_far.count("fail"), so_far.count("pass"), so_far.count("unresolved")
            )

    def test_sum_filter_gives_11_events(self, tmp_path, sample_source):
        program = tmp_path / "sample.toy"
        program.write_text(sample_source)
        report = tmp_path / "report.json"
        code = run([
            "reduce-trace", "--program", str(program), "--stdin", "0,5",
            "--expect", "sum = 15\\n", "--filter", "sum",
            "--report", str(report), "--deterministic-report",
        ])
        assert code == 0
        assert len(json.loads(report.read_text())["final"]) == 11

    def test_mul_filter_gives_2_events(self, tmp_path, sample_source):
        program = tmp_path / "sample.toy"
        program.write_text(sample_source)
        report = tmp_path / "report.json"
        code = run([
            "reduce-trace", "--program", str(program), "--stdin", "0,5",
            "--expect", "mul = 0\\n", "--filter", "mul",
            "--report", str(report), "--deterministic-report",
        ])
        assert code == 0
        assert len(json.loads(report.read_text())["final"]) == 2

    def test_verbose_prints_bitmap_rows(self, tmp_path, sample_source, capsys):
        program = tmp_path / "sample.toy"
        program.write_text(sample_source)
        code = run([
            "reduce-trace", "--program", str(program), "--stdin", "0,5",
            "--expect", "mul = 0\\n", "--filter", "mul", "--verbose",
        ])
        assert code == 0
        out = capsys.readouterr().out
        rows = [l for l in out.splitlines() if l and l[0] in "*."]
        assert rows, "expected bitmap rows"
        assert all(l.split()[0].strip("*.") == "" for l in rows)

    def test_expect_decodes_tab_backslash_and_newline_only(self, tmp_path):
        # The toy program prints: a, tab, b, backslash, n, c, backslash, q, 1.
        program = tmp_path / "escapes.toy"
        program.write_text('x = 1;\nprint("a\\tb\\\\nc\\\\q", x, "\\n");\n')
        report = tmp_path / "report.json"
        code = run([
            "reduce-trace", "--program", str(program),
            "--expect", "a\\tb\\\\nc\\q1\\n", "--report", str(report),
        ])
        assert code == 0
        assert json.loads(report.read_text())["final"] == [0, 1]

    def test_unsatisfiable_expectation_exits_2(self, tmp_path, sample_source):
        program = tmp_path / "sample.toy"
        program.write_text(sample_source)
        code = run([
            "reduce-trace", "--program", str(program), "--stdin", "0,5",
            "--expect", "sum = 99\\n", "--filter", "sum",
        ])
        assert code == 2

    def test_syntax_error_exits_1(self, tmp_path, capsys):
        program = tmp_path / "broken.toy"
        program.write_text("x = ;\n")
        code = run([
            "reduce-trace", "--program", str(program), "--stdin", "",
            "--expect", "x\\n",
        ])
        assert code == 1

    def test_a_program_that_is_not_utf8_is_named(self, tmp_path, capsys):
        program = tmp_path / "sample.toy"
        program.write_bytes(b'print("\xff");\n')
        code = run(["reduce-trace", "--program", str(program), "--expect", "x\\n"])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"error: {program}: 'utf-8' codec can't decode byte 0xff in position 7"
        )

    def test_a_bad_stdin_token_names_the_flag(self, tmp_path, sample_source, capsys):
        program = tmp_path / "sample.toy"
        program.write_text(sample_source)
        code = run([
            "reduce-trace", "--program", str(program), "--stdin", "0, a",
            "--expect", "sum = 15\\n",
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: --stdin: token 'a' is not an integer\n"


class TestBenchCommand:
    def test_csv_to_stdout(self, capsys):
        code = run(["bench", "--oracle", "single", "--sizes", "1024"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "n,tests_oracle,tests_cached,bound_quadratic,bound_log"
        n, tests_oracle, _, bound_q, bound_log = out[1].split(",")
        assert n == "1024"
        assert int(tests_oracle) <= 22
        assert int(bound_log) == 22

    def test_monotone_cache_flag(self, capsys):
        code = run([
            "bench", "--oracle", "random-monotone:7", "--sizes", "8,16,32,64",
            "--monotone-cache",
        ])
        assert code == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        counts = {int(r.split(",")[0]): int(r.split(",")[1]) for r in rows}
        for n in (8, 16, 32):
            assert counts[2 * n] <= 2.5 * counts[n]

    def test_unknown_oracle_exits_1(self, capsys):
        assert run(["bench", "--oracle", "bogus", "--sizes", "8"]) == 1
        assert capsys.readouterr() == ("", (
            "error: unknown oracle 'bogus'; expected one of "
            "('single', 'conjunction:K', 'random-monotone:SEED', 'adversarial')\n"
        ))

    @pytest.mark.parametrize("oracle, message", [
        ("conjunction:x", "conjunction needs an integer parameter, got 'x'"),
        ("single:3", f"unknown oracle 'single:3'; expected one of {bench.ORACLE_NAMES}"),
        ("conjunction", f"unknown oracle 'conjunction'; expected one of {bench.ORACLE_NAMES}"),
    ], ids=["bad-parameter", "parameter-not-taken", "parameter-missing"])
    def test_a_bad_oracle_name_names_no_size(self, oracle, message, capsys):
        # The name is read once, before the first size, so no size is named.
        assert run(["bench", "--oracle", oracle, "--sizes", "8"]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_a_size_the_oracle_cannot_take_is_named(self, capsys):
        assert run(["bench", "--oracle", "conjunction:9", "--sizes", "4..12"]) == 1
        assert capsys.readouterr() == ("", "error: conjunction:9 at n=4: k must be in 1..4\n")

    def test_a_bad_size_entry_is_named(self, capsys):
        assert run(["bench", "--oracle", "single", "--sizes", "4.."]) == 1
        assert capsys.readouterr().err == "error: bad size range '4..'\n"

    def test_a_bound_violation_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(bench, "quadratic_bound", lambda n: 1)
        assert run(["bench", "--oracle", "single", "--sizes", "8"]) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1].endswith(",1,8")
        assert captured.err.startswith("BOUND VIOLATION: n=8: ")
        assert captured.err.endswith(" oracle tests exceed the n^2+3n bound of 1\n")

    def test_bench_runs_are_reproducible(self, capsys):
        outputs = []
        for _ in range(2):
            assert run(["bench", "--oracle", "adversarial", "--sizes", "4..12"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("argv, expected", [
        (["--oracle", "adversarial", "--sizes", "4..12"],
         "n,tests_oracle,tests_cached,bound_quadratic,bound_log\n"
         "4,6,2,28,6\n5,9,2,40,8\n6,12,2,54,8\n7,12,2,70,8\n8,14,2,88,8\n"
         "9,19,2,108,10\n10,20,2,130,10\n11,22,2,154,10\n12,24,2,180,10\n"),
        (["--oracle", "random-monotone:7", "--sizes", "8,16,32,64", "--monotone-cache"],
         "n,tests_oracle,tests_cached,bound_quadratic,bound_log\n"
         "8,3,0,88,8\n16,5,0,304,10\n32,6,0,1120,12\n64,7,0,4288,14\n"),
    ], ids=["adversarial", "random-monotone"])
    def test_bench_prints_the_pinned_csv(self, argv, expected, capsys):
        assert run(["bench", *argv]) == 0
        assert capsys.readouterr() == (expected, "")
