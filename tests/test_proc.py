import errno
import os
import select
import subprocess
import time
from pathlib import Path

import pytest

from deltadebug import Configuration, Outcome
from deltadebug.proc import (
    CommandOracle,
    CommandOracleSpec,
    EXIT_TIMEOUT,
    MaterializeConflict,
    OracleExecutionError,
    evaluate_command,
    exit_code,
    exit_signal,
    map_exit_status,
)


def null_materializer(config, workspace):
    return []


def spec_for(argv, workspace_root, **kwargs):
    kwargs.setdefault("materializer", null_materializer)
    return CommandOracleSpec(argv=argv, workspace_root=workspace_root, **kwargs)


@pytest.fixture(params=["pidfd", "fallback"])
def wait_path(request, monkeypatch):
    """Run a test over each way ``evaluate_command`` can wait for the command:
    sleeping on a pidfd, or polling ``Popen.wait`` where pidfds are missing."""
    if request.param == "fallback":
        def no_pidfd(pid, flags=0):
            raise OSError(errno.ENOSYS, "pidfd_open is not available")

        monkeypatch.setattr(os, "pidfd_open", no_pidfd, raising=False)
    else:
        try:
            os.close(os.pidfd_open(os.getpid()))
        except (AttributeError, OSError):
            pytest.skip("pidfds are not available here")


def interrupt_wait_when(ready: Path, monkeypatch) -> None:
    """Make the wait for the command raise KeyboardInterrupt, as Ctrl-C
    would, once the command has created ``ready``."""

    def interrupt():
        deadline = time.monotonic() + 5
        while not ready.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        raise KeyboardInterrupt

    real_wait = subprocess.Popen.wait
    real_poll = select.poll

    def wait(self, timeout=None):
        if timeout is not None:
            interrupt()
        return real_wait(self, timeout)

    class Poll:
        def __init__(self):
            self._poll = real_poll()

        def register(self, *args):
            self._poll.register(*args)

        def poll(self, timeout=None):
            interrupt()

    monkeypatch.setattr(subprocess.Popen, "wait", wait)
    monkeypatch.setattr(select, "poll", Poll)


class TestMapExitStatus:
    @pytest.mark.parametrize(
        "status,expected",
        [
            (exit_code(0), Outcome.FAIL),
            (exit_code(1), Outcome.PASS),
            (exit_code(2), Outcome.PASS),
            (exit_code(124), Outcome.PASS),
            (exit_code(125), Outcome.UNRESOLVED),
            (exit_code(126), Outcome.PASS),
            (exit_code(127), Outcome.PASS),
            (exit_code(128), Outcome.UNRESOLVED),
            (exit_code(200), Outcome.UNRESOLVED),
            (exit_signal(11), Outcome.UNRESOLVED),
            (exit_signal(9), Outcome.UNRESOLVED),
            (EXIT_TIMEOUT, Outcome.UNRESOLVED),
        ],
    )
    def test_mapping_table(self, status, expected):
        assert map_exit_status(status) == expected


class TestEvaluateCommand:
    def test_exit_zero_is_fail_regardless_of_config(
        self, make_script, workspace_root, wait_path
    ):
        spec = spec_for([make_script("exit 0")], workspace_root)
        for members in ([], [0], [0, 1]):
            outcome, _ = evaluate_command(spec, Configuration(2, members))
            assert outcome == Outcome.FAIL

    def test_timeout_returns_unresolved_with_duration(
        self, make_script, workspace_root, wait_path
    ):
        spec = spec_for([make_script("sleep 30")], workspace_root, timeout_ms=300)
        start = time.monotonic()
        outcome, evidence = evaluate_command(spec, Configuration(1, [0]))
        elapsed = time.monotonic() - start
        assert outcome == Outcome.UNRESOLVED
        assert evidence.exit_status == EXIT_TIMEOUT
        assert evidence.duration_ms >= 300
        assert elapsed < 2.3  # timeout + 2000 ms leeway

    def test_timeout_kills_whole_process_tree(
        self, make_script, workspace_root, tmp_path, wait_path
    ):
        marker = tmp_path / "marker"
        # The child spawns a grandchild that would write after 2 s.
        body = f"(sleep 2; echo alive > {marker}) &\nsleep 30"
        spec = spec_for([make_script(body)], workspace_root, timeout_ms=300)
        outcome, _ = evaluate_command(spec, Configuration(1, [0]))
        assert outcome == Outcome.UNRESOLVED
        time.sleep(2.2)
        assert not marker.exists()

    def test_exit_kills_background_children(
        self, make_script, workspace_root, tmp_path, wait_path
    ):
        marker = tmp_path / "marker"
        # The command exits at once, leaving a child that would write after 1 s.
        body = f"(sleep 1; echo alive > {marker}) &\nexit 1"
        spec = spec_for([make_script(body)], workspace_root)
        outcome, _ = evaluate_command(spec, Configuration(1, [0]))
        assert outcome == Outcome.PASS
        time.sleep(1.5)
        assert not marker.exists()

    def test_interrupt_kills_the_test_and_removes_its_workspace(
        self, make_script, workspace_root, tmp_path, wait_path, monkeypatch
    ):
        marker = tmp_path / "marker"
        ready = tmp_path / "ready"
        body = f"(sleep 1; echo alive > {marker}) &\ntouch {ready}\nsleep 30"
        # An interrupted test has no outcome, so even keep_failing drops it.
        spec = spec_for([make_script(body)], workspace_root, keep_failing=True)
        interrupt_wait_when(ready, monkeypatch)
        with pytest.raises(KeyboardInterrupt):
            evaluate_command(spec, Configuration(1, [0]))
        assert ready.exists()
        assert list(workspace_root.iterdir()) == []
        time.sleep(1.5)
        assert not marker.exists()

    def test_materializer_conflict_is_unresolved_without_spawn(self, workspace_root, tmp_path):
        witness = tmp_path / "ran"

        def conflicting(config, workspace):
            raise MaterializeConflict("change 1 does not apply")

        spec = CommandOracleSpec(
            argv=["/bin/sh", "-c", f"touch {witness}"],
            materializer=conflicting,
            workspace_root=workspace_root,
        )
        outcome, evidence = evaluate_command(spec, Configuration(2, [1]))
        assert outcome == Outcome.UNRESOLVED
        assert evidence.exit_status is None
        assert evidence.conflict == "change 1 does not apply"
        assert not witness.exists()

    def test_missing_command_is_a_hard_error(self, workspace_root):
        spec = spec_for(["/no/such/binary"], workspace_root)
        with pytest.raises(OracleExecutionError):
            evaluate_command(spec, Configuration(1, [0]))

    def test_environment_variables(self, make_script, workspace_root, tmp_path):
        out = tmp_path / "env.txt"
        body = f'echo "$DDMIN_TEST_SEQ $DDMIN_CONFIG_SIZE $DDMIN_UNIVERSE_SIZE" > {out}; exit 1'
        spec = spec_for([make_script(body)], workspace_root)
        evaluate_command(spec, Configuration(5, [1, 2]), test_seq=7)
        assert out.read_text().split() == ["7", "2", "5"]

    def test_relative_workspace_root_still_yields_absolute_paths(
        self, make_script, tmp_path, monkeypatch
    ):
        # The command's cwd is inside the workspace, so a relative workspace root
        # must not leak relative paths into argv.
        monkeypatch.chdir(tmp_path)

        def materializer(config, workspace):
            candidate = workspace / "input.txt"
            candidate.write_text("payload 78\n")
            return [str(candidate)]

        spec = CommandOracleSpec(
            argv=[make_script('grep -q 78 "$1"')],
            materializer=materializer,
            workspace_root="ws",
        )
        outcome, evidence = evaluate_command(spec, Configuration(1, [0]))
        assert outcome == Outcome.FAIL
        assert Path(evidence.workspace).is_absolute()

    def test_env_passthrough_flag(self, make_script, workspace_root, tmp_path, monkeypatch):
        monkeypatch.setenv("DDMIN_PROBE", "hello")
        out = tmp_path / "probe.txt"
        body = f'echo "[$DDMIN_PROBE]" > {out}; exit 1'
        spec = spec_for([make_script(body)], workspace_root)
        evaluate_command(spec, Configuration(1, [0]))
        assert out.read_text().strip() == "[hello]"

    def test_command_runs_in_fresh_workspace(self, make_script, workspace_root):
        script = make_script('test ! -e stale || exit 1; touch stale; exit 0')
        spec = spec_for([script], workspace_root)
        first, _ = evaluate_command(spec, Configuration(1, [0]), test_seq=1)
        second, _ = evaluate_command(spec, Configuration(1, []), test_seq=2)
        # If workspace files leaked between tests the second run would PASS.
        assert first == Outcome.FAIL
        assert second == Outcome.FAIL

    def test_the_command_sees_only_the_materialized_files(self, make_script, workspace_root):
        def materializer(config, directory):
            (directory / "a.txt").write_text("a\n")
            return []

        # Exits 0 (FAIL) only if its working directory holds a.txt alone.
        script = make_script('test "$(ls -A)" = a.txt')
        spec = spec_for(
            [script], workspace_root, materializer=materializer, keep_failing=True
        )
        outcome, evidence = evaluate_command(spec, Configuration(1, [0]))
        assert outcome == Outcome.FAIL
        kept = sorted(p.name for p in Path(evidence.workspace).iterdir())
        assert kept == ["stderr.log", "stdout.log", "tree"]

    def test_workspace_paths_never_repeat(self, make_script, workspace_root):
        spec = spec_for([make_script("exit 1")], workspace_root)
        _, ev1 = evaluate_command(spec, Configuration(1, [0]), test_seq=1)
        _, ev2 = evaluate_command(spec, Configuration(1, [0]), test_seq=2)
        assert ev1.workspace != ev2.workspace

    def test_workspace_deleted_unless_keep_failing_and_fail(self, make_script, workspace_root):
        spec = spec_for([make_script("exit 0")], workspace_root)
        _, ev = evaluate_command(spec, Configuration(1, [0]))
        assert not Path(ev.workspace).exists()

        keep = spec_for([make_script("echo boom; exit 0")], workspace_root, keep_failing=True)
        _, ev = evaluate_command(keep, Configuration(1, [0]))
        assert Path(ev.workspace).exists()
        assert "boom" in (Path(ev.workspace) / "stdout.log").read_text()

        keep_pass = spec_for([make_script("exit 1")], workspace_root, keep_failing=True)
        _, ev = evaluate_command(keep_pass, Configuration(1, [0]))
        assert not Path(ev.workspace).exists()

    def test_materializer_extra_args_are_appended(self, make_script, workspace_root, tmp_path):
        out = tmp_path / "args.txt"

        def materializer(config, workspace):
            candidate = workspace / "input.bin"
            candidate.write_bytes(b"x")
            return [str(candidate)]

        script = make_script(f'echo "$1" > {out}; exit 1')
        spec = CommandOracleSpec(
            argv=[script], materializer=materializer, workspace_root=workspace_root
        )
        evaluate_command(spec, Configuration(1, [0]))
        assert out.read_text().strip().endswith("input.bin")


class TestCommandOracle:
    def test_keeps_only_the_last_failing_workspace(self, make_script, workspace_root):
        spec = spec_for([make_script("exit 0")], workspace_root, keep_failing=True)
        oracle = CommandOracle(spec)
        oracle.evaluate(Configuration(2, [0]))
        first_kept = oracle.kept_workspace
        oracle.evaluate(Configuration(2, [1]))
        second_kept = oracle.kept_workspace
        assert first_kept != second_kept
        assert not Path(first_kept).exists()
        assert Path(second_kept).exists()

    def test_sequence_numbers_increment(self, make_script, workspace_root, tmp_path):
        out = tmp_path / "seqs.txt"
        spec = spec_for(
            [make_script(f'echo "$DDMIN_TEST_SEQ" >> {out}; exit 1')], workspace_root
        )
        oracle = CommandOracle(spec)
        for _ in range(3):
            oracle.evaluate(Configuration(1, [0]))
        assert out.read_text().split() == ["1", "2", "3"]
