import errno
import os
import select
import stat
import subprocess
import time
from pathlib import Path

import pytest

from deltadebug import Configuration, Outcome
from deltadebug.inputmin import minimize_input
from deltadebug.proc import (
    CommandOracle,
    MaterializeConflict,
    OracleExecutionError,
    evaluate_command,
    map_exit_status,
)


def null_materializer(config, workspace):
    return []


def oracle_for(argv, workspace_root, materializer=null_materializer, **kwargs):
    """A command oracle over ``argv`` whose tests write ``materializer``'s
    scenario."""
    oracle = CommandOracle(argv, workspace_root=workspace_root, **kwargs)
    oracle.materializer = materializer
    return oracle


def refuse_removal_like_a_user(monkeypatch):
    """Make ``os.unlink`` and ``os.rmdir`` follow the rule that binds every
    user but the superuser: removing an entry needs write permission on the
    directory that holds it, here its owner's."""
    def guarded(remove):
        def call(path, *, dir_fd=None):
            if dir_fd is None:
                holder = os.stat(os.path.dirname(os.path.abspath(path)))
            else:
                holder = os.fstat(dir_fd)
            if not holder.st_mode & stat.S_IWUSR:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
            return remove(path, dir_fd=dir_fd)
        return call

    monkeypatch.setattr(os, "unlink", guarded(os.unlink))
    monkeypatch.setattr(os, "rmdir", guarded(os.rmdir))


def recording(materializer=null_materializer):
    """``materializer`` wrapped to record the workspace of each test, the
    parent of the tree it is handed; returns the wrapper and that list."""
    workspaces = []

    def record(config, tree):
        workspaces.append(tree.parent)
        return materializer(config, tree)

    return record, workspaces


def run_once(oracle, config, test_seq=1):
    """Run ``config`` as test number ``test_seq`` of a run of its own."""
    with oracle:
        oracle.tests_run = test_seq - 1
        return evaluate_command(oracle, config)


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
    """Make the wait for a command raise KeyboardInterrupt, as Ctrl-C
    would, once the command has created ``ready``; a command that exits
    first is waited for as usual."""
    real_wait = subprocess.Popen.wait
    real_poll = select.poll
    deadline = time.monotonic() + 5

    def wait(self, timeout=None):
        if timeout is None:  # the reap after the kill
            return real_wait(self)
        while not ready.exists() and time.monotonic() < deadline:
            try:
                return real_wait(self, 0.01)
            except subprocess.TimeoutExpired:
                pass
        raise KeyboardInterrupt

    class Poll:
        def __init__(self):
            self._poll = real_poll()

        def register(self, *args):
            self._poll.register(*args)

        def poll(self, timeout=None):
            while not ready.exists() and time.monotonic() < deadline:
                events = self._poll.poll(10)
                if events:
                    return events
            raise KeyboardInterrupt

    monkeypatch.setattr(subprocess.Popen, "wait", wait)
    monkeypatch.setattr(select, "poll", Poll)


EXIT_TABLE = [
    (0, Outcome.FAIL),
    (1, Outcome.PASS),
    (2, Outcome.PASS),
    (124, Outcome.PASS),
    (125, Outcome.UNRESOLVED),
    (126, Outcome.PASS),
    (127, Outcome.PASS),
    (128, Outcome.UNRESOLVED),
    (200, Outcome.UNRESOLVED),
    (-11, Outcome.UNRESOLVED),
    (-9, Outcome.UNRESOLVED),
    (None, Outcome.UNRESOLVED),
]


class TestMapExitStatus:
    # Each row is named by its index (status0, status1, ...), so a row's id
    # does not change with how the status is written.
    @pytest.mark.parametrize(
        "status,expected",
        EXIT_TABLE,
        ids=[f"status{i}-{expected}" for i, (_, expected) in enumerate(EXIT_TABLE)],
    )
    def test_mapping_table(self, status, expected):
        assert map_exit_status(status) == expected


class TestCommandOracleSettings:
    @pytest.mark.parametrize("fields, message", [
        ({"argv": []}, "argv must not be empty"),
        ({"argv": ["true"], "timeout_ms": 0}, "timeout must be positive"),
        ({"argv": ["true"], "timeout_ms": 2**31}, "timeout must be at most 2147483647 ms"),
    ], ids=["no-argv", "zero-timeout", "timeout-beyond-poll"])
    def test_an_oracle_that_cannot_run_is_rejected(self, fields, message, workspace_root):
        with pytest.raises(ValueError) as info:
            CommandOracle(**fields, workspace_root=workspace_root)
        assert str(info.value) == message
        assert list(workspace_root.iterdir()) == []


class TestEvaluateCommand:
    def test_exit_zero_is_fail_regardless_of_config(
        self, make_script, workspace_root, wait_path
    ):
        with oracle_for([make_script("exit 0")], workspace_root) as oracle:
            for members in ([], [0], [0, 1]):
                outcome, _ = evaluate_command(oracle, Configuration(2, members))
                assert outcome == Outcome.FAIL

    def test_timeout_returns_unresolved_with_duration(
        self, make_script, workspace_root, wait_path
    ):
        oracle = oracle_for([make_script("sleep 30")], workspace_root, timeout_ms=300)
        start = time.monotonic()
        outcome, evidence = run_once(oracle, Configuration(1, [0]))
        elapsed = time.monotonic() - start
        assert outcome == Outcome.UNRESOLVED
        assert evidence.returncode is None
        assert elapsed >= 0.3
        assert elapsed < 2.3  # timeout + 2000 ms leeway

    def test_timeout_kills_whole_process_tree(
        self, make_script, workspace_root, tmp_path, wait_path
    ):
        marker = tmp_path / "marker"
        # The child spawns a grandchild that would write after 2 s.
        body = f"(sleep 2; echo alive > {marker}) &\nsleep 30"
        oracle = oracle_for([make_script(body)], workspace_root, timeout_ms=300)
        outcome, _ = run_once(oracle, Configuration(1, [0]))
        assert outcome == Outcome.UNRESOLVED
        time.sleep(2.2)
        assert not marker.exists()

    def test_exit_kills_background_children(
        self, make_script, workspace_root, tmp_path, wait_path
    ):
        marker = tmp_path / "marker"
        # The command exits at once, leaving a child that would write after 1 s.
        body = f"(sleep 1; echo alive > {marker}) &\nexit 1"
        oracle = oracle_for([make_script(body)], workspace_root)
        outcome, _ = run_once(oracle, Configuration(1, [0]))
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
        oracle = oracle_for([make_script(body)], workspace_root, keep_failing=True)
        interrupt_wait_when(ready, monkeypatch)
        with pytest.raises(KeyboardInterrupt):
            run_once(oracle, Configuration(1, [0]))
        assert ready.exists()
        assert list(workspace_root.iterdir()) == []
        time.sleep(1.5)
        assert not marker.exists()

    @pytest.mark.parametrize("keep_failing", [False, True])
    def test_interrupt_in_the_middle_of_a_run_leaves_nothing(
        self, make_script, workspace_root, tmp_path, wait_path, monkeypatch, keep_failing
    ):
        # Tests 1 and 2 (the full and the empty input) run to the end, and
        # with keep_failing the first, a FAIL, is kept; test 3 is
        # interrupted while a background child of it still runs.
        marker = tmp_path / "marker"
        ready = tmp_path / "ready"
        body = (
            'if [ "$DDMIN_TEST_SEQ" -ge 3 ]; then\n'
            f"  (sleep 0.5; echo alive > {marker}) &\n  touch {ready}\n  sleep 30\nfi\n"
            'grep -q BUG "$1"'
        )
        oracle = CommandOracle(
            [make_script(body)], workspace_root=workspace_root, keep_failing=keep_failing
        )
        interrupt_wait_when(ready, monkeypatch)
        with pytest.raises(KeyboardInterrupt):
            minimize_input(b"a\nBUG\nb\nc\n", oracle, schedule=["line"])
        assert ready.exists()
        assert list(workspace_root.iterdir()) == []
        time.sleep(0.8)
        assert not marker.exists()

    def test_materializer_conflict_is_unresolved_without_spawn(self, workspace_root, tmp_path):
        witness = tmp_path / "ran"

        def conflicting(config, workspace):
            raise MaterializeConflict("change 1 does not apply")

        oracle = oracle_for(["/bin/sh", "-c", f"touch {witness}"], workspace_root, conflicting)
        outcome, evidence = run_once(oracle, Configuration(2, [1]))
        assert outcome == Outcome.UNRESOLVED
        assert evidence.returncode is None
        assert evidence.conflict == "change 1 does not apply"
        assert not witness.exists()

    def test_missing_command_is_a_hard_error(self, workspace_root):
        oracle = oracle_for(["/no/such/binary"], workspace_root)
        with pytest.raises(OracleExecutionError):
            run_once(oracle, Configuration(1, [0]))

    def test_an_oracle_without_a_materializer_is_an_error(self, workspace_root):
        with CommandOracle(["true"], workspace_root=workspace_root) as oracle:
            with pytest.raises(ValueError, match="oracle has no materializer"):
                oracle.evaluate(Configuration(1, [0]))
        assert list(workspace_root.iterdir()) == []

    def test_environment_variables(self, make_script, workspace_root, tmp_path):
        out = tmp_path / "env.txt"
        body = f'echo "$DDMIN_TEST_SEQ $DDMIN_CONFIG_SIZE $DDMIN_UNIVERSE_SIZE" > {out}; exit 1'
        oracle = oracle_for([make_script(body)], workspace_root)
        run_once(oracle, Configuration(5, [1, 2]), test_seq=7)
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

        materializer, workspaces = recording(materializer)
        oracle = oracle_for([make_script('grep -q 78 "$1"')], "ws", materializer)
        outcome, _ = run_once(oracle, Configuration(1, [0]))
        assert outcome == Outcome.FAIL
        assert workspaces[0].is_absolute()

    def test_env_passthrough_flag(self, make_script, workspace_root, tmp_path, monkeypatch):
        monkeypatch.setenv("DDMIN_PROBE", "hello")
        out = tmp_path / "probe.txt"
        body = f'echo "[$DDMIN_PROBE]" > {out}; exit 1'
        oracle = oracle_for([make_script(body)], workspace_root)
        run_once(oracle, Configuration(1, [0]))
        assert out.read_text().strip() == "[hello]"

    def test_command_runs_in_fresh_workspace(self, make_script, workspace_root):
        # Both tests run in the run's one workspace, its tree emptied between.
        script = make_script('test ! -e stale || exit 1; touch stale; exit 0')
        materializer, workspaces = recording()
        with oracle_for([script], workspace_root, materializer) as oracle:
            first, _ = evaluate_command(oracle, Configuration(1, [0]))
            second, _ = evaluate_command(oracle, Configuration(1, []))
        # If workspace files leaked between tests the second run would PASS.
        assert first == Outcome.FAIL
        assert second == Outcome.FAIL
        assert workspaces[0] == workspaces[1]

    def test_the_command_sees_only_the_materialized_files(self, make_script, workspace_root):
        def materializer(config, directory):
            (directory / "a.txt").write_text("a\n")
            return []

        # Exits 0 (FAIL) only if its working directory holds a.txt alone.
        script = make_script('test "$(ls -A)" = a.txt')
        materializer, workspaces = recording(materializer)
        oracle = oracle_for([script], workspace_root, materializer, keep_failing=True)
        outcome, _ = run_once(oracle, Configuration(1, [0]))
        assert outcome == Outcome.FAIL
        kept = sorted(p.name for p in workspaces[0].iterdir())
        assert kept == ["stderr.log", "stdout.log", "tree"]

    def test_workspace_paths_never_repeat(self, make_script, workspace_root):
        # A kept FAIL's workspace is never used again, and two runs over one
        # root never share a workspace.
        argv = [make_script("exit 0")]
        materializer, workspaces = recording()
        with oracle_for(argv, workspace_root, materializer, keep_failing=True) as first, \
                oracle_for(argv, workspace_root, materializer, keep_failing=True) as second:
            for oracle in (first, second, first, second):
                evaluate_command(oracle, Configuration(1, [0]))
        assert len(set(workspaces)) == 4

    def test_workspace_deleted_unless_keep_failing_and_fail(self, make_script, workspace_root):
        materializer, workspaces = recording()
        oracle = oracle_for([make_script("exit 0")], workspace_root, materializer)
        run_once(oracle, Configuration(1, [0]))
        assert not workspaces[-1].exists()

        keep = [make_script("echo boom; exit 0")]
        oracle = oracle_for(keep, workspace_root, materializer, keep_failing=True)
        run_once(oracle, Configuration(1, [0]))
        assert workspaces[-1].exists()
        assert "boom" in (workspaces[-1] / "stdout.log").read_text()

        keep_pass = [make_script("exit 1")]
        oracle = oracle_for(keep_pass, workspace_root, materializer, keep_failing=True)
        run_once(oracle, Configuration(1, [0]))
        assert not workspaces[-1].exists()

    def test_materializer_extra_args_are_appended(self, make_script, workspace_root, tmp_path):
        out = tmp_path / "args.txt"

        def materializer(config, workspace):
            candidate = workspace / "input.bin"
            candidate.write_bytes(b"x")
            return [str(candidate)]

        script = make_script(f'echo "$1" > {out}; exit 1')
        run_once(oracle_for([script], workspace_root, materializer), Configuration(1, [0]))
        assert out.read_text().strip().endswith("input.bin")


class TestRunWorkspace:
    """A run's tests share one workspace; nothing of one test reaches the next."""

    # Test 1 leaves what ``LEAVE`` makes; each later test exits 0 (FAIL)
    # only if its tree is empty.
    CHECK = 'test -z "$(ls -A)"'

    def script(self, make_script, leave):
        return make_script(f'if [ "$DDMIN_TEST_SEQ" = 1 ]; then\n{leave}\nexit 1\nfi\n{self.CHECK}')

    def test_files_directories_and_symlinks_are_gone_at_the_next_test(
        self, make_script, workspace_root, tmp_path
    ):
        outside = tmp_path / "outside"
        outside.mkdir()
        (outside / "keep.txt").write_text("keep\n")
        leave = f"echo x > file; mkdir -p sub/deeper; echo y > sub/deeper/f; ln -s {outside} link"
        materializer, workspaces = recording()
        script = self.script(make_script, leave)
        with oracle_for([script], workspace_root, materializer) as oracle:
            first, _ = evaluate_command(oracle, Configuration(1, [0]))
            tree = workspaces[0] / "tree"
            assert sorted(p.name for p in tree.iterdir()) == ["file", "link", "sub"]
            second, _ = evaluate_command(oracle, Configuration(1, [0]))
        assert (first, second) == (Outcome.PASS, Outcome.FAIL)
        assert workspaces[0] == workspaces[1]
        assert (outside / "keep.txt").read_text() == "keep\n"
        assert list(workspace_root.iterdir()) == []

    def test_a_tree_replaced_by_a_symlink_gives_the_workspace_up(
        self, make_script, workspace_root, tmp_path
    ):
        outside = tmp_path / "outside"
        outside.mkdir()
        (outside / "keep.txt").write_text("keep\n")
        leave = f"cd ..; rm -r tree; ln -s {outside} tree"
        materializer, workspaces = recording()
        script = self.script(make_script, leave)
        with oracle_for([script], workspace_root, materializer) as oracle:
            first, _ = evaluate_command(oracle, Configuration(1, [0]))
            second, _ = evaluate_command(oracle, Configuration(1, [0]))
            assert not workspaces[0].exists()
        assert (first, second) == (Outcome.PASS, Outcome.FAIL)
        assert workspaces[0] != workspaces[1]
        assert sorted(p.name for p in outside.iterdir()) == ["keep.txt"]
        assert list(workspace_root.iterdir()) == []

    def test_a_tree_replaced_by_a_file_gives_the_workspace_up(self, make_script, workspace_root):
        leave = "cd ..; rm -r tree; echo x > tree"
        materializer, workspaces = recording()
        script = self.script(make_script, leave)
        with oracle_for([script], workspace_root, materializer) as oracle:
            first, _ = evaluate_command(oracle, Configuration(1, [0]))
            second, _ = evaluate_command(oracle, Configuration(1, [0]))
            assert not workspaces[0].exists()
        assert (first, second) == (Outcome.PASS, Outcome.FAIL)
        assert workspaces[0] != workspaces[1]
        assert list(workspace_root.iterdir()) == []

    def test_a_read_only_directory_leaves_no_stale_file(self, make_script, workspace_root):
        # Without write permission on ro/, only the superuser can empty it;
        # anyone else gets a new workspace.  Either way the tree is empty.
        leave = "mkdir ro; echo stale > ro/f; chmod a-w ro"
        with oracle_for([self.script(make_script, leave)], workspace_root) as oracle:
            outcomes = [evaluate_command(oracle, Configuration(1, [0]))[0] for _ in range(2)]
        assert outcomes == [Outcome.PASS, Outcome.FAIL]

    def test_a_read_only_directory_leaks_no_workspace(
        self, make_script, workspace_root, monkeypatch
    ):
        # Each test leaves a read-only directory that holds a file, so the
        # next one gets a new workspace, and the old one must still go.
        # The superuser may empty such a directory; as root the rule that
        # binds everyone else is simulated.
        if os.geteuid() == 0:
            refuse_removal_like_a_user(monkeypatch)
        script = make_script('test -z "$(ls -A)" || exit 1\nmkdir ro; echo x > ro/f; chmod a-w ro')
        with oracle_for([script], workspace_root) as oracle:
            for _ in range(3):
                assert oracle.evaluate(Configuration(1, [0])) == Outcome.FAIL
                assert len(list(workspace_root.iterdir())) == 1
        assert list(workspace_root.iterdir()) == []

    def test_a_kept_workspace_with_a_read_only_directory_is_removed(
        self, make_script, workspace_root, monkeypatch
    ):
        if os.geteuid() == 0:
            refuse_removal_like_a_user(monkeypatch)
        script = make_script("mkdir ro; echo x > ro/f; chmod a-w ro")
        with oracle_for([script], workspace_root, keep_failing=True) as oracle:
            for _ in range(3):
                assert oracle.evaluate(Configuration(1, [0])) == Outcome.FAIL
                assert len(list(workspace_root.iterdir())) == 1
            kept = Path(oracle.kept_workspace)
            assert (kept / "tree" / "ro" / "f").read_text() == "x\n"

    def test_sequence_numbers_count_across_passes(self, make_script, workspace_root, tmp_path):
        seqs = tmp_path / "seqs"
        script = make_script(f'echo "$DDMIN_TEST_SEQ" >> {seqs}; grep -q BUG "$1"')
        command = CommandOracle([script], workspace_root=workspace_root)
        passes = minimize_input(b"a\nxBUGx\nb\n", command, schedule=["line", "char"])
        assert [p.label for p in passes] == ["line", "char"]
        spawned = sum(
            oracle + axiom
            for oracle, _, axiom in (p.result.log.test_counts() for p in passes)
        )
        assert seqs.read_text().split() == [str(i) for i in range(1, spawned + 1)]
        assert list(workspace_root.iterdir()) == []

    def test_a_kept_workspace_is_never_reused(self, make_script, workspace_root):
        # Test 2 alone fails; tests 3 and 4 must not touch its workspace,
        # which test 1 used before it.
        script = make_script(
            'echo "out $DDMIN_TEST_SEQ"; echo "err $DDMIN_TEST_SEQ" >&2; '
            'echo "$DDMIN_TEST_SEQ" > seq; test "$DDMIN_TEST_SEQ" = 2'
        )
        materializer, workspaces = recording()
        with oracle_for([script], workspace_root, materializer, keep_failing=True) as oracle:
            runs = [evaluate_command(oracle, Configuration(1, [0])) for _ in range(4)]
            kept = Path(oracle.kept_workspace)
        assert [outcome for outcome, _ in runs] == [
            Outcome.PASS, Outcome.FAIL, Outcome.PASS, Outcome.PASS
        ]
        assert workspaces[:2] == [kept] * 2
        assert workspaces[2] == workspaces[3] != kept
        assert (kept / "stdout.log").read_text() == "out 2\n"
        assert (kept / "stderr.log").read_text() == "err 2\n"
        assert (kept / "tree" / "seq").read_text() == "2\n"
        assert list(workspace_root.iterdir()) == [kept]

    def test_two_runs_never_share_a_workspace(
        self, make_script, workspace_root, tmp_path, monkeypatch
    ):
        # Each test FAILs only on an empty tree and then leaves a file in
        # it.  A run takes its environment when it starts, so RUN stays
        # what it was then.
        seen = tmp_path / "seen"
        script = make_script(
            f'echo "$RUN" >> {seen}; test -z "$(ls -A)" || exit 1; touch "left-by-$RUN"'
        )
        materializer, paths = recording()
        with oracle_for([script], workspace_root, materializer) as a:
            monkeypatch.setenv("RUN", "b")
            with oracle_for([script], workspace_root, materializer) as b:
                monkeypatch.setenv("RUN", "c")
                runs = [
                    evaluate_command(oracle, Configuration(1, [0]))
                    for oracle in (a, b, a, b)
                ]
        assert [outcome for outcome, _ in runs] == [Outcome.FAIL] * 4
        assert paths[0] == paths[2] != paths[1] == paths[3]
        assert seen.read_text().split() == ["b", "b"]
        assert list(workspace_root.iterdir()) == []


class TestCommandOracle:
    def test_keeps_only_the_last_failing_workspace(self, make_script, workspace_root):
        with oracle_for([make_script("exit 0")], workspace_root, keep_failing=True) as oracle:
            oracle.evaluate(Configuration(2, [0]))
            first_kept = oracle.kept_workspace
            oracle.evaluate(Configuration(2, [1]))
            second_kept = oracle.kept_workspace
        assert first_kept != second_kept
        assert not Path(first_kept).exists()
        assert Path(second_kept).exists()

    def test_sequence_numbers_increment(self, make_script, workspace_root, tmp_path):
        out = tmp_path / "seqs.txt"
        script = make_script(f'echo "$DDMIN_TEST_SEQ" >> {out}; exit 1')
        with oracle_for([script], workspace_root) as oracle:
            for _ in range(3):
                oracle.evaluate(Configuration(1, [0]))
        assert out.read_text().split() == ["1", "2", "3"]

    def test_one_oracle_serves_two_runs_in_turn(
        self, make_script, workspace_root, tmp_path, monkeypatch
    ):
        # Each run numbers its tests from 1 and takes the environment as it
        # is when the run starts; the second run leaves the workspace that
        # the first one kept.
        seen = tmp_path / "seen"
        script = make_script(f'echo "$RUN $DDMIN_TEST_SEQ" >> {seen}; grep -q BUG "$1"')
        oracle = CommandOracle([script], workspace_root=workspace_root, keep_failing=True)
        kept, tests = [], []
        for run, data in (("1", b"a\nBUG 1\n"), ("2", b"BUG 2\nb\nc\n")):
            monkeypatch.setenv("RUN", run)
            minimize_input(data, oracle, schedule=["line"])
            kept.append(Path(oracle.kept_workspace))
            tests.append(seen.read_text().split("\n")[:-1])
            seen.unlink()
        for run, lines in zip("12", tests):
            assert lines == [f"{run} {i}" for i in range(1, len(lines) + 1)]
        assert sorted(workspace_root.iterdir()) == sorted(kept)
        assert [(k / "tree" / "candidate.dat").read_bytes() for k in kept] == [
            b"BUG 1\n", b"BUG 2\n"
        ]
