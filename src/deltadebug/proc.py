"""Test oracles realized as external commands over materialized scenarios.

A run's tests share one workspace under the workspace root, whose
``tree`` directory is recreated empty before each test.  A front-end supplied
materializer writes the scenario into that tree (and may return extra argv
entries such as the candidate file path).  The command runs with the tree
as its working directory, so it sees only the scenario; its stdout and
stderr go to ``stdout.log`` and ``stderr.log`` beside the tree.  It
signals the outcome through its exit status, kept as its return code:
``None`` for a timeout and ``-N`` for death by signal N.

    0            FAIL (the failure of interest reproduced)
    125          UNRESOLVED
    1-124, 126-127   PASS
    >= 128, killed by signal, timeout   UNRESOLVED

The 0/125 convention matches common bisection tooling so existing test
scripts can be reused unchanged.

The command runs as the leader of its own process group.  When it exits,
times out or is interrupted, the whole group is killed, so background
children never outlive a test.
"""

from __future__ import annotations

import os
import select
import shutil
import signal
import stat
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from .core import Configuration, DeltaDebugError, Outcome, Pass

DEFAULT_TIMEOUT_MS = 60_000

TREE_NAME = "tree"
STDOUT_NAME = "stdout.log"
STDERR_NAME = "stderr.log"


class MaterializeConflict(Exception):
    """The scenario cannot be constructed (e.g. a change does not apply)."""


class OracleExecutionError(DeltaDebugError):
    """The test command could not be run at all; aborts the run."""


Materializer = Callable[[Configuration, Path], Optional[Sequence[str]]]


def map_exit_status(returncode: Optional[int]) -> Outcome:
    """Total mapping from return code to outcome (see module docstring)."""
    if returncode == 0:
        return Outcome.FAIL
    if returncode is None or returncode < 0 or returncode == 125 or returncode >= 128:
        return Outcome.UNRESOLVED
    return Outcome.PASS


@dataclass
class CommandOracleSpec:
    """How to run the external test command; ``argv`` is extended per test
    with whatever the oracle's materializer returns (e.g. the candidate
    path)."""

    argv: list[str]
    timeout_ms: int = DEFAULT_TIMEOUT_MS
    workspace_root: Optional[Union[str, Path]] = None
    keep_failing: bool = False

    def __post_init__(self):
        if not self.argv:
            raise ValueError("argv must not be empty")
        if self.timeout_ms <= 0:
            raise ValueError("timeout must be positive")
        if self.timeout_ms > 2**31 - 1:  # ``poll`` takes a C int of milliseconds
            raise ValueError(f"timeout must be at most {2**31 - 1} ms")


@dataclass
class CommandRun:
    """What a front-end over a command oracle returns."""

    passes: list[Pass]
    kept_workspace: Optional[str]  # the last failing test's, with keep_failing


@dataclass
class ExecutionEvidence:
    """Why a test got its outcome."""

    returncode: Optional[int]  # None: a timeout, or no process (a conflict)
    conflict: Optional[str] = None


def _wait_for_exit(proc: subprocess.Popen, timeout_ms: int) -> bool:
    """Block until the command exits or ``timeout_ms`` passes; True if it
    exited.

    Where the kernel offers pidfds, sleep on one until the leader exits,
    leaving it an unreaped zombie; otherwise fall back to ``Popen.wait``,
    which polls and reaps.
    """
    try:
        pidfd = os.pidfd_open(proc.pid)
    except (AttributeError, OSError):  # not Linux, kernel < 5.3, seccomp
        try:
            proc.wait(timeout=timeout_ms / 1000.0)
        except subprocess.TimeoutExpired:
            return False
        return True
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        return bool(poller.poll(timeout_ms))
    finally:
        os.close(pidfd)


def _kill_group_and_reap(proc: subprocess.Popen) -> int:
    """Kill the command's whole process group, then reap the leader.

    The command runs in its own session, so its pid names the group.
    Killing before reaping keeps the group id from being reused by an
    unrelated process: a zombie's pid stays taken.  (On the fallback wait
    the leader is already reaped; the id then stays taken only while some
    member of the group lives.)
    """
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return proc.wait()


def _retry_writable(func, path: str, _error) -> None:
    """``shutil.rmtree``'s error hook: where removing ``path`` failed, give
    the owner write permission on the directory that holds it, which is
    what anyone but the superuser needs to remove an entry, and retry.
    What still cannot be removed stays."""
    if func in (os.unlink, os.rmdir):
        parent = os.path.dirname(path)
        try:
            os.chmod(parent, os.stat(parent).st_mode | stat.S_IWUSR)
            func(path)
        except OSError:
            pass


def _remove(workspace: Union[str, Path]) -> None:
    """Remove a workspace, also one a test left a read-only directory in."""
    # ``onexc`` replaces ``onerror`` from Python 3.12 on.
    hook = "onexc" if sys.version_info >= (3, 12) else "onerror"
    shutil.rmtree(workspace, **{hook: _retry_writable})


def evaluate_command(
    oracle: "CommandOracle", config: Configuration
) -> tuple[Outcome, ExecutionEvidence]:
    """Run the oracle's next test: materialize ``config`` into the new
    empty tree of the run's workspace and run the command there.

    This is the body of ``CommandOracle.evaluate``, kept at module level so
    that it can be wrapped by name.  The command's process group is killed
    whenever the command ends, also when an exception or signal interrupts
    the test.  A materializer conflict yields UNRESOLVED without spawning a
    process; a command that cannot be executed at all raises.  With
    ``keep_failing``, a FAIL's workspace becomes the oracle's
    ``kept_workspace``.
    """
    spec = oracle.spec
    if oracle.materializer is None:
        raise ValueError("oracle has no materializer")
    oracle.tests_run += 1
    workspace = oracle._empty_workspace()
    tree = workspace / TREE_NAME
    try:
        extra = oracle.materializer(config, tree)
    except MaterializeConflict as exc:
        return Outcome.UNRESOLVED, ExecutionEvidence(None, str(exc))

    argv = list(spec.argv) + [str(a) for a in (extra or [])]
    env = {
        **oracle._environ,
        b"DDMIN_TEST_SEQ": b"%d" % oracle.tests_run,
        b"DDMIN_CONFIG_SIZE": b"%d" % len(config),
        b"DDMIN_UNIVERSE_SIZE": b"%d" % config.universe_size,
    }
    # Opening for writing truncates what the previous test left.
    with open(workspace / STDOUT_NAME, "wb", buffering=0) as out, \
            open(workspace / STDERR_NAME, "wb", buffering=0) as err:
        try:
            proc = subprocess.Popen(
                argv,
                cwd=tree,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=out,
                stderr=err,
                start_new_session=True,
            )
        except OSError as exc:
            raise OracleExecutionError(f"cannot execute {argv[0]!r}: {exc}") from exc
    try:
        exited = _wait_for_exit(proc, spec.timeout_ms)
    finally:
        returncode = _kill_group_and_reap(proc)
    if not exited:
        returncode = None

    outcome = map_exit_status(returncode)
    if spec.keep_failing and outcome == Outcome.FAIL:
        oracle._keep_workspace()
    return outcome, ExecutionEvidence(returncode)


class CommandOracle:
    """TestOracle over ``evaluate_command`` that owns the run's workspace.

    The workspace root is resolved and created, and the command's
    environment taken, once, when the oracle is made.  Test after test then
    runs in one workspace whose tree is recreated empty before each test;
    if something in it cannot be removed, the workspace is given up for a
    new one, so the command never sees a file from an earlier test.

    With ``keep_failing``, a FAIL's workspace is set aside as
    ``kept_workspace``, replacing (and removing) the one kept before, and
    the next test gets a new workspace.  After a run the surviving
    workspace thus belongs to the last failing test, i.e. the final
    configuration.

    Use the oracle as a context manager: leaving the block removes the
    run's workspace, and on an exception the kept one too, since the run
    then reports no result.
    """

    def __init__(self, spec: CommandOracleSpec):
        self.spec = spec
        self.materializer: Optional[Materializer] = None  # set by the front-end
        self.tests_run = 0
        self.kept_workspace: Optional[str] = None
        # The command's cwd is the workspace's tree, so the tree path (and
        # anything derived from it, like the candidate file argument) must
        # be absolute.
        root = spec.workspace_root
        self._root = Path(root).resolve() if root else Path(tempfile.gettempdir())
        self._root.mkdir(parents=True, exist_ok=True)
        self._environ = dict(os.environb)
        self._workspace: Optional[Path] = None

    def __enter__(self) -> "CommandOracle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._drop_workspace()
        if exc_type is not None and self.kept_workspace:
            _remove(self.kept_workspace)
            self.kept_workspace = None

    def evaluate(self, config: Configuration) -> Outcome:
        return evaluate_command(self, config)[0]

    def _drop_workspace(self) -> None:
        if self._workspace is not None:
            _remove(self._workspace)
            self._workspace = None

    def _empty_workspace(self) -> Path:
        """The run's workspace, its tree recreated empty."""
        if self._workspace is not None:
            tree = self._workspace / TREE_NAME
            try:
                # rmtree refuses a tree that became a symlink or a file, and
                # unlinks symlinks inside without following them.
                shutil.rmtree(tree)
                tree.mkdir()
                return self._workspace
            except OSError:
                self._drop_workspace()
        self._workspace = Path(tempfile.mkdtemp(prefix="ddmin-", dir=self._root))
        (self._workspace / TREE_NAME).mkdir()
        return self._workspace

    def _keep_workspace(self) -> None:
        if self.kept_workspace:
            _remove(self.kept_workspace)
        self.kept_workspace = str(self._workspace)
        self._workspace = None
