"""Test oracles realized as external commands over materialized scenarios.

Each evaluation gets a fresh workspace under the workspace root.  A
front-end supplied materializer writes the scenario into the workspace's
``tree`` directory (and may return extra argv entries such as the
candidate file path).  The command runs with that tree as its working
directory, so it sees only the scenario; its stdout and stderr go to
``stdout.log`` and ``stderr.log`` beside the tree.  It signals the outcome
through its exit status, kept as its return code: ``None`` for a timeout
and ``-N`` for death by signal N.

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
import subprocess
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from .core import Configuration, DeltaDebugError, Outcome

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
    """How to run the external test command.

    The materializer is provided by a front-end module; ``argv`` may be
    extended per test with whatever it returns (e.g. the candidate path).
    """

    argv: list[str]
    materializer: Optional[Materializer] = None
    timeout_ms: int = DEFAULT_TIMEOUT_MS
    workspace_root: Optional[Union[str, Path]] = None
    keep_failing: bool = False

    def __post_init__(self):
        if not self.argv:
            raise ValueError("argv must not be empty")
        if self.timeout_ms <= 0:
            raise ValueError("timeout must be positive")

    def with_materializer(self, materializer: Materializer) -> "CommandOracleSpec":
        return replace(self, materializer=materializer)


@dataclass
class ExecutionEvidence:
    returncode: Optional[int]  # None: a timeout, or no process (a conflict)
    workspace: str  # holds the tree and the two logs
    duration_ms: float
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


def evaluate_command(
    spec: CommandOracleSpec,
    config: Configuration,
    test_seq: int = 1,
) -> tuple[Outcome, ExecutionEvidence]:
    """Materialize ``config`` into a fresh workspace's tree and run the
    command there.

    The workspace is deleted afterwards unless ``keep_failing`` is set and
    the outcome is FAIL, also when an exception or signal interrupts the
    test; the command's process group is killed whenever it ends.  A
    materializer conflict yields UNRESOLVED without spawning a process; a
    command that cannot be executed at all raises.
    """
    if spec.materializer is None:
        raise ValueError("spec has no materializer")
    # Resolve the root: the command's cwd is the workspace's tree, so the
    # tree path (and anything derived from it, like the candidate file
    # argument) must be absolute.
    root = Path(spec.workspace_root).resolve() if spec.workspace_root else Path(tempfile.gettempdir())
    root.mkdir(parents=True, exist_ok=True)
    workspace = Path(tempfile.mkdtemp(prefix=f"ddmin-{test_seq:06d}-", dir=root))
    tree = workspace / TREE_NAME
    started = time.perf_counter()

    def elapsed_ms() -> float:
        return (time.perf_counter() - started) * 1000.0

    outcome: Optional[Outcome] = None
    try:
        tree.mkdir()
        try:
            extra = spec.materializer(config, tree)
        except MaterializeConflict as exc:
            return Outcome.UNRESOLVED, ExecutionEvidence(
                returncode=None,
                workspace=str(workspace),
                duration_ms=elapsed_ms(),
                conflict=str(exc),
            )

        argv = list(spec.argv) + [str(a) for a in (extra or [])]
        env = dict(os.environ)
        env["DDMIN_TEST_SEQ"] = str(test_seq)
        env["DDMIN_CONFIG_SIZE"] = str(len(config))
        env["DDMIN_UNIVERSE_SIZE"] = str(config.universe_size)

        with open(workspace / STDOUT_NAME, "wb") as out, open(workspace / STDERR_NAME, "wb") as err:
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
        return outcome, ExecutionEvidence(
            returncode=returncode,
            workspace=str(workspace),
            duration_ms=elapsed_ms(),
        )
    finally:
        if not (spec.keep_failing and outcome == Outcome.FAIL):
            shutil.rmtree(workspace, ignore_errors=True)


class CommandOracle:
    """TestOracle over ``evaluate_command`` with per-run bookkeeping.

    Keeps at most one failing workspace around: each new FAIL replaces the
    previously kept one, so after a run the surviving workspace belongs to
    the last failing test, i.e. the final configuration.
    """

    def __init__(self, spec: CommandOracleSpec):
        self.spec = spec
        self.tests_run = 0
        self.kept_workspace: Optional[str] = None

    def evaluate(self, config: Configuration) -> Outcome:
        self.tests_run += 1
        outcome, evidence = evaluate_command(self.spec, config, test_seq=self.tests_run)
        if self.spec.keep_failing and outcome == Outcome.FAIL:
            if self.kept_workspace and self.kept_workspace != evidence.workspace:
                shutil.rmtree(self.kept_workspace, ignore_errors=True)
            self.kept_workspace = evidence.workspace
        return outcome
