"""Command-line surface: minimize-input, minimize-changes, reduce-trace,
and a bench mode exercising the engine's complexity claims.

Exit status: 0 on success, 1 on usage or hard errors, 2 when the test
oracle violates an axiom (the full scenario does not fail, or the empty
one does).
"""

from __future__ import annotations

import argparse
import os
import re
import signal
import sys
from pathlib import Path
from typing import Optional

# Each subcommand imports its own front-end, so a run loads only what it uses.
from . import report as report_mod
from .core import (
    AxiomViolation,
    Configuration,
    DeltaDebugError,
    EngineOptions,
    MinimizationResult,
    Outcome,
    Pass,
)

PROGRESS_EVERY = 25


_EXPECT_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\"}


def _unescape(text: str) -> str:
    """Decode \\n, \\t and \\\\; any other backslash stays as it is."""
    return re.sub(r"\\([nt\\])", lambda escape: _EXPECT_ESCAPES[escape[1]], text)


class _Progress:
    """Per-test reporting: one bitmap row per test when verbose, otherwise
    a summary line every PROGRESS_EVERY tests."""

    def __init__(self, verbose: bool):
        self.verbose = verbose
        self.count = 0
        # Keyed by outcome value: an Outcome key would cost two calls of
        # the Python-level ``Enum.__hash__`` per test.
        self.tallies = {o.value: 0 for o in Outcome}

    def __call__(self, record) -> None:
        self.count += 1
        self.tallies[record.outcome._value_] += 1
        if self.verbose:
            print(report_mod.render_log_line(record))
        elif self.count % PROGRESS_EVERY == 0:
            print(
                f"... {self.count} tests "
                f"(fail={self.tallies['fail']} "
                f"pass={self.tallies['pass']} "
                f"unresolved={self.tallies['unresolved']})"
            )


def _read_text(path: str, newline: Optional[str] = None) -> str:
    """The UTF-8 text of ``path``, named in the error if it is not UTF-8.
    ``newline=""`` keeps every line ending as it is, CRs included."""
    try:
        with open(path, encoding="utf-8", newline=newline) as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _engine_options(args) -> EngineOptions:
    return EngineOptions(
        monotone=args.monotone_cache, on_record=_Progress(args.verbose),
    )


def _command_oracle(args):
    from . import proc

    argv = list(args.test)
    # The command runs in its workspace's tree directory, but flags are
    # relative to the invocation directory: pin path-like
    # commands (./check.sh) down now.  Bare names still resolve via PATH.
    if "/" in argv[0]:
        argv[0] = str(Path(argv[0]).resolve())
    return proc.CommandOracle(argv, args.timeout, args.workspace, args.keep_failing)


def _write_run_report(args, passes) -> bool:
    """Write the report asked for, if any; False, with the error on
    stderr, if it cannot be written."""
    if not getattr(args, "report", None):
        return True
    try:
        report_mod.write_report(passes, args.report, args.deterministic_report)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    print(f"report: {args.report}")
    return True


def _check_outputs(args, *paths: str) -> None:
    """Name an output that could not be written, before the first test:
    one whose directory does not exist, that names a directory (a
    trailing ``/`` does, which ``Path`` would drop), or whose file an
    earlier output already names."""
    outputs = [("", path) for path in paths]
    if args.report:
        outputs.append(("report ", args.report))
    seen = {}
    for kind, path in outputs:
        target = Path(path)
        if path.endswith("/") or target.is_dir():
            raise ValueError(f"cannot write {kind}{path}: it names a directory")
        if not target.parent.is_dir():
            raise ValueError(f"cannot write {kind}{path}: no directory {target.parent}")
        file = os.path.realpath(path)
        if file in seen:
            raise ValueError(f"cannot write {kind}{path}: output {seen[file]} names the same file")
        seen[file] = path


def _conclude(args, passes, render, kept_workspace: Optional[str] = None) -> int:
    """Write the files that ``render`` makes of the last pass's kept input
    ids, print a summary of each pass, then render's lines, then the kept
    failing workspace, and write the report of the passes.  A file that
    cannot be written is named on stderr, the rest are still written, and
    the run exits 1.

    ``render(kept)`` returns the ``(path, bytes)`` pairs to write and the
    summary lines."""
    status = 0
    files, lines = render(passes[-1].kept)
    for path, data in files:
        try:
            Path(path).write_bytes(data)
        except OSError as exc:
            print(f"error: cannot write {path}: {exc}", file=sys.stderr)
            status = 1
    for p in passes:
        oracle, cached, axiom = p.result.log.test_counts()
        print(
            f"{p.label} pass: {p.result.log.universe_size} -> {len(p.result.final)} "
            f"deltas ({oracle} oracle tests, {cached} cached, {axiom} axiom checks)"
        )
    print(*lines, sep="\n")
    if kept_workspace:
        print(f"failing workspace kept: {kept_workspace}")
    if not _write_run_report(args, passes):
        status = 1
    return status


# --- minimize-input ----------------------------------------------------------

def cmd_minimize_input(args) -> int:
    from . import inputmin

    data = Path(args.input).read_bytes()
    schedule = [g.strip() for g in args.granularity.split(",") if g.strip()]
    output = args.output or f"{args.input}.min"
    _check_outputs(args, output)
    command = _command_oracle(args)
    passes = inputmin.minimize_input(
        data,
        command,
        schedule=schedule,
        candidate_name=Path(args.input).name,
        options=_engine_options(args),
    )
    last = passes[-1]

    def render(kept):
        minimized = bytes(map(data.__getitem__, kept))
        return [(output, minimized)], [
            f"minimized input: {output} ({len(minimized)} bytes)",
            f"verified 1-minimal at {last.label} granularity: "
            f"{last.result.verified_1_minimal}",
        ]

    return _conclude(args, passes, render, command.kept_workspace)


# --- minimize-changes --------------------------------------------------------

def cmd_minimize_changes(args) -> int:
    from . import changes

    baseline = changes.load_tree(args.baseline)
    # No newline translation: a CRLF diff's lines keep their CR, as do the
    # baseline's (see changes.load_tree).
    diff_text = _read_text(args.diff, newline="")
    atomic = changes.split_unified_diff(diff_text)
    dependencies = {}
    if args.deps:
        dependencies = changes.parse_dependencies(_read_text(args.deps))
    changeset = changes.ChangeSet(changes=tuple(atomic), dependencies=dependencies)
    print(f"split diff into {len(changeset)} atomic changes")

    groups: Optional[changes.GroupKey] = None
    if args.groups:
        if args.groups in ("file", "dir"):
            groups = "file" if args.groups == "file" else "directory"
        else:
            groups = changes.parse_group_map(_read_text(args.groups))

    output = args.output_diff or f"{args.diff}.min"
    _check_outputs(args, output)
    command = _command_oracle(args)
    passes = changes.minimize_changes(
        baseline, changeset, command, groups=groups, options=_engine_options(args),
    )

    def render(kept):
        diff = changes.render_unified_diff([changeset.changes[i] for i in kept])
        return [(output, diff.encode("utf-8"))], [
            f"minimal failure-inducing diff: {output} ({len(kept)} changes)",
        ]

    return _conclude(args, passes, render, command.kept_workspace)


# --- reduce-trace ------------------------------------------------------------

def cmd_reduce_trace(args) -> int:
    from . import toylang, tracered

    program = toylang.parse_program(_read_text(args.program))
    tokens = []
    for token in filter(None, map(str.strip, args.stdin.split(","))):
        try:
            tokens.append(int(token))
        except ValueError:
            raise ValueError(f"--stdin: token {token!r} is not an integer") from None
    prefixes = (
        [p for p in args.filter.split(",") if p] if args.filter else None
    )
    expectation = tracered.OutputExpectation.derive(_unescape(args.expect), prefixes)
    trace_out = args.trace_out or f"{args.program}.trace"
    slice_out = args.slice_out or f"{args.program}.slice"
    _check_outputs(args, trace_out, slice_out)
    reduction = tracered.reduce_trace(
        program, tokens, expectation, options=_engine_options(args)
    )
    trace = reduction.trace

    def render(kept):
        labels = " ".join(trace[i].label for i in kept)
        two_column = tracered.render_two_column(program, trace, kept)
        return [
            (trace_out, toylang.format_trace(trace).encode("utf-8")),
            (slice_out, two_column.encode("utf-8")),
        ], [
            f"critical slice ({len(kept)} events): {labels}",
            f"trace file: {trace_out}",
            f"slice: {slice_out}",
        ]

    return _conclude(args, reduction.passes, render)


# --- bench -------------------------------------------------------------------

def cmd_bench(args) -> int:
    from . import bench

    sizes = bench.parse_sizes(args.sizes)
    lines, violations = bench.run_bench(
        args.oracle, sizes, monotone=args.monotone_cache
    )
    sys.stdout.write("\n".join([bench.CSV_HEADER, *lines]) + "\n")
    for violation in violations:
        print(f"BOUND VIOLATION: {violation}", file=sys.stderr)
    return 1 if violations else 0


# --- parser ------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, command_oracle: bool) -> None:
    p.add_argument("--report", help="write a JSON run report to this path")
    p.add_argument(
        "--deterministic-report", action="store_true",
        help="zero timing fields in the report (for golden-file comparison)",
    )
    p.add_argument("--verbose", action="store_true",
                   help="print one log row per test instead of summaries")
    p.add_argument("--monotone-cache", action="store_true",
                   help="assume monotony: subsets of passing configurations pass")
    if command_oracle:
        p.add_argument("--test", nargs="+", required=True, metavar="CMD",
                       help="test command; exit 0 = failure reproduced, "
                            "125 = unresolved, other = pass")
        p.add_argument("--timeout", type=int, default=60_000, metavar="MS",
                       help="per-test timeout in milliseconds (default 60000)")
        p.add_argument("--workspace", help="directory for the run's workspace")
        p.add_argument("--keep-failing", action="store_true",
                       help="keep the workspace of the last failing test")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddmin",
        description="Delta debugging toolkit: minimize failure-inducing "
                    "inputs, change sets, and execution traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("minimize-input", help="shrink a failing input file")
    p.add_argument("--input", required=True, help="the failing input file")
    p.add_argument("--granularity", default="line,char",
                   help="comma-separated pass schedule: line, char, byte "
                        "(default line,char)")
    p.add_argument("--output", help="where to write the minimized input "
                                    "(default INPUT.min)")
    _add_common(p, command_oracle=True)
    p.set_defaults(func=cmd_minimize_input)

    p = sub.add_parser("minimize-changes",
                       help="shrink a failure-inducing patch set")
    p.add_argument("--baseline", required=True, help="baseline source tree")
    p.add_argument("--diff", required=True, help="unified diff against the baseline")
    p.add_argument("--deps", help="TSV dependency file: CHILD<TAB>PARENT change ids")
    p.add_argument("--groups",
                   help="grouping pass: 'file', 'dir', or a TSV map "
                        "CHANGE-ID<TAB>KEY")
    p.add_argument("--output-diff", help="where to write the minimal diff "
                                         "(default DIFF.min)")
    _add_common(p, command_oracle=True)
    p.set_defaults(func=cmd_minimize_changes)

    p = sub.add_parser("reduce-trace",
                       help="reduce an execution trace to a critical slice")
    p.add_argument("--program", required=True, help="program in the toy language")
    p.add_argument("--stdin", default="", metavar="TOKENS",
                   help="comma-separated integer input tokens, e.g. 0,5")
    p.add_argument("--expect", required=True,
                   help="expected filtered output (\\n escapes accepted)")
    p.add_argument("--filter", metavar="PREFIXES",
                   help="comma-separated line prefixes to keep (default: "
                        "derived from the expected text)")
    p.add_argument("--trace-out", help="trace file path (default PROGRAM.trace)")
    p.add_argument("--slice-out", help="two-column slice path (default PROGRAM.slice)")
    _add_common(p, command_oracle=False)
    p.set_defaults(func=cmd_reduce_trace)

    p = sub.add_parser("bench", help="run synthetic oracles and check the "
                                     "test-count bounds")
    p.add_argument("--oracle", required=True,
                   help="single | conjunction:K | random-monotone:SEED | adversarial")
    p.add_argument("--sizes", required=True,
                   help="comma-separated sizes; A..B ranges allowed")
    p.add_argument("--monotone-cache", action="store_true",
                   help="enable the monotony shortcut")
    p.set_defaults(func=cmd_bench)

    return parser


def _install_signal_handlers() -> None:
    # The SystemExit unwinds through the running test, whose cleanup kills
    # its process group, and through the front-end, which removes the run's
    # workspace.
    def handler(signum, frame):
        print(f"interrupted by signal {signum}", file=sys.stderr)
        raise SystemExit(1)

    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, handler)
        except ValueError:  # not the main thread
            pass


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error; the CLI
        # reserves 2 for axiom violations, so a usage error exits 1.
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except AxiomViolation as exc:
        print(f"axiom violation: {exc}", file=sys.stderr)
        if exc.log is not None:
            aborted = MinimizationResult(Configuration(exc.log.universe_size), exc.log)
            _write_run_report(args, [Pass("aborted", aborted, ())])
        return 2
    except (DeltaDebugError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    _install_signal_handlers()
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
