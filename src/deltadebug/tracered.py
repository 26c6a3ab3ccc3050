"""Critical-slice extraction: reduce an execution trace to the 1-minimal
set of events whose replay still produces the expected output.

The expectation is a line filter plus an exact expected text.  Filtering
matters because prompts are written without a newline and would otherwise
glue themselves onto the next real output line: a line contributes its
suffix starting at the first occurrence of any configured prefix, and
lines without a match are dropped.  By default the prefixes are derived
from the leading word of each expected line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .core import Configuration, EngineOptions, Outcome, Pass, PassOracle, run_passes
from .toylang import (
    Event,
    KIND_STATEMENT,
    Program,
    Read,
    ReplayOutput,
    STATUS_COMPLETED,
    Statement,
    Trace,
    replay_events,
    resolve_trace,
    trace_program,
)


@dataclass(frozen=True)
class OutputExpectation:
    expected_text: str
    prefixes: tuple[str, ...]

    @classmethod
    def derive(
        cls, expected_text: str, prefixes: Optional[Sequence[str]] = None
    ) -> "OutputExpectation":
        if prefixes is None:
            derived = []
            for line in expected_text.splitlines():
                token = line.split()[0] if line.split() else line
                if token and token not in derived:
                    derived.append(token)
            prefixes = derived
        if not prefixes:
            raise ValueError("expectation needs at least one filter prefix")
        return cls(expected_text=expected_text, prefixes=tuple(prefixes))


def filter_output(text: str, prefixes: Sequence[str]) -> str:
    """Keep each line's suffix from the first prefix match; drop the rest."""
    kept = []
    for line in text.splitlines(keepends=True):
        positions = [i for i in (line.find(p) for p in prefixes) if i >= 0]
        if positions:
            kept.append(line[min(positions):])
    return "".join(kept)


class ReplayOracle:
    """FAIL iff the filtered replay output equals the expected text;
    UNRESOLVED iff the replay did not complete; PASS otherwise."""

    def __init__(
        self,
        program: Program,
        trace: Trace,
        stdin_tokens: Sequence[int],
        expectation: OutputExpectation,
    ):
        self.program = program
        self.trace = resolve_trace(program, trace)
        self.stdin_tokens = list(stdin_tokens)
        self.expectation = expectation

    def replay(self, config: Configuration) -> ReplayOutput:
        return replay_events(self.program, self.trace, config, self.stdin_tokens)

    def evaluate(self, config: Configuration) -> Outcome:
        output = self.replay(config)
        if output.status != STATUS_COMPLETED:
            return Outcome.UNRESOLVED
        filtered = filter_output(output.stdout, self.expectation.prefixes)
        if filtered == self.expectation.expected_text:
            return Outcome.FAIL
        return Outcome.PASS


def data_slice(program: Program, trace: Trace, prefixes: Sequence[str]) -> list[int]:
    """The ascending event numbers of the dynamic data slice of ``trace``.

    The criteria are the print events with a string literal that contains
    one of ``prefixes``.  Walking the trace backwards, an event joins when
    it writes a name that a later slice event reads, as the last writer
    before that read.  A read joins also when a later read has joined,
    since replay hands out stdin tokens in order.
    """
    by_line = {stmt.line: stmt for stmt in program.statements}
    needed: set[str] = set()  # the names later slice events read
    reading = False  # a later read has joined
    joined = []
    for i in range(len(trace) - 1, -1, -1):
        event = trace[i]
        stmt = by_line.get(event.line) if event.kind == KIND_STATEMENT else None
        if isinstance(stmt, Read):
            writes, reads = stmt.name, ()
            joins = reading = reading or writes in needed
        elif isinstance(stmt, Statement):
            writes, reads = stmt.writes, stmt.reads
            if writes is None:  # a print
                joins = any(p in text for text in stmt.strings for p in prefixes)
            else:
                joins = writes in needed
        else:
            continue
        if joins:
            needed.discard(writes)
            needed.update(reads)
            joined.append(i)
    return joined[::-1]


@dataclass
class TraceReduction:
    program: Program
    trace: Trace
    passes: list[Pass]  # the slice pass, then the trace pass; ids are event numbers
    slice_events: list[Event]

    @property
    def slice_labels(self) -> list[str]:
        return [e.label for e in self.slice_events]


def reduce_trace(
    program: Program,
    stdin_tokens: Sequence[int],
    expectation: OutputExpectation,
    options: Optional[EngineOptions] = None,
) -> TraceReduction:
    """Trace the program, then shrink the event set to a critical slice.

    The universe is the replayable events: a loop head or loop end replays
    as nothing, and the traced run completed, so removing one never changes
    an outcome.  A ``slice`` pass over the groups {data slice, rest} tests
    the slice, and keeps both when it does not FAIL; the ``trace`` pass then
    reduces the survivors event by event.  When the slice pass kept just
    the slice, the slice FAILed alone and few of its events can go, so
    the trace pass scans it (see ``EngineOptions.scan``): it asks each
    event's complement in turn, and bisects once two events in a row go.
    The replay of every replayable event must satisfy the expectation and
    the empty replay must not; those are exactly the engine's axiom checks.
    """
    trace, traced = trace_program(program, stdin_tokens)
    if traced.status != STATUS_COMPLETED:
        raise ValueError(f"tracing did not complete: {traced.status} ({traced.error})")
    oracle = ReplayOracle(program, trace, stdin_tokens, expectation)
    replayable = [i for i, action in enumerate(oracle.trace.actions) if action is not None]
    sliced = data_slice(program, trace, expectation.prefixes)
    rest = sorted(set(replayable).difference(sliced))

    def slice_step(kept: Sequence[int]):
        groups = [group for group in (sliced, rest) if group]
        return "slice", groups, PassOracle(oracle, len(trace), groups)

    def trace_step(kept: Sequence[int]):
        # Delta i is event kept[i]: replaying the kept events' own trace
        # runs the same events in the same order as the full trace would.
        own = ReplayOracle(program, [trace[i] for i in kept], stdin_tokens, expectation)
        return "trace", [(i,) for i in kept], own, bool(sliced) and kept == tuple(sliced)

    passes = run_passes(replayable, [slice_step, trace_step], options)
    return TraceReduction(
        program=program,
        trace=trace,
        passes=passes,
        slice_events=[trace[i] for i in passes[-1].kept],
    )


def render_two_column(reduction: TraceReduction) -> str:
    """Original and reduced trace side by side, one row per event."""
    rows = [("event", "original", "reduced")]
    included = {e.seq for e in reduction.slice_events}
    for event in reduction.trace:
        text = reduction.program.source_line(event.line).strip()
        rows.append((event.label, text, text if event.seq in included else ""))
    width_label = max(len(r[0]) for r in rows)
    width_orig = max(len(r[1]) for r in rows)
    lines = [
        f"{label:<{width_label}}  {orig:<{width_orig}}  {red}".rstrip()
        for label, orig, red in rows
    ]
    return "\n".join(lines) + "\n"
