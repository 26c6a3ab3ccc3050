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

from .core import (
    Configuration,
    EngineOptions,
    Outcome,
    Pass,
    run_passes,
)
from .toylang import (
    Event,
    Program,
    ReplayOutput,
    STATUS_COMPLETED,
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


@dataclass
class TraceReduction:
    program: Program
    trace: Trace
    passes: list[Pass]  # one pass, whose ids are event numbers
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

    The full-trace replay must satisfy the expectation and the empty
    replay must not; those are exactly the engine's axiom checks.
    """
    trace, traced = trace_program(program, stdin_tokens)
    if traced.status != STATUS_COMPLETED:
        raise ValueError(f"tracing did not complete: {traced.status} ({traced.error})")
    oracle = ReplayOracle(program, trace, stdin_tokens, expectation)
    passes = run_passes(
        range(len(trace)), [lambda kept: ("trace", [(i,) for i in kept], oracle)], options
    )
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
