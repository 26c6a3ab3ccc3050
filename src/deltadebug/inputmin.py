"""Failing-input minimization: shrink an input file while a test command
keeps reporting the failure.

The input is tokenized at a chosen granularity (lines, unicode characters,
or raw bytes); each token is one delta.  A multi-pass schedule re-tokenizes
the previous pass's minimal output at the next, finer granularity, so a
line pass followed by a char pass reaches sub-line minima; where that
output is not valid UTF-8, the char pass runs over bytes instead.
"""

from __future__ import annotations

import functools
import io
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .core import Configuration, EngineOptions, Pass, run_passes
from .proc import CommandOracle, CommandOracleSpec

GRANULARITIES = ("line", "char", "byte")
DEFAULT_SCHEDULE = ("line", "char")
DEFAULT_CANDIDATE_NAME = "candidate.dat"


def tokenize(data: bytes, granularity: str) -> tuple[bytes, ...]:
    """Split ``data`` into tokens; concatenation reproduces it exactly.

    Line tokens end at each newline byte and include it; char tokens are
    whole unicode scalar values (the input must be valid UTF-8); byte tokens
    are single bytes.
    """
    if granularity == "line":
        # Split at "\n" only, each line keeping it; a "\r" is line content.
        tokens = io.BytesIO(data).readlines()
    elif granularity == "char":
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(
                "input is not valid UTF-8; use byte granularity instead"
            ) from exc
        tokens = [ch.encode("utf-8") for ch in text]
    elif granularity == "byte":
        tokens = [data[i:i + 1] for i in range(len(data))]
    else:
        raise ValueError(f"unknown granularity {granularity!r}; expected one of {GRANULARITIES}")
    return tuple(tokens)


def render(tokens: tuple[bytes, ...], config: Configuration) -> bytes:
    """Concatenate the included tokens in ascending id order."""
    if config.universe_size != len(tokens):
        raise ValueError(
            f"configuration is over {config.universe_size} deltas, "
            f"input has {len(tokens)} tokens"
        )
    return b"".join(tokens[i] for i in config.members)


def candidate_materializer(tokens: tuple[bytes, ...], filename: str):
    """Writes the rendered candidate into the test's directory and passes
    its path to the test command as the trailing argument."""

    def materialize(config: Configuration, directory: Path) -> list[str]:
        path = directory / filename
        path.write_bytes(render(tokens, config))
        return [str(path)]

    return materialize


@dataclass
class InputMinimization:
    minimized: bytes
    passes: list[Pass]  # each pass's ids are byte offsets of the input
    kept_workspace: Optional[str]  # the last failing test's, with keep_failing


def minimize_input(
    data: bytes,
    spec: CommandOracleSpec,
    schedule: Sequence[str] = DEFAULT_SCHEDULE,
    candidate_name: str = DEFAULT_CANDIDATE_NAME,
    options: Optional[EngineOptions] = None,
) -> InputMinimization:
    """Run one ddmin pass per schedule entry, re-tokenizing between passes.

    The test command must declare the original input failing and the empty
    input passing; an axiom violation aborts with a diagnostic naming the
    pass.  Later passes take both axiom answers from the first, and a
    later char pass over bytes that are not UTF-8 runs at byte granularity
    (and is labelled so).  One command oracle serves every pass, so test
    numbers run on across passes, the passes share one workspace, and at
    most one failing workspace is kept per run.  The run's workspace is
    removed when the run ends, also on an exception.
    """
    if not schedule:
        raise ValueError("schedule must contain at least one granularity")
    for granularity in schedule:  # rejects an unknown one before any test
        tokenize(b"", granularity)

    def step(granularity: str, first: bool, kept: Sequence[int]):
        current = bytes(map(data.__getitem__, kept))
        try:
            tokens = tokenize(current, granularity)
        except ValueError:  # a later char pass over bytes that are not UTF-8
            if first:
                raise
            granularity, tokens = "byte", tokenize(current, "byte")
        oracle.spec = spec.with_materializer(candidate_materializer(tokens, candidate_name))
        # Token i is current[lo:hi], the input's bytes at kept[lo:hi].
        bounds = list(itertools.accumulate(map(len, tokens), initial=0))
        return granularity, [kept[lo:hi] for lo, hi in zip(bounds, bounds[1:])], oracle

    steps = [functools.partial(step, g, k == 0) for k, g in enumerate(schedule)]
    with CommandOracle(spec) as oracle:
        passes = run_passes(range(len(data)), steps, options)
    minimized = bytes(map(data.__getitem__, passes[-1].kept))
    return InputMinimization(minimized, passes, oracle.kept_workspace)
