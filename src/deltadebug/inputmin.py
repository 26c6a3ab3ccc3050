"""Failing-input minimization: shrink an input file while a test command
keeps reporting the failure.

The input is tokenized at a chosen granularity (lines, unicode characters,
or raw bytes); each token is one delta.  A multi-pass schedule re-tokenizes
the previous pass's minimal output at the next, finer granularity, so a
line pass followed by a char pass reaches sub-line minima.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .core import (
    AxiomViolation,
    Configuration,
    EngineOptions,
    MinimizationResult,
    ddmin,
    next_pass_options,
)
from .proc import CommandOracle, CommandOracleSpec

GRANULARITIES = ("line", "char", "byte")
DEFAULT_SCHEDULE = ("line", "char")
DEFAULT_CANDIDATE_NAME = "candidate.dat"


@dataclass(frozen=True)
class TokenizedInput:
    """An input split into tokens whose concatenation is the source bytes."""

    granularity: str
    tokens: tuple[bytes, ...]

    def __len__(self) -> int:
        return len(self.tokens)


def _split_lines(data: bytes) -> list[bytes]:
    # Terminator-inclusive: a trailing fragment without a newline is a token.
    tokens = []
    start = 0
    while start < len(data):
        end = data.find(b"\n", start)
        if end < 0:
            tokens.append(data[start:])
            break
        tokens.append(data[start:end + 1])
        start = end + 1
    return tokens


def tokenize(data: bytes, granularity: str) -> TokenizedInput:
    """Split ``data`` into tokens; concatenation reproduces it exactly.

    Line tokens include their terminators; char tokens are whole unicode
    scalar values (the input must be valid UTF-8); byte tokens are single
    bytes.
    """
    if granularity == "line":
        tokens = _split_lines(data)
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
    return TokenizedInput(granularity=granularity, tokens=tuple(tokens))


def render(tokenized: TokenizedInput, config: Configuration) -> bytes:
    """Concatenate the included tokens in ascending id order."""
    if config.universe_size != len(tokenized.tokens):
        raise ValueError(
            f"configuration is over {config.universe_size} deltas, "
            f"input has {len(tokenized.tokens)} tokens"
        )
    return b"".join(tokenized.tokens[i] for i in config.members)


def candidate_materializer(tokenized: TokenizedInput, filename: str):
    """Writes the rendered candidate into the test's directory and passes
    its path to the test command as the trailing argument."""

    def materialize(config: Configuration, directory: Path) -> list[str]:
        path = directory / filename
        path.write_bytes(render(tokenized, config))
        return [str(path)]

    return materialize


@dataclass
class InputPass:
    granularity: str
    result: MinimizationResult
    minimized: bytes


@dataclass
class InputMinimization:
    minimized: bytes
    passes: list[InputPass]
    oracle: CommandOracle


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
    pass.  Later passes take both axiom answers from the first.  One
    command oracle serves every pass, so test numbers run on across passes
    and at most one failing workspace is kept per run.
    """
    if not schedule:
        raise ValueError("schedule must contain at least one granularity")
    current = data
    passes: list[InputPass] = []
    oracle = CommandOracle(spec)
    for granularity in schedule:
        tokenized = tokenize(current, granularity)
        oracle.spec = spec.with_materializer(
            candidate_materializer(tokenized, candidate_name)
        )
        universe = Configuration.full(len(tokenized))
        pass_options = next_pass_options(options, universe) if passes else options
        try:
            result = ddmin(universe, oracle, pass_options)
        except AxiomViolation as exc:
            raise AxiomViolation(
                f"{granularity} pass: {exc}", exc.log
            ) from exc
        current = render(tokenized, result.final)
        passes.append(InputPass(granularity, result, current))
    return InputMinimization(minimized=current, passes=passes, oracle=oracle)
