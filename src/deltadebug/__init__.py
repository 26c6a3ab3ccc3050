"""Delta debugging toolkit: ddmin engine plus input, change-set, and
execution-trace front-ends driven by external or in-process test oracles."""

from .core import (
    AxiomViolation,
    Configuration,
    DeltaDebugError,
    EngineOptions,
    MinimizationResult,
    Outcome,
    Pass,
    RunLog,
    TestOracle,
    TestRecord,
    ddmin,
    partition,
    run_passes,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomViolation",
    "Configuration",
    "DeltaDebugError",
    "EngineOptions",
    "MinimizationResult",
    "Outcome",
    "Pass",
    "RunLog",
    "TestOracle",
    "TestRecord",
    "ddmin",
    "partition",
    "run_passes",
]
