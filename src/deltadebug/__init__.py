"""Delta debugging toolkit: ddmin engine plus input, change-set, and
execution-trace front-ends driven by external or in-process test oracles."""

from .core import (
    AxiomViolation,
    CachedOracle,
    Configuration,
    DeltaDebugError,
    EngineOptions,
    EngineState,
    FunctionOracle,
    MinimizationResult,
    NondeterminismDetected,
    Outcome,
    RunLog,
    TestOracle,
    TestRecord,
    VerifyBudgetExceeded,
    ddmin,
    partition,
    verify_n_minimal,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomViolation",
    "CachedOracle",
    "Configuration",
    "DeltaDebugError",
    "EngineOptions",
    "EngineState",
    "FunctionOracle",
    "MinimizationResult",
    "NondeterminismDetected",
    "Outcome",
    "RunLog",
    "TestOracle",
    "TestRecord",
    "VerifyBudgetExceeded",
    "ddmin",
    "partition",
    "verify_n_minimal",
]
