"""Closed-loop runner: one client, one reduction at a time.

A workload is a fixed list of reduction slots generated from the seed.  A
run makes a fixed number of passes over the slots, so every slot has the
same number of samples and the tail percentile is the same on every run,
however fast the program is.  Correctness checks, counting and
fingerprinting happen outside the timed region.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

from tracing import Patcher, SampleTrace, Tracer, install_trace

PACKAGE = "deltadebug"
MODULES = ("core", "oracles", "proc", "inputmin", "changes", "toylang",
           "tracered", "report", "cli")
MIN_PASSES = 2  # fingerprints of passes 0 and 1 are compared


def import_package(src: Path) -> SimpleNamespace:
    """Import (or re-import) the package from ``src`` and return its modules."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    mods = SimpleNamespace(**{
        name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES
    })
    origin = Path(mods.core.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise RuntimeError(f"{PACKAGE} imported from {origin}, not from {src}")
    return mods


class Capture:
    """Always-on hooks: the ``ddmin`` results of a reduction (for run-log
    counts and fingerprints) and in-process oracle calls (for test_runs)."""

    def __init__(self):
        self.results: list = []
        self.oracle_calls = 0

    def install(self, patcher: Patcher, mods) -> None:
        def capture_ddmin(fn):
            def ddmin(universe, oracle, options=None):
                result = fn(universe, oracle, options)
                self.results.append(result)
                return result
            return ddmin

        for module in (mods.core, mods.inputmin, mods.changes, mods.tracered):
            patcher.wrap(module, "ddmin", capture_ddmin)

        def count_calls(fn):
            def evaluate(oracle, config):
                self.oracle_calls += 1
                return fn(oracle, config)
            return evaluate

        patcher.wrap(mods.tracered.ReplayOracle, "evaluate", count_calls)

    def reset(self) -> None:
        self.results = []
        self.oracle_calls = 0


@dataclass
class Result:
    """What one reduction produced, as the workload's ``collect`` saw it."""

    exit_code: int
    size: int                 # final size in deltas, events or bytes
    tests: int                # underlying test executions
    answer: object            # comparable identity of the final result
    results: list             # captured ddmin results, in call order
    leftover_workspaces: int = 0
    stdout: str = ""


@dataclass
class Sample:
    slot: int
    wall_s: float
    result: Optional[Result]
    error: Optional[str] = None
    trace: Optional[SampleTrace] = None
    counts: dict = field(default_factory=dict)
    fingerprint: Optional[str] = None
    log_seconds: float = 0.0


def log_counts(results) -> dict:
    counts = {"records": 0, "oracle": 0, "exact-cache": 0, "monotony": 0,
              "axiom": 0, "feasibility-reject": 0, "passes": len(results)}
    for result in results:
        counts["records"] += len(result.log)
        for source, per in result.log.counts_by_source().items():
            counts[source] = counts.get(source, 0) + sum(per.values())
    return counts


def fingerprint_digest(results) -> str:
    h = hashlib.sha256()
    for result in results:
        h.update(repr(result.log.fingerprint()).encode())
        h.update(b"\n")
    return h.hexdigest()


def measure(slot_index: int, slot, capture: Capture, tracer: Optional[Tracer],
            want_fingerprint: bool) -> Sample:
    slot.prepare()
    capture.reset()
    if tracer is not None:
        tracer.begin()
    error = None
    started = time.perf_counter()
    try:
        raw = slot.call()
    except Exception as exc:  # a crashing reduction is a wrong result, not an abort
        raw, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - started
    trace = tracer.end() if tracer is not None else None
    sample = Sample(slot=slot_index, wall_s=wall, result=None, error=error, trace=trace)
    if error is None:
        try:
            sample.result = slot.collect(raw, capture)
        except Exception as exc:
            sample.error = f"collect: {type(exc).__name__}: {exc}"
            return sample
        results = sample.result.results
        sample.counts = log_counts(results)
        sample.log_seconds = sum(r.duration_ms for res in results for r in res.log) / 1000.0
        if want_fingerprint:
            sample.fingerprint = fingerprint_digest(results)
        sample.result.results = results if want_fingerprint else []
    return sample


def run_passes(slots, capture: Capture, mods, passes: int, trace: bool,
               time_limit: float):
    """Run ``passes`` passes over the slots, or fewer if ``time_limit``
    seconds are used up first.  With ``trace``, every second pass is traced
    and the others give the untraced reference for the tracing overhead."""
    tracer = Tracer() if trace else None
    done: list[tuple[bool, list[Sample]]] = []
    started = time.perf_counter()
    while len(done) < max(passes, MIN_PASSES):
        traced = trace and len(done) % 2 == 1
        patcher = Patcher()
        if traced:
            install_trace(patcher, tracer, mods)
            tracer.keep_spans = not any(t for t, _ in done)
        try:
            samples = [
                measure(i, slot, capture, tracer if traced else None, len(done) < MIN_PASSES)
                for i, slot in enumerate(slots)
            ]
        finally:
            patcher.restore()
        if traced:
            tracer.keep_spans = False
        done.append((traced, samples))
        if len(done) >= MIN_PASSES and time.perf_counter() - started > time_limit:
            break
    return done, tracer


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    value (nearest rank).  With ten or fewer samples, the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def representatives(passes, traced: bool) -> dict[int, Sample]:
    """Per slot, the sample with the median-low wall time."""
    by_slot: dict[int, list[Sample]] = {}
    for was_traced, samples in passes:
        if was_traced != traced:
            continue
        for s in samples:
            by_slot.setdefault(s.slot, []).append(s)
    chosen = {}
    for slot, samples in by_slot.items():
        ordered = sorted(samples, key=lambda s: s.wall_s)
        chosen[slot] = ordered[(len(ordered) - 1) // 2]
    return chosen
