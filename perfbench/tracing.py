"""Spans around the public functions each front-end calls.

The benchmark wraps module attributes of the imported package from the
outside; nothing under ``src/`` is edited.  A ``Patcher`` swaps attributes
in and restores them, so tracing can be switched on for one pass over the
workload and off for the next.

A span records name, start, end and the span that caused it.  Self time is
a span's duration minus the part its child spans cover; per reduction the
self times of all spans plus the root's own self time add up to the
reduction's wall time exactly.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Optional

ROOT = "bench.reduction"


class Patcher:
    """Replaces attributes on modules or classes and puts the old ones back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, name: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.name`` by ``make(owner.name)``.  A name the
        package no longer has is skipped: its layer then reads 0."""
        original = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
        if original is None:
            return
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class SampleTrace:
    """Per-layer aggregates of one reduction."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.durations_ms: dict[str, list[float]] = defaultdict(list)
        self.marks: dict[str, float] = {}
        self.wall_s = 0.0


class Tracer:
    """Stack of open spans; aggregates into the current ``SampleTrace``.

    Full span records are kept only while ``keep_spans`` is set, so memory
    stays bounded on workloads that run tens of thousands of tests.
    """

    def __init__(self):
        self._stack: list[list] = []  # [span id, name, start, child seconds]
        self._next_id = 0
        self.sample: Optional[SampleTrace] = None
        self.keep_spans = False
        self.spans: list[tuple[int, Optional[int], str, float, float]] = []

    def begin(self) -> None:
        self.sample = SampleTrace()
        self.sample.marks["start"] = time.perf_counter()
        self._push(ROOT)

    def end(self) -> SampleTrace:
        self._pop()
        sample, self.sample = self.sample, None
        sample.wall_s = sample.total_s[ROOT]
        return sample

    def _push(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])

    def _pop(self) -> float:
        end = time.perf_counter()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        sample = self.sample
        sample.self_s[name] += duration - child
        sample.total_s[name] += duration
        sample.calls[name] += 1
        if self._stack:
            self._stack[-1][3] += duration
        if self.keep_spans:
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append((span_id, parent, name, start, end))
        return duration

    def active(self, name: str) -> bool:
        return any(frame[1] == name for frame in self._stack)

    def wrapper(
        self,
        name: str,
        fn: Callable,
        on_call: Optional[Callable[[SampleTrace, tuple, dict], None]] = None,
        on_result: Optional[Callable[[SampleTrace, object], None]] = None,
        keep_durations: bool = False,
    ) -> Callable:
        """``fn`` wrapped in a span; the hooks add counts to the sample."""

        def traced(*args, **kwargs):
            if self.sample is None:  # called outside a timed reduction
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(self.sample, args, kwargs)
            self._push(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self._pop()
                if keep_durations:
                    self.sample.durations_ms[name].append(duration * 1000.0)
            if on_result is not None:
                on_result(self.sample, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def span_export(self) -> list[dict]:
        return [
            {"id": i, "parent": p, "name": n, "start": s, "end": e}
            for i, p, n, s, e in self.spans
        ]


class _OracleSpan:
    """The oracle handed to ``ddmin``, timed as ``core.oracle``.

    Keeps ``evaluate_ex`` when the wrapped oracle has it, so the engine's
    provenance tags are unchanged.
    """

    def __init__(self, tracer: Tracer, oracle):
        self._oracle = oracle
        self.evaluate = tracer.wrapper("core.oracle", oracle.evaluate)
        ex = getattr(oracle, "evaluate_ex", None)
        if ex is not None:
            self.evaluate_ex = tracer.wrapper("core.oracle", ex)


def install_trace(patcher: Patcher, tracer: Tracer, mods) -> None:
    """Wrap every layer boundary the per-layer metrics are defined on."""
    core, oracles, proc = mods.core, mods.oracles, mods.proc
    inputmin, changes, toylang = mods.inputmin, mods.changes, mods.toylang
    tracered, report = mods.tracered, mods.report

    def span(owner, attr, name, **hooks):
        patcher.wrap(owner, attr, lambda fn: tracer.wrapper(name, fn, **hooks))

    def ddmin_span(caller):
        def count(sample, _args, _kwargs):
            sample.counts[f"{caller}.ddmin_calls"] += 1

        def make(fn):
            inner = tracer.wrapper("core.ddmin", fn, on_call=count)

            def ddmin(universe, oracle, options=None):
                return inner(universe, _OracleSpan(tracer, core.as_oracle(oracle)), options)

            return ddmin

        return make

    for module in (core, inputmin, changes, tracered):
        patcher.wrap(module, "ddmin", ddmin_span(module.__name__.rsplit(".", 1)[-1]))
    span(core, "partition", "core.partition")
    span(oracles.SetFamilyOracle, "evaluate", "oracles.evaluate")

    # Front-ends: cli.post_s and cli.verify_spawns are measured from the
    # moment the front-end returns to the end of ``cli.run``.
    def frontend_done(sample, _result):
        sample.marks["frontend_end"] = time.perf_counter()
        sample.counts["proc.commands_at_frontend_end"] = sample.counts["proc.commands"]

    span(inputmin, "minimize_input", "inputmin.minimize_input", on_result=frontend_done)
    span(changes, "minimize_changes", "changes.minimize_changes", on_result=frontend_done)
    span(tracered, "reduce_trace", "tracered.reduce_trace", on_result=frontend_done)

    def proc_result(sample, result):
        outcome, evidence = result
        if evidence.conflict is None:
            sample.counts["proc.commands"] += 1
        if outcome is core.Outcome.UNRESOLVED:
            sample.counts["proc.unresolved"] += 1

    span(proc, "evaluate_command", "proc.evaluate_command",
         on_result=proc_result, keep_durations=True)

    def materializer_factory(fn):
        def make(*args, **kwargs):
            return tracer.wrapper("proc.materialize", fn(*args, **kwargs))
        return make

    patcher.wrap(inputmin, "candidate_materializer", materializer_factory)
    patcher.wrap(changes, "change_materializer", materializer_factory)

    def count_tokens(sample, tokenized):
        sample.counts["inputmin.tokens"] += len(tokenized)

    span(inputmin, "tokenize", "inputmin.tokenize", on_result=count_tokens)
    span(inputmin, "render", "inputmin.render")

    def count_files(sample, args, kwargs):
        tree = args[0] if args else kwargs["tree"]
        sample.counts["changes.files_written"] += len(tree)
        # Baselines are ASCII text, so characters equal bytes.
        sample.counts["changes.bytes_written"] += sum(len(v) for v in tree.values())

    span(changes, "load_tree", "changes.load_tree")
    span(changes, "split_unified_diff", "changes.split_unified_diff")
    span(changes, "apply_subset", "changes.apply_subset")
    span(changes, "write_tree", "changes.write_tree", on_call=count_files)

    def count_replay(sample, args, kwargs):
        config = args[2] if len(args) > 2 else kwargs["config"]
        sample.counts["toylang.events_replayed"] += config.bits.bit_count()
        if tracer.active("tracered.verify_n_minimal"):
            sample.counts["tracered.verify_replays"] += 1

    span(tracered, "trace_program", "toylang.trace_program")
    span(tracered, "replay_events", "toylang.replay_events", on_call=count_replay)
    span(tracered.ReplayOracle, "evaluate", "tracered.ReplayOracle.evaluate")
    span(tracered, "filter_output", "tracered.filter_output")
    span(tracered, "verify_n_minimal", "tracered.verify_n_minimal")
    span(toylang, "parse_program", "toylang.parse_program")
    span(toylang, "write_trace", "toylang.write_trace")
    span(tracered, "render_two_column", "tracered.render_two_column")

    span(report, "build_report", "report.build_report")
    span(report, "write_report", "report.write_report")
