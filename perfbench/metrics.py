"""End-to-end and per-layer metrics from the samples of a run.

Per slot, the sample with the median-low wall time represents the slot;
summing representatives gives the time of one pass over the workload.
Layer metrics of a traced run are summed over the same representatives,
so the span self times plus the unaccounted remainder add up to the traced
``reduce_s``.
"""

from __future__ import annotations

import resource
import statistics

from harness import representatives, tail
from tracing import ROOT


def end_to_end(passes, setup_s: float) -> tuple[dict, dict]:
    reps = representatives(passes, traced=False)
    walls = [s.wall_s for traced, samples in passes if not traced for s in samples]
    percentile, tail_s = tail(walls)
    values = {
        "setup_s": setup_s,
        "reduce_s": sum(s.wall_s for s in reps.values()),
        "reduction_ms_p50": statistics.median(walls) * 1000.0,
        "reduction_ms_tail": tail_s * 1000.0,
        "test_runs": sum(s.result.tests for s in reps.values() if s.result),
        "result_size": sum(s.result.size for s in reps.values() if s.result),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"tail_percentile": round(percentile, 2), "samples": len(walls)}
    return values, notes


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q / 100.0 * len(ordered)) - 1))]


def per_layer(passes, tracer) -> tuple[dict, list[tuple[str, float]]]:
    """Per-layer metrics and the self-time accounting of one traced pass."""
    traced = representatives(passes, traced=True)
    untraced = representatives(passes, traced=False)
    samples = [s for s in traced.values() if s.trace is not None]

    def total(name):
        return sum(s.trace.total_s.get(name, 0.0) for s in samples)

    def calls(name):
        return sum(s.trace.calls.get(name, 0) for s in samples)

    def count(name):
        return sum(s.trace.counts.get(name, 0) for s in samples)

    def logs(source):
        return sum(s.counts.get(source, 0) for s in samples)

    oracle_s = total("core.oracle")
    core_self = total("core.ddmin") - oracle_s
    records = logs("records")
    cached = logs("exact-cache") + logs("monotony")
    replay_s = total("toylang.replay_events")
    events = count("toylang.events_replayed")
    evaluate_s = total("proc.evaluate_command")
    materialize_s = total("proc.materialize")
    test_ms = [d for s in samples for d in s.trace.durations_ms.get("proc.evaluate_command", [])]
    post_s = sum(
        s.trace.wall_s - (s.trace.marks["frontend_end"] - s.trace.marks["start"])
        for s in samples if "frontend_end" in s.trace.marks
    )
    verify_spawns = sum(
        s.trace.counts.get("proc.commands", 0) - s.trace.counts.get("proc.commands_at_frontend_end", 0)
        for s in samples if "frontend_end" in s.trace.marks
    )
    traced_reduce = sum(s.wall_s for s in traced.values())
    untraced_reduce = sum(s.wall_s for s in untraced.values())

    values = {
        "core.self_s": core_self,
        "core.self_us_per_record": core_self / records * 1e6 if records else 0.0,
        "core.partition_s": total("core.partition"),
        "core.partition_calls": calls("core.partition"),
        "core.cache_s": sum(s.log_seconds for s in samples) - oracle_s,
        "core.records": records,
        "core.oracle_tests": logs("oracle"),
        "core.cached_tests": cached,
        "core.monotony_hits": logs("monotony"),
        "core.axiom_tests": logs("axiom"),
        "core.feasibility_rejects": logs("feasibility-reject"),
        "core.cache_hit_ratio": cached / records if records else 0.0,
        "oracles.evaluate_s": total("oracles.evaluate"),
        "proc.commands": count("proc.commands"),
        "proc.evaluate_s": evaluate_s,
        "proc.materialize_s": materialize_s,
        "proc.spawn_wait_cleanup_s": evaluate_s - materialize_s,
        "proc.test_ms_p50": _percentile(test_ms, 50),
        "proc.test_ms_p99": _percentile(test_ms, 99),
        "proc.unresolved": count("proc.unresolved"),
        "proc.leftover_workspaces": sum(s.result.leftover_workspaces for s in samples if s.result),
        "inputmin.tokenize_s": total("inputmin.tokenize"),
        "inputmin.render_s": total("inputmin.render"),
        "inputmin.passes": count("inputmin.ddmin_calls"),
        "inputmin.tokens": count("inputmin.tokens"),
        "cli.post_s": post_s,
        "cli.verify_spawns": verify_spawns,
        "changes.load_tree_s": total("changes.load_tree"),
        "changes.split_s": total("changes.split_unified_diff"),
        "changes.apply_subset_s": total("changes.apply_subset"),
        "changes.write_tree_s": total("changes.write_tree"),
        "changes.files_written": count("changes.files_written"),
        "changes.bytes_written": count("changes.bytes_written"),
        "toylang.trace_s": total("toylang.trace_program"),
        "toylang.replay_calls": calls("toylang.replay_events"),
        "toylang.replay_s": replay_s,
        "toylang.events_replayed": events,
        "toylang.replay_us_per_event": replay_s / events * 1e6 if events else 0.0,
        "tracered.oracle_s": total("tracered.ReplayOracle.evaluate"),
        "tracered.filter_s": total("tracered.filter_output"),
        "tracered.verify_s": total("tracered.verify_n_minimal"),
        "tracered.verify_replays": count("tracered.verify_replays"),
        "report.write_s": total("report.build_report") + total("report.write_report"),
        "trace.reduce_s": traced_reduce,
        "trace.untraced_reduce_s": untraced_reduce,
        "trace.overhead_share": traced_reduce / untraced_reduce - 1.0 if untraced_reduce else 0.0,
        "trace.unaccounted_s": sum(s.trace.self_s.get(ROOT, 0.0) for s in samples),
    }

    selfs: dict[str, float] = {}
    for s in samples:
        for name, seconds in s.trace.self_s.items():
            selfs[name] = selfs.get(name, 0.0) + seconds
    accounting = sorted(selfs.items(), key=lambda item: -item[1])
    return values, accounting
