"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they pass.
"""

import dataclasses
import difflib
import random
import time

import pytest

from deltadebug import (
    Configuration,
    EngineOptions,
    Outcome,
    PassOracle,
    ddmin,
)
from deltadebug.bench import parse_sizes, quadratic_bound, run_bench
from deltadebug.changes import (
    ChangeSet,
    apply_subset,
    split_unified_diff,
)
from deltadebug.core import SOURCE_ORACLE
from deltadebug.inputmin import render, tokenize
from deltadebug.oracles import random_monotone, single_cause
from deltadebug.proc import (
    CommandOracle,
    CommandOracleSpec,
    evaluate_command,
    map_exit_status,
)
from deltadebug.report import write_report
from deltadebug.toylang import parse_program, trace_program
from deltadebug.tracered import OutputExpectation, reduce_trace
from support import Report, passes_of, random_table, read_report, verify_n_minimal


def verdict(criterion: int, text: str) -> None:
    print(f"\n[criterion {criterion}] PASS - {text}")


def suite_oracles():
    """The randomized 1-minimality suite: 100 monotone up-set oracles and
    100 arbitrary failure families over up to 12 deltas, axioms forced."""
    rng = random.Random(20260811)
    for i in range(200):
        n = rng.randint(2, 12)
        if i % 2 == 0:
            yield n, random_monotone(n, seed=1000 + i)
        else:
            yield n, random_table(n, seed=2000 + i)


@pytest.fixture(scope="module")
def suite_results():
    results = []
    started = time.perf_counter()
    for n, oracle in suite_oracles():
        results.append((n, oracle, ddmin(Configuration.full(n), oracle)))
    return results, time.perf_counter() - started


def test_criterion_1_one_minimality_suite(suite_results):
    results, elapsed = suite_results
    assert len(results) == 200
    for n, oracle, result in results:
        assert oracle.evaluate(result.final) == Outcome.FAIL
        assert verify_n_minimal(result.final, oracle, 1)
    assert elapsed < 10.0
    verdict(1, f"200/200 randomized oracles yield failing 1-minimal results "
               f"({elapsed:.2f}s)")


def test_criterion_2_worst_case_bound(suite_results):
    results, _ = suite_results
    for n, _, result in results:
        assert result.log.test_counts()[0] <= quadratic_bound(n)
    lines, violations = run_bench("adversarial", parse_sizes("4..64"))
    assert violations == []
    # The CSV fields n, tests_oracle, tests_cached and bound_quadratic.
    rows = [[int(field) for field in line.split(",")[:4]] for line in lines]
    for n, tests_oracle, _, bound in rows:
        assert tests_oracle <= bound
    n, tests_oracle, _, bound = max(rows, key=lambda r: r[1] / r[3])
    verdict(2, f"no run exceeded n^2+3n (closest: n={n}, "
               f"{tests_oracle}/{bound} tests)")


def test_criterion_3_best_case_scaling():
    result = ddmin(Configuration.full(1024), single_cause(1024))
    count = result.log.test_counts()[0]
    assert count <= 22
    verdict(3, f"single-cause oracle at n=1024 took {count} <= 22 oracle tests")


def test_criterion_4_monotony_optimization():
    seeds = (1, 2, 3, 5, 7, 11, 42)
    # (a) With the cache on, no subset of a previously passed configuration
    # reaches the underlying oracle.
    for seed in seeds:
        result = ddmin(
            Configuration.full(32), random_monotone(32, seed),
            EngineOptions(monotone=True),
        )
        passed: list[int] = []
        for rec in result.log:
            if rec.source == SOURCE_ORACLE:
                assert not any(rec.config.bits & p == rec.config.bits for p in passed)
            if rec.outcome == Outcome.PASS:
                passed.append(rec.config.bits)
    # (b) Underlying-call growth per size doubling stays within 2.5x.
    ratios = []
    for seed in seeds:
        counts = {}
        for n in (8, 16, 32, 64):
            result = ddmin(Configuration.full(n), random_monotone(n, seed),
                           EngineOptions(monotone=True))
            counts[n] = result.log.test_counts()[0]
        for n in (8, 16, 32):
            assert counts[2 * n] <= 2.5 * counts[n], (seed, n, counts)
            ratios.append(counts[2 * n] / counts[n])
    # (c) The final configuration is identical with the cache on and off.
    for seed in seeds:
        for n in (16, 32):
            on = ddmin(Configuration.full(n), random_monotone(n, seed),
                       EngineOptions(monotone=True))
            off = ddmin(Configuration.full(n), random_monotone(n, seed))
            assert on.final == off.final
    verdict(4, f"monotony: no elidable test ran, growth ratio max "
               f"{max(ratios):.2f} <= 2.5, finals unchanged")


def test_criterion_5_dependency_degeneration():
    n = 64
    dependencies = {i: frozenset([i - 1]) for i in range(1, n)}
    oracle = PassOracle(single_cause(n, 32), n, [(i,) for i in range(n)], dependencies)
    result = ddmin(Configuration.full(n), oracle)
    count = result.log.test_counts()[0]
    assert count <= 2 * 6 + 2  # 2*ceil(log2 64) + 2 = 14
    assert result.final == Configuration(n, range(33))  # prefix through the cause
    rejected = sum(1 for r in result.log if r.source == "feasibility-reject")
    assert rejected > 0
    verdict(5, f"total-order chain at n=64: {count} <= 14 underlying tests "
               f"({rejected} infeasible configurations rejected unrun)")


def test_criterion_6_trace_reduction_desk_scale(sample_source):
    started = time.perf_counter()
    program = parse_program(sample_source)
    trace, out = trace_program(program, [0, 5])
    assert len(trace) == 37
    assert "sum = 15" in out.stdout
    assert "mul = 0" in out.stdout

    sum_core = {"8_8", "6_11", "8_13", "6_16", "8_18", "6_21", "8_23",
                "6_26", "8_28", "6_31"}

    both = reduce_trace(program, [0, 5],
                        OutputExpectation.derive("sum = 15\nmul = 0\n"))
    labels = set(both.slice_labels)
    assert len(labels) == 13
    assert sum_core <= labels
    assert {"10_36", "11_37"} <= labels
    assert sum(1 for l in labels if l.startswith("7_")) == 1
    assert both.passes[-1].result.verified_1_minimal is True

    sum_only = reduce_trace(program, [0, 5],
                            OutputExpectation.derive("sum = 15\n", ["sum"]))
    assert set(sum_only.slice_labels) == sum_core | {"10_36"}
    assert sum_only.passes[-1].result.verified_1_minimal is True

    mul_only = reduce_trace(program, [0, 5],
                            OutputExpectation.derive("mul = 0\n", ["mul"]))
    assert len(mul_only.slice_events) == 2
    assert "11_37" in mul_only.slice_labels
    assert sum(1 for l in mul_only.slice_labels if l.startswith("7_")) == 1
    assert mul_only.passes[-1].result.verified_1_minimal is True

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    verdict(6, f"37-event trace reduced to 13/11/2-event verified slices "
               f"({elapsed:.2f}s)")


def test_criterion_7_round_trip_suites(tmp_path):
    # Tokenize/render identity: 1000 random inputs per granularity.
    rng = random.Random(515151)
    for _ in range(1000):
        data = bytes(rng.randrange(256) for _ in range(rng.randrange(200)))
        for granularity in ("line", "byte"):
            t = tokenize(data, granularity)
            assert render(t, Configuration.full(len(t))) == data
    alphabet = "ab\n\t \"\\éxyz0123日"
    for _ in range(1000):
        data = "".join(
            rng.choice(alphabet) for _ in range(rng.randrange(150))
        ).encode("utf-8")
        t = tokenize(data, "char")
        assert render(t, Configuration.full(len(t))) == data

    # Diff split/apply: 100 synthetic tree fixtures round-trip exactly.
    for case in range(100):
        files = [f"d{rng.randint(0, 2)}/f{i}.txt" for i in range(rng.randint(1, 3))]
        baseline = {
            f: "".join(f"{f} line {i} {rng.randint(0, 9)}\n"
                       for i in range(rng.randint(1, 50)))
            for f in files
        }
        modified = {}
        for f, content in baseline.items():
            out = []
            for line in content.splitlines(keepends=True):
                roll = rng.random()
                if roll < 0.12:
                    continue
                if roll < 0.28:
                    out.append(f"replaced {rng.randint(0, 999)}\n")
                elif roll < 0.38:
                    out.append(line)
                    out.append(f"inserted {rng.randint(0, 999)}\n")
                else:
                    out.append(line)
            modified[f] = "".join(out)
        diff = "".join(
            chunk
            for f in sorted(baseline)
            for chunk in difflib.unified_diff(
                baseline[f].splitlines(keepends=True),
                modified[f].splitlines(keepends=True),
                fromfile=f"a/{f}", tofile=f"b/{f}",
            )
        )
        changes = split_unified_diff(diff)
        changeset = ChangeSet(tuple(changes))
        applied = apply_subset(baseline, changeset, Configuration.full(len(changes)))
        assert applied == modified, f"fixture {case}"

    # Report serialization round-trip.
    result = ddmin(Configuration.full(10), random_table(10, seed=9))
    result = dataclasses.replace(result, verified_1_minimal=False)
    write_report(passes_of(result), tmp_path / "r.json")
    assert read_report(tmp_path / "r.json") == Report.of(result)

    verdict(7, "tokenize/render (3x1000), diff split/apply (100), and "
               "report round-trip all exact")


def test_criterion_8_exit_code_protocol(make_script, workspace_root):
    table = [
        (0, Outcome.FAIL),
        (1, Outcome.PASS),
        (124, Outcome.PASS),
        (125, Outcome.UNRESOLVED),
        (126, Outcome.PASS),
        (127, Outcome.PASS),
        (128, Outcome.UNRESOLVED),
        (-11, Outcome.UNRESOLVED),
        (None, Outcome.UNRESOLVED),
    ]
    for status, expected in table:
        assert map_exit_status(status) == expected

    config = Configuration(1, [0])

    def run_script(body, timeout_ms=60_000):
        spec = CommandOracleSpec(
            argv=[make_script(body)],
            workspace_root=workspace_root,
            timeout_ms=timeout_ms,
        )
        with CommandOracle(spec) as oracle:
            oracle.materializer = lambda c, w: []
            return evaluate_command(oracle, config)

    for code in (0, 1, 124, 125, 126, 127, 128):
        outcome, evidence = run_script(f"exit {code}")
        assert evidence.returncode == code
        assert outcome == map_exit_status(code)

    outcome, evidence = run_script("kill -SEGV $$")
    assert evidence.returncode == -11
    assert outcome == Outcome.UNRESOLVED

    outcome, evidence = run_script("sleep 30", timeout_ms=250)
    assert evidence.returncode is None
    assert outcome == Outcome.UNRESOLVED

    verdict(8, "exit statuses 0/1/124/125/126/127/128, SIGSEGV, and timeout "
               "all map as specified")
