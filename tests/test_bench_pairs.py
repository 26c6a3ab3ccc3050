"""tools/bench_pairs.py on canned benchmark output: parsing, refusals and
the statistics of an entry.  No benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

SPEC = {"end_to_end": [
    {"name": "reduce_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "test_runs", "unit": "count", "better": "lower", "bound": 0.1},
]}
ENV = {"commit": "unknown (not a git checkout)", "cpu_count": 2,
       "machine": "x86_64 Linux", "nproc": 2, "python": "3.11.7"}


def output(reduce_s, test_runs=1775, digest="c3680ea0", correct=True):
    """The last lines of one ``perfbench/run.py --trace 0`` run."""
    detail = {"env": ENV, "fingerprint_digest": digest, "samples": 38,
              "tail_percentile": 73.68, "wrong_results": 0 if correct else 1}
    metrics = {"reduce_s": {"value": reduce_s, "unit": "s"},
               "test_runs": {"value": test_runs, "unit": "count"}}
    return "\n".join([
        "perfbench in-process seed=7 seconds=50.0 trace=0",
        "env: machine=x86_64 nproc=2",
        f"run-log fingerprint digest: {digest}",
        f"  reduce_s {reduce_s:16.6f} s",
        "detail: " + json.dumps(detail, sort_keys=True),
        json.dumps({"correct": correct, "attempted": 38, "failed": 0 if correct else 1,
                    "metrics": metrics}),
        "",
    ])


class TestParse:
    def test_reads_the_detail_and_the_last_line(self):
        detail, result = bench_pairs.parse_run(output(0.08))
        assert detail["fingerprint_digest"] == "c3680ea0" and detail["env"] == ENV
        assert result["correct"] is True
        assert result["metrics"]["reduce_s"]["value"] == 0.08

    @pytest.mark.parametrize("stdout, returncode, message", [
        (output(0.08, correct=False), 0, "pair 1 base: the benchmark reports correct=False"),
        (output(0.08).replace('"correct": true, ', ""), 0,
         "pair 1 base: the benchmark reports correct=None"),
        (output(0.08), 1, "pair 1 base: the benchmark exited 1"),
        ("Traceback (most recent call last):\n", 0, "no detail line in the benchmark output"),
    ], ids=["not-correct", "no-correct", "exit", "no-detail"])
    def test_refuses_a_run_that_is_not_correct(self, stdout, returncode, message):
        with pytest.raises(ValueError) as info:
            bench_pairs.checked(stdout, returncode, "pair 1 base")
        assert str(info.value) == message


def runs(base, change, base_digest="c3680ea0", change_digest="c3680ea0"):
    return [
        (bench_pairs.parse_run(output(b, digest=base_digest)),
         bench_pairs.parse_run(output(c, digest=change_digest)))
        for b, c in zip(base, change)
    ]


class TestEntry:
    def test_statistics_per_metric(self):
        base = [0.10, 0.12, 0.08, 0.11, 0.09]
        change = [0.09, 0.13, 0.07, 0.10, 0.09]
        entry = bench_pairs.make_entry(runs(base, change), SPEC, "a" * 40, "b" * 40, "in-process", 7, 50.0)
        assert (entry["base"], entry["change"], entry["aa"]) == ("a" * 40, "b" * 40, False)
        assert (entry["workload"], entry["seed"], entry["seconds"], entry["pairs"]) == ("in-process", 7, 50.0, 5)
        assert "commit" not in entry["env"] and entry["env"]["python"] == "3.11.7"
        reduce_s = entry["metrics"]["reduce_s"]
        assert reduce_s["base"]["samples"] == base and reduce_s["change"]["samples"] == change
        assert reduce_s["base"]["median"] == 0.10 and reduce_s["change"]["median"] == 0.09
        # The default (exclusive) quartiles of five samples: positions 1.5 and 4.5.
        assert reduce_s["base"]["q1"] == pytest.approx(0.085)
        assert reduce_s["base"]["q3"] == pytest.approx(0.115)
        # Three pairs won by the change, one by the base, one tie.
        assert (reduce_s["change_won"], reduce_s["base_won"]) == (3, 1)
        assert reduce_s["spread"] == pytest.approx(0.3)
        assert reduce_s["unresolved"] is True  # 30% apart, wider than the 25% bound
        test_runs = entry["metrics"]["test_runs"]
        assert (test_runs["change_won"], test_runs["base_won"]) == (0, 0)
        assert test_runs["spread"] == 0.0 and test_runs["unresolved"] is False
        assert entry["digests"] == {"base": "c3680ea0", "change": "c3680ea0", "differ": False}
        json.dumps(entry)  # the entry is plain JSON

    def test_an_aa_entry_of_one_pair(self):
        entry = bench_pairs.make_entry(runs([0.1], [0.2]), SPEC, "a" * 40, "a" * 40, "spawn", 7, 5.0)
        assert entry["aa"] is True and entry["pairs"] == 1
        reduce_s = entry["metrics"]["reduce_s"]
        assert reduce_s["base"]["q1"] == reduce_s["base"]["q3"] == 0.1
        assert (reduce_s["change_won"], reduce_s["base_won"]) == (0, 1)

    def test_digests(self):
        entry = bench_pairs.make_entry(
            runs([0.1, 0.1], [0.1, 0.1], change_digest="e2bb47eb"), SPEC, "a" * 40, "b" * 40, "in-process", 7, 5.0
        )
        assert entry["digests"] == {"base": "c3680ea0", "change": "e2bb47eb", "differ": True}
        mixed = runs([0.1], [0.1]) + runs([0.1], [0.1], change_digest="e2bb47eb")
        with pytest.raises(ValueError, match="runs give different fingerprint digests"):
            bench_pairs.make_entry(mixed, SPEC, "a" * 40, "b" * 40, "in-process", 7, 5.0)
