"""Run-log fingerprints of fixed runs, pinned against accidental drift.

Each digest is the SHA-256 of ``repr(RunLog.fingerprint())``: every test
the engine issued, in order, with its configuration bitmap, granularity,
outcome and provenance.  A change to partitioning, the caches or replay
that keeps results but reorders, adds or drops a test changes a digest.
"""

import hashlib

import pytest

from deltadebug import Configuration, EngineOptions, ddmin
from deltadebug.changes import (
    ChangeSet, minimize_changes, parse_dependencies, split_unified_diff,
)
from deltadebug.oracles import adversarial, conjunction_spread
from deltadebug.proc import CommandOracleSpec
from deltadebug.toylang import parse_program
from deltadebug.tracered import OutputExpectation, reduce_trace
from support import random_table


def digest(log) -> str:
    return hashlib.sha256(repr(log.fingerprint()).encode()).hexdigest()


ENGINE_RUNS = {
    "conjunction-9000": (
        lambda: conjunction_spread(9000, 8), 9000, False,
        "00a5597ed589c539e234f26287be0416e6a8f087a68386a4fb65297f37d4e355",
    ),
    "adversarial-128": (
        lambda: adversarial(128), 128, False,
        "6d39bc34f479d761dee6bb78bf4d0d94d16ac7cd359617b515da7732bda83c00",
    ),
    "adversarial-128-monotone": (
        lambda: adversarial(128), 128, True,
        "27d2bc2c9a5526868bcc8b339e5f5459be0df9d2d86f3bbf286215d671ef4f6c",
    ),
    "random-table-12-seed-9": (
        lambda: random_table(12, seed=9, fail_p=0.1, unresolved_p=0.3), 12, False,
        "8329240ef535e3c8470fdeee819cb24b880ef6802b777e64a4e9211255443725",
    ),
    "random-table-13-seed-17": (
        lambda: random_table(13, seed=17, fail_p=0.1, unresolved_p=0.3), 13, False,
        "14d0e22a0bae3b6be3030bce14b6f51adde15b9700f812959f374e1e4e727fb2",
    ),
}


@pytest.mark.parametrize("name", sorted(ENGINE_RUNS))
def test_engine_run_log_is_unchanged(name):
    make_oracle, n, monotone, expected = ENGINE_RUNS[name]
    result = ddmin(
        Configuration.full(n), make_oracle(), EngineOptions(monotone=monotone)
    )
    assert digest(result.log) == expected


# The slice pass tests the data slice once and keeps it, so its log is the
# same for all three; the trace pass then reduces the slice's events.
SLICE_PASS = "e1407aef5dd15ee4473006bccf7b574ca753e3ec2a9a8cdeb80293c99dfb94ef"
DESK_SLICES = {
    "sum-and-mul": (
        "sum = 15\nmul = 0\n", None,
        "75e900cad6dc3119a7602fde1335efeb25d4a85e3d9d02177517c819d5e8a898",
    ),
    "sum-only": (
        "sum = 15\n", ["sum"],
        "2918e3c7f267177f6c2863848cd4111c8a2b3ab8e26c984eaece9f63ed5283ea",
    ),
    "mul-only": (
        "mul = 0\n", ["mul"],
        "efd3d5a46e98284f60884e22981066861385b0a14c3c2f1f7b49bf795f94e761",
    ),
}


@pytest.mark.parametrize("name", sorted(DESK_SLICES))
def test_desk_slice_run_log_is_unchanged(name, sample_source):
    expected_text, prefixes, expected = DESK_SLICES[name]
    reduction = reduce_trace(
        parse_program(sample_source),
        [0, 5],
        OutputExpectation.derive(expected_text, prefixes),
    )
    assert [(p.label, digest(p.result.log)) for p in reduction.passes] == [
        ("slice", SLICE_PASS), ("trace", expected),
    ]


def test_minimize_changes_run_logs_are_unchanged(two_cause_changes, workspace_root):
    # A group pass by file, then a pass over the surviving changes, both
    # rejecting subsets that are not closed under the dependencies.
    baseline, diff, deps, test = two_cause_changes
    changeset = ChangeSet(tuple(split_unified_diff(diff)), parse_dependencies(deps))
    spec = CommandOracleSpec(argv=[test], workspace_root=workspace_root)
    outcome = minimize_changes(baseline, changeset, spec, groups="file")
    assert outcome.passes[-1].kept == (1, 2, 4, 5, 10)
    assert [(p.label, digest(p.result.log)) for p in outcome.passes] == [
        ("groups", "fe1ce501fa310c3502ff91c24f282ad463e349aac4ef5507aa686562301b8711"),
        ("changes", "5b19e7c2991ef0a08cb02775b5ed9ad93aa93c5cf8c1125a7de0058cb380fe86"),
    ]
