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
        "90c1d6e95ce82b7aa656dba3c84196f196b659ae31ef1c15186ebd3f9b39e92a",
    ),
    "adversarial-128": (
        lambda: adversarial(128), 128, False,
        "1b25064b710092643a7047ae5bf3e9b6cae254864c47552634438684d03ffd6e",
    ),
    "adversarial-128-monotone": (
        lambda: adversarial(128), 128, True,
        "2d98795e0d75c19417c9d26b462ce7ab1d02a2b61593e219904efbcf05d63fbd",
    ),
    "random-table-12-seed-9": (
        lambda: random_table(12, seed=9, fail_p=0.1, unresolved_p=0.3), 12, False,
        "6dcbacac51818daa8b41b97f83a41ce32d107dbeb6589573712e05c1f219e95a",
    ),
    "random-table-13-seed-17": (
        lambda: random_table(13, seed=17, fail_p=0.1, unresolved_p=0.3), 13, False,
        "3f82a550a203ba6362499c2303435bc6cd52df1f3ae9511d3fd16a262023945e",
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
        "a889f5d1d2ab1c32b0ce1f55f3c7595c7277b9aeb0d3091b23f59116b1e1d672",
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
        ("changes", "ee8e85d3b0528d2e98101b9caeabb4e292baf21f8b22e53da6a975767eb9d88e"),
    ]
