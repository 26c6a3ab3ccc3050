"""Run-log fingerprints of fixed runs, pinned against accidental drift.

Each digest is the SHA-256 of ``repr(RunLog.fingerprint())``: every test
the engine issued, in order, with its configuration bitmap, granularity,
outcome and provenance.  A change to partitioning, the caches or replay
that keeps results but reorders, adds or drops a test changes a digest.
Beside each digest are the run's oracle and axiom test counts and its
result, so that a re-pin shows what moved with it and what did not.
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


def counts(log) -> tuple[int, int]:
    """The log's oracle and axiom test counts."""
    oracle_tests, _, axiom_tests = log.test_counts()
    return oracle_tests, axiom_tests


def pinned(result) -> tuple:
    """A ddmin result's test counts, final members, verdict and digest."""
    return counts(result.log), result.final.members, result.verified_1_minimal, digest(result.log)


# Each run: its oracle, universe size and monotone flag, then its (oracle,
# axiom) test counts, final members, verified_1_minimal and digest.
ENGINE_RUNS = {
    "conjunction-9000": (
        lambda: conjunction_spread(9000, 8), 9000, False,
        (141, 2), tuple(range(1000, 9000, 1000)), True,
        "90c1d6e95ce82b7aa656dba3c84196f196b659ae31ef1c15186ebd3f9b39e92a",
    ),
    "adversarial-128": (
        lambda: adversarial(128), 128, False,
        (254, 2), tuple(range(1, 128, 2)), True,
        "ea11032b6440ff259e161f6a2eefc77714eb00e307c99b49e0b5dd5a98ce78f3",
    ),
    "adversarial-128-monotone": (
        lambda: adversarial(128), 128, True,
        (190, 2), tuple(range(1, 128, 2)), None,
        "3435c9184c46a38aa780cbbcabe34266e0ccd9385ff9f4afe46cfc2134677003",
    ),
    "random-table-12-seed-9": (
        lambda: random_table(12, seed=9, fail_p=0.1, unresolved_p=0.3), 12, False,
        (28, 2), (0, 4, 6, 8, 10, 11), True,
        "6dcbacac51818daa8b41b97f83a41ce32d107dbeb6589573712e05c1f219e95a",
    ),
    "random-table-13-seed-17": (
        lambda: random_table(13, seed=17, fail_p=0.1, unresolved_p=0.3), 13, False,
        (27, 2), (0, 1, 2, 4, 6, 10, 11), True,
        "589e8a80fe3fadc6c2766fb5a203440f5a9306a60e0badfaecc83289971e828d",
    ),
}


@pytest.mark.parametrize("name", sorted(ENGINE_RUNS))
def test_engine_run_log_is_unchanged(name):
    make_oracle, n, monotone, *expected = ENGINE_RUNS[name]
    result = ddmin(
        Configuration.full(n), make_oracle(), EngineOptions(monotone=monotone)
    )
    assert pinned(result) == tuple(expected)


# The slice pass tests the data slice once and keeps it, so its log is the
# same for all three; the trace pass then scans the slice's events.  Each
# run: its expected output and filter, then the trace pass's (oracle, axiom)
# test counts, kept trace events and digest.
SLICE_PASS = (1, 2), "e1407aef5dd15ee4473006bccf7b574ca753e3ec2a9a8cdeb80293c99dfb94ef"
DESK_SLICES = {
    "sum-and-mul": (
        "sum = 15\nmul = 0\n", None,
        (43, 0), (7, 10, 12, 15, 16, 17, 20, 22, 25, 27, 30, 35, 36),
        "c0a469bd34ee1e1b3e219cb820b4d50da0fe34a7eb77d473a29ebaa08547e684",
    ),
    "sum-only": (
        "sum = 15\n", ["sum"],
        (27, 0), (7, 10, 12, 15, 17, 20, 22, 25, 27, 30, 35),
        "4ae3043ec555e10004631ffe2bfc2fcb6f9a16cc4bba4c895f355f7aea9cf804",
    ),
    "mul-only": (
        "mul = 0\n", ["mul"],
        (10, 0), (31, 36),
        "20423da7ebb689c320385342e48762b5d2e8bdb843073d1896314d6e0b9b9357",
    ),
}


@pytest.mark.parametrize("name", sorted(DESK_SLICES))
def test_desk_slice_run_log_is_unchanged(name, sample_source):
    expected_text, prefixes, tests, kept, expected = DESK_SLICES[name]
    reduction = reduce_trace(
        parse_program(sample_source),
        [0, 5],
        OutputExpectation.derive(expected_text, prefixes),
    )
    assert reduction.passes[-1].kept == kept
    assert all(p.result.verified_1_minimal for p in reduction.passes)
    assert [(p.label, counts(p.result.log), digest(p.result.log)) for p in reduction.passes] == [
        ("slice", *SLICE_PASS), ("trace", tests, expected),
    ]


def test_minimize_changes_run_logs_are_unchanged(two_cause_changes, workspace_root):
    # A group pass by file, then a pass over the surviving changes, both
    # rejecting subsets that are not closed under the dependencies.
    baseline, diff, deps, test = two_cause_changes
    changeset = ChangeSet(tuple(split_unified_diff(diff)), parse_dependencies(deps))
    spec = CommandOracleSpec(argv=[test], workspace_root=workspace_root)
    outcome = minimize_changes(baseline, changeset, spec, groups="file")
    assert outcome.passes[-1].kept == (1, 2, 4, 5, 10)
    assert all(p.result.verified_1_minimal for p in outcome.passes)
    assert [(p.label, counts(p.result.log), digest(p.result.log)) for p in outcome.passes] == [
        ("groups", (1, 2), "fe1ce501fa310c3502ff91c24f282ad463e349aac4ef5507aa686562301b8711"),
        ("changes", (12, 0), "26148d2209c2beb8b2520a39110ad924510387ec0d8535064bea011df40d4f6c"),
    ]
