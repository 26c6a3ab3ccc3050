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
        "d77a67c53e6d389f78f8c948f937da97f2f2135b80556b2711a187f49a94dfd0",
    ),
    "adversarial-128": (
        lambda: adversarial(128), 128, False,
        "f75e501c7b263bc06ac0b88939ffd1f5e0e528d6b2df9c316f31a1a3b116f895",
    ),
    "adversarial-128-monotone": (
        lambda: adversarial(128), 128, True,
        "ad10d9a27cad2116b2058c8fba89aeac17357d1638d1d0ac64f51b226eb152ad",
    ),
    "random-table-12-seed-9": (
        lambda: random_table(12, seed=9, fail_p=0.1, unresolved_p=0.3), 12, False,
        "b0fe932c693209dc5680c29129757b25378d881bbe189d250571d319ec9bab65",
    ),
    "random-table-13-seed-17": (
        lambda: random_table(13, seed=17, fail_p=0.1, unresolved_p=0.3), 13, False,
        "a23fa417c6a1a14f6ed9408452bed28ac37cefbaaa91cc08c7e59652ff8947a5",
    ),
}


@pytest.mark.parametrize("name", sorted(ENGINE_RUNS))
def test_engine_run_log_is_unchanged(name):
    make_oracle, n, monotone, expected = ENGINE_RUNS[name]
    result = ddmin(
        Configuration.full(n), make_oracle(), EngineOptions(monotone=monotone)
    )
    assert digest(result.log) == expected


DESK_SLICES = {
    "sum-and-mul": (
        "sum = 15\nmul = 0\n", None,
        "effef206af2e8f6a760ea1434687521414df557496dfd2cbb5407e71e35d9e23",
    ),
    "sum-only": (
        "sum = 15\n", ["sum"],
        "6806b13d78a5e06220acf626f64bd2cad2f5e27b2b1c005b2f8eb4838cad00bd",
    ),
    "mul-only": (
        "mul = 0\n", ["mul"],
        "30782c1b111e41e5c6cb912bf855ad72caa48dc64c0c22af94300e60d442237b",
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
    assert digest(reduction.passes[-1].result.log) == expected


def test_minimize_changes_run_logs_are_unchanged(two_cause_changes, workspace_root):
    # A group pass by file, then a pass over the surviving changes, both
    # rejecting subsets that are not closed under the dependencies.
    baseline, diff, deps, test = two_cause_changes
    changeset = ChangeSet(tuple(split_unified_diff(diff)), parse_dependencies(deps))
    spec = CommandOracleSpec(argv=[test], workspace_root=workspace_root)
    outcome = minimize_changes(baseline, changeset, spec, groups="file")
    assert outcome.passes[-1].kept == (1, 2, 4, 5, 10)
    assert [(p.label, digest(p.result.log)) for p in outcome.passes] == [
        ("groups", "cca833a27602a3aa0dae297a639ea2db5112d2b4e515ffaed34eeab76bb53a1e"),
        ("changes", "d23978bd8bbd0c8707db50645630b990f4d3966cfe72317d99a64ac4e5e302f4"),
    ]
