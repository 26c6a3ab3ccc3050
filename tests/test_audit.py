"""The run-log audit of ``support.audit_log`` flags a faulty engine.

Each test seeds one engine fault by monkeypatching ``core`` and runs the
engine under the session's audit hook (see ``conftest.py``) unwrapped, so
that the fault shows in the audit's findings instead of failing the run.
"""

import pytest

from deltadebug import Configuration, EngineOptions
from deltadebug import core
from deltadebug.core import _CHUNK, _COMPLEMENT, _LATE, SOURCE_EXACT_CACHE, SOURCE_ORACLE, TestRecord
from deltadebug.oracles import adversarial, conjunction, conjunction_spread
from support import AuditError, audit_result

RUNS = [
    (Configuration.full(8), conjunction(8, [2, 5]), EngineOptions()),
    (Configuration.full(24), adversarial(24), EngineOptions(monotone=True)),
    (Configuration.full(64), conjunction_spread(64, 3), EngineOptions(monotone=True)),
]


def findings():
    """The audit's findings on each run of ``RUNS``, by the engine that the
    session hook wraps."""
    engine = core.ddmin.__wrapped__
    return [audit_result(universe, options, engine(universe, oracle, options))
            for universe, oracle, options in RUNS]


def flagged(rule):
    """How many runs of ``RUNS`` break ``rule``."""
    return sum(any(rule in line for line in problems) for problems in findings())


def test_a_sound_engine_is_audited_clean():
    assert findings() == [[], [], []]


def test_the_exact_cache_off(monkeypatch):
    # A repeat is asked of the oracle again: each record made from the
    # exact cache is tagged as an oracle test.
    def uncached(config, granularity, outcome, source, duration):
        if source == SOURCE_EXACT_CACHE:
            source = SOURCE_ORACLE
        return TestRecord(config, granularity, outcome, source, duration)

    monkeypatch.setattr(core, "TestRecord", uncached)
    assert flagged("a repeat that is not an exact-cache record") == 3
    # The session hook raises on such a run.
    with pytest.raises(AuditError, match="a repeat that is not an exact-cache record"):
        core.ddmin(*RUNS[0])


def test_a_covered_chunk_asked(monkeypatch):
    # Each round asks every chunk, covered or not, and then its complements
    # as the engine would.  The cover arguments are passed through, so the
    # wrap needs no knowledge of their number.
    original = core._round

    def leaky(current, members, n, *cover_and_chunks):
        *cover, chunks = cover_and_chunks
        if chunks:
            uncovered = original(current, members, n, *([] for _ in cover), True)
            yield from (candidate for candidate in uncovered if candidate[1] is _CHUNK)
        yield from original(current, members, n, *cover, False)

    monkeypatch.setattr(core, "_round", leaky)
    assert flagged("lies inside an earlier PASS") == 3


def test_a_monotony_answer_outside_the_last_round(monkeypatch):
    # Every complement is tagged late, so under monotone each is answered
    # PASS by monotony, at any granularity.
    original = core._round

    def all_late(*args):
        for bits, kind, lo, hi in original(*args):
            yield bits, _LATE if kind is _COMPLEMENT else kind, lo, hi

    monkeypatch.setattr(core, "_round", all_late)
    assert flagged("a monotony answer that is not a late complement") == 2
