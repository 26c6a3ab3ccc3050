"""engine-synthetic: ``ddmin`` called directly on seeded draws of the
synthetic oracle families.  No process or file layer runs, so engine self
time is nearly all of the wall time.

Wide reductions (conjunctions over 1e4-scale universes) stress member
extraction and partitioning; deep ones (adversarial and random-monotone
at 96-256 deltas, with and without the monotony shortcut) stress the exact
cache and the monotony scan.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from harness import Result

# (family, universe size, conjunction size or None, monotone)
SLOTS = (
    ("conjunction", 6000, 8, False),
    ("conjunction", 9000, 8, False),
    ("conjunction", 12000, 4, False),
    ("adversarial", 96, None, False),
    ("adversarial", 96, None, True),
    ("adversarial", 128, None, False),
    ("adversarial", 128, None, True),
    ("random-monotone", 128, None, False),
    ("random-monotone", 128, None, True),
    ("random-monotone", 256, None, False),
    ("random-monotone", 256, None, True),
)
JITTER = 3  # positions a conjunction member may sit away from its spot


def _fails(bits: int, generators: list[int]) -> bool:
    return any(bits & g == g for g in generators)


class EngineSlot:
    def __init__(self, mods, label, size, oracle, generators, expected, monotone):
        self.mods = mods
        self.label = label
        self.size = size
        self.oracle = oracle
        self.generators = generators  # failure-inducing sets, as bitmaps
        self.expected = expected      # acceptable final bitmaps
        self.monotone = monotone

    def prepare(self) -> None:
        self.counting = self.mods.oracles.CountingOracle(self.oracle)

    def call(self):
        core = self.mods.core
        return core.ddmin(
            core.Configuration.full(self.size),
            self.counting,
            core.EngineOptions(monotone=self.monotone),
        )

    def collect(self, result, capture) -> Result:
        return Result(
            exit_code=0,
            size=len(result.final),
            tests=self.counting.calls,
            answer=result.final.bits,
            results=list(capture.results),
        )

    def check(self, result: Result) -> list[str]:
        bits = result.answer
        errors = []
        if bits not in self.expected:
            members = [m for m in range(self.size) if bits >> m & 1]
            errors.append(f"final set {members[:12]} ({len(members)} deltas) is not a planted cause")
        if not _fails(bits, self.generators):
            errors.append("final set does not fail")
        for m in range(self.size):
            if bits >> m & 1 and _fails(bits & ~(1 << m), self.generators):
                errors.append(f"not 1-minimal: removing {m} still fails")
                break
        return errors


class EngineSynthetic:
    name = "engine-synthetic"

    def generate(self, seed: int, root: Path, mods) -> list[EngineSlot]:
        rng = random.Random(seed)
        oracles = mods.oracles
        slots, manifest = [], []
        for family, size, k, monotone in SLOTS:
            if family == "conjunction":
                # Members near evenly spaced spots: the cost of a wide run
                # grows with the position of its highest member, so free
                # positions would make the seed, not the program, set it.
                members = [(2 * i + 1) * size // (2 * k) + rng.randint(-JITTER, JITTER)
                           for i in range(k)]
                oracle = oracles.conjunction(size, members)
                label = f"conjunction:{k}@{size}"
                draw = {"members": members}
                generators = [sum(1 << m for m in members)]
            elif family == "adversarial":
                oracle = oracles.adversarial(size)
                label = f"adversarial@{size}"
                draw = {}
                generators = [sum(1 << m for m in range(1, size, 2))]
            else:
                # The family draws its generator sets itself from this seed.
                draw_seed = rng.randrange(2 ** 31)
                oracle = oracles.random_monotone(size, draw_seed)
                label = f"random-monotone@{size}"
                draw = {"seed": draw_seed}
                generators = list(oracle.generators)
            if monotone:
                label += "+monotone"
            # A 1-minimal failing set of a set family is one of its
            # generators that contains no other generator.
            expected = {
                g for g in generators
                if not any(h != g and h & g == h for h in generators)
            }
            slots.append(EngineSlot(mods, label, size, oracle, generators, expected, monotone))
            manifest.append({"label": label, "generators": [bin(g) for g in generators], **draw})
        (root / "engine-inputs.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
        return slots
