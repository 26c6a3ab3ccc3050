"""changes-tree: ``ddmin minimize-changes`` through the in-process CLI.

Each test writes the whole patched tree into a fresh workspace before the
script runs, so materialization dominates and the spawn is a few ms.  Each
seeded instance (a text baseline and a diff of modifications, insertions,
deletions, added and deleted files) is reduced either with ``--groups
file`` or with ``--deps``, where feasibility rejects skip the spawn
entirely.

Binary files are left out: they abort ``load_tree`` today.
"""

from __future__ import annotations

import difflib
import random
import shlex
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from common import CliSlot, check_exit, run_script, write_script
from harness import Result

INSTANCES = 2       # reduced alternately with --groups file and with --deps
FILES = 12
TOUCHED = 6
CHANGES_PER_FILE = 2
ADDED = 3
DELETED = 2
PLANTED = 3
FILE_LINES = (80, 140)
GRID = 5            # changes sit on every 5th line, so at least 4 lines apart


@dataclass
class Change:
    file: str
    anchor: int                 # 1-based line in the baseline file
    kind: str                   # modify | insert | delete | add-file | delete-file
    old: tuple[str, ...]
    new: tuple[str, ...]
    id: int = -1                # position in (file, anchor) order


def _word(rng: random.Random) -> str:
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randint(3, 8)))


class Instance:
    """One seeded baseline tree, its diff and the planted cause."""

    def __init__(self, rng: random.Random, tag: str):
        # Paths sort in index order, so the touched files come first in
        # change order, then the deleted ones, then the added ones.  The
        # seed draws contents and line positions; the shape of the search,
        # and so the number of tests it takes, does not depend on it.
        self.files: dict[str, list[str]] = {}
        for i in range(FILES):
            path = f"pkg{i // 4:02d}/{tag}mod{i:03d}.txt"
            self.files[path] = [
                f"{tag}mod{i:03d} line {j:02d} {_word(rng)}"
                for j in range(1, rng.randint(*FILE_LINES) + 1)
            ]
        paths = sorted(self.files)
        changes: list[Change] = []
        for path in paths[:TOUCHED]:
            lines = self.files[path]
            anchors = rng.sample(range(3, len(lines) - 1, GRID), CHANGES_PER_FILE)
            for anchor in sorted(anchors):
                serial = len(changes)
                old = lines[anchor - 1]
                kind = ("modify", "insert", "delete")[serial % 3]
                if kind == "modify":
                    changes.append(Change(path, anchor, kind, (old,), (f"{old} edit{serial}",)))
                elif kind == "insert":
                    changes.append(Change(path, anchor, kind, (), (f"{tag}inserted{serial} {_word(rng)}",)))
                else:
                    changes.append(Change(path, anchor, kind, (old,), ()))
        for path in paths[TOUCHED:TOUCHED + DELETED]:
            changes.append(Change(path, 1, "delete-file", tuple(self.files[path]), ()))
        for k in range(ADDED):
            path = f"pkg99/{tag}new{k}.txt"
            new = tuple(f"{tag}new{k} line {j} {_word(rng)}" for j in range(1, 4))
            changes.append(Change(path, 1, "add-file", (), new))
        for i, ch in enumerate(changes):
            ch.id = i
        self.changes = changes

        # Planted cause: the modification or insertion at the centre of
        # each third of the candidates.  For --deps, each planted change
        # requires the change before it, which requires nothing; of the
        # other changes every third requires its predecessor.
        candidates = [ch.id for ch in changes
                      if ch.kind in ("modify", "insert") and ch.id > 0]
        self.planted = [candidates[(2 * k + 1) * len(candidates) // (2 * PLANTED)]
                        for k in range(PLANTED)]
        self.parents = {p - 1 for p in self.planted}
        if self.parents & set(self.planted):
            raise ValueError("planted changes must not be adjacent")
        self.deps = {p: p - 1 for p in self.planted}
        for i in range(3, len(changes), 3):
            if i not in self.deps and i not in self.parents:
                self.deps[i] = i - 1

        # Every changed line is unique, so a line of the output diff names
        # the change it belongs to.
        self.owner: dict[str, int] = {}
        for ch in changes:
            for text in ch.old + ch.new:
                self.owner[text] = ch.id

    def tree(self, included: set[int]) -> dict[str, list[str]]:
        """The baseline with the included changes applied, built here
        independently of the program under test."""
        tree = {path: list(lines) for path, lines in self.files.items()}
        for ch in sorted(self.changes, key=lambda c: (c.file, -c.anchor)):
            if ch.id not in included:
                continue
            if ch.kind == "add-file":
                tree[ch.file] = list(ch.new)
            elif ch.kind == "delete-file":
                del tree[ch.file]
            else:
                lines = tree[ch.file]
                lines[ch.anchor - 1:ch.anchor - 1 + len(ch.old)] = list(ch.new)
        return tree

    def diff_text(self) -> str:
        modified = self.tree({ch.id for ch in self.changes})
        out = []
        for path in sorted(set(self.files) | set(modified)):
            old = [line + "\n" for line in self.files.get(path, [])]
            new = [line + "\n" for line in modified.get(path, [])]
            out += difflib.unified_diff(
                old, new,
                fromfile=f"a/{path}" if path in self.files else "/dev/null",
                tofile=f"b/{path}" if path in modified else "/dev/null",
            )
        return "".join(out)

    def checks(self) -> list[str]:
        by_id = {ch.id: ch for ch in self.changes}
        return [
            f"grep -qxF {shlex.quote(by_id[p].new[0])} \"$1\"/{shlex.quote(by_id[p].file)}"
            for p in self.planted
        ]

    def closed(self, included: set[int]) -> bool:
        return all(self.deps[c] in included for c in included if c in self.deps)


def write_tree(tree: dict[str, list[str]], root: Path) -> None:
    for path, lines in tree.items():
        dest = root / path
        dest.parent.mkdir(parents=True, exist_ok=True)
        dest.write_text("".join(line + "\n" for line in lines), encoding="ascii")


class ChangesSlot(CliSlot):
    def __init__(self, mods, label, root: Path, instance: Instance, files: dict,
                 script: Path, counter: Path, mode: str):
        stem = root / label
        self.instance = instance
        self.script = script
        self.mode = mode
        self.output_path = stem.with_suffix(".min.diff")
        self.expected = set(instance.planted)
        argv = [
            "minimize-changes", "--baseline", str(files["baseline"]),
            "--diff", str(files["diff"]), "--test", str(script),
            "--workspace", str(stem.with_suffix(".ws")),
            "--output-diff", str(self.output_path),
            "--report", str(stem.with_suffix(".report.json")),
        ]
        if mode == "groups":
            argv += ["--groups", "file"]
        else:
            argv += ["--deps", str(files["deps"])]
            self.expected |= instance.parents
        super().__init__(mods, label, argv, workspace=stem.with_suffix(".ws"), counter=counter)

    def answer(self, exit_code: int):
        if exit_code != 0:
            return None, 0
        ids = set()
        for line in self.output_path.read_text(encoding="utf-8").splitlines():
            if not line.startswith(("+", "-")) or line.startswith(("+++ ", "--- ")):
                continue
            owner: Optional[int] = self.instance.owner.get(line[1:])
            if owner is None:
                return ("unknown line", line), 0
            ids.add(owner)
        return tuple(sorted(ids)), len(ids)

    def check(self, result: Result) -> list[str]:
        errors = check_exit(result)
        if errors:
            return errors
        if not isinstance(result.answer, tuple) or set(result.answer) != self.expected:
            return [f"final changes {result.answer}, expected {sorted(self.expected)}"]
        final = set(result.answer)
        check_dir = self.output_path.with_suffix(".check")
        try:
            if self._run(final, check_dir) != 0:
                errors.append("the final change set does not fail the script")
            for c in sorted(final):
                rest = final - {c}
                if self.mode == "deps" and not self.instance.closed(rest):
                    continue  # infeasible, so not a failing subset
                if self._run(rest, check_dir) == 0:
                    errors.append(f"not 1-minimal: change {c} can go")
                    break
        finally:
            shutil.rmtree(check_dir, ignore_errors=True)
        return errors

    def _run(self, included: set[int], check_dir: Path) -> int:
        shutil.rmtree(check_dir, ignore_errors=True)
        check_dir.mkdir()
        write_tree(self.instance.tree(included), check_dir)
        return run_script(self.script, check_dir)


class ChangesTree:
    name = "changes-tree"

    def generate(self, seed: int, root: Path, mods) -> list[ChangesSlot]:
        rng = random.Random(seed)
        counter = root / "spawns.count"
        counter.write_bytes(b"")
        slots = []
        for n in range(INSTANCES):
            instance = Instance(rng, tag=f"i{n}")
            files = {
                "baseline": root / f"instance{n}" / "baseline",
                "diff": root / f"instance{n}" / "changes.diff",
                "deps": root / f"instance{n}" / "deps.tsv",
            }
            write_tree(instance.files, files["baseline"])
            files["diff"].write_text(instance.diff_text(), encoding="ascii")
            files["deps"].write_text(
                "".join(f"{c}\t{p}\n" for c, p in sorted(instance.deps.items())),
                encoding="ascii",
            )
            script = write_script(root / f"instance{n}" / "check.sh", counter, instance.checks())
            mode = ("groups", "deps")[n % 2]
            slots.append(ChangesSlot(mods, f"instance{n}-{mode}", root, instance,
                                     files, script, counter, mode))
        return slots
