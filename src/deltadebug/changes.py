"""Failure-inducing change-set minimization over unified diffs.

A unified diff against a baseline tree is split into atomic changes:
within each hunk, maximal runs of changed lines separated by at least two
unchanged lines become separate changes (a single unchanged line glues its
neighbors together and travels with them).  Arbitrary subsets of changes
can then be applied to the baseline; a context mismatch, newlines
included, is a conflict, which the oracle adapter reports as UNRESOLVED.

Changes can be grouped by file, directory, or a caller-supplied key map,
and a dependency relation ("change i requires change j") lets infeasible
subsets be rejected before any process is spawned.
"""

from __future__ import annotations

import graphlib
import io
import posixpath
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Mapping, Optional, Sequence, Union

from .core import AxiomViolation, Configuration, EngineOptions, Pass, PassOracle, run_passes
from .proc import CommandOracle, MaterializeConflict

FileTree = dict[str, str]


class DiffParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ChangeConflict(MaterializeConflict):
    """A change's old lines do not match the tree it is applied to."""


@dataclass(frozen=True)
class AtomicChange:
    """One contiguous edit: replace ``old_lines`` at ``anchor`` with
    ``new_lines``.

    ``anchor`` is the 1-based line number of the first old line in the
    original file; for pure insertions it names the line before which the
    new lines go (len(original)+1 appends at the end).  Each line ends in
    ``\n``, except a file's last line that lacks one.
    """

    file: str
    anchor: int
    old_lines: tuple[str, ...]
    new_lines: tuple[str, ...]


@dataclass
class ChangeSet:
    changes: tuple[AtomicChange, ...]
    # child change id -> ids it requires
    dependencies: dict[int, frozenset[int]] = field(default_factory=dict)

    def __post_init__(self):
        # Stacked change sets may touch the same anchor repeatedly (later
        # changes apply on top of earlier ones), so only sortedness is
        # required here; diff-derived changes are checked strictly by the
        # parser.
        _check_ordering(self.changes, strict=False)
        for child, parents in self.dependencies.items():
            for i in (child, *parents):
                if not 0 <= i < len(self.changes):
                    raise ValueError(
                        f"dependency names change {i}, but the diff has "
                        f"{len(self.changes)} changes"
                    )
        _check_acyclic(self.dependencies)

    def __len__(self) -> int:
        return len(self.changes)


def _check_ordering(changes: Sequence[AtomicChange], strict: bool = True) -> None:
    last_end: dict[str, int] = {}
    last_anchor: dict[str, int] = {}
    for ch in changes:
        start = ch.anchor
        if strict and start <= last_end.get(ch.file, 0):
            raise ValueError(
                f"changes in {ch.file} overlap or are out of order near line {start}"
            )
        if not strict and start < last_anchor.get(ch.file, 0):
            raise ValueError(
                f"changes in {ch.file} are out of anchor order near line {start}"
            )
        # An insertion occupies no old lines but still orders by anchor.
        last_end[ch.file] = start + max(len(ch.old_lines), 1) - 1
        last_anchor[ch.file] = start


def _check_acyclic(dependencies: Mapping[int, frozenset[int]]) -> None:
    try:
        graphlib.TopologicalSorter(dependencies).prepare()
    except graphlib.CycleError as exc:
        # graphlib lists each node before one that requires it; reversed,
        # each change comes before one that it requires.
        cycle = exc.args[1][::-1]
        raise ValueError(f"dependency cycle through change {cycle[0]}: {cycle}") from None


# --- tree helpers -----------------------------------------------------------

# Files are read and written as UTF-8 bytes, without newline translation,
# so a tree keeps its CRLF or lone CR line endings.

def load_tree(root: Union[str, Path]) -> FileTree:
    root = Path(root)
    if not root.is_dir():
        raise ValueError(f"{root}: not a directory")
    tree: FileTree = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            rel = path.relative_to(root).as_posix()
            try:
                tree[rel] = path.read_bytes().decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{rel}: {exc}") from None
    return tree


def write_tree(tree: FileTree, root: Union[str, Path]) -> None:
    root = Path(root)
    for rel, content in tree.items():
        dest = root / rel
        dest.parent.mkdir(parents=True, exist_ok=True)
        dest.write_bytes(content.encode("utf-8"))


# --- unified diff parsing ---------------------------------------------------

_HUNK_RE = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@")
_NO_NEWLINE = "\\ No newline at end of file\n"
_SKIP_PREFIXES = ("diff ", "index ", "new file", "deleted file", "old mode", "new mode")
# Git header lines of changes that hunks do not carry: a pure rename or copy
# has no hunk, and a binary file's content is not in the diff.  Skipping one
# would drop its change without a word.
_UNSUPPORTED_PREFIXES = (
    "similarity index", "rename from", "rename to", "copy from", "copy to", "Binary files",
)


# A path in git's C-style quotes, and each piece of what they hold: an
# escape or a run of plain characters.
_QUOTED_PATH = re.compile(r'"((?:[^"\\]|\\.)*)"')
_QUOTED_PIECE = re.compile(r"\\([0-3][0-7]{2}|.)|([^\\]+)")
_PATH_ESCAPES = dict(zip('abtnvfr"\\', b'\a\b\t\n\v\f\r"\\'))


def _unquote_path(quoted: str, lineno: int) -> str:
    """A path in quotes, as git writes one that holds a byte >= 0x80, a
    control character, ``"`` or ``\\``.  ``\\`` and three octal digits is
    a byte, as are the C escapes ``\\a \\b \\t \\n \\v \\f \\r \\" \\\\``;
    the bytes must spell UTF-8 and hold no NUL, which no file name holds."""
    match = _QUOTED_PATH.fullmatch(quoted)
    if match is None:
        raise DiffParseError(f"malformed quoted path {quoted}", lineno)
    data = bytearray()
    for escape, plain in _QUOTED_PIECE.findall(match[1]):
        if plain:
            data += plain.encode("utf-8")
        elif escape in _PATH_ESCAPES:
            data.append(_PATH_ESCAPES[escape])
        elif len(escape) == 3:
            data.append(int(escape, 8))
        else:
            raise DiffParseError(f"unknown escape \\{escape} in quoted path {quoted}", lineno)
    if 0 in data:
        raise DiffParseError(f"quoted path {quoted} holds a NUL byte", lineno)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        raise DiffParseError(f"quoted path {quoted} is not UTF-8", lineno) from None


# What git quotes in a path, byte >= 0x80 aside: a control character, ``"``
# and ``\\``.  ``_header_path`` writes the C escapes it can, octal otherwise.
_QUOTED_CHAR = re.compile(r'[\x00-\x1f"\\\x7f]')
_CHAR_ESCAPES = {chr(byte): "\\" + letter for letter, byte in _PATH_ESCAPES.items()}


def _header_path(side: str, name: str) -> str:
    """``side`` (``a`` or ``b``) and the file ``name`` as a header writes
    them, so that ``_strip_diff_path`` reads ``name`` back: in git's quotes
    if the name holds a control character, ``"`` or ``\\``, or starts or
    ends with whitespace, which a header reader strips.  Other characters
    stay as they are, bytes >= 0x80 too, which git would write in octal."""
    path = f"{side}/{name}"
    if not (_QUOTED_CHAR.search(name) or name[:1].isspace() or name[-1:].isspace()):
        return path
    escaped = _QUOTED_CHAR.sub(lambda m: _CHAR_ESCAPES.get(m[0], f"\\{ord(m[0]):03o}"), path)
    return f'"{escaped}"'


def _strip_diff_path(raw: str, lineno: int) -> str:
    """A file header's path, unquoted if git quoted it, its ``a/`` or ``b/``
    prefix stripped; one that could leave the test's tree, absolute or with
    a ``..`` component, is an error, and so is one that names no file:
    empty, ending in ``/`` or ``.``.  ``/dev/null`` stands for no file."""
    path = raw.split("\t")[0].strip()
    if path.startswith('"'):
        path = _unquote_path(path, lineno)
    elif path == "/dev/null":
        return path
    if path.startswith(("a/", "b/")):
        path = path[2:]
    parts = path.split("/")
    if path.startswith("/") or ".." in parts:
        raise DiffParseError(f"path {path!r} leaves the tree", lineno)
    if parts[-1] in ("", "."):
        raise DiffParseError(f"path {path!r} names no file", lineno)
    return path


def split_unified_diff(diff_text: str) -> list[AtomicChange]:
    """Parse a unified diff into atomic changes.

    Each maximal run of changed lines separated from the next by two or
    more unchanged lines becomes one change; a separating run of exactly
    one unchanged line is folded into a single change (it appears in both
    the old and the new lines).

    Git's ``diff``, ``index``, new and deleted file, and mode header lines
    are read past.  A ``similarity index``, ``rename``, ``copy`` or
    ``Binary files`` line is a ``DiffParseError`` that names it: no hunk
    carries its change.
    """
    lines = diff_text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    changes: list[AtomicChange] = []
    current_file: Optional[str] = None
    old_path: Optional[str] = None
    i = 0
    n = len(lines)
    while i < n:
        line = lines[i]
        lineno = i + 1
        if line.startswith("--- "):
            old_path = _strip_diff_path(line[4:], lineno)
            i += 1
            continue
        if line.startswith("+++ "):
            new_path = _strip_diff_path(line[4:], lineno)
            current_file = new_path if new_path != "/dev/null" else old_path
            i += 1
            continue
        if line.startswith("@@"):
            match = _HUNK_RE.match(line)
            if match is None:
                raise DiffParseError(f"malformed hunk header {line!r}", lineno)
            if current_file is None:
                raise DiffParseError("hunk before any file header", lineno)
            old_start = int(match.group(1))
            old_count = int(match.group(2) or "1")
            new_count = int(match.group(4) or "1")
            # For an empty old range the header names the line before the
            # insertion point, so the first affected line is one further on.
            old_ln = old_start if old_count > 0 else old_start + 1
            i += 1
            # Rows are [kind, line, old_line]; a '+' row's old_line is the
            # next original line (its insertion point).
            rows: list[list] = []
            seen_old = seen_new = 0
            while i < n:
                body = lines[i]
                done = seen_old >= old_count and seen_new >= new_count
                if body.startswith("\\"):
                    # A newline marker strips the newline of the row before
                    # it: any number of times inside the counted body, once
                    # after it.
                    if not rows:
                        raise DiffParseError("newline marker before any hunk line", i + 1)
                    rows[-1][1] = rows[-1][1].removesuffix("\n")
                    i += 1
                    if done:
                        break
                    continue
                if done:
                    break
                if body in ("", "\r"):  # an empty context line, its space stripped
                    body = " " + body
                kind = body[:1]
                if kind not in " -+":
                    raise DiffParseError(f"unexpected line in hunk: {body!r}", i + 1)
                rows.append([kind, body[1:] + "\n", old_ln])
                if kind != "+":
                    old_ln += 1
                    seen_old += 1
                if kind != "-":
                    seen_new += 1
                i += 1
            if seen_old != old_count or seen_new != new_count:
                raise DiffParseError(
                    f"hunk is shorter than its header promises "
                    f"(-{old_count}/+{new_count})",
                    lineno,
                )
            changes.extend(_split_hunk(current_file, rows))
            continue
        if line == "" or line.startswith(_SKIP_PREFIXES):
            i += 1
            continue
        if line.startswith(_UNSUPPORTED_PREFIXES):
            raise DiffParseError(
                f"unsupported git header {line!r}: renames, copies and binary files"
                " cannot be applied",
                lineno,
            )
        raise DiffParseError(f"unexpected text outside any hunk: {line!r}", lineno)

    changes.sort(key=lambda ch: (ch.file, ch.anchor))
    _check_ordering(changes)
    return changes


def _split_hunk(file: str, rows: list[list]) -> list[AtomicChange]:
    runs: list[list[list]] = []  # the rows of each change
    held: list[list] = []  # unchanged rows since the last changed one
    for row in rows:
        if row[0] == " ":
            held.append(row)
            continue
        if not runs or len(held) > 1:
            runs.append([])
        else:
            runs[-1] += held  # nothing, or one line both sides keep
        runs[-1].append(row)
        held = []
    return [
        AtomicChange(
            file=file,
            anchor=run[0][2],
            old_lines=tuple(line for kind, line, _ in run if kind != "+"),
            new_lines=tuple(line for kind, line, _ in run if kind != "-"),
        )
        for run in runs
    ]


def render_unified_diff(changes: Sequence[AtomicChange]) -> str:
    """Render atomic changes as a zero-context unified diff."""
    out: list[str] = []
    per_file: dict[str, list[AtomicChange]] = {}
    for ch in changes:
        per_file.setdefault(ch.file, []).append(ch)
    for file in sorted(per_file):
        out.append(f"--- {_header_path('a', file)}\n+++ {_header_path('b', file)}\n")
        offset = 0
        for ch in sorted(per_file[file], key=lambda c: c.anchor):
            old_len = len(ch.old_lines)
            new_len = len(ch.new_lines)
            old_start = ch.anchor if old_len else ch.anchor - 1
            new_start = ch.anchor + offset if new_len else ch.anchor + offset - 1
            out.append(f"@@ -{old_start},{old_len} +{new_start},{new_len} @@\n")
            for sign, lines in (("-", ch.old_lines), ("+", ch.new_lines)):
                for line in lines:
                    out.append(sign + line)
                    if not line.endswith("\n"):
                        out.append("\n" + _NO_NEWLINE)
            offset += new_len - old_len
    return "".join(out)


# --- applying subsets -------------------------------------------------------

def apply_subset(
    baseline: FileTree, changeset: ChangeSet, config: Configuration
) -> FileTree:
    """Apply the included changes to the baseline tree.

    Changes are applied per file in ascending anchor order with cumulative
    line-offset adjustment; the old lines, newlines included, must match the
    current content at the adjusted anchor, and only a file's last line may
    end up without a newline, otherwise ``ChangeConflict`` is raised.
    """
    if config.universe_size != len(changeset.changes):
        raise ValueError(
            f"configuration is over {config.universe_size} deltas, "
            f"change set has {len(changeset.changes)}"
        )
    per_file: dict[str, list[tuple[int, AtomicChange]]] = {}
    for i in config.members:
        ch = changeset.changes[i]
        per_file.setdefault(ch.file, []).append((i, ch))

    tree = dict(baseline)
    for file, pairs in per_file.items():
        # Split at "\n" only, each line keeping it.
        lines = io.StringIO(tree.get(file, ""), newline="\n").readlines()
        offset = 0
        for i, ch in pairs:  # already ascending by anchor
            pos = ch.anchor - 1 + offset
            end = pos + len(ch.old_lines)
            if pos < 0 or end > len(lines):
                raise ChangeConflict(
                    f"change {i} at {file}:{ch.anchor}: range falls outside the file"
                )
            if lines[pos:end] != list(ch.old_lines):
                raise ChangeConflict(
                    f"change {i} at {file}:{ch.anchor}: context mismatch"
                )
            lines[pos:end] = ch.new_lines
            offset += len(ch.new_lines) - len(ch.old_lines)
        text = "".join(lines)
        # Each line holds one newline, at its end; only the last may lack it.
        if text.count("\n") < len(lines) - (not text.endswith("\n")):
            raise ChangeConflict(f"{file}: a line without a newline does not end the file")
        tree[file] = text
    return tree


def change_materializer(
    baseline: FileTree, changeset: ChangeSet
) -> Callable[[Configuration, Path], list[str]]:
    """Materializer writing the patched tree into the test's directory; the
    test command receives that directory as its trailing argument."""

    def materialize(config: Configuration, directory: Path) -> list[str]:
        write_tree(apply_subset(baseline, changeset, config), directory)
        return [str(directory)]

    return materialize


# --- grouping ---------------------------------------------------------------

GroupKey = Union[str, Mapping[int, str]]


def group_deltas(changeset: ChangeSet, key: GroupKey) -> dict[str, list[int]]:
    """Fold changes into one delta per distinct key value: each key maps to
    the ids of its changes, keys in order of first appearance.

    ``key`` is "file", "directory", or a mapping from change id to an
    arbitrary key string, which must name each change of the set.
    """
    n = len(changeset)
    if key == "file":
        keys = [ch.file for ch in changeset.changes]
    elif key == "directory":
        keys = [posixpath.dirname(ch.file) or "." for ch in changeset.changes]
    elif isinstance(key, Mapping):
        wrong = min(set(key) ^ set(range(n)), default=None)  # the lowest id out of place
        if wrong in key:
            raise ValueError(f"group map names change {wrong}, but the diff has {n} changes")
        if wrong is not None:
            raise ValueError(f"group map is missing change id {wrong}")
        keys = [key[i] for i in range(n)]
    else:
        raise ValueError(f"unknown grouping key {key!r}")
    groups: dict[str, list[int]] = {}
    for i, k in enumerate(keys):
        groups.setdefault(k, []).append(i)
    return groups


# --- TSV inputs ---------------------------------------------------------------

def _read_tsv(text: str, columns: str, ids: int, id_error: str) -> Iterator[tuple[int, list]]:
    """Each `A<TAB>B` line as (line number, fields), the first ``ids``
    fields read as decimal integers; blank and `#` lines are skipped."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields: list = line.split("\t")
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected {columns}, got {line!r}")
        try:
            fields[:ids] = map(int, fields[:ids])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {id_error}") from exc
        yield lineno, fields


def parse_dependencies(text: str) -> dict[int, frozenset[int]]:
    """Parse `CHILD<TAB>PARENT` lines (decimal change ids) into edges."""
    edges: dict[int, set[int]] = {}
    rows = _read_tsv(text, "CHILD<TAB>PARENT", 2, "ids must be decimal integers")
    for _, (child, parent) in rows:
        edges.setdefault(child, set()).add(parent)
    return {child: frozenset(parents) for child, parents in edges.items()}


def parse_group_map(text: str) -> dict[int, str]:
    """Parse `CHANGE-ID<TAB>KEY` lines, each id once, into a grouping map."""
    mapping: dict[int, str] = {}
    rows = _read_tsv(text, "CHANGE-ID<TAB>KEY", 1, "change id must be a decimal integer")
    for lineno, (change, key) in rows:
        if change in mapping:
            raise ValueError(f"line {lineno}: change id {change} is listed twice")
        mapping[change] = key
    return mapping


# --- driver -------------------------------------------------------------------

def minimize_changes(
    baseline: FileTree,
    changeset: ChangeSet,
    command: CommandOracle,
    groups: Optional[GroupKey] = None,
    options: Optional[EngineOptions] = None,
) -> list[Pass]:
    """Shrink the change set to a 1-minimal failure-inducing subset.

    Each pass's ids are change ids of ``changeset``: the result is the
    changes at the last pass's ``kept``.

    With ``groups``, a first pass minimizes over group deltas and a second
    pass then minimizes over the winning groups' member changes, taking both
    axiom answers from the group pass.  Infeasible subsets (per the
    dependency relation) are rejected before any process is spawned.  Both
    passes are one run of ``command`` and share its workspace, which is
    removed when the run ends, also on an exception; a kept failing
    workspace is ``command.kept_workspace``.  An axiom violation says so
    when the full diff does not apply to the baseline.
    """
    n = len(changeset)

    def step(label: str, ids: Sequence[Sequence[int]]):
        return label, ids, PassOracle(command, n, ids, changeset.dependencies)

    steps = [lambda kept: step("changes", [(i,) for i in kept])]
    if groups is not None:
        grouped = list(group_deltas(changeset, groups).values())
        steps.insert(0, lambda kept: step("groups", grouped))
    try:
        with command:
            command.materializer = change_materializer(baseline, changeset)
            return run_passes(range(n), steps, options)
    except AxiomViolation as exc:
        try:
            apply_subset(baseline, changeset, Configuration.full(n))
        except ChangeConflict as conflict:
            raise AxiomViolation(
                f"{exc}; the full diff does not apply: {conflict}", exc.log
            ) from exc
        raise
