import difflib
import hashlib
import random

import pytest

from deltadebug import Configuration, Outcome, PassOracle, ddmin
from deltadebug.changes import (
    AtomicChange,
    ChangeConflict,
    ChangeSet,
    DiffParseError,
    apply_subset,
    change_materializer,
    group_deltas,
    minimize_changes,
    parse_dependencies,
    parse_group_map,
    render_unified_diff,
    split_unified_diff,
)
from deltadebug.core import SOURCE_EXACT_CACHE, SOURCE_FEASIBILITY, SOURCE_ORACLE
from deltadebug.oracles import CountingOracle
from deltadebug.proc import CommandOracle, CommandOracleSpec, evaluate_command


def make_diff(baseline: dict[str, str], modified: dict[str, str], context: int = 3) -> str:
    chunks = []
    for path in sorted(set(baseline) | set(modified)):
        a = baseline.get(path, "").splitlines(keepends=True)
        b = modified.get(path, "").splitlines(keepends=True)
        chunks.extend(
            difflib.unified_diff(a, b, fromfile="a/" + path, tofile="b/" + path, n=context)
        )
    return "".join(chunks)


def changeset_for(baseline, modified, dependencies=None, context=3):
    changes = split_unified_diff(make_diff(baseline, modified, context))
    return ChangeSet(changes=tuple(changes), dependencies=dependencies or {})


def numbered(path: str, count: int) -> str:
    return "".join(f"{path} {i}\n" for i in range(1, count + 1))


def one_line_changes(count: int) -> tuple[AtomicChange, ...]:
    """``count`` one-line edits of one file, ten lines apart."""
    return tuple(
        AtomicChange(file="f", anchor=i * 10 + 1, old_lines=(f"l{i}",), new_lines=(f"L{i}",))
        for i in range(count)
    )


def raw_oracle(oracle, n, dependencies):
    """A PassOracle whose delta i is raw change i."""
    return PassOracle(oracle, n, [(i,) for i in range(n)], dependencies)


class TestSplitUnifiedDiff:
    def test_three_line_gap_splits_one_hunk_into_two_changes(self):
        baseline = {"f": "a\nb\nc\nd\ne\nf\ng\n"}
        modified = {"f": "A\nb\nc\nd\nE\nf\ng\n"}  # edits at lines 1 and 5
        changes = split_unified_diff(make_diff(baseline, modified))
        assert len(changes) == 2
        assert changes[0].anchor == 1
        assert changes[0].old_lines == ("a\n",)
        assert changes[0].new_lines == ("A\n",)
        assert changes[1].anchor == 5

    def test_single_line_gap_stays_one_change(self):
        baseline = {"f": "a\nb\nc\nd\ne\n"}
        modified = {"f": "A\nb\nC\nd\ne\n"}  # edits at lines 1 and 3, gap of 1
        changes = split_unified_diff(make_diff(baseline, modified))
        assert len(changes) == 1
        assert changes[0].old_lines == ("a\n", "b\n", "c\n")
        assert changes[0].new_lines == ("A\n", "b\n", "C\n")

    def test_two_line_gap_splits(self):
        baseline = {"f": "a\nb\nc\nd\ne\n"}
        modified = {"f": "A\nb\nc\nD\ne\n"}  # gap of exactly 2
        changes = split_unified_diff(make_diff(baseline, modified))
        assert len(changes) == 2

    def test_empty_diff_yields_no_changes(self):
        assert split_unified_diff("") == []

    def test_git_headers_and_blank_lines_between_files_are_skipped(self):
        plain = make_diff({"x": "a\nb\n", "y": "c\n"}, {"x": "a\nB\n", "y": "C\n"})
        x_part, y_part = plain.split("--- a/y")
        git = (
            "diff --git a/x b/x\nindex 5626abf..f719efd 100644\n" + x_part
            + "\ndiff --git a/y b/y\nnew file mode 100644\n--- a/y" + y_part
        )
        assert split_unified_diff(git) == split_unified_diff(plain)
        assert len(split_unified_diff(plain)) == 2

    @pytest.mark.parametrize("header", [
        "similarity index 100%",
        "rename from x",
        "rename to y",
        "copy from x",
        "copy to y",
        "Binary files a/x and b/x differ",
    ])
    def test_git_headers_of_changes_without_hunks_are_errors(self, header):
        # A pure rename or copy has no hunk and a binary file no text, so
        # skipping the line would drop the change without a word.
        plain = make_diff({"x": "a\n"}, {"x": "b\n"})
        with pytest.raises(DiffParseError) as info:
            split_unified_diff(f"diff --git a/x b/y\n{header}\n" + plain)
        assert info.value.line == 2
        assert str(info.value).startswith(f"line 2: unsupported git header {header!r}")

    def test_pure_insertion_anchor(self):
        baseline = {"f": "a\nb\n"}
        modified = {"f": "a\nX\nb\n"}
        changes = split_unified_diff(make_diff(baseline, modified))
        assert len(changes) == 1
        assert changes[0].old_lines == ()
        assert changes[0].new_lines == ("X\n",)
        assert changes[0].anchor == 2  # inserted before original line 2

    def test_zero_context_diffs(self):
        baseline = {"f": numbered("f", 9)}
        modified = {"f": baseline["f"].replace("f 3\n", "f 3x\n").replace("f 7\n", "f 7x\n")}
        changes = split_unified_diff(make_diff(baseline, modified, context=0))
        assert len(changes) == 2
        assert apply_subset(baseline, ChangeSet(tuple(changes)),
                            Configuration.full(2)) == modified

    def test_malformed_hunk_header_reports_line(self):
        with pytest.raises(DiffParseError) as info:
            split_unified_diff("--- a/f\n+++ b/f\n@@ broken @@\n")
        assert info.value.line == 3

    @pytest.mark.parametrize("header, line, path", [
        ("--- /dev/null\n+++ /abs/file\n", 2, "/abs/file"),
        ("--- a/f\n+++ b/../../../x\n", 2, "../../../x"),
        ("--- a/f\n+++ b//etc/x\n", 2, "/etc/x"),
        ("--- a/d/../../f\n+++ /dev/null\n", 1, "d/../../f"),
        ('--- "a/\\056\\056/f"\n+++ /dev/null\n', 1, "../f"),
    ])
    def test_a_path_that_leaves_the_tree_is_rejected(self, header, line, path):
        with pytest.raises(DiffParseError) as info:
            split_unified_diff(header + "@@ -0,0 +1 @@\n+x\n")
        assert info.value.line == line
        assert str(info.value) == f"line {line}: path {path!r} leaves the tree"

    @pytest.mark.parametrize("header, line, path", [
        ("--- /dev/null\n+++ b/\n", 2, ""),
        ("--- /dev/null\n+++ b/sub/\n", 2, "sub/"),
        ("--- /dev/null\n+++ b/.\n", 2, "."),
        ("--- /dev/null\n+++ b/sub/.\n", 2, "sub/."),
        ("--- a/\n+++ /dev/null\n", 1, ""),
    ])
    def test_a_path_that_names_no_file_is_rejected(self, header, line, path):
        with pytest.raises(DiffParseError) as info:
            split_unified_diff(header + "@@ -0,0 +1 @@\n+x\n")
        assert str(info.value) == f"line {line}: path {path!r} names no file"

    @pytest.mark.parametrize("header, path", [
        ('"b/f\\303\\266o.txt"', "föo.txt"),
        ('"b/say \\"hi\\"\\tnow"', 'say "hi"\tnow'),
        ('"b/\\101\\\\z"', "A\\z"),
        ('"b/\\a\\b\\v\\f\\r\\n"', "\a\b\v\f\r\n"),
        ('"b/f\\303\\266o.txt"\t2000-01-01', "föo.txt"),
    ], ids=["non-ascii", "quote-and-tab", "octal-and-backslash", "c-escapes", "then-a-tab"])
    def test_git_quoted_paths_are_unquoted(self, header, path):
        # git quotes a path that holds a byte >= 0x80, a control character,
        # a quote or a backslash, and writes each such byte as an escape.
        diff = f"--- /dev/null\n+++ {header}\n@@ -0,0 +1 @@\n+x\n"
        assert [ch.file for ch in split_unified_diff(diff)] == [path]

    @pytest.mark.parametrize("header, message", [
        ('"b/x', 'malformed quoted path "b/x'),
        ('"b/x\\"', 'malformed quoted path "b/x\\"'),
        ('"b/x" y', 'malformed quoted path "b/x" y'),
        ('"b/\\q"', 'unknown escape \\q in quoted path "b/\\q"'),
        ('"b/\\12"', 'unknown escape \\1 in quoted path "b/\\12"'),
        ('"b/\\377"', 'quoted path "b/\\377" is not UTF-8'),
        ('"b/a\\000b"', 'quoted path "b/a\\000b" holds a NUL byte'),
    ], ids=["unterminated", "escaped-close", "text-after", "unknown-escape", "short-octal",
            "not-utf8", "nul"])
    def test_a_malformed_quoted_path_is_an_error_that_names_its_line(self, header, message):
        with pytest.raises(DiffParseError) as info:
            split_unified_diff(f"--- /dev/null\n+++ {header}\n@@ -0,0 +1 @@\n+x\n")
        assert str(info.value) == f"line 2: {message}"

    def test_dotted_names_inside_the_tree_are_paths(self):
        diff = "--- /dev/null\n+++ b/d/..x/.f\n@@ -0,0 +1 @@\n+x\n"
        assert [ch.file for ch in split_unified_diff(diff)] == ["d/..x/.f"]

    def test_truncated_hunk_rejected(self):
        with pytest.raises(DiffParseError):
            split_unified_diff("--- a/f\n+++ b/f\n@@ -1,3 +1,3 @@\n a\n")

    def test_crlf_empty_context_line(self):
        # Where a tool strips the space of an empty context line, a CRLF
        # diff leaves just its CR: still an empty context line.
        diff = "--- a/f\r\n+++ b/f\r\n@@ -1,3 +1,3 @@\r\n-x\r\n+y\r\n\r\n z\r\n"
        changes = split_unified_diff(diff)
        assert [(c.anchor, c.old_lines, c.new_lines) for c in changes] == [
            (1, ("x\r\n",), ("y\r\n",))
        ]
        # As the one line between two edits, it travels with them.
        diff = "--- a/f\r\n+++ b/f\r\n@@ -1,3 +1,3 @@\r\n-x\r\n+X\r\n\r\n-z\r\n+Z\r\n"
        changes = split_unified_diff(diff)
        assert [(c.old_lines, c.new_lines) for c in changes] == [
            (("x\r\n", "\r\n", "z\r\n"), ("X\r\n", "\r\n", "Z\r\n"))
        ]
        applied = apply_subset(
            {"f": "x\r\n\r\nz\r\n"}, ChangeSet(tuple(changes)), Configuration.full(1)
        )
        assert applied == {"f": "X\r\n\r\nZ\r\n"}

    def test_no_newline_marker_round_trip(self):
        diff = (
            "--- a/f\n"
            "+++ b/f\n"
            "@@ -1,1 +1,1 @@\n"
            "-old\n"
            "\\ No newline at end of file\n"
            "+new\n"
            "\\ No newline at end of file\n"
        )
        changes = split_unified_diff(diff)
        assert (changes[0].old_lines, changes[0].new_lines) == (("old",), ("new",))
        applied = apply_subset(
            {"f": "old"}, ChangeSet(tuple(changes)),
            Configuration.full(1),
        )
        assert applied == {"f": "new"}


NO_NEWLINE = "\\ No newline at end of file\n"


def seeded_files(rng: random.Random) -> tuple[dict[str, str], str]:
    """One or two random baseline files and a well-formed difflib diff
    against them, with context 0-4 and a missing final newline on either
    side."""
    baseline = {}
    chunks = []
    for f in range(rng.randint(1, 2)):
        path = f"d{rng.randint(0, 1)}/f{f}"
        old = [f"{rng.choice('abcde')}\n" for _ in range(rng.randint(0, 14))]
        new = []
        for line in old:
            roll = rng.random()
            if roll < 0.2:
                continue
            new.append(f"{rng.choice('vwxyz')}\n" if roll < 0.4 else line)
            if rng.random() < 0.1:
                new.append(f"{rng.choice('vwxyz')}\n")
        for side in (old, new):
            if side and rng.random() < 0.2:
                side[-1] = side[-1][:-1]
        baseline[path] = "".join(old)
        rows = difflib.unified_diff(
            old, new, fromfile="a/" + path, tofile="b/" + path, n=rng.randint(0, 4)
        )
        # difflib leaves a last line without its newline; diff(1) adds a marker.
        chunks.extend(row if row.endswith("\n") else row + "\n" + NO_NEWLINE for row in rows)
    return baseline, "".join(chunks)


def seeded_diff(rng: random.Random) -> str:
    """A ``seeded_files`` diff, about one in ten corrupted by an extra
    newline marker, a dropped line or a junk first character."""
    lines = seeded_files(rng)[1].splitlines(keepends=True)
    if lines and rng.random() < 0.1:
        at = rng.randrange(len(lines))
        kind = rng.randrange(3)
        if kind == 0:
            lines.insert(at, NO_NEWLINE)
        elif kind == 1:
            del lines[at]
        else:
            lines[at] = rng.choice("?x#*") + lines[at][1:]
    return "".join(lines)


def flagged(lines: tuple[str, ...]) -> tuple[tuple[str, ...], bool]:
    """The lines without their newlines, and whether any lacked one."""
    return tuple(line.removesuffix("\n") for line in lines), not all(
        line.endswith("\n") for line in lines
    )


class TestSplitterPinned:
    # SHA-256 over 2400 seeded diffs of each diff's change fields or error,
    # each side's lines as ``flagged`` gives them.
    DIGEST = "0a7e1d2ef519de8f705a0f08c51de5c4154674c324058cc6ace4055b41f096b7"

    def test_seeded_diffs_split_as_pinned(self):
        rng = random.Random(8)
        h = hashlib.sha256()
        for _ in range(2400):
            try:
                got = []
                for c in split_unified_diff(seeded_diff(rng)):
                    (old, old_flag), (new, new_flag) = flagged(c.old_lines), flagged(c.new_lines)
                    got.append((c.file, c.anchor, old, new, old_flag, new_flag))
            except (DiffParseError, ValueError) as exc:
                got = f"{type(exc).__name__}: {exc}"
            h.update(repr(got).encode() + b"\n")
        assert h.hexdigest() == self.DIGEST


class TestApplyPinned:
    # SHA-256 over 2400 seeded well-formed diffs of each diff's rendering
    # and the trees of 12 seeded subsets of its changes.
    DIGEST = "e28cf507106d9e83540b89666a1b790d0ba38429a0d9b953407accbeaff245ec"

    def test_seeded_subsets_apply_as_pinned(self):
        rng = random.Random(9)
        h = hashlib.sha256()
        for _ in range(2400):
            baseline, diff = seeded_files(rng)
            changes = split_unified_diff(diff)
            h.update(render_unified_diff(changes).encode())
            changeset = ChangeSet(tuple(changes))
            for _ in range(12):
                config = Configuration.from_bits(len(changes), rng.getrandbits(len(changes)))
                tree = apply_subset(baseline, changeset, config)
                h.update(repr(sorted(tree.items())).encode() + b"\n")
        assert h.hexdigest() == self.DIGEST


class TestApplySubset:
    BASELINE = {"f": "a\nb\nc\nd\ne\nf\ng\nh\n"}
    MODIFIED = {"f": "A\nb\nc\nd\nE\nf\ng\nH\n"}

    def changeset(self):
        return changeset_for(self.BASELINE, self.MODIFIED)

    def test_full_config_reproduces_today_tree(self):
        cs = self.changeset()
        tree = apply_subset(self.BASELINE, cs, Configuration.full(len(cs)))
        assert tree == self.MODIFIED

    def test_empty_config_is_baseline(self):
        cs = self.changeset()
        tree = apply_subset(self.BASELINE, cs, Configuration(len(cs)))
        assert tree == self.BASELINE

    def test_a_configuration_over_another_universe_is_rejected(self):
        cs = self.changeset()
        with pytest.raises(ValueError) as info:
            apply_subset(self.BASELINE, cs, Configuration(len(cs) + 1))
        assert str(info.value) == f"configuration is over {len(cs) + 1} deltas, change set has {len(cs)}"

    def test_offsets_accumulate_for_unbalanced_changes(self):
        baseline = {"f": "a\nb\nc\nd\ne\nf\ng\nh\ni\n"}
        modified = {"f": "a\nX\nY\nZ\nc\nd\ne\nf\ng\nh\nI\n"}  # grow at 2, edit at 9
        cs = changeset_for(baseline, modified)
        assert len(cs) == 2
        assert apply_subset(baseline, cs, Configuration.full(2)) == modified
        # Applying only the later change must still match its old context.
        only_second = apply_subset(baseline, cs, Configuration(2, [1]))
        assert only_second["f"].endswith("I\n")

    def test_stacked_changes_conflict_when_base_is_missing(self):
        # Change 1 rewrites a line; change 2's old context is change 1's output.
        baseline = {"f": "one\ntwo\nthree\n"}
        step1 = {"f": "one\nTWO\nthree\n"}
        step2 = {"f": "one\nTWO!\nthree\n"}
        cs1 = changeset_for(baseline, step1)
        cs2 = changeset_for(step1, step2)
        stacked = ChangeSet(changes=(cs1.changes[0], cs2.changes[0]))
        applied = apply_subset(baseline, stacked, Configuration.full(2))
        assert applied == step2
        with pytest.raises(ChangeConflict, match="context mismatch"):
            apply_subset(baseline, stacked, Configuration(2, [1]))

    def test_stacked_changes_must_keep_anchor_order(self):
        early, late = one_line_changes(2)
        with pytest.raises(ValueError, match="changes in f are out of anchor order near line 1"):
            ChangeSet(changes=(late, early))

    @pytest.mark.parametrize("hunk, message", [
        # The diff says line 2 ends in a newline; the file's last line has none.
        ("@@ -2 +2 @@\n-a\n+b\n", "context mismatch"),
        ("@@ -2,0 +3 @@\n+b\n", "a line without a newline does not end the file"),
    ])
    def test_newline_claim_must_match_the_file(self, hunk, message):
        changes = split_unified_diff("--- a/f\n+++ b/f\n" + hunk)
        with pytest.raises(ChangeConflict, match=message):
            apply_subset({"f": "x\na"}, ChangeSet(tuple(changes)), Configuration.full(1))

    def test_an_added_file_keeps_its_last_newline(self):
        changes = split_unified_diff("--- /dev/null\n+++ b/g\n@@ -0,0 +1,2 @@\n+x\n+y\n")
        tree = apply_subset({"f": "a\n"}, ChangeSet(tuple(changes)), Configuration.full(1))
        assert tree == {"f": "a\n", "g": "x\ny\n"}

    def test_application_order_cannot_matter(self):
        # Changes are non-overlapping and applied in ascending anchors;
        # any subset yields the same tree as applying them one by one.
        rng = random.Random(3)
        baseline = {"f": numbered("f", 30)}
        modified = {"f": baseline["f"]}
        for ln in (3, 9, 15, 21, 27):
            modified["f"] = modified["f"].replace(f"f {ln}\n", f"f {ln} mod\n")
        cs = changeset_for(baseline, modified)
        assert len(cs) == 5
        for _ in range(10):
            ids = rng.sample(range(5), rng.randint(0, 5))
            expected = dict(baseline)
            for i in sorted(ids):
                expected = apply_subset(
                    expected,
                    ChangeSet((cs.changes[i],)),
                    Configuration.full(1),
                )
            got = apply_subset(baseline, cs, Configuration(5, ids))
            assert got == expected


class TestSplitApplyRoundTripProperty:
    def test_random_trees_round_trip(self):
        rng = random.Random(41)
        for case in range(60):
            files = [f"dir{rng.randint(0, 2)}/file{i}.txt" for i in range(rng.randint(1, 3))]
            baseline = {
                f: "".join(f"{f}:{i}:{rng.randint(0, 9)}\n" for i in range(rng.randint(1, 40)))
                for f in files
            }
            modified = {}
            for f, content in baseline.items():
                lines = content.splitlines(keepends=True)
                out = []
                for line in lines:
                    roll = rng.random()
                    if roll < 0.15:
                        continue  # delete
                    if roll < 0.3:
                        out.append(f"new:{rng.randint(0, 999)}\n")  # replace
                    elif roll < 0.4:
                        out.append(line)
                        out.append(f"ins:{rng.randint(0, 999)}\n")  # insert
                    else:
                        out.append(line)
                modified[f] = "".join(out)
            cs = changeset_for(baseline, modified)
            applied = apply_subset(baseline, cs, Configuration.full(len(cs)))
            assert applied == modified, f"case {case}"


class TestGrouping:
    def changeset_six(self):
        baseline = {
            "a": numbered("a", 20),
            "b": numbered("b", 20),
            "c": numbered("c", 20),
        }
        modified = {
            "a": baseline["a"].replace("a 3\n", "a 3x\n").replace("a 12\n", "a 12x\n"),
            "b": baseline["b"].replace("b 4\n", "b 4x\n").replace("b 11\n", "b 11x\n")
                             .replace("b 18\n", "b 18x\n"),
            "c": baseline["c"].replace("c 9\n", "c 9x\n"),
        }
        return changeset_for(baseline, modified), baseline, modified

    def test_group_by_file(self):
        cs, _, _ = self.changeset_six()
        assert len(cs) == 6
        grouped = group_deltas(cs, "file")
        assert list(grouped.items()) == [("a", [0, 1]), ("b", [2, 3, 4]), ("c", [5])]

    def test_group_expansion_is_exact(self):
        cs, _, _ = self.changeset_six()
        seen = []

        def underlying(config):
            seen.append(config)
            return Outcome.PASS

        mapped = PassOracle(underlying, len(cs), list(group_deltas(cs, "file").values()))
        mapped.evaluate(Configuration(3, [1]))
        mapped.evaluate(Configuration(3, [0, 2]))
        assert seen == [Configuration(6, [2, 3, 4]), Configuration(6, [0, 1, 5])]

    def test_single_directory_collapses_to_one_delta(self):
        baseline = {"pkg/a": "x\n", "pkg/b": "y\n"}
        modified = {"pkg/a": "X\n", "pkg/b": "Y\n"}
        cs = changeset_for(baseline, modified)
        grouped = group_deltas(cs, "directory")
        assert len(grouped) == 1

    def test_an_unknown_grouping_key_is_rejected(self):
        cs, _, _ = self.changeset_six()
        with pytest.raises(ValueError, match="unknown grouping key 'hunk'"):
            group_deltas(cs, "hunk")

    def test_custom_map_must_cover_every_change(self):
        cs, _, _ = self.changeset_six()
        with pytest.raises(ValueError, match="missing change id"):
            group_deltas(cs, {0: "x"})

    def test_custom_map_must_name_only_changes_of_the_diff(self):
        cs, _, _ = self.changeset_six()
        whole = {i: "x" for i in range(6)}
        with pytest.raises(ValueError, match="names change 99, but the diff has 6 changes"):
            group_deltas(cs, {**whole, 99: "z"})
        with pytest.raises(ValueError, match="names change -1"):
            group_deltas(cs, {**whole, -1: "z"})

    def test_parse_group_map(self):
        assert parse_group_map("0\talpha\n1\tbeta\n") == {0: "alpha", 1: "beta"}
        with pytest.raises(ValueError):
            parse_group_map("0 alpha\n")

    def test_parse_group_map_rejects_a_repeated_id(self):
        with pytest.raises(ValueError, match="line 3: change id 1 is listed twice"):
            parse_group_map("0\talpha\n1\tbeta\n1\tgamma\n")


class TestDependencies:
    def chain(self, n):
        return {i: frozenset([i - 1]) for i in range(1, n)}

    def test_chain_feasible_configs_are_prefixes(self):
        oracle = raw_oracle(lambda c: Outcome.PASS, 8, self.chain(8))
        feasible = [
            bits for bits in range(256)
            if oracle.evaluate_ex(Configuration.from_bits(8, bits))[1] != SOURCE_FEASIBILITY
        ]
        assert feasible == [(1 << k) - 1 for k in range(9)]

    def test_infeasible_config_rejected_without_underlying_call(self):
        counting = CountingOracle(lambda c: Outcome.PASS)
        oracle = raw_oracle(counting, 8, self.chain(8))
        outcome, source = oracle.evaluate_ex(Configuration(8, [3]))
        assert outcome == Outcome.UNRESOLVED
        assert source == SOURCE_FEASIBILITY
        assert counting.calls == 0
        assert oracle.evaluate_ex(Configuration(8, range(4))) == (Outcome.PASS, SOURCE_ORACLE)
        assert counting.calls == 1

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            ChangeSet(one_line_changes(2), {0: frozenset([1]), 1: frozenset([0])})

    def test_long_chain_listed_from_the_top(self):
        # Each change requires the one before it; the deps file names the
        # last edge first, so the cycle check walks the whole chain at once.
        deps = {i: frozenset([i - 1]) for i in range(2999, 0, -1)}
        cs = ChangeSet(one_line_changes(3000), deps)
        oracle = raw_oracle(lambda c: Outcome.FAIL, len(cs), cs.dependencies)
        assert oracle.evaluate(Configuration(3000, range(3000))) == Outcome.FAIL
        assert oracle.evaluate(Configuration(3000, [2999])) == Outcome.UNRESOLVED

    def test_cycle_message_names_the_path(self):
        deps = {0: frozenset([1]), 1: frozenset([2]), 2: frozenset([0])}
        with pytest.raises(ValueError, match=r"cycle through change 0: \[0, 1, 2, 0\]"):
            ChangeSet(one_line_changes(3), deps)

    def test_parse_dependencies(self):
        assert parse_dependencies("1\t0\n2\t0\n2\t1\n") == {
            1: frozenset([0]),
            2: frozenset([0, 1]),
        }
        with pytest.raises(ValueError):
            parse_dependencies("1,0\n")

    @pytest.mark.parametrize("parse, text, message", [
        (parse_dependencies, "# c\n\n1\t0\n1,0\n", "line 4: expected CHILD<TAB>PARENT, got '1,0'"),
        (parse_dependencies, "1\tx\n", "line 1: ids must be decimal integers"),
        (parse_group_map, "  \n0\ta\tb\n", "line 2: expected CHANGE-ID<TAB>KEY, got '0\\ta\\tb'"),
        (parse_group_map, "# m\nx\ta\n", "line 2: change id must be a decimal integer"),
    ])
    def test_tsv_errors_name_the_line(self, parse, text, message):
        with pytest.raises(ValueError) as info:
            parse(text)
        assert str(info.value) == message

    def test_chain_degenerates_into_binary_search(self):
        # With a total-order chain only prefixes are feasible, so ddmin
        # behaves like binary search over the prefix length.
        n = 8
        reached = []

        def underlying(config):
            reached.append(config.bits)
            return Outcome.FAIL if 5 in config else Outcome.PASS

        result = ddmin(Configuration.full(n), raw_oracle(underlying, n, self.chain(n)))
        assert result.final == Configuration(n, range(6))  # prefix through d5
        oracle_tests, _, axiom_tests = result.log.test_counts()
        assert oracle_tests <= 2 * 3 + 2  # 2*ceil(log2 8) + 2
        # Feasibility soundness: only prefixes, the closed sets of a chain,
        # reached the oracle, once per oracle or axiom record.
        assert all(bits == (1 << bits.bit_length()) - 1 for bits in reached)
        assert len(reached) == oracle_tests + axiom_tests

    def test_feasibility_oracle_over_a_changeset(self):
        cs = ChangeSet(one_line_changes(4), self.chain(4))
        oracle = raw_oracle(lambda c: Outcome.PASS, len(cs), cs.dependencies)
        assert oracle.evaluate(Configuration(4, [2])) == Outcome.UNRESOLVED
        assert oracle.evaluate(Configuration(4, [0, 1, 2])) == Outcome.PASS
        # Groups are checked as the raw changes they stand for: delta 0 is
        # changes {0, 1}, delta 1 is change 2 and delta 2 is change 3.
        grouped = PassOracle(lambda c: Outcome.PASS, len(cs), [(0, 1), (2,), (3,)], cs.dependencies)
        assert grouped.evaluate_ex(Configuration(3, [0])) == (Outcome.PASS, SOURCE_ORACLE)
        assert grouped.evaluate(Configuration(3, [1])) == Outcome.UNRESOLVED
        assert grouped.evaluate(Configuration(3, [0, 2])) == Outcome.UNRESOLVED
        assert grouped.evaluate(Configuration(3, [0, 1, 2])) == Outcome.PASS


class TestRenderUnifiedDiff:
    def test_render_parse_round_trip(self):
        baseline = {"x/a.txt": numbered("a", 12), "y/b.txt": numbered("b", 12)}
        modified = {
            "x/a.txt": baseline["x/a.txt"].replace("a 4\n", "a 4!\n"),
            "y/b.txt": baseline["y/b.txt"].replace("b 9\n", "b 9!\nextra\n"),
        }
        cs = changeset_for(baseline, modified)
        rendered = render_unified_diff(cs.changes)
        reparsed = split_unified_diff(rendered)
        assert [
            (c.file, c.anchor, c.old_lines, c.new_lines) for c in reparsed
        ] == [
            (c.file, c.anchor, c.old_lines, c.new_lines) for c in cs.changes
        ]

    @pytest.mark.parametrize("name, header", [
        ("x\tb.txt", '"b/x\\tb.txt"'),
        ("x\nb.txt", '"b/x\\nb.txt"'),
        ("x\rb.txt", '"b/x\\rb.txt"'),
        ('say "hi".txt', '"b/say \\"hi\\".txt"'),
        ("back\\slash.txt", '"b/back\\\\slash.txt"'),
        ("bell\x07\x1f.txt", '"b/bell\\a\\037.txt"'),
        ("trailing ", '"b/trailing "'),
        (" leading", '"b/ leading"'),
        ("d/plain.txt", "b/d/plain.txt"),
        ("föo.txt", "b/föo.txt"),
    ], ids=["tab", "newline", "cr", "quote", "backslash", "octal", "trailing-space",
            "leading-space", "plain", "non-ascii"])
    def test_a_rendered_name_reads_back(self, name, header):
        # A name with a control character, a quote or a backslash, or with
        # whitespace at an end, is quoted as git quotes it; any other name,
        # one with bytes >= 0x80 too, is written as it is.
        change = AtomicChange(file=name, anchor=1, old_lines=("one\n",), new_lines=("BUG\n",))
        rendered = render_unified_diff([change])
        assert rendered.splitlines()[:2] == [f"--- {header.replace('b/', 'a/', 1)}", f"+++ {header}"]
        assert split_unified_diff(rendered) == [change]


class ShOracleMixin:
    @staticmethod
    def bug_spec(make_script, workspace_root):
        script = make_script('grep -rq BUG "$1"')
        return CommandOracleSpec(argv=[script], workspace_root=workspace_root)


class TestMinimizeChanges(ShOracleMixin):
    def fixture_20(self):
        baseline = {
            "a.txt": numbered("a", 40),
            "b.txt": numbered("b", 40),
        }
        modified = {"a.txt": baseline["a.txt"], "b.txt": baseline["b.txt"]}
        for i, ln in enumerate(range(2, 40, 4)):  # 10 edits per file
            modified["a.txt"] = modified["a.txt"].replace(f"a {ln}\n", f"a {ln} e{i}\n")
            modified["b.txt"] = modified["b.txt"].replace(
                f"b {ln}\n", f"b {ln} e{i}" + (" BUG" if ln == 22 else "") + "\n"
            )
        return baseline, changeset_for(baseline, modified)

    def test_two_level_refinement_matches_direct_run(self, make_script, workspace_root):
        baseline, cs = self.fixture_20()
        assert len(cs) == 20
        spec = self.bug_spec(make_script, workspace_root)
        direct = minimize_changes(baseline, cs, spec)
        grouped = minimize_changes(baseline, cs, spec, groups="file")
        assert direct.passes[-1].kept == grouped.passes[-1].kept
        assert len(direct.passes[-1].kept) == 1
        assert "BUG" in direct.diff_text

    def test_member_pass_takes_axiom_answers_from_the_group_pass(
        self, make_script, workspace_root
    ):
        baseline, cs = self.fixture_20()
        spec = self.bug_spec(make_script, workspace_root)
        groups, members = minimize_changes(baseline, cs, spec, groups="file").passes
        assert groups.result.log.test_counts()[2] == 2
        assert members.result.log.test_counts()[2] == 0
        head = [(r.source, r.outcome) for r in members.result.log.records[:2]]
        assert head == [(SOURCE_EXACT_CACHE, Outcome.PASS), (SOURCE_EXACT_CACHE, Outcome.FAIL)]
        assert members.result.verified_1_minimal is True

    def test_emitted_diff_contains_exactly_the_culprit(self, make_script, workspace_root):
        baseline, cs = self.fixture_20()
        spec = self.bug_spec(make_script, workspace_root)
        outcome = minimize_changes(baseline, cs, spec)
        reparsed = split_unified_diff(outcome.diff_text)
        assert len(reparsed) == 1
        assert any("BUG" in line for line in reparsed[0].new_lines)

    def test_empty_diff_means_no_failing_scenario(self, make_script, workspace_root):
        from deltadebug import AxiomViolation

        baseline = {"a.txt": "x\n"}
        cs = ChangeSet(tuple(split_unified_diff("")))
        spec = self.bug_spec(make_script, workspace_root)
        with pytest.raises(AxiomViolation):
            minimize_changes(baseline, cs, spec)

    def test_a_change_outside_its_file_is_unresolved_without_a_process(
        self, make_script, workspace_root, tmp_path
    ):
        runs = tmp_path / "runs"
        script = make_script(f'echo >> "{runs}"')
        spec = CommandOracleSpec(argv=[script], workspace_root=workspace_root)
        beyond = ChangeSet((AtomicChange("f", anchor=5, old_lines=("x\n",), new_lines=("y\n",)),))
        with CommandOracle(spec) as command:
            command.materializer = change_materializer({"f": "a\n"}, beyond)
            outcome, evidence = evaluate_command(command, Configuration.full(1))
        assert outcome == Outcome.UNRESOLVED
        assert evidence.conflict == "change 0 at f:5: range falls outside the file"
        assert evidence.returncode is None
        assert not runs.exists()

    def test_stacked_conflicts_stay_unresolved_but_final_is_correct(
        self, make_script, workspace_root
    ):
        # Change 1 rewrites a line, change 2 edits change 1's output; the
        # failure needs both.  Applying change 2 alone conflicts, which the
        # oracle adapter reports as UNRESOLVED without spawning a process.
        baseline = {"f": "one\ntwo\nthree\n"}
        step1 = {"f": "one\nTWO\nthree\n"}
        step2 = {"f": "one\nTWO BUG\nthree\n"}
        cs1 = changeset_for(baseline, step1)
        cs2 = changeset_for(step1, step2)
        stacked = ChangeSet(changes=(cs1.changes[0], cs2.changes[0]))
        spec = self.bug_spec(make_script, workspace_root)
        outcome = minimize_changes(baseline, stacked, spec)
        assert outcome.passes[-1].kept == (0, 1)
        records = outcome.passes[-1].result.log.records
        assert any(r.outcome == Outcome.UNRESOLVED for r in records)
