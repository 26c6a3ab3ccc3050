import random

import pytest

from deltadebug import AxiomViolation, Configuration, Outcome
from deltadebug.core import SOURCE_EXACT_CACHE
from deltadebug.inputmin import (
    minimize_input,
    render,
    tokenize,
)
from deltadebug.proc import CommandOracleSpec
from support import minimized


class TestTokenize:
    def test_line_tokens_include_terminators(self):
        t = tokenize(b"ab\ncd\n", "line")
        assert t == (b"ab\n", b"cd\n")

    def test_unterminated_last_line_is_a_token(self):
        t = tokenize(b"ab\ncd", "line")
        assert t == (b"ab\n", b"cd")

    def test_carriage_returns_stay_inside_their_line(self):
        assert tokenize(b"a\rb\r\nc\r", "line") == (b"a\rb\r\n", b"c\r")
        rng = random.Random(17)
        for _ in range(2000):
            data = b"".join(
                rng.choice([b"\n", b"\r", b"\r\n", b"\xff", b"x"])
                for _ in range(rng.randrange(12))
            )
            *lines, rest = data.split(b"\n")
            expected = [line + b"\n" for line in lines] + ([rest] if rest else [])
            assert tokenize(data, "line") == tuple(expected), data

    def test_char_tokens_are_unicode_scalars(self):
        assert tokenize(b"ab", "char") == (b"a", b"b")
        t = tokenize("hé".encode(), "char")
        assert t == (b"h", "é".encode())

    def test_char_granularity_rejects_invalid_utf8(self):
        with pytest.raises(ValueError, match="byte granularity"):
            tokenize(b"\xff\xfe", "char")

    def test_byte_tokens(self):
        assert tokenize(b"\x00\xff", "byte") == (b"\x00", b"\xff")

    def test_empty_input_has_empty_universe(self):
        assert tokenize(b"", "line") == ()

    def test_unknown_granularity(self):
        with pytest.raises(ValueError):
            tokenize(b"x", "word")


class TestRender:
    def test_full_config_is_identity(self):
        t = tokenize(b"a\nb\nc\n", "line")
        assert render(t, Configuration.full(3)) == b"a\nb\nc\n"

    def test_empty_config_is_empty(self):
        t = tokenize(b"a\nb\n", "line")
        assert render(t, Configuration(2)) == b""

    def test_subset_preserves_order(self):
        t = tokenize(b"a\nb\nc\n", "line")
        assert render(t, Configuration(3, [0, 2])) == b"a\nc\n"

    def test_universe_mismatch_rejected(self):
        t = tokenize(b"ab", "char")
        with pytest.raises(ValueError):
            render(t, Configuration.full(3))


class TestRoundTripProperty:
    def test_tokenize_render_identity_on_random_bytes(self):
        rng = random.Random(11)
        for _ in range(200):
            data = bytes(rng.randrange(256) for _ in range(rng.randrange(120)))
            for granularity in ("line", "byte"):
                t = tokenize(data, granularity)
                assert render(t, Configuration.full(len(t))) == data

    def test_tokenize_render_identity_on_random_text(self):
        rng = random.Random(12)
        alphabet = "aé日\n\t \\\"0"
        for _ in range(200):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(80)))
            data = text.encode("utf-8")
            t = tokenize(data, "char")
            assert render(t, Configuration.full(len(t))) == data


@pytest.fixture
def substring_spec(make_script, workspace_root):
    # FAIL iff the candidate file contains the byte substring "78".
    script = make_script('grep -q 78 "$1"')
    return CommandOracleSpec(argv=[script], workspace_root=workspace_root)


class TestMinimizeInput:
    def test_thousand_line_input_reduces_to_the_substring(self, substring_spec):
        data = "".join(f"{i}\n" for i in range(1000)).encode()
        outcome = minimize_input(data, substring_spec)
        assert minimized(data, outcome) == b"78"
        assert [p.label for p in outcome.passes] == ["line", "char"]

    def test_each_pass_never_grows_the_input(self, substring_spec):
        data = "".join(f"{i}\n" for i in range(200)).encode()
        outcome = minimize_input(data, substring_spec)
        length = len(data)
        for p in outcome.passes:
            assert len(p.kept) <= length
            length = len(p.kept)

    def test_always_failing_oracle_keeps_first_singleton(self, make_script, workspace_root):
        # FAIL on everything except the empty input: the ascending scan
        # keeps the first token.
        script = make_script('test -s "$1"')
        spec = CommandOracleSpec(argv=[script], workspace_root=workspace_root)
        data = b"x\ny\n"
        outcome = minimize_input(data, spec, schedule=["line"])
        assert minimized(data, outcome) == b"x\n"

    def test_later_pass_takes_axiom_answers_from_the_first(self, substring_spec):
        data = "".join(f"{i}\n" for i in range(100)).encode()
        line, char = minimize_input(data, substring_spec).passes
        assert line.result.log.test_counts()[2] == 2
        assert char.result.log.test_counts()[2] == 0
        head = [(r.source, r.outcome) for r in char.result.log.records[:2]]
        assert head == [(SOURCE_EXACT_CACHE, Outcome.PASS), (SOURCE_EXACT_CACHE, Outcome.FAIL)]
        # Only those two records differ from a char pass run on its own.
        line_minimized = bytes(data[i] for i in line.kept)
        alone = minimize_input(line_minimized, substring_spec, schedule=["char"])
        assert alone.passes[0].result.log.test_counts()[2] == 2
        assert (
            char.result.log.fingerprint()[2:]
            == alone.passes[0].result.log.fingerprint()[2:]
        )

    def test_an_empty_schedule_is_rejected_before_any_test(self, make_script, workspace_root):
        spec = CommandOracleSpec(argv=[make_script("exit 0")], workspace_root=workspace_root)
        with pytest.raises(ValueError, match="at least one granularity"):
            minimize_input(b"a\n", spec, schedule=())
        assert list(workspace_root.iterdir()) == []

    def test_axiom_violation_names_the_pass(self, make_script, workspace_root):
        script = make_script("exit 1")  # never fails
        spec = CommandOracleSpec(argv=[script], workspace_root=workspace_root)
        with pytest.raises(AxiomViolation, match="line pass"):
            minimize_input(b"a\nb\n", spec)

    def test_minimized_output_still_fails(self, substring_spec):
        from deltadebug import Outcome
        from deltadebug.inputmin import candidate_materializer
        from deltadebug.proc import CommandOracle

        data = "junk\n778玉\nmore\n".encode("utf-8")
        outcome = minimize_input(data, substring_spec)
        tokenized = tokenize(minimized(data, outcome), "char")
        with CommandOracle(substring_spec) as oracle:
            oracle.materializer = candidate_materializer(tokenized, "candidate.dat")
            assert oracle.evaluate(Configuration.full(len(tokenized))) == Outcome.FAIL
