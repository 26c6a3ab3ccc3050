import pytest

from deltadebug import Configuration, EngineOptions, Outcome, ddmin
from deltadebug.bench import (
    CSV_HEADER,
    log_bound,
    oracle_family,
    parse_sizes,
    quadratic_bound,
    run_bench,
)
from deltadebug.oracles import (
    SetFamilyOracle,
    adversarial,
    conjunction_spread,
    random_monotone,
    single_cause,
)


class TestParseSizes:
    def test_comma_list(self):
        assert parse_sizes("8,16,32") == [8, 16, 32]

    def test_range(self):
        assert parse_sizes("4..7") == [4, 5, 6, 7]

    def test_mixed(self):
        assert parse_sizes("2,4..6,9") == [2, 4, 5, 6, 9]

    def test_bad_input(self):
        with pytest.raises(ValueError):
            parse_sizes("")
        with pytest.raises(ValueError):
            parse_sizes("8..4")
        with pytest.raises(ValueError):
            parse_sizes("0")


class TestMakeOracle:
    def test_names(self):
        assert oracle_family("single")(8).evaluate(Configuration(8, [4])) == Outcome.FAIL
        conj = oracle_family("conjunction:2")(9)
        assert conj.evaluate(Configuration.full(9)) == Outcome.FAIL
        mono = oracle_family("random-monotone:7")(16)
        assert mono.evaluate(Configuration.full(16)) == Outcome.FAIL
        assert mono.evaluate(Configuration(16)) == Outcome.PASS
        adv = oracle_family("adversarial")(6)
        assert adv.evaluate(Configuration(6, [1, 3, 5])) == Outcome.FAIL
        assert adv.evaluate(Configuration(6, [1, 3])) == Outcome.PASS

    def test_unknown_name(self):
        # The name alone is enough to reject: no size is given.
        with pytest.raises(ValueError):
            oracle_family("mystery")
        with pytest.raises(ValueError):
            oracle_family("conjunction:x")

    @pytest.mark.parametrize("make, message", [
        (lambda: SetFamilyOracle(4, []), "need at least one generator set"),
        (lambda: SetFamilyOracle(4, [frozenset([1]), frozenset()]),
         "generator sets must be nonempty"),
        (lambda: conjunction_spread(4, 0), "k must be in 1..4"),
        (lambda: single_cause(8, cause=9), "generator member 9 outside universe 0..7"),
    ], ids=["no-generator", "empty-generator", "no-cause", "member-outside"])
    def test_a_family_without_a_cause_is_rejected(self, make, message):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message


def oracle_tests(oracle_name, n, monotone=False):
    """The oracle tests of one bench run, the CSV's ``tests_oracle``."""
    result = ddmin(
        Configuration.full(n), oracle_family(oracle_name)(n), EngineOptions(monotone=monotone)
    )
    return result.log.test_counts()[0]


class TestBounds:
    def test_single_cause_1024_within_logarithmic_budget(self):
        assert oracle_tests("single", 1024) <= 22

    def test_adversarial_sweep_respects_quadratic_bound(self):
        lines, violations = run_bench("adversarial", parse_sizes("4..64"))
        assert violations == []
        for line in lines:
            n, tests_oracle = map(int, line.split(",")[:2])
            assert tests_oracle <= quadratic_bound(n)

    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_adversarial_stays_linear_without_monotony(self, n):
        # Complements that lie inside a passing configuration are asked
        # only at singleton granularity, so each reduction costs about two
        # tests.
        assert oracle_tests("adversarial", n) <= 3 * n

    def test_adversarial_16_explicit_bound(self):
        assert oracle_tests("adversarial", 16) <= 304

    def test_random_monotone_growth_with_cache(self):
        counts = {}
        for n in (8, 16, 32, 64):
            counts[n] = oracle_tests("random-monotone:7", n, monotone=True)
        for n in (8, 16, 32):
            assert counts[2 * n] <= 2.5 * counts[n]

    def test_csv_row_shape(self):
        lines, _ = run_bench("single", [16])
        fields = lines[0].split(",")
        assert len(fields) == len(CSV_HEADER.split(","))
        assert fields[0] == "16"
        assert int(fields[3]) == quadratic_bound(16)
        assert int(fields[4]) == log_bound(16)
