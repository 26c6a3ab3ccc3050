import pytest

from deltadebug import Configuration, Outcome
from deltadebug.bench import (
    CSV_HEADER,
    log_bound,
    make_oracle,
    parse_sizes,
    quadratic_bound,
    run_bench,
    run_one,
)
from deltadebug.oracles import adversarial, random_monotone, single_cause


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
        assert make_oracle("single", 8).evaluate(Configuration(8, [4])) == Outcome.FAIL
        conj = make_oracle("conjunction:2", 9)
        assert conj.evaluate(Configuration.full(9)) == Outcome.FAIL
        mono = make_oracle("random-monotone:7", 16)
        assert mono.evaluate(Configuration.full(16)) == Outcome.FAIL
        assert mono.evaluate(Configuration(16)) == Outcome.PASS
        adv = make_oracle("adversarial", 6)
        assert adv.evaluate(Configuration(6, [1, 3, 5])) == Outcome.FAIL
        assert adv.evaluate(Configuration(6, [1, 3])) == Outcome.PASS

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_oracle("mystery", 8)
        with pytest.raises(ValueError):
            make_oracle("conjunction:x", 8)


class TestBounds:
    def test_single_cause_1024_within_logarithmic_budget(self):
        row = run_one("single", 1024)
        assert row.tests_oracle <= 22

    def test_adversarial_sweep_respects_quadratic_bound(self):
        rows, violations = run_bench("adversarial", parse_sizes("4..64"))
        assert violations == []
        for row in rows:
            assert row.tests_oracle <= quadratic_bound(row.n)

    def test_adversarial_16_explicit_bound(self):
        row = run_one("adversarial", 16)
        assert row.tests_oracle <= 304

    def test_random_monotone_growth_with_cache(self):
        counts = {}
        for n in (8, 16, 32, 64):
            row = run_one("random-monotone:7", n, monotone=True)
            counts[n] = row.tests_oracle
        for n in (8, 16, 32):
            assert counts[2 * n] <= 2.5 * counts[n]

    def test_csv_row_shape(self):
        row = run_one("single", 16)
        fields = row.csv().split(",")
        assert len(fields) == len(CSV_HEADER.split(","))
        assert fields[0] == "16"
        assert int(fields[3]) == quadratic_bound(16)
        assert int(fields[4]) == log_bound(16)
