"""Censuses, coefficient-symmetry property checks, bounds, and profiles."""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import pytest
from click.testing import CliRunner

from bchseries import (
    FreePoly,
    SeriesTerm,
    all_words,
    bound_checks,
    census_sweep,
    engine_coefficient,
    goldberg_direct,
    letter_occurrence_profile,
    preset,
    property_suite,
    property_sweep,
    series_term,
    series_terms,
    word_parse,
)
from bchseries.census import (
    PROPERTY_NAMES,
    BoundRow,
    CensusRecord,
    CheckResult,
)
from bchseries.cli import main
from reference import cyclic_shift, letters

w = word_parse
F = Fraction

# counts of non-zero coefficients per degree for the two tabulated variants
STANDARD_COUNTS = {2: 2, 3: 6, 4: 4, 5: 30, 6: 28, 7: 126, 8: 124}
SYMMETRIC_COUNTS = {3: 6, 5: 30, 7: 126, 9: 435}


class TestCensus:
    def test_degree_five(self):
        record = census_sweep(5, preset("standard"))[-1]
        assert (record.n, record.count, record.bound, record.ratio) == (5, 30, 30, F(1))

    def test_degree_eight(self):
        record = census_sweep(8, preset("standard"))[-1]
        assert (record.n, record.count, record.bound, record.ratio) == (8, 124, 254, F(62, 127))

    def test_symmetric_degree_nine(self):
        record = census_sweep(9, preset("symmetric"))[-1]
        assert (record.n, record.variant) == (9, "symmetric")
        assert record.count == 435
        assert record.ratio == F(29, 34)

    def test_low_degrees_match_table(self):
        records = {r.n: r for r in census_sweep(8, preset("standard"))}
        for n, count in STANDARD_COUNTS.items():
            assert records[n].count == count

    def test_degree_one_has_no_ratio(self):
        # census_sweep starts at degree 2; the degree-1 term is X + Y
        assert series_terms(preset("standard"), 1)[0].count == 2
        record = CensusRecord(1, 2, "standard")
        assert record.bound == 0
        assert record.ratio is None

    def test_census_matches_direct_sum_to_degree_eight(self):
        for record in census_sweep(8, preset("standard")):
            expected = sum(1 for word in all_words(record.n) if goldberg_direct(word) != 0)
            assert record.count == expected

    def test_invalid_arguments(self):
        for max_n in (0, 1):
            with pytest.raises(ValueError):
                census_sweep(max_n, preset("standard"))

    def test_desk_scale_degrees_fourteen_to_seventeen(self):
        # about 0.3 s with the graded-series core; the degree-15 count was
        # also recomputed from the direct block sum over all 2^15 words, which
        # agrees with the engine
        counts = {r.n: (r.count, r.ratio) for r in census_sweep(17, preset("standard"))}
        assert counts[14] == (8188, F(4094, 8191))
        assert counts[15] == (29766, F(4961, 5461))
        assert counts[16] == (30124, F(15062, 32767))
        assert counts[17] == (131070, F(1))


class TestPropertySuite:
    def test_all_checks_pass_to_degree_six(self):
        for n in range(2, 7):
            report = property_suite(n)
            assert tuple(report.checks) == PROPERTY_NAMES
            assert report.ok, {
                name: result
                for name, result in report.checks.items()
                if not result.passed
            }
            assert all(result.witness is None for result in report.checks.values())

    def test_three_run_zero_examples(self):
        assert engine_coefficient(w("XY^2X")) == 0
        assert engine_coefficient(w("X^2YX")) == 0
        assert engine_coefficient(w("XYX^2")) == 0

    def test_cyclic_convention_distinct_shifts(self):
        # Summing over the n distinct shifts gives zero; appending the n-th
        # shift (which wraps back to the word itself) adds g(w) and fails
        # whenever g(w) != 0, so the distinct-shift reading is the test.
        body = series_term(preset("standard"), 2)
        word = w("XY")
        shifts = [word, cyclic_shift(word)]
        assert sum((body.coeff(s) for s in shifts), F(0)) == 0
        wrapped = shifts + [cyclic_shift(shifts[-1])]
        assert sum((body.coeff(s) for s in wrapped), F(0)) == F(1, 2)

    def test_degree_below_two_rejected(self):
        with pytest.raises(ValueError):
            property_suite(1)

    def test_sweep_matches_the_suite_from_one_series_run(self, core_runs):
        reports = list(property_sweep(9))
        assert core_runs == [9]
        assert reports == [property_suite(n) for n in range(2, 10)]
        with pytest.raises(ValueError):
            property_sweep(1)

    @staticmethod
    def perturb(monkeypatch, word, delta):
        """Make property_suite read the standard term with delta added to one coefficient.

        The perturbed term is built from a FreePoly, so property_suite reads
        the ints that SeriesTerm derives from a body.
        """
        terms = series_terms(preset("standard"), word.length)
        body = dict(terms[-1].body.items())
        body[word] = body.get(word, F(0)) + delta
        perturbed = terms[:-1] + (SeriesTerm(word.length, FreePoly(body)),)
        monkeypatch.setattr(sys.modules["bchseries.census"], "series_terms", lambda *_: perturbed)

    def test_exponent_permutation_can_fail(self, monkeypatch):
        # XY^2X^2 permutes the runs of X^2YX^2 and X^2Y^2X; X^2YX^2 comes
        # first in all_words order, so it is the witness although its own
        # coefficient is untouched
        self.perturb(monkeypatch, w("XY^2X^2"), F(1))
        result = property_suite(5).checks["exponent_permutation"]
        assert result == CheckResult(False, w("X^2YX^2"))

    def test_exponent_permutation_ignores_other_letter_orders(self, monkeypatch):
        # Y^2XY^2 has the run lengths of X^2YX^2 but starts with the other
        # letter, so the witness is YX^2Y^2, the first Y-led word of its class
        self.perturb(monkeypatch, w("Y^2XY^2"), F(1))
        result = property_suite(5).checks["exponent_permutation"]
        assert result == CheckResult(False, w("YX^2Y^2"))

    def test_cyclic_shift_sum_can_fail(self, monkeypatch):
        # the witness is the first word of the perturbed rotation class in
        # all_words order, here X^2Y^3 for a perturbed YX^2Y^2
        self.perturb(monkeypatch, w("YX^2Y^2"), F(1))
        result = property_suite(5).checks["cyclic_shift_sum"]
        assert result == CheckResult(False, w("X^2Y^3"))
        # XYXY has period 2: its class {XYXY, YXYX} is met twice among its shifts
        self.perturb(monkeypatch, w("XYXY"), F(1))
        result = property_suite(4).checks["cyclic_shift_sum"]
        assert result == CheckResult(False, w("XYXY"))

    def test_fixed_content_sum_failure_names_the_content(self, monkeypatch):
        word = w("X^3Y^2")
        self.perturb(monkeypatch, word, -series_term(preset("standard"), 5).coeff(word))
        report = property_suite(5)
        assert report.checks["fixed_content_sum"] == CheckResult(False, w("X^3Y^2"))
        assert not report.ok


class TestBoundChecks:
    def test_to_degree_ten(self):
        report = bound_checks(10)
        assert [row.n for row in report] == list(range(2, 11))
        assert all(row.ok for row in report)
        rows = {row.n: row for row in report}
        for p in (2, 3, 5, 7):
            assert rows[p].prime and rows[p].prime_saturated
        for n in (4, 6, 8):
            assert rows[n].even_saturated and rows[n].even_saturation_expected
        assert rows[10].count == 388
        assert rows[10].even_bound == 508
        assert not rows[10].even_saturated
        assert not rows[10].even_saturation_expected

    def test_composite_odd_rows_have_no_bound_fields(self):
        row9 = bound_checks(9)[-1]
        assert row9.n == 9
        assert not row9.prime
        assert row9.even_bound is None

    # (prime, prime_saturated, even_bound, even_bound_holds, even_saturated,
    #  even_saturation_expected, ok) of a row made from a count alone
    @pytest.mark.parametrize(
        "n, count, expected",
        [
            (7, 125, (True, False, None, None, None, None, False)),
            (8, 125, (False, None, 124, False, False, True, False)),
            (10, 509, (False, None, 508, False, False, False, False)),
            (10, 508, (False, None, 508, True, True, False, False)),
            (12, 2043, (False, None, 2044, True, False, True, False)),
            (9, 0, (False, None, None, None, None, None, True)),
            (2, 2, (True, True, None, None, None, None, True)),
        ],
        ids=[
            "prime-unsaturated",
            "over-the-even-bound",
            "over-the-even-bound-unsaturable",
            "saturated-unexpectedly",
            "unsaturated-unexpectedly",
            "no-rule",
            "prime-saturated",
        ],
    )
    def test_synthetic_counts(self, n, count, expected):
        row = BoundRow(n, count)
        assert (
            row.prime,
            row.prime_saturated,
            row.even_bound,
            row.even_bound_holds,
            row.even_saturated,
            row.even_saturation_expected,
            row.ok,
        ) == expected

    def test_rows_store_only_the_degree_and_count(self):
        assert BoundRow._fields == ("n", "count")
        assert CensusRecord._fields == ("n", "count", "variant")
        record = CensusRecord(1, 2, "standard")
        assert record.bound == 0
        assert record.ratio is None


class TestOccurrenceProfile:
    def test_degree_two(self):
        profile = letter_occurrence_profile(2, preset("standard"))
        assert profile.term_count == 2
        assert profile.x_position_counts == (1, 1)
        assert profile.y_position_counts == (1, 1)
        assert profile.x_run_histogram == {1: 2}
        assert profile.consistent

    def test_degree_seven(self):
        profile = letter_occurrence_profile(7, preset("standard"))
        assert profile.term_count == 126
        assert profile.x_position_counts == (63,) * 7
        assert profile.y_position_counts == (63,) * 7
        # the run data supports 64 two-letter runs (63*7 = 2*6+5*5+12*4+28*3+64*2+144)
        assert profile.x_run_histogram == {1: 144, 2: 64, 3: 28, 4: 12, 5: 5, 6: 2}
        assert profile.y_run_histogram == profile.x_run_histogram
        assert profile.consistent
        assert profile.x_total == 63 * 7

    def test_degree_eight(self):
        profile = letter_occurrence_profile(8, preset("standard"))
        assert profile.term_count == 124
        assert profile.x_position_counts == (62,) * 8
        assert profile.x_run_histogram == {1: 158, 2: 72, 3: 32, 4: 14, 5: 6, 6: 2}
        assert profile.consistent
        assert profile.x_total == 62 * 8

    @pytest.mark.parametrize("name", ["standard", "loop", "triangular", "sum_difference"])
    def test_matches_a_walk_over_the_words(self, name):
        # the reference reads each non-zero word's letters and runs one by one
        for n in range(1, 11):
            words = list(series_term(preset(name), n).words())
            positions = ([0] * n, [0] * n)  # indexed by the letter, X = 0 and Y = 1
            histograms: tuple[dict[int, int], dict[int, int]] = ({}, {})
            for word in words:
                for i, letter in enumerate(letters(word)):
                    positions[letter][i] += 1
                for letter, mult in word.runs():
                    histograms[letter][mult] = histograms[letter].get(mult, 0) + 1
            profile = letter_occurrence_profile(n, preset(name))
            assert profile.term_count == len(words), (name, n)
            assert profile.x_position_counts == tuple(positions[0]), (name, n)
            assert profile.y_position_counts == tuple(positions[1]), (name, n)
            assert profile.x_run_histogram == dict(sorted(histograms[0].items())), (name, n)
            assert profile.y_run_histogram == dict(sorted(histograms[1].items())), (name, n)


class TestSerialization:
    def test_csv_schema(self):
        result = CliRunner().invoke(main, ["census", "--max", "4", "--format", "csv"])
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        assert lines[0] == "n,count,bound,ratio_num,ratio_den,variant"
        assert lines[1] == "2,2,2,1,1,standard"
        assert lines[3] == "4,4,14,2,7,standard"

    def test_json_schema(self):
        result = CliRunner().invoke(main, ["census", "--max", "3", "--format", "json"])
        assert result.exit_code == 0
        rows = json.loads(result.stdout)
        assert rows == [
            {
                "n": 2,
                "count": 2,
                "bound": 2,
                "ratio_num": "1",
                "ratio_den": "1",
                "variant": "standard",
            },
            {
                "n": 3,
                "count": 6,
                "bound": 6,
                "ratio_num": "1",
                "ratio_den": "1",
                "variant": "standard",
            },
        ]

    def test_property_report_json(self):
        result = CliRunner().invoke(main, ["verify", "properties", "--max", "4", "--format", "json"])
        assert result.exit_code == 0
        decoder, text, payloads = json.JSONDecoder(), result.stdout, []
        while text.strip():
            payload, end = decoder.raw_decode(text)
            payloads.append(payload)
            text = text[end:].lstrip()
        assert [payload["n"] for payload in payloads] == [2, 3, 4]
        for payload in payloads:
            assert list(payload["checks"]) == list(PROPERTY_NAMES)
            for check in payload["checks"].values():
                assert check == {"pass": True, "witness": None}
