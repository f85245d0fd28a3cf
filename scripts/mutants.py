#!/usr/bin/env python3
"""Check that the tests can fail: each committed mutant must be caught.

A row of MUTANTS is (file under src/bchseries, old text, new text, test ids).
For each row the script copies src/ to a temporary directory, requires the
old text to occur exactly once in the file, replaces it with the new text,
and runs the named tests in a fresh pytest process with the copy first on
the import path.  The tests must fail.

Exit 1 names every mutant that survived (its tests passed) and every stale
row (the old text does not occur exactly once, or pytest could not run the
tests).  A new fast path or proved bound adds a row here.

Usage: python scripts/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ENGINE = "tests/test_engine.py"
ORACLE = "tests/test_oracle.py"
CENSUS = "tests/test_census.py"

MUTANTS: tuple[tuple[str, str, str, tuple[str, ...]], ...] = (
    # SeriesTerm.marks: the top byte of a zero slot taken as 0x00, not 0x80
    (
        "terms.py",
        "int(b != 0x80)",
        "int(b != 0x00)",
        (
            f"{ENGINE}::TestMarks::test_count_and_marks_read_the_nonzero_slots[standard]",
            f"{CENSUS}::TestCensus::test_degree_eight",
        ),
    ),
    # SeriesTerm.marks: the byte column below the top one left out of the OR
    (
        "terms.py",
        "for j in range(size - 1):",
        "for j in range(size - 2):",
        (
            f"{ENGINE}::TestMarks::test_count_and_marks_read_the_nonzero_slots[standard]",
            f"{ENGINE}::TestMarks::test_a_body_round_trips_at_every_slot_size",
        ),
    ),
    # _decode: slots of up to 8 bytes read without flipping the top bit
    (
        "terms.py",
        ".unpack(flipped)",
        ".unpack(data)",
        (
            f"{ENGINE}::TestDecode::test_round_trip_at_the_slot_extremes",
            f"{ENGINE}::TestGoldenTerms::test_standard_degree_five",
        ),
    ),
    # _decode: wide slots marked without the top-byte check
    (
        "terms.py",
        "[sign] * (size - 9) + [sign.translate(_TOP)]",
        "[sign] * (size - 9)",
        (
            f"{ENGINE}::TestDecode::test_round_trip_at_the_slot_extremes",
            f"{ENGINE}::TestDecode::test_one_wide_slot_first_in_the_middle_or_last",
        ),
    ),
    # _decode: the struct pass reading each low 8 bytes unsigned
    (
        "terms.py",
        'f"q{size - 8}x"',
        'f"Q{size - 8}x"',
        (
            f"{ENGINE}::TestDecode::test_round_trip_at_the_slot_extremes",
            f"{ENGINE}::TestDecode::test_parts_within_64_bits_take_the_struct_pass",
        ),
    ),
    # _decode: the sign read from byte 8 instead of the top bit of byte 7
    (
        "terms.py",
        "data[7::size].translate(_SIGN)",
        "data[8::size].translate(_SIGN)",
        (
            f"{ENGINE}::TestDecode::test_parts_within_64_bits_take_the_struct_pass",
            f"{ENGINE}::TestDecode::test_one_wide_slot_first_in_the_middle_or_last",
        ),
    ),
    # _decode: wide slots left at their struct value, not read again
    (
        "terms.py",
        'for i in compress(range(count), wide.to_bytes(count, "little")):',
        "for i in ():",
        (
            f"{ENGINE}::TestDecode::test_one_wide_slot_first_in_the_middle_or_last",
            f"{ENGINE}::TestDecode::test_coefficients_beyond_64_bits_match_the_word_route",
        ),
    ),
    # _decode: a wide slot read again without the offset 2^(width-1)
    (
        "terms.py",
        '(i + 1) * size], "little") - half',
        '(i + 1) * size], "little")',
        (
            f"{ENGINE}::TestDecode::test_round_trip_at_the_slot_extremes",
            f"{ENGINE}::TestDecode::test_one_wide_slot_first_in_the_middle_or_last",
        ),
    ),
    # _surjection_rows: S(n, k) instead of k! S(n, k)
    (
        "engine.py",
        "k * (a + b)",
        "a + k * b",
        (
            f"{ENGINE}::TestSlotWidth::test_surjection_rows_match_inclusion_exclusion",
            f"{ENGINE}::TestSlotWidth::test_the_path_sum_bound_is_reached",
        ),
    ),
    # _slot_width: the path-sum bound without C^n
    (
        "engine.py",
        "total * bound**n",
        "total",
        (
            f"{ENGINE}::TestSlotWidth::test_the_path_sum_bound_is_reached",
            f"{ENGINE}::TestHornerLogAgainstWordRoute::test_presets_at_degrees_10_to_14",
        ),
    ),
    # _SLOT_BYTES: the standard row at N 13 lowered from 8 bytes to 4
    (
        "engine.py",
        '("standard", "1 1 1 1 2 2 2 4 4 4 4 8 8 8 8 8 8 8 9 9")',
        '("standard", "1 1 1 1 2 2 2 4 4 4 4 8 4 8 8 8 8 8 9 9")',
        (
            f"{ENGINE}::TestSlotTable::test_every_entry_holds_the_values_it_packs[standard]",
            f"{ENGINE}::test_dense_values_are_pinned[standard-13]",
        ),
    ),
    # _graded_series: a factor tuple outside the table given the standard row,
    # as a lookup by name would give another product called "standard"
    (
        "engine.py",
        '_SLOT_BYTES.get(factors, b"")',
        '_SLOT_BYTES.get(factors) or _SLOT_BYTES[PRESETS["standard"].factors]',
        (f"{ENGINE}::TestSlotTable::test_the_table_is_keyed_by_the_factors_not_the_name",),
    ),
    # _factor_mul: the Y half shifted by one prefix level too many
    (
        "engine.py",
        "width << (t - 1)",
        "width << t",
        (
            f"{ENGINE}::TestGoldenTerms::test_standard_degree_five",
            f"{CENSUS}::TestCensus::test_degree_eight",
        ),
    ),
    # _factor_mul: the unit X step, no multiply, taken for any weight a
    (
        "engine.py",
        "(lambda s, sh: s) if a == 1 else (lambda s, sh: s * a)",
        "lambda s, sh: s",
        (
            f"{ENGINE}::TestFactorProduct::test_every_step_matches_the_kronecker_product[-2-0]",
            f"{ENGINE}::TestGoldenTerms::test_loop_low_order",
        ),
    ),
    # _factor_mul: the Y step with a weight b != 1 left unshifted
    (
        "engine.py",
        "(lambda s, sh: s * b << sh)",
        "(lambda s, sh: s * b)",
        (
            f"{ENGINE}::TestFactorProduct::test_every_step_matches_the_kronecker_product_on_sparse_series[0-2]",
            f"{ENGINE}::TestGoldenTerms::test_symmetric_low_order",
        ),
    ),
    # _factor_mul: the unit X - Y step adding its Y half
    (
        "engine.py",
        "(lambda s, sh: s - (s << sh))",
        "(lambda s, sh: s + (s << sh))",
        (
            f"{ENGINE}::TestFactorProduct::test_every_step_matches_the_kronecker_product[1--1]",
            f"{ENGINE}::TestGoldenTerms::test_sum_difference_low_order",
        ),
    ),
    # _factor_mul: the X - Y step with a weight a != 1 adding its Y half
    (
        "engine.py",
        "(m := s * a) - (m << sh)",
        "(m := s * a) + (m << sh)",
        (
            f"{ENGINE}::TestFactorProduct::test_every_step_matches_the_kronecker_product[-2-2]",
            f"{ENGINE}::TestHornerLogAgainstWordRoute::test_random_factors_at_degrees_10_to_12[5]",
        ),
    ),
    # SeriesTerm.__eq__ on the raw bytes, whose slot size and denominator depend on N
    (
        "terms.py",
        "return self._reduced() == other._reduced()",
        "return (self.degree, self._data, self._den) == (other.degree, other._data, other._den)",
        (
            f"{ENGINE}::TestSeriesTerm::test_body_built_term_equals_the_engine_term",
            f"{ENGINE}::TestTruncation::test_lower_degrees_are_a_prefix_of_a_longer_run",
        ),
    ),
    # CensusRecord.bound one above the ceiling 2^n - 2
    (
        "census.py",
        "return (1 << self.n) - 2",
        "return (1 << self.n) - 1",
        (
            f"{CENSUS}::TestCensus::test_degree_five",
            "tests/test_cli.py::TestCensus::test_paper_tables_to_degree_13",
        ),
    ),
    # CensusRecord.ratio as bound / count
    (
        "census.py",
        "Fraction(self.count, self.bound)",
        "Fraction(self.bound, self.count)",
        (
            f"{CENSUS}::TestCensus::test_degree_eight",
            "tests/test_cli.py::TestCensus::test_paper_tables_to_degree_13",
        ),
    ),
    # BoundRow.prime true at every odd degree
    (
        "census.py",
        "return _is_prime(self.n)",
        "return self.n % 2 == 1",
        (
            f"{CENSUS}::TestBoundChecks::test_composite_odd_rows_have_no_bound_fields",
            f"{CENSUS}::TestBoundChecks::test_synthetic_counts[prime-saturated]",
        ),
    ),
    # BoundRow.prime_saturated against 2^n - 1, not 2^n - 2
    (
        "census.py",
        "self.count == (1 << self.n) - 2 if self.prime",
        "self.count == (1 << self.n) - 1 if self.prime",
        (
            f"{CENSUS}::TestBoundChecks::test_to_degree_ten",
            f"{CENSUS}::TestBoundChecks::test_synthetic_counts[prime-saturated]",
        ),
    ),
    # BoundRow.even_bound two above 2^(n-1) - 4
    (
        "census.py",
        "(1 << (self.n - 1)) - 4",
        "(1 << (self.n - 1)) - 2",
        (
            f"{CENSUS}::TestBoundChecks::test_to_degree_ten",
            f"{CENSUS}::TestBoundChecks::test_synthetic_counts[over-the-even-bound]",
        ),
    ),
    # BoundRow.even_bound_holds only strictly below the bound
    (
        "census.py",
        "self.count <= bound",
        "self.count < bound",
        (
            "tests/test_cli.py::TestVerifyBytes::test_pass_path[bounds-text]",
            f"{CENSUS}::TestBoundChecks::test_synthetic_counts[saturated-unexpectedly]",
        ),
    ),
    # BoundRow.even_saturated whenever the bound holds
    (
        "census.py",
        "self.count == bound",
        "self.count <= bound",
        (
            f"{CENSUS}::TestBoundChecks::test_to_degree_ten",
            f"{CENSUS}::TestBoundChecks::test_synthetic_counts[unsaturated-unexpectedly]",
        ),
    ),
    # BoundRow.even_saturation_expected when n + 1, not n - 1, is prime
    (
        "census.py",
        "_is_prime(self.n - 1)",
        "_is_prime(self.n + 1)",
        (
            f"{CENSUS}::TestBoundChecks::test_to_degree_ten",
            f"{CENSUS}::TestBoundChecks::test_synthetic_counts[saturated-unexpectedly]",
        ),
    ),
    # BoundRow.ok ignoring prime saturation
    (
        "census.py",
        "self.prime_saturated is not False",
        "True",
        (
            "tests/test_cli.py::TestVerifyBytes::test_fail_path[bounds-text]",
            f"{CENSUS}::TestBoundChecks::test_synthetic_counts[prime-unsaturated]",
        ),
    ),
    # BoundRow.ok ignoring the even-length bound
    (
        "census.py",
        "and self.even_bound_holds is not False",
        "",
        (f"{CENSUS}::TestBoundChecks::test_synthetic_counts[over-the-even-bound-unsaturable]",),
    ),
    # BoundRow.ok ignoring even saturation
    (
        "census.py",
        "and self.even_saturated == self.even_saturation_expected",
        "",
        (
            f"{CENSUS}::TestBoundChecks::test_synthetic_counts[saturated-unexpectedly]",
            f"{CENSUS}::TestBoundChecks::test_synthetic_counts[unsaturated-unexpectedly]",
        ),
    ),
    # property_sweep from degree 3
    (
        "census.py",
        'series_terms(PRESETS["standard"], max_n)[1:]',
        'series_terms(PRESETS["standard"], max_n)[2:]',
        (
            f"{CENSUS}::TestPropertySuite::test_sweep_matches_the_suite_from_one_series_run",
            "tests/test_cli.py::TestVerify::test_properties_json",
        ),
    ),
    # goldberg_direct taking a Y-first word's boundaries as if it began with X
    (
        "oracle.py",
        "a = (m - (bits >> (n - 1))) // 2",
        "a = m // 2",
        (
            f"{ORACLE}::TestGoldbergDirect::test_degree_two",
            f"{ORACLE}::TestGoldbergDirect::test_words_of_unit_runs_match_the_beta_integral",
        ),
    ),
    # goldberg_direct reading the first letter from the low bit, the last letter
    (
        "oracle.py",
        "(m - (bits >> (n - 1)))",
        "(m - (bits & 1))",
        (
            f"{ORACLE}::TestGoldbergDirect::test_degree_two",
            f"{ORACLE}::TestGoldbergDirect::test_direct_matches_naive_exhaustively",
        ),
    ),
    # goldberg_direct with the Beta weight's (a + j)! one factor too high
    (
        "oracle.py",
        "weight = weight * i // (i + b + 1)",
        "weight = weight * (i + 1) // (i + b + 1)",
        (
            f"{ORACLE}::TestGoldbergDirect::test_direct_matches_naive_exhaustively",
            f"{ORACLE}::TestGoldbergDirect::test_cap_length_matches_closed_form",
        ),
    ),
    # goldberg_direct without the (-1)^b of the Y->X boundaries
    (
        "oracle.py",
        "Fraction(-total if b % 2 else total, den)",
        "Fraction(total, den)",
        (
            f"{ORACLE}::TestGoldbergDirect::test_degree_two",
            f"{ORACLE}::TestGoldbergDirect::test_words_of_unit_runs_match_the_beta_integral",
        ),
    ),
    # goldberg_direct taking each run polynomial once per length, not k_s times
    (
        "oracle.py",
        "acc *= _packed(polys[s - 1], size) ** k",
        "acc *= _packed(polys[s - 1], size)",
        (
            f"{ORACLE}::TestGoldbergDirect::test_direct_matches_naive_exhaustively",
            f"{ORACLE}::TestGoldbergDirect::test_pinned_long_words",
        ),
    ),
    # goldberg_direct reading H_(s+1) from the table for a run of length s
    (
        "oracle.py",
        "_packed(polys[s - 1], size)",
        "_packed(polys[s], size)",
        (
            f"{ORACLE}::TestGoldbergDirect::test_direct_matches_naive_exhaustively",
            f"{ORACLE}::TestOracleTables::test_longest_run_at_and_past_the_table[X^20YXY^3X^2]",
        ),
    ),
    # goldberg_direct dividing by (s - 1)! per run of length s, not s!
    (
        "oracle.py",
        "den *= fact[s] ** k",
        "den *= fact[s - 1] ** k",
        (
            f"{ORACLE}::TestGoldbergDirect::test_direct_matches_naive_exhaustively",
            f"{ORACLE}::TestOracleTables::test_longest_run_at_and_past_the_table[X^21Y^2XY]",
        ),
    ),
    # goldberg_direct with slots sized for one run of each length
    (
        "oracle.py",
        "bound *= norm**k",
        "bound *= norm",
        (
            f"{ORACLE}::TestGoldbergDirect::test_matches_block_sum_reference_on_seeded_words",
            f"{ORACLE}::TestGoldbergDirect::test_pinned_long_words",
        ),
    ),
    # goldberg_direct: past the table, slots sized by H_s's signed sum, not its l1 norm
    (
        "oracle.py",
        "else sum(map(abs, polys[s - 1]))",
        "else sum(polys[s - 1])",
        (
            f"{ORACLE}::TestOracleTables::test_longest_run_at_and_past_the_table[X^21Y^2XY]",
            f"{ORACLE}::TestGoldbergDirect::test_cap_length_matches_closed_form",
        ),
    ),
    # word_texts: where the halves' boundary letters agree, text(u) + text(v)
    (
        "algebra.py",
        "pairs = ((closed, joined[0][last]), (whole, values[1]))",
        "pairs = ((whole, values[0]), (whole, values[1]))",
        (
            "tests/test_algebra.py::TestWordTables::test_texts_match_word_format_on_every_word",
            "tests/test_cli.py::TestTermsBytes::test_every_preset_and_format[standard-csv]",
        ),
    ),
    # run_class_keys without the first letter
    (
        "algebra.py",
        "map(add, keys, chain(repeat(0, 1 << (n - 1)), repeat(1, 1 << (n - 1))))",
        "map(add, keys, repeat(0))",
        (
            "tests/test_algebra.py::TestWordTables::test_keys_partition_the_words_into_run_classes",
            "tests/test_cli.py::TestVerifyPropertiesBytes::test_fail_path[text]",
        ),
    ),
    # run_class_keys weighing a run of length r by (n + 1)^(r - 2)
    (
        "algebra.py",
        "power = [(n + 1) ** (r - 1) for r in range(n + 1)]",
        "power = [(n + 1) ** (r - 2) for r in range(n + 1)]",
        (
            "tests/test_algebra.py::TestWordTables::test_keys_partition_the_words_into_run_classes",
            "tests/test_algebra.py::TestWordTables::test_keys_count_the_runs_of_each_length",
        ),
    ),
    # goldberg without the word-length cap; the oracle-mode cap test would
    # evaluate X^99999999 under this mutant, so only the engine-mode one runs
    (
        "cli.py",
        "word_parse(word_text, max_length=MAX_WORD_LENGTH)",
        "word_parse(word_text)",
        ("tests/test_cli.py::TestGoldberg::test_engine_word_above_cap_is_usage_error",),
    ),
    # _integer_form: the letter weight bound C from each factor's smaller weight
    (
        "engine.py",
        "bound += max(map(abs, pair))",
        "bound += min(map(abs, pair))",
        (
            f"{ENGINE}::TestEngineCoefficient::test_examples",
            f"{ENGINE}::TestGoldenTerms::test_standard_degree_five",
        ),
    ),
    # build_generator with its two letter weights swapped
    (
        "engine.py",
        "generator_combination(1 - letter, letter, degree)",
        "generator_combination(letter, 1 - letter, degree)",
        (
            f"{ENGINE}::TestGenerators::test_build_generator_x",
            f"{ENGINE}::TestGenerators::test_generator_is_the_unit_combination[X]",
        ),
    ),
    # _power_series, and so exp and log, without the k = 1 term
    (
        "engine.py",
        "for k in range(1, m.order):",
        "for k in range(2, m.order):",
        (
            f"{ENGINE}::TestExpLog::test_exp_truncates_at_first_power",
            f"{ENGINE}::TestExpLog::test_log_inverts_exp_on_generators",
        ),
    ),
    # FreePoly.__sub__ adding its right operand instead of subtracting it
    (
        "algebra.py",
        "((word, -coeff) for word, coeff in other._terms.items())",
        "((word, coeff) for word, coeff in other._terms.items())",
        (
            "tests/test_algebra.py::TestFreePoly::test_difference_keeps_left_then_right_words",
            "tests/test_algebra.py::TestFreePoly::test_cancelling_words_dropped",
        ),
    ),
    # _COMM_TERM reading coefficients with \d, which matches any Unicode decimal digit
    (
        "lie.py",
        r"(?P<num>[0-9]+)(?:/(?P<den>[0-9]+))?",
        r"(?P<num>\d+)(?:/(?P<den>\d+))?",
        (
            "tests/test_lie.py::TestCommParse::test_non_ascii_digits_rejected[numerator]",
            "tests/test_lie.py::TestCommParse::test_non_ascii_digits_rejected[denominator]",
        ),
    ),
    # _WORD_TOKEN reading exponents with \d, which matches any Unicode decimal digit
    (
        "algebra.py",
        r"(?:\^([0-9]+))?",
        r"(?:\^(\d+))?",
        (
            "tests/test_algebra.py::TestWordParse::test_non_ascii_digits",
            "tests/test_cli.py::TestGoldberg::test_non_ascii_digits_are_usage_error",
        ),
    ),
    # word_parse rejecting a word of exactly max_length letters
    (
        "algebra.py",
        "n + mult > max_length",
        "n + mult >= max_length",
        (
            "tests/test_algebra.py::TestWordParse::test_max_length",
            "tests/test_cli.py::TestGoldberg::test_every_mode_reaches_past_the_series_cap",
        ),
    ),
    # _merge keeping a word whose sum is zero
    (
        "algebra.py",
        "                del out[word]",
        "                out[word] = total",
        (
            "tests/test_algebra.py::TestFreePoly::test_zero_terms_dropped",
            "tests/test_algebra.py::TestFreePoly::test_cancelling_words_dropped",
            "tests/test_lie.py::TestCommParse::test_merges_repeated_words",
        ),
    ),
)


def run_row(file: str, old: str, new: str, tests: tuple[str, ...]) -> str:
    """'killed', 'SURVIVED' or 'STALE: <reason>' for one mutant."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "bchseries" / file
        text = path.read_text()
        if text.count(old) != 1:
            return f"STALE: the old text occurs {text.count(old)} times"
        path.write_text(text.replace(old, new))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
        )
    if result.returncode == 0:
        return "SURVIVED"
    if result.returncode == 1:
        return "killed"
    return f"STALE: pytest exit {result.returncode}"


def main() -> int:
    bad = 0
    for file, old, new, tests in MUTANTS:
        outcome = run_row(file, old, new, tests)
        bad += outcome != "killed"
        print(f"{outcome}: {file}: {old.strip()!r} -> {new.strip()!r}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
