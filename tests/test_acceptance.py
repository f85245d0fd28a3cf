"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every comparison is exact; the timed criteria assert their stated
wall-clock budgets.
"""

from __future__ import annotations

import time
from fractions import Fraction

from hypothesis import given, settings

from bchseries import (
    UTMatrix,
    all_words,
    bernoulli,
    bound_checks,
    census_sweep,
    engine_coefficient,
    goldberg_direct,
    goldberg_xy,
    nilpotent_exp,
    nilpotent_log,
    preset,
    property_suite,
    series_term,
    series_terms,
    word_parse,
)
from bchseries.engine import factor_matrix
from bchseries.forms import CLAIMED_FORMS, check_forms
from bchseries.lie import dynkin_series, expand_comm_poly
from conftest import spec_terms, strictly_upper_matrices
from test_engine import STANDARD_1, STANDARD_2, STANDARD_3, STANDARD_4

w = word_parse
F = Fraction

STANDARD_COUNTS = {
    2: 2, 3: 6, 4: 4, 5: 30, 6: 28, 7: 126, 8: 124,
    9: 390, 10: 388, 11: 2046, 12: 2044, 13: 8190,
}
SYMMETRIC_ODD_COUNTS = {3: 6, 5: 30, 7: 126, 9: 435, 11: 2046, 13: 8190}


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {status}{suffix}")
    assert ok, f"{criterion} failed{suffix}"


def test_c01_low_order_terms_exact():
    start = time.monotonic()
    terms = spec_terms(preset("standard"), 4)
    ok = (
        terms[0].body == STANDARD_1
        and terms[1].body == STANDARD_2
        and terms[2].body == STANDARD_3
        and terms[3].body == STANDARD_4
    )
    elapsed = time.monotonic() - start
    report("criterion 01 low-order terms", ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_c02_high_order_coefficients_exact():
    start = time.monotonic()
    checks = (
        engine_coefficient(w("X^4Y^4")) == F(23, 120960)
        and series_term(preset("standard"), 5).coeff(w("XYXYX")) == F(1, 30)
        and series_term(preset("standard"), 5).coeff(w("X^4Y")) == F(-1, 720)
        and series_term(preset("standard"), 7).coeff(w("X^6Y")) == F(1, 30240)
    )
    elapsed = time.monotonic() - start
    report("criterion 02 high-order coefficients", checks and elapsed < 30.0, f"{elapsed:.3f}s")


def test_c03_term_counts():
    count7 = len(series_term(preset("standard"), 7))
    count8 = len(series_term(preset("standard"), 8))
    report(
        "criterion 03 term counts",
        count7 == 126 and count8 == 124,
        f"degree 7: {count7}, degree 8: {count8}",
    )


def test_c04_standard_census_table():
    start = time.monotonic()
    to_eleven = {r.n: r.count for r in census_sweep(11, preset("standard"))}
    mid = time.monotonic() - start
    ok_eleven = all(to_eleven[n] == c for n, c in STANDARD_COUNTS.items() if n <= 11)
    counts = {r.n: r.count for r in census_sweep(13, preset("standard"))}
    elapsed = time.monotonic() - start
    ok = ok_eleven and counts == STANDARD_COUNTS
    report(
        "criterion 04 census table to degree 13",
        ok and mid < 60.0 and elapsed < 600.0,
        f"degrees<=11 in {mid:.2f}s, all in {elapsed:.2f}s",
    )


def test_c05_symmetric_census_table():
    start = time.monotonic()
    counts = {r.n: r.count for r in census_sweep(13, preset("symmetric"))}
    elapsed = time.monotonic() - start
    odd_ok = all(counts[n] == c for n, c in SYMMETRIC_ODD_COUNTS.items())
    even_ok = all(counts[n] == 0 for n in range(2, 13, 2))
    report(
        "criterion 05 symmetric census table",
        odd_ok and even_ok and elapsed < 600.0,
        f"{elapsed:.2f}s",
    )


def test_c06_oracle_equivalence():
    start = time.monotonic()
    mismatches = []
    total = 0
    for n in range(1, 9):
        for word in all_words(n):
            total += 1
            if goldberg_direct(word) != engine_coefficient(word):
                mismatches.append(word)
    elapsed = time.monotonic() - start
    report(
        "criterion 06 direct sum equals engine on all words to length 8",
        not mismatches and total == 510 and elapsed < 120.0,
        f"{total} words in {elapsed:.2f}s",
    )


def test_c07_nested_commutator_identity():
    start = time.monotonic()
    ok = all(
        expand_comm_poly(dynkin_series(n)) == series_term(preset("standard"), n)
        for n in range(1, 9)
    )
    elapsed = time.monotonic() - start
    report("criterion 07 nested-commutator identity to degree 8", ok and elapsed < 120.0, f"{elapsed:.2f}s")


def test_c08_commutator_form_claims():
    verdicts = check_forms(max(f.degree for f in CLAIMED_FORMS))
    assert len(verdicts) == len(CLAIMED_FORMS)
    strict_ok = all(v.matches for v in verdicts if v.form.strict)
    report_only = [v for v in verdicts if not v.form.strict]
    # report-only entries must produce a verdict with a non-empty diff and a
    # Lie-element engine term; agreement with the printed claim is not required
    report_ok = all(
        (not v.matches)
        and (not v.diff.is_zero())
        and v.engine_is_lie
        for v in report_only
    )
    labels = ", ".join(v.form.label for v in report_only)
    report(
        "criterion 08 commutator-form claims",
        strict_ok and report_ok,
        f"strict claims match; report-only diffs emitted for: {labels}",
    )


def test_c09_property_suite():
    start = time.monotonic()
    failed: list[str] = []
    for n in range(2, 11):
        suite = property_suite(n)
        for name, result in suite.checks.items():
            if not result.passed:
                failed.append(f"n={n}:{name}")
    explicit = (
        engine_coefficient(w("XY^2X")) == 0
        and engine_coefficient(w("X^2YX")) == 0
        and engine_coefficient(w("XYX^2")) == 0
    )
    elapsed = time.monotonic() - start
    report(
        "criterion 09 coefficient symmetry suite degrees 2..10",
        not failed and explicit and elapsed < 120.0,
        f"{elapsed:.2f}s" + (f"; failed: {failed}" if failed else ""),
    )


def test_c10_bound_suite():
    counts = {r.n: r.count for r in census_sweep(13, preset("standard"))}
    primes_ok = all(counts[p] == (1 << p) - 2 for p in (2, 3, 5, 7, 11, 13))
    evens_ok = True
    for n in range(4, 13, 2):
        bound = (1 << (n - 1)) - 4
        saturated = counts[n] == bound
        evens_ok = evens_ok and counts[n] <= bound and saturated == (n in (4, 6, 8, 12))
    ten_ok = counts[10] == 388 and counts[10] < 508
    structured = all(row.ok for row in bound_checks(13))
    report(
        "criterion 10 prime saturation and even bounds",
        primes_ok and evens_ok and ten_ok and structured,
        f"counts at primes {[counts[p] for p in (2, 3, 5, 7, 11, 13)]}",
    )


def test_c11_bernoulli_closed_form():
    start = time.monotonic()
    even_ok = True
    for m in range(1, 6):
        value = goldberg_xy(2 * m, 1)
        word = w(f"X^{2 * m}Y")
        even_ok = even_ok and value == bernoulli(2 * m) / _factorial(2 * m)
        even_ok = even_ok and value == goldberg_direct(word)
    odd_ok = True
    for m in range(1, 5):
        word = w(f"X^{2 * m + 1}Y")
        odd_ok = odd_ok and goldberg_xy(2 * m + 1, 1) == 0 == goldberg_direct(word)
    elapsed = time.monotonic() - start
    report("criterion 11 Bernoulli closed form", even_ok and odd_ok and elapsed < 10.0, f"{elapsed:.2f}s")


def _factorial(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


_log_exp_cases = {"count": 0}


@settings(max_examples=100, deadline=None)
@given(m=strictly_upper_matrices(max_order=6, max_terms_per_entry=2))
def test_c12a_log_exp_identity(m):
    _log_exp_cases["count"] += 1
    assert nilpotent_log(nilpotent_exp(m)) == m


def test_c12b_grading_and_summary():
    ok_cases = _log_exp_cases["count"] >= 100
    graded_ok = True
    for name in ("standard", "symmetric"):
        factors = preset(name).factors
        partial = UTMatrix.identity(9)
        for factor in factors:
            step = factor_matrix(factor, 8)
            graded_ok = graded_ok and step.is_graded()
            partial = partial @ step
            graded_ok = graded_ok and partial.is_graded()
        a = partial - UTMatrix.identity(9)
        power = a
        for _ in range(8):
            graded_ok = graded_ok and power.is_graded()
            power = power @ a
        graded_ok = graded_ok and nilpotent_log(partial).is_graded()
    report(
        "criterion 12 engine self-consistency",
        ok_cases and graded_ok,
        f"{_log_exp_cases['count']} random log(exp(M))=M cases; grading holds to degree 8",
    )
