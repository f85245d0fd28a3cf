"""Census of non-zero coefficients and checks of their symmetry properties.

The census counts, per degree, the words carrying a non-zero coefficient in a
variant's series, and compares against the 2^n - 2 ceiling, the prime-length
saturation rule, and the even-length bound 2^(n-1) - 4.  The property suite
checks the coefficient symmetries (fixed-length and fixed-content zero sums,
run-exponent permutation invariance, cyclic-shift zero sums, interchange and
reversal sign rules, palindrome-concatenation zeros, and the vanishing rule
for even-length words with an odd number of runs).  Run classes and run
counts are read from the word bits through Word.runs().
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .algebra import (
    Letter,
    Word,
    X,
    Y,
    all_words,
    interchange,
    reverse,
)
from .engine import PRESETS, SeriesTerm, VariantPreset, series_term, series_terms

_ZERO = Fraction(0)


@dataclass(frozen=True)
class CensusRecord:
    """Non-zero coefficient count at one degree of one variant."""

    n: int
    count: int
    bound: int
    ratio: Fraction | None
    variant: str


def _census_record(term: SeriesTerm, variant: VariantPreset) -> CensusRecord:
    count = len(term.body)
    bound = (1 << term.degree) - 2
    ratio = Fraction(count, bound) if bound > 0 else None
    return CensusRecord(term.degree, count, bound, ratio, variant.name)


def census(n: int, variant: VariantPreset) -> CensusRecord:
    """Count the words of length n with a non-zero coefficient."""
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    return _census_record(series_terms(variant, n)[-1], variant)


def census_sweep(max_n: int, variant: VariantPreset) -> list[CensusRecord]:
    """Census records for n = 2..max_n, from a single series run."""
    if max_n < 2:
        raise ValueError(f"max_n must be >= 2, got {max_n}")
    return [_census_record(term, variant) for term in series_terms(variant, max_n)[1:]]


def census_to_csv(records: list[CensusRecord]) -> str:
    """CSV with header n,count,bound,ratio_num,ratio_den,variant."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["n", "count", "bound", "ratio_num", "ratio_den", "variant"])
    for r in records:
        ratio = r.ratio if r.ratio is not None else Fraction(0)
        writer.writerow([r.n, r.count, r.bound, ratio.numerator, ratio.denominator, r.variant])
    return buffer.getvalue()


def census_to_json(records: list[CensusRecord]) -> str:
    rows = []
    for r in records:
        ratio = r.ratio if r.ratio is not None else Fraction(0)
        rows.append(
            {
                "n": r.n,
                "count": r.count,
                "bound": r.bound,
                "ratio_num": str(ratio.numerator),
                "ratio_den": str(ratio.denominator),
                "variant": r.variant,
            }
        )
    return json.dumps(rows, indent=2) + "\n"


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    witness: Word | None


@dataclass(frozen=True)
class PropertyReport:
    n: int
    checks: dict[str, CheckResult]

    @property
    def ok(self) -> bool:
        return all(result.passed for result in self.checks.values())


PROPERTY_NAMES: tuple[str, ...] = (
    "fixed_length_sum",
    "fixed_content_sum",
    "exponent_permutation",
    "cyclic_shift_sum",
    "interchange_sign",
    "reversal_rules",
    "palindrome_concatenation",
    "odd_run_count_even_length",
)


def _run_class(w: Word) -> tuple[Letter, tuple[int, ...]]:
    """The first letter and sorted run multiplicities: the words that permute w's runs."""
    runs = w.runs()
    return runs[0][0], tuple(sorted(mult for _, mult in runs))


def _least_rotation(w: Word) -> int:
    """The least bits among w's cyclic shifts: one key per rotation class."""
    doubled, mask = (w.bits << w.length) | w.bits, (1 << w.length) - 1
    return min((doubled >> i) & mask for i in range(w.length))


def property_suite(n: int) -> PropertyReport:
    """Run the eight coefficient-symmetry checks at degree n (n >= 2)."""
    if n < 2:
        raise ValueError(f"property suite needs n >= 2, got {n}")
    body = series_term(PRESETS["standard"], n)
    coeff = body.coeff
    sign = Fraction((-1) ** (n + 1))
    checks: dict[str, CheckResult] = {}

    def per_word(name: str, predicate: Callable[[Word], bool]) -> None:
        witness = None
        for w in all_words(n):
            if not predicate(w):
                witness = w
                break
        checks[name] = CheckResult(witness is None, witness)

    total = sum(c for _, c in body.items())
    checks["fixed_length_sum"] = CheckResult(
        total == 0, None if total == 0 else Word(n, 0)
    )

    content_sums: dict[int, Fraction] = {}
    for w, c in body.items():
        content_sums[w.count_x] = content_sums.get(w.count_x, _ZERO) + c
    bad_content = next((nx for nx, s in sorted(content_sums.items()) if s != 0), None)
    if bad_content is None:
        checks["fixed_content_sum"] = CheckResult(True, None)
    else:
        runs = [(X, bad_content), (Y, n - bad_content)]
        witness = Word.from_runs([run for run in runs if run[1] > 0])
        checks["fixed_content_sum"] = CheckResult(False, witness)

    class_values: dict[tuple[Letter, tuple[int, ...]], set[Fraction]] = {}
    for w in all_words(n):
        class_values.setdefault(_run_class(w), set()).add(coeff(w))
    per_word("exponent_permutation", lambda w: len(class_values[_run_class(w)]) == 1)

    # a word of period p meets its rotation class n/p times among its n shifts,
    # so the shift sum vanishes exactly when the class sum does
    rotation_sums: dict[int, Fraction] = {}
    for w in all_words(n):
        key = _least_rotation(w)
        rotation_sums[key] = rotation_sums.get(key, _ZERO) + coeff(w)
    per_word("cyclic_shift_sum", lambda w: rotation_sums[_least_rotation(w)] == 0)

    per_word("interchange_sign", lambda w: coeff(interchange(w)) == sign * coeff(w))

    per_word(
        "reversal_rules",
        lambda w: coeff(reverse(interchange(w))) == coeff(w)
        and coeff(reverse(w)) == sign * coeff(w),
    )

    if n % 2 == 0:
        half = n // 2
        witness = None
        for u in all_words(half):
            if coeff(u.concat(reverse(u))) != 0:
                witness = u.concat(reverse(u))
                break
        checks["palindrome_concatenation"] = CheckResult(witness is None, witness)

        def odd_runs_ok(w: Word) -> bool:
            if len(w.runs()) % 2 == 0:
                return True
            return coeff(w) == 0

        per_word("odd_run_count_even_length", odd_runs_ok)
    else:
        checks["palindrome_concatenation"] = CheckResult(True, None)
        checks["odd_run_count_even_length"] = CheckResult(True, None)

    ordered = {name: checks[name] for name in PROPERTY_NAMES}
    return PropertyReport(n=n, checks=ordered)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class BoundRow:
    """Census count at one degree against the prime / even-length bounds."""

    n: int
    count: int
    prime: bool
    prime_saturated: bool | None
    even_bound: int | None
    even_bound_holds: bool | None
    even_saturated: bool | None
    even_saturation_expected: bool | None

    @property
    def ok(self) -> bool:
        if self.prime and self.prime_saturated is False:
            return False
        if self.even_bound_holds is False:
            return False
        if self.even_saturated is not None and self.even_saturated != self.even_saturation_expected:
            return False
        return True


@dataclass(frozen=True)
class BoundReport:
    rows: list[BoundRow]

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)


def bound_checks(max_n: int) -> BoundReport:
    """Check prime saturation and the even-length bound for n = 2..max_n.

    The rules are stated for the standard series.  At prime n the count must
    equal 2^n - 2.  At even n >= 4 the count must be <= 2^(n-1) - 4, with
    equality exactly when n - 1 is prime.
    """
    records = census_sweep(max_n, PRESETS["standard"])
    rows = []
    for record in records:
        n = record.n
        prime = _is_prime(n)
        prime_saturated = record.count == (1 << n) - 2 if prime else None
        if n % 2 == 0 and n >= 4:
            even_bound = (1 << (n - 1)) - 4
            even_bound_holds = record.count <= even_bound
            even_saturated = record.count == even_bound
            even_saturation_expected = _is_prime(n - 1)
        else:
            even_bound = None
            even_bound_holds = None
            even_saturated = None
            even_saturation_expected = None
        rows.append(
            BoundRow(
                n=n,
                count=record.count,
                prime=prime,
                prime_saturated=prime_saturated,
                even_bound=even_bound,
                even_bound_holds=even_bound_holds,
                even_saturated=even_saturated,
                even_saturation_expected=even_saturation_expected,
            )
        )
    return BoundReport(rows)


@dataclass(frozen=True)
class OccurrenceProfile:
    """Letter bookkeeping over the non-zero words of one series term.

    position_counts[i] counts the words whose i-th letter is the given
    letter; run_histogram[k] counts maximal runs of exactly k copies of it.
    The weighted run total always equals the sum of the position counts.
    """

    n: int
    term_count: int
    x_position_counts: tuple[int, ...]
    y_position_counts: tuple[int, ...]
    x_run_histogram: dict[int, int]
    y_run_histogram: dict[int, int]

    @property
    def x_total(self) -> int:
        return sum(self.x_position_counts)

    @property
    def y_total(self) -> int:
        return sum(self.y_position_counts)

    @property
    def consistent(self) -> bool:
        weighted_x = sum(k * c for k, c in self.x_run_histogram.items())
        weighted_y = sum(k * c for k, c in self.y_run_histogram.items())
        return weighted_x == self.x_total and weighted_y == self.y_total


def letter_occurrence_profile(n: int, variant: VariantPreset | None = None) -> OccurrenceProfile:
    """Per-position letter counts and maximal-run histograms at degree n."""
    variant = variant if variant is not None else PRESETS["standard"]
    body = series_term(variant, n)
    x_positions = [0] * n
    y_positions = [0] * n
    x_hist: dict[int, int] = {}
    y_hist: dict[int, int] = {}
    for w in body.words():
        for i, letter in enumerate(w.letters()):
            if letter == X:
                x_positions[i] += 1
            else:
                y_positions[i] += 1
        for letter, mult in w.runs():
            hist = x_hist if letter == X else y_hist
            hist[mult] = hist.get(mult, 0) + 1
    return OccurrenceProfile(
        n=n,
        term_count=len(body),
        x_position_counts=tuple(x_positions),
        y_position_counts=tuple(y_positions),
        x_run_histogram=dict(sorted(x_hist.items())),
        y_run_histogram=dict(sorted(y_hist.items())),
    )
