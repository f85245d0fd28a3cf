"""Census of non-zero coefficients and checks of their symmetry properties.

The census counts, per degree, the words carrying a non-zero coefficient in a
variant's series, and compares against the 2^n - 2 ceiling, the prime-length
saturation rule, and the even-length bound 2^(n-1) - 4.  The property suite
checks the coefficient symmetries (fixed-length and fixed-content zero sums,
run-exponent permutation invariance, cyclic-shift zero sums, interchange and
reversal sign rules, palindrome-concatenation zeros, and the vanishing rule
for even-length words with an odd number of runs).  The counts read a term's
non-zero marks and the checks its dense ints, both indexed by Word.bits:
interchange is an XOR with the all-ones mask, reversal a bit reversal,
content and rotation classes are keyed by the bits, and run classes by
algebra.run_class_keys, one integer per word joined from two half tables.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Iterator, NamedTuple

from .algebra import Word, run_class_keys
from .engine import PRESETS, SeriesTerm, VariantPreset, series_terms


class CensusRecord(NamedTuple):
    """Non-zero coefficient count at one degree of one variant."""

    n: int
    count: int
    variant: str

    @property
    def bound(self) -> int:
        """The ceiling 2^n - 2."""
        return (1 << self.n) - 2

    @property
    def ratio(self) -> Fraction | None:
        """count / bound, or None where the bound is 0."""
        return Fraction(self.count, self.bound) if self.bound > 0 else None


def census_sweep(max_n: int, variant: VariantPreset) -> list[CensusRecord]:
    """Census records for n = 2..max_n, from a single series run."""
    if max_n < 2:
        raise ValueError(f"max_n must be >= 2, got {max_n}")
    terms = series_terms(variant, max_n)[1:]
    return [CensusRecord(term.degree, term.count, variant.name) for term in terms]


class CheckResult(NamedTuple):
    passed: bool
    witness: Word | None


class PropertyReport(NamedTuple):
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


def property_suite(n: int) -> PropertyReport:
    """Run the eight coefficient-symmetry checks at degree n (n >= 2)."""
    if n < 2:
        raise ValueError(f"property suite needs n >= 2, got {n}")
    return _property_report(series_terms(PRESETS["standard"], n)[-1])


def property_sweep(max_n: int) -> Iterator[PropertyReport]:
    """Property reports for n = 2..max_n, from a single series run.

    The series is computed at once; each report is made as it is read, so a
    caller can print one degree before the next is checked.
    """
    if max_n < 2:
        raise ValueError(f"max_n must be >= 2, got {max_n}")
    return map(_property_report, series_terms(PRESETS["standard"], max_n)[1:])


def _property_report(term: SeriesTerm) -> PropertyReport:
    """The eight checks on one term of the standard series.

    Each witness is the first failing word in all_words order, that is, the
    least failing bits.
    """
    n = term.degree
    v, _ = term.to_dense()
    size, mask = 1 << n, (1 << n) - 1
    sign = 1 if n % 2 else -1
    rev = [0] * size
    for bits in range(1, size):
        rev[bits] = (rev[bits >> 1] >> 1) | ((bits & 1) << (n - 1))
    checks: dict[str, CheckResult] = {}

    def first_failure(name: str, failing: Iterable[int]) -> None:
        bits = next(iter(failing), None)
        checks[name] = CheckResult(bits is None, None if bits is None else Word(n, bits))

    first_failure("fixed_length_sum", [0] if sum(v) else [])

    content_sums = [0] * (n + 1)  # by the number of X letters
    for bits, c in enumerate(v):
        if c:
            content_sums[n - bits.bit_count()] += c
    # the witness X^k Y^(n-k) names the first content k with a non-zero sum
    first_failure(
        "fixed_content_sum", ((1 << (n - k)) - 1 for k, total in enumerate(content_sums) if total)
    )

    classes = list(run_class_keys(n))
    class_value: dict[int, int] = {}
    mixed = set()
    for key, c in zip(classes, v):
        if class_value.setdefault(key, c) != c:
            mixed.add(key)
    first_failure("exponent_permutation", (bits for bits in range(size) if classes[bits] in mixed))

    # Visiting the bits in order, an unseen word is the least of its rotation
    # class, so the first class with a non-zero sum holds the first failing
    # word.  A word of period p meets its class n/p times among its n shifts,
    # so the shift sum vanishes exactly when the class sum does.
    seen = bytearray(size)

    def unbalanced_rotation_classes() -> Iterator[int]:
        for bits in range(size):
            if not seen[bits]:
                members = {((bits << i) | (bits >> (n - i))) & mask for i in range(n)}
                for r in members:
                    seen[r] = 1
                if sum(v[r] for r in members):
                    yield bits

    first_failure("cyclic_shift_sum", unbalanced_rotation_classes())

    first_failure(
        "interchange_sign", (bits for bits in range(size) if v[bits ^ mask] != sign * v[bits])
    )

    # reverse(interchange(w)) has the bits rev[bits] ^ mask
    first_failure(
        "reversal_rules",
        (
            bits
            for bits in range(size)
            if v[rev[bits] ^ mask] != v[bits] or v[rev[bits]] != sign * v[bits]
        ),
    )

    if n % 2 == 0:
        half = n // 2
        # u concatenated with its reverse; rev of the n-bit u << half is u reversed
        palindromes = ((u << half) | rev[u << half] for u in range(1 << half))
        first_failure("palindrome_concatenation", (bits for bits in palindromes if v[bits]))
        # a word has one run more than it has changes between adjacent letters
        first_failure(
            "odd_run_count_even_length",
            (
                bits
                for bits in range(size)
                if v[bits] and not ((bits ^ (bits >> 1)) & (mask >> 1)).bit_count() % 2
            ),
        )
    else:
        checks["palindrome_concatenation"] = CheckResult(True, None)
        checks["odd_run_count_even_length"] = CheckResult(True, None)

    return PropertyReport(n=n, checks=checks)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class BoundRow(NamedTuple):
    """Census count of the standard series at one degree against its bounds.

    At prime n the count must equal 2^n - 2.  At even n >= 4 the count must be
    <= 2^(n-1) - 4, with equality exactly when n - 1 is prime.  A field of a
    rule that does not apply at n is None.
    """

    n: int
    count: int

    @property
    def prime(self) -> bool:
        return _is_prime(self.n)

    @property
    def prime_saturated(self) -> bool | None:
        return self.count == (1 << self.n) - 2 if self.prime else None

    @property
    def even_bound(self) -> int | None:
        return (1 << (self.n - 1)) - 4 if self.n % 2 == 0 and self.n >= 4 else None

    @property
    def even_bound_holds(self) -> bool | None:
        bound = self.even_bound
        return None if bound is None else self.count <= bound

    @property
    def even_saturated(self) -> bool | None:
        bound = self.even_bound
        return None if bound is None else self.count == bound

    @property
    def even_saturation_expected(self) -> bool | None:
        return None if self.even_bound is None else _is_prime(self.n - 1)

    @property
    def ok(self) -> bool:
        return (
            self.prime_saturated is not False
            and self.even_bound_holds is not False
            and self.even_saturated == self.even_saturation_expected
        )


def bound_checks(max_n: int) -> list[BoundRow]:
    """The bound rows of the standard series for n = 2..max_n."""
    return [BoundRow(r.n, r.count) for r in census_sweep(max_n, PRESETS["standard"])]


class OccurrenceProfile(NamedTuple):
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


def letter_occurrence_profile(n: int, variant: VariantPreset) -> OccurrenceProfile:
    """Per-position letter counts and maximal-run histograms at degree n.

    The counts read the term's non-zero marks, where letter i of Word(n, bits)
    is bit n - 1 - i and Y is a set bit.  by_prefix[j][u] counts the non-zero
    words whose bits above the lowest j are u, so sum(by_prefix[j][p::2^w])
    counts those whose bits j..j+w-1 hold the pattern p.  A maximal run is
    such a pattern: its letters, bounded by the other letter on each side
    that is not an end of the word.
    """
    by_prefix = [series_terms(variant, n)[-1].marks()]
    for _ in range(n):
        level = by_prefix[-1]
        by_prefix.append(list(map(add, level[::2], level[1::2])))
    term_count = by_prefix[n][0]
    y_positions = [sum(by_prefix[n - 1 - i][1::2]) for i in range(n)]
    histograms: tuple[dict[int, int], dict[int, int]] = ({}, {})
    for y, hist in enumerate(histograms):
        other = 1 - y
        for lo in range(n):
            for k in range(1, n - lo + 1):
                start, width, pattern = lo, k, ((1 << k) - 1) * y
                if lo:
                    start, width, pattern = lo - 1, k + 1, (pattern << 1) | other
                if lo + k < n:
                    pattern |= other << width
                    width += 1
                found = sum(by_prefix[start][pattern :: 1 << width])
                if found:
                    hist[k] = hist.get(k, 0) + found
    x_hist, y_hist = histograms
    return OccurrenceProfile(
        n=n,
        term_count=term_count,
        x_position_counts=tuple(term_count - y for y in y_positions),
        y_position_counts=tuple(y_positions),
        x_run_histogram=dict(sorted(x_hist.items())),
        y_run_histogram=dict(sorted(y_hist.items())),
    )
