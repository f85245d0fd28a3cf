"""Series terms of ln(prod_i exp(a_i X + b_i Y)) via nilpotent matrices.

The paper's route: with X_N and Y_N the (N+1)x(N+1) matrices carrying the
letters X and Y on the first superdiagonal, the degree-1..N terms are the
first row of log(prod_i exp(a_i X_N + b_i Y_N)).  Both exp and log are one
finite power series, _power_series, because every strictly upper-triangular
matrix of order N+1 is nilpotent of index <= N+1.  Entries are genuinely
noncommutative FreePoly values, so no positional decoration of the
generators is needed.  UTMatrix, nilpotent_exp, nilpotent_log, factor_matrix
and product_matrix implement this route as written; it is the spec route
that series_terms is tested against.

Every matrix in that pipeline is upper-triangular Toeplitz: entry (i, j)
depends only on j - i and is homogeneous of word degree j - i.  Such a matrix
is fixed by its first row, a graded series truncated at degree N, and the
matrix product is the series product.  So series_terms works on first rows
only, in exact integers: the degree-d part is scaled by d! * L^d, with L the
lcm of the factor denominators, and by M = lcm(1..N) in the logarithm, and
packed into one int whose fixed-width slots hold its 2^d coefficients.  Each
factor exp(a X + b Y) multiplies a series from the left by one big-int step
per prefix level (_factor_mul), chosen once by the shape of its weights aL
and bL, which _integer_form scales once per series: a one-letter factor
multiplies once, X + Y and X - Y once for both letters, none of them for a
unit weight, and any other pair twice.  M * log(1 + A), with A = P - 1
and P the product, is evaluated by Horner's rule, each step A * R = P * R - R
with R passed through every factor, so P is never stored: about 2^(N+3) slots
of work per factor in about N^3/6 operations.  Every step is linear, so only
the final coefficients must fit a slot.  The proved width, _slot_width, adds
the log's path sums with no signs; for the built-in factor tuples at
N <= MAX_DEGREE, _SLOT_BYTES gives the narrower slots that their values were
found to need, and the series takes the smaller of the two.  Any other factor
tuple or N keeps the proved width.

Each part then becomes a terms.SeriesTerm that keeps the part's bytes over
one denominator.  The census, the bound checks and the letter profile count
its non-zero slots from those bytes alone; the property, Dynkin and rendering
consumers decode its 2^d ints once with to_dense(), and .body builds a
Fraction/FreePoly copy.  Nothing is cached, so no state changes after import.
Memory doubles per degree, for the packed parts and their bytes, so the
command-line interface caps the degree at MAX_DEGREE.

One coefficient does not need the series.  Reinsch's word-specialised
matrices (J. Math. Phys. 41 (2000) 2434) replace X and Y by scalar
(n+1)x(n+1) matrices that carry the letters of one word w of length n on
their superdiagonal; entry (0, n) of the logarithm of the product is then
the coefficient of w.  word_coefficient evaluates that entry as an integer
path sum in one pass over the word, for any preset, in time polynomial in n,
from the same _integer_form as the series, so the two routes scale a preset
alike; engine_coefficient is its standard-product case and runs no series.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm
from operator import add, sub
from typing import Callable, Iterable, NamedTuple, Sequence

from .algebra import Coeff, FreePoly, Letter, Word
from .terms import SeriesTerm, _slot_size


class ExpFactor(NamedTuple):
    """One factor exp(a*X + b*Y) in a product of exponentials."""

    a: Fraction
    b: Fraction


def exp_factor(a: Coeff, b: Coeff) -> ExpFactor:
    return ExpFactor(Fraction(a), Fraction(b))


class VariantPreset(NamedTuple):
    """A named ordered product of exponentials whose log defines a series."""

    name: str
    factors: tuple[ExpFactor, ...]


PRESETS: dict[str, VariantPreset] = {
    preset.name: preset
    for preset in (
        VariantPreset("standard", (exp_factor(1, 0), exp_factor(0, 1))),
        VariantPreset(
            "symmetric",
            (exp_factor(Fraction(1, 2), 0), exp_factor(0, 1), exp_factor(Fraction(1, 2), 0)),
        ),
        VariantPreset(
            "loop",
            (exp_factor(1, 0), exp_factor(0, 1), exp_factor(-1, 0), exp_factor(0, -1)),
        ),
        VariantPreset(
            "triangular",
            (exp_factor(-1, 0), exp_factor(1, 1), exp_factor(0, -1)),
        ),
        VariantPreset("sum_difference", (exp_factor(1, 1), exp_factor(1, -1))),
        VariantPreset(
            "highly_symmetrized",
            (
                exp_factor(Fraction(-1, 2), Fraction(-1, 2)),
                exp_factor(Fraction(1, 2), 0),
                exp_factor(0, 1),
                exp_factor(Fraction(1, 2), 0),
                exp_factor(Fraction(-1, 2), Fraction(-1, 2)),
            ),
        ),
        VariantPreset(
            "symmetric_sum_difference",
            (
                exp_factor(Fraction(1, 2), Fraction(-1, 2)),
                exp_factor(1, 1),
                exp_factor(Fraction(1, 2), Fraction(-1, 2)),
            ),
        ),
        VariantPreset(
            "highly_symmetrized_sum_difference",
            (
                exp_factor(-1, 0),
                exp_factor(Fraction(1, 2), Fraction(-1, 2)),
                exp_factor(1, 1),
                exp_factor(Fraction(1, 2), Fraction(-1, 2)),
                exp_factor(-1, 0),
            ),
        ),
    )
}

PRESET_NAMES: tuple[str, ...] = tuple(PRESETS)

# The largest degree, or word length, that the command-line interface sends
# to series_terms.  Its memory doubles per degree, for the packed parts and bytes.
MAX_DEGREE = 20

# The slot bytes that the final values of each preset's series need at
# N = 1..MAX_DEGREE, found by exhaustion: tests/test_engine.py::TestSlotTable
# recomputes every series at the proved width and checks each entry against
# its values.  Keyed by the factors, not the name, so that another preset under
# a built-in name keeps the proved width.
_SLOT_BYTES: dict[tuple[ExpFactor, ...], bytes] = {
    PRESETS[name].factors: bytes(map(int, row.split()))
    for name, row in (
        ("standard", "1 1 1 1 2 2 2 4 4 4 4 8 8 8 8 8 8 8 9 9"),
        ("symmetric", "1 1 1 1 2 2 4 4 4 4 8 8 8 8 8 8 10 10 11 11"),
        ("loop", "1 1 1 2 2 2 4 4 4 4 8 8 8 8 8 8 8 9 10 10"),
        ("triangular", "1 1 1 1 2 2 2 4 4 4 4 8 8 8 8 8 8 8 9 9"),
        ("sum_difference", "1 1 1 1 2 2 4 4 4 4 8 8 8 8 8 8 8 9 10 10"),
        ("highly_symmetrized", "1 1 1 1 2 2 4 4 4 4 8 8 8 8 8 8 9 9 11 11"),
        ("symmetric_sum_difference", "1 1 2 2 4 4 4 4 8 8 8 8 8 8 9 9 10 10 12 12"),
        ("highly_symmetrized_sum_difference", "1 1 2 2 2 2 4 4 8 8 8 8 8 8 9 9 10 10 12 12"),
    )
}

# The longest word the command-line interface sends to word_coefficient or to
# oracle.goldberg_direct, in every goldberg mode.  word_coefficient takes at
# most one multiply-add per factor and pair of positions; X^128 and X^127Y
# took 0.09-0.11 s for the standard product and 0.33-0.45 s for
# symmetric_sum_difference, the slowest preset, on a 2-vCPU Xeon VM (Python
# 3.11).  Goldberg's integral builds H_2..H_s for the longest run s, takes one
# packed power per distinct run length and reads at most n slots; on the same
# VM X^128 and X^127Y took 1.8-1.9 ms each.
MAX_WORD_LENGTH = 128


def preset(name: str) -> VariantPreset:
    """Look up one of the built-in variant presets by name."""
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; expected one of {', '.join(PRESETS)}") from None


class UTMatrix:
    """A square matrix of FreePoly entries, sized (N+1)x(N+1) for degree N."""

    __slots__ = ("order", "rows")

    def __init__(self, rows: Sequence[Sequence[FreePoly]]):
        order = len(rows)
        if any(len(row) != order for row in rows):
            raise ValueError("matrix must be square")
        self.order = order
        self.rows = tuple(tuple(row) for row in rows)

    @classmethod
    def zeros(cls, order: int) -> "UTMatrix":
        zero = FreePoly.zero()
        return cls([[zero] * order for _ in range(order)])

    @classmethod
    def identity(cls, order: int) -> "UTMatrix":
        zero = FreePoly.zero()
        one = FreePoly.one()
        return cls([[one if i == j else zero for j in range(order)] for i in range(order)])

    def entry(self, i: int, j: int) -> FreePoly:
        return self.rows[i][j]

    @property
    def degree(self) -> int:
        """The truncation degree N (order minus one)."""
        return self.order - 1

    def __eq__(self, other: object) -> bool:
        if isinstance(other, UTMatrix):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.rows)

    def __add__(self, other: "UTMatrix") -> "UTMatrix":
        return self._entrywise(add, other)

    def __sub__(self, other: "UTMatrix") -> "UTMatrix":
        return self._entrywise(sub, other)

    def _entrywise(self, op: Callable, other: "UTMatrix") -> "UTMatrix":
        self._check_order(other)
        return UTMatrix([list(map(op, *rows)) for rows in zip(self.rows, other.rows)])

    def scale(self, scalar: Coeff) -> "UTMatrix":
        return UTMatrix([[entry.scale(scalar) for entry in row] for row in self.rows])

    def __matmul__(self, other: "UTMatrix") -> "UTMatrix":
        self._check_order(other)
        n = self.order
        zero = FreePoly.zero()
        out = []
        for i in range(n):
            row_i = self.rows[i]
            out_row = []
            for j in range(n):
                acc = zero
                for k in range(n):
                    left = row_i[k]
                    if not left:
                        continue
                    right = other.rows[k][j]
                    if right:
                        acc = acc + left * right
                out_row.append(acc)
            out.append(out_row)
        return UTMatrix(out)

    def _check_order(self, other: "UTMatrix") -> None:
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")

    def is_strictly_upper(self) -> bool:
        return all(
            self.rows[i][j].is_zero()
            for i in range(self.order)
            for j in range(self.order)
            if j <= i
        )

    def has_unit_diagonal(self) -> bool:
        return (self - UTMatrix.identity(self.order)).is_strictly_upper()

    def is_graded(self) -> bool:
        """Whether every entry (i, j) is homogeneous of word degree j - i, so zero where j < i."""
        return all(
            w.length == j - i
            for i, row in enumerate(self.rows)
            for j, entry in enumerate(row)
            for w in entry.words()
        )


def build_generator(letter: Letter, degree: int) -> UTMatrix:
    """The (N+1)x(N+1) generator: the given letter on the first superdiagonal."""
    return generator_combination(1 - letter, letter, degree)


def generator_combination(a: Coeff, b: Coeff, degree: int) -> UTMatrix:
    """The matrix a*X_N + b*Y_N: a X + b Y on the first superdiagonal."""
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    combo = FreePoly({Word(1, 0): Fraction(a), Word(1, 1): Fraction(b)})
    zero = FreePoly.zero()
    order = degree + 1
    return UTMatrix(
        [[combo if j == i + 1 else zero for j in range(order)] for i in range(order)]
    )


def _power_series(m: UTMatrix, coefficient: Callable[[int], Fraction]) -> UTMatrix:
    """sum_{k>=1} coefficient(k) M^k for a strictly upper-triangular M: M^k = 0 past its degree."""
    acc = UTMatrix.zeros(m.order)
    power = None
    for k in range(1, m.order):
        power = m if power is None else power @ m
        acc = acc + power.scale(coefficient(k))
    return acc


def nilpotent_exp(m: UTMatrix) -> UTMatrix:
    """exp(M) = I + M + M^2/2! + ... + M^N/N! for strictly upper-triangular M."""
    if not m.is_strictly_upper():
        raise ValueError("nilpotent_exp requires a strictly upper-triangular matrix")
    return UTMatrix.identity(m.order) + _power_series(m, lambda k: Fraction(1, factorial(k)))


def nilpotent_log(p: UTMatrix) -> UTMatrix:
    """log(P) = sum_{k=1}^{N} (-1)^(k-1) (P - I)^k / k for unit-diagonal P."""
    if not p.has_unit_diagonal():
        raise ValueError("nilpotent_log requires a unit diagonal and zero entries below it")
    return _power_series(p - UTMatrix.identity(p.order), lambda k: Fraction((-1) ** (k - 1), k))


def factor_matrix(factor: ExpFactor, degree: int) -> UTMatrix:
    """exp(a*X_N + b*Y_N) for one preset factor."""
    return nilpotent_exp(generator_combination(factor.a, factor.b, degree))


def product_matrix(factors: Iterable[ExpFactor], degree: int) -> UTMatrix:
    """The ordered product of the factor exponentials."""
    acc = UTMatrix.identity(degree + 1)
    for factor in factors:
        acc = acc @ factor_matrix(factor, degree)
    return acc


def _surjection_rows(n: int) -> list[list[int]]:
    """Row i holds k! S(i, k), the maps of an i-set onto a k-set, for k = 0..i; i = 0..n."""
    rows = [[1]]
    for i in range(n):
        row = rows[-1]
        rows.append([k * (a + b) for k, a, b in zip(range(i + 2), [0] + row, row + [0])])
    return rows


# max_k k! S(n, k) for the word lengths n <= MAX_DEGREE, which are queried one
# word at a time in bulk: the row costs as much as the word's own path sum
_MOST_SURJECTIONS = tuple(map(max, _surjection_rows(MAX_DEGREE)))


def _slot_width(n: int, bound: int, m: int = 0) -> int:
    """Bits for a signed slot of Reinsch path sums of words of length n.

    With values at position v scaled by v! L^v, L the lcm of the factor
    denominators, and bound C = sum_f max(|a_f L|, |b_f L|), 0 or a positive
    integer, a block of the product minus the identity from u to v weighs at
    most comb(v, u) C^(v-u) (by the multinomial theorem).  A k-block path
    with block lengths l_1..l_k weighs at most n! / (l_1! ... l_k!) C^n, and
    these multinomials summed over the compositions of n into k parts count
    the surjections of an n-set onto a k-set, k! S(n, k).  So the k-block
    path sum P_k is at most k! S(n, k) C^n in absolute value, with equality
    when every letter weighs C and no sign cancels.  With m = 0 a slot holds
    one P_k (word_coefficient); with m > 0 it holds sum_k +-(m/k) P_k (the
    series), at most C^n sum_k (m/k) k! S(n, k).  Both bounds grow with n, so
    they also hold every shorter word, and the width leaves them below
    2^(width-1).
    """
    if m:
        total = sum(m // k * s for k, s in enumerate(_surjection_rows(n)[n]) if k)
    elif n <= MAX_DEGREE:
        total = _MOST_SURJECTIONS[n]
    else:
        total = max(_surjection_rows(n)[n])
    return (total * bound**n).bit_length() + 1


def _integer_form(factors: Sequence[ExpFactor]) -> tuple[int, list[tuple[int, int]], int]:
    """(L, weights, C), the integer form that both the series and the word route read.

    L is the lcm of the factor denominators, weights holds each factor's (a L, b L) in
    order, and C = sum_f max(|a_f L|, |b_f L|) is the letter weight bound of _slot_width.
    """
    scale = lcm(*[q.denominator for factor in factors for q in factor])
    weights = []
    bound = 0
    for a, b in factors:
        pair = (a.numerator * (scale // a.denominator), b.numerator * (scale // b.denominator))
        bound += max(map(abs, pair))
        weights.append(pair)
    return scale, weights, bound


def _factor_mul(series: list[int], a: int, b: int, width: int) -> None:
    """Replace the packed graded series by exp(a X + b Y) times it; a, b are scaled by L.

    Slot i of part d, `width` bits wide, holds the d! * L^d-scaled coefficient
    s_d[i] of Word(d, i), which may be negative.  The exponential's degree-k
    part gives each word a^#X b^#Y, so the product's degree-d part is
    q_d[w] = sum_t binom(d, t) * the weights of w[:d-t] * s_t[w[d-t:]].  As a
    word's first letter is its high bit, over the prefix levels t = 1..d,
    S_0 = s_0, S_t = step(S_(t-1)) + binom(d, t) s_t, and q_d = S_d, where
    step(S) = S * a + (S * b up by 2^(t-1) slots).  q_d reads s_0..s_d: the
    top goes first.  The step is chosen once, by the weights' shape: a
    one-letter factor does one multiply, X + Y or X - Y (b = a or -a) one
    shared by both letters, and none of them multiplies by a unit weight.
    """
    if b == 0:
        step = (lambda s, sh: s) if a == 1 else (lambda s, sh: s * a)
    elif a == 0:
        step = (lambda s, sh: s << sh) if b == 1 else (lambda s, sh: s * b << sh)
    elif a == b:
        step = (lambda s, sh: s + (s << sh)) if a == 1 else lambda s, sh: (m := s * a) + (m << sh)
    elif a == -b:
        step = (lambda s, sh: s - (s << sh)) if a == 1 else lambda s, sh: (m := s * a) - (m << sh)
    else:
        step = lambda s, sh: s * a + (s * b << sh)
    for d in range(len(series) - 1, 0, -1):
        level = series[0]
        for t in range(1, d):
            level = step(level, width << (t - 1)) + comb(d, t) * series[t]
        series[d] = step(level, width << (d - 1)) + series[d]


def _graded_series(factors: tuple[ExpFactor, ...], degree: int) -> tuple[SeriesTerm, ...]:
    """The degree-1..N terms of log(prod_i exp(a_i X + b_i Y)).

    Every series is packed as in _factor_mul, in slots of _slot_size bytes.  Each
    step is linear, so a packed int is sum_i v_i 2^(i width) exactly, however
    large the v_i: only the final coefficients must fit, and any width at or
    above the one they need gives the same values.  That of a word of length
    d <= N is a sum over k of (-1)^(k-1) M/k times its k-block path sums, so
    _slot_width(N, C, M) holds it.  That bound adds the sums with no signs,
    while the log's alternating sum cancels most of them, so for the built-in
    factor tuples _SLOT_BYTES gives the narrower slots their values were
    found to need; the smaller of the two is used.
    """
    # degree-d parts are scaled by d! * L^d, and by M through the constants c_k
    scale, weights, bound = _integer_form(factors)
    m = lcm(*range(1, degree + 1))
    size = _slot_size(_slot_width(degree, bound, m))
    found = _SLOT_BYTES.get(factors, b"")
    if degree <= len(found):
        size = min(size, found[degree - 1])
    width = size << 3
    # M * log(1 + A) = A * R_1 by Horner's rule: R_N = c_N, R_k = c_k + A * R_(k+1),
    # c_k = (-1)^(k-1) M/k, and R_k matters only up to degree N - k.  Each step
    # pads R_k with a zero part; A * R_k = P * R_k - R_k, R_k being a polynomial in A.
    horner = [0]
    for k in range(degree, 0, -1):
        horner[0] = m // k if k % 2 else -(m // k)
        state = horner + [0]
        for a, b in reversed(weights):  # P * R_k: the last factor multiplies first
            _factor_mul(state, a, b, width)
        for d, part in enumerate(horner):
            state[d] -= part
        horner = state
    # top down, so each packed part is freed before the next is read
    dens = [factorial(d) * scale**d * m for d in range(degree + 1)]
    terms = [SeriesTerm._from_packed(d, horner.pop(), size, dens[d]) for d in range(degree, 0, -1)]
    return tuple(terms[::-1])


def series_terms(variant: VariantPreset, degree: int) -> tuple[SeriesTerm, ...]:
    """The homogeneous terms of degrees 1..N of the variant's series.

    The degree-d part does not depend on N >= d, so the first d terms of a
    longer run are the same values; each call computes its own run.
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    return _graded_series(tuple(variant.factors), degree)


def series_term(variant: VariantPreset, degree: int) -> FreePoly:
    """The single degree-n term of the variant's series."""
    return series_terms(variant, degree)[degree - 1].body


def word_coefficient(variant: VariantPreset, w: Word) -> Fraction:
    """The coefficient of word w in the variant's series, from w's Reinsch matrices.

    Factor f specialises to exp(E_f), where E_f carries the scaled letter
    weight a_f L or b_f L of w's letter p + 1 at (p, p + 1), with L the lcm of
    the factor denominators.  Entry (u, v) of the product minus the identity
    is a block: the factors in order, each over one contiguous segment [p, q)
    of w[u:v], some segments empty but not all.  A k-block path from 0 to n
    enters log(1 + A) = sum_k (-1)^(k-1) A^k / k.

    One pass over the end positions v = 1..n.  Values at v are scaled by
    v! L^v, so a segment [p, q) of factor f weighs the integer comb(q, p)
    times the product of f's weights over it: the factorials telescope.
    layers[f][v] sums the paths whose last block is still open, has passed
    factors 1..f and is at v; layers[0] holds the closed paths.  Closing a
    block shifts the sum left by one slot of `width` bits, so slot k - 1 of
    layers[-1][n] holds the k-block path sum.  The slots are weighted by (-1)^(k-1) M/k,
    with M = lcm(1..n), and one Fraction is built at the end.  Slots may be
    negative: every step is linear, so only the final slots must fit, which
    _slot_width proves, and they are decoded signed.
    """
    n = w.length
    if n < 1:
        raise ValueError("the coefficient of the empty word is undefined")
    scale, weights, bound = _integer_form(variant.factors)
    bits = w.bits
    # one step per factor: its scaled weight of each letter, its input layer, its layer
    layers = [[1] + [0] * n]
    steps = []
    for pair in weights:
        layer = [1] + [0] * n
        steps.append(([pair[(bits >> i) & 1] for i in range(n - 1, -1, -1)], layers[-1], layer))
        layers.append(layer)
    width = _slot_width(n, bound)
    last = layers[-1]
    for v in range(1, n + 1):
        for weight, prev, layer in steps:
            # the empty segment at v, then [p, v) for p = v - 1, v - 2, ... until a zero weight
            acc = prev[v]
            run = 1
            p = v
            while p:
                p -= 1
                run *= weight[p]
                if not run:
                    break
                acc += comb(v, p) * run * prev[p]
            layer[v] = acc
        if v < n:
            closed = last[v] << width
            for layer in layers:
                layer[v] += closed

    m = lcm(*range(1, n + 1))
    mask, half = (1 << width) - 1, 1 << (width - 1)
    packed = last[n]
    total = 0
    for k in range(1, n + 1):
        slot = packed & mask
        if slot >= half:
            slot -= 1 << width
        packed = (packed - slot) >> width
        total += (m // k if k % 2 else -(m // k)) * slot
    return Fraction(total, m * factorial(n) * scale**n)


def engine_coefficient(w: Word) -> Fraction:
    """The coefficient of word w in the standard-product series, via Reinsch's matrices."""
    return word_coefficient(PRESETS["standard"], w)
