"""Word coefficients of the standard-product series by routes outside the engine.

For a word w whose maximal runs have lengths s_1..s_m, Goldberg's theorem
(K. Goldberg, Duke Math. J. 23 (1956) 13-21) gives the coefficient of w in
log(exp(X) exp(Y)) as

    g(w) = int_0^1 t^a (t - 1)^b G_(s_1)(t) ... G_(s_m)(t) dt,

where G_1 = 1, s G_s = d/dt [t(t - 1) G_(s-1)], and a and b count w's X->Y
and Y->X boundaries; so g(w) depends only on w's first letter and the
multiset of its run lengths.  goldberg_direct evaluates it per run class, in
exact integers: one packed power G_s^(k_s) for the k_s runs of each length
s above 1, and the boundary factor t^a (t - 1)^b integrated against each
power of t by the Beta function.  It reads the run lengths from the word's
binary digits in one pass, and the factorials to 128! and s! G_s with its
l1 norm for s <= 20 from module tables.  The coefficients of s! G_s are
(-1)^(s-1-j) (j+1)! S(s, j+1), Stirling numbers of the second kind, so its
l1 norm is sum_k k! S(s, k).

goldberg_direct_naive, for short words only, takes the explicit block sum

    g(w) = sum_{k=1}^{n} (-1)^(k-1)/k *
           sum over block sequences (r_1,s_1),...,(r_k,s_k) with r_i+s_i > 0
           whose literal expansion X^{r_1}Y^{s_1}...X^{r_k}Y^{s_k} equals w
           of 1/(r_1! s_1! ... r_k! s_k!),

enumerating every block sequence and filtering by collapse; goldberg_xy is
the Bernoulli closed form for X^a Y^b.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, product
from math import comb, factorial
from operator import mul, sub
from typing import Iterator, NamedTuple, Sequence

from .algebra import Word, X, Y

_ZERO = Fraction(0)
_ONE = Fraction(1)

Block = tuple[int, int]


class BlockSeq(NamedTuple):
    """A sequence of blocks (r_i, s_i) denoting X^{r_i} Y^{s_i} factors."""

    blocks: tuple[Block, ...]

    @classmethod
    def of(cls, blocks: Sequence[Block]) -> "BlockSeq":
        blocks = tuple((int(r), int(s)) for r, s in blocks)
        for r, s in blocks:
            if r < 0 or s < 0:
                raise ValueError("block exponents must be non-negative")
            if r + s == 0:
                raise ValueError("every block must satisfy r + s > 0")
        return cls(blocks)

    @property
    def total_degree(self) -> int:
        return sum(r + s for r, s in self.blocks)


def collapse(bs: BlockSeq) -> Word:
    """Expand X^{r_1}Y^{s_1}...X^{r_k}Y^{s_k} literally into a word."""
    runs = []
    for r, s in bs.blocks:
        if r:
            runs.append((X, r))
        if s:
            runs.append((Y, s))
    return Word.from_runs(runs)


def _next_run_poly(h: Sequence[int]) -> tuple[int, ...]:
    """H_s from H_(s-1): the coefficient of t^j is (j + 1) (H_(s-1)[j - 1] - H_(s-1)[j])."""
    return tuple(map(mul, range(1, len(h) + 2), map(sub, (0, *h), (*h, 0))))


# 0!..128!: n! for every word of up to 128 letters
_FACTORIALS = tuple(accumulate(range(1, 129), mul, initial=1))
# H_1..H_20 and their l1 norms; a longer run continues the recurrence from
# H_20.  The norms take 3-5% off goldberg_direct on 16-64 letter random words,
# against summing each row per call (faster in 33 and 35 of two sets of 40
# paired passes)
_RUN_POLYS = tuple(accumulate(range(19), lambda h, _: _next_run_poly(h), initial=(1,)))
_RUN_NORMS = tuple(sum(map(abs, h)) for h in _RUN_POLYS)


def goldberg_direct(w: Word) -> Fraction:
    """The coefficient of w in the standard-product series, from Goldberg's integral.

    With H_s = s! G_s, so that H_1 = 1 and H_s = d/dt [t(t - 1) H_(s-1)] has
    degree s - 1, the k_s runs of each length s give Q = prod_s H_s^(k_s), of
    degree d = n - m for m runs, and g(w) = int_0^1 t^a (t - 1)^b Q(t) dt /
    prod_s s!^(k_s).  The boundary factor is integrated, never multiplied in:

        int_0^1 t^(a+j) (t - 1)^b dt = (-1)^b (a + j)! b! / (a + b + j + 1)!,

    and a + b + 1 = m, so g(w) = (-1)^b sum_j w_j Q_j / (n! prod_s s!^(k_s))
    with the integer weights w_j = n! (a + j)! b! / (m + j)! (m + j <= n),
    each from the one before by w_(j+1) = w_j (a + j + 1) / (m + j + 1).
    Each H_s is packed with the coefficient of t^j in slot j of `width`
    signed bits, and Q is one integer power per distinct run length above
    1; a word whose runs all have length 1 has Q = 1 and one slot.

    The runs are read in one pass over the word's binary digits, with no
    Python step per run: bits ^ bits >> 1 has a one wherever a run starts
    (the top bit set by hand), so its digits split at the ones into one
    string of s - 1 zeros per run of length s.  The factorials, and H_s
    with its norm for s <= 20, are module tables.

    The slots never carry.  Each coefficient of Q is at most its l1 norm,
    and the l1 norm is submultiplicative, so every coefficient is at most
    prod_s ||H_s||^(k_s) in absolute value.  Packing evaluates a polynomial
    at 2^width, a ring map, so the packed product is exact whatever the
    slots hold on the way and only Q's slots must fit: width = that bound's
    bit length + 1, rounded up to whole bytes, leaves them in
    (-2^(width-1), 2^(width-1)), so adding 2^(width-1) to every slot makes
    each one an unsigned digit in base 2^width.
    """
    n, bits = w.length, w.bits
    if n < 1:
        raise ValueError("the coefficient of the empty word is undefined")
    gaps = format(bits ^ bits >> 1 | 1 << (n - 1), "b").split("1")[1:]
    m = len(gaps)
    # the m - 1 boundaries alternate X->Y (a of them) and Y->X (b of them)
    a = (m - (bits >> (n - 1))) // 2
    b = m - 1 - a
    classes = [(len(gap) + 1, gaps.count(gap)) for gap in set(gaps) if gap]
    fact = _FACTORIALS
    if n >= len(fact):
        fact = tuple(accumulate(range(1, n + 1), mul, initial=1))
    polys = _RUN_POLYS
    bound, den = 1, fact[n]
    for s, k in classes:
        if s > len(polys):
            polys = list(polys)
            while len(polys) < s:
                polys.append(_next_run_poly(polys[-1]))
        # past the table only the run lengths present are summed: the norms
        # of every row H_21..H_128 would add about 0.6 ms to X^128
        norm = _RUN_NORMS[s - 1] if s <= len(_RUN_NORMS) else sum(map(abs, polys[s - 1]))
        bound *= norm**k
        den *= fact[s] ** k
    size = bound.bit_length() // 8 + 1
    width = 8 * size
    acc = 1
    for s, k in classes:
        acc *= _packed(polys[s - 1], size) ** k

    count = n - m + 1
    acc += _offset(size, count)
    mask, half = (1 << width) - 1, 1 << (width - 1)
    weight = fact[n] * fact[a] * fact[b] // fact[m]
    total = 0
    for i in range(a + 1, a + count + 1):
        total += weight * ((acc & mask) - half)
        acc >>= width
        # the weight after the last slot need not be integral; it is not used
        weight = weight * i // (i + b + 1)
    return Fraction(-total if b % 2 else total, den)


def _packed(row: Sequence[int], size: int) -> int:
    """The polynomial with coefficients row in signed slots of size bytes, by Horner's rule."""
    packed = 0
    for c in reversed(row):
        packed = (packed << 8 * size) + c
    return packed


def _offset(size: int, count: int) -> int:
    """2^(8 size - 1) in each of count slots of size bytes."""
    return int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")


def enumerate_block_seqs(total: int, k: int) -> Iterator[BlockSeq]:
    """All sequences of k blocks (r, s), each with r + s > 0, of given total degree."""
    if k < 1 or total < k:
        return
    for sizes in _compositions(total, k):
        pools = [[(r, size - r) for r in range(size + 1)] for size in sizes]
        for blocks in product(*pools):
            yield BlockSeq(tuple(blocks))


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def goldberg_direct_naive(w: Word) -> Fraction:
    """Brute-force route: enumerate every block sequence and filter by collapse.

    Exponential in the word length; intended as an independent check of
    goldberg_direct on short words.
    """
    n = w.length
    if n < 1:
        raise ValueError("the coefficient of the empty word is undefined")
    total = _ZERO
    for k in range(1, n + 1):
        k_sum = _ZERO
        for bs in enumerate_block_seqs(n, k):
            if collapse(bs) == w:
                weight = _ONE
                for r, s in bs.blocks:
                    weight /= factorial(r) * factorial(s)
                k_sum += weight
        total += Fraction((-1) ** (k - 1), k) * k_sum
    return total


def _bernoulli_numbers(count: int) -> list[Fraction]:
    """B_0..B_(count-1) for count >= 1, each from sum_{j<=m} comb(m + 1, j) B_j = 0."""
    numbers = [_ONE]
    for m in range(1, count):
        acc = _ZERO
        for j, b in enumerate(numbers):
            if b:
                acc += comb(m + 1, j) * b
        numbers.append(-acc / (m + 1))
    return numbers


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n in the convention with B_1 = -1/2."""
    if n < 0:
        raise ValueError(f"Bernoulli numbers need n >= 0, got {n}")
    return _bernoulli_numbers(n + 1)[n]


def goldberg_xy(a: int, b: int) -> Fraction:
    """Closed form for the coefficient of X^a Y^b via Bernoulli numbers."""
    if a < 0 or b < 0:
        raise ValueError("exponents must be non-negative")
    if a + b < 1:
        raise ValueError("need a + b >= 1")
    if b == 0:
        # the closed form needs b >= 1; X^a and Y^a share one coefficient
        a, b = b, a
    numbers = _bernoulli_numbers(a + b)
    acc = _ZERO
    for i in range(1, b + 1):
        acc += comb(b, i) * numbers[a + b - i]
    return Fraction((-1) ** a, factorial(a) * factorial(b)) * acc


def goldberg_xy_images(a: int, b: int) -> dict[Word, Fraction]:
    """The four words X^aY^b, X^bY^a, Y^aX^b, Y^bX^a with their coefficients."""
    base = goldberg_xy(a, b)
    flipped = base if (a + b) % 2 else -base
    images: dict[Word, Fraction] = {}
    for first, second, value in (
        ((X, a), (Y, b), base),
        ((X, b), (Y, a), base),
        ((Y, a), (X, b), flipped),
        ((Y, b), (X, a), flipped),
    ):
        runs = [run for run in (first, second) if run[1] > 0]
        images[Word.from_runs(runs)] = value
    return images
