"""Word coefficients of the standard-product series by routes outside the engine.

For a word w whose maximal runs have lengths s_1..s_m, Goldberg's theorem
(K. Goldberg, Duke Math. J. 23 (1956) 13-21) gives the coefficient of w in
log(exp(X) exp(Y)) as

    g(w) = int_0^1 t^a (t - 1)^b G_(s_1)(t) ... G_(s_m)(t) dt,

where G_1 = 1, s G_s = d/dt [t(t - 1) G_(s-1)], and a and b count w's X->Y
and Y->X boundaries; so g(w) depends only on w's first letter and the
multiset of its run lengths.  goldberg_value evaluates it in exact integers.
The second route is the explicit block sum

    g(w) = sum_{k=K}^{n} (-1)^(k-1)/k *
           sum over block sequences (r_1,s_1),...,(r_k,s_k) with r_i+s_i > 0
           whose literal expansion X^{r_1}Y^{s_1}...X^{r_k}Y^{s_k} equals w
           of 1/(r_1! s_1! ... r_k! s_k!),

where K is the number of blocks in w's own X-first block normal form
(block_normal_form).  goldberg_direct_naive enumerates every block sequence
and filters by collapse, for short words; goldberg_xy is the Bernoulli
closed form for X^a Y^b.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, factorial, lcm
from typing import Iterator, NamedTuple, Sequence

from .algebra import Word, X, Y

_ZERO = Fraction(0)
_ONE = Fraction(1)

Block = tuple[int, int]

# The longest word the command-line interface sends to goldberg_direct or to
# engine.word_coefficient, in every goldberg mode.  Goldberg's integral builds
# H_2..H_s for the longest run s and multiplies at most n packed polynomials
# of at most n slots; X^128 and X^127Y took 3-7 ms each on a 2-vCPU Xeon VM
# (Python 3.11).  word_coefficient takes at most one multiply-add per factor
# and pair of positions; on the same VM X^128 and X^127Y took 0.09-0.11 s for
# the standard product and 0.33-0.45 s for symmetric_sum_difference, the
# slowest preset.
MAX_DP_LENGTH = 128


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


class GoldbergValue(NamedTuple):
    """A word's coefficient together with its normal-form block count."""

    word: Word
    value: Fraction
    block_count: int


def collapse(bs: BlockSeq) -> Word:
    """Expand X^{r_1}Y^{s_1}...X^{r_k}Y^{s_k} literally into a word."""
    runs = []
    for r, s in bs.blocks:
        if r:
            runs.append((X, r))
        if s:
            runs.append((Y, s))
    return Word.from_runs(runs)


def block_normal_form(w: Word) -> tuple[Block, ...]:
    """w's X-first block form X^{p_1}Y^{q_1}...X^{p_K}Y^{q_K}.

    Only p_1 and/or q_K may be zero; all interior exponents are positive.
    """
    blocks: list[Block] = []
    pending_x: int | None = None
    for letter, mult in w.runs():
        if letter == X:
            if pending_x is not None:
                blocks.append((pending_x, 0))
            pending_x = mult
        else:
            blocks.append((pending_x if pending_x is not None else 0, mult))
            pending_x = None
    if pending_x is not None:
        blocks.append((pending_x, 0))
    return tuple(blocks)


def block_count(w: Word) -> int:
    """K, the number of blocks in the X-first normal form."""
    return len(block_normal_form(w))


def goldberg_value(w: Word) -> GoldbergValue:
    """The coefficient of w from Goldberg's integral, plus K.

    With H_s = s! G_s, so that H_1 = 1 and H_s = d/dt [t(t - 1) H_(s-1)] has
    degree s - 1, it is int_0^1 t^a (t - 1)^b prod_i H_(s_i)(t) dt / prod_i s_i!.
    Each polynomial is packed with the coefficient of t^j in slot j of
    `width` signed bits, so t is a shift by one slot, t - 1 that shift minus
    the value, and a run is one integer product, taken in word order.  The
    product P has degree n - 1, and int_0^1 P = sum_j (M/(j + 1)) P_j / M
    with M = lcm(1..n): one Fraction is built at the end.

    The slots never carry.  Each coefficient of P is at most its l1 norm,
    and the l1 norm is submultiplicative with ||t|| = 1 and ||t - 1|| = 2,
    so every coefficient is at most 2^(a+b) ||H_(s_1)|| ... ||H_(s_m)|| in
    absolute value.  Packing evaluates a polynomial at 2^width, a ring map,
    so the packed product is exact whatever the slots hold on the way and
    only the final slots must fit: width = that bound's bit length + 1
    leaves them below 2^(width-1).
    """
    n = w.length
    if n < 1:
        raise ValueError("the coefficient of the empty word is undefined")
    runs = w.runs()
    # the coefficient of t^j in H_s is (j + 1) (H_(s-1)[j - 1] - H_(s-1)[j])
    polys, norms = [[1]], [1]
    for _ in range(1, max(s for _, s in runs)):
        h = polys[-1]
        h = [i * (p - q) for i, p, q in zip(range(1, len(h) + 2), [0] + h, h + [0])]
        polys.append(h)
        norms.append(sum(map(abs, h)))
    bound = 1 << (len(runs) - 1)
    den = 1
    for _, s in runs:
        if s > 1:
            bound *= norms[s - 1]
            den *= factorial(s)
    width = bound.bit_length() + 1
    packed = [0] * len(polys)
    for s in {s for _, s in runs}:
        for c in reversed(polys[s - 1]):
            packed[s - 1] = (packed[s - 1] << width) + c
    acc = packed[runs[0][1] - 1]
    for letter, s in runs[1:]:
        # the boundary into this run: X->Y multiplies by t, Y->X by t - 1
        acc = (acc << width) - acc if letter == X else acc << width
        if s > 1:
            acc *= packed[s - 1]

    m = lcm(*range(1, n + 1))
    mask, half = (1 << width) - 1, 1 << (width - 1)
    total = 0
    for j in range(1, n + 1):
        slot = acc & mask
        if slot >= half:
            slot -= 1 << width
        acc = (acc - slot) >> width
        total += m // j * slot
    # K: one block per X-run, and one more for a leading Y-run
    k = (len(runs) + 1 + (runs[0][0] == Y)) // 2
    return GoldbergValue(w, Fraction(total, m * den), k)


def goldberg_direct(w: Word) -> Fraction:
    """The coefficient of w in the standard-product series, from Goldberg's integral."""
    return goldberg_value(w).value


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
