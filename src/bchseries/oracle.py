"""Direct computation of word coefficients from the explicit block-sum formula.

For a word w of length n the coefficient is

    g(w) = sum_{k=K}^{n} (-1)^(k-1)/k *
           sum over block sequences (r_1,s_1),...,(r_k,s_k) with r_i+s_i > 0
           whose literal expansion X^{r_1}Y^{s_1}...X^{r_k}Y^{s_k} equals w
           of 1/(r_1! s_1! ... r_k! s_k!),

where K is the number of blocks in w's own X-first block normal form, which
block_normal_form reads off the word's maximal runs (Word.runs()).  Two
independent enumeration routes are provided: a dynamic program over letter
positions (the workhorse) and a brute-force filter over all block sequences
(feasible for short words, used to validate the dynamic program).

The dynamic program makes one pass over the positions on Python ints.  Its
state at position v is scaled by v!, so a block X^r Y^s running from u to v
weighs the integer v!/(u! r! s!) relative to the state at u.  The block count
k is packed into the integer: slot k of the state (a fixed number of bits,
wide enough that no slot carries into the next; goldberg_value proves the
bound) holds the k-block sum.  The slots of the final state are weighted by
(-1)^(k-1) M/k with M = lcm(1..n), and one Fraction with denominator M * n!
is built at the end.
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
# engine.word_coefficient, in every goldberg mode.  The dynamic program takes
# one multiply-add per block, at most n(n+1)/2, each on a packed state of up
# to n slots of about log2(n! 2^n) bits; X^128 and X^127Y, which have the
# most blocks of any word of that length, took 0.05-0.08 s each on a 2-vCPU
# Xeon VM (Python 3.11).  word_coefficient takes at most one multiply-add per
# factor and pair of positions; on the same VM X^128 and X^127Y took
# 0.07-0.09 s for the standard product and 0.3-0.36 s for
# symmetric_sum_difference, the slowest preset.
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
    """The coefficient of w computed from the explicit block sum, plus K.

    One pass over the end positions v = 1..n.  The blocks ending at v are
    the non-empty X^r Y^s equal to w[u:v]; they start at every u of w[:v]'s
    longest X*Y* suffix, and each has the integer weight v!/(u! r! s!).
    state[v] is the sum of weight * state[u] over them, shifted left by one
    slot of `width` bits, so that slot k of state[v] holds v! times the sum
    over the k-block fillings of w[:v] of 1/(r_1! s_1! ... r_k! s_k!).

    The slots never carry.  Let S_v be the sum of the slot values of
    state[v].  All terms are non-negative, at most one block spans each pair
    u < v, and a block weighs 1/(r! s!) <= 1 before scaling, so
    S_v/v! <= sum_{u<v} S_u/u! with S_0 = 1.  Hence S_v <= v! * 2^(v-1)
    < n! * 2^n for 1 <= v <= n, and every slot, at most S_v, fits in
    width = (n! << n).bit_length() + 1 bits.
    """
    n = w.length
    if n < 1:
        raise ValueError("the coefficient of the empty word is undefined")
    k_min = block_count(w)
    width = (factorial(n) << n).bit_length() + 1
    state = [1]
    # xrun, yrun: w[:v] ends in X^xrun Y^yrun, with xrun maximal
    xrun = yrun = 0
    for v, letter in enumerate(w.letters(), 1):
        if letter == X:
            if yrun:
                xrun = yrun = 0
            xrun += 1
        else:
            yrun += 1
        # the trailing Y-run starts at ys; a block X^(ys-u) Y^yrun from
        # u < ys weighs comb(v, yrun) * comb(ys, u), and a block Y^(v-u)
        # from u >= ys weighs comb(v, u)
        ys = v - yrun
        acc = 0
        for u in range(ys - xrun, ys):
            acc += comb(ys, u) * state[u]
        if yrun:
            acc *= comb(v, yrun)
            for u in range(ys, v):
                acc += comb(v, u) * state[u]
        state.append(acc << width)

    m = lcm(*range(1, n + 1))
    mask = (1 << width) - 1
    total = 0
    packed = state[n]
    for k in range(1, n + 1):
        packed >>= width
        count = packed & mask
        if count:
            if k < k_min:
                raise AssertionError(
                    f"block filling with k={k} < K={k_min} for word {w}"
                )
            total += (-1) ** (k - 1) * (m // k) * count
    return GoldbergValue(w, Fraction(total, m * factorial(n)), k_min)


def goldberg_direct(w: Word) -> Fraction:
    """The coefficient of w in the standard-product series, from the block sum."""
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
