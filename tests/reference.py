"""Independent reference routes that only the tests run.

Each route computes a value the library also computes, by a different and
slower formula, so that the tests can compare the two.

The block sum (K. Goldberg, Duke Math. J. 23 (1956) 13-21).
goldberg_direct_naive gives the coefficient of a word w of length n in
log(exp(X) exp(Y)) as

    g(w) = sum_{k=1}^{n} (-1)^(k-1)/k *
           sum over block sequences (r_1,s_1),...,(r_k,s_k) with r_i+s_i > 0
           whose literal expansion X^{r_1}Y^{s_1}...X^{r_k}Y^{s_k} equals w
           of 1/(r_1! s_1! ... r_k! s_k!),

the k-th power of exp(X) exp(Y) - 1 in the log's series.  It enumerates
every block sequence of total degree n (enumerate_block_seqs, over the
compositions of n into k parts) and keeps those that collapse to w, so it
is exponential in n and meant for short words; the library's
oracle.goldberg_direct evaluates Goldberg's integral instead.

The four X^aY^b images.  goldberg_xy_images gives the words X^aY^b,
X^bY^a, Y^aX^b and Y^bX^a with their coefficients from the Bernoulli closed
form oracle.goldberg_xy: c(X^aY^b) = c(X^bY^a) by the interchange and
reversal symmetries of the standard series, and the two words that start
with Y carry the sign (-1)^(a+b+1) of the interchange rule.

The fold over polynomial slots.  expand_slots expands the right-nested
bracket [s_1 s_2 ... s_m] = [s_1,[s_2,[...,[s_(m-1),s_m]...]]] by folding
[p, q] = pq - qp from the right, so a slot may hold any polynomial; the
library's lie.expand_comm_poly takes only letters, by the first-letter
recursion [a u] = a[u] - [u]a.

The rewrite check.  rewrite_identity_check tests
[w1 X Y w2] = [w1 Y X w2] + [w1 [X,Y] w2], which is Jacobi's identity
[X,[Y,z]] = [Y,[X,z]] + [[X,Y],z] with z = [w2], bracketed with the letters
of w1.  It looks up lie.expand_nested through the module on every call, so
a test that replaces that function checks the replacement.

The word maps.  letters, interchange, reverse and cyclic_shift read or move
the letters of one word; the tests use them as references for the bit
operations that census and engine code applies to whole degrees.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial
from typing import Iterator, NamedTuple, Sequence

from bchseries import lie
from bchseries.algebra import FreePoly, Letter, Word, X, Y, word_parse
from bchseries.oracle import goldberg_xy

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
    total = Fraction(0)
    for k in range(1, n + 1):
        k_sum = Fraction(0)
        for bs in enumerate_block_seqs(n, k):
            if collapse(bs) == w:
                weight = Fraction(1)
                for r, s in bs.blocks:
                    weight /= factorial(r) * factorial(s)
                k_sum += weight
        total += Fraction((-1) ** (k - 1), k) * k_sum
    return total


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


def expand_slots(slots: Sequence[FreePoly]) -> FreePoly:
    """Expand [s1 s2 ... sm] = [s1,[s2,[...,[s_{m-1},s_m]...]]] for Lie-element slots.

    The bracket is folded from the right, so a slot may hold any polynomial,
    such as [X,Y] = XY - YX, where expand_nested takes only letters.
    """
    if not slots:
        raise ValueError("cannot expand the commutator of no slots")
    acc = slots[-1]
    for slot in reversed(slots[:-1]):
        acc = slot * acc - acc * slot
    return acc


def rewrite_identity_check(w1: Word, w2: Word) -> bool:
    """Check [w1 X Y w2] = [w1 Y X w2] + [w1 [X,Y] w2] after expansion.

    [X,Y] fills one slot of the right-nested bracket.  With z = [w2] the
    identity is Jacobi's, [X,[Y,z]] = [Y,[X,z]] + [[X,Y],z], bracketed with
    the letters of w1; it needs w2 to be non-empty.
    """
    if w2.length < 1:
        raise ValueError("the rewrite identity needs a non-empty w2")
    x = FreePoly.from_letter(X)
    y = FreePoly.from_letter(Y)
    head = [FreePoly.from_letter(letter) for letter in letters(w1)]
    lhs = lie.expand_nested(word_parse(f"{w1}XY{w2}"))
    swapped = lie.expand_nested(word_parse(f"{w1}YX{w2}"))
    bracketed = expand_slots(head + [x * y - y * x, lie.expand_nested(w2)])
    return lhs == swapped + bracketed


def letters(w: Word) -> Iterator[Letter]:
    """The letters of w, first to last."""
    for i in range(w.length - 1, -1, -1):
        yield Letter((w.bits >> i) & 1)


def interchange(w: Word) -> Word:
    """Flip every letter X <-> Y."""
    return Word(w.length, w.bits ^ ((1 << w.length) - 1))


def reverse(w: Word) -> Word:
    """Reverse the order of the letters."""
    return Word.from_runs((letter, 1) for letter in reversed(list(letters(w))))


def cyclic_shift(w: Word) -> Word:
    """Move the first letter to the end: L1 L2 ... Ln -> L2 ... Ln L1."""
    if w.length == 0:
        raise ValueError("cyclic shift of the empty word is undefined")
    n = w.length
    return Word(n, ((w.bits << 1) | (w.bits >> (n - 1))) & ((1 << n) - 1))
