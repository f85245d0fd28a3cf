"""Right-nested commutator expansion and checks of commutator-form claims.

[L1 L2 ... Ln] denotes the right-nested ("long") commutator
[L1,[L2,[...,[L_{n-1},Ln]...]]]; a CommPoly is a linear combination of such
brackets indexed by words.  Equality of commutator expressions is decided by
expanding into the free algebra, which also gives the Dynkin-Specht-Wever
test for whether a homogeneous polynomial is a Lie element.

Expansion is one linear map, the recursion [a u] = a[u] - [u]a applied at once
to all words that start with the letter a.  On a dense degree-n term each of
the n levels does O(2^n) work, so one expansion costs O(n 2^n).  The map
exists twice: expand_comm_poly runs it on sparse FreePoly values (claimed
forms, the reference), and bracket_vector on a dense vector of 2^n ints
indexed by Word.bits (series terms, is_lie_element).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .algebra import (
    Coeff,
    FreePoly,
    Letter,
    Word,
    WordSum,
    X,
    Y,
    format_sum,
    word_format,
    word_parse,
)
from .engine import PRESETS, series_term


class CommPoly(WordSum):
    """A linear combination sum c_w [w] of right-nested commutators.

    Equality is term by term; equality as Lie elements is decided by
    expand_comm_poly.
    """

    __slots__ = ()

    def __init__(self, terms: Mapping[Word, Coeff] | Iterable[tuple[Word, Coeff]] = ()):
        items = list(terms.items() if isinstance(terms, Mapping) else terms)
        if any(word.length < 1 for word, _ in items):
            raise ValueError("commutator words must have length >= 1")
        super().__init__(items)

    def __str__(self) -> str:
        return format_comm_poly(self)


def expand_nested(w: Word) -> FreePoly:
    """Expand the right-nested commutator [w] into the free algebra."""
    return expand_comm_poly(CommPoly({w: 1}))


def expand_comm_poly(p: CommPoly) -> FreePoly:
    """Linear extension: sum of c_w [w], expanded into the free algebra."""
    return _bracket(p.items())


def _bracket(terms: Iterable[tuple[Word, Fraction]]) -> FreePoly:
    """Expand sum c_w [w] (distinct non-empty words) by [a u] = a[u] - [u]a."""
    letters: dict[Word, Fraction] = {}
    rests: tuple[dict[Word, Fraction], ...] = ({}, {})  # by first letter
    for w, c in terms:
        n = w.length - 1
        if n:
            rests[w.bits >> n][Word(n, w.bits & ((1 << n) - 1))] = c
        else:
            letters[w] = c
    out = FreePoly(letters)
    for first, rest in zip(Letter, rests):
        if rest:
            letter, inner = FreePoly.from_letter(first), _bracket(rest.items())
            out = out + (letter * inner - inner * letter)
    return out


def bracket_vector(v: Sequence[int]) -> list[int]:
    """The bracketing map sum v[w] w -> sum v[w] [w] on a dense degree-n vector.

    v holds 2^n coefficients indexed by Word.bits.  The state at stage k holds,
    for each prefix p of n - k letters, the expanded brackets of the k-letter
    suffixes, the coefficient of p times the expansion word e at index
    (p << k) | e.  At k = 1 it is v itself, since [a] = a.  One step takes the
    last letter a of p into the bracket, a[e] - [e]a: the a[e] part leaves
    every entry where it is, and the [e]a part subtracts the two halves of
    each 2^(k+1) block, interleaved.  A step loops either over offsets, with
    strided slices, or over blocks, with contiguous ones, whichever is
    shorter.
    """
    size = len(v)
    out = list(v)
    m = 2
    while m < size:
        old, out, step = out, [0] * size, 2 * m
        if m <= size // step:
            for e in range(m):
                for lo, src in ((2 * e, e), (2 * e + 1, m + e)):
                    out[lo::step] = [x - y for x, y in zip(old[lo::step], old[src::step])]
        else:
            for o in range(0, size, step):
                block = old[o : o + step]
                out[o : o + step : 2] = [x - y for x, y in zip(block[0::2], block[:m])]
                out[o + 1 : o + step : 2] = [x - y for x, y in zip(block[1::2], block[m:])]
        m = step
    return out


def is_lie_vector(v: Sequence[int]) -> bool:
    """Dynkin-Specht-Wever on a dense degree-n vector: bracketing returns n * v."""
    n = len(v).bit_length() - 1
    return bracket_vector(v) == [n * c for c in v]


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
    head = [FreePoly.from_letter(letter) for letter in w1.letters()]
    lhs = expand_nested(w1.concat(word_parse("XY")).concat(w2))
    swapped = expand_nested(w1.concat(word_parse("YX")).concat(w2))
    bracketed = expand_slots(head + [x * y - y * x, expand_nested(w2)])
    return lhs == swapped + bracketed


def dynkin_series(n: int) -> CommPoly:
    """(1/n) sum over |w| = n of g(w) [w], with g from the matrix engine."""
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    body = series_term(PRESETS["standard"], n)
    scale = Fraction(1, n)
    return CommPoly({w: c * scale for w, c in body.items()})


def is_lie_element(p: FreePoly) -> bool:
    """Dynkin-Specht-Wever test on a homogeneous polynomial.

    A homogeneous p of degree n >= 1 is a Lie element iff bracketing every
    word (left-to-right, right-nested) returns n * p.  The zero polynomial
    counts as a Lie element; non-homogeneous input raises.
    """
    degree = p.homogeneous_degree()
    if degree is None:
        raise ValueError("is_lie_element needs a homogeneous polynomial")
    if degree == 0:
        return p.is_zero()
    return is_lie_vector(p.to_dense(degree)[0])


_COMM_TERM = re.compile(
    r"""
    \s*(?P<sign>[+-])?\s*
    (?:(?P<num>[0-9]+)(?:/(?P<den>[0-9]+))?\s*\*?\s*)?
    \[(?P<word>[^\]]*)\]
    """,
    re.VERBOSE,
)


def comm_parse(text: str) -> CommPoly:
    """Parse commutator-form text like '-1/720*[X^4Y] + 6/720*[XYXYX]'.

    Whitespace may lead, trail and separate the signs, coefficients and
    brackets; whitespace alone parses to the zero CommPoly.
    """
    terms: list[tuple[Word, Fraction]] = []
    pos, end = 0, len(text.rstrip())
    first = True
    while pos < end:
        m = _COMM_TERM.match(text, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"cannot parse commutator expression {text!r} at position {pos}")
        sign = m.group("sign")
        if sign is None and not first:
            raise ValueError(
                f"missing + or - between terms in {text!r} at position {pos}"
            )
        den = int(m.group("den") or 1)
        if not den:
            raise ValueError(f"zero denominator in {text!r} at position {m.start('den')}")
        coeff = Fraction(int(m.group("num") or 1), den)
        if sign == "-":
            coeff = -coeff
        terms.append((word_parse(m.group("word")), coeff))
        pos = m.end()
        first = False
    return CommPoly(terms)


def format_comm_poly(p: CommPoly) -> str:
    """Render in the comm_parse syntax, words in canonical order."""
    return format_sum(
        (f"[{word_format(w)}]", c.numerator, c.denominator) for w, c in p.sorted_items()
    )
