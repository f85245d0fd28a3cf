"""Words over the two-letter alphabet {X, Y} and exact free-algebra polynomials.

Words are bit-packed (X=0, Y=1, first letter in the most significant bit) so
that for a fixed length the integer order of the packed bits is exactly the
lexicographic order with X < Y, and concatenation is a shift-or.  A WordSum
is a finite sum of words with non-zero Fraction coefficients, merged by one
rule; a FreePoly is a WordSum whose multiplication concatenates words.
Everything here is immutable and exact.

Word.runs() and word_format read one word's runs.  A caller that needs all
2^n words of a degree reads word_texts (their word_format text) or
run_class_keys (an integer per run class), which join each word from a
table of its high half and one of its low half: 2^(n - n//2) + 2^(n//2)
single-word calls per degree instead of 2^n.
"""

from __future__ import annotations

import re
from enum import IntEnum
from fractions import Fraction
from itertools import chain, compress, islice, repeat
from math import lcm
from operator import add
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

Coeff = Union[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Letter(IntEnum):
    X = 0
    Y = 1

    def __str__(self) -> str:
        return self.name


X = Letter.X
Y = Letter.Y
_LETTERS = (X, Y)


class WordParseError(ValueError):
    """Raised when word text does not match the X/Y/X^k/Y^k grammar."""

    def __init__(self, text: str, position: int, message: str):
        super().__init__(f"cannot parse {text!r} at position {position}: {message}")
        self.position = position


class _WordFields(NamedTuple):
    length: int
    bits: int


class Word(_WordFields):
    """An immutable word over {X, Y}, packed as (length, bits) with 0 <= bits < 2^length.

    typing.NamedTuple forbids overriding __new__, so the check lives in this
    subclass of the tuple base.
    """

    __slots__ = ()

    def __new__(cls, length: int, bits: int) -> "Word":
        if length < 0 or bits < 0 or bits >> length:
            raise ValueError(f"a word of length {length} needs 0 <= bits < 2^{length}, got {bits}")
        return tuple.__new__(cls, (length, bits))

    @classmethod
    def from_letters(cls, letters: Iterable[Letter]) -> "Word":
        bits = 0
        n = 0
        for letter in letters:
            bits = (bits << 1) | int(letter)
            n += 1
        return cls(n, bits)

    @classmethod
    def from_runs(cls, runs: Iterable[tuple[Letter, int]]) -> "Word":
        bits = 0
        n = 0
        for letter, mult in runs:
            if mult < 1:
                raise ValueError(f"run multiplicity must be >= 1, got {mult}")
            if letter == Y:
                bits = (bits << mult) | ((1 << mult) - 1)
            else:
                bits <<= mult
            n += mult
        return cls(n, bits)

    def letter(self, i: int) -> Letter:
        if not 0 <= i < self.length:
            raise IndexError(f"letter index {i} out of range for length {self.length}")
        return _LETTERS[(self.bits >> (self.length - 1 - i)) & 1]

    def letters(self) -> Iterator[Letter]:
        for i in range(self.length - 1, -1, -1):
            yield _LETTERS[(self.bits >> i) & 1]

    def runs(self) -> tuple[tuple[Letter, int], ...]:
        """The maximal runs (letter, multiplicity), in order, one bit_length per run."""
        runs = []
        bits, n = self.bits, self.length
        while n:
            top = bits >> (n - 1)
            # flipping a Y-led rest turns its run into leading zeros
            rest = (bits ^ ((1 << n) - 1) if top else bits).bit_length()
            runs.append((_LETTERS[top], n - rest))
            bits &= (1 << rest) - 1
            n = rest
        return tuple(runs)

    @property
    def count_y(self) -> int:
        return self.bits.bit_count()

    @property
    def count_x(self) -> int:
        return self.length - self.bits.bit_count()

    def concat(self, other: "Word") -> "Word":
        return Word(self.length + other.length, (self.bits << other.length) | other.bits)

    def __str__(self) -> str:
        return word_format(self)


EMPTY_WORD = Word(0, 0)


# [0-9], not \d, which also matches every other Unicode decimal digit
_WORD_TOKEN = re.compile(r"([XY])(?:\^([0-9]+))?")


def word_parse(text: str, max_length: int | None = None) -> Word:
    """Parse word text: a concatenation of X, Y, X^k, Y^k tokens (k >= 1).

    With max_length, a word longer than that is rejected before its bits are
    built, so a huge exponent costs no memory.
    """
    runs = []
    n = 0
    pos = 0
    while pos < len(text):
        m = _WORD_TOKEN.match(text, pos)
        if m is None:
            raise WordParseError(text, pos, "expected X, Y, X^k, or Y^k")
        digits = (m.group(2) or "1").lstrip("0") or "0"
        if max_length is not None and len(digits) > len(str(max_length)):
            digits = str(max_length + 1)  # past the cap, without int() reading every digit
        try:
            mult = int(digits)
        except ValueError:  # more digits than int() converts
            raise WordParseError(text, pos, "the exponent has too many digits") from None
        if mult < 1:
            raise WordParseError(text, pos, "exponent must be >= 1")
        if max_length is not None and n + mult > max_length:
            raise WordParseError(text, pos, f"the word is longer than {max_length} letters")
        runs.append((X if m.group(1) == "X" else Y, mult))
        n += mult
        pos = m.end()
    return Word.from_runs(runs)


def word_format(w: Word) -> str:
    """Canonical run-length text of a word; the empty word formats as ''."""
    text = []
    bits, n = w.bits, w.length
    while n:
        # the run loop of Word.runs, writing "XY"[top] instead of building a Letter
        top = bits >> (n - 1)
        rest = (bits ^ ((1 << n) - 1) if top else bits).bit_length()
        text.append("XY"[top] if n - rest == 1 else f"{'XY'[top]}^{n - rest}")
        bits &= (1 << rest) - 1
        n = rest
    return "".join(text)


def word_texts(n: int, keep: Sequence[object]) -> Iterator[str]:
    """word_format(Word(n, bits)) for each bits with keep[bits] true, in bits order.

    The texts are joined from two half tables, and a text is built only for
    a word that is kept.
    """
    if not n:
        return compress([""], keep)
    return _joined_halves(
        n,
        lambda runs: word_format(Word.from_runs(runs)),
        lambda letter, r: f"{'XY'[letter]}^{r}",
        keep,
    )


def run_class_keys(n: int) -> Iterator[int]:
    """One integer per degree-n word (n >= 1), in bits order, equal exactly within a run class.

    A run class is a first letter and a multiset of run lengths: the words
    that permute each other's runs.  The key is first + 2 sum_runs
    (n + 1)^(r - 1), whose base-(n + 1) digits count the runs of each
    length r, so two keys are equal exactly when the classes are.  The
    first letter is the top bit: 0 for the first half of the words.
    """
    power = [(n + 1) ** (r - 1) for r in range(n + 1)]
    keys = _joined_halves(
        n, lambda runs: 2 * sum(power[r] for _, r in runs), lambda letter, r: 2 * power[r]
    )
    return map(add, keys, chain(repeat(0, 1 << (n - 1)), repeat(1, 1 << (n - 1))))


def _joined_halves(
    n: int, value: Callable, run: Callable, keep: Sequence[object] | None = None
) -> Iterator:
    """value(runs of w) for each degree-n word w (n >= 1) in bits order, joined from its halves.

    Word(n, bits) is u followed by v: u = bits >> l holds its high n - l
    letters and v its low l = n // 2.  value takes a sequence of (letter,
    length) runs and is additive over a split between runs; run(letter, r)
    is the value of one run.  Each half is read once: u as (value(u),
    value(u without its last run), that run's length), v as (value(v),
    value(v without its first run), that run's length).  Where u ends in
    the letter that v starts with, the two boundary runs are one run:
    closed(u) + run(letter, r_u + r_v) + rest(v).  Otherwise the value is
    value(u) + value(v).  Each u's block of 2^l values is two list
    comprehensions, one per first letter of v.  With keep, only the words
    whose entry is true get a value.
    """
    h, l = n - n // 2, n // 2
    highs = []
    for u in range(1 << h):
        runs = Word(h, u).runs()
        highs.append((value(runs), value(runs[:-1]), runs[-1][1]))
    if not l:
        wholes = (whole for whole, _, _ in highs)
        return wholes if keep is None else compress(wholes, keep)
    mid = 1 << (l - 1)  # the low halves below mid start with X
    values, joined = [], []
    for letter, part in enumerate((range(mid), range(mid, 2 * mid))):
        lows = [Word(l, v).runs() for v in part]
        values.append([value(runs) for runs in lows])
        rests = [(runs[0][1], value(runs[1:])) for runs in lows]
        # joined[letter][r_u]: the run of r_u + r_v letters and the rest of each v
        joined.append(
            [[run(letter, r + first) + rest for first, rest in rests] for r in range(h + 1)]
        )

    flags = None if keep is None else iter(keep)

    def blocks() -> Iterator[list]:
        for u, (whole, closed, last) in enumerate(highs):
            if u & 1:  # u ends in Y, so the X-led v start a run and the Y-led continue it
                pairs = ((whole, values[0]), (closed, joined[1][last]))
            else:
                pairs = ((closed, joined[0][last]), (whole, values[1]))
            for head, tails in pairs:
                if flags is not None:
                    tails = compress(tails, islice(flags, mid))
                yield [head + tail for tail in tails]

    return chain.from_iterable(blocks())


def interchange(w: Word) -> Word:
    """Flip every letter X <-> Y."""
    return Word(w.length, w.bits ^ ((1 << w.length) - 1))


def reverse(w: Word) -> Word:
    """Reverse the order of the letters."""
    bits = 0
    src = w.bits
    for _ in range(w.length):
        bits = (bits << 1) | (src & 1)
        src >>= 1
    return Word(w.length, bits)


def cyclic_shift(w: Word) -> Word:
    """Move the first letter to the end: L1 L2 ... Ln -> L2 ... Ln L1."""
    if w.length == 0:
        raise ValueError("cyclic shift of the empty word is undefined")
    top = 1 << (w.length - 1)
    first = 1 if w.bits & top else 0
    return Word(w.length, ((w.bits & (top - 1)) << 1) | first)


def all_words(n: int) -> Iterator[Word]:
    """All 2^n words of length n, in lexicographic order with X < Y."""
    for bits in range(1 << n):
        yield Word(n, bits)


def _merge(
    out: dict[Word, Fraction], pairs: Iterable[tuple[Word, Fraction]]
) -> dict[Word, Fraction]:
    """Add each non-zero (word, coeff) pair into out, deleting a word whose sum is zero.

    The one merge rule of a word sum: every constructor and operator that
    adds coefficients goes through it, and new words keep their first
    insertion order.  A difference passes its right operand's pairs negated
    one at a time, so it builds no negated copy of that operand.
    """
    get = out.get
    for word, coeff in pairs:
        prev = get(word)
        if prev is None:
            out[word] = coeff
        else:
            total = prev + coeff
            if total:
                out[word] = total
            else:
                del out[word]
    return out


class WordSum:
    """A finite sum of words with non-zero Fraction coefficients.

    The storage shared by FreePoly and lie.CommPoly.  Equality is term by
    term and only between sums of the same type, so a FreePoly never equals
    a CommPoly.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Word, Coeff] | Iterable[tuple[Word, Coeff]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        self._terms = _merge({}, ((w, c) for w, coeff in items if (c := Fraction(coeff))))

    @classmethod
    def _raw(cls, terms: dict[Word, Fraction]):
        """Wrap a dict of non-zero coefficients without copying or checking it."""
        poly = object.__new__(cls)
        poly._terms = terms
        return poly

    def coeff(self, w: Word) -> Fraction:
        return self._terms.get(w, _ZERO)

    def items(self) -> Iterator[tuple[Word, Fraction]]:
        return iter(self._terms.items())

    def sorted_items(self) -> list[tuple[Word, Fraction]]:
        return sorted(self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if type(other) is type(self):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class FreePoly(WordSum):
    """A word sum in the free algebra.

    Supports + and - between polynomials, * for both scalar multiplication and
    the (noncommutative) concatenation product of polynomials.
    """

    __slots__ = ()

    @classmethod
    def from_dense(cls, n: int, ints: Sequence[int], den: int) -> "FreePoly":
        """The degree-n polynomial whose coefficient of Word(n, bits) is ints[bits] / den."""
        return cls._raw({Word(n, bits): Fraction(c, den) for bits, c in enumerate(ints) if c})

    def to_dense(self, n: int) -> tuple[tuple[int, ...], int]:
        """(ints, den) such that from_dense(n, ints, den) is this degree-n polynomial.

        den is the lcm of the coefficient denominators; a word of another
        length raises ValueError.
        """
        if any(w.length != n for w in self._terms):
            raise ValueError(f"to_dense needs a homogeneous polynomial of degree {n}")
        den = lcm(*(c.denominator for c in self._terms.values()))
        ints = [0] * (1 << n)
        for w, c in self._terms.items():
            ints[w.bits] = c.numerator * (den // c.denominator)
        return tuple(ints), den

    @classmethod
    def zero(cls) -> "FreePoly":
        return _ZERO_POLY

    @classmethod
    def one(cls) -> "FreePoly":
        return _ONE_POLY

    @classmethod
    def from_word(cls, w: Word, coeff: Coeff = 1) -> "FreePoly":
        coeff = Fraction(coeff)
        return cls._raw({w: coeff}) if coeff else _ZERO_POLY

    @classmethod
    def from_letter(cls, letter: Letter) -> "FreePoly":
        return cls._raw({Word(1, int(letter)): _ONE})

    def words(self) -> Iterator[Word]:
        return iter(self._terms)

    def __add__(self, other: "FreePoly") -> "FreePoly":
        if not isinstance(other, FreePoly):
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        return FreePoly._raw(_merge(dict(self._terms), other._terms.items()))

    def __sub__(self, other: "FreePoly") -> "FreePoly":
        if not isinstance(other, FreePoly):
            return NotImplemented
        negated = ((word, -coeff) for word, coeff in other._terms.items())
        return FreePoly._raw(_merge(dict(self._terms), negated))

    def __neg__(self) -> "FreePoly":
        return FreePoly._raw({w: -c for w, c in self._terms.items()})

    def scale(self, scalar: Coeff) -> "FreePoly":
        scalar = Fraction(scalar)
        if not scalar:
            return _ZERO_POLY
        return FreePoly._raw({w: c * scalar for w, c in self._terms.items()})

    def __mul__(self, other: "FreePoly | Coeff") -> "FreePoly":
        if isinstance(other, FreePoly):
            if not self._terms or not other._terms:
                return _ZERO_POLY
            right = other._terms.items()
            products = (
                (Word(l1 + l2, (b1 << l2) | b2), c1 * c2)
                for (l1, b1), c1 in self._terms.items()
                for (l2, b2), c2 in right
            )
            return FreePoly._raw(_merge({}, products))
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other: Coeff) -> "FreePoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def homogeneous(self, n: int) -> "FreePoly":
        """The degree-n part: exactly the words of length n."""
        return FreePoly._raw({w: c for w, c in self._terms.items() if w.length == n})

    def degrees(self) -> set[int]:
        return {w.length for w in self._terms}

    def homogeneous_degree(self) -> int | None:
        """The common word length, if the polynomial is homogeneous (zero -> 0)."""
        degs = self.degrees()
        if not degs:
            return 0
        if len(degs) == 1:
            return degs.pop()
        return None

    def __str__(self) -> str:
        return format_poly(self)


_ZERO_POLY = FreePoly._raw({})
_ONE_POLY = FreePoly._raw({EMPTY_WORD: _ONE})


def format_sum(items: Iterable[tuple[str, int, int]]) -> str:
    """Render a sum of (num/den)*text terms, e.g. '1/2*XY - YX + 3'.

    Each item is (text, num, den) with den > 0, written as given: callers
    pass num/den in lowest terms.  A coefficient of 1 or -1 is left out, an
    empty text renders the number alone, and the empty sum is '0'.
    """
    parts = []
    for text, num, den in items:
        mag = abs(num)
        if mag == den == 1 and text:
            body = text
        else:
            body = str(mag) if den == 1 else f"{mag}/{den}"
            if text:
                body = f"{body}*{text}"
        parts.append(f"- {body}" if num < 0 else f"+ {body}")
    if not parts:
        return "0"
    rendered = " ".join(parts)
    return rendered[2:] if rendered[0] == "+" else "-" + rendered[2:]


def format_poly(p: FreePoly) -> str:
    """Render a polynomial in canonical word order, e.g. '1/2*XY - 1/2*YX'."""
    return format_sum((word_format(w), c.numerator, c.denominator) for w, c in p.sorted_items())
