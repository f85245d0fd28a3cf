"""Word operations and exact free-algebra arithmetic."""

from __future__ import annotations

import pickle
import random
import types
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import bchseries
from bchseries import (
    EMPTY_WORD,
    FreePoly,
    Letter,
    Word,
    WordParseError,
    X,
    Y,
    all_words,
    cyclic_shift,
    interchange,
    reverse,
    word_format,
    word_parse,
)
from bchseries.algebra import format_sum, run_class_keys, word_texts
from conftest import free_polys, small_fractions

w = word_parse


class TestWordParse:
    def test_expansion(self):
        assert w("X^2Y") == Word.from_letters([X, X, Y])
        assert w("YX^3") == Word.from_letters([Y, X, X, X])

    def test_empty(self):
        assert w("") == EMPTY_WORD
        assert w("").length == 0

    def test_bad_character(self):
        with pytest.raises(WordParseError) as info:
            w("XZY")
        assert info.value.position == 1

    def test_zero_exponent(self):
        with pytest.raises(WordParseError):
            w("X^0Y")

    def test_dangling_caret(self):
        with pytest.raises(WordParseError):
            w("X^")

    def test_non_ascii_digits(self):
        # Arabic-Indic and fullwidth digits: the caret has no exponent
        for text in ("X^\u0663Y", "YX^\uff12"):
            with pytest.raises(WordParseError) as info:
                w(text)
            assert info.value.position == text.index("^")

    def test_max_length(self):
        assert w("X^2Y^3") == word_parse("X^2Y^3", max_length=5)
        with pytest.raises(WordParseError) as info:
            word_parse("XY^5", max_length=5)
        assert info.value.position == 1
        # rejected before the bits of the huge run are built
        with pytest.raises(WordParseError):
            word_parse("Y^99999999999999", max_length=128)
        # the token that crosses the cap is named
        with pytest.raises(WordParseError) as info:
            word_parse("X^100Y^29", max_length=128)
        assert info.value.position == 5
        # an exponent of more digits than int() converts is a parse error at
        # its token, with the cap or without
        for text, position in (("X^" + "9" * 5000, 0), ("XY^" + "9" * 5000, 1)):
            with pytest.raises(WordParseError, match="longer than 128 letters") as info:
                word_parse(text, max_length=128)
            assert info.value.position == position
            with pytest.raises(WordParseError, match="too many digits") as info:
                word_parse(text)
            assert info.value.position == position
        # leading zeros do not count toward the cap
        assert word_parse("X^" + "0" * 5000 + "5", max_length=5) == w("X^5")

    def test_round_trip_is_canonical(self):
        for word in all_words(6):
            assert w(word_format(word)) == word

    def test_format_examples(self):
        assert word_format(w("XXY")) == "X^2Y"
        assert word_format(w("XYXY")) == "XYXY"
        assert word_format(EMPTY_WORD) == ""

    def test_format_matches_the_runs(self):
        for n in range(11):
            for word in all_words(n):
                text = "".join(
                    letter.name if mult == 1 else f"{letter.name}^{mult}"
                    for letter, mult in word.runs()
                )
                assert word_format(word) == text


class TestWordOps:
    def test_interchange(self):
        assert interchange(w("XXY")) == w("YYX")
        assert interchange(EMPTY_WORD) == EMPTY_WORD
        assert interchange(interchange(w("XYXY"))) == w("XYXY")

    def test_reverse(self):
        assert reverse(w("XXY")) == w("YXX")
        assert reverse(w("X")) == w("X")
        assert reverse(reverse(w("XYYX"))) == w("XYYX")

    def test_cyclic_shift(self):
        assert cyclic_shift(w("XYY")) == w("YYX")
        assert cyclic_shift(w("XX")) == w("XX")
        word = w("XYX")
        shifted = word
        for _ in range(word.length):
            shifted = cyclic_shift(shifted)
        assert shifted == word

    def test_cyclic_shift_empty_rejected(self):
        with pytest.raises(ValueError):
            cyclic_shift(EMPTY_WORD)

    def test_involutions_exhaustive(self):
        for n in range(9):
            for word in all_words(n):
                assert interchange(interchange(word)) == word
                assert reverse(reverse(word)) == word
                assert interchange(word).count_x == word.count_y
                if n:
                    shifted = word
                    for _ in range(n):
                        shifted = cyclic_shift(shifted)
                    assert shifted == word

    def test_lexicographic_packing(self):
        ordered = sorted(all_words(3))
        texts = [word_format(word) for word in ordered]
        assert texts == ["X^3", "X^2Y", "XYX", "XY^2", "YX^2", "YXY", "Y^2X", "Y^3"]


def _letter_runs(word: Word) -> tuple[tuple[Letter, int], ...]:
    """The run split, letter by letter: the reference for Word.runs()."""
    runs: list[tuple[Letter, int]] = []
    for letter in word.letters():
        if runs and runs[-1][0] == letter:
            runs[-1] = (letter, runs[-1][1] + 1)
        else:
            runs.append((letter, 1))
    return tuple(runs)


class TestRuns:
    def test_matches_letter_by_letter_split(self):
        for n in range(13):
            for word in all_words(n):
                assert word.runs() == _letter_runs(word)

    def test_round_trip_exhaustive(self):
        for n in range(13):
            for word in all_words(n):
                assert Word.from_runs(word.runs()) == word

    def test_runs_structure(self):
        assert w("X^2Y^3X").runs() == ((X, 2), (Y, 3), (X, 1))
        assert EMPTY_WORD.runs() == ()

    def test_adjacent_runs_distinct(self):
        for n in range(13):
            for word in all_words(n):
                runs = word.runs()
                assert all(a[0] != b[0] for a, b in zip(runs, runs[1:]))
                assert all(m >= 1 for _, m in runs)
                assert sum(m for _, m in runs) == word.length

    def test_from_runs(self):
        with pytest.raises(ValueError):
            Word.from_runs([(X, 0)])
        assert Word.from_runs([(X, 2), (X, 1)]) == w("X^3")


def _run_class(word: Word) -> tuple[Letter, tuple[int, ...]]:
    """The first letter and the sorted run lengths: the words that permute word's runs."""
    runs = word.runs()
    return runs[0][0], tuple(sorted(mult for _, mult in runs))


class TestWordTables:
    """The half-table joins against the single-word functions."""

    def test_texts_match_word_format_on_every_word(self):
        for n in range(15):
            keep = [1] * (1 << n)
            assert list(word_texts(n, keep)) == [word_format(word) for word in all_words(n)], n

    def test_texts_of_kept_words_only(self):
        rng = random.Random(23)
        for n in range(15):
            keep = [rng.choice((0, 0, 1, -7)) for _ in range(1 << n)]
            expected = [word_format(word) for word, k in zip(all_words(n), keep) if k]
            assert list(word_texts(n, keep)) == expected, n

    def test_texts_join_the_boundary_runs(self):
        # X^5Y^4 splits into X^5 and Y^4, X^9 into X^5 and X^4: one run across the halves
        texts = list(word_texts(9, [1] * 512))
        assert texts[w("X^5Y^4").bits] == "X^5Y^4"
        assert texts[w("X^9").bits] == "X^9"
        assert texts[w("YX^7Y").bits] == "YX^7Y"

    def test_keys_partition_the_words_into_run_classes(self):
        for n in range(1, 15):
            keys = list(run_class_keys(n))
            assert len(keys) == 1 << n
            by_key: dict[int, tuple] = {}
            by_class: dict[tuple, int] = {}
            for key, word in zip(keys, all_words(n)):
                cls = _run_class(word)
                assert by_key.setdefault(key, cls) == cls, (n, word)
                assert by_class.setdefault(cls, key) == key, (n, word)

    def test_keys_count_the_runs_of_each_length(self):
        # first letter + 2 sum_runs (n + 1)^(r - 1): a digit in base n + 1 per run length
        keys = list(run_class_keys(12))
        assert keys[w("X^11Y").bits] == 2 * (13**10 + 1)
        assert keys[w("YX^10Y").bits] == 1 + 2 * (13**9 + 2)
        assert keys[w("Y^12").bits] == 1 + 2 * 13**11


class TestWordBits:
    def test_bits_outside_the_length_rejected(self):
        for length, bits in ((2, 7), (2, 4), (0, 1), (3, -1), (-1, 0)):
            with pytest.raises(ValueError):
                Word(length, bits)

    def test_boundary_words_accepted(self):
        assert Word(2, 3) == w("Y^2") and word_format(Word(2, 3)) == "Y^2"
        assert Word(0, 0) == EMPTY_WORD
        assert Word(64, (1 << 64) - 1) == w("Y^64")

    def test_still_a_named_tuple(self):
        word = Word(3, 5)
        assert (word.length, word.bits) == tuple(word) == (3, 5)
        assert repr(word) == "Word(length=3, bits=5)"
        assert pickle.loads(pickle.dumps(word)) == word
        assert {word: 1}[w("YXY")] == 1


@given(
    a=st.integers(-50, 50),
    b=st.integers(1, 50),
    c=st.integers(-50, 50),
    d=st.integers(1, 50),
)
def test_fraction_addition_reduces(a, b, c, d):
    left = Fraction(a, b) + Fraction(c, d)
    right = Fraction(a * d + c * b, b * d)
    assert left == right
    assert left.denominator > 0
    from math import gcd

    assert gcd(abs(left.numerator), left.denominator) == 1


@given(a=st.integers(-100, 100), b=st.integers(-100, 100))
def test_fraction_matches_integers_on_unit_denominators(a, b):
    assert Fraction(a) + Fraction(b) == Fraction(a + b)
    assert Fraction(a) * Fraction(b) == Fraction(a * b)


class TestFreePoly:
    def test_noncommutative_product(self):
        x = FreePoly.from_letter(X)
        y = FreePoly.from_letter(Y)
        product = (x + y) * (x - y)
        assert product == FreePoly(
            {w("XX"): 1, w("XY"): -1, w("YX"): 1, w("YY"): -1}
        )

    def test_coeff(self):
        half = Fraction(1, 2)
        p = FreePoly({w("XY"): half, w("YX"): -half})
        assert p.coeff(w("XY")) == half
        assert p.coeff(w("XX")) == 0

    def test_homogeneous(self):
        p = FreePoly.one() + FreePoly.from_letter(X) + FreePoly.from_word(w("XY"))
        assert p.homogeneous(2) == FreePoly.from_word(w("XY"))
        assert p.homogeneous(5).is_zero()

    def test_zero_terms_dropped(self):
        p = FreePoly({w("XY"): 1}) + FreePoly({w("XY"): -1})
        assert p.is_zero()
        assert len(p) == 0
        assert FreePoly({w("X"): 0}).is_zero()

    def test_cancelling_words_dropped(self):
        p = FreePoly({w("XY"): 1, w("YX"): 2}) - FreePoly({w("XY"): 1})
        assert p == FreePoly({w("YX"): 2})
        assert len(p) == 1
        x, y = FreePoly.from_letter(X), FreePoly.from_letter(Y)
        square = FreePoly({w("XX"): 1, w("XY"): 1, w("YX"): 1, w("YY"): 1})
        assert ((x + y) * (x + y) - square).is_zero()

    def test_difference_keeps_left_then_right_words(self):
        p = FreePoly({w("XY"): 1, w("YX"): 2})
        q = FreePoly({w("Y^2"): 3, w("XY"): 1, w("X^2"): 1})
        assert list((p - q).items()) == [(w("YX"), 2), (w("Y^2"), -3), (w("X^2"), -1)]
        assert list((q - p).items()) == [(w("Y^2"), 3), (w("X^2"), 1), (w("YX"), -2)]

    def test_equal_sums_hash_equal(self):
        p = FreePoly({w("XY"): 1, w("YX"): Fraction(-1, 2)})
        q = FreePoly([(w("YX"), Fraction(-2, 4)), (w("XY"), 3), (w("XY"), -2), (w("X"), 0)])
        assert p == q
        assert hash(p) == hash(q)

    def test_scale(self):
        p = FreePoly({w("XY"): Fraction(1, 2)})
        assert p.scale(2) == FreePoly({w("XY"): 1})
        assert p.scale(0).is_zero()
        assert (3 * p).coeff(w("XY")) == Fraction(3, 2)

    def test_word_product_is_concatenation(self):
        p = FreePoly.from_word(w("XY")) * FreePoly.from_word(w("YX"))
        assert p == FreePoly.from_word(w("XYYX"))

    def test_format(self):
        p = FreePoly({w("XY"): Fraction(1, 2), w("YX"): Fraction(-1, 2)})
        assert str(p) == "1/2*XY - 1/2*YX"
        assert repr(p) == "FreePoly(1/2*XY - 1/2*YX)"
        assert str(FreePoly.zero()) == "0"
        assert str(FreePoly.one()) == "1"
        assert str(FreePoly.from_letter(X) + FreePoly.from_letter(Y)) == "X + Y"


class TestFormatSum:
    def test_empty_sum_is_zero(self):
        assert format_sum([]) == "0"

    def test_leading_minus(self):
        assert format_sum([("XY", -1, 2), ("YX", 1, 2)]) == "-1/2*XY + 1/2*YX"
        assert format_sum([("XY", 1, 2), ("YX", -1, 2)]) == "1/2*XY - 1/2*YX"

    def test_unit_coefficient_is_left_out(self):
        assert format_sum([("X", -1, 1), ("XY", 1, 1), ("YX", -1, 1)]) == "-X + XY - YX"

    def test_integer_coefficient(self):
        assert format_sum([("XY", 3, 1), ("Y", -3, 1)]) == "3*XY - 3*Y"

    def test_empty_text_renders_the_number_alone(self):
        assert format_sum([("", 1, 1)]) == "1"
        assert format_sum([("", -1, 1), ("X", 1, 1)]) == "-1 + X"
        assert format_sum([("", -3, 2), ("Y", 2, 3)]) == "-3/2 + 2/3*Y"

    def test_bracketed_text(self):
        # as lie.format_comm_poly passes it
        assert format_sum([("[XY]", 1, 2), ("[YXY]", -1, 1)]) == "1/2*[XY] - [YXY]"


class TestDense:
    def test_round_trip_on_homogeneous_pieces(self):
        p = FreePoly({w("XY"): Fraction(1, 2), w("YX"): Fraction(-1, 3), w("Y^2"): 2})
        ints, den = p.to_dense(2)
        assert (ints, den) == ((0, 3, -2, 12), 6)
        assert FreePoly.from_dense(2, ints, den) == p
        assert FreePoly.zero().to_dense(3) == ((0,) * 8, 1)

    def test_other_lengths_rejected(self):
        with pytest.raises(ValueError):
            FreePoly({w("XY"): 1, w("X"): 1}).to_dense(2)


@given(p=free_polys())
def test_dense_round_trip(p):
    for n, piece in ((n, p.homogeneous(n)) for n in p.degrees()):
        assert FreePoly.from_dense(n, *piece.to_dense(n)) == piece


@given(p=free_polys(), q=free_polys(), r=free_polys())
def test_poly_mul_associative_and_distributive(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p + q) * r == p * r + q * r


@given(p=free_polys(), q=free_polys(), c=small_fractions())
def test_poly_linear_laws(p, q, c):
    assert p + q == q + p
    assert (p + q).scale(c) == p.scale(c) + q.scale(c)
    assert p - p == FreePoly.zero()


def test_letter_has_exactly_two_values():
    assert list(Letter) == [X, Y]
    assert {int(X), int(Y)} == {0, 1}


def test_package_exports_are_explicit():
    # __all__ lists every re-exported name and none of the submodules
    public = {
        name
        for name, value in vars(bchseries).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(bchseries.__all__) == len(set(bchseries.__all__))
    assert set(bchseries.__all__) == public
