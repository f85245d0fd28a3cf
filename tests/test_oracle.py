"""Goldberg's integral and the block sum for word coefficients, and Bernoulli numbers."""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from math import comb, factorial, lcm

import pytest

from bchseries import (
    Word,
    X,
    Y,
    all_words,
    bernoulli,
    engine_coefficient,
    goldberg_direct,
    goldberg_xy,
    word_coefficient,
    word_parse,
)
from bchseries import engine, oracle
from bchseries.engine import PRESET_NAMES, VariantPreset, exp_factor, preset
from reference import (
    Block,
    BlockSeq,
    collapse,
    enumerate_block_seqs,
    goldberg_direct_naive,
    goldberg_xy_images,
    letters,
)

w = word_parse
F = Fraction
STANDARD = preset("standard")
# not a preset: L = 6, and weights above 1 in absolute value
CUSTOM = VariantPreset("custom", (exp_factor(2, F(-1, 3)), exp_factor(F(1, 2), 3)))


class TestCollapse:
    def test_interior_zero_eliminated(self):
        # X Y X^0 Y X collapses to X Y^2 X
        assert collapse(BlockSeq.of([(1, 1), (0, 1), (1, 0)])) == w("XY^2X")

    def test_leading_x_exponent_zero(self):
        assert collapse(BlockSeq.of([(0, 2), (1, 0)])) == w("Y^2X")

    def test_adjacent_runs_merge(self):
        assert collapse(BlockSeq.of([(2, 0), (1, 1)])) == w("X^3Y")

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError):
            BlockSeq.of([(1, 1), (0, 0)])
        with pytest.raises(ValueError):
            BlockSeq.of([(-1, 2)])

    def test_collapse_totality(self):
        # every block sequence of total degree n collapses to a word of length n
        for n in range(1, 6):
            for k in range(1, n + 1):
                for bs in enumerate_block_seqs(n, k):
                    assert bs.total_degree == n
                    assert collapse(bs).length == n


def block_normal_form(word: Word) -> tuple[Block, ...]:
    """The word's X-first block form X^{p_1}Y^{q_1}...X^{p_K}Y^{q_K}.

    Only p_1 and/or q_K may be zero; all interior exponents are positive.
    """
    blocks: list[Block] = []
    pending_x: int | None = None
    for letter, mult in word.runs():
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


def block_count(word: Word) -> int:
    """K, the number of blocks in the X-first normal form."""
    return len(block_normal_form(word))


class TestBlockNormalForm:
    def test_examples(self):
        assert block_normal_form(w("XY^2X")) == ((1, 2), (1, 0))
        assert block_normal_form(w("Y^2X")) == ((0, 2), (1, 0))
        assert block_normal_form(w("X^5")) == ((5, 0),)
        assert block_normal_form(w("YXYX")) == ((0, 1), (1, 1), (1, 0))
        assert block_normal_form(w("XY")) == ((1, 1),)

    def test_normal_form_properties(self):
        for word in all_words(8):
            if word.length == 0:
                continue
            blocks = block_normal_form(word)
            # only the leading X exponent and trailing Y exponent may vanish
            for i, (r, s) in enumerate(blocks):
                if i > 0:
                    assert r >= 1
                if i < len(blocks) - 1:
                    assert s >= 1
            assert collapse(BlockSeq.of(blocks)) == word
            assert block_count(word) == len(blocks)


def _block_sum_reference(word):
    """goldberg_direct from the explicit block sum, by a loop over k and the positions u.

    state[u] is u! times the sum over the fillings of word[:u] by k blocks;
    each round places one more block, as an X^r step and then a Y^s step,
    and drops the empty (0, 0) block.  No filling has fewer than K blocks,
    K being block_count of the word's normal form.
    """
    n = word.length
    text = tuple(letters(word))
    # xrun[u] / yrun[u]: consecutive same letters starting at position u
    xrun = [0] * (n + 1)
    yrun = [0] * (n + 1)
    for u in range(n - 1, -1, -1):
        if text[u] == X:
            xrun[u] = xrun[u + 1] + 1
        else:
            yrun[u] = yrun[u + 1] + 1
    k_min = block_count(word)
    m = lcm(*range(1, n + 1))
    total = 0
    state = [0] * (n + 1)
    state[0] = 1
    for k in range(1, n + 1):
        # after k - 1 non-empty blocks, state[u] vanishes for u < k - 1
        half = [0] * (n + 1)
        for u in range(k - 1, n + 1):
            if state[u]:
                for r in range(xrun[u] + 1):
                    half[u + r] += comb(u + r, r) * state[u]
        nxt = [0] * (n + 1)
        for u in range(k - 1, n + 1):
            if half[u]:
                for s in range(yrun[u] + 1):
                    nxt[u + s] += comb(u + s, s) * half[u]
            nxt[u] -= state[u]
        state = nxt
        if state[n]:
            assert k >= k_min, f"block filling with k={k} < K={k_min} for word {word}"
            total += (-1) ** (k - 1) * (m // k) * state[n]
    return F(total, m * factorial(n))


class TestGoldbergDirect:
    def test_degree_two(self):
        assert goldberg_direct(w("XY")) == F(1, 2)
        assert goldberg_direct(w("YX")) == F(-1, 2)

    def test_degree_four(self):
        assert goldberg_direct(w("XYXY")) == F(-1, 12)

    def test_single_letter_powers_vanish(self):
        assert goldberg_direct(w("X^5")) == 0
        assert goldberg_direct(w("Y^7")) == 0
        assert goldberg_direct(w("X")) == 1
        assert goldberg_direct(w("Y")) == 1

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            goldberg_direct(w(""))
        with pytest.raises(ValueError):
            goldberg_direct_naive(w(""))

    def test_block_count_exposed(self):
        # K is read off the test-side normal form; the coefficient is a bare Fraction
        word = w("XY^2X")
        assert block_count(word) == 2
        value = goldberg_direct(word)
        assert type(value) is Fraction
        assert value == 0 == _block_sum_reference(word)

    def test_direct_matches_naive_exhaustively(self):
        # the filter-based enumeration is the oracle for Goldberg's integral
        for n in range(1, 7):
            for word in all_words(n):
                assert goldberg_direct(word) == goldberg_direct_naive(word), word

    def test_direct_matches_engine_to_degree_ten(self):
        for n in range(1, 11):
            for word in all_words(n):
                assert goldberg_direct(word) == engine_coefficient(word), word

    def test_direct_matches_engine_on_seeded_words(self):
        rng = random.Random(1164)
        for n in range(11, 65):
            word = Word(n, rng.getrandbits(n))
            assert goldberg_direct(word) == engine_coefficient(word), word

    @pytest.mark.parametrize("n", [21, 27, 32, 40, 48, 55, 64])
    def test_permuted_runs_keep_the_coefficient(self, n):
        # Goldberg's symmetry: the coefficient depends only on the first letter
        # and the multiset of run lengths.  The integral has it by construction,
        # the Reinsch matrices do not, so the engine side makes this a check.
        rng = random.Random(n)
        for _ in range(2):
            word = Word(n, rng.getrandbits(n))
            runs = word.runs()
            lengths = [s for _, s in runs]
            rng.shuffle(lengths)
            other = Word.from_runs([(letter, s) for (letter, _), s in zip(runs, lengths)])
            assert other.runs()[0][0] == runs[0][0] and other != word
            ours = goldberg_direct(word)
            assert goldberg_direct(other) == ours, word
            assert engine_coefficient(other) == engine_coefficient(word) == ours, word

    def test_matches_block_sum_reference_exhaustively(self):
        for n in range(1, 11):
            for word in all_words(n):
                assert goldberg_direct(word) == _block_sum_reference(word), word

    @pytest.mark.parametrize("n", [16, 24, 32, 48, 64, 96, 128])
    def test_matches_block_sum_reference_on_seeded_words(self, n):
        rng = random.Random(n)
        for _ in range(3):
            word = Word(n, rng.getrandbits(n))
            assert goldberg_direct(word) == _block_sum_reference(word), word

    @pytest.mark.parametrize(
        "text", ["X^128", "Y^128", "X^64Y^64", "XY" * 64, "X^127Y"],
        ids=["X^128", "Y^128", "X^64Y^64", "(XY)^64", "X^127Y"],
    )
    def test_matches_block_sum_reference_at_the_cap(self, text):
        word = w(text)
        assert word.length == engine.MAX_WORD_LENGTH
        value = goldberg_direct(word)
        assert value == _block_sum_reference(word)
        assert value == engine_coefficient(word)

    def test_block_count_guard_fails_on_a_low_filling(self, monkeypatch):
        # XY^2X has a 2-block filling; claiming K = 3 must trip the reference's guard
        monkeypatch.setattr(sys.modules[__name__], "block_count", lambda word: 3)
        with pytest.raises(AssertionError, match=r"k=2 < K=3 for word XY\^2X"):
            _block_sum_reference(w("XY^2X"))

    # Values of an earlier Fraction loop over the explicit block sum: the first
    # non-zero coefficient among random.Random(2026)'s words of each length.
    PINNED = (
        ("XYXYX^3Y^3X^2YX^2Y", "1/25945920"),
        ("YX^7YXYX^2YX^2Y^2X", "1/1150269120"),
        ("Y^4X^2Y^3X^3YXY^2X^2YXY^3", "-11/5046604093440"),
        ("YX^5Y^2X^5Y^2XY^2XYX^6Y", "-1759/111025290055680000"),
        ("YXYX^2YXY^2XYXY^3XY^2X^3Y^4X^2YXY^2", "479/166352892933427200"),
        ("Y^5XY^3X^4YXYX^3Y^9X^2YX^4", "-15233/228755890563847815168000"),
        (
            "Y^3X^3YX^4Y^2XYX^2YX^3Y^2X^2Y^2XYX^3YX^4YX^2",
            "79/5801421034140873523200",
        ),
        (
            "Y^3X^2YXYX^3YX^3Y^3X^2YX^2YXYX^2YX^2YXY^2XYX^2YX^3YX",
            "1/6048761188983546249216",
        ),
        (
            "XY^2XYXY^3XYXY^2XYXY^2X^3Y^3X^2Y^4XYXYXYX^2Y^2XY^3XYX^2Y",
            "135823/12338263073288637639150796800",
        ),
        (
            "YX^2YX^2YXYX^2YX^2Y^4XY^6X^2YX^3YX^3YXY^2X^2YXYX^4Y^3XYXY",
            "476423/20925694172297529435999751372800",
        ),
        (
            "Y^2XYXY^4XYX^2Y^4XYX^3Y^4X^2YX^3Y^2X^4Y^4XYXYXY^5X^3YXY^2X",
            "-8667053/627475403604140506193837250576384000",
        ),
        (
            "XY^5XY^2XYXYXY^5XYX^2YX^2YXYX^2Y^3X^3YX^2YXYX^3Y^2X^2Y^2XYX^2YXY^6",
            "29149/151160606586728206057419256627200000",
        ),
    )

    @pytest.mark.parametrize("text, value", PINNED)
    def test_pinned_long_words(self, text, value):
        assert goldberg_direct(w(text)) == F(value)

    @pytest.mark.parametrize("first", "XY")
    def test_words_of_unit_runs_match_the_beta_integral(self, first):
        # every run of length 1 leaves no run polynomial, so the coefficient is
        # int_0^1 t^a (t - 1)^b dt = (-1)^b a! b! / n! with a X->Y and b Y->X
        # boundaries; a Y-first word of even length has a = b - 1, so swapping
        # a and b or dropping the sign flips the value
        other = "Y" if first == "X" else "X"
        for n in range(1, engine.MAX_WORD_LENGTH + 1):
            text = (first + other) * (n // 2) + first * (n % 2)
            a, b = text.count("XY"), text.count("YX")
            expected = F((-1) ** b * factorial(a) * factorial(b), factorial(n))
            assert goldberg_direct(w(text)) == expected, text
            if n <= 64:
                assert engine_coefficient(w(text)) == expected, text

    def test_cap_length_matches_closed_form(self):
        # X^127 Y and X^126 Y^2 hold the widest run polynomials below the cap,
        # H_127 and H_126, and integrate them against t (a = 1, b = 0);
        # B_127 = 0, so X^126 Y^2 is the non-zero one
        assert engine.MAX_WORD_LENGTH == 128
        assert goldberg_direct(w("X^127Y")) == goldberg_xy(127, 1)
        assert goldberg_direct(w("X^126Y^2")) == goldberg_xy(126, 2)


class TestOracleTables:
    """The module tables of Goldberg's integral against independent routes."""

    def test_factorials(self):
        assert oracle._FACTORIALS == tuple(factorial(i) for i in range(129))

    def test_run_polys_are_signed_surjection_rows(self):
        # H_s[j] = (-1)^(s-1-j) (j+1)! S(s, j+1), so ||H_s||_1 = sum_k k! S(s, k);
        # the table holds s <= 20, the recurrence continues it to s = 40
        rows = engine._surjection_rows(40)
        polys = list(oracle._RUN_POLYS)
        assert len(polys) == len(oracle._RUN_NORMS) == 20
        while len(polys) < 40:
            polys.append(oracle._next_run_poly(polys[-1]))
        for s, row in enumerate(polys, 1):
            assert list(row) == [(-1) ** (s - 1 - j) * rows[s][j + 1] for j in range(s)], s
            assert sum(map(abs, row)) == sum(rows[s]), s
        for s, norm in enumerate(oracle._RUN_NORMS, 1):
            assert norm == sum(rows[s]), s

    @pytest.mark.parametrize(
        "text",
        [
            "X^20YXY^3X^2",
            "YX^20Y^2XYX",
            "X^21Y^2XY",
            "Y^21XY^2X^3",
            "X^2Y^20X^21Y",
            "XY^31X^5Y^2",
            "YX^31Y",
            "YX^127",
        ],
    )
    def test_longest_run_at_and_past_the_table(self, text):
        # X^127Y, X^128 and Y^128 are in test_matches_block_sum_reference_at_the_cap
        word = w(text)
        assert goldberg_direct(word) == _block_sum_reference(word)

    def test_words_past_the_factorial_table(self):
        # a word longer than 128 letters reads its factorials from a longer table
        assert goldberg_direct(w("X^129Y")) == goldberg_xy(129, 1)
        assert goldberg_direct(w("X^128Y^2")) == goldberg_xy(128, 2)
        word = w("Y^2X^130")
        assert goldberg_direct(word) == goldberg_xy_images(130, 2)[word]


class TestReinschMatrices:
    """The library's single-word route: Reinsch's word-specialised matrices."""

    def test_short_words_match_engine(self):
        for variant in [preset(name) for name in PRESET_NAMES] + [CUSTOM]:
            for term in engine._graded_series(tuple(variant.factors), 9):
                ints, den = term.to_dense()
                for word in all_words(term.degree):
                    expected = F(ints[word.bits], den)
                    assert word_coefficient(variant, word) == expected, (variant.name, word)

    @pytest.mark.parametrize("n", [16, 20, 24, 28, 32, 40, 64, 128])
    def test_long_words_match_direct_sum(self, n):
        rng = random.Random(n)
        for _ in range(3):
            word = Word(n, rng.getrandbits(n))
            assert word_coefficient(STANDARD, word) == goldberg_direct(word), word
        a = rng.randint(1, n - 1)
        word = Word.from_runs([(X, a), (Y, n - a)])
        assert word_coefficient(STANDARD, word) == goldberg_xy(a, n - a)

    @pytest.mark.parametrize("text, value", TestGoldbergDirect.PINNED)
    def test_pinned_long_words(self, text, value):
        assert word_coefficient(STANDARD, w(text)) == F(value)

    @pytest.mark.parametrize("text", ["X^128", "X^127Y", "X^64Y^64"])
    def test_cap_length_words(self, text):
        word = w(text)
        assert word.length == engine.MAX_WORD_LENGTH
        value = goldberg_xy(word.count_x, word.count_y)
        assert word_coefficient(STANDARD, word) == value == goldberg_direct(word)

    def test_matches_closed_form(self):
        for n in range(1, 33):
            for a in range(n + 1):
                word = Word.from_runs([run for run in ((X, a), (Y, n - a)) if run[1]])
                assert word_coefficient(STANDARD, word) == goldberg_xy(a, n - a), word

    def test_empty_word_rejected(self):
        for name in PRESET_NAMES:
            with pytest.raises(ValueError):
                word_coefficient(preset(name), w(""))


class TestBernoulli:
    def test_first_values(self):
        expected = [
            F(1),
            F(-1, 2),
            F(1, 6),
            F(0),
            F(-1, 30),
            F(0),
            F(1, 42),
            F(0),
            F(-1, 30),
            F(0),
            F(5, 66),
        ]
        assert [bernoulli(i) for i in range(11)] == expected

    def test_value_at_two_against_direct_sum(self):
        # coefficient of X^2 Y is 1/12, and equals B_2 / 2!
        assert goldberg_direct(w("X^2Y")) == F(1, 12)
        assert bernoulli(2) == factorial(2) * goldberg_direct(w("X^2Y"))

    def test_odd_values_vanish(self):
        for m in range(1, 16):
            assert bernoulli(2 * m + 1) == 0

    def test_defining_recurrence(self):
        for m in range(1, 31):
            assert sum(comb(m + 1, j) * bernoulli(j) for j in range(m + 1)) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bernoulli(-1)


class TestGoldbergXY:
    def test_examples(self):
        assert goldberg_xy(2, 1) == F(1, 12)
        assert goldberg_xy(3, 1) == 0
        assert goldberg_xy(6, 1) == F(1, 30240)

    def test_zero_exponents_rejected(self):
        with pytest.raises(ValueError):
            goldberg_xy(0, 0)

    def test_matches_direct_sum(self):
        for a in range(10):
            for b in range(10 - a):
                if a + b < 1:
                    continue
                runs = [run for run in ((X, a), (Y, b)) if run[1] > 0]
                assert goldberg_xy(a, b) == goldberg_direct(Word.from_runs(runs))

    def test_symmetry_images(self):
        for a, b in ((2, 1), (3, 2), (1, 4), (0, 3), (2, 0)):
            for word, value in goldberg_xy_images(a, b).items():
                assert goldberg_direct(word) == value

    def test_even_case_is_bernoulli_over_factorial(self):
        for m in range(1, 6):
            assert goldberg_xy(2 * m, 1) == bernoulli(2 * m) / factorial(2 * m)

    def test_odd_case_vanishes(self):
        for m in range(1, 5):
            assert goldberg_xy(2 * m + 1, 1) == 0
