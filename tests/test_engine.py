"""Generator matrices, finite exp/log, presets, and golden series terms."""

from __future__ import annotations

import functools
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from hashlib import sha256
from math import comb, factorial, gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bchseries import (
    FreePoly,
    UTMatrix,
    Word,
    X,
    Y,
    all_words,
    build_generator,
    engine_coefficient,
    generator_combination,
    goldberg_direct,
    interchange,
    nilpotent_exp,
    nilpotent_log,
    preset,
    series_term,
    series_terms,
    word_parse,
)
from bchseries import engine, terms
from bchseries.engine import (
    PRESET_NAMES,
    SeriesTerm,
    VariantPreset,
    exp_factor,
    factor_matrix,
    product_matrix,
)
from conftest import small_fractions, spec_terms, strictly_upper_matrices

ROOT = Path(__file__).resolve().parents[1]

w = word_parse
F = Fraction


def poly(coeffs: dict[str, object]) -> FreePoly:
    return FreePoly({w(text): F(value) for text, value in coeffs.items()})


# degree 1..4 terms of ln(e^X e^Y), frozen exactly
STANDARD_1 = poly({"X": 1, "Y": 1})
STANDARD_2 = poly({"XY": F(1, 2), "YX": F(-1, 2)})
STANDARD_3 = poly(
    {
        "X^2Y": F(1, 12),
        "XYX": F(-1, 6),
        "XY^2": F(1, 12),
        "YX^2": F(1, 12),
        "YXY": F(-1, 6),
        "Y^2X": F(1, 12),
    }
)
STANDARD_4 = poly(
    {
        "X^2Y^2": F(1, 24),
        "XYXY": F(-1, 12),
        "YXYX": F(1, 12),
        "Y^2X^2": F(-1, 24),
    }
)

# the full 30-word degree-5 term
STANDARD_5 = poly(
    {
        "Y^2XYX": F(-1, 120),
        "XYXYX": F(1, 30),
        "YXYXY": F(1, 30),
        "YXYX^2": F(-1, 120),
        "YXY^2X": F(-1, 120),
        "YX^2YX": F(-1, 120),
        "Y^4X": F(-1, 720),
        "XY^3X": F(1, 180),
        "X^2Y^2X": F(-1, 120),
        "X^3YX": F(1, 180),
        "YXY^3": F(1, 180),
        "YX^2Y^2": F(-1, 120),
        "YX^3Y": F(1, 180),
        "YX^4": F(-1, 720),
        "Y^2XY^2": F(-1, 120),
        "Y^2X^2Y": F(-1, 120),
        "Y^2X^3": F(1, 180),
        "XYXY^2": F(-1, 120),
        "XYX^2Y": F(-1, 120),
        "XYX^3": F(1, 180),
        "Y^3XY": F(1, 180),
        "Y^3X^2": F(1, 180),
        "XY^2XY": F(-1, 120),
        "XY^2X^2": F(-1, 120),
        "X^2YXY": F(-1, 120),
        "X^2YX^2": F(-1, 120),
        "XY^4": F(-1, 720),
        "X^2Y^3": F(1, 180),
        "X^3Y^2": F(1, 180),
        "X^4Y": F(-1, 720),
    }
)

SYMMETRIC_3 = poly(
    {
        "X^2Y": F(-1, 24),
        "XYX": F(1, 12),
        "XY^2": F(1, 12),
        "YX^2": F(-1, 24),
        "YXY": F(-1, 6),
        "Y^2X": F(1, 12),
    }
)

LOOP_2 = poly({"XY": 1, "YX": -1})
LOOP_3 = poly(
    {
        "X^2Y": F(1, 2),
        "XYX": -1,
        "XY^2": F(-1, 2),
        "YX^2": F(1, 2),
        "YXY": 1,
        "Y^2X": F(-1, 2),
    }
)
LOOP_4 = poly(
    {
        "X^3Y": F(1, 6),
        "X^2YX": F(-1, 2),
        "X^2Y^2": F(-1, 4),
        "XYX^2": F(1, 2),
        "XYXY": F(1, 2),
        "XY^3": F(1, 6),
        "YX^3": F(-1, 6),
        "YXYX": F(-1, 2),
        "YXY^2": F(-1, 2),
        "Y^2X^2": F(1, 4),
        "Y^2XY": F(1, 2),
        "Y^3X": F(-1, 6),
    }
)

TRIANGULAR_2 = poly({"XY": F(-1, 2), "YX": F(1, 2)})
TRIANGULAR_3 = poly(
    {
        "X^2Y": F(1, 6),
        "XYX": F(-1, 3),
        "XY^2": F(1, 6),
        "YX^2": F(1, 6),
        "YXY": F(-1, 3),
        "Y^2X": F(1, 6),
    }
)
TRIANGULAR_4 = poly(
    {
        "X^3Y": F(-1, 24),
        "X^2YX": F(1, 8),
        "X^2Y^2": F(-1, 24),
        "XYX^2": F(-1, 8),
        "XYXY": F(1, 12),
        "XY^3": F(-1, 24),
        "YX^3": F(1, 24),
        "YXYX": F(-1, 12),
        "YXY^2": F(1, 8),
        "Y^2X^2": F(1, 24),
        "Y^2XY": F(-1, 8),
        "Y^3X": F(1, 24),
    }
)

SUM_DIFFERENCE_1 = poly({"X": 2})
SUM_DIFFERENCE_2 = poly({"XY": -1, "YX": 1})
# engine-verified degree-3 term; cross-checked against the substitution route below
SUM_DIFFERENCE_3 = poly({"XY^2": F(1, 3), "YXY": F(-2, 3), "Y^2X": F(1, 3)})
SUM_DIFFERENCE_4 = poly(
    {
        "X^3Y": F(1, 12),
        "X^2YX": F(-1, 4),
        "XYX^2": F(1, 4),
        "XY^3": F(-1, 12),
        "YX^3": F(-1, 12),
        "YXY^2": F(1, 4),
        "Y^2XY": F(-1, 4),
        "Y^3X": F(1, 12),
    }
)

SSD_3 = poly(
    {
        "X^2Y": F(-1, 4),
        "XYX": F(1, 2),
        "XY^2": F(1, 12),
        "YX^2": F(-1, 4),
        "YXY": F(-1, 6),
        "Y^2X": F(1, 12),
    }
)


class TestGenerators:
    def test_build_generator_x(self):
        m = build_generator(X, 2)
        x = FreePoly.from_letter(X)
        assert m.order == 3
        assert m.entry(0, 1) == x and m.entry(1, 2) == x
        assert all(
            m.entry(i, j).is_zero() for i in range(3) for j in range(3) if j != i + 1
        )

    def test_build_generator_y(self):
        m = build_generator(Y, 1)
        assert m.order == 2
        assert m.entry(0, 1) == FreePoly.from_letter(Y)

    def test_nilpotency(self):
        for n in (1, 2, 4):
            m = build_generator(X, n)
            power = m
            for _ in range(n):
                power = power @ m
            assert power == UTMatrix.zeros(n + 1)

    def test_degree_below_one_rejected(self):
        with pytest.raises(ValueError):
            build_generator(X, 0)
        with pytest.raises(ValueError):
            generator_combination(1, 1, 0)

    def test_generator_combination(self):
        m = generator_combination(F(1, 2), -1, 3)
        assert m.entry(0, 1) == FreePoly({Word(1, 0): F(1, 2), Word(1, 1): -1})
        assert m.is_strictly_upper()

    @pytest.mark.parametrize("letter", [X, Y])
    def test_generator_is_the_unit_combination(self, letter):
        for n in range(1, 7):
            assert build_generator(letter, n) == generator_combination(1 - letter, letter, n)


class TestExpLog:
    def test_exp_of_zero_is_identity(self):
        assert nilpotent_exp(UTMatrix.zeros(4)) == UTMatrix.identity(4)

    def test_exp_truncates_at_first_power(self):
        m = build_generator(X, 1)
        e = nilpotent_exp(m)
        assert e.entry(0, 0) == FreePoly.one()
        assert e.entry(0, 1) == FreePoly.from_letter(X)

    def test_log_of_identity_is_zero(self):
        assert nilpotent_log(UTMatrix.identity(5)) == UTMatrix.zeros(5)

    def test_log_inverts_exp_on_generators(self):
        for n in range(1, 7):
            m = build_generator(X, n)
            assert nilpotent_log(nilpotent_exp(m)) == m

    def test_first_row_of_standard_log(self):
        p = nilpotent_exp(build_generator(X, 4)) @ nilpotent_exp(build_generator(Y, 4))
        z = nilpotent_log(p)
        assert z.entry(0, 2) == STANDARD_2

    def test_exp_rejects_non_strict(self):
        text = "^nilpotent_exp requires a strictly upper-triangular matrix$"
        with pytest.raises(ValueError, match=text):
            nilpotent_exp(UTMatrix.identity(3))

    def test_log_rejects_non_unit_diagonal(self):
        text = "^nilpotent_log requires a unit diagonal and zero entries below it$"
        with pytest.raises(ValueError, match=text):
            nilpotent_log(UTMatrix.zeros(3))
        with pytest.raises(ValueError, match=text):
            nilpotent_log(build_generator(X, 2))

    def test_unit_diagonal(self):
        assert UTMatrix.identity(3).has_unit_diagonal()
        assert nilpotent_exp(build_generator(X, 3)).has_unit_diagonal()
        assert not UTMatrix.zeros(3).has_unit_diagonal()
        one, x = FreePoly.one(), FreePoly.from_letter(X)
        rows = [list(row) for row in UTMatrix.identity(3).rows]
        rows[1][1] = one + one
        assert not UTMatrix(rows).has_unit_diagonal()
        rows[1][1], rows[2][0] = one, x
        assert not UTMatrix(rows).has_unit_diagonal()

    @settings(max_examples=60, deadline=None)
    @given(m=strictly_upper_matrices(max_order=5))
    def test_exp_of_negation_is_inverse(self, m):
        identity = UTMatrix.identity(m.order)
        assert nilpotent_exp(m) @ nilpotent_exp(m.scale(-1)) == identity


class TestPresets:
    def test_factor_lists(self):
        half = F(1, 2)
        expected = {
            "standard": ((1, 0), (0, 1)),
            "symmetric": ((half, 0), (0, 1), (half, 0)),
            "loop": ((1, 0), (0, 1), (-1, 0), (0, -1)),
            "triangular": ((-1, 0), (1, 1), (0, -1)),
            "sum_difference": ((1, 1), (1, -1)),
            "highly_symmetrized": (
                (-half, -half),
                (half, 0),
                (0, 1),
                (half, 0),
                (-half, -half),
            ),
            "symmetric_sum_difference": ((half, -half), (1, 1), (half, -half)),
            "highly_symmetrized_sum_difference": (
                (-1, 0),
                (half, -half),
                (1, 1),
                (half, -half),
                (-1, 0),
            ),
        }
        assert set(PRESET_NAMES) == set(expected)
        for name, factors in expected.items():
            assert preset(name).factors == tuple(exp_factor(a, b) for a, b in factors)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            preset("sideways")


class TestGoldenTerms:
    def test_standard_to_degree_four(self):
        terms = series_terms(preset("standard"), 4)
        assert [t.degree for t in terms] == [1, 2, 3, 4]
        assert terms[0].body == STANDARD_1
        assert terms[1].body == STANDARD_2
        assert terms[2].body == STANDARD_3
        assert terms[3].body == STANDARD_4

    def test_standard_degree_five(self):
        assert series_term(preset("standard"), 5) == STANDARD_5

    def test_symmetric_low_order(self):
        terms = series_terms(preset("symmetric"), 4)
        assert terms[0].body == STANDARD_1
        assert terms[1].body.is_zero()
        assert terms[2].body == SYMMETRIC_3
        assert terms[3].body.is_zero()

    def test_loop_low_order(self):
        terms = series_terms(preset("loop"), 4)
        assert terms[0].body.is_zero()
        assert terms[1].body == LOOP_2
        assert terms[2].body == LOOP_3
        assert terms[3].body == LOOP_4

    def test_triangular_low_order(self):
        terms = series_terms(preset("triangular"), 4)
        assert terms[0].body.is_zero()
        assert terms[1].body == TRIANGULAR_2
        assert terms[2].body == TRIANGULAR_3
        assert terms[3].body == TRIANGULAR_4

    def test_sum_difference_low_order(self):
        terms = series_terms(preset("sum_difference"), 4)
        assert terms[0].body == SUM_DIFFERENCE_1
        assert terms[1].body == SUM_DIFFERENCE_2
        assert terms[2].body == SUM_DIFFERENCE_3
        assert terms[3].body == SUM_DIFFERENCE_4

    def test_highly_symmetrized_low_order(self):
        terms = series_terms(preset("highly_symmetrized"), 4)
        assert terms[0].body.is_zero()
        assert terms[1].body.is_zero()
        assert terms[2].body == SYMMETRIC_3
        assert terms[3].body.is_zero()

    def test_symmetric_sum_difference_low_order(self):
        terms = series_terms(preset("symmetric_sum_difference"), 4)
        assert terms[0].body == SUM_DIFFERENCE_1
        assert terms[1].body.is_zero()
        assert terms[2].body == SSD_3
        assert terms[3].body.is_zero()

    def test_highly_symmetrized_sum_difference_low_order(self):
        terms = series_terms(preset("highly_symmetrized_sum_difference"), 4)
        assert terms[0].body.is_zero()
        assert terms[1].body.is_zero()
        assert terms[2].body == SSD_3
        assert terms[3].body.is_zero()


def substitute(body: FreePoly, image_x: FreePoly, image_y: FreePoly) -> FreePoly:
    """Replace each letter of each word by a polynomial, preserving order."""
    total = FreePoly.zero()
    for word, coeff in body.items():
        product = FreePoly.one()
        for letter in word.letters():
            product = product * (image_x if letter == X else image_y)
        total = total + product.scale(coeff)
    return total


class TestSubstitutionOracles:
    """Variants that are substitutions into another series must agree with it."""

    def test_sum_difference_is_standard_of_sum_and_difference(self):
        x = FreePoly.from_letter(X)
        y = FreePoly.from_letter(Y)
        for n in range(1, 7):
            expected = substitute(series_term(preset("standard"), n), x + y, x - y)
            assert series_term(preset("sum_difference"), n) == expected

    def test_symmetric_sum_difference_is_symmetric_of_difference_and_sum(self):
        x = FreePoly.from_letter(X)
        y = FreePoly.from_letter(Y)
        for n in range(1, 7):
            expected = substitute(series_term(preset("symmetric"), n), x - y, x + y)
            assert series_term(preset("symmetric_sum_difference"), n) == expected


class TestEngineCoefficient:
    def test_examples(self):
        assert engine_coefficient(w("XY")) == F(1, 2)
        assert engine_coefficient(w("X^4Y^4")) == F(23, 120960)
        assert engine_coefficient(w("X^3")) == 0

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            engine_coefficient(w(""))


class TestSeriesInvariants:
    def test_antisymmetry_under_interchange(self):
        # swapping the two exponents negates even degrees and fixes odd ones
        for n in range(1, 9):
            body = series_term(preset("standard"), n)
            swapped = FreePoly({interchange(word): c for word, c in body.items()})
            sign = 1 if n % 2 else -1
            assert swapped == body.scale(sign)

    def test_symmetric_even_terms_vanish(self):
        terms = series_terms(preset("symmetric"), 12)
        for term in terms:
            if term.degree % 2 == 0:
                assert term.body.is_zero()

    def test_low_degree_cancellations(self):
        assert series_term(preset("loop"), 1).is_zero()
        assert series_term(preset("triangular"), 1).is_zero()
        assert series_term(preset("sum_difference"), 1) == SUM_DIFFERENCE_1
        assert series_term(preset("highly_symmetrized"), 1).is_zero()
        assert series_term(preset("highly_symmetrized"), 2).is_zero()
        assert series_term(preset("highly_symmetrized"), 4).is_zero()
        assert series_term(preset("symmetric_sum_difference"), 2).is_zero()
        assert series_term(preset("symmetric_sum_difference"), 4).is_zero()

    def test_truncation_consistency(self):
        full = series_terms(preset("standard"), 8)
        for m in range(1, 8):
            shorter = series_terms(preset("standard"), m)
            assert shorter == full[:m]

    def test_degenerate_order_returns_zero_terms(self):
        terms = series_terms(preset("loop"), 1)
        assert len(terms) == 1 and terms[0].body.is_zero()

    def test_order_below_one_rejected(self):
        with pytest.raises(ValueError):
            series_terms(preset("standard"), 0)

    def test_full_matrix_path_matches_row_path(self):
        for name in PRESET_NAMES:
            assert spec_terms(preset(name), 6) == series_terms(preset(name), 6)

    @settings(max_examples=50, deadline=None)
    @given(
        factors=st.lists(
            st.tuples(small_fractions(max_num=3, max_den=7), small_fractions(max_num=3, max_den=7)),
            min_size=1,
            max_size=4,
        ),
        degree=st.integers(min_value=1, max_value=5),
    )
    def test_default_path_matches_full_matrix_on_random_factors(self, factors, degree):
        # the presets only use denominators 1 and 2; this exercises the L and M scaling
        variant = VariantPreset("random", tuple(exp_factor(a, b) for a, b in factors))
        assert series_terms(variant, degree) == spec_terms(variant, degree)

    def test_default_path_does_not_form_matrices(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the default path formed a matrix product")

        monkeypatch.setattr(engine, "product_matrix", refuse)
        variant = VariantPreset("uncached", (exp_factor(F(1, 3), 2), exp_factor(-1, F(1, 5))))
        assert series_terms(variant, 3)[0].body == poly({"X": F(-2, 3), "Y": F(11, 5)})

    def test_homogeneity_of_terms(self):
        for name in PRESET_NAMES:
            for term in series_terms(preset(name), 6):
                assert all(word.length == term.degree for word in term.body.words())

    def test_repeat_runs_are_identical(self):
        a = spec_terms(preset("standard"), 5)
        b = spec_terms(preset("standard"), 5)
        assert a == b


def _kronecker_factor_mul(series, factor, scale):
    """exp(a*X + b*Y) * series as a binomial-weighted Kronecker product.

    The exponential is stored: its degree-i part gives each word
    (aL)^#X (bL)^#Y.  Its degree-i part and the series' degree-j part
    concatenate at index (u << j) | v with the weight binom(i + j, i).
    """
    degree = len(series) - 1
    letters = (int(factor.a * scale), int(factor.b * scale))
    exp = [[1]]
    for _ in range(degree):
        exp.append([c * letter for c in exp[-1] for letter in letters])
    out = [[0] * (1 << d) for d in range(degree + 1)]
    for j, right in enumerate(series):
        for i, left in enumerate(exp[: degree + 1 - j]):
            weight = comb(i + j, i)
            pairs = itertools.product(left, right)
            out[i + j] = [o + weight * x * y for o, (x, y) in zip(out[i + j], pairs)]
    return out


def _pack(values, width):
    """sum_i values[i] << (i * width), summed by halves."""
    if len(values) == 1:
        return values[0]
    half = len(values) // 2
    return _pack(values[:half], width) + (_pack(values[half:], width) << (half * width))


def _unpack_slots(packed, degree, width):
    """The 2^degree signed slots of packed: the low half is packed's signed
    residue modulo 2^(width 2^(degree-1)), the rest is the high half."""
    if degree == 0:
        assert -(1 << (width - 1)) <= packed < 1 << (width - 1)
        return [packed]
    bits = width << (degree - 1)
    low = packed & ((1 << bits) - 1)
    if low >> (bits - 1):
        low -= 1 << bits
    high = (packed - low) >> bits
    return _unpack_slots(low, degree - 1, width) + _unpack_slots(high, degree - 1, width)


def _slot_width_for(series_list):
    """The narrowest signed slot that holds every value of every series."""
    return 1 + max(abs(v).bit_length() for series in series_list for part in series for v in part)


def _packed_factor_mul(series, factor, scale, width):
    """engine._factor_mul on the packed series, at the scaled weights, unpacked again."""
    packed = [_pack(part, width) for part in series]
    engine._factor_mul(packed, int(factor.a * scale), int(factor.b * scale), width)
    return [_unpack_slots(part, d, width) for d, part in enumerate(packed)]


def _factor_products(factors, degree, mul):
    """Every partial product exp(f_k) ... exp(f_n), in the graded core's scaling, via mul.

    The graded core multiplies from the left, so the factors run last to first.
    """
    scale = lcm(*(q.denominator for factor in factors for q in factor))
    product = [[1]] + [[0] * (1 << d) for d in range(1, degree + 1)]
    partials = []
    for factor in reversed(factors):
        product = mul(product, factor, scale)
        partials.append(product)
    return partials


def _assert_packed_products_match(factors, degree):
    expected = _factor_products(factors, degree, _kronecker_factor_mul)
    width = _slot_width_for(expected)
    packed = functools.partial(_packed_factor_mul, width=width)
    assert _factor_products(factors, degree, packed) == expected


def _random_factors(seed):
    """1-5 factors with denominators up to 7.  By seed % 10, one factor is left
    as drawn, gets the weights (0, b), (a, 0), (0, 0), (a, a) or (a, -a), or
    gets unit weights u: (u, 0), (0, u), (u, u) or (u, -u), u = 1/L with L the
    lcm of the other factors' denominators, so that uL = 1.  So every step
    of _factor_mul is reached."""
    rng = random.Random(seed)

    def weight():
        return F(rng.randint(-3, 3), rng.randint(1, 7))

    factors = [exp_factor(weight(), weight()) for _ in range(rng.randint(1, 5))]
    k = rng.randrange(len(factors))
    a, b = factors.pop(k)
    u = F(1, lcm(*(q.denominator for factor in factors for q in factor)))
    shaped = [(a, b), (0, b), (a, 0), (0, 0), (a, a), (a, -a), (u, 0), (0, u), (u, u), (u, -u)]
    factors.insert(k, exp_factor(*shaped[seed % 10]))
    return tuple(factors)


def _step_shape(a, b):
    """The step that _factor_mul takes for the scaled weights (a, b), and
    whether it skips the multiply by a unit weight; exp(0) is its own shape."""
    if a == b == 0:
        return "0", False
    if b == 0:
        return "X", a == 1
    if a == 0:
        return "Y", b == 1
    if a == b:
        return "X+Y", a == 1
    if a == -b:
        return "X-Y", a == 1
    return "aX+bY", False


# one factor of each step, in integer weights, so scaled by L = 1
_SHAPES = [(1, 0), (-2, 0), (0, 1), (0, 2), (1, 1), (2, 2), (1, -1), (-2, 2), (0, 0), (3, -2)]


def _sparse_series(rng, degree):
    """A signed random graded series up to degree, each part zero with chance 0.4."""
    return [
        [rng.randint(-9, 9) for _ in range(1 << d)] if rng.random() < 0.6 else [0] * (1 << d)
        for d in range(degree + 1)
    ]


class TestFactorProduct:
    """The packed left product against the stored-exponential Kronecker product."""

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_matches_the_kronecker_product_on_presets(self, name):
        _assert_packed_products_match(tuple(preset(name).factors), 14)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_the_kronecker_product_on_random_factors(self, seed):
        _assert_packed_products_match(_random_factors(seed), 1 + seed % 12)

    def test_random_factors_cover_zero_weights(self):
        factors = [f for seed in range(30) for f in _random_factors(seed)]
        assert any(a == 0 and b != 0 for a, b in factors)
        assert any(b == 0 and a != 0 for a, b in factors)
        assert exp_factor(0, 0) in factors
        # every step, with the weights scaled as _graded_series scales them
        reached = set()
        for seed in range(30):
            factors = _random_factors(seed)
            scale = lcm(*(q.denominator for factor in factors for q in factor))
            reached |= {_step_shape(int(a * scale), int(b * scale)) for a, b in factors}
        assert reached == {_step_shape(a, b) for a, b in _SHAPES}
        assert len(reached) == len(_SHAPES)

    @pytest.mark.parametrize("a, b", _SHAPES)
    def test_every_step_matches_the_kronecker_product(self, a, b):
        # the step alone, and after a general factor that fills every slot
        _assert_packed_products_match((exp_factor(a, b),), 12)
        _assert_packed_products_match((exp_factor(a, b), exp_factor(2, -3)), 12)

    @pytest.mark.parametrize("a, b", _SHAPES)
    def test_every_step_matches_the_kronecker_product_on_sparse_series(self, a, b):
        for seed in range(3):
            series = _sparse_series(random.Random(f"{a},{b}:{seed}"), 12)
            expected = _kronecker_factor_mul(series, exp_factor(a, b), 1)
            width = _slot_width_for([series, expected])
            assert _packed_factor_mul(series, exp_factor(a, b), 1, width) == expected

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_the_kronecker_product_on_sparse_series(self, seed):
        # any graded series, not only a product of exponentials: some parts
        # are zero, among them sometimes p_0, and the others are random and signed
        rng = random.Random(seed)
        series = _sparse_series(rng, rng.randint(1, 10))
        factor = _random_factors(100 + seed)[0]
        scale = lcm(*range(1, 8))  # clears every denominator up to 7
        expected = _kronecker_factor_mul(series, factor, scale)
        width = _slot_width_for([series, expected])
        assert _packed_factor_mul(series, factor, scale, width) == expected


# values at the signed 64-bit boundary that fit it, and wide ones just beyond;
# 2^64 and -2^64 - 2^63 differ from a 64-bit value only in byte 8
_NARROW = [-(1 << 63), -(1 << 63) + 1, -1, 0, 1, (1 << 63) - 1]
_WIDE = [1 << 63, -(1 << 63) - 1, 1 << 64, -(1 << 64) - (1 << 63)]


def _decoded(values, width):
    """values packed as the engine packs a part, to bytes, and decoded again."""
    degree = len(values).bit_length() - 1
    return SeriesTerm._from_packed(degree, _pack(values, width), width >> 3, 1).to_dense()[0]


class TestDecode:
    @pytest.mark.parametrize("width", [8, 16, 32, 64, 72, 80, 136, 200])
    def test_round_trip_at_the_slot_extremes(self, width):
        half = 1 << (width - 1)
        extremes = [-half, -1, 0, 1, half - 1] + [v for v in _NARROW + _WIDE if -half <= v < half]
        rng = random.Random(width)
        for degree in range(9):
            cycled = [extremes[i % len(extremes)] for i in range(1 << degree)]
            shuffled = [rng.choice(extremes) for _ in range(1 << degree)]
            for values in (cycled, cycled[::-1], shuffled):
                assert _decoded(values, width) == tuple(values)

    @pytest.mark.parametrize("width", [72, 80, 136, 200])
    def test_parts_within_64_bits_take_the_struct_pass(self, width, monkeypatch):
        monkeypatch.setattr(terms, "compress", None)  # re-reading a wide slot would fail
        rng = random.Random(width)
        for degree in range(9):
            values = [rng.choice(_NARROW) for _ in range(1 << degree)]
            assert _decoded(values, width) == tuple(values)

    @pytest.mark.parametrize("width", [72, 80, 136, 200])
    def test_one_wide_slot_first_in_the_middle_or_last(self, width):
        half = 1 << (width - 1)
        rng = random.Random(width)
        for degree in range(9):
            count = 1 << degree
            for wide in _WIDE + [-half, half - 1]:
                for place in (0, count // 2, count - 1):
                    values = [rng.choice(_NARROW) for _ in range(count)]
                    values[place] = wide
                    assert _decoded(values, width) == tuple(values)

    def test_coefficients_beyond_64_bits_match_the_word_route(self):
        # the degree-15 part of symmetric_sum_difference at N 16 does not fit 64-bit slots
        variant = preset("symmetric_sum_difference")
        ints, den = series_terms(variant, 16)[14].to_dense()
        wide = [bits for bits, c in enumerate(ints) if not -(1 << 63) <= c < 1 << 63]
        assert wide
        for bits in wide:
            assert F(ints[bits], den) == engine.word_coefficient(variant, Word(15, bits))

    def test_slots_of_up_to_8_bytes_take_a_struct_size(self):
        sizes = [terms._slot_size(bits) for bits in range(1, 129)]
        assert sorted(set(sizes)) == [1, 2, 4, 8] + list(range(9, 17))
        assert all(bits <= 8 * size for bits, size in enumerate(sizes, 1))


class TestMarks:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_count_and_marks_read_the_nonzero_slots(self, name):
        # each N packs its parts in its own slot size
        for degree in range(1, 15):
            for term in series_terms(preset(name), degree):
                ints, _ = term.to_dense()
                assert term.count == len(ints) - ints.count(0)
                assert list(term.marks()) == [c != 0 for c in ints]

    @pytest.mark.parametrize("size", range(1, 18))
    def test_a_body_round_trips_at_every_slot_size(self, size):
        # the largest value needs `size` bytes; the others sit at the 64-bit edges
        top = (1 << (8 * size - 1)) - 1
        values = [top, -top, 0] + [v for v in _NARROW + _WIDE + [-(1 << 64)] if abs(v) < top]
        for n in (4, 5):
            ints = tuple((values * 8)[: 1 << n])
            body = FreePoly({Word(n, bits): F(c, 3) for bits, c in enumerate(ints) if c})
            term = SeriesTerm(n, body)
            assert term.to_dense() == (ints, 3)
            assert term.body == body and list(term.marks()) == [c != 0 for c in ints]
            assert term._size == terms._slot_size(size * 8)

    def test_a_zero_body_round_trips(self):
        for n in range(1, 6):
            term = SeriesTerm(n, FreePoly.zero())
            assert term.to_dense() == ((0,) * (1 << n), 1)
            assert term.count == 0 and term.marks() == bytes(1 << n)
            assert term.body.is_zero()
        # the engine's zero part has den 4! 2^4 lcm(1..4) and slots wider than a body's
        assert SeriesTerm(4, FreePoly.zero()) == series_terms(preset("symmetric"), 4)[3]


class TestSlotWidth:
    def test_surjection_rows_match_inclusion_exclusion(self):
        rows = engine._surjection_rows(40)
        for n, row in enumerate(rows):
            assert row == [
                sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1)) for k in range(n + 1)
            ]
        assert engine._MOST_SURJECTIONS == tuple(map(max, rows[: engine.MAX_DEGREE + 1]))

    def test_the_path_sum_bound_is_reached(self):
        # every letter of exp(3X + 3Y) weighs C = 3 with one sign, so the k-block
        # path sums are k! S(n, k) 3^n: the bound itself, and a narrower slot carries
        variant = VariantPreset("one factor", (exp_factor(3, 3),))
        rng = random.Random(3)
        assert engine.word_coefficient(variant, w("X")) == 3
        for n in range(2, 41):
            for word in (Word(n, 0), Word(n, rng.getrandbits(n))):
                assert engine.word_coefficient(variant, word) == 0, word


def _lcm_to(n):
    return lcm(*range(1, n + 1))


def _partitions(n, top):
    """The partitions of n into parts of at most top, largest part first."""
    if not n:
        yield ()
    for part in range(min(n, top), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _needed_slot_bytes(peaks):
    """The slot bytes that hold parts 1..N, for N = 1..len(peaks).

    peaks[d - 1] is the largest |coefficient| of degree d times d! L^d; at
    truncation N >= d the engine scales it by lcm(1..N) too, to an integer.
    """
    row = []
    for n in range(1, len(peaks) + 1):
        scaled = [peak * _lcm_to(n) for peak in peaks[:n]]
        assert all(value.denominator == 1 for value in scaled)
        row.append(terms._slot_size(max(int(value).bit_length() + 1 for value in scaled)))
    return row


def _proved_slot_size(variant, degree):
    _, _, bound = engine._integer_form(variant.factors)
    return terms._slot_size(engine._slot_width(degree, bound, _lcm_to(degree)))


class TestSlotTable:
    """engine._SLOT_BYTES against the slot bytes that each preset's values need."""

    def test_one_row_of_slot_sizes_per_preset(self):
        assert set(engine._SLOT_BYTES) == {preset(name).factors for name in PRESET_NAMES}
        for row in engine._SLOT_BYTES.values():
            assert len(row) == engine.MAX_DEGREE
            assert all(terms._slot_size(8 * size) == size for size in row)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_every_entry_holds_the_values_it_packs(self, name, slot_table_degree, monkeypatch):
        # one run at the proved width gives the need at every N up to it
        variant, top = preset(name), slot_table_degree
        row = engine._SLOT_BYTES[variant.factors]
        monkeypatch.setattr(engine, "_SLOT_BYTES", {})
        peaks = []
        for term in series_terms(variant, top):
            assert term._size == _proved_slot_size(variant, top)
            ints, _ = term.to_dense()
            # over d! L^d lcm(1..top); at N >= d the ints scale by lcm(1..N) / lcm(1..top) exactly
            assert gcd(*ints) % (_lcm_to(top) // _lcm_to(term.degree)) == 0
            peaks.append(F(max(map(abs, ints)), _lcm_to(top)))
        need = _needed_slot_bytes(peaks)
        assert len(need) <= len(row), (name, need)
        assert all(have >= needed for have, needed in zip(row, need)), (name, need)

    def test_standard_row_from_goldberg_run_classes(self):
        # g(w) depends only on w's first letter and run lengths, so one word per
        # partition of d and first letter has the largest |g| of degree d
        peaks = []
        for d in range(1, engine.MAX_DEGREE + 1):
            words = [
                Word.from_runs(zip(itertools.cycle(letters), parts))
                for parts in _partitions(d, d)
                for letters in ((X, Y), (Y, X))
            ]
            peaks.append(max(abs(goldberg_direct(word)) for word in words) * factorial(d))
        assert bytes(_needed_slot_bytes(peaks)) == engine._SLOT_BYTES[preset("standard").factors]

    @pytest.mark.parametrize("degree", [5, 13])
    def test_series_take_the_smaller_of_table_and_proved_width(self, degree):
        for name in PRESET_NAMES:
            variant = preset(name)
            size = min(_proved_slot_size(variant, degree), engine._SLOT_BYTES[variant.factors][degree - 1])
            assert {term._size for term in series_terms(variant, degree)} == {size}

    def test_the_table_is_keyed_by_the_factors_not_the_name(self):
        standard = preset("standard")
        renamed = VariantPreset("standard", (exp_factor(1, 0), exp_factor(0, 1), exp_factor(1, 0)))
        copied = VariantPreset("my standard", tuple(standard.factors))
        rng = random.Random(8)
        for degree in (8, 13):
            row_size = engine._SLOT_BYTES[standard.factors][degree - 1]
            proved = _proved_slot_size(renamed, degree)
            assert proved > row_size
            # another product under a built-in name keeps the proved width
            renamed_terms = series_terms(renamed, degree)
            assert {term._size for term in renamed_terms} == {proved}
            _assert_sampled_words_match(renamed, renamed_terms, rng, 4)
            # the built-in product under another name takes the table's
            assert {term._size for term in series_terms(copied, degree)} == {row_size}


# sha256 of repr([term._reduced() for term in series_terms(preset(name), N)]):
# every coefficient's exact value.  At N 16 some slots of symmetric_sum_difference
# exceed 64 bits, so the decode reads those slots again.  The other three
# N 16 pins run _factor_mul's one-letter, unit and X +- Y steps on parts of 2^16 slots.
DENSE_SHA256 = {
    ("standard", 13): "a6709f1137ab47363c860254489017c9d7974823a89658f67aa412896e52d8b5",
    ("symmetric", 13): "73d842901ed253231e4dd8f936214699a1a24f0f3c5e79c3e24ab91dc9065974",
    ("loop", 13): "8be5a5bd737b865fcf362457cb6940c069baa8dfc03803e19e6d4229e6ffdaa4",
    ("triangular", 13): "911e0af716c9b62ecef991bdd74048154a1445f2dd0ee6d198f95c7d3025be3a",
    ("sum_difference", 13): "ca56743d210d99e402197be437f7197023324ae226f0b728f406e077b0c3fa96",
    ("highly_symmetrized", 13): "5957e3feea8017f5ad5517c10c647bdb11909e299b62cd4d23a39d9640aca17c",
    ("symmetric_sum_difference", 13): "53ef4f55520e0a48f6079ec03dae1906abd40373f25d41728332bb5ba18c9d63",
    ("highly_symmetrized_sum_difference", 13): (
        "48c58f6dd529e3d454d5664e44f5ef3b01e83b1f15f10924b9260e505cd80c90"
    ),
    ("symmetric_sum_difference", 16): "77e0eb7d427d92b045453fdc8e0881d8ef0ede4604a64cda810578b5ae0a1912",
    ("standard", 16): "369a56999deae7de0c4f61d71f1fcb950f040920421cd95b651487d91120dbcb",
    ("symmetric", 16): "61552c7e00b776197a5cf37e1253af4f74391dc81738ccd35a0afdc7914f5fab",
    ("highly_symmetrized_sum_difference", 16): (
        "750ebb735f649b3bb09024ab6ac5c4213ac73e5bfefc96c9aaea43b0159e7527"
    ),
}


@pytest.mark.parametrize("name, degree", list(DENSE_SHA256))
def test_dense_values_are_pinned(name, degree):
    terms = series_terms(preset(name), degree)
    digest = sha256(repr([term._reduced() for term in terms]).encode()).hexdigest()
    assert digest == DENSE_SHA256[name, degree]


def _assert_sampled_words_match(variant, terms, rng, samples):
    """Each term's dense ints against word_coefficient on X^n, Y^n and sampled words."""
    for term in terms:
        n = term.degree
        ints, den = term.to_dense()
        for bits in [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(samples)]:
            word = Word(n, bits)
            assert F(ints[bits], den) == engine.word_coefficient(variant, word), (variant, word)


class TestHornerLogAgainstWordRoute:
    """The series' Horner log against the Reinsch word route, past the spec route's degrees."""

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets_at_degrees_10_to_14(self, name):
        rng = random.Random(f"horner-{name}")
        _assert_sampled_words_match(preset(name), series_terms(preset(name), 14)[9:], rng, 10)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_factors_at_degrees_10_to_12(self, seed):
        variant = VariantPreset("random", _random_factors(seed))
        terms = engine._graded_series(variant.factors, 10 + seed % 3)
        _assert_sampled_words_match(variant, terms[9:], random.Random(seed), 10)


class TestSeriesTerm:
    def test_reading_the_body_leaves_the_dense_form(self):
        term = series_terms(preset("standard"), 4)[3]
        ints, den = term.to_dense()
        body = term.body
        assert body == FreePoly.from_dense(4, ints, den)
        assert term.body is not body
        # decoded anew on each call, from the same bytes
        assert term.to_dense() == (ints, den) and term.to_dense()[0] is not ints

    @pytest.mark.parametrize("degree", [6, 13])
    def test_body_built_term_equals_the_engine_term(self, degree):
        for name in PRESET_NAMES:
            for term in series_terms(preset(name), degree):
                from_body = SeriesTerm(term.degree, term.body)
                # the engine's den is d! L^d lcm(1..N); a body's is the lcm of its denominators
                assert from_body.to_dense() != term.to_dense()
                assert from_body == term and hash(from_body) == hash(term)
                # at N 13 the engine's low parts take wider slots than a body's
                if degree == 13 and term.degree < 4:
                    assert from_body._size < term._size

    def test_engine_slots_past_8_bytes_equal_a_body_built_term(self):
        # symmetric_sum_difference at N 15 packs in 9-byte slots, read by the wide decode
        for term in series_terms(preset("symmetric_sum_difference"), 15)[:8]:
            from_body = SeriesTerm(term.degree, term.body)
            assert from_body._size < 8 < term._size
            assert from_body == term and hash(from_body) == hash(term)

    def test_term_from_a_body_has_ints(self):
        term = SeriesTerm(2, FreePoly({w("XY"): F(1, 2), w("YX"): F(-1, 2)}))
        assert term.to_dense() == ((0, 1, -1, 0), 2)
        assert term.count == 2
        assert term == series_terms(preset("standard"), 2)[1]
        assert term != SeriesTerm(2, term.body.scale(2))
        # the bytes are made at construction, so a body of another degree is refused
        with pytest.raises(ValueError):
            SeriesTerm(3, term.body)

    def test_sorted_items_and_count_read_the_ints(self):
        for name in PRESET_NAMES:
            for term in series_terms(preset(name), 7):
                n, (ints, den) = term.degree, term.to_dense()
                pairs = [(Word(n, bits), F(c, den)) for bits, c in enumerate(ints) if c]
                assert term.body.sorted_items() == pairs and term.count == len(pairs)
        body = FreePoly({w("YX"): F(2, 3), w("XY"): F(-1, 6)})
        assert SeriesTerm(2, body).body.sorted_items() == body.sorted_items()

    def test_engine_coefficient_matches_the_series_terms(self):
        for n in range(1, 9):
            body = series_term(preset("standard"), n)
            assert all(engine_coefficient(word) == body.coeff(word) for word in all_words(n))

    def test_engine_coefficient_runs_no_series(self, core_runs):
        rng = random.Random(6)
        for n in range(1, 13):
            for word in (Word(n, 0), Word(n, rng.getrandbits(n))):
                engine_coefficient(word)
        assert core_runs == []


class TestTruncation:
    def test_lower_degrees_are_a_prefix_of_a_longer_run(self):
        # the degree-d part does not depend on the truncation N >= d
        for name in PRESET_NAMES:
            v = preset(name)
            assert series_terms(v, 8) == series_terms(v, 12)[:8], name

    def test_a_prefix_for_factors_outside_the_presets(self):
        for seed in range(8):
            v = VariantPreset("random", _random_factors(seed))
            assert series_terms(v, 6) == series_terms(v, 9)[:6], seed


# Run in a fresh interpreter, so that no earlier test has already made a request.
# Prints each bchseries module global whose identity, or whose contents if it
# is a mutable container or an lru_cache, the calls changed.
_STATE_CHECK = """
import sys
import bchseries.cli
from bchseries import (VariantPreset, bernoulli, check_forms, goldberg_direct, goldberg_xy,
                       preset, property_sweep, series_terms, word_coefficient, word_parse)
from bchseries.engine import exp_factor

def module_state():
    state = {}
    for name, module in list(sys.modules.items()):
        if name == "bchseries" or name.startswith("bchseries."):
            for key, value in vars(module).items():
                if isinstance(value, dict):
                    contents = list(value.items())
                elif isinstance(value, (list, set, bytearray)):
                    contents = list(value)
                elif hasattr(value, "cache_info"):
                    contents = value.cache_info()
                else:
                    contents = None
                state[name, key] = (id(value), contents)
    return state

before = module_state()
series_terms(preset("symmetric"), 7)[-1].body
series_terms(VariantPreset("custom", (exp_factor(2, 1), exp_factor(0, -1))), 5)
word_coefficient(preset("loop"), word_parse("X^2YXY"))
goldberg_direct(word_parse("XY^3X"))
goldberg_xy(4, 3)
bernoulli(12)
list(property_sweep(6))
check_forms(max_degree=4)
after = module_state()
print(sorted(key for key in before.keys() | after.keys() if before.get(key) != after.get(key)))
"""


def test_calls_leave_every_module_unchanged():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _STATE_CHECK], capture_output=True, text=True, env=env, timeout=60
    )
    assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr


class TestGrading:
    def test_grading_on_all_intermediates(self):
        for name in ("standard", "symmetric", "loop"):
            factors = preset(name).factors
            n = 8
            partial = UTMatrix.identity(n + 1)
            for factor in factors:
                step = factor_matrix(factor, n)
                assert step.is_graded()
                partial = partial @ step
                assert partial.is_graded()
            a = partial - UTMatrix.identity(n + 1)
            power = a
            for _ in range(n):
                assert power.is_graded()
                power = power @ a
            assert nilpotent_log(partial).is_graded()

    def test_an_entry_of_the_wrong_degree_is_not_graded(self):
        assert UTMatrix.zeros(3).is_graded() and UTMatrix.identity(3).is_graded()
        x, y = FreePoly.from_letter(X), FreePoly.from_letter(Y)
        for i, j, entry in ((1, 0, FreePoly.one()), (2, 1, y), (0, 2, x)):
            rows = [list(row) for row in UTMatrix.zeros(3).rows]
            rows[i][j] = entry
            assert not UTMatrix(rows).is_graded(), (i, j)

    def test_product_matrix_is_graded(self):
        assert product_matrix(preset("highly_symmetrized").factors, 6).is_graded()
