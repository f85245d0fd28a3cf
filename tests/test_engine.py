"""Generator matrices, finite exp/log, presets, and golden series terms."""

from __future__ import annotations

import itertools
import random
import sys
import threading
from fractions import Fraction
from math import comb, lcm

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
    interchange,
    nilpotent_exp,
    nilpotent_log,
    preset,
    series_term,
    series_terms,
    word_parse,
)
from bchseries import engine
from bchseries.engine import (
    PRESET_NAMES,
    SeriesTerm,
    VariantPreset,
    exp_factor,
    factor_matrix,
    product_matrix,
)
from conftest import small_fractions, spec_terms, strictly_upper_matrices

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
        with pytest.raises(ValueError):
            nilpotent_exp(UTMatrix.identity(3))

    def test_log_rejects_non_unit_diagonal(self):
        with pytest.raises(ValueError):
            nilpotent_log(UTMatrix.zeros(3))
        with pytest.raises(ValueError):
            nilpotent_log(build_generator(X, 2))

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


def _kronecker_factor_mul(product, factor, scale):
    """product * exp(a*X + b*Y) as a binomial-weighted Kronecker product.

    The exponential is stored: its degree-j part gives each word
    (aL)^#X (bL)^#Y.  Parts of degrees i and j concatenate at index
    (u << j) | v with the weight binom(i + j, i).
    """
    degree = len(product) - 1
    letters = (int(factor.a * scale), int(factor.b * scale))
    exp = [[1]]
    for _ in range(degree):
        exp.append([c * letter for c in exp[-1] for letter in letters])
    out = [[0] * (1 << d) for d in range(degree + 1)]
    for i, left in enumerate(product):
        for j, right in enumerate(exp[: degree + 1 - i]):
            weight = comb(i + j, i)
            pairs = itertools.product(left, right)
            out[i + j] = [o + weight * x * y for o, (x, y) in zip(out[i + j], pairs)]
    return out


def _factor_products(factors, degree, mul):
    """Every partial product of the factors, in the graded core's scaling, via mul."""
    scale = lcm(*(q.denominator for factor in factors for q in factor))
    product = [[1]] + [[0] * (1 << d) for d in range(1, degree + 1)]
    partials = []
    for factor in factors:
        product = mul(product, factor, scale)
        partials.append(product)
    return partials


def _random_factors(seed):
    """1-5 factors with denominators up to 7; in a quarter of the seeds each, one
    factor gets a = 0, b = 0 or both."""
    rng = random.Random(seed)

    def weight():
        return F(rng.randint(-3, 3), rng.randint(1, 7))

    factors = [exp_factor(weight(), weight()) for _ in range(rng.randint(1, 5))]
    k = rng.randrange(len(factors))
    a, b = factors[k]
    factors[k] = [factors[k], exp_factor(0, b), exp_factor(a, 0), exp_factor(0, 0)][seed % 4]
    return tuple(factors)


class TestFactorProduct:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_matches_the_kronecker_product_on_presets(self, name):
        factors = tuple(preset(name).factors)
        assert _factor_products(factors, 14, engine._factor_mul) == _factor_products(
            factors, 14, _kronecker_factor_mul
        )

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_the_kronecker_product_on_random_factors(self, seed):
        factors = _random_factors(seed)
        degree = 1 + seed % 12
        assert _factor_products(factors, degree, engine._factor_mul) == _factor_products(
            factors, degree, _kronecker_factor_mul
        )

    def test_random_factors_cover_zero_weights(self):
        factors = [f for seed in range(30) for f in _random_factors(seed)]
        assert any(a == 0 and b != 0 for a, b in factors)
        assert any(b == 0 and a != 0 for a, b in factors)
        assert exp_factor(0, 0) in factors

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_the_kronecker_product_on_sparse_series(self, seed):
        # any graded series, not only a product of exponentials: some parts
        # are zero, among them sometimes p_0, and the live ones are random
        rng = random.Random(seed)
        degree = rng.randint(1, 10)
        product = [
            [rng.randint(-9, 9) for _ in range(1 << d)] if rng.random() < 0.6 else [0] * (1 << d)
            for d in range(degree + 1)
        ]
        factor = _random_factors(100 + seed)[0]
        scale = lcm(*range(1, 8))  # clears every denominator up to 7
        assert engine._factor_mul(product, factor, scale) == _kronecker_factor_mul(
            product, factor, scale
        )


def fresh_terms(name: str, degree: int):
    """Dense terms straight from the core, whose bodies no other test has read."""
    return engine._graded_series(tuple(preset(name).factors), degree)


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
        _assert_sampled_words_match(preset(name), fresh_terms(name, 14)[9:], rng, 10)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_factors_at_degrees_10_to_12(self, seed):
        variant = VariantPreset("random", _random_factors(seed))
        terms = engine._graded_series(variant.factors, 10 + seed % 3)
        _assert_sampled_words_match(variant, terms[9:], random.Random(seed), 10)


class TestSeriesTerm:
    def test_body_is_built_on_first_read_and_kept(self):
        term = fresh_terms("standard", 4)[3]
        ints, den = term.to_dense()
        body = term.body
        assert term.body is body
        assert body == FreePoly.from_dense(4, ints, den)
        # the dense form was dropped for the body; it comes back over the lcm denominator
        assert term.to_dense() == body.to_dense(4) != (ints, den)

    def test_term_from_a_body_has_ints(self):
        term = SeriesTerm(2, FreePoly({w("XY"): F(1, 2), w("YX"): F(-1, 2)}))
        assert term.to_dense() == ((0, 1, -1, 0), 2)
        assert term.count == 2
        assert term == series_terms(preset("standard"), 2)[1]
        assert term != SeriesTerm(3, term.body)

    def test_sorted_items_and_count_read_the_ints(self):
        for name in PRESET_NAMES:
            for term in fresh_terms(name, 7):
                items, count = term.sorted_items(), term.count
                assert items == term.body.sorted_items() and count == len(term.body)
        body = FreePoly({w("YX"): F(2, 3), w("XY"): F(-1, 6)})
        assert SeriesTerm(2, body).sorted_items() == body.sorted_items()

    def test_engine_coefficient_matches_the_series_terms(self):
        for n in range(1, 9):
            body = series_term(preset("standard"), n)
            assert all(engine_coefficient(word) == body.coeff(word) for word in all_words(n))

    def test_engine_coefficient_runs_no_series(self, core_runs):
        rng = random.Random(6)
        for n in range(1, 13):
            for word in (Word(n, 0), Word(n, rng.getrandbits(n))):
                engine_coefficient(word)
        assert core_runs == [] and engine._series_cache == {}


class TestSeriesCache:
    def test_lower_degree_slices_the_cached_entry(self, core_runs):
        v = preset("symmetric")
        series_terms(v, 12)
        lower = series_terms(v, 8)
        assert core_runs == [12]
        assert lower == engine._graded_series(tuple(v.factors), 8)
        assert core_runs == [12, 8]

    def test_higher_degree_replaces_the_entry(self, core_runs):
        v = preset("loop")
        series_terms(v, 5)
        series_terms(v, 7)
        series_terms(v, 6)
        assert core_runs == [5, 7]
        assert list(engine._series_cache) == [tuple(v.factors)]
        assert len(engine._series_cache[tuple(v.factors)]) == 7

    def test_one_entry_per_preset_and_none_for_other_factors(self, core_runs):
        for name in PRESET_NAMES:
            series_terms(preset(name), 3)
        series_terms(VariantPreset("custom", (exp_factor(2, 1),)), 3)
        series_terms(VariantPreset("custom", (exp_factor(2, 1),)), 3)
        assert len(engine._series_cache) == len(PRESET_NAMES)
        assert core_runs == [3] * (len(PRESET_NAMES) + 2)

    def test_threads_with_mixed_degrees_get_identical_terms(self, core_runs):
        factors = tuple(preset("standard").factors)
        # bodies, not (ints, den): the scaling of a part depends on the degree computed
        reference = [t.body for t in engine._graded_series(factors, 10)]
        barrier = threading.Barrier(6)
        errors = []

        def worker(seed):
            rng = random.Random(seed)
            barrier.wait(timeout=60)
            # every thread asks for the top degree once, at a random point
            degrees = [rng.randint(1, 10) for _ in range(39)] + [10]
            rng.shuffle(degrees)
            for degree in degrees:
                if [t.body for t in series_terms(preset("standard"), degree)] != reference[:degree]:
                    errors.append((seed, degree))
                word = Word(degree, rng.getrandbits(degree))
                if engine_coefficient(word) != reference[degree - 1].coeff(word):
                    errors.append((seed, word))

        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        # an entry is never replaced by a shorter one, so the longest asked stays
        assert len(engine._series_cache[factors]) == 10


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

    def test_product_matrix_is_graded(self):
        assert product_matrix(preset("highly_symmetrized").factors, 6).is_graded()
