"""Nested-commutator expansion, the Dynkin form, and commutator-form claims."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from bchseries import (
    CommPoly,
    FreePoly,
    X,
    Y,
    all_words,
    comm_parse,
    dynkin_series,
    expand_comm_poly,
    expand_nested,
    is_lie_element,
    preset,
    rewrite_identity_check,
    series_term,
    series_terms,
    word_parse,
)
from bchseries import forms, lie
from bchseries.forms import CLAIMED_FORMS, check_form, check_forms
from bchseries.lie import bracket_vector, expand_slots, format_comm_poly, is_lie_vector

w = word_parse
F = Fraction


def bracket(p: FreePoly, q: FreePoly) -> FreePoly:
    return p * q - q * p


class TestExpandNested:
    def test_pair(self):
        assert expand_nested(w("XY")) == FreePoly({w("XY"): 1, w("YX"): -1})

    def test_single_letter(self):
        assert expand_nested(w("X")) == FreePoly.from_letter(X)

    def test_triple(self):
        assert expand_nested(w("XXY")) == FreePoly(
            {w("X^2Y"): 1, w("XYX"): -2, w("YX^2"): 1}
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            expand_nested(w(""))

    def test_coefficient_sum_is_zero(self):
        for n in range(2, 9):
            for word in all_words(n):
                expansion = expand_nested(word)
                assert sum((c for _, c in expansion.items()), F(0)) == 0

    def test_trailing_repeated_letter_vanishes(self):
        for n in range(0, 5):
            for word in all_words(n):
                for tail in (w("X^2"), w("X^3"), w("Y^2"), w("Y^3")):
                    assert expand_nested(word.concat(tail)).is_zero()

    def test_matches_explicit_bracketing(self):
        x = FreePoly.from_letter(X)
        y = FreePoly.from_letter(Y)
        assert expand_nested(w("XYXY")) == bracket(x, bracket(y, bracket(x, y)))
        assert expand_nested(w("YX^3Y")) == bracket(
            y, bracket(x, bracket(x, bracket(x, y)))
        )


class TestExpandCommPoly:
    def test_half_bracket(self):
        p = CommPoly({w("XY"): F(1, 2)})
        assert expand_comm_poly(p) == FreePoly({w("XY"): F(1, 2), w("YX"): F(-1, 2)})

    def test_degree_three_form(self):
        p = CommPoly({w("X^2Y"): F(1, 12), w("YXY"): F(-1, 12)})
        assert expand_comm_poly(p) == series_term(preset("standard"), 3)

    def test_empty_is_zero(self):
        assert expand_comm_poly(CommPoly()).is_zero()

    def test_rejects_empty_words(self):
        with pytest.raises(ValueError):
            CommPoly({w(""): 1})
        # the check reads the inputs, before a zero coefficient is dropped
        with pytest.raises(ValueError):
            CommPoly({w(""): 0})


class TestCommPolySum:
    def test_differs_from_the_free_poly_with_the_same_terms(self):
        terms = {w("XY"): F(1, 2), w("YXY"): -1}
        assert CommPoly(terms) != FreePoly(terms)
        assert FreePoly(terms) != CommPoly(terms)

    def test_equal_sums_hash_equal(self):
        p = CommPoly({w("XY"): F(1, 2), w("YXY"): -1})
        q = CommPoly([(w("YXY"), -1), (w("XY"), 1), (w("XY"), F(-1, 2)), (w("X"), 0)])
        assert p == q
        assert hash(p) == hash(q)

    def test_repr(self):
        assert repr(CommPoly({w("XY"): F(1, 2)})) == "CommPoly(1/2*[XY])"


class TestRewriteIdentity:
    def test_degenerate_splice(self):
        # with w2 empty the identity would read [X,Y] = [Y,X] + [X,Y]
        assert rewrite_identity_check(w(""), w("X"))
        with pytest.raises(ValueError):
            rewrite_identity_check(w("X"), w(""))

    def test_nested_instance(self):
        assert rewrite_identity_check(w("Y"), w("XY"))

    def test_exhaustive_small(self):
        for n1 in range(0, 6):
            for w1 in all_words(n1):
                for n2 in range(1, 6 - n1):
                    for w2 in all_words(n2):
                        assert rewrite_identity_check(w1, w2)

    def test_wrong_right_hand_side_fails(self, monkeypatch):
        # an expansion that forgets to bracket breaks the identity
        monkeypatch.setattr(lie, "expand_nested", FreePoly.from_word)
        assert not rewrite_identity_check(w("Y"), w("XY"))

    def test_wrong_slot_sign_fails(self):
        # [w1 Y X w2] - [w1 [X,Y] w2] is not [w1 X Y w2]
        x, y = FreePoly.from_letter(X), FreePoly.from_letter(Y)
        z = expand_nested(w("Y"))
        lhs, swapped = expand_slots([x, y, z]), expand_slots([y, x, z])
        bracketed = expand_slots([bracket(x, y), z])
        assert lhs == swapped + bracketed
        assert lhs != swapped - bracketed

    def test_slots_of_letters_match_expand_nested(self):
        def fold(word):
            return expand_slots([FreePoly.from_letter(letter) for letter in word.letters()])

        for n in range(1, 6):
            for word in all_words(n):
                assert fold(word) == expand_nested(word)
        with pytest.raises(ValueError):
            expand_slots([])
        # the linear map against the term-by-term fold on mixed-length sums
        rng = random.Random(5)
        words = [word for n in range(1, 7) for word in all_words(n)]
        for _ in range(40):
            p = CommPoly(
                (word, F(rng.randint(-9, 9), rng.randint(1, 6)))
                for word in rng.sample(words, rng.randint(1, 30))
            )
            folded = FreePoly.zero()
            for word, coeff in p.sorted_items():
                folded = folded + fold(word).scale(coeff)
            assert expand_comm_poly(p) == folded
        # [XYXY] = [YX^2Y] and [X^2] = 0: whole terms cancel in the sum
        cancelling = CommPoly({w("XYXY"): F(2, 3), w("YX^2Y"): F(-2, 3), w("X^2"): 5})
        assert expand_comm_poly(cancelling).is_zero()

    def test_yxxy_equals_xyxy(self):
        # consequence of the rewrite identity with the inner bracket degenerate
        assert expand_nested(w("YX^2Y")) == expand_nested(w("XYXY"))


class TestJacobi:
    def test_expansion_level_jacobi(self):
        x = FreePoly.from_letter(X)
        y = FreePoly.from_letter(Y)
        for n in range(1, 4):
            for word in all_words(n):
                p = FreePoly.from_word(word)
                total = (
                    bracket(x, bracket(y, p))
                    + bracket(y, bracket(p, x))
                    + bracket(p, bracket(x, y))
                )
                assert total.is_zero()


class TestDynkinSeries:
    def test_degree_one(self):
        assert expand_comm_poly(dynkin_series(1)) == FreePoly(
            {w("X"): 1, w("Y"): 1}
        )

    def test_degree_two_terms(self):
        d = dynkin_series(2)
        assert d.coeff(w("XY")) == F(1, 4)
        assert d.coeff(w("YX")) == F(-1, 4)
        assert expand_comm_poly(d) == series_term(preset("standard"), 2)

    def test_degree_below_one_rejected(self):
        with pytest.raises(ValueError):
            dynkin_series(0)

    def test_matches_series_to_degree_ten(self):
        for n in range(1, 11):
            assert expand_comm_poly(dynkin_series(n)) == series_term(
                preset("standard"), n
            )


class TestVerifyCommutatorForm:
    DEGREE_FIVE = (
        "-1/720*[X^4Y] + 1/120*[XYXYX] + 1/360*[XY^3X]"
        " + 1/360*[YX^3Y] + 1/120*[YXYXY] - 1/720*[Y^4X]"
    )
    DEGREE_SIX = "-1/720*[X^2Y^2XY] + 1/240*[XYXYXY] - 1/1440*[XY^4X] + 1/1440*[YX^4Y]"

    @staticmethod
    def verdict(variant, degree, claim, strict=True):
        return check_form(forms.ClaimedForm("test", variant, degree, claim, strict))

    def test_degree_five_catalog_claim(self):
        claim = comm_parse(self.DEGREE_FIVE)
        assert expand_comm_poly(claim) == series_term(preset("standard"), 5)
        verdict = self.verdict("standard", 5, self.DEGREE_FIVE)
        assert verdict.matches and verdict.ok and verdict.diff.is_zero()

    def test_degree_six_catalog_claim(self):
        claim = comm_parse(self.DEGREE_SIX)
        assert expand_comm_poly(claim) == series_term(preset("standard"), 6)
        verdict = self.verdict("standard", 6, self.DEGREE_SIX)
        assert verdict.matches and verdict.ok and verdict.diff.is_zero()

    def test_loop_degree_three_claim(self):
        claim = comm_parse("1/2*[X^2Y] + 1/2*[YXY]")
        assert expand_comm_poly(claim) == series_term(preset("loop"), 3)
        assert self.verdict("loop", 3, "1/2*[X^2Y] + 1/2*[YXY]").matches

    def test_failing_claim_reports_diff(self):
        claim = comm_parse("1/9*[Y^2X]")
        body = series_term(preset("sum_difference"), 3)
        assert expand_comm_poly(claim) != body
        verdict = self.verdict("sum_difference", 3, "1/9*[Y^2X]")
        assert not verdict.matches and not verdict.ok
        assert not verdict.diff.is_zero()
        assert verdict.claim_body == expand_comm_poly(claim)
        assert verdict.diff == expand_comm_poly(claim) - body
        # report-only, the same mismatch passes on the engine form's Lie content
        assert self.verdict("sum_difference", 3, "1/9*[Y^2X]", strict=False).ok

    def test_check_form_expands_each_claim_once(self, monkeypatch):
        expanded = []

        def counting(p):
            expanded.append(p)
            return expand_comm_poly(p)

        # the Lie content test expands engine pieces through lie's own binding
        monkeypatch.setattr(forms, "expand_comm_poly", counting)
        monkeypatch.setattr(lie, "expand_comm_poly", counting)
        for form in CLAIMED_FORMS:
            expanded.clear()
            verdict = check_form(form)
            assert expanded.count(verdict.claim_poly) == 1, form.label


def dense_expansion(p: CommPoly, n: int) -> FreePoly:
    """bracket_vector on the degree-n CommPoly p, read back as a FreePoly."""
    ints, den = FreePoly(p.items()).to_dense(n)
    return FreePoly.from_dense(n, bracket_vector(ints), den)


class TestBracketVector:
    def test_small_degrees(self):
        assert bracket_vector([0, 5]) == [0, 5]
        assert bracket_vector([0, 1, 0, 0]) == [0, 1, -1, 0]
        # [XXY] = X^2Y - 2 XYX + YX^2
        assert bracket_vector([0, 1, 0, 0, 0, 0, 0, 0]) == [0, 1, -2, 0, 1, 0, 0, 0]

    def test_matches_expand_comm_poly_on_random_values(self):
        # degrees 3 and up take strided slices in the first steps, contiguous ones later
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(1, 9)
            words = list(all_words(n))
            p = CommPoly(
                (word, F(rng.randint(-9, 9), rng.randint(1, 6)))
                for word in rng.sample(words, rng.randint(1, len(words)))
            )
            assert dense_expansion(p, n) == expand_comm_poly(p)

    def test_matches_expand_comm_poly_on_standard_terms(self):
        for term in series_terms(preset("standard"), 10):
            p = CommPoly(term.body.items())
            assert dense_expansion(p, term.degree) == expand_comm_poly(p)
            assert is_lie_vector(term.to_dense()[0])

    def test_single_words_are_not_lie(self):
        for n in range(2, 9):
            for bits in (0b1, 1 << (n - 1), (1 << n) - 2):
                v = [0] * (1 << n)
                v[bits] = 1
                assert not is_lie_vector(v)


class TestLieElement:
    def test_series_terms_are_lie_elements(self):
        for n in range(1, 7):
            assert is_lie_element(series_term(preset("standard"), n))

    def test_single_word_is_not_lie(self):
        assert not is_lie_element(FreePoly.from_word(w("XY")))

    def test_zero_is_lie(self):
        assert is_lie_element(FreePoly.zero())

    def test_non_homogeneous_rejected(self):
        with pytest.raises(ValueError):
            is_lie_element(FreePoly({w("X"): 1, w("XY"): 1}))

    def test_one_test_equals_the_test_on_each_content_piece(self):
        # bracketing only permutes the letters of a word, so it maps each
        # fixed-content piece to itself: D(p) = n p iff it holds on every piece
        rng = random.Random(2024)
        lie_count = 0
        for _ in range(400):
            n = rng.randint(2, 8)
            words = list(all_words(n))
            claim = CommPoly((u, rng.randint(-3, 3)) for u in rng.sample(words, rng.randint(1, 4)))
            body = expand_comm_poly(claim)
            if rng.random() < 0.5:
                body = body + FreePoly.from_word(rng.choice(words), F(rng.randint(1, 4), 2))
            pieces: dict[tuple[int, int], dict] = {}
            for word, c in body.items():
                pieces.setdefault((word.count_x, word.count_y), {})[word] = c
            verdict = is_lie_element(body)
            assert verdict == all(is_lie_element(FreePoly(piece)) for piece in pieces.values())
            lie_count += verdict
        # both outcomes occur often, so the comparison is not one-sided
        assert 100 < lie_count < 300

    def test_content_check_on_engine_degree_three_terms(self):
        for name in (
            "sum_difference",
            "highly_symmetrized",
            "symmetric_sum_difference",
            "highly_symmetrized_sum_difference",
        ):
            body = series_term(preset(name), 3)
            assert is_lie_element(body), name


class TestCommParse:
    def test_full_expression(self):
        p = comm_parse("-1/720*[X^4Y] + 6/720*[XYXYX]")
        assert p.coeff(w("X^4Y")) == F(-1, 720)
        assert p.coeff(w("XYXYX")) == F(1, 120)

    def test_bare_bracket(self):
        assert comm_parse("[XY]").coeff(w("XY")) == 1
        assert comm_parse("-[XY]").coeff(w("XY")) == -1

    def test_integer_coefficient(self):
        assert comm_parse("3*[YX]").coeff(w("YX")) == 3

    def test_space_instead_of_star(self):
        assert comm_parse("1/2 [XY]").coeff(w("XY")) == F(1, 2)

    def test_merges_repeated_words(self):
        p = comm_parse("[XY] + [XY] - 2*[XY]")
        assert p.is_zero()

    def test_bad_syntax_rejected(self):
        for text in ("1/2", "[XZ]", "[XY] [YX]", "* [XY]"):
            with pytest.raises(ValueError):
                comm_parse(text)

    @pytest.mark.parametrize("text", ["٣*[XY]", "1/٤*[XY]"], ids=["numerator", "denominator"])
    def test_non_ascii_digits_rejected(self, text):
        with pytest.raises(ValueError, match="at position 0"):
            comm_parse(text)

    @pytest.mark.parametrize("text", ["[XY] ", "[XY]\n", " [XY]", " 1/2 [XY] \t"])
    def test_whitespace_around_the_text(self, text):
        assert comm_parse(text) == comm_parse(text.strip())

    @pytest.mark.parametrize("text", ["", "   ", "\n\t"])
    def test_whitespace_alone_is_zero(self, text):
        assert comm_parse(text) == CommPoly()

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError, match="zero denominator .* at position 2"):
            comm_parse("1/0*[X]")
        with pytest.raises(ValueError, match="at position 9"):
            comm_parse("[XY] + 3/00 [Y]")

    def test_round_trip(self):
        p = comm_parse("-1/24*[XYXY] + 1/12*[X^2Y]")
        assert comm_parse(format_comm_poly(p)) == p


class TestFormsCatalog:
    def test_strict_forms_all_match(self):
        for verdict in check_forms():
            if verdict.form.strict:
                assert verdict.matches, verdict.form.label
                assert verdict.diff.is_zero()

    def test_report_only_forms_have_lie_engine_terms(self):
        report_only = [f for f in CLAIMED_FORMS if not f.strict]
        assert len(report_only) == 4
        for form in report_only:
            verdict = check_form(form)
            assert not verdict.matches
            assert not verdict.diff.is_zero()
            assert verdict.engine_is_lie
            assert verdict.ok
