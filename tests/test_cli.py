"""Command-line surface: formats, schemas, exit codes, determinism."""

from __future__ import annotations

import json
from fractions import Fraction
from hashlib import sha256

import pytest
from click.testing import CliRunner

from bchseries import engine, terms
from bchseries.algebra import FreePoly, word_parse
from bchseries.census import letter_occurrence_profile
from bchseries.cli import VERIFY_SUITES, _coefficients, main
from bchseries.engine import MAX_DEGREE, MAX_WORD_LENGTH, PRESET_NAMES, SeriesTerm, preset
from bchseries.oracle import goldberg_xy


def run(*args: str):
    return CliRunner().invoke(main, list(args))


class TestTerms:
    def test_json_schema_and_values(self):
        result = run("terms", "--variant", "standard", "--order", "2", "--format", "json")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["variant"] == "standard"
        assert payload["terms"][1] == {
            "degree": 2,
            "words": [
                {"word": "XY", "num": "1", "den": "2"},
                {"word": "YX", "num": "-1", "den": "2"},
            ],
        }

    def test_symmetric_even_degrees_print_zero(self):
        result = run("terms", "--variant", "symmetric", "--order", "4")
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[1] == "degree 2: 0"
        assert lines[3] == "degree 4: 0"

    def test_zero_order_is_usage_error(self):
        result = run("terms", "--variant", "standard", "--order", "0")
        assert result.exit_code == 2

    def test_order_above_cap_is_usage_error(self):
        result = run("terms", "--order", str(MAX_DEGREE + 1))
        assert result.exit_code == 2
        result = run("terms", "--order", "1000000")
        assert result.exit_code == 2

    def test_unknown_variant_is_usage_error(self):
        result = run("terms", "--variant", "bogus", "--order", "2")
        assert result.exit_code == 2

    def test_quiet_prints_counts(self):
        result = run("terms", "--variant", "standard", "--order", "5", "--quiet")
        assert result.exit_code == 0
        assert result.output.splitlines()[4] == "degree 5: 30 terms"

    def test_csv_format(self):
        result = run("terms", "--variant", "standard", "--order", "2", "--format", "csv")
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            "degree,word,num,den",
            "1,X,1,1",
            "1,Y,1,1",
            "2,XY,1,2",
            "2,YX,-1,2",
        ]

    def test_json_round_trips_byte_identically(self):
        result = run("terms", "--variant", "standard", "--order", "4", "--format", "json")
        rendered = json.dumps(json.loads(result.output), indent=2) + "\n"
        assert rendered == result.output

    @pytest.mark.parametrize("variant", PRESET_NAMES)
    def test_json_equals_the_standard_encoder(self, variant):
        # the renderer writes the schema directly; it must stay json.dumps(..., indent=2)
        for order in range(1, 9):
            result = run("terms", "--variant", variant, "--order", str(order), "--format", "json")
            assert result.exit_code == 0
            payload = {
                "variant": variant,
                "terms": [
                    {
                        "degree": term.degree,
                        "words": [
                            {"word": str(word), "num": str(c.numerator), "den": str(c.denominator)}
                            for word, c in term.body.sorted_items()
                        ],
                    }
                    for term in engine.series_terms(preset(variant), order)
                ],
            }
            assert result.output == json.dumps(payload, indent=2) + "\n", order


# (variant, format) -> (exit code, sha256 of stdout) of `terms --order 12`
TERMS_BYTES = {
    ("standard", "text"): (0, "3b972954e2001e2f4debe8c820cf11af4355c65ea16e23a1ce4c9ca77163df88"),
    ("standard", "csv"): (0, "863f3535c1cbceb109ae3648fc33530edc4099786233f7649c0497da235b39c5"),
    ("standard", "json"): (0, "45b5b050291dbc59164783b6323a4e11d9d9df4820e6c9aa683fd037647af557"),
    ("symmetric", "text"): (0, "d770901d4d324daf7566001b908ded97179e7b544b1ee9584cb16f058e01a025"),
    ("symmetric", "csv"): (0, "1cd03879dd9d63cc01ca0fc610fece9f4788f75dba0148adce6827f79fd3875f"),
    ("symmetric", "json"): (0, "384ad5ed1bb57bcd010840e63ae90e100083024feae3168f9276a5864a092420"),
    ("loop", "text"): (0, "8caac136dfc3a0c550bad9ee972f0915f38d59c8f2520796b46d104a15469b76"),
    ("loop", "csv"): (0, "8cb185a7c7c62135cca656ba98d6f7bb74346e54480cd081bb71348a25b0541f"),
    ("loop", "json"): (0, "f84912f9dfc1593c6fa6647a868fde367c1d45b023dfa20deccc2f359fc2806a"),
    ("triangular", "text"): (0, "39fde1f23247059e891129ae9df041a8c470dce1772281f8c5587c95a9c238db"),
    ("triangular", "csv"): (0, "bbf6628d5741e7e8b574670374256a9f5a5d977e8f593284bca673be213aed0e"),
    ("triangular", "json"): (0, "7b43cddff6ee2749e4a870f2aa69055c1c46ac232d0e3b8e148a80f4acff2fea"),
    ("sum_difference", "text"): (0, "777b482979c0104d8fa8565f0aeb4d94fee755f700d91e000e16570a92dadeae"),
    ("sum_difference", "csv"): (0, "f473554ba7154559a230f5f0bb30daefc325404c7944a61af73b2465e8169f9d"),
    ("sum_difference", "json"): (0, "f72079fc168e3ec54e00c5f4372eee633906b28d279bcebe1f16dd117d47cd24"),
    ("highly_symmetrized", "text"): (0, "4839bd3fe6cae1c085894ebec3b50ace713e4d6cb42b216af1c7b461e5f4213f"),
    ("highly_symmetrized", "csv"): (0, "c9733525436aef92f272ebe356534285d382389aa3f8ed5477e15d5b4f210101"),
    ("highly_symmetrized", "json"): (0, "1a31b489ea23acd8cee273516dc9f9a073c38851bdb3e47fee80e4a89f8aecef"),
    ("symmetric_sum_difference", "text"): (0, "f33d2fb70a847be44b77af2a7953bfe5f95bcd97f0e873741c35a324abc6a444"),
    ("symmetric_sum_difference", "csv"): (0, "86c53f3959bf7665542c6fdd860f68c433c18e913863d585d3127f7e56f93059"),
    ("symmetric_sum_difference", "json"): (0, "5dac48deb2317f40ede439a78b0c9384d243b148421b9d580354a82aac267a39"),
    ("highly_symmetrized_sum_difference", "text"): (0, "b3684a645df973ae0fe5f7d323583c6ce3b510257a83d01dadfbd7f63bee4d96"),
    ("highly_symmetrized_sum_difference", "csv"): (0, "aed23eeffadc1e4339b79ad8f6f9aaacb7ff20ba48109e53fb7b751cd699288a"),
    ("highly_symmetrized_sum_difference", "json"): (0, "205422d3c8249a6ae4925610208eb132e82a1fbb08db03aa145d8024ef0e3a36"),
}
# format -> the same for `terms --order 12 --quiet` of the standard series
QUIET_TERMS_BYTES = {
    "text": (0, "17c6726a33e495f916e43045656055b2c52059b5be8a90410fc5c29f3a0c40f0"),
    "csv": (0, "e88b6f3f75d5860a52f09bea81dd35cde4cea0688ea26a64ef5a033e872c9fa3"),
    "json": (0, "c95c38c7fd80f29029119468785e2c576c6fdb271539b8539b366c0bd30b387e"),
}


def terms_bytes(*args: str) -> tuple[int, str]:
    result = CliRunner().invoke(main, ["terms", "--order", "12", *args])
    return result.exit_code, sha256(result.stdout_bytes).hexdigest()


class TestTermsBytes:
    @pytest.mark.parametrize("variant, fmt", sorted(TERMS_BYTES))
    def test_every_preset_and_format(self, variant, fmt):
        assert terms_bytes("--variant", variant, "--format", fmt) == TERMS_BYTES[variant, fmt]

    @pytest.mark.parametrize("fmt", sorted(QUIET_TERMS_BYTES))
    def test_quiet(self, fmt):
        assert terms_bytes("--format", fmt, "--quiet") == QUIET_TERMS_BYTES[fmt]

    def test_every_preset_is_pinned(self):
        assert {variant for variant, _ in TERMS_BYTES} == set(PRESET_NAMES)


def test_coefficients_are_in_lowest_terms():
    # the term's shared denominator is 6; each coefficient is reduced on its own
    body = {"XY": Fraction(1, 2), "YX": Fraction(-1, 3), "YY": 2}
    term = SeriesTerm(2, FreePoly({word_parse(text): c for text, c in body.items()}))
    assert term.to_dense() == ((0, 3, -2, 12), 6)
    assert list(_coefficients(term)) == [("XY", 1, 2), ("YX", -1, 3), ("Y^2", 2, 1)]


class TestGoldberg:
    def test_engine_value(self):
        result = run("goldberg", "--word", "X^4Y^4")
        assert result.exit_code == 0
        assert result.output.strip() == "23/120960"

    def test_both_mode_agreement(self):
        result = run("goldberg", "--word", "XYXY", "--mode", "both")
        assert result.exit_code == 0
        assert result.output.splitlines() == ["engine: -1/12", "oracle: -1/12"]

    def test_vanishing_power(self):
        result = run("goldberg", "--word", "X^3")
        assert result.exit_code == 0
        assert result.output.strip() == "0"

    def test_oracle_mode(self):
        result = run("goldberg", "--word", "YX", "--mode", "oracle")
        assert result.output.strip() == "-1/2"

    def test_parse_failure_is_usage_error(self):
        result = run("goldberg", "--word", "XZ")
        assert result.exit_code == 2

    def test_exponent_of_thousands_of_digits_is_usage_error(self):
        # more digits than int() converts: a parse error, not the interpreter's text
        result = run("goldberg", "--word", "X^" + "9" * 5000)
        assert result.exit_code == 2
        assert "cannot parse" in result.stderr
        assert result.stdout == ""

    def test_non_ascii_digits_are_usage_error(self):
        # an Arabic-Indic three is a decimal digit to Unicode, not to the X^k grammar
        result = run("goldberg", "--word", "X^\u0663Y")
        assert result.exit_code == 2
        assert "cannot parse" in result.stderr
        assert result.stdout == ""

    def test_empty_word_is_usage_error(self):
        result = run("goldberg", "--word", "")
        assert result.exit_code == 2

    def test_engine_word_above_cap_is_usage_error(self):
        # every mode shares one word cap
        for mode in ("engine", "both"):
            result = run("goldberg", "--word", f"X^{MAX_WORD_LENGTH}Y", "--mode", mode)
            assert result.exit_code == 2
            assert f"longer than {MAX_WORD_LENGTH} letters" in result.output

    def test_oracle_word_above_its_cap_is_usage_error(self):
        for text in (f"X^{MAX_WORD_LENGTH}Y", "X^99999999", "Y^99999999999999"):
            result = run("goldberg", "--word", text, "--mode", "oracle")
            assert result.exit_code == 2
            assert f"longer than {MAX_WORD_LENGTH} letters" in result.output

    def test_every_mode_reaches_past_the_series_cap(self):
        assert word_parse("X^10Y^11").length > MAX_DEGREE
        for mode in ("engine", "oracle"):
            result = run("goldberg", "--word", "X^10Y^11", "--mode", mode)
            assert result.exit_code == 0
            assert result.output.strip() == str(goldberg_xy(10, 11))
        result = run("goldberg", "--word", "X^127Y", "--mode", "both")
        assert result.exit_code == 0
        value = goldberg_xy(127, 1)
        assert result.output.splitlines() == [f"engine: {value}", f"oracle: {value}"]

    @pytest.mark.parametrize("variant", PRESET_NAMES)
    def test_variant_in_engine_mode(self, variant):
        term = engine.series_terms(preset(variant), 5)[-1]
        for text in ("X^2YXY", "XY^2XY", "YX^3Y"):
            result = run("goldberg", "--word", text, "--variant", variant)
            assert result.exit_code == 0
            assert result.output.strip() == str(term.body.coeff(word_parse(text))), text

    def test_variant_reaches_the_cap(self):
        # a palindromic product of exponentials has no even-degree terms
        result = run(
            "goldberg", "--word", "X^64Y^64", "--variant", "highly_symmetrized_sum_difference"
        )
        assert result.exit_code == 0
        assert result.output.strip() == "0"

    def test_variant_with_the_dp_is_usage_error(self):
        for mode in ("oracle", "both"):
            result = run("goldberg", "--word", "X^4Y", "--variant", "loop", "--mode", mode)
            assert result.exit_code == 2
            assert "Goldberg's integral is standard-only" in result.output
        result = run("goldberg", "--word", "X^4Y", "--variant", "standard", "--mode", "both")
        assert result.exit_code == 0


class TestCensus:
    def test_csv_matches_low_order_counts(self):
        result = run("census", "--max", "8", "--format", "csv")
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "n,count,bound,ratio_num,ratio_den,variant"
        assert "5,30,30,1,1,standard" in lines
        assert "8,124,254,62,127,standard" in lines

    def test_symmetric_variant(self):
        result = run("census", "--max", "9", "--variant", "symmetric", "--format", "csv")
        assert result.exit_code == 0
        assert "9,435,510,29,34,symmetric" in result.output.splitlines()

    def test_paper_tables_to_degree_13(self):
        # the paper's two census tables, one csv per product
        for variant, digest in (
            ("standard", "92bc69ac19b0e2b5011b94b37eeada4a5be90926993835b7275679bcc0d0c7e7"),
            ("symmetric", "d4c6fcde7ac14d113e3b235345e162200d7d5f79498d46ed4a9b208b937d633c"),
        ):
            result = run("census", "--max", "13", "--variant", variant, "--format", "csv")
            assert result.exit_code == 0
            assert sha256(result.stdout_bytes).hexdigest() == digest, variant

    def test_max_below_two_is_usage_error(self):
        result = run("census", "--max", "1")
        assert result.exit_code == 2

    def test_max_above_cap_is_usage_error(self):
        result = run("census", "--max", str(MAX_DEGREE + 1))
        assert result.exit_code == 2

    def test_unknown_variant_is_usage_error(self):
        result = run("census", "--variant", "nope")
        assert result.exit_code == 2
        assert result.stdout == ""

    def test_json_round_trips_byte_identically(self):
        result = run("census", "--max", "6", "--format", "json")
        rendered = json.dumps(json.loads(result.output), indent=2) + "\n"
        assert rendered == result.output

    def test_output_is_deterministic(self):
        first = run("census", "--max", "8", "--format", "csv").output
        second = run("census", "--max", "8", "--format", "csv").output
        assert first == second


class TestVerify:
    def test_dynkin(self):
        result = run("verify", "dynkin", "--max", "6")
        assert result.exit_code == 0
        assert "FAIL" not in result.output

    def test_oracle(self):
        result = run("verify", "oracle", "--max", "7")
        assert result.exit_code == 0
        assert "FAIL" not in result.output

    def test_properties(self):
        result = run("verify", "properties", "--max", "4")
        assert result.exit_code == 0
        assert "FAIL" not in result.output

    def test_properties_json(self):
        result = run("verify", "properties", "--max", "3", "--format", "json")
        assert result.exit_code == 0
        # one JSON object per degree, concatenated
        chunks = result.output.split("}\n{")
        assert len(chunks) == 2

    def test_bounds(self):
        result = run("verify", "bounds", "--max", "8")
        assert result.exit_code == 0
        assert "FAIL" not in result.output

    def test_commutator_forms_reports_diffs_but_passes(self):
        result = run("verify", "commutator-forms", "--max", "4")
        assert result.exit_code == 0
        assert "does NOT match" in result.output
        assert "diff (claim minus engine):" in result.output
        # strict low-order claims all hold
        assert "FAIL" not in result.output

    def test_commutator_forms_json(self):
        result = run("verify", "commutator-forms", "--max", "6", "--format", "json")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        rows = {row["label"]: row for row in payload["rows"]}
        assert rows["standard degree 4"]["matches"] is True
        assert rows["sum_difference degree 3"]["matches"] is False
        assert rows["sum_difference degree 3"]["pass"] is True
        assert rows["sum_difference degree 3"]["engine_form_is_lie"] is True

    def test_max_above_cap_is_usage_error(self):
        for suite in ("properties", "bounds", "dynkin", "oracle", "commutator-forms"):
            result = run("verify", suite, "--max", str(MAX_DEGREE + 1))
            assert result.exit_code == 2

    def test_unknown_suite_is_usage_error(self):
        result = run("verify", "everything", "--max", "4")
        assert result.exit_code == 2


@pytest.fixture
def drop_degree_five_word(monkeypatch):
    """Serve the standard series with its first degree-5 word missing."""
    graded = engine._graded_series
    standard = tuple(preset("standard").factors)

    def corrupted(factors, degree):
        terms = graded(factors, degree)
        if factors != standard or degree < 5:
            return terms
        body = dict(terms[4].body.sorted_items()[1:])
        return terms[:4] + (SeriesTerm(5, FreePoly(body)),) + terms[5:]

    monkeypatch.setattr(engine, "_graded_series", corrupted)


@pytest.mark.parametrize("suite", ["properties", "dynkin", "oracle"])
def test_verify_computes_the_series_once(core_runs, suite):
    assert run("verify", suite, "--max", "8").exit_code == 0
    assert core_runs == [8]


@pytest.fixture
def decoded(monkeypatch):
    """The bytes of every term that to_dense() decodes from here on, in call order."""
    calls = []
    decode = terms._decode

    def counted(data, size):
        calls.append(data)
        return decode(data, size)

    monkeypatch.setattr(terms, "_decode", counted)
    return calls


class TestDecodes:
    """Counting reads the bytes alone; a reader of the values decodes each term once."""

    def test_series_terms_decode_nothing(self, decoded):
        assert len(engine.series_terms(preset("standard"), 8)) == 8
        assert decoded == []

    @pytest.mark.parametrize(
        "args",
        [
            ("census", "--max", "8"),
            ("verify", "bounds", "--max", "8"),
            ("terms", "--order", "8", "--quiet"),
            ("terms", "--order", "8", "--quiet", "--format", "csv"),
            ("terms", "--order", "8", "--quiet", "--format", "json"),
        ],
    )
    def test_counts_decode_nothing(self, decoded, args):
        assert run(*args).exit_code == 0
        assert decoded == []

    def test_the_letter_profile_decodes_nothing(self, decoded):
        assert letter_occurrence_profile(8).term_count == 124
        assert decoded == []

    @pytest.mark.parametrize(
        "args",
        [
            ("verify", "properties", "--max", "8"),
            ("verify", "dynkin", "--max", "8"),
            ("terms", "--order", "8", "--format", "csv"),
            ("terms", "--order", "8", "--format", "json"),
            ("terms", "--order", "8", "--format", "text"),
        ],
    )
    def test_each_term_is_decoded_at_most_once(self, decoded, args):
        assert run(*args).exit_code == 0
        # the calls keep their bytes alive, so equal ids are one term decoded twice
        assert decoded and len({id(data) for data in decoded}) == len(decoded)


# (suite, format) -> (exit code, sha256 of stdout) of `verify <suite> --max 6`
PASS_BYTES = {
    ("properties", "text"): (0, "5b2d3780a0d0ab916eb0a45643774ac666db56711efbd5763e09a89f9b4f5140"),
    ("properties", "json"): (0, "ce2b8b88ed8ba6dc123b2a9bd830a55cdafa3e822ff42fc3708100d1d1679dee"),
    ("bounds", "text"): (0, "c3bffcc5c402c5bea0040e8343c3a21981ac9f7af573a45e6be150a542888abc"),
    ("bounds", "json"): (0, "29333dbc97029017c433a696506637e6eecd6793668656f5de0e7238e82558b8"),
    ("dynkin", "text"): (0, "4ecb55103d92fa6d33eaa114392baa9e124a07fdf2125563528113d8bbd2e4f4"),
    ("dynkin", "json"): (0, "bc3640b152206160a9e0a9418a8ae4947ec8e51f4f334ae94ee260d8d99adf56"),
    ("oracle", "text"): (0, "17425184a4b250d29a2cbba9af8fa442e811bd92d3d7759eb132b6bbb84e7b80"),
    ("oracle", "json"): (0, "a2b7ac388d74badb4e738d01ecf0ccd02333da148d70f8b69ba47a6676b8575c"),
    ("commutator-forms", "text"): (0, "811aa4b72827855cdf43e76540e92f56eccc9671dcb81963a27a680ac0178969"),
    ("commutator-forms", "json"): (0, "dfd350167aabd650b5197803475566d056b40dc9a26490d44b30b24376583c22"),
}
# the same with the first degree-5 word of the standard series dropped
FAIL_BYTES = {
    ("properties", "text"): (1, "a93b144d35b52ee3650d6b81a8696e772c432e004ad89d7c0c94efea984b692b"),
    ("properties", "json"): (1, "205a3f9abdbe23281086241d3d0fc1c08d38a061bcc5124379bca455974bb01e"),
    ("bounds", "text"): (1, "a5d1b1dfb4c227b0e557166985c055e746690422689fdcc3ef1187bd6c0599e7"),
    ("bounds", "json"): (1, "3e650d4d017bcebbc13a78bbaf9ad5815632475bc3588f1a4eda4ed21cd3d78a"),
    ("dynkin", "text"): (1, "e55950f776384d959ff67dbe8f2ba4521598bf66e216dffde3bdb6cfb8f77f49"),
    ("dynkin", "json"): (1, "fa1564f6cb48d1316cd86cca9d284916fa3b8e670616421b69dd7959f1df2479"),
    ("oracle", "text"): (1, "6c097a9c378cf259eacf66e48142a3548c7bc66230ab63d320c1bcfa6a79a8c5"),
    ("oracle", "json"): (1, "52faa6491ba3b0857561abdbc4fbc8015a35e0f0d85baa790c90fbb7d2b3bf4c"),
    ("commutator-forms", "text"): (1, "f8c01c6c86361b9c1ef0d32baf5a7169b0652b82280d4f2113f8780665849057"),
    ("commutator-forms", "json"): (1, "d426bec43d82dc749c6000e46d38cf6d1ceeb544db4f3673a76f079eea6bcebe"),
}


def verify_bytes(suite: str, fmt: str) -> tuple[int, str]:
    result = CliRunner().invoke(main, ["verify", suite, "--max", "6", "--format", fmt])
    return result.exit_code, sha256(result.stdout_bytes).hexdigest()


class TestVerifyBytes:
    def test_every_suite_is_pinned(self):
        assert {suite for suite, _ in PASS_BYTES} == set(VERIFY_SUITES)
        assert set(FAIL_BYTES) == set(PASS_BYTES)

    @pytest.mark.parametrize("suite, fmt", sorted(PASS_BYTES))
    def test_pass_path(self, suite, fmt):
        assert verify_bytes(suite, fmt) == PASS_BYTES[suite, fmt]

    @pytest.mark.parametrize("suite, fmt", sorted(FAIL_BYTES))
    def test_fail_path(self, suite, fmt, drop_degree_five_word):
        assert verify_bytes(suite, fmt) == FAIL_BYTES[suite, fmt]


@pytest.fixture
def perturb_degree_twelve_word(monkeypatch):
    """Serve the standard series with 1 added to the coefficient of XY^11.

    XY^11 shares its run class (X first, runs 1 and 11) with X^11Y, the first
    word of the class in bits order, so X^11Y is the exponent_permutation
    witness and its key holds the digit 13^10.
    """
    graded = engine._graded_series
    standard = tuple(preset("standard").factors)
    word = word_parse("XY^11")

    def perturbed(factors, degree):
        terms = graded(factors, degree)
        if factors != standard or degree < 12:
            return terms
        body = dict(terms[11].body.items())
        body[word] = body.get(word, Fraction(0)) + 1
        return terms[:11] + (SeriesTerm(12, FreePoly(body)),) + terms[12:]

    monkeypatch.setattr(engine, "_graded_series", perturbed)


# format -> (exit code, sha256 of stdout) of `verify properties --max 12`
PROPERTIES_12_PASS = {
    "text": (0, "e876b6854d665f96dc211256b464bd167a9a2f89a1dea02b166b6c6496b27a25"),
    "json": (0, "313d86714e7c2b9c6ff564ddcbe66fd60eef5771ec11e80b8ff31152304a3461"),
}
# the same with the coefficient of XY^11 perturbed
PROPERTIES_12_FAIL = {
    "text": (1, "2ce28421d52a6801f7fd68324e410201caef46905ea406bf355194264507b4c8"),
    "json": (1, "046a62650520b6baf34a99a3a7c21c7f5331055f8d33549ecab09127cb9c94a9"),
}


def properties_12_bytes(fmt: str) -> tuple[int, str]:
    result = CliRunner().invoke(main, ["verify", "properties", "--max", "12", "--format", fmt])
    return result.exit_code, sha256(result.stdout_bytes).hexdigest()


class TestVerifyPropertiesBytes:
    """Degree 12 reaches runs of two-digit length, and the run-class keys' largest digits."""

    @pytest.mark.parametrize("fmt", sorted(PROPERTIES_12_PASS))
    def test_pass_path(self, fmt):
        assert properties_12_bytes(fmt) == PROPERTIES_12_PASS[fmt]

    @pytest.mark.parametrize("fmt", sorted(PROPERTIES_12_FAIL))
    def test_fail_path(self, fmt, perturb_degree_twelve_word):
        assert properties_12_bytes(fmt) == PROPERTIES_12_FAIL[fmt]

    def test_fail_path_names_the_first_word_of_the_class(self, perturb_degree_twelve_word):
        result = run("verify", "properties", "--max", "12")
        assert "FAIL n=12 exponent_permutation witness=X^11Y\n" in result.output
