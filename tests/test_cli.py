"""Command-line surface: formats, schemas, exit codes, determinism."""

from __future__ import annotations

import json

from click.testing import CliRunner

from bchseries.cli import main
from bchseries.engine import MAX_DEGREE
from bchseries.oracle import MAX_DP_LENGTH, goldberg_xy


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

    def test_empty_word_is_usage_error(self):
        result = run("goldberg", "--word", "")
        assert result.exit_code == 2

    def test_engine_word_above_cap_is_usage_error(self):
        for mode in ("engine", "both"):
            result = run("goldberg", "--word", f"X^{MAX_DEGREE}Y", "--mode", mode)
            assert result.exit_code == 2
            assert f"longer than {MAX_DEGREE} letters" in result.output

    def test_oracle_word_above_its_cap_is_usage_error(self):
        for text in (f"X^{MAX_DP_LENGTH}Y", "X^99999999", "Y^99999999999999"):
            result = run("goldberg", "--word", text, "--mode", "oracle")
            assert result.exit_code == 2
            assert f"longer than {MAX_DP_LENGTH} letters" in result.output

    def test_oracle_mode_reaches_past_the_engine_cap(self):
        result = run("goldberg", "--word", "X^10Y^11", "--mode", "oracle")
        assert result.exit_code == 0
        assert result.output.strip() == str(goldberg_xy(10, 11))


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

    def test_max_below_two_is_usage_error(self):
        result = run("census", "--max", "1")
        assert result.exit_code == 2

    def test_max_above_cap_is_usage_error(self):
        result = run("census", "--max", str(MAX_DEGREE + 1))
        assert result.exit_code == 2

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
