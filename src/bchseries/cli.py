"""Command-line interface: series terms, word coefficients, census, letter profile, verify.

All data is written to stdout and diagnostics to stderr.  Exit codes: 0 on
success, 1 when a verification fails, 2 on usage errors.  Output bytes are
deterministic for a given command line.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from math import gcd
from typing import Any, Callable, Iterable, Iterator

import click

from .algebra import Word, all_words, format_sum, word_format, word_parse, word_texts
from .census import bound_checks, census_sweep, letter_occurrence_profile, property_sweep
from .engine import (
    MAX_DEGREE,
    MAX_WORD_LENGTH,
    PRESET_NAMES,
    SeriesTerm,
    preset,
    series_terms,
    word_coefficient,
)
from .forms import check_forms
from .lie import format_comm_poly, is_lie_vector
from .oracle import goldberg_direct

# one row of a verify suite: (passed, text lines, JSON record)
Row = tuple[bool, list[str], dict[str, Any]]

_variant_option = click.option(
    "--variant",
    type=click.Choice(PRESET_NAMES),
    default="standard",
    show_default=True,
    help="Which product of exponentials to expand.",
)
_format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(("text", "json", "csv")),
    default="text",
    show_default=True,
    help="Output format.",
)

_max_option = click.option(
    "--max",
    "max_n",
    type=click.IntRange(min=2, max=MAX_DEGREE),
    required=True,
    help="Largest degree.",
)


@click.group()
def main() -> None:
    """Exact series terms, word coefficients, and coefficient censuses."""


@main.command()
@_variant_option
@click.option(
    "--order",
    type=click.IntRange(min=1, max=MAX_DEGREE),
    required=True,
    help="Truncation degree N.",
)
@_format_option
@click.option("--quiet", is_flag=True, help="Print only per-degree term counts, not the terms.")
def terms(variant: str, order: int, fmt: str, quiet: bool) -> None:
    """Print the series terms of degrees 1..N for a variant."""
    series = series_terms(preset(variant), order)
    if fmt == "json" and quiet:
        entries = [{"degree": term.degree, "count": term.count} for term in series]
        click.echo(json.dumps({"variant": variant, "terms": entries}, indent=2))
    elif fmt == "json":
        for chunk in _terms_json(variant, series):
            click.echo(chunk, nl=False)
    elif fmt == "csv":
        click.echo("degree,count" if quiet else "degree,word,num,den")
        for term in series:
            if quiet:
                click.echo(f"{term.degree},{term.count}")
            elif lines := [f"{term.degree},{w},{n},{d}" for w, n, d in _coefficients(term)]:
                click.echo("\n".join(lines))
    else:
        for term in series:
            if quiet:
                click.echo(f"degree {term.degree}: {term.count} terms")
            else:
                click.echo(f"degree {term.degree}: {format_sum(_coefficients(term))}")


def _coefficients(term: SeriesTerm) -> Iterator[tuple[str, int, int]]:
    """(word text, num, den) in lowest terms for each non-zero coefficient, in bits order."""
    ints, den = term.to_dense()
    for text, c in zip(word_texts(term.degree, ints), filter(None, ints)):
        g = gcd(c, den)
        yield text, c // g, den // g


def _terms_json(variant: str, series: Iterable[SeriesTerm]) -> Iterator[str]:
    """json.dumps({"variant": ..., "terms": [...]}, indent=2) + newline, one degree at a time.

    The standard library's indented encoder is pure Python.  Every string in
    this schema is a preset name, a word or an integer, so none needs escaping.
    """
    prefix = f'{{\n  "variant": "{variant}",\n  "terms": [\n'
    for term in series:
        words = [
            f'        {{\n          "word": "{w}",\n          "num": "{num}",'
            f'\n          "den": "{den}"\n        }}'
            for w, num, den in _coefficients(term)
        ]
        head = f'{prefix}    {{\n      "degree": {term.degree},\n      "words": '
        # the joined words go out as they are, not copied into the entry text
        if words:
            yield from (head + "[\n", ",\n".join(words), "\n      ]\n    }")
        else:
            yield head + "[]\n    }"
        prefix = ",\n"
    yield "\n  ]\n}\n"


@main.command()
@click.option("--word", "word_text", required=True, help="Word text, e.g. X^4Y^4.")
@_variant_option
@click.option(
    "--mode",
    type=click.Choice(("engine", "oracle", "both")),
    default="engine",
    show_default=True,
    help=(
        "Compute from the word's Reinsch matrices, from Goldberg's integral"
        f" (standard only), or both; words up to {MAX_WORD_LENGTH} letters."
    ),
)
def goldberg(word_text: str, variant: str, mode: str) -> None:
    """Print the coefficient of one word in a variant's series."""
    if mode != "engine" and variant != "standard":
        raise click.UsageError(
            f"--mode {mode} needs --variant standard: Goldberg's integral is standard-only"
        )
    try:
        w = word_parse(word_text, max_length=MAX_WORD_LENGTH)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    if w.length < 1:
        raise click.UsageError("the empty word has no coefficient")
    if mode == "oracle":
        click.echo(str(goldberg_direct(w)))
        return
    from_engine = word_coefficient(preset(variant), w)
    if mode == "engine":
        click.echo(str(from_engine))
    else:
        from_oracle = goldberg_direct(w)
        click.echo(f"engine: {from_engine}")
        click.echo(f"oracle: {from_oracle}")
        if from_engine != from_oracle:
            click.echo("MISMATCH", err=True)
            sys.exit(1)


_CENSUS_FIELDS = ("n", "count", "bound", "ratio_num", "ratio_den", "variant")


@main.command()
@_max_option
@_variant_option
@_format_option
def census(max_n: int, variant: str, fmt: str) -> None:
    """Count non-zero coefficients per degree for n = 2..max."""
    records = census_sweep(max_n, preset(variant))
    # --max >= 2, so every bound 2^n - 2 is positive and every ratio a Fraction;
    # every field is an int or a preset name, so no CSV field needs quoting
    rows = [
        (r.n, r.count, r.bound, str(r.ratio.numerator), str(r.ratio.denominator), r.variant)
        for r in records
    ]
    if fmt == "csv":
        click.echo("\n".join(",".join(map(str, row)) for row in [_CENSUS_FIELDS, *rows]))
    elif fmt == "json":
        click.echo(json.dumps([dict(zip(_CENSUS_FIELDS, row)) for row in rows], indent=2))
    else:
        click.echo(f"{'n':>3} {'count':>8} {'bound':>8} ratio")
        for r in records:
            click.echo(f"{r.n:>3} {r.count:>8} {r.bound:>8} {r.ratio}")


@main.command()
@click.option(
    "--degree",
    type=click.IntRange(min=1, max=MAX_DEGREE),
    required=True,
    help="Series degree.",
)
@_variant_option
def profile(degree: int, variant: str) -> None:
    """Print per-position letter counts and maximal-run histograms at one degree."""
    p = letter_occurrence_profile(degree, preset(variant))
    click.echo(f"variant={variant} degree={p.n}")
    click.echo(f"non-zero words: {p.term_count}")
    click.echo(f"X per position: {p.x_position_counts} (total {p.x_total})")
    click.echo(f"Y per position: {p.y_position_counts} (total {p.y_total})")
    click.echo(f"maximal X-run histogram: {p.x_run_histogram}")
    click.echo(f"maximal Y-run histogram: {p.y_run_histogram}")
    click.echo(f"run totals consistent with position totals: {p.consistent}")


_STATUS = {True: "PASS", False: "FAIL"}


def _word_or_none(w: Word | None) -> str | None:
    return None if w is None else word_format(w)


def _witness_text(w: Word | None) -> str:
    return "" if w is None else f" witness={word_format(w)}"


def _property_rows(max_n: int) -> Iterator[Row]:
    for report in property_sweep(max_n):
        n, checks = report.n, report.checks.items()
        lines = [f"{_STATUS[r.passed]} n={n} {name}{_witness_text(r.witness)}" for name, r in checks]
        record = {
            "n": n,
            "checks": {
                name: {"pass": r.passed, "witness": _word_or_none(r.witness)} for name, r in checks
            },
        }
        yield report.ok, lines, record


def _bound_rows(max_n: int) -> Iterator[Row]:
    for row in bound_checks(max_n):
        notes = []
        if row.prime:
            notes.append(f"prime, saturated={row.prime_saturated}")
        if row.even_bound is not None:
            notes.append(
                f"even bound {row.even_bound}, holds={row.even_bound_holds},"
                f" saturated={row.even_saturated} (expected {row.even_saturation_expected})"
            )
        text = "; ".join(notes)
        line = f"{_STATUS[row.ok]} n={row.n} count={row.count} {text}"
        yield row.ok, [line], {"n": row.n, "count": row.count, "pass": row.ok, "notes": text}


def _dynkin_rows(max_n: int) -> Iterator[Row]:
    # expand(dynkin_series(n)) == p is the Dynkin-Specht-Wever identity D(p) = n p
    for term in series_terms(preset("standard"), max_n):
        ok, n = is_lie_vector(term.to_dense()[0]), term.degree
        yield ok, [f"{_STATUS[ok]} n={n} nested-commutator identity"], {"n": n, "pass": ok}


def _oracle_rows(max_n: int) -> Iterator[Row]:
    # three routes per word: the graded term, the word's Reinsch matrices, Goldberg's integral
    standard = preset("standard")
    for term in series_terms(standard, max_n):
        n, (ints, den) = term.degree, term.to_dense()
        bad = next(
            (
                w
                for w in all_words(n)
                if not Fraction(ints[w.bits], den)
                == word_coefficient(standard, w)
                == goldberg_direct(w)
            ),
            None,
        )
        line = f"{_STATUS[bad is None]} n={n} engine vs direct sum{_witness_text(bad)}"
        yield bad is None, [line], {"n": n, "pass": bad is None, "witness": _word_or_none(bad)}


def _commutator_form_rows(max_n: int) -> Iterator[Row]:
    for verdict in check_forms(max_degree=max_n):
        form = verdict.form
        line = f"{_STATUS[verdict.ok]} {form.label}: claim {form.claim}"
        if verdict.matches:
            lines = [line + " matches the engine term"]
        else:
            line += " does NOT match the engine term"
            if not form.strict:
                lie = "a" if verdict.engine_is_lie else "NOT a"
                line += f" (report-only: engine form is {lie} Lie element)"
            lines = [
                line,
                f"  diff (claim minus engine): {verdict.diff}",
                f"  engine term: {verdict.engine_body}",
                f"  claim expands to: {format_comm_poly(verdict.claim_poly)}"
                f" -> {verdict.claim_body}",
            ]
        record = {
            "label": form.label,
            "strict": form.strict,
            "claim": form.claim,
            "matches": verdict.matches,
            "pass": verdict.ok,
            "diff": None if verdict.matches else str(verdict.diff),
            "engine_form_is_lie": verdict.engine_is_lie,
        }
        yield verdict.ok, lines, record


VERIFY_TABLE: dict[str, Callable[[int], Iterator[Row]]] = {
    "properties": _property_rows,
    "bounds": _bound_rows,
    "dynkin": _dynkin_rows,
    "oracle": _oracle_rows,
    "commutator-forms": _commutator_form_rows,
}
VERIFY_SUITES = tuple(VERIFY_TABLE)


@main.command()
@click.argument("suite", type=click.Choice(VERIFY_SUITES))
@_max_option
@click.option(
    "--format",
    "fmt",
    type=click.Choice(("text", "json")),
    default="text",
    show_default=True,
    help="Output format.",
)
def verify(suite: str, max_n: int, fmt: str) -> None:
    """Run a verification suite up to degree max; exit 1 on any failure."""
    failures = 0
    records = []
    for ok, lines, record in VERIFY_TABLE[suite](max_n):
        failures += not ok
        if fmt == "text":
            click.echo("\n".join(lines))
        elif suite == "properties":
            # documented shape: one JSON document per degree, not a rows envelope
            click.echo(json.dumps(record, indent=2))
        else:
            records.append(record)
    if fmt == "json" and suite != "properties":
        click.echo(json.dumps({"suite": suite, "rows": records}, indent=2))
    if failures:
        sys.exit(1)


if __name__ == "__main__":
    main()
