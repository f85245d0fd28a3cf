"""Catalog of claimed nested-commutator forms for the low-order series terms.

Each entry records a commutator-form claim for one degree of one variant.
Strict entries are expected to expand exactly to the engine's word form;
report-only entries are known to be inconsistent with the engine output and
are checked for information, with the engine word form itself required to
pass the Lie-element test.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import FreePoly
from .engine import preset, series_term
from .lie import CommPoly, comm_parse, expand_comm_poly, is_lie_element


class ClaimedForm(NamedTuple):
    label: str
    variant: str
    degree: int
    claim: str
    strict: bool = True


CLAIMED_FORMS: tuple[ClaimedForm, ...] = (
    ClaimedForm("standard degree 2", "standard", 2, "1/2*[XY]"),
    ClaimedForm("standard degree 3", "standard", 3, "1/12*[X^2Y] - 1/12*[YXY]"),
    ClaimedForm("standard degree 4", "standard", 4, "-1/24*[XYXY]"),
    ClaimedForm(
        "standard degree 5",
        "standard",
        5,
        "-1/720*[X^4Y] + 1/120*[XYXYX] + 1/360*[XY^3X]"
        " + 1/360*[YX^3Y] + 1/120*[YXYXY] - 1/720*[Y^4X]",
    ),
    ClaimedForm(
        "standard degree 6",
        "standard",
        6,
        "-1/720*[X^2Y^2XY] + 1/240*[XYXYXY] - 1/1440*[XY^4X] + 1/1440*[YX^4Y]",
    ),
    ClaimedForm("symmetric degree 3", "symmetric", 3, "-1/24*[X^2Y] - 1/12*[YXY]"),
    ClaimedForm("loop degree 2", "loop", 2, "[XY]"),
    ClaimedForm("loop degree 3", "loop", 3, "1/2*[X^2Y] + 1/2*[YXY]"),
    ClaimedForm("loop degree 4", "loop", 4, "1/6*[X^3Y] + 1/4*[XYXY] + 1/6*[Y^2XY]"),
    ClaimedForm("triangular degree 2", "triangular", 2, "-1/2*[XY]"),
    ClaimedForm("triangular degree 3", "triangular", 3, "1/6*[X^2Y] - 1/6*[YXY]"),
    ClaimedForm(
        "triangular degree 4", "triangular", 4, "-1/24*[X^3Y] + 1/24*[XYXY] - 1/24*[Y^2XY]"
    ),
    ClaimedForm("sum_difference degree 2", "sum_difference", 2, "-[XY]"),
    ClaimedForm("sum_difference degree 3", "sum_difference", 3, "1/9*[Y^2X]", strict=False),
    ClaimedForm(
        "sum_difference degree 4", "sum_difference", 4, "1/12*[X^3Y] - 1/12*[Y^2XY]"
    ),
    ClaimedForm(
        "highly_symmetrized degree 3",
        "highly_symmetrized",
        3,
        "-1/24*[X^2Y] + 1/16*[YXY]",
        strict=False,
    ),
    ClaimedForm(
        "symmetric_sum_difference degree 3",
        "symmetric_sum_difference",
        3,
        "-1/6*[X^2Y] - 1/6*[YXY]",
        strict=False,
    ),
    ClaimedForm(
        "highly_symmetrized_sum_difference degree 3",
        "highly_symmetrized_sum_difference",
        3,
        "-1/6*[X^2Y] - 1/6*[YXY]",
        strict=False,
    ),
)


class FormVerdict(NamedTuple):
    """Outcome of checking one claimed form (expanded once, as claim_body)."""

    form: ClaimedForm
    claim_poly: CommPoly
    engine_body: FreePoly
    claim_body: FreePoly
    matches: bool
    diff: FreePoly
    engine_is_lie: bool

    @property
    def ok(self) -> bool:
        """Strict entries must match; report-only entries need a Lie engine form."""
        if self.form.strict:
            return self.matches
        return self.engine_is_lie


def check_form(form: ClaimedForm) -> FormVerdict:
    claim_poly = comm_parse(form.claim)
    body = series_term(preset(form.variant), form.degree)
    claim_body = expand_comm_poly(claim_poly)
    return FormVerdict(
        form=form,
        claim_poly=claim_poly,
        engine_body=body,
        claim_body=claim_body,
        matches=claim_body == body,
        diff=claim_body - body,
        engine_is_lie=is_lie_element(body),
    )


def check_forms(max_degree: int) -> list[FormVerdict]:
    return [check_form(f) for f in CLAIMED_FORMS if f.degree <= max_degree]
