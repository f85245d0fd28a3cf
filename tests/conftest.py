"""Shared helpers and hypothesis strategies for the test suite."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import strategies as st

from bchseries import FreePoly, SeriesTerm, UTMatrix, VariantPreset, Word, engine, nilpotent_log
from bchseries.engine import product_matrix


def spec_terms(variant: VariantPreset, degree: int) -> tuple[SeriesTerm, ...]:
    """The spec route: row 0 of the full matrix log(prod_i exp(a_i X + b_i Y))."""
    z = nilpotent_log(product_matrix(variant.factors, degree))
    return tuple(SeriesTerm(n, z.entry(0, n)) for n in range(1, degree + 1))


def pytest_addoption(parser):
    parser.addoption(
        "--slot-table-degree",
        type=int,
        default=16,
        help="truncation N of the reference run that checks engine._SLOT_BYTES (default 16)",
    )


@pytest.fixture
def slot_table_degree(request):
    """The N of the slot-table check: its one run per preset covers every N up to it."""
    return request.config.getoption("--slot-table-degree")


@pytest.fixture
def core_runs(monkeypatch):
    """The degrees of every core series computation from here on."""
    degrees = []
    graded = engine._graded_series

    def counted(factors, degree):
        degrees.append(degree)
        return graded(factors, degree)

    monkeypatch.setattr(engine, "_graded_series", counted)
    return degrees


def small_fractions(max_num: int = 4, max_den: int = 4) -> st.SearchStrategy[Fraction]:
    return st.builds(
        Fraction,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


def words(max_length: int = 4) -> st.SearchStrategy[Word]:
    return st.integers(min_value=0, max_value=max_length).flatmap(
        lambda n: st.builds(Word, st.just(n), st.integers(min_value=0, max_value=(1 << n) - 1))
    )


def free_polys(max_terms: int = 5, max_length: int = 4) -> st.SearchStrategy[FreePoly]:
    return st.lists(
        st.tuples(words(max_length), small_fractions()),
        max_size=max_terms,
    ).map(FreePoly)


def strictly_upper_matrices(
    max_order: int = 6, max_terms_per_entry: int = 2
) -> st.SearchStrategy[UTMatrix]:
    def build(order: int) -> st.SearchStrategy[UTMatrix]:
        entry = st.lists(
            st.tuples(words(3), small_fractions()), max_size=max_terms_per_entry
        ).map(FreePoly)
        zero = FreePoly.zero()

        def assemble(entries: list[FreePoly]) -> UTMatrix:
            rows = []
            it = iter(entries)
            for i in range(order):
                rows.append(
                    [next(it) if j > i else zero for j in range(order)]
                )
            return UTMatrix(rows)

        count = order * (order - 1) // 2
        return st.lists(entry, min_size=count, max_size=count).map(assemble)

    return st.integers(min_value=2, max_value=max_order).flatmap(build)
