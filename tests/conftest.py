from __future__ import annotations

import string

import pytest
from hypothesis import strategies as st

from histrel import Alphabet, Histogram, HistogramSet, Weight
from histrel.core import Field


def make_set(labels: str, rows) -> HistogramSet:
    return HistogramSet.from_counts(Alphabet(tuple(labels)), rows)


def pairing(x, m):
    """Reference pairing: the left-to-right sum of the componentwise products
    of two equal-length vectors, each a ``Weight``, a ``Histogram`` or a plain
    number sequence. Exact when both sides are."""
    def vector(obj):
        if isinstance(obj, Weight):
            return obj.values
        return obj.counts if isinstance(obj, Histogram) else tuple(obj)

    return sum(a * b for a, b in zip(vector(x), vector(m), strict=True))


def simplex_values(result, mode: str = "rational") -> tuple:
    """A ``SimplexResult``'s ``(objective_value, solution, reduced_costs)``:
    its numerators divided by its denominator in ``mode``'s numbers."""
    field, denominator = Field.for_mode(mode), result.denominator

    def values(numerators):
        return tuple(field.quotient(v, denominator) for v in numerators)

    return (
        field.quotient(result.objective_numerator, denominator),
        values(result.solution_numerators),
        values(result.cost_numerators),
    )


@pytest.fixture
def e1() -> HistogramSet:
    return make_set("ab", [(7, 3), (6, 4)])


@pytest.fixture
def e2() -> HistogramSet:
    return make_set("ab", [(4, 6), (7, 3)])


@pytest.fixture
def e3() -> HistogramSet:
    return make_set("abc", [(3, 2, 1), (1, 2, 3)])


@pytest.fixture
def e4() -> HistogramSet:
    return make_set("abc", [(4, 1, 1), (3, 2, 1)])


@st.composite
def histogram_sets(draw, min_symbols=2, max_symbols=4, max_members=5, max_length=12):
    n = draw(st.integers(min_symbols, max_symbols))
    t = draw(st.integers(1, max_length))
    k = draw(st.integers(1, max_members))
    rows = []
    for _ in range(k):
        counts = []
        remaining = t
        for _ in range(n - 1):
            c = draw(st.integers(0, remaining))
            counts.append(c)
            remaining -= c
        counts.append(remaining)
        rows.append(tuple(counts))
    return HistogramSet.from_counts(Alphabet(tuple(string.ascii_lowercase[:n])), rows, t)


@st.composite
def binary_sets(draw, max_members=5, max_length=20):
    t = draw(st.integers(1, max_length))
    k = draw(st.integers(1, max_members))
    rows = []
    for _ in range(k):
        zeros = draw(st.integers(0, t))
        rows.append((zeros, t - zeros))
    return HistogramSet.from_counts(Alphabet(("0", "1")), rows, t)
