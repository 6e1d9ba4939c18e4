"""Exact linear algebra: the fraction-free rank against the reduced echelon
form, and primitive integer vectors."""
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oscdecay.ratlin import primitive, rank, rref

ints = st.integers(-6, 6) | st.integers(-10 ** 12, 10 ** 12)
fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@st.composite
def matrices(draw, entries):
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(1, 6))
    m = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    # sparse and dependent rows are where elimination goes wrong
    for row in m:
        for k in draw(st.sets(st.integers(0, cols - 1))):
            row[k] = 0
    if rows >= 3 and draw(st.booleans()):
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        m[-1] = [a * x + b * y for x, y in zip(m[0], m[1])]
    return m


@given(matrices(ints))
def test_rank_of_int_rows_equals_rref_pivots(m):
    assert rank(m) == len(rref(m)[1])


@given(matrices(fractions))
def test_rank_of_fraction_rows_equals_rref_pivots(m):
    assert rank(m) == len(rref(m)[1])


@given(matrices(ints | fractions))
def test_rank_of_mixed_rows_equals_rref_pivots(m):
    assert rank(m) == len(rref(m)[1])


def test_rank_examples():
    assert rank([]) == 0
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[Fraction(1, 3), Fraction(2, 3)], [1, 2]]) == 1
    assert rank([[0, 1, 2], [0, 2, 4], [1, 0, 0]]) == 2


@given(st.lists(ints | fractions, min_size=1, max_size=6).filter(any))
def test_primitive_is_a_positive_multiple_with_unit_gcd(v):
    p = primitive(v)
    assert all(type(x) is int for x in p) and gcd(*p) == 1
    k = next(i for i, x in enumerate(v) if x)
    c = p[k] / Fraction(v[k])
    assert c > 0 and [Fraction(x) * c for x in v] == list(p)


def test_primitive_examples():
    assert primitive([Fraction(1, 2), Fraction(1, 3), 0]) == (3, 2, 0)
    assert primitive([-4, 6]) == (-2, 3)
    with pytest.raises(ValueError):
        primitive([0, Fraction(0)])
