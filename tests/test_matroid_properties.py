"""Property check of the integer (Bareiss) rank against Fraction elimination."""

from fractions import Fraction

import pytest

import curvatroid as cv
from oracles import fraction_matrix_rank

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 9))


@st.composite
def rational_matrices(draw):
    """A height x width product of two random rational factors through an
    inner dimension of 0..max(height, width): below min(height, width) the
    product is rank-deficient, above it usually has full rank."""
    height = draw(st.integers(1, 6))
    width = draw(st.integers(1, 7))
    inner = draw(st.integers(0, max(height, width)))
    left = draw(st.lists(st.lists(rationals, min_size=inner, max_size=inner),
                         min_size=height, max_size=height))
    right = draw(st.lists(st.lists(rationals, min_size=width, max_size=width),
                          min_size=inner, max_size=inner))
    return tuple(
        tuple(sum((left[i][t] * right[t][j] for t in range(inner)), Fraction(0))
              for j in range(width))
        for i in range(height))


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(rational_matrices())
def test_integer_rank_matches_fraction_elimination(matrix):
    assert cv.matrix_rank(matrix) == fraction_matrix_rank(matrix)
