"""Property checks of the constructions: the integer (Bareiss) rank against
Fraction elimination, the graphic spanning-forest search against
per-subset enumeration, and the one-set completion lookup against the
completion table."""

from fractions import Fraction

import pytest

import curvatroid as cv
from oracles import (fraction_matrix_rank, graphic_bases_by_subsets, origin_hash_by_sort,
                     small_specs)

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


@st.composite
def multigraphs(draw):
    """Up to 14 edges on 1..8 vertices, drawn with replacement, so loops,
    parallel edges, isolated vertices, several components and prefixes
    that die deep in the search all occur; the oracle then tests at most
    C(14, 7) = 3,432 subsets."""
    vertices = draw(st.integers(1, 8))
    ends = draw(st.lists(st.tuples(st.integers(0, vertices - 1),
                                   st.integers(0, vertices - 1)),
                         min_size=1, max_size=14))
    return cv.GraphicSpec(vertex_count=vertices,
                          edges=tuple((a, b, f"e{i}") for i, (a, b) in enumerate(ends)))


def assert_canonical(m: cv.Matroid) -> None:
    assert m.sorted_bases() == sorted(m.bases, key=cv.basis_sort_key)
    assert m.origin_hash() == origin_hash_by_sort(m)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(multigraphs())
def test_spanning_forest_search_matches_subset_enumeration(spec):
    expected = graphic_bases_by_subsets(spec)
    if not expected:  # loops only
        with pytest.raises(cv.DegenerateGraph):
            cv.build_matroid(spec)
        return
    m = cv.build_matroid(spec)
    assert m.sorted_bases() == expected
    assert_canonical(m)
    # the same family listed backwards takes the explicit route, which sorts
    explicit = cv.build_matroid(cv.ExplicitSpec(
        ground=m.labels, bases=tuple(m.labels_of(b) for b in reversed(expected))))
    assert explicit.sorted_bases() == expected
    assert_canonical(explicit)
    assert explicit.origin_hash() == m.origin_hash()


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(small_specs(), st.data())
def test_completion_lookup_matches_the_table(spec, data):
    """Read on demand, N(R) equals the table's entry for every key R, in a
    random order of first reads; once the table is built the lookup is it."""
    lazy = cv.build_matroid(spec)
    table = cv.build_matroid(spec)._completion_table()
    keys = data.draw(st.permutations(sorted(table)))
    lookup = lazy._completion_lookup()
    assert [lookup[key] for key in keys] == [table[key] for key in keys]
    assert lazy._completions is None
    assert lazy._completion_table() == table
    assert lazy._completion_lookup() is lazy._completions
    for b in lazy.bases:
        for u in cv.bits(b):
            assert lazy.exchange_neighborhood(b, u) == table[b ^ 1 << u]
