"""Property checks of the constructions: the integer (Bareiss) rank against
Fraction elimination, the graphic spanning-forest search and the linear
minor pass against per-subset enumeration, and the completion-set store,
read one set at a time and then filled, against a fresh completion table."""

from fractions import Fraction

import pytest

import curvatroid as cv
from curvatroid.matroid import _integer_rank, _integer_rows
from oracles import (exchange_neighborhood, explicit_families, fraction_matrix_rank,
                     graphic_bases_by_subsets, linear_bases_by_subsets, origin_hash_by_sort,
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
    assert _integer_rank(_integer_rows(matrix)) == fraction_matrix_rank(matrix)


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
    # when the matroid is built
    explicit = cv.build_matroid(cv.ExplicitSpec(
        ground=m.labels, bases=tuple(m.labels_of(b) for b in reversed(expected))))
    assert explicit._keys == m._keys
    assert explicit.sorted_bases() == expected
    assert_canonical(explicit)
    assert explicit.origin_hash() == m.origin_hash()


@st.composite
def linear_specs(draw):
    """A height x width integer or rational matrix of rank at most r, the
    product of two random factors through an inner dimension r, with up to
    three more rows than r. The width puts 2r below, at or above it, and
    then some columns are zeroed and some made multiples of an earlier one:
    loops and parallel elements."""
    entries = draw(st.sampled_from([st.integers(-3, 3).map(Fraction), rationals]))
    inner = draw(st.integers(1, 6))
    width = draw(st.sampled_from([
        w for w in (inner, inner + 1, 2 * inner - 1, 2 * inner, 2 * inner + 1, 2 * inner + 3)
        if inner <= w <= 12]))
    height = draw(st.integers(inner, min(8, inner + 3)))
    left = draw(st.lists(st.lists(entries, min_size=inner, max_size=inner),
                         min_size=height, max_size=height))
    right = draw(st.lists(st.lists(entries, min_size=width, max_size=width),
                          min_size=inner, max_size=inner))
    columns = [[sum((left[i][t] * right[t][j] for t in range(inner)), Fraction(0))
                for i in range(height)] for j in range(width)]
    for j in range(1, width):
        change = draw(st.sampled_from(["keep"] * 4 + ["zero", "parallel"]))
        if change == "zero":
            columns[j] = [Fraction(0)] * height
        elif change == "parallel":
            source = draw(st.integers(0, j - 1))
            scale = draw(st.builds(Fraction, st.sampled_from([-3, -1, 1, 2]),
                                   st.integers(1, 4)))
            columns[j] = [scale * x for x in columns[source]]
    return cv.LinearSpec(matrix=tuple(zip(*columns)))


def assert_linear_matches_subsets(spec: cv.LinearSpec) -> None:
    """The construction's keys, order and hash equal those of the family
    listed by ranking every k-subset, built as an explicit family."""
    expected = linear_bases_by_subsets(spec)
    if expected == [()]:  # rank 0: the empty set is the only independent set
        with pytest.raises(cv.EmptyBasisFamily):
            cv.build_matroid(spec)
        return
    m = cv.build_matroid(spec)
    assert m._keys == expected
    assert m.sorted_bases() == [sum(1 << c for c in key) for key in expected]
    explicit = cv.build_matroid(cv.ExplicitSpec(
        ground=m.labels, bases=tuple(tuple(m.labels[c] for c in key) for key in expected)))
    assert m.origin_hash() == explicit.origin_hash() == origin_hash_by_sort(m)


@hypothesis.settings(max_examples=250, deadline=None, derandomize=True, database=None)
@hypothesis.given(linear_specs())
def test_minor_pass_matches_subset_ranks(spec):
    assert_linear_matches_subsets(spec)


def test_minor_pass_on_fixed_shapes():
    # 12 x 16 takes the dual route with rank 4 on the dual side
    rows = tuple(tuple(Fraction((3 * i + 5 * j) % 7 - 3 + (i == j)) for j in range(16))
                 for i in range(12))
    # a single row with zero and parallel entries, and two square shapes
    # of full rank, k = n, one of them with more rows than its rank
    row = (tuple(Fraction(x) for x in (0, 2, -1, 0, Fraction(1, 3), 4, -2)),)
    square = tuple(tuple(Fraction(int(i == j) + int(j == 0)) for j in range(4))
                   for i in range(4))
    tall = square + (tuple(a + b for a, b in zip(square[1], square[3])),)
    ranks = []
    for matrix in (rows, row, square, tall):
        spec = cv.LinearSpec(matrix=matrix)
        assert_linear_matches_subsets(spec)
        ranks.append(_integer_rank(_integer_rows(matrix)))
    assert ranks == [12, 1, 4, 4]


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.one_of(small_specs(), explicit_families()), st.data())
def test_completion_lookup_matches_the_table(spec, data):
    """Read one set at a time from the store, N(R) equals a fresh scan's
    entry for random keys R in a random order of first reads; filling the
    store then gives exactly the fresh scan's keys and values."""
    lazy = cv.build_matroid(spec)
    table = cv.build_matroid(spec)._completion_table()
    keys = data.draw(st.permutations(sorted(table)))
    keys = keys[:data.draw(st.integers(0, len(keys)))]
    store = lazy._completions
    assert [store[key] for key in keys] == [table[key] for key in keys]
    assert list(store) == keys and not store.complete
    assert lazy._completion_table() is store and store.complete
    assert store == table
    for b in lazy.bases:
        for u in cv.bits(b):
            assert exchange_neighborhood(lazy, b, u) == table[b ^ 1 << u]
