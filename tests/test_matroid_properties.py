"""Property checks of the constructions: the integer (Bareiss) rank against
Fraction elimination, the graphic spanning-forest search and the linear
minor pass against per-subset enumeration, the graphic coloop mask against
the AND of the enumerated bases, the origin hash on labels that
JSON escapes against json.dumps, the automorphism search's pair counts
against a basis-by-basis count, the completion-set store, read one set at
a time and then filled, against a fresh completion table, and the shadow
routine against its definition."""

from fractions import Fraction
from functools import reduce
from operator import and_
from unittest import mock

import pytest

import curvatroid as cv
from curvatroid import matroid
from curvatroid.matroid import _coloops, _integer_rank, _integer_rows, _shadow
from curvatroid.symmetry import _pair_counts
from oracles import (exchange_neighborhood, explicit_families, fraction_matrix_rank,
                     graphic_bases_by_subsets, linear_bases_by_subsets, origin_hash_by_sort,
                     pair_counts_by_bases, shadow_by_subsets, small_specs)

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
    assert explicit.sorted_bases() == expected
    assert_canonical(explicit)
    assert explicit.origin_hash() == m.origin_hash()


@st.composite
def bridged_multigraphs(draw):
    """A random tree on 1..9 vertices, whose edges are all bridges, plus
    1..5 edges drawn with replacement: loops, parallel edges and chords,
    each chord closing a cycle through some tree edges. The rest stay
    bridges, in pendant trees or between blocks, and the edges come in a
    random order with random orientations, so a bridge can sit anywhere."""
    vertices = draw(st.integers(1, 9))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, vertices)]
    extra = draw(st.lists(st.tuples(st.integers(0, vertices - 1),
                                    st.integers(0, vertices - 1)), min_size=1, max_size=5))
    ends = [(b, a) if draw(st.booleans()) else (a, b)
            for a, b in draw(st.permutations(tree + extra))]
    return cv.GraphicSpec(vertex_count=vertices,
                          edges=tuple((a, b, f"e{i}") for i, (a, b) in enumerate(ends)))


def greedy_forest(ends: list[tuple[int, int]]) -> int:
    """Mask of the edges that join two components, scanned in index order."""
    component = list(range(1 + max(max(e) for e in ends)))
    forest = 0
    for i, (a, b) in enumerate(ends):
        x, y = component[a], component[b]
        if x != y:
            forest |= 1 << i
            component = [x if c == y else c for c in component]
    return forest


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(bridged_multigraphs())
def test_coloops_are_the_bridges_and_the_search_keeps_them(spec):
    """The coloop mask the search contracts, from the edges both greedy
    forests keep, is the AND of the oracle's bases, as is the mask found
    from every edge of the forward forest, and the search lists the
    oracle's family in canonical order."""
    expected = graphic_bases_by_subsets(spec)
    if not expected:  # loops only
        with pytest.raises(cv.DegenerateGraph):
            cv.build_matroid(spec)
        return
    found = []

    def recorded(*args):
        found.append(_coloops(*args))
        return found[-1]

    with mock.patch.object(matroid, "_coloops", recorded):
        m = cv.build_matroid(spec)
    assert m.sorted_bases() == expected
    assert_canonical(m)
    coloops = reduce(and_, expected)
    assert found == ([coloops] if m.rank > 1 else [])  # rank 1 lists its edges
    ends = [(a, b) for a, b, _ in spec.edges]
    assert _coloops([a for a, _ in ends], [b for _, b in ends],
                    "".join(map(chr, range(spec.vertex_count))), m.rank,
                    greedy_forest(ends)) == coloops


# a quote, a backslash, control characters, non-ASCII and an astral
# character: json.dumps escapes each of them in a label
ESCAPED = ('"', "\\", "\x01", "\n", "\u00e9", "\u2028", "\U0001d11e")


@st.composite
def escaped_families(draw):
    """An explicit family over 1..14 labels written from characters JSON
    must escape: k = 1 and n >= 11 both occur, as do bases listed out of
    canonical order."""
    n = draw(st.integers(1, 14))
    labels = draw(st.lists(st.text(st.sampled_from(ESCAPED + ("a",)), min_size=1, max_size=3),
                           min_size=n, max_size=n, unique=True))
    k = draw(st.sampled_from(sorted({1, min(2, n), min(3, n), max(n - 1, 1), n})))
    subsets = st.sets(st.integers(0, n - 1), min_size=k, max_size=k).map(sorted)
    bases = draw(st.lists(subsets, min_size=1, max_size=40, unique_by=tuple))
    return cv.ExplicitSpec(ground=tuple(labels),
                           bases=tuple(tuple(labels[i] for i in b) for b in bases))


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(escaped_families())
@hypothesis.example(cv.ExplicitSpec(ground=ESCAPED + tuple(f"x{i}" for i in range(5)),
                                    bases=tuple((x,) for x in reversed(ESCAPED))))
def test_origin_hash_escapes_labels_as_json_does(spec):
    assert_canonical(cv.build_matroid(spec))


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
    """The construction's order and hash equal those of the family listed
    by ranking every k-subset, built as an explicit family."""
    expected = linear_bases_by_subsets(spec)
    if expected == [()]:  # rank 0: the empty set is the only independent set
        with pytest.raises(cv.EmptyBasisFamily):
            cv.build_matroid(spec)
        return
    m = cv.build_matroid(spec)
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


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.one_of(multigraphs(), linear_specs(), escaped_families()))
def test_pair_counts_match_a_count_over_the_bases(spec):
    """_pair_counts reads each basis one byte per 8-element chunk; the
    graphs, matrices and labelled families here have up to 14 elements, so
    two chunks occur."""
    try:
        m = cv.build_matroid(spec)
    except (cv.DegenerateGraph, cv.EmptyBasisFamily):  # loops only, or rank 0
        hypothesis.reject()
    assert _pair_counts(m) == pair_counts_by_bases(m)


def wide_specs() -> list[cv.MatroidSpec]:
    """Ground sets of three 8-element chunks, with few bases: U(2, 20) and
    the 18-cycle, whose 18 spanning trees each leave out one edge."""
    return [cv.UniformSpec(n=20, k=2),
            cv.GraphicSpec(vertex_count=18, edges=tuple(
                (i, (i + 1) % 18, f"c{i}") for i in range(18)))]


@pytest.mark.parametrize("spec", [cv.NamedSpec(name) for name in cv.CATALOG_NAMES]
                         + wide_specs())
def test_pair_counts_and_hash_on_the_catalog_and_wide_ground_sets(spec):
    m = cv.build_matroid(spec)
    assert _pair_counts(m) == pair_counts_by_bases(m)
    assert_canonical(m)


catalog_specs = st.sampled_from([cv.NamedSpec(name) for name in cv.CATALOG_NAMES])


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.one_of(small_specs(), explicit_families(), catalog_specs), st.data())
def test_completion_lookup_matches_the_table(spec, data):
    """Read one set at a time from the store, N(R) equals a fresh scan's
    entry for random keys R in a random order of first reads; filling the
    store then gives exactly the fresh scan's keys and values, and leaves
    each key read before with the mask it had."""
    lazy = cv.build_matroid(spec)
    table = cv.build_matroid(spec)._completion_table()
    keys = data.draw(st.permutations(sorted(table)))
    keys = keys[:data.draw(st.integers(0, len(keys)))]
    store = lazy._completions
    read = [store[key] for key in keys]
    assert read == [table[key] for key in keys]
    assert list(store) == keys and not store.complete
    assert lazy._completion_table() is store and store.complete
    assert store == table
    assert [store[key] for key in keys] == read
    for b in lazy.bases:
        for u in cv.bits(b):
            assert exchange_neighborhood(lazy, b, u) == table[b ^ 1 << u]


class _NoMissing(dict):
    """A dict that fails on any read of a missing key that is not a get."""

    def __missing__(self, key):
        raise AssertionError(f"missing key {key} read")


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.one_of(small_specs(), catalog_specs))
def test_the_shadow_matches_its_definition(spec):
    """The bases' shadow is the completion table, and the table keys' shadow
    the validator's map of (k-2)-sets; both read their target only by get."""
    m = cv.build_matroid(spec)
    families = [m.bases] + ([list(m._completion_table())] if m.rank > 1 else [])
    for family in families:
        expected = shadow_by_subsets(family, m.n)
        assert _shadow(family, {}) == expected, spec
        assert _shadow(family, _NoMissing()) == expected, spec
