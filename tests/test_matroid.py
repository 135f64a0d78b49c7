"""Construction, validation, and exchange structure of the matroid core."""

import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

import curvatroid as cv
from curvatroid.matroid import _integer_rank, _integer_rows
from oracles import (ElementNotInBasis, exchange_neighborhood, graphic_bases_by_subsets,
                     is_basis, origin_hash_by_sort, quadratic_adjacent_pairs,
                     rank3_counterexample_linear_spec)


def u42() -> cv.Matroid:
    return cv.build_matroid(cv.UniformSpec(n=4, k=2))


# ── constructions ───────────────────────────────────────────────────────────


def test_uniform_basic():
    m = u42()
    assert m.n == 4 and m.rank == 2
    assert len(m.bases) == 6
    assert {m.labels_of(b) for b in m.bases} == {
        ("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")}


@pytest.mark.parametrize("n,k", [(4, 0), (4, 5), (0, 1)])
def test_uniform_bad_rank(n, k):
    with pytest.raises(cv.InvalidRank):
        cv.build_matroid(cv.UniformSpec(n=n, k=k))


def test_uniform_default_labels_beyond_alphabet():
    m = cv.build_matroid(cv.UniformSpec(n=27, k=1))
    assert m.labels[0] == "e0" and m.labels[26] == "e26"
    assert len(m.bases) == 27


def test_graphic_k6_count():
    m = cv.build_named("k6")
    assert m.rank == 5 and m.n == 15
    assert len(m.bases) == 1296  # 6^4 spanning trees of the complete graph


def test_graphic_disconnected_rank():
    # two disjoint edges on four vertices: rank = vertices - components
    spec = cv.GraphicSpec(vertex_count=4, edges=((0, 1, "p"), (2, 3, "q")))
    m = cv.build_matroid(spec)
    assert m.rank == 2
    assert m.bases == {m.mask_from_labels(["p", "q"])}


def test_graphic_multigraph_parallel_edges():
    spec = cv.GraphicSpec(vertex_count=2, edges=((0, 1, "p"), (0, 1, "q")))
    m = cv.build_matroid(spec)
    assert m.rank == 1
    assert {m.labels_of(b) for b in m.bases} == {("p",), ("q",)}


def test_graphic_loops_never_in_bases():
    spec = cv.GraphicSpec(vertex_count=2,
                          edges=((0, 1, "p"), (0, 0, "loop"), (0, 1, "q")))
    m = cv.build_matroid(spec)
    assert {m.labels_of(b) for b in m.bases} == {("p",), ("q",)}


def test_graphic_degenerate():
    with pytest.raises(cv.DegenerateGraph):
        cv.build_matroid(cv.GraphicSpec(vertex_count=3, edges=()))
    with pytest.raises(cv.DegenerateGraph):
        cv.build_matroid(cv.GraphicSpec(vertex_count=1, edges=((0, 0, "loop"),)))


def test_graphic_edge_outside_vertices():
    with pytest.raises(cv.UnknownElement):
        cv.build_matroid(cv.GraphicSpec(vertex_count=2, edges=((0, 2, "p"),)))


def graphic(vertex_count, ends):
    return cv.GraphicSpec(vertex_count=vertex_count, edges=tuple(
        (a, b, f"e{i}") for i, (a, b) in enumerate(ends)))


@pytest.mark.parametrize("spec,rank,count", [
    # bridges first: a prefix that skips one can never be completed
    (graphic(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 4)]), 7, 4),
    (graphic(7, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 3), (5, 6), (6, 4)]), 6, 8),
    # a tree: every edge is needed, so k = n and there is one basis
    (graphic(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)]), 5, 1),
    # rank 1: parallel edges and loops
    (graphic(2, [(0, 0), (0, 1), (1, 1), (1, 0), (0, 1), (0, 0)]), 1, 3),
    # two components and an untouched vertex (5)
    (graphic(7, [(0, 1), (1, 2), (2, 0), (3, 4), (6, 3), (4, 6), (0, 1)]), 4, 15),
], ids=["bridges-then-cycle", "bridges-then-k4-minus-an-edge", "tree", "rank-1",
        "disconnected"])
def test_graphic_fixed_families(spec, rank, count):
    """The search lists the per-subset oracle's family, in canonical order."""
    m = cv.build_matroid(spec)
    expected = graphic_bases_by_subsets(spec)
    assert m.rank == rank and len(expected) == count
    assert m.sorted_bases() == expected
    assert m.origin_hash() == origin_hash_by_sort(m)


@pytest.mark.parametrize("v", [3, 4, 5, 6, 7,
                               pytest.param(8, marks=pytest.mark.slow)])
def test_graphic_complete_graph_cayley_count(v):
    m = cv.build_matroid(graphic(v, list(combinations(range(v), 2))))
    assert m.rank == v - 1
    assert len(m.bases) == v ** (v - 2)
    assert m.sorted_bases() == sorted(m.bases, key=cv.basis_sort_key)
    assert m.origin_hash() == origin_hash_by_sort(m)


def test_graphic_build_holds_masks_only():
    """A built K7 keeps under 100 bytes per basis (16,807 trees): the sorted
    mask list and the frozenset take about 70, and an index tuple per basis
    would bring it to about 167."""
    spec = graphic(7, list(combinations(range(7), 2)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        m = cv.build_matroid(spec)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 100 * len(m.bases), retained / len(m.bases)


def test_linear_identity_single_basis():
    spec = cv.LinearSpec(matrix=((Fraction(1), Fraction(0)),
                                 (Fraction(0), Fraction(1))))
    m = cv.build_matroid(spec)
    assert m.rank == 2
    assert len(m.bases) == 1


def test_linear_rational_dependencies():
    # columns: e1, e2, e1+e2, 2*(e1+e2) -- the last two are parallel
    spec = cv.LinearSpec(matrix=(
        (Fraction(1), Fraction(0), Fraction(1), Fraction(2)),
        (Fraction(0), Fraction(1), Fraction(1), Fraction(2)),
    ), labels=("x", "y", "z", "w"))
    m = cv.build_matroid(spec)
    got = {m.labels_of(b) for b in m.bases}
    assert got == {("x", "y"), ("x", "z"), ("x", "w"), ("y", "z"), ("y", "w")}


def test_linear_errors():
    with pytest.raises(cv.EmptyBasisFamily):
        cv.build_matroid(cv.LinearSpec(matrix=()))
    with pytest.raises(cv.EmptyBasisFamily):
        cv.build_matroid(cv.LinearSpec(matrix=((Fraction(0), Fraction(0)),)))
    with pytest.raises(cv.RankMismatch):
        cv.build_matroid(cv.LinearSpec(matrix=((Fraction(1),),
                                               (Fraction(1), Fraction(0)))))
    with pytest.raises(cv.RankMismatch):
        cv.build_matroid(cv.LinearSpec(matrix=((Fraction(1), Fraction(0)),),
                                       labels=("x",)))


def test_matrix_rank():
    def rank(rows):
        return _integer_rank(_integer_rows(rows))

    assert rank(()) == 0
    assert rank(((Fraction(2), Fraction(4)),
                 (Fraction(1), Fraction(2)))) == 1
    assert rank(((Fraction(1, 3), Fraction(0)),
                 (Fraction(0), Fraction(5, 7)))) == 2


def test_explicit_errors():
    with pytest.raises(cv.EmptyBasisFamily):
        cv.build_matroid(cv.ExplicitSpec(ground=("a",), bases=()))
    with pytest.raises(cv.RankMismatch):
        cv.build_matroid(cv.ExplicitSpec(ground=("a", "b", "c"),
                                         bases=(("a", "b"), ("c",))))
    with pytest.raises(cv.UnknownElement):
        cv.build_matroid(cv.ExplicitSpec(ground=("a", "b"), bases=(("a", "z"),)))
    with pytest.raises(cv.UnknownElement):
        cv.build_matroid(cv.ExplicitSpec(ground=("a", "a"), bases=(("a",),)))
    with pytest.raises(cv.UnknownElement):
        cv.build_matroid(cv.ExplicitSpec(ground=("a", "b"), bases=(("a", "a"),)))


def test_ground_set_check():
    labels = ("a", "b", "c")
    assert cv.Matroid(labels, [0b011, 0b110], "t").bases == {0b011, 0b110}
    for bases in ([0b011, 0b1001], [0b1000, 0b001], [0b001, -4], [-2]):
        with pytest.raises(cv.UnknownElement, match="outside the ground set"):
            cv.Matroid(labels, bases, "t")


def test_enumeration_guard():
    with pytest.raises(cv.TooLarge):
        cv.build_matroid(cv.UniformSpec(n=30, k=15))
    # few subsets, but each one is a huge mask
    with pytest.raises(cv.TooLarge, match="work limit"):
        cv.build_matroid(cv.UniformSpec(n=10**7, k=10**7))
    # a linear input is charged like any other: the 10 x 20 Vandermonde
    # matrix, every 10 columns independent, lists its C(20, 10) bases, and
    # the 12 x 24 one has too many subsets
    def vandermonde(height):
        return cv.LinearSpec(matrix=tuple(tuple(Fraction((j + 1) ** i)
                                                for j in range(2 * height))
                                          for i in range(height)))

    assert len(cv.build_matroid(vandermonde(10)).bases) == comb(20, 10)
    with pytest.raises(cv.TooLarge, match=r"C\(24,12\) exceeds the enumeration limit"):
        cv.build_matroid(vandermonde(12))
    square = ((Fraction(1),) * 400,) * 400
    with pytest.raises(cv.TooLarge, match="ranking a 400 x 400 matrix"):
        cv.build_matroid(cv.LinearSpec(matrix=square))


def test_named_unknown():
    with pytest.raises(cv.ParseError):
        cv.build_named("petersen")


# ── labels and canonical form ───────────────────────────────────────────────


def test_label_round_trip():
    m = cv.build_named("k4")
    mask = m.mask_from_labels(["cd", "ab", "da"])
    assert m.labels_of(mask) == ("ab", "cd", "da")  # canonical ground order
    assert m.mask_from_labels(m.labels_of(mask)) == mask


def test_label_errors():
    m = u42()
    with pytest.raises(cv.UnknownElement):
        m.element_index("z")
    with pytest.raises(cv.UnknownElement):
        m.mask_from_labels(["a", "a"])
    with pytest.raises(cv.UnknownElement):
        m.labels_of(1 << m.n)


def test_is_basis():
    m = cv.build_named("k4")
    assert is_basis(m, ["ab", "bc", "cd"])
    assert not is_basis(m, ["ab", "bc", "ac"])  # triangle, not a spanning tree
    assert not is_basis(m, ["ab"])
    with pytest.raises(cv.UnknownElement):
        is_basis(m, ["ab", "nope", "cd"])


def test_vamos_excluded_quadruples():
    m = cv.build_named("vamos")
    for pair in (("a1", "a2", "b1", "b2"), ("a1", "a2", "c1", "c2"),
                 ("a1", "a2", "d1", "d2"), ("b1", "b2", "c1", "c2"),
                 ("b1", "b2", "d1", "d2")):
        assert not is_basis(m, pair)
    assert is_basis(m, ("c1", "c2", "d1", "d2"))
    assert len(m.bases) == 65


def test_sorted_bases_canonical():
    m = u42()
    order = m.sorted_bases()
    keys = [cv.basis_sort_key(b) for b in order]
    assert keys == sorted(keys)
    assert set(order) == m.bases


def test_every_construction_keeps_canonical_order_and_hash(test_set):
    # uniform and graphic families hand over their enumeration order, the
    # catalog's explicit ones are sorted; both must agree with a fresh sort
    linear = cv.build_matroid(rank3_counterexample_linear_spec())
    for name, m in [*test_set.items(), ("rank3-linear", linear)]:
        assert m.sorted_bases() == sorted(m.bases, key=cv.basis_sort_key), name
        assert m.origin_hash() == origin_hash_by_sort(m), name


def test_origin_hash():
    lin = cv.build_matroid(rank3_counterexample_linear_spec())
    exp = cv.build_named("rank3-counterexample")
    assert lin.origin_hash() == exp.origin_hash()  # same labels, same family
    assert len(lin.origin_hash()) == 64
    assert lin.origin_hash() != cv.build_named("k4").origin_hash()


def test_origin_is_set_at_construction():
    assert cv.build_matroid(cv.UniformSpec(n=4, k=2)).origin == "uniform(n=4,k=2)"
    assert cv.build_matroid(cv.UniformSpec(n=4, k=2), origin="mine").origin == "mine"
    for name in cv.CATALOG_NAMES:
        assert cv.build_named(name).origin == f"named:{name}"


# ── exchange structure ──────────────────────────────────────────────────────


def test_exchange_neighborhood_uniform():
    m = u42()
    b = m.mask_from_labels(["a", "b"])
    hood = exchange_neighborhood(m, b, m.element_index("b"))
    assert m.labels_of(hood) == ("b", "c", "d")


def test_exchange_neighborhood_invariants(test_set):
    for name, m in test_set.items():
        if m.n > 6:
            continue
        expected_uniform = m.n - m.rank + 1 if name.startswith("u(") else None
        for b in m.sorted_bases():
            for u in cv.bits(b):
                hood = exchange_neighborhood(m, b, u)
                assert hood & (1 << u), (name, b, u)
                assert not (hood & (b ^ (1 << u))), "hood must avoid b - u"
                for x in cv.bits(hood):
                    assert ((b ^ (1 << u)) | (1 << x)) in m.bases
                if expected_uniform is not None:
                    assert hood.bit_count() == expected_uniform


def test_exchange_neighborhood_errors():
    m = u42()
    with pytest.raises(cv.NotABasis):
        exchange_neighborhood(m, m.mask_from_labels(["a", "b"]) | 4, 0)
    with pytest.raises(ElementNotInBasis):
        exchange_neighborhood(m, m.mask_from_labels(["a", "b"]),
                              m.element_index("c"))


def test_adjacent_pairs_counts():
    assert len(cv.canonical_pairs(u42())) == 12
    rank1 = cv.build_matroid(cv.ExplicitSpec(ground=("a", "b"),
                                             bases=(("a",), ("b",))))
    assert len(cv.canonical_pairs(rank1)) == 1


def test_adjacent_pairs_match_quadratic_definition(test_set):
    for name, m in test_set.items():
        if len(m.bases) > 40:
            continue
        got = set()
        for x, y in cv.canonical_pairs(m):
            assert (x ^ y).bit_count() == 2
            key = (x, y) if x < y else (y, x)
            assert key not in got, f"{name}: pair yielded twice"
            got.add(key)
        assert got == quadratic_adjacent_pairs(m.bases), name


def test_vamos_pairs_share_three():
    m = cv.build_named("vamos")
    for x, y in cv.canonical_pairs(m):
        assert (x & y).bit_count() == 3


# ── the exchange axiom ──────────────────────────────────────────────────────


def test_axiom_passes_on_catalog_and_uniforms():
    for name in cv.CATALOG_NAMES:
        assert cv.validate_exchange_axiom(cv.build_named(name)).ok, name
    assert cv.validate_exchange_axiom(u42()).ok


def test_axiom_fails_with_witness():
    m = cv.build_matroid(cv.ExplicitSpec(ground=("a", "b", "c", "d"),
                                         bases=(("a", "b"), ("c", "d"))))
    result = cv.validate_exchange_axiom(m)
    assert not result.ok
    b1, b2, u = result.witness
    assert m.labels_of(b1) == ("a", "b")
    assert m.labels_of(b2) == ("c", "d")
    assert m.labels[u] == "a"
    assert not bool(result)


def test_axiom_passes_on_graphs(test_set):
    for name, m in test_set.items():
        if name.startswith("graph"):
            assert cv.validate_exchange_axiom(m).ok, name
