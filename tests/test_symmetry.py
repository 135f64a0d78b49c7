"""Matroid automorphisms: the generator search against a brute-force oracle,
and the exact sweep and the all-pairs audit with and without orbit reuse."""

from fractions import Fraction as F
from itertools import combinations, product

import hypothesis
import pytest
from hypothesis import strategies as st

import curvatroid as cv
from curvatroid import curvature, symmetry
from conftest import build_test_set
from oracles import (automorphisms, basis_check, cocircuits_by_subsets, explicit_families,
                     group_order, permuted_explicit_specs, small_specs,
                     unpruned_global_curvature)
from test_curvature import TIE_GRAPHS


def generated_group(generators, n: int) -> set[tuple[int, ...]]:
    """Every product of the generators, by closing the identity under them."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        p = frontier.pop()
        for g in generators:
            q = tuple(g[p[e]] for e in range(n))
            if q not in group:
                group.add(q)
                frontier.append(q)
    return group


def graphic(vertex_count: int, edges) -> cv.Matroid:
    return cv.build_matroid(cv.GraphicSpec(vertex_count=vertex_count, edges=tuple(
        (a, b, f"e{i}") for i, (a, b) in enumerate(edges))))


def wheel(rim: int) -> list[tuple[int, int]]:
    return [(0, i) for i in range(1, rim + 1)] + [(i, i % rim + 1) for i in range(1, rim + 1)]


def affine_cube() -> cv.Matroid:
    """AG(3, 2): the 8 points of GF(2)^3, each 4-set off the 14 planes
    {a, b, c, d : a ^ b ^ c ^ d = 0} a basis. Its pair counts are uniform,
    and an incidence round splits nothing after two individualizations,
    only after the third."""
    labels = tuple(f"p{i}" for i in range(8))
    return cv.build_matroid(cv.ExplicitSpec(ground=labels, bases=tuple(
        tuple(labels[i] for i in quad) for quad in combinations(range(8), 4)
        if quad[0] ^ quad[1] ^ quad[2] ^ quad[3])))


def projective_plane_3() -> cv.Matroid:
    """PG(2, 3): the 13 points of the projective plane over GF(3), each
    triple of points off a common line a basis. Its pair counts are
    uniform, so P splits nothing the individualized elements do not."""
    points = [p for p in product(range(3), repeat=3)
              if any(p) and next(x for x in p if x) == 1]

    def det(a, b, c):
        return (a[0] * (b[1] * c[2] - b[2] * c[1]) - a[1] * (b[0] * c[2] - b[2] * c[0])
                + a[2] * (b[0] * c[1] - b[1] * c[0])) % 3

    labels = tuple(f"p{i}" for i in range(len(points)))
    return cv.build_matroid(cv.ExplicitSpec(ground=labels, bases=tuple(
        tuple(labels[i] for i in triple) for triple in combinations(range(len(points)), 3)
        if det(*(points[i] for i in triple)))))


FAMILIES = {
    "ag32": affine_cube,
    "k4": lambda: cv.build_named("k4"),
    "fano": lambda: cv.build_named("fano"),
    "vamos": lambda: cv.build_named("vamos"),
    "k24": lambda: graphic(6, [(i, 2 + j) for i in range(2) for j in range(4)]),
    "k33": lambda: graphic(6, [(i, 3 + j) for i in range(3) for j in range(3)]),
    "k5": lambda: graphic(5, list(combinations(range(5), 2))),
    "w5": lambda: graphic(6, wheel(5)),
    "u36": lambda: cv.build_matroid(cv.UniformSpec(n=6, k=3)),
    "rank3": lambda: cv.build_named("rank3-counterexample"),
    "pg23": projective_plane_3,
    "k7": lambda: graphic(7, list(combinations(range(7), 2))),
}
# |Aut M|; the vertex group of K(2,4) has order 48, its matroid's is 384
GROUP_ORDERS = {"k4": 24, "fano": 168, "vamos": 64, "k24": 384, "k33": 72,
                "k5": 120, "w5": 10, "ag32": 1344, "u36": 720}


@pytest.mark.parametrize("name", sorted(GROUP_ORDERS))
def test_generators_generate_the_oracle_group(name):
    m = FAMILIES[name]()
    group = generated_group(cv.automorphism_generators(m), m.n)
    assert group == set(automorphisms(m))
    assert len(group) == GROUP_ORDERS[name]


def test_generators_of_a_plane_with_uniform_pair_counts():
    # every generator maps the family onto itself, so they generate all of
    # Aut PG(2, 3) = PGL(3, 3), of order 13 * 12 * 9 * 4, iff their closure
    # is that large; the oracle's brute force is too slow on 13 elements
    m = projective_plane_3()
    generators = cv.automorphism_generators(m)
    for p in generators:
        assert {sum(1 << p[e] for e in cv.bits(b)) for b in m.bases} == m.bases
    assert len(generated_group(generators, m.n)) == 5616


# permuted explicit files give the search another element order; explicit
# families are mostly not matroids, which the search refuses, since its leaf
# check holds for matroids only
@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.one_of(small_specs(), permuted_explicit_specs(), explicit_families()))
def test_generators_map_the_family_onto_itself_and_generate_the_group(spec):
    m = cv.build_matroid(spec)
    if not cv.validate_exchange_axiom(m).ok:
        with pytest.raises(cv.NotAMatroid):
            cv.automorphism_generators(m)
        return
    generators = cv.automorphism_generators(m)
    for p in generators:
        assert sorted(p) == list(range(m.n)), spec
        assert {sum(1 << p[e] for e in cv.bits(b)) for b in m.bases} == m.bases, spec
    assert generated_group(generators, m.n) == set(automorphisms(m)), spec


# at most this many _is_automorphism calls per search: each family's count
# before the incidence round, except Fano, which made 162 then. AG(3, 2)
# pins the restart: an incidence round decided once, at the first node that
# asks for it, splits nothing at depth 2 and leaves 164 leaf checks. U(3, 6)
# pins the first pass without it: P is blind there, no leaf fails, and the
# incidence round is asked for but never run. The rank-3 counterexample
# (14 elements), PG(2, 3) (13) and K7 (21) pin searches whose basis checks
# map sets through two or more table chunks.
LEAF_CHECKS = {"k4": 5, "fano": 8, "vamos": 6, "k24": 4, "k33": 3, "k5": 4, "w5": 2,
               "ag32": 7, "u36": 5, "rank3": 11, "pg23": 8, "k7": 6}


@pytest.mark.parametrize("name", sorted(LEAF_CHECKS))
def test_the_search_checks_few_leaves(name, monkeypatch):
    checked = []
    check = symmetry._is_automorphism

    def counted(perm, cocircuits):
        checked.append(perm)
        return check(perm, cocircuits)

    monkeypatch.setattr(symmetry, "_is_automorphism", counted)
    cv.automorphism_generators(FAMILIES[name]())
    assert len(checked) <= LEAF_CHECKS[name]


# |Aut M| of the families whose basis checks take two or more chunks, too
# large for the brute-force oracle; the rank-3 counterexample's group has
# 2,073,600 elements, too many to list
CHUNKED_GROUP_ORDERS = {"rank3": 2_073_600, "pg23": 5_616, "k7": 5_040}


@pytest.mark.parametrize("name", sorted(CHUNKED_GROUP_ORDERS))
def test_chunked_searches_generate_the_whole_group(name):
    m = FAMILIES[name]()
    assert symmetry._chunk_width(m.n, len(m.bases)) < m.n
    generators = cv.automorphism_generators(m)
    for p in generators:
        assert {sum(1 << p[e] for e in cv.bits(b)) for b in m.bases} == m.bases
    assert group_order(generators, m.n) == CHUNKED_GROUP_ORDERS[name]


# the numbers of sets the callers map: the bases of a leaf check and the
# keys of an exact sweep, on one basis, Fano (28 bases, 21 keys, 777 with
# the audit), the rank-3 counterexample (84), PG(2, 3) (234), K7 (16,807
# bases, 13,377 keys) and K8 (262,144 bases, 200,704 keys)
CALLER_COUNTS = (1, 21, 28, 84, 234, 777, 13_377, 16_807, 200_704, 262_144)


def chunks(n: int, count: int) -> int:
    return -(-n // symmetry._chunk_width(n, count))


# (count, n) at every edge of the width rule: n = 1, n = 40, and the last n
# of each chunk count with the first n past it
SHAPES = sorted({(count, n) for count in CALLER_COUNTS for n in (1, 40)}
                | {(count, edge) for count in CALLER_COUNTS for n in range(1, 40)
                   if chunks(n, count) != chunks(n + 1, count) for edge in (n, n + 1)})


@st.composite
def set_maps(draw):
    count, n = draw(st.sampled_from(SHAPES))
    perm = tuple(draw(st.permutations(range(n))))
    top = 1 << n - 1
    masks = draw(st.lists(st.one_of(st.integers(0, 2 * top - 1),
                                    st.integers(0, top - 1).map(top.__or__)),
                          min_size=1, max_size=20))
    return count, perm, [0, 2 * top - 1, top, *masks]


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(set_maps())
def test_mask_image_matches_the_element_wise_image(drawn):
    count, perm, masks = drawn
    image = symmetry.mask_image(perm, count)
    for mask in masks:
        assert image(mask) == sum(1 << perm[e] for e in cv.bits(mask)), (count, perm, mask)


def test_set_maps_take_the_fewest_chunks_that_pay():
    # Fano's 28 bases map through one table, its own __getitem__; K7 and K8
    # through two halves, for their bases and for their keys alike
    assert symmetry._chunk_width(7, 28) == 7
    assert type(symmetry.mask_image(tuple(range(7)), 28).__self__) is list
    assert symmetry._chunk_width(21, 16_807) == symmetry._chunk_width(21, 13_377) == 11
    assert symmetry._chunk_width(28, 262_144) == symmetry._chunk_width(28, 200_704) == 14
    # a table never passes TABLE_BITS, however many sets are mapped
    assert symmetry._chunk_width(40, 10 ** 9) == symmetry.TABLE_BITS


def planted(n: int, k: int) -> frozenset[int]:
    """All k-sets of n elements but {1, ..., k - 1, n - 1}: a matroid in
    which that set is a circuit-hyperplane, so a transposition is an
    automorphism iff it fixes that set."""
    missing = 1 << n - 1 | (1 << k) - 2
    return frozenset(sum(1 << e for e in c) for c in combinations(range(n), k)) - {missing}


# _is_automorphism maps any family of sets; here the bases go through one
# table, two chunks and five
@pytest.mark.parametrize("n,k,pieces", [(7, 3, 1), (13, 3, 2), (40, 2, 5)])
def test_a_planted_transposition_fails_the_basis_check_in_each_shape(n, k, pieces):
    bases = planted(n, k)
    assert chunks(n, len(bases)) == pieces
    assert symmetry._is_automorphism(tuple(range(n)), bases)
    assert symmetry._is_automorphism(swap(n, 0, n - 2), bases)
    assert not symmetry._is_automorphism(swap(n, 0, n - 1), bases)
    assert not symmetry._is_automorphism(swap(n, 0, 1), bases)


# the search's own family, the cocircuits, through one table, two chunks and
# five: it gives every transposition the basis check's verdict
@pytest.mark.parametrize("n,k,pieces", [(7, 4, 1), (7, 3, 2), (20, 2, 5)])
def test_a_planted_transposition_fails_the_cocircuit_check_in_each_shape(n, k, pieces):
    bases = planted(n, k)
    m = cv.Matroid([f"x{e}" for e in range(n)], bases, "planted")
    m.require_matroid()
    cocircuits = frozenset(m._completion_table().values())
    assert chunks(n, len(cocircuits)) == pieces
    perms = (tuple(range(n)), swap(n, 0, n - 2), swap(n, 0, n - 1), swap(n, 0, 1))
    verdicts = [symmetry._is_automorphism(perm, cocircuits) for perm in perms]
    assert verdicts == [basis_check(perm, bases) for perm in perms] == [
        True, True, False, False]


# the leaf check reads the cocircuits, which are the distinct completion
# sets N(R) = E - cl(R): the minimal sets that meet every basis
@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.one_of(small_specs(), st.sampled_from(cv.CATALOG_NAMES)))
def test_the_distinct_completion_sets_are_the_cocircuits(spec):
    m = cv.build_named(spec) if isinstance(spec, str) else cv.build_matroid(spec)
    assert set(m._completion_table().values()) == cocircuits_by_subsets(m), spec


@pytest.mark.parametrize("name", sorted(LEAF_CHECKS))
def test_the_cocircuit_check_finds_the_generators_of_the_basis_check(name, monkeypatch):
    m = FAMILIES[name]()
    generators = cv.automorphism_generators(m)
    monkeypatch.setattr(symmetry, "_is_automorphism",
                        lambda perm, cocircuits: basis_check(perm, m.bases))
    assert cv.automorphism_generators(m) == generators


def test_the_search_refuses_a_family_that_is_not_a_matroid():
    m = cv.build_matroid(cv.ExplicitSpec(ground=tuple("abcdef"),
                                         bases=(tuple("abc"), tuple("def"))))
    with pytest.raises(cv.NotAMatroid):
        cv.automorphism_generators(m)


# the incidence round runs only after a leaf failed its check below a
# node that asked for it; run whenever asked, it took U(5, 12)'s search from
# 2.8 to 50 ms and the rank-3 counterexample's from 1.2 to 5.9 ms
@pytest.mark.parametrize("name,runs", [("u36", False), ("ag32", True)])
def test_the_incidence_round_runs_only_where_a_leaf_failed(name, runs, monkeypatch):
    ran = []  # per request: whether an incidence round was run
    refine = symmetry._refine

    def counted(colours, pivot, weights, width, incidence, charge):
        def counted_incidence(node):
            rounded = incidence(node)
            ran.append(rounded is not None)
            return rounded
        return refine(colours, pivot, weights, width, counted_incidence, charge)

    monkeypatch.setattr(symmetry, "_refine", counted)
    cv.automorphism_generators(FAMILIES[name]())
    assert ran and any(ran) == runs


def tie_graphs() -> dict[str, cv.Matroid]:
    return {name: graphic(7, edges) for name, edges in TIE_GRAPHS.items()}


def reports(corpus: dict[str, cv.Matroid], audit: set[str]) -> dict:
    return {name: (cv.global_curvature(m),
                   cv.global_curvature(m, audit_all_pairs=True) if name in audit else None)
            for name, m in corpus.items()}


def test_reports_are_identical_with_the_search_off(monkeypatch):
    # the atlas-947 audit solves 49,455 pairs with the search off (about 50 s),
    # so that graph is compared on the exact sweep only
    corpus = {**build_test_set(), **tie_graphs()}
    audit = set(corpus) - {"atlas-947"}
    with_search = reports(corpus, audit)
    monkeypatch.setattr(curvature, "automorphism_generators", lambda m: ())
    assert reports({**build_test_set(), **tie_graphs()}, audit) == with_search


@pytest.mark.parametrize("name,exact,audit,requests", [
    ("vamos", True, True, 1),   # one search serves the sweep and the audit
    ("vamos", True, False, 1),
    ("k4", True, False, 1),     # an exact sweep walks key orbits, also with one open pair
    ("vamos", False, False, 0),  # bounds only: every key is its own orbit
])
def test_global_curvature_searches_at_most_once(name, exact, audit, requests,
                                                monkeypatch):
    asked = []
    search = curvature.automorphism_generators

    def counted(m):
        asked.append(m)
        return search(m)

    monkeypatch.setattr(curvature, "automorphism_generators", counted)
    cv.global_curvature(cv.build_named(name), exact=exact, audit_all_pairs=audit)
    assert len(asked) == requests


def count_solves(monkeypatch) -> list:
    solved = []
    exact = curvature.exact_pair_curvature

    def counted(m, frame):
        solved.append(frame)
        return exact(m, frame)

    monkeypatch.setattr(curvature, "exact_pair_curvature", counted)
    return solved


def swap(n: int, a: int, b: int) -> tuple[int, ...]:
    p = list(range(n))
    p[a], p[b] = b, a
    return tuple(p)


def test_the_exact_walk_maps_tied_pairs_along_the_key_orbits(monkeypatch):
    # every pair of U(5, 12) has equal bounds and ties at the minimum, so
    # each visited pair's first image decides the argmin; those images come
    # from the key orbit's Schreier rows, not from a pair_orbit walk (one per
    # visited pair took u(5,12) --exact from 14 to 1,857 ms) nor from a
    # transport solve
    m = cv.build_matroid(cv.UniformSpec(n=12, k=5))
    solved = count_solves(monkeypatch)
    walked = []
    orbit = curvature.pair_orbit

    def counted(images, x, y):
        walked.append((x, y))
        return orbit(images, x, y)

    monkeypatch.setattr(curvature, "pair_orbit", counted)
    report = cv.global_curvature(m)
    position = {b: i for i, b in enumerate(m.sorted_bases())}
    first = min(cv.canonical_pairs(m), key=lambda pair: (position[pair[0]], position[pair[1]]))
    assert (report.kappa_exact, report.pair_count) == (F(3, 10), 13_860)
    assert report.argmin_pair == first
    assert solved == [] and walked == []


# (matroid, planted candidate, solves of the sweep without orbits). Any two
# points of the Fano plane lie on one line, so swapping two points keeps
# every pair count and only the basis check rejects it; swapping a1 and b1
# of Vamos already changes the pair counts.
PLANTED = {"fano": swap(7, 0, 1), "vamos": swap(8, 0, 2)}
UNSHARED_SOLVES = {"fano": 0, "vamos": 48}


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_a_planted_non_automorphism_is_rejected_and_never_used(name, monkeypatch):
    m = cv.build_named(name)
    planted = PLANTED[name]
    assert planted not in automorphisms(m)
    if name == "fano":
        def count(e, f):
            return sum(1 for b in m.bases if b >> e & 1 and b >> f & 1)
        assert all(count(planted[e], planted[f]) == count(e, f)
                   for e in range(m.n) for f in range(m.n))
    monkeypatch.setattr(symmetry, "_leaf_permutation", lambda first, leaf: planted)
    assert cv.automorphism_generators(m) == ()
    solved = count_solves(monkeypatch)
    report = cv.global_curvature(m)
    assert len(solved) == UNSHARED_SOLVES[name]
    assert (report.kappa_exact, report.argmin_pair) == unpruned_global_curvature(m)


# transport solves of the all-pairs audit, one per orbit of unordered basis
# pairs; without orbits it solves every pair (Fano 378, M(K2,4) 496)
AUDIT_SOLVES = {"fano": 5, "k24": 6}


@pytest.mark.parametrize("name", sorted(AUDIT_SOLVES))
def test_the_audit_solves_one_pair_per_orbit(name, monkeypatch):
    m = FAMILIES[name]()
    sweep = count_solves(monkeypatch)
    solves = []
    w1 = curvature.wasserstein1

    def counted(problem):
        solves.append(problem)
        return w1(problem)

    monkeypatch.setattr(curvature, "wasserstein1", counted)
    cv.global_curvature(m, audit_all_pairs=True)
    assert len(solves) - len(sweep) == AUDIT_SOLVES[name]
