"""Matroid automorphisms: the generator search against a brute-force oracle,
and the exact sweep and the all-pairs audit with and without orbit reuse."""

from itertools import combinations, product

import hypothesis
import pytest
from hypothesis import strategies as st

import curvatroid as cv
from curvatroid import curvature, symmetry
from conftest import build_test_set
from oracles import (automorphisms, explicit_families, permuted_explicit_specs, small_specs,
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


FAMILIES = {
    "k4": lambda: cv.build_named("k4"),
    "fano": lambda: cv.build_named("fano"),
    "vamos": lambda: cv.build_named("vamos"),
    "k24": lambda: graphic(6, [(i, 2 + j) for i in range(2) for j in range(4)]),
    "k33": lambda: graphic(6, [(i, 3 + j) for i in range(3) for j in range(3)]),
    "k5": lambda: graphic(5, list(combinations(range(5), 2))),
    "w5": lambda: graphic(6, wheel(5)),
}
# |Aut M|; the vertex group of K(2,4) has order 48, its matroid's is 384
GROUP_ORDERS = {"k4": 24, "fano": 168, "vamos": 64, "k24": 384, "k33": 72,
                "k5": 120, "w5": 10}


@pytest.mark.parametrize("name", sorted(GROUP_ORDERS))
def test_generators_generate_the_oracle_group(name):
    m = FAMILIES[name]()
    group = generated_group(cv.automorphism_generators(m), m.n)
    assert group == set(automorphisms(m))
    assert len(group) == GROUP_ORDERS[name]


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
# families are mostly not matroids, and on at most 6 elements maps that keep
# every pair count but not the family are common
@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.one_of(small_specs(), permuted_explicit_specs(), explicit_families()))
def test_generators_map_the_family_onto_itself_and_generate_the_group(spec):
    m = cv.build_matroid(spec)
    generators = cv.automorphism_generators(m)
    for p in generators:
        assert sorted(p) == list(range(m.n)), spec
        assert {sum(1 << p[e] for e in cv.bits(b)) for b in m.bases} == m.bases, spec
    assert generated_group(generators, m.n) == set(automorphisms(m)), spec


# at most this many _is_automorphism calls per search: each family's count
# before the incidence round, except Fano, which made 162 then
LEAF_CHECKS = {"k4": 5, "fano": 8, "vamos": 6, "k24": 4, "k33": 3, "k5": 4, "w5": 2}


@pytest.mark.parametrize("name", sorted(LEAF_CHECKS))
def test_the_search_checks_few_leaves(name, monkeypatch):
    checked = []
    check = symmetry._is_automorphism

    def counted(perm, weights, bases):
        checked.append(perm)
        return check(perm, weights, bases)

    monkeypatch.setattr(symmetry, "_is_automorphism", counted)
    cv.automorphism_generators(FAMILIES[name]())
    assert len(checked) <= LEAF_CHECKS[name]


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
