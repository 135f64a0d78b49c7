"""Down-up walk kernel, basis graph, and induced metric."""

import gc
import weakref
from fractions import Fraction
from types import MappingProxyType

import pytest

import curvatroid as cv
from curvatroid import matroid
from curvatroid.walk import exchange_distance
from oracles import (bfs_distances, distance, exchange_neighborhood, items_sorted,
                     mass, masses, quadratic_adjacent_pairs, support)

F = Fraction


def adjacency_of(m: cv.Matroid) -> dict[int, list[int]]:
    """Exchange-graph adjacency by the quadratic definition."""
    adj: dict[int, list[int]] = {b: [] for b in m.bases}
    for x, y in quadratic_adjacent_pairs(m.bases):
        adj[x].append(y)
        adj[y].append(x)
    return adj


def assert_distances_match_bfs(m: cv.Matroid, name: str) -> None:
    """exchange_distance against BFS and |X - Y| on every basis pair."""
    adj = adjacency_of(m)
    for src in m.sorted_bases():
        want = bfs_distances(adj, src)
        assert set(want) == m.bases, name  # the exchange graph is connected
        for dst in m.sorted_bases():
            assert exchange_distance(src, dst) == want[dst] == (src & ~dst).bit_count(), \
                name


# ── transition kernel ───────────────────────────────────────────────────────


def test_kernel_u42():
    m = cv.build_matroid(cv.UniformSpec(n=4, k=2))
    s = m.mask_from_labels(["a", "b"])
    p = cv.transition_distribution(m, s)
    assert mass(p, s) == F(1, 3)
    for pair in (("b", "c"), ("b", "d"), ("a", "c"), ("a", "d")):
        assert mass(p, m.mask_from_labels(pair)) == F(1, 6)
    assert mass(p, m.mask_from_labels(["c", "d"])) == 0
    assert len(support(p)) == 5


def test_kernel_k4_path_tree_columns():
    # the path a-b-c-d: dropping an end edge leaves a 3-completion hole,
    # dropping the middle edge a 4-completion hole
    m = cv.build_named("k4")
    s = m.mask_from_labels(["ab", "bc", "cd"])
    p = cv.transition_distribution(m, s)
    assert mass(p, s) == F(11, 36)
    off_diagonal = sorted(mass for b, mass in items_sorted(p) if b != s)
    assert off_diagonal == [F(1, 12)] * 3 + [F(1, 9)] * 4
    assert mass(p, m.mask_from_labels(["ab", "cd", "da"])) == F(1, 12)
    assert mass(p, m.mask_from_labels(["ac", "bc", "cd"])) == F(1, 9)


def test_kernel_self_loop_formula(test_set):
    for name, m in test_set.items():
        if m.n > 6:
            continue
        k = m.rank
        for s in m.sorted_bases():
            p = cv.transition_distribution(m, s)
            lazy = sum((F(1, k * exchange_neighborhood(m, s, u).bit_count())
                        for u in cv.bits(s)), F(0))
            assert mass(p, s) == lazy > 0, name


def test_kernel_sums_to_one_and_support_radius(test_set):
    for name, m in test_set.items():
        if len(m.bases) > 100:
            continue
        for s in m.sorted_bases():
            p = cv.transition_distribution(m, s)
            assert sum(mass for _, mass in items_sorted(p)) == 1
            for b in support(p):
                assert distance(m, s, b) <= 1, name


def test_kernel_symmetric_and_doubly_stochastic():
    for name in ("u(4,2)", "k4", "fano"):
        m = (cv.build_matroid(cv.UniformSpec(n=4, k=2)) if name == "u(4,2)"
             else cv.build_named(name))
        order = m.sorted_bases()
        kernels = {b: cv.transition_distribution(m, b) for b in order}
        for x in order:
            for y in order:
                assert mass(kernels[x], y) == mass(kernels[y], x)
        for y in order:
            assert sum((mass(kernels[x], y) for x in order), F(0)) == 1


def test_kernel_rejects_non_basis():
    m = cv.build_matroid(cv.UniformSpec(n=4, k=2))
    with pytest.raises(cv.NotABasis):
        cv.transition_distribution(m, m.mask_from_labels(["a", "b", "c"]))


def test_distribution_invariants():
    # weights over a denominator: masses 1/2, 0, 1/2 and 1/2, 1/3
    with pytest.raises(ValueError):
        cv.Distribution(MappingProxyType({1: 1, 2: 0, 4: 1}), 2)
    with pytest.raises(ValueError):
        cv.Distribution(MappingProxyType({1: 3, 2: 2}), 6)
    # weights and denominator are ints: no float or Fraction masses
    for weights, denominator in (({1: 0.5, 2: 0.5}, 1), ({1: F(1, 2), 2: F(1, 2)}, 1),
                                 ({1: 1}, 1.0)):
        with pytest.raises(ValueError, match="ints"):
            cv.Distribution(weights, denominator)
    d = cv.Distribution(MappingProxyType({4: 1, 1: 1}), 2)
    assert support(d) == [1, 4]
    assert mass(d, 2) == 0
    assert mass(d, 4) == F(1, 2) and masses(d) == {1: F(1, 2), 4: F(1, 2)}
    assert masses(d) == masses(cv.Distribution({1: 3, 4: 3}, 6))


# ── basis graph distances ───────────────────────────────────────────────────


def test_distance_u42():
    m = cv.build_matroid(cv.UniformSpec(n=4, k=2))
    ab = m.mask_from_labels(["a", "b"])
    cd = m.mask_from_labels(["c", "d"])
    assert exchange_distance(ab, ab) == 0
    assert exchange_distance(ab, cd) == 2
    assert max(exchange_distance(x, y) for x in m.bases for y in m.bases) == 2


def test_distance_matches_bfs_oracle():
    for name in ("k4", "fano", "vamos", "rank3-counterexample"):
        assert_distances_match_bfs(cv.build_named(name), name)


def test_distance_matrix_consistency():
    # one full row: BFS reaches every basis, each at exchange_distance
    m = cv.build_named("k4")
    src = m.mask_from_labels(["ab", "bc", "cd"])
    want = bfs_distances(adjacency_of(m), src)
    assert set(want) == m.bases
    assert {dst: exchange_distance(src, dst) for dst in m.bases} == want


def test_distance_formula_verified(test_set):
    for name, m in test_set.items():
        if m.n > 10:
            continue
        assert_distances_match_bfs(m, name)


def test_distance_is_a_metric():
    for name in ("u(4,2)", "k4", "fano"):
        m = (cv.build_matroid(cv.UniformSpec(n=4, k=2)) if name == "u(4,2)"
             else cv.build_named(name))
        d = exchange_distance
        order = m.sorted_bases()
        for x in order:
            for y in order:
                assert (d(x, y) == 0) == (x == y)
                assert d(x, y) == d(y, x)
                for z in order:
                    assert d(x, z) <= d(x, y) + d(y, z), name


def test_distance_rejects_non_basis():
    # the oracle distance refuses a set outside the family, so the support
    # radius check above fails on a kernel that puts mass off the bases
    m = cv.build_matroid(cv.UniformSpec(n=4, k=2))
    ab = m.mask_from_labels(["a", "b"])
    abc = m.mask_from_labels(["a", "b", "c"])
    with pytest.raises(cv.NotABasis):
        distance(m, ab, abc)
    with pytest.raises(cv.NotABasis):
        distance(m, abc, ab)


def explicit(ground: str, *bases: str) -> cv.Matroid:
    return cv.build_matroid(cv.ExplicitSpec(ground=tuple(ground),
                                            bases=tuple(tuple(b) for b in bases)))


def test_basis_graph_rejects_non_matroid():
    # ab - ac and de - df are adjacent, but nothing exchanges ab towards de
    m = explicit("abcdef", "ab", "ac", "de", "df")
    with pytest.raises(cv.NotAMatroid, match=r"'a' dropped from \('a', 'b'\)"):
        cv.basis_graph(m)
    with pytest.raises(cv.NotAMatroid):
        cv.exact_pair_curvature(m, cv.make_pair_frame(
            m, m.mask_from_labels("ab"), m.mask_from_labels("ac")))
    with pytest.raises(cv.NotAMatroid):
        cv.downstep_coupling_table(m, cv.make_pair_frame(
            m, m.mask_from_labels("ab"), m.mask_from_labels("ac")))
    # the bounds are theorems about matroids: bounds-only runs are gated too
    with pytest.raises(cv.NotAMatroid, match=r"'a' dropped from \('a', 'b'\)"):
        cv.global_curvature(m, exact=False)


def test_exchange_axiom_is_checked_once_and_only_for_explicit_families(monkeypatch):
    calls = []
    validate = matroid.validate_exchange_axiom

    def counted(m):
        calls.append(m.origin)
        return validate(m)

    monkeypatch.setattr(matroid, "validate_exchange_axiom", counted)
    for m in (cv.build_matroid(cv.UniformSpec(n=5, k=2)), cv.build_named("k4"),
              cv.build_matroid(cv.LinearSpec(matrix=((F(1), F(0), F(1)),
                                                     (F(0), F(1), F(1)))))):
        cv.global_curvature(m, exact=False)
        cv.global_curvature(m)
        cv.basis_graph(m)
    assert calls == []
    # an explicit family is validated by its first curvature call, bounds-only
    # included, and never again
    for m in (cv.build_named("fano"), explicit("abcdef", "ab", "ac", "de", "df")):
        for run in (lambda: cv.global_curvature(m, exact=False),
                    lambda: cv.global_curvature(m, exact=False),
                    lambda: cv.global_curvature(m), m.require_matroid):
            try:
                run()
            except cv.NotAMatroid:
                pass
            assert calls == [m.origin]
        calls.clear()


def test_rank3_one_sided_adds_sit_at_distance_two():
    # swapping the crossing drop for an S-only add and the T side for any
    # other completion lands exactly two exchanges apart
    m = cv.build_named("rank3-counterexample")
    s_mask = m.mask_from_labels(["s", "u", "u'"])
    t_mask = m.mask_from_labels(["t", "u", "u'"])
    frame = cv.make_pair_frame(m, s_mask, t_mask)
    witness = cv.compute_pair_witness(m, frame)
    assert witness, "both shared elements should cross"
    checked = 0
    for entry in witness:
        hole_s = s_mask ^ (1 << entry.drop)
        hole_t = t_mask ^ (1 << entry.drop)
        for x in cv.bits(entry.s_only_adds):
            for y in cv.bits(exchange_neighborhood(m, t_mask, entry.drop)):
                if y == frame.s_elem or y == x:
                    continue
                assert distance(m, hole_s | (1 << x), hole_t | (1 << y)) == 2
                checked += 1
    # two crossing drops; 5 one-sided adds each; 6 partners each (the
    # 7-element completion set minus the excluded s)
    assert checked == 2 * 5 * 6


def test_curvature_calls_keep_no_reference_to_the_matroid():
    # no process-wide cache: once the caller drops the matroid it is freed,
    # with its tables and kernels
    m = cv.build_named("k4")
    s, t = (m.mask_from_labels(p) for p in cv.DISTINGUISHED_PAIRS["k4"])
    cv.compute_pair_report(m, s, t)
    cv.global_curvature(m)
    cv.global_curvature(m, audit_all_pairs=True)
    dead = weakref.ref(m)
    del m
    gc.collect()
    assert dead() is None
