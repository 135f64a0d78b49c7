"""End-to-end acceptance checks, one test per shipped claim.

Each test is self-contained enough to read as a statement of the claim it
verifies; all comparisons are exact rational equalities or inequalities,
never tolerances. Timed claims build their matroids fresh so the clock
covers construction as well as the computation.
"""

import time
from fractions import Fraction
from functools import partial

import curvatroid as cv
from curvatroid.walk import exchange_distance
from oracles import (
    bfs_distances,
    cell_masses,
    coupling_cost,
    distance,
    exchange_neighborhood,
    fraction_cells,
    mass,
    masses,
    min_cost_by_vertices,
    quadratic_adjacent_pairs,
    rank3_counterexample_linear_spec,
    support,
)

F = Fraction


def distinguished_frame(m: cv.Matroid, name: str) -> cv.PairFrame:
    s_labels, t_labels = cv.DISTINGUISHED_PAIRS[name]
    return cv.make_pair_frame(m, m.mask_from_labels(s_labels),
                              m.mask_from_labels(t_labels))


def test_criterion_01_rank3_negative_curvature():
    start = time.perf_counter()
    m = cv.build_named("rank3-counterexample")
    frame = distinguished_frame(m, "rank3-counterexample")
    assert cv.theorem_ub_pair(m, frame) == F(-1, 21)
    assert cv.exact_pair_curvature(m, frame) <= F(-1, 21)
    report = cv.global_curvature(m, exact=True)
    assert report.kappa_exact < 0
    assert report.kappa_exact == F(-1, 21)
    elapsed = time.perf_counter() - start
    assert elapsed < 10, f"took {elapsed:.1f}s"


def test_criterion_02_k6_negative_curvature():
    start = time.perf_counter()
    m = cv.build_named("k6")
    frame = distinguished_frame(m, "k6")
    witness = cv.compute_pair_witness(m, frame)
    by_label = {m.labels[e.drop]: e for e in witness}
    table = [by_label[label] for label in ("1", "2", "3", "4")]
    assert tuple(e.ns_size for e in table) == (8, 5, 5, 8)
    assert tuple(e.nt_size for e in table) == (5, 8, 8, 5)
    assert tuple(e.s_only_adds.bit_count() for e in table) == (5, 2, 2, 5)
    assert cv.theorem_ub_pair(m, frame) == F(-2, 25)
    kappa = cv.exact_pair_curvature(m, frame)
    assert kappa <= F(-2, 25)
    assert kappa == F(-11, 100)
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"took {elapsed:.1f}s"


def test_criterion_03_global_lower_bound_holds_on_test_set(sweep):
    checked = 0
    for name, data in sweep.items():
        m = data.matroid
        if m.rank == m.n:
            continue  # the bound's formula needs rank < n
        bound = cv.theorem_lb_global(m.rank, m.n)
        assert data.report.theorem_lb == bound, name
        assert bound <= data.report.kappa_exact, name
        checked += 1
    assert checked == 48  # 21 uniforms, 23 cyclic graphs, 4 catalog entries


def test_criterion_04_uniform_pair_bound_formula(sweep):
    for k, n in ((2, 4), (2, 5), (3, 5), (3, 6), (3, 7), (4, 7)):
        data = sweep[f"u({k},{n})"]
        want = 1 - F((k - 1) * (n - k), k * (n - k + 1))
        assert data.pairs, (k, n)
        for pair in data.pairs:
            assert pair.lb == want, (k, n)
    u24 = sweep["u(2,4)"].report
    assert u24.kappa_exact == F(2, 3)
    assert u24.downstep_lb == u24.theorem_ub == F(2, 3)


def test_criterion_05_vamos_positive(sweep):
    data = sweep["vamos"]
    assert data.report.kappa_exact > 0
    assert data.report.kappa_exact == F(23, 80)
    m = data.matroid
    sizes = {exchange_neighborhood(m, b, u).bit_count()
             for b in m.bases for u in cv.bits(b)}
    assert sizes == {4, 5}


def test_criterion_06_small_cases_nonnegative(sweep):
    for name, data in sweep.items():
        m = data.matroid
        if m.n <= 7:
            assert data.report.kappa_exact >= 0, name
        if m.rank == 2:
            assert data.report.kappa_exact > 0, name
        if name.startswith("graph"):
            assert data.report.kappa_exact > 0, name


def test_criterion_07_edge_disjoint_cycle_graphs_positive():
    shapes = {
        "two triangles sharing a vertex": cv.GraphicSpec(
            vertex_count=5,
            edges=((0, 1, "a"), (1, 2, "b"), (0, 2, "c"),
                   (0, 3, "d"), (3, 4, "e"), (0, 4, "f"))),
        "triangle with a pendant edge": cv.GraphicSpec(
            vertex_count=4,
            edges=((0, 1, "a"), (1, 2, "b"), (0, 2, "c"), (2, 3, "d"))),
        "two triangles joined by a bridge": cv.GraphicSpec(
            vertex_count=6,
            edges=((0, 1, "a"), (1, 2, "b"), (0, 2, "c"),
                   (3, 4, "d"), (4, 5, "e"), (3, 5, "f"), (2, 3, "g"))),
    }
    for shape, spec in shapes.items():
        report = cv.global_curvature(cv.build_matroid(spec), exact=True)
        assert not report.degenerate, shape
        assert report.kappa_exact > 0, shape


def test_criterion_08_k4_coupling_reproduction():
    m = cv.build_named("k4")
    frame = distinguished_frame(m, "k4")
    table = cv.downstep_coupling_table(m, frame)
    cells = fraction_cells(table.cells)
    assert sorted(cell.mass for cell in cells) == sorted(
        [F(1, 9)] * 6 + [F(1, 12)] * 3 + [F(1, 36)] * 3)
    lb = cv.downstep_lb_pair(m, frame)
    g = cv.basis_graph(m)
    assert coupling_cost(cell_masses(cells), masses(g[frame.s_basis]),
                         masses(g[frame.t_basis]), partial(distance, m)) == 1 - lb
    assert table.expected_distance() == 1 - lb == F(23, 36)


def test_criterion_09_sandwich_and_coupling_identity(sweep):
    pair_total = 0
    for name, data in sweep.items():
        for pair in data.pairs:
            assert pair.lb <= pair.kappa <= min(pair.ub_forward,
                                                pair.ub_reverse), name
            assert pair.coupling_cost == pair.expected_distance == 1 - pair.lb, name
            pair_total += 1
    assert pair_total > 1000


def test_criterion_10_transport_and_distance_oracles(sweep):
    # independent vertex-enumeration optimum on every transport problem from
    # a U(2,4) or K4 pair whose off-diagonal part fits in a 4x4 grid
    oracled = 0
    for name in ("u(2,4)", "k4"):
        m = sweep[name].matroid
        for x, y in cv.canonical_pairs(m):
            mu = cv.transition_distribution(m, x)
            nu = cv.transition_distribution(m, y)
            problem = cv.TransportProblem.from_distance(mu, nu, partial(distance, m))
            value = cv.wasserstein1(problem)

            rows = [b for b in support(mu) if mass(mu, b) > mass(nu, b)]
            cols = [b for b in support(nu) if mass(nu, b) > mass(mu, b)]
            if len(rows) > 4 or len(cols) > 4:
                continue
            supply = [mass(mu, b) - mass(nu, b) for b in rows]
            demand = [mass(nu, b) - mass(mu, b) for b in cols]
            grid = [[distance(m, r, c) for c in cols] for r in rows]
            assert value == min_cost_by_vertices(supply, demand, grid), name
            oracled += 1
    assert oracled >= 30

    # the served distance equals BFS on the exchange graph, and the
    # symmetric-difference count, on every basis pair
    for name, data in sweep.items():
        m = data.matroid
        if m.n > 10:
            continue
        adj = {b: [] for b in m.bases}
        for x, y in quadratic_adjacent_pairs(m.bases):
            adj[x].append(y)
            adj[y].append(x)
        order = m.sorted_bases()
        for x in order:
            row = bfs_distances(adj, x)
            for y in order:
                assert exchange_distance(x, y) == row[y] == (x & ~y).bit_count(), name


def test_criterion_11_rank3_representations_agree():
    explicit = cv.build_named("rank3-counterexample")
    linear = cv.build_matroid(rank3_counterexample_linear_spec())
    assert explicit.labels == linear.labels
    assert len(explicit.bases) == len(linear.bases) == 84
    assert explicit.bases == linear.bases
    assert explicit.origin_hash() == linear.origin_hash()
