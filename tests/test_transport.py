"""Exact optimal transport: solver values, oracles, and the certificate."""

import random
from fractions import Fraction
from functools import partial
from itertools import combinations

import pytest

import curvatroid as cv
from curvatroid import transport
from curvatroid.cli import main
from oracles import (FullProblem, as_transport_problem, coupling_cost, distance,
                     full_transport_problem, masses, min_cost_by_vertices,
                     network_simplex_value, set_difference_size, support)

F = Fraction


def kernels(m: cv.Matroid, s_labels, t_labels) -> tuple[cv.Distribution, cv.Distribution]:
    return (cv.transition_distribution(m, m.mask_from_labels(s_labels)),
            cv.transition_distribution(m, m.mask_from_labels(t_labels)))


def kernel_problem(m: cv.Matroid, s_labels, t_labels) -> cv.TransportProblem:
    return cv.TransportProblem.from_distance(*kernels(m, s_labels, t_labels))


def simplex_on_full_problem(full: FullProblem):
    return network_simplex_value(full.supply, full.demand, full.cost)


def product_coupling(mu: cv.Distribution, nu: cv.Distribution) -> dict:
    return {(x, y): p * q for x, p in masses(mu).items() for y, q in masses(nu).items()}


def perturb(c: dict, rng: random.Random) -> dict:
    """One random 2x2-cycle move; marginals are preserved exactly."""
    masses = dict(c)
    keys = list(masses)
    rows = sorted({x for x, _ in keys})
    cols = sorted({y for _, y in keys})
    for _ in range(20):
        x1, x2 = rng.sample(rows, 2) if len(rows) > 1 else (rows[0], rows[0])
        y1, y2 = rng.sample(cols, 2) if len(cols) > 1 else (cols[0], cols[0])
        if x1 == x2 or y1 == y2:
            break
        room = min(masses.get((x1, y1), F(0)), masses.get((x2, y2), F(0)))
        if room <= 0:
            continue
        delta = room * F(rng.randint(1, 4), 4)
        for key, sign in (((x1, y1), -1), ((x2, y2), -1),
                          ((x1, y2), 1), ((x2, y1), 1)):
            masses[key] = masses.get(key, F(0)) + sign * delta
        break
    return {k: q for k, q in masses.items() if q > 0}


# ── solved examples ─────────────────────────────────────────────────────────


def test_u42_adjacent_pair_value():
    m = cv.build_matroid(cv.UniformSpec(n=4, k=2))
    problem = kernel_problem(m, ["a", "b"], ["a", "c"])
    assert cv.wasserstein1(problem) == F(1, 3)


def test_equal_marginals_give_zero_and_identity():
    m = cv.build_matroid(cv.UniformSpec(n=4, k=2))
    d = partial(distance, m)
    mu = cv.transition_distribution(m, m.mask_from_labels(["a", "b"]))
    assert cv.wasserstein1(cv.TransportProblem.from_distance(mu, mu)) == 0
    identity = {(b, b): q for b, q in masses(mu).items()}
    assert coupling_cost(identity, masses(mu), masses(mu), d) == 0


def test_point_masses_move_the_graph_distance():
    m = cv.build_named("k4")
    d = partial(distance, m)
    x = m.mask_from_labels(["ab", "bc", "cd"])
    y = m.mask_from_labels(["ac", "bd", "da"])
    mu = cv.Distribution({x: 1}, 1)
    nu = cv.Distribution({y: 1}, 1)
    value = cv.wasserstein1(cv.TransportProblem.from_distance(mu, nu))
    assert value == d(x, y) > 0


def test_value_zero_iff_equal_marginals(test_set):
    m = test_set["u(2,5)"]
    order = m.sorted_bases()
    base = cv.transition_distribution(m, order[0])
    for other in order[:4]:
        nu = cv.transition_distribution(m, other)
        value = cv.wasserstein1(cv.TransportProblem.from_distance(base, nu))
        assert (value == 0) == (masses(base) == masses(nu))


def test_scale_invariance():
    m = cv.build_named("k4")
    mu, nu = kernels(m, ["ab", "bc", "cd"], ["ab", "cd", "da"])
    value = cv.wasserstein1(cv.TransportProblem.from_distance(mu, nu))
    full = full_transport_problem(mu, nu, lambda x, y: 7 * set_difference_size(x, y))
    scaled = cv.wasserstein1(as_transport_problem(full))
    assert scaled == 7 * value
    assert scaled == simplex_on_full_problem(full)


def test_unbalanced_marginals_rejected():
    m = cv.build_matroid(cv.UniformSpec(n=4, k=2))
    mu = cv.transition_distribution(m, m.mask_from_labels(["a", "b"]))
    # a point mass tampered down to total 1/2 past the Distribution checks
    half = tuple.__new__(cv.Distribution, ({m.mask_from_labels(["a", "b"]): 1}, 2))
    with pytest.raises(cv.UnbalancedMarginals):
        cv.wasserstein1(cv.TransportProblem.from_distance(mu, half))


# ── the coupling oracle ─────────────────────────────────────────────────────


def test_coupling_check_accepts_and_rejects():
    m = cv.build_matroid(cv.UniformSpec(n=4, k=2))
    d = partial(distance, m)
    mu_dist, nu_dist = kernels(m, ["a", "b"], ["a", "c"])
    problem = cv.TransportProblem.from_distance(mu_dist, nu_dist)
    mu, nu = masses(mu_dist), masses(nu_dist)
    product = product_coupling(mu_dist, nu_dist)
    want = sum((q * d(x, y) for (x, y), q in product.items()), F(0))
    assert coupling_cost(product, mu, nu, d) == want > cv.wasserstein1(problem)

    key = next(iter(product))
    tweaked = dict(product)
    tweaked[key] += F(1, 10**6)
    assert coupling_cost(tweaked, mu, nu, d) is None

    moved = perturb(product, random.Random(1))
    assert moved != product
    assert coupling_cost(moved, mu, nu, d) is not None

    # a 2x2 cycle pushed past the mass on hand keeps both marginals exact
    # but leaves a negative cell
    (x1, y1), (x2, y2) = sorted(product)[0], sorted(product)[-1]
    assert x1 != x2 and y1 != y2
    delta = product[(x1, y1)] + F(1, 100)
    negative = dict(product)
    for cell, sign in (((x1, y1), -1), ((x2, y2), -1), ((x1, y2), 1), ((x2, y1), 1)):
        negative[cell] += sign * delta
    assert coupling_cost(negative, mu, nu, d) is None


def test_random_couplings_never_beat_the_optimum():
    rng = random.Random(20250816)
    cases = [
        (cv.build_matroid(cv.UniformSpec(n=4, k=2)), ["a", "b"], ["a", "c"]),
        (cv.build_named("k4"), ["ab", "bc", "cd"], ["ab", "cd", "da"]),
    ]
    for m, s_labels, t_labels in cases:
        mu, nu = kernels(m, s_labels, t_labels)
        full = full_transport_problem(mu, nu)
        col_of = {y: j for j, y in enumerate(full.col_keys)}
        row_of = {x: i for i, x in enumerate(full.row_keys)}

        def dist(x, y):
            return full.cost[row_of[x]][col_of[y]]

        value = cv.wasserstein1(cv.TransportProblem.from_distance(mu, nu))
        coupling = product_coupling(mu, nu)
        for _ in range(50):
            coupling = perturb(coupling, rng)
            cost = coupling_cost(coupling, masses(mu), masses(nu), dist)
            assert cost is not None and cost >= value


# ── cross-checks against independent solvers ────────────────────────────────


def random_problem(rng: random.Random, size: int):
    rows = list(range(size))
    cols = list(range(100, 100 + size))
    supply = [1] * size
    demand = [1] * size
    for _ in range(rng.randint(0, 3 * size)):
        supply[rng.randrange(size)] += 1
        demand[rng.randrange(size)] += 1
    total = sum(supply)
    mu = cv.Distribution(dict(zip(rows, supply)), total)
    nu = cv.Distribution(dict(zip(cols, demand)), total)
    cost = {(r, c): rng.randint(0, 6) for r in rows for c in cols}
    return mu, nu, cost


def test_solver_matches_vertex_enumeration_and_simplex():
    rng = random.Random(7)
    for trial in range(40):
        size = rng.randint(2, 4)
        mu, nu, cost = random_problem(rng, size)
        full = full_transport_problem(mu, nu, lambda x, y: cost[(x, y)])
        value = cv.wasserstein1(as_transport_problem(full))
        assert value == min_cost_by_vertices(full.supply, full.demand, full.cost), trial
        assert value == simplex_on_full_problem(full), trial


def workload_shaped_problem(rng: random.Random, rows: int, cols: int):
    """Rank-4 subsets of 8 elements as points, cost min(3, |x - y|): a
    metric with values in {0, 1, 2, 3} and many ties, on overlapping
    supports, like the kernels of an adjacent basis pair."""
    points = [sum(1 << i for i in c) for c in combinations(range(8), 4)]
    pool = rng.sample(points, max(rows, cols) + rng.randint(0, min(rows, cols)))

    def spread(keys):
        weights = [rng.randint(1, 12) for _ in keys]
        return cv.Distribution(dict(zip(keys, weights)), sum(weights))

    mu = spread(rng.sample(pool, rows))
    nu = spread(rng.sample(pool, cols))
    return mu, nu, lambda x, y: min(3, (x & ~y).bit_count())


def test_solver_matches_simplex_on_workload_shaped_problems():
    rng = random.Random(2509)
    shapes = [(rng.randint(1, 20), rng.randint(1, 20)) for _ in range(40)] + [(31, 31)]
    for trial, (rows, cols) in enumerate(shapes):
        mu, nu, dist = workload_shaped_problem(rng, rows, cols)
        full = full_transport_problem(mu, nu, dist)
        value = cv.wasserstein1(as_transport_problem(full))
        assert value == simplex_on_full_problem(full), trial


def test_fix_common_mass_is_value_neutral(test_set):
    # the problem keeps only the residuals; networkx solves the full kernel
    # problem, shared mass included
    m = test_set["k4"]
    pairs = cv.canonical_pairs(m)[:6]
    for s, t in pairs:
        mu, nu = cv.transition_distribution(m, s), cv.transition_distribution(m, t)
        problem = cv.TransportProblem.from_distance(mu, nu)
        assert set(support(mu)) & set(support(nu))
        assert not set(problem.row_keys) & set(problem.col_keys)
        assert sum(problem.supply) == sum(problem.demand) < problem.scale
        assert cv.wasserstein1(problem) == simplex_on_full_problem(
            full_transport_problem(mu, nu))


def test_solver_is_deterministic():
    m = cv.build_named("k4")
    mu, nu = kernels(m, ["ab", "bc", "cd"], ["ab", "cd", "da"])
    problem = cv.TransportProblem.from_distance(mu, nu)
    value = cv.wasserstein1(problem)
    assert cv.wasserstein1(problem) == value
    # the same problem with both supports listed in reverse order
    reversed_problem = cv.TransportProblem(
        problem.row_keys[::-1], problem.col_keys[::-1], problem.supply[::-1],
        problem.demand[::-1], tuple(row[::-1] for row in problem.cost[::-1]),
        problem.scale)
    assert cv.wasserstein1(reversed_problem) == value
    # and the full problem, shared mass unfixed, with its supports reversed
    full = full_transport_problem(mu, nu)
    reversed_full = FullProblem(full.row_keys[::-1], full.col_keys[::-1],
                                full.supply[::-1], full.demand[::-1],
                                [row[::-1] for row in full.cost[::-1]])
    assert cv.wasserstein1(as_transport_problem(reversed_full)) == value


# ── optimality certificate ──────────────────────────────────────────────────


def certified_example():
    """Supplies (2, 1), demands (1, 2): the optimum ships 1 + 3 + 1 = 5, and
    the dual u = (0, -2), v = (1, 3) is tight on every cell used."""
    return [2, 1], [1, 2], [[1, 3], [2, 1]], {(0, 0): 1, (0, 1): 1, (1, 1): 1}, [0, -2], [1, 3]


def test_certificate_accepts_an_optimal_pair():
    assert cv.verify_transport_certificate(*certified_example()).ok


def test_certificate_rejects_tampering():
    supply, demand, cost, flow, u, v = certified_example()
    verify = cv.verify_transport_certificate

    result = verify(supply, demand, cost, flow, [1, -2], v)  # u_0 + v_0 = 2 > 1
    assert not result.ok and result.witness == ("dual", 0, 0)

    off_by_one = dict(flow)
    off_by_one[(1, 1)] += 1
    result = verify(supply, demand, cost, off_by_one, u, v)
    assert not result.ok and result.witness == ("row", 1)

    result = verify(supply, demand, cost, flow, [-1, -2], v)  # feasible, gap 2
    assert not result.ok and result.witness == ("gap", 5, 3)

    # row 0 feasible, row 1 violated at (1, 0) only: -3 + 6 = 3 > 2
    result = verify(supply, demand, cost, flow, [-5, -3], [6, 4])
    assert not result.ok and result.witness == ("dual", 1, 0)

    # two violations in row 1, the later one larger: 2 + 1 = 3 > 2 at
    # (1, 0) and 2 + 3 = 5 > 1 at (1, 1); the first in row-major order is named
    result = verify(supply, demand, cost, flow, [0, 2], v)
    assert not result.ok and result.witness == ("dual", 1, 0)

    # a dual of the wrong size names no cell
    assert verify(supply, demand, cost, flow, u, [1]) == (
        False, "dual has 2 x 1 entries for a 2 x 2 problem", ())

    # a negative entry, and one outside the table, before any sum is compared
    for cell, f in (((0, 1), -1), ((2, 0), 1), ((0, -1), 1)):
        result = verify(supply, demand, cost, {**flow, cell: f}, u, v)
        assert not result.ok and result.witness == ("cell", *cell)

    # every row ships its supply, but column 0 receives 2 for a demand of 1
    result = verify(supply, demand, cost, {(0, 0): 2, (1, 1): 1}, u, v)
    assert not result.ok and result.witness == ("column", 0)


def test_warm_start_fills_a_tight_problem_without_dijkstra(monkeypatch):
    # the column minima make both diagonal cells tight, and the direct fill
    # ships the whole problem along them before any Dijkstra
    def no_heap(*args):
        raise AssertionError("Dijkstra ran")

    monkeypatch.setattr(transport, "heappop", no_heap)
    monkeypatch.setattr(transport, "heappush", no_heap)
    flow, u, v = transport._solve_integer_transport([1, 2], [1, 2], [[3, 9], [9, 5]])
    assert flow == {(0, 0): 1, (1, 1): 2} and u == [0, 0] and v == [3, 5]


def test_failed_certificate_stops_the_solve(monkeypatch, capsys):
    solve = transport._solve_integer_transport

    def loose_dual(supply, demand, cost):
        flow, u, v = solve(supply, demand, cost)
        return flow, [x - 1 for x in u], v

    monkeypatch.setattr(transport, "_solve_integer_transport", loose_dual)
    problem = kernel_problem(cv.build_named("k4"), ["ab", "bc", "cd"], ["ab", "cd", "da"])
    with pytest.raises(cv.CurvatroidError, match="certificate"):
        cv.wasserstein1(problem)
    # the pair's bounds differ (7/18 and 4/9), so its report solves
    code = main(["pair", "--input", "named:k4", "--s", "ab,bc,cd", "--t", "ab,bc,da"])
    assert code == 1 and "duality gap" in capsys.readouterr().err
