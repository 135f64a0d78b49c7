"""Property checks of the transport solver against networkx min-cost flow."""

import pytest

import curvatroid as cv
from oracles import as_transport_problem, full_transport_problem, network_simplex_value

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def transport_problems(draw):
    """Marginals with unrelated denominators and costs in 0..6; rows and
    columns have disjoint keys, so nothing is fixed on a diagonal."""
    rows = draw(st.integers(1, 8))
    cols = draw(st.integers(1, 8))
    weights = st.integers(1, 9)
    row_w = draw(st.lists(weights, min_size=rows, max_size=rows))
    col_w = draw(st.lists(weights, min_size=cols, max_size=cols))
    cost = draw(st.lists(st.lists(st.integers(0, 6), min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    mu = cv.Distribution(dict(enumerate(row_w)), sum(row_w))
    nu = cv.Distribution({100 + j: w for j, w in enumerate(col_w)}, sum(col_w))
    return mu, nu, cost


def assert_matches_network_simplex(mu, nu, cost):
    def dist(x, y):
        return cost[x][y - 100]

    full = full_transport_problem(mu, nu, dist)
    value = cv.wasserstein1(as_transport_problem(full))
    assert value == network_simplex_value(full.supply, full.demand, full.cost)


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(transport_problems())
def test_solver_matches_network_simplex(case):
    assert_matches_network_simplex(*case)


@st.composite
def wide_cost_problems(draw):
    """Up to 12 x 12 cells with costs in 0..10**6, where a column may hold
    one repeated cost or only zeros: the warm start's column minima then lie
    far from zero and tie across whole columns."""
    rows = draw(st.integers(1, 12))
    cols = draw(st.integers(1, 12))
    weights = st.integers(1, 50)
    row_w = draw(st.lists(weights, min_size=rows, max_size=rows))
    col_w = draw(st.lists(weights, min_size=cols, max_size=cols))
    costs = st.integers(0, 10**6)
    columns = []
    for _ in range(cols):
        kind = draw(st.sampled_from(["free", "equal", "zero"]))
        if kind == "free":
            columns.append(draw(st.lists(costs, min_size=rows, max_size=rows)))
        else:
            columns.append([draw(costs) if kind == "equal" else 0] * rows)
    mu = cv.Distribution(dict(enumerate(row_w)), sum(row_w))
    nu = cv.Distribution({100 + j: w for j, w in enumerate(col_w)}, sum(col_w))
    return mu, nu, [list(row) for row in zip(*columns)]


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(wide_cost_problems())
def test_solver_matches_network_simplex_on_wide_costs(case):
    assert_matches_network_simplex(*case)
