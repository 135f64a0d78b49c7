"""Property checks of the curvature sandwich and the exact W1 route on
random small matroids.

Each example is a uniform, graphic or linear matroid on at most 7 elements.
On every adjacent pair the exact curvature must lie between the larger of
the two lower bounds (the global theorem bound and the pair's down-step
bound) and the pair's theorem upper bound, and the exact global report must
be the minimum of the per-pair values at the first canonical pair reaching
it, as the unpruned sweep oracle finds too. Every integer kernel row must
equal the Fraction row built from the walk's definition, and W1 between the
rows of random basis pairs, at any distance, must equal networkx on the full
unreduced problem.
"""

from fractions import Fraction

import pytest

import curvatroid as cv
from oracles import (
    fraction_kernel,
    full_transport_problem,
    network_simplex_value,
    unpruned_global_curvature,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def small_specs(draw):
    kind = draw(st.sampled_from(("uniform", "graphic", "linear")))
    if kind == "uniform":
        n = draw(st.integers(2, 7))
        return cv.UniformSpec(n=n, k=draw(st.integers(1, n - 1)))
    if kind == "graphic":
        v = draw(st.integers(2, 5))
        ends = draw(st.lists(st.tuples(st.integers(0, v - 1), st.integers(0, v - 1)),
                             min_size=1, max_size=7))
        hypothesis.assume(any(a != b for a, b in ends))
        return cv.GraphicSpec(vertex_count=v,
                              edges=tuple((a, b, f"e{i}") for i, (a, b) in enumerate(ends)))
    height = draw(st.integers(1, 4))
    width = draw(st.integers(2, 7))
    matrix = draw(st.lists(st.lists(st.integers(-2, 2).map(Fraction),
                                    min_size=width, max_size=width),
                           min_size=height, max_size=height))
    hypothesis.assume(any(any(row) for row in matrix))
    return cv.LinearSpec(matrix=tuple(map(tuple, matrix)))


@hypothesis.settings(max_examples=120, deadline=None, derandomize=True, database=None)
@hypothesis.given(small_specs())
def test_exact_curvature_is_sandwiched_on_every_pair(spec):
    m = cv.build_matroid(spec)
    hypothesis.assume(m.rank < m.n)
    global_lb = cv.theorem_lb_global(m.rank, m.n)
    pairs = cv.canonical_pairs(m)
    kappas = []
    for x, y in pairs:
        frame = cv.make_pair_frame(m, x, y)
        witness = cv.compute_pair_witness(m, frame)
        kappa = cv.exact_pair_curvature(m, frame)
        lb = max(global_lb, cv.downstep_lb_pair(m, frame, witness))
        assert lb <= kappa <= cv.theorem_ub_pair(m, frame, witness), (spec, x, y)
        kappas.append(kappa)
    kappa = min(kappas, default=Fraction(1))
    first = next((p for p, value in zip(pairs, kappas) if value == kappa), None)
    report = cv.global_curvature(m, exact=True)
    assert (report.kappa_exact, report.argmin_pair) == (kappa, first), spec
    assert unpruned_global_curvature(m) == (kappa, first), spec


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(small_specs(), st.data())
def test_integer_kernels_and_w1_match_the_oracles(spec, data):
    m = cv.build_matroid(spec)
    g = cv.basis_graph(m)
    order = m.sorted_bases()
    for s in order:
        assert g.kernel(s).masses == fraction_kernel(m, s), (spec, s)
    for _ in range(4):
        x = data.draw(st.sampled_from(order))
        y = data.draw(st.sampled_from(order))
        mu, nu = g.kernel(x), g.kernel(y)
        value = cv.wasserstein1(cv.TransportProblem.from_distance(mu, nu, g.distance))
        full = full_transport_problem(mu, nu)
        assert value == network_simplex_value(full.supply, full.demand, full.cost), \
            (spec, x, y)
