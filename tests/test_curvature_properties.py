"""Property checks of the curvature sandwich and the exact W1 route on
random small matroids.

Each example is a uniform, graphic or linear matroid on at most 7 elements;
the sandwich and subgroup checks also take it rewritten as an explicit
family over a permuted ground set. On every adjacent pair the exact
curvature must lie between the larger of the two lower bounds (the global
theorem bound and the pair's down-step bound) and the pair's theorem upper
bound, and the exact global report must
be the minimum of the per-pair values at the first canonical pair reaching
it, as the unpruned sweep oracle finds too. With the automorphism search
off, the pruned sweep must solve exactly the pairs, in order, that the
oracle's walk over the Fraction bounds visits with unequal bounds. The
automorphism group, its first generator alone and no generators must give
the same exact report, and the whole group must never solve more pairs
than no group. Every integer kernel row must equal the Fraction row built
from the walk's definition, and W1 between the rows of random basis pairs, at any distance, must equal networkx on the full
unreduced problem. The integer closed-form bounds must equal their Fraction
oracles on every adjacent pair in both orientations, and the coupling's
integer expected distance must equal the Fraction sum over its cells.
Every completion-table group R must list its pairs (R + a, R + b), a < b,
in canonical orientation, and canonical_pairs must equal the quadratic
definition, also on random explicit families that are not matroids. Reads
of single completion sets and pair and coupling reports before the sweep
fills the completion-set store change its key order, and the sweep in both
modes and the exchange-axiom check must still print what they print on a
fresh matroid. On random adjacent pairs the coupling table's cells and
expected distance, and its report object, JSON and CSV with and without
decimals, must equal the route that builds one Fraction per cell.
"""

import json
from fractions import Fraction
from itertools import combinations

import pytest

import curvatroid as cv
from curvatroid import curvature
from curvatroid.fileio import (coupling_table_to_obj, global_report_to_obj,
                               pair_report_to_obj, render_csv, render_json,
                               report_to_csv_rows, validation_to_obj)
from oracles import (
    explicit_families,
    fraction_cells,
    fraction_coupling_cells,
    fraction_coupling_report,
    fraction_downstep_lb,
    fraction_kernel,
    fraction_theorem_ub_values,
    full_transport_problem,
    masses,
    network_simplex_value,
    permuted_explicit_specs,
    pruned_solve_order,
    quadratic_adjacent_pairs,
    small_specs,
    sorted_index_pairs,
    unpruned_global_curvature,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(max_examples=120, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.one_of(small_specs(), permuted_explicit_specs()))
def test_exact_curvature_is_sandwiched_on_every_pair(spec):
    m = cv.build_matroid(spec)
    hypothesis.assume(m.rank < m.n)
    global_lb = cv.theorem_lb_global(m.rank, m.n)
    pairs = cv.canonical_pairs(m)
    kappas = []
    for x, y in pairs:
        frame = cv.PairFrame(x, y)
        kappa = cv.exact_pair_curvature(m, frame)
        lb = max(global_lb, cv.downstep_lb_pair(m, frame))
        assert lb <= kappa <= cv.theorem_ub_pair(m, frame), (spec, x, y)
        kappas.append(kappa)
    kappa = min(kappas, default=Fraction(1))
    first = next((p for p, value in zip(pairs, kappas) if value == kappa), None)
    report = cv.global_curvature(m, exact=True)
    assert (report.kappa_exact, report.argmin_pair) == (kappa, first), spec
    assert unpruned_global_curvature(m) == (kappa, first), spec


# a triangle 0-1-2 with 1-2 doubled and a vertex 3 joined to 1 and 2: four
# pairs after the argmin have downstepLB == kappa and unequal bounds, so only
# the tie stop keeps the walk from solving them
TIE_STOP = cv.GraphicSpec(vertex_count=4, edges=(
    (3, 2, "e0"), (0, 1, "e1"), (1, 2, "e2"), (0, 2, "e3"), (1, 2, "e4"), (1, 3, "e5")))


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(small_specs())
@hypothesis.example(TIE_STOP)
def test_pruned_sweep_solves_the_oracle_visit_list(spec):
    m = cv.build_matroid(spec)
    solved = []
    exact = curvature.exact_pair_curvature

    def counted(m, frame):
        solved.append((frame.s_basis, frame.t_basis))
        return exact(m, frame)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(curvature, "automorphism_generators", lambda m: ())
        patch.setattr(curvature, "exact_pair_curvature", counted)
        cv.global_curvature(m)
    assert solved == pruned_solve_order(m), spec


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.one_of(small_specs(), permuted_explicit_specs()))
@hypothesis.example(TIE_STOP)
def test_exact_report_is_the_same_under_any_subgroup(spec):
    m = cv.build_matroid(spec)
    search = curvature.automorphism_generators
    runs = []
    for generators in (search, lambda m: search(m)[:1], lambda m: ()):
        solved = []
        exact = curvature.exact_pair_curvature

        def counted(m, frame):
            solved.append((frame.s_basis, frame.t_basis))
            return exact(m, frame)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(curvature, "automorphism_generators", generators)
            patch.setattr(curvature, "exact_pair_curvature", counted)
            runs.append((cv.global_curvature(m), solved))
    (report, solved), *subgroups = runs
    for sub_report, _ in subgroups:
        assert sub_report == report, spec
    assert len(solved) <= len(subgroups[-1][1]), spec
    assert subgroups[-1][1] == pruned_solve_order(m), spec


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(small_specs(), st.data())
def test_integer_kernels_and_w1_match_the_oracles(spec, data):
    m = cv.build_matroid(spec)
    g = cv.basis_graph(m)
    order = m.sorted_bases()
    for s in order:
        assert masses(g[s]) == fraction_kernel(m, s), (spec, s)
    for _ in range(4):
        x = data.draw(st.sampled_from(order))
        y = data.draw(st.sampled_from(order))
        mu, nu = g[x], g[y]
        value = cv.wasserstein1(cv.TransportProblem.from_distance(mu, nu))
        full = full_transport_problem(mu, nu)
        assert value == network_simplex_value(full.supply, full.demand, full.cost), \
            (spec, x, y)


def assert_integer_bounds_match_the_oracles(m, label):
    """Both orientations of every adjacent pair: the integer bounds equal
    the Fraction closed forms, and the integer expected distance of the
    down-step coupling equals the Fraction sum over its cells."""
    for x, y in cv.canonical_pairs(m):
        for s, t in ((x, y), (y, x)):
            frame = cv.PairFrame(s, t)
            witness = cv.compute_pair_witness(m, frame)
            ub = fraction_theorem_ub_values(m, frame, witness)
            lb = fraction_downstep_lb(m, frame, witness)
            where = (label, s, t)
            assert cv.theorem_ub_values(m, frame) == ub, where
            assert cv.theorem_ub_pair(m, frame) == min(ub), where
            assert cv.downstep_lb_pair(m, frame) == lb, where
            cells = fraction_coupling_cells(m, frame)
            assert 1 - lb == sum((c.mass * c.distance for c in cells), Fraction(0)) == \
                cv.downstep_coupling_table(m, frame).expected_distance(), where


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.one_of(small_specs(), explicit_families()))
def test_completion_groups_hold_canonically_oriented_pairs(spec):
    m = cv.build_matroid(spec)
    position = {b: i for i, b in enumerate(m.sorted_bases())}
    for rest, members in m._completion_table().items():
        for a, b in combinations(cv.bits(members), 2):
            assert position[rest | 1 << a] < position[rest | 1 << b], (spec, rest, a, b)
    pairs = cv.canonical_pairs(m)
    assert pairs == sorted_index_pairs(quadratic_adjacent_pairs(m.bases)), spec
    if cv.validate_exchange_axiom(m).ok:
        assert cv.global_curvature(m, exact=False).pair_count == len(pairs), spec


def whole_family_text(m):
    """global_curvature in both modes and validate_exchange_axiom, rendered
    as their reports, or the error text of a family that is not a matroid."""
    out = []
    for exact in (False, True):
        try:
            out.append(render_json(global_report_to_obj(m, cv.global_curvature(m, exact))))
        except cv.NotAMatroid as err:
            out.append(str(err))
    return "".join(out) + render_json(validation_to_obj(m, cv.validate_exchange_axiom(m)))


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.one_of(small_specs(), explicit_families()), st.data())
def test_whole_family_passes_ignore_the_completion_key_order(spec, data):
    m = cv.build_matroid(spec)
    scanned = cv.build_matroid(spec)
    keys = data.draw(st.permutations(sorted(scanned._completion_table())))
    for key in keys[:data.draw(st.integers(0, len(keys)))]:
        m._completions[key]
    pairs = cv.canonical_pairs(scanned)
    for x, y in data.draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else ():
        try:
            render_json(pair_report_to_obj(m, cv.compute_pair_report(m, cv.PairFrame(x, y))))
            table = cv.downstep_coupling_table(m, cv.PairFrame(y, x))
            render_json(coupling_table_to_obj(m, table))
        except cv.NotAMatroid:
            pass
    assert whole_family_text(m) == whole_family_text(cv.build_matroid(spec)), spec


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(small_specs())
def test_integer_bounds_match_the_oracles(spec):
    assert_integer_bounds_match_the_oracles(cv.build_matroid(spec), spec)


# a loop, a triangle with one doubled edge, and a pendant edge (a coloop)
LOOP_AND_COLOOP = cv.GraphicSpec(vertex_count=4, edges=(
    (0, 0, "loop"), (0, 1, "a"), (1, 2, "b"), (2, 0, "c"), (1, 2, "b2"), (2, 3, "bridge")))


def test_integer_bounds_match_the_oracles_on_the_test_set(test_set):
    """The conftest set (every uniform matroid with n <= 7, n = k + 1
    included; graphs on 2..4 vertices, whose bridges are coloops; the
    catalog) and a graph with a loop, a coloop and parallel edges."""
    for name, m in test_set.items():
        assert_integer_bounds_match_the_oracles(m, name)
    m = cv.build_matroid(LOOP_AND_COLOOP)
    assert cv.canonical_pairs(m)
    assert_integer_bounds_match_the_oracles(m, "loop-and-coloop")


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(small_specs(), st.data())
def test_coupling_report_matches_the_fraction_route(spec, data):
    m = cv.build_matroid(spec)
    pairs = cv.canonical_pairs(m)
    hypothesis.assume(pairs)
    for _ in range(3):
        x, y = data.draw(st.sampled_from(pairs))
        if data.draw(st.booleans()):
            x, y = y, x
        frame = cv.PairFrame(x, y)
        table = cv.downstep_coupling_table(m, frame)
        where = (spec, x, y)
        assert fraction_cells(table.cells) == fraction_coupling_cells(m, frame), where
        for with_decimal in (False, True):
            want, expected = fraction_coupling_report(m, frame, with_decimal)
            got = coupling_table_to_obj(m, table, with_decimal)
            assert got == want, where
            assert render_json(got) == json.dumps(want, indent=2, ensure_ascii=False) + "\n"
            assert render_csv(report_to_csv_rows("coupling", got)) == \
                render_csv(report_to_csv_rows("coupling", want)), where
            assert table.expected_distance() == expected, where
