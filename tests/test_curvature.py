"""Pair frames, witnesses, bounds, couplings, and global curvature."""

import inspect
import re
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import lcm

import pytest

import curvatroid as cv
from curvatroid import cli, curvature, transport
from oracles import (DISTINGUISHED_PAIRS, as_permuted_explicit, cell_masses, coupling_cost,
                     distance, fraction_cells, fraction_downstep_lb,
                     fraction_theorem_ub_values, frame_by_symmetric_difference, masses,
                     proposition_distance_check, quadratic_adjacent_pairs,
                     sorted_index_pairs, swapped, unpruned_global_curvature)

F = Fraction


def u42() -> cv.Matroid:
    return cv.build_matroid(cv.UniformSpec(n=4, k=2))


def frame_of(m: cv.Matroid, s_labels, t_labels) -> cv.PairFrame:
    return cv.PairFrame(m.mask_from_labels(s_labels), m.mask_from_labels(t_labels))


def separated_pair() -> tuple[cv.Matroid, cv.PairFrame]:
    """A direct sum of two rank-1 pieces: its pairs have no crossing drops."""
    m = cv.build_matroid(cv.ExplicitSpec(
        ground=("a", "b", "c", "d"),
        bases=(("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"))))
    return m, frame_of(m, ("a", "c"), ("a", "d"))


# ── frames and witnesses ────────────────────────────────────────────────────


def test_frame_orientation():
    m = u42()
    frame = frame_of(m, ("a", "b"), ("a", "c"))
    assert m.labels[frame.s_elem] == "b"
    assert m.labels[frame.t_elem] == "c"
    assert tuple(m.labels[i] for i in frame.shared) == ("a",)
    flipped = swapped(frame)
    assert flipped.s_basis == frame.t_basis
    assert flipped.s_elem == frame.t_elem
    assert flipped.shared == frame.shared


def test_frame_k6_shared():
    m = cv.build_named("k6")
    s, t = (m.mask_from_labels(p) for p in DISTINGUISHED_PAIRS["k6"])
    frame = cv.PairFrame(s, t)
    assert tuple(m.labels[i] for i in frame.shared) == ("1", "2", "3", "4")
    assert m.labels[frame.s_elem] == "s" and m.labels[frame.t_elem] == "t"


def test_frame_errors():
    m = u42()
    ab, c, d = (m.mask_from_labels(labels) for labels in ("ab", "c", "d"))
    with pytest.raises(cv.NotAdjacent):
        cv.PairFrame(ab, ab)
    with pytest.raises(cv.NotAdjacent):
        cv.PairFrame(ab, c | d)
    with pytest.raises(cv.NotAdjacent):
        cv.PairFrame(ab | c, ab)
    # one exchange apart, but neither set is a basis of U(2,4)
    with pytest.raises(cv.NotABasis):
        cv.compute_pair_witness(m, cv.PairFrame(ab | c, ab | d))


def test_frame_is_derived_from_its_two_bases(test_set):
    assert list(inspect.signature(cv.PairFrame).parameters) == ["s_basis", "t_basis"]
    for name, m in test_set.items():
        for x, y in cv.canonical_pairs(m):
            for s, t in ((x, y), (y, x)):
                frame = cv.PairFrame(s, t)
                assert (frame.s_elem, frame.t_elem, frame.shared) == \
                    frame_by_symmetric_difference(s, t), name


@pytest.mark.parametrize("s,t", [
    (0b0011, 0b0011), (0, 0),            # equal masks
    (0b0011, 0b1100), (0b00111, 0b11100),  # two exchanges apart
    (0b0011, 0b0001), (0b0111, 0b1001),  # unequal sizes
    (0b0001, 0b0110),
], ids=["equal", "empty", "disjoint", "two-exchanges", "subset",
        "one-vs-two-extra", "two-vs-one-extra"])
def test_frame_refuses_anything_but_one_exchange(s, t):
    with pytest.raises(cv.NotAdjacent):
        cv.PairFrame(s, t)
    with pytest.raises(TypeError):
        cv.PairFrame(s, t, 0, 1, ())


def test_witness_u42():
    m = u42()
    witness = cv.compute_pair_witness(m, frame_of(m, ("a", "b"), ("a", "c")))
    (entry,) = witness
    assert m.labels[entry.drop] == "a"
    assert (entry.ns_size, entry.nt_size, entry.overlap_size) == (3, 3, 2)
    assert entry.s_only_adds == 0
    assert entry.nt_size - 1 - entry.overlap_size == 0  # no T-only adds either


def test_witness_k6():
    m = cv.build_named("k6")
    s, t = (m.mask_from_labels(p) for p in DISTINGUISHED_PAIRS["k6"])
    frame = cv.PairFrame(s, t)
    witness = cv.compute_pair_witness(m, frame)
    rows = {m.labels[e.drop]: (e.ns_size, e.nt_size, e.overlap_size,
                               e.s_only_adds.bit_count())
            for e in witness}
    assert rows == {"1": (8, 5, 2, 5), "2": (5, 8, 2, 2),
                    "3": (5, 8, 2, 2), "4": (8, 5, 2, 5)}


def test_witness_no_crossing():
    m, frame = separated_pair()
    witness = cv.compute_pair_witness(m, frame)
    assert witness == ()


# every public function of one pair: each takes (m, frame)
PAIR_FUNCTIONS = (cv.compute_pair_witness, cv.downstep_lb_pair, cv.theorem_ub_values,
                  cv.theorem_ub_pair, cv.downstep_coupling_table, cv.exact_pair_curvature,
                  cv.compute_pair_report)


def test_witness_rejects_inconsistent_frame():
    # a frame is always one exchange, and every function taking the family
    # checks membership itself
    m, _ = separated_pair()
    a, b, c, d = (1 << m.element_index(x) for x in "abcd")
    with pytest.raises(cv.NotAdjacent):
        cv.PairFrame(a | c | d, b | c)
    with pytest.raises(cv.NotAdjacent):
        cv.PairFrame(a | c, b | d)
    # adjacent sets outside the family: ab is not a basis, acd not even a k-set
    for frame in (cv.PairFrame(a | b, a | c), cv.PairFrame(a | c, a | b),
                  cv.PairFrame(a | c | d, b | c | d)):
        for call in PAIR_FUNCTIONS:
            with pytest.raises(cv.NotABasis):
                call(m, frame)


# ── closed-form bounds ──────────────────────────────────────────────────────


def test_theorem_lb_global_values():
    assert cv.theorem_lb_global(3, 4) == F(1, 3)
    assert cv.theorem_lb_global(2, 6) == F(3, 10)
    assert cv.theorem_lb_global(5, 15) == F(-21, 55)
    for k, n in ((0, 4), (4, 4), (5, 4)):
        with pytest.raises(cv.InvalidRank):
            cv.theorem_lb_global(k, n)


def test_bound_scale_is_the_lcm_of_the_completion_sizes():
    for top in range(1, 301):
        assert curvature.bound_scale(1, top) == lcm(*range(1, top + 1)), top
    assert curvature.bound_scale(4, 10) == lcm(*range(1, 8))
    assert curvature.bound_scale(5, 5) == 1


def test_uniform_pair_lb_closed_form(sweep):
    for name, data in sweep.items():
        if not name.startswith("u(") or data.report.degenerate:
            continue
        m = data.matroid
        k, n = m.rank, m.n
        want = 1 - F((k - 1) * (n - k), k * (n - k + 1))
        for pair in data.pairs:
            assert pair.lb == want, name


def test_no_crossing_pair_closed_form():
    m, frame = separated_pair()
    k = m.rank
    assert cv.downstep_lb_pair(m, frame) == F(1, k)
    table = cv.downstep_coupling_table(m, frame)
    assert table.expected_distance() == F(k - 1, k)


def test_forward_reverse_swap_symmetry(sweep):
    for name in ("k4", "rank3-counterexample", "u(2,5)"):
        data = sweep[name]
        m = data.matroid
        for pair in data.pairs[:8]:
            frame = cv.PairFrame(pair.x, pair.y)
            back = swapped(frame)
            assert cv.downstep_lb_pair(m, back) == pair.lb
            fwd, rev = cv.theorem_ub_values(m, back)
            assert (fwd, rev) == (pair.ub_reverse, pair.ub_forward)


# ── couplings ───────────────────────────────────────────────────────────────


def test_coupling_matches_bound_and_marginals(sweep):
    for name, data in sweep.items():
        for pair in data.pairs:
            assert pair.coupling_cost == pair.expected_distance, name
            assert pair.lb == 1 - pair.expected_distance, name


def test_coupling_cells_stay_within_distance_two():
    m = cv.build_named("k4")
    s, t = (m.mask_from_labels(p) for p in DISTINGUISHED_PAIRS["k4"])
    table = cv.downstep_coupling_table(m, cv.PairFrame(s, t))
    cells = fraction_cells(table.cells)
    for cell in cells:
        assert cell.distance == distance(m, cell.x, cell.y) <= 2
    assert sum((c.mass for c in cells), F(0)) == 1


def test_coupling_aggregation_merges_duplicate_targets():
    m = cv.build_named("k4")
    s = m.mask_from_labels(("ab", "bc", "cd"))
    t = m.mask_from_labels(("ab", "cd", "da"))
    frame = cv.PairFrame(s, t)
    table = cv.downstep_coupling_table(m, frame)
    aggregated = cell_masses(fraction_cells(table.cells))
    assert len(table.cells) > len(aggregated)
    g = cv.basis_graph(m)
    assert coupling_cost(aggregated, masses(g[s]), masses(g[t]),
                         partial(distance, m)) == table.expected_distance()
    assert 1 - table.expected_distance() == cv.downstep_lb_pair(m, frame)


# ── distance proposition ────────────────────────────────────────────────────


def test_proposition_rank3():
    m = cv.build_named("rank3-counterexample")
    s, t = (m.mask_from_labels(p) for p in DISTINGUISHED_PAIRS["rank3-counterexample"])
    frame = cv.PairFrame(s, t)
    witness = cv.compute_pair_witness(m, frame)
    for entry in witness:
        result = proposition_distance_check(m, frame, entry.drop)
        assert result.ok and "5 add(s)" in result.detail
        for a in cv.bits(entry.s_only_adds):
            assert proposition_distance_check(m, frame, entry.drop, a).ok


def test_proposition_vacuous_and_errors():
    m = u42()
    frame = frame_of(m, ("a", "b"), ("a", "c"))
    result = proposition_distance_check(m, frame, m.element_index("a"))
    assert result.ok and "vacuous" in result.detail
    with pytest.raises(cv.CurvatroidError):
        proposition_distance_check(m, frame, m.element_index("b"))
    with pytest.raises(cv.CurvatroidError):
        proposition_distance_check(m, frame, m.element_index("a"),
                                      m.element_index("d"))


def test_proposition_k6_crossing_edge():
    m = cv.build_named("k6")
    s, t = (m.mask_from_labels(p) for p in DISTINGUISHED_PAIRS["k6"])
    frame = cv.PairFrame(s, t)
    assert proposition_distance_check(m, frame, m.element_index("1")).ok


# ── exact curvature and reports ─────────────────────────────────────────────


def test_sandwich_everywhere(sweep):
    for name, data in sweep.items():
        for pair in data.pairs:
            assert pair.lb <= pair.kappa, name
            assert pair.kappa <= min(pair.ub_forward, pair.ub_reverse), name


def test_pair_report_u42():
    m = u42()
    report = cv.compute_pair_report(m, frame_of(m, ("a", "b"), ("a", "c")))
    assert report.downstep_lb == report.kappa_exact == report.theorem_ub == F(2, 3)
    assert report.coupling_expected_distance == F(1, 3)
    assert report.ub_forward == report.ub_reverse == F(2, 3)


def test_pair_report_rejects_a_closed_form_off_by_one_unit(monkeypatch):
    """The down-step bound is checked against the coupling's own expected
    distance: a closed form off by 1/(k L), the smallest step of its integer
    route, must stop the report."""
    m = cv.build_named("k4")
    s, t = m.mask_from_labels(["ab", "cd", "da"]), m.mask_from_labels(["bd", "cd", "da"])
    denominator = m.rank * curvature.bound_scale(m.rank, m.n)
    honest = cv.compute_pair_report(m, cv.PairFrame(s, t))
    numerators = curvature.bound_numerators

    def off_by_one(scale, signature):
        lb, forward, reverse = numerators(scale, signature)
        return lb + 1, forward, reverse

    monkeypatch.setattr(curvature, "bound_numerators", off_by_one)
    assert cv.downstep_lb_pair(m, cv.PairFrame(s, t)) == \
        honest.downstep_lb + F(1, denominator)
    pair = f"pair {m.labels_of(s)} / {m.labels_of(t)}: "
    with pytest.raises(cv.CurvatroidError,
                       match=re.escape(pair + "down-step bound disagrees with its coupling")):
        cv.compute_pair_report(m, cv.PairFrame(s, t))


def test_global_report_matches_pair_minima(sweep):
    for name, data in sweep.items():
        if data.report.degenerate:
            assert data.report.kappa_exact == 1
            assert data.report.pair_count == 0
            assert data.report.argmin_pair is None
            assert not data.pairs
            continue
        report, pairs = data.report, data.pairs
        assert report.pair_count == len(pairs)
        assert report.kappa_exact == min(p.kappa for p in pairs), name
        assert report.downstep_lb == min(p.lb for p in pairs), name
        assert report.theorem_ub == min(min(p.ub_forward, p.ub_reverse)
                                        for p in pairs), name
        first = next((p.x, p.y) for p in pairs if p.kappa == report.kappa_exact)
        assert report.argmin_pair == first, name
        if data.matroid.rank < data.matroid.n:
            assert report.theorem_lb == cv.theorem_lb_global(
                data.matroid.rank, data.matroid.n)
        else:
            assert report.theorem_lb is None


@pytest.mark.parametrize("wrong", ["below", "above"])
def test_exact_sweep_checks_the_sandwich_on_every_solve(wrong, monkeypatch, capsys):
    """The pruned sweep discards pairs on their down-step bound, so a solved
    value outside [downstepLB, theoremUB] must stop it, naming the pair. A
    pair report holds a solved value to the same sandwich, and the pair
    command reports the failure on one error line with exit status 1. The
    pair's bounds differ (11/40 and 5/16), so its report solves."""
    def outside(m, frame):
        if wrong == "below":
            return cv.downstep_lb_pair(m, frame) - 1
        return cv.theorem_ub_pair(m, frame) + 1

    monkeypatch.setattr(curvature, "exact_pair_curvature", outside)
    message = r"pair \(.+\) / \(.+\): exact curvature .+ outside its bounds"
    m = cv.build_named("vamos")
    with pytest.raises(cv.CurvatroidError, match=message):
        cv.global_curvature(m)
    frame = frame_of(m, ("a1", "a2", "b1", "c1"), ("a1", "b1", "b2", "c1"))
    with pytest.raises(cv.CurvatroidError, match=message):
        cv.compute_pair_report(m, frame)
    capsys.readouterr()
    code = cli.main(["pair", "--input", "named:vamos",
                     "--s", "a1,a2,b1,c1", "--t", "a1,b1,b2,c1"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and re.match("error: " + message, err)
    assert "Traceback" not in err


@pytest.mark.parametrize("s, t, solves", [
    (("ab", "cd", "da"), ("bd", "cd", "da"), 0),  # bounds 13/36 and 13/36
    (("ab", "bc", "cd"), ("ab", "bc", "da"), 1),  # bounds 7/18 and 4/9
])
def test_pair_query_solves_only_where_the_bounds_differ(s, t, solves, monkeypatch, capsys):
    solve = transport._solve_integer_transport
    calls = []

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(transport, "_solve_integer_transport", counted)
    assert cli.main(["pair", "--input", "named:k4",
                     "--s", ",".join(s), "--t", ",".join(t)]) == 0
    assert len(calls) == solves


def tampered_test_function(case):
    """_test_function with one part of f made wrong: without its lifted
    sets R + x, raised at S as well (claiming too much), or without its
    raised sets S - u + x (claiming too little)."""
    honest = curvature._test_function

    def tampered(m, frame, witness):
        raised = honest(m, frame, witness)
        if case == "unlifted":
            return {x for x in raised if x >> frame.s_elem & 1}
        if case == "too much":
            return raised | {frame.s_basis}
        return {x for x in raised if not x >> frame.s_elem & 1}

    return tampered


def heavier_first_cell():
    """_coupling_drops with one more unit on the first cell, at distance
    zero, so the expected distance stays right and a marginal does not."""
    honest = curvature._coupling_drops

    def heavier(m, frame):
        first, *rest = honest(m, frame)
        drop_s, drop_t, denominator, ((add_s, add_t, x, y, w), *cells) = first
        yield drop_s, drop_t, denominator, ((add_s, add_t, x, y, w + 1), *cells)
        yield from rest

    return heavier


@pytest.mark.parametrize("case, message", [
    ("weight", "the down-step coupling's marginals are not the kernel rows"),
    ("unlifted", "the test function of theoremUB is not 1-Lipschitz"),
    ("too much", "the test function of theoremUB is not 1-Lipschitz"),
    ("too little", "the test function's objective is not 1 - theoremUB"),
])
def test_closed_form_certificate_stops_a_wrong_part(case, message, monkeypatch, capsys):
    """A pair whose bounds agree is reported without a solve, so a wrong
    coupling cell or a wrong test function must stop the report, naming the
    pair, and the pair command reports it on one error line with exit
    status 1. The pair's forward bound, 13/36, is below its reverse one,
    15/36, and its f raises S - u + x sets and lifts an R + x."""
    if case == "weight":
        monkeypatch.setattr(curvature, "_coupling_drops", heavier_first_cell())
    else:
        monkeypatch.setattr(curvature, "_test_function", tampered_test_function(case))
    m = cv.build_named("k4")
    s, t = ("ab", "bc", "cd"), ("ab", "bc", "bd")
    named = rf"pair {re.escape(str(s))} / {re.escape(str(t))}: "
    with pytest.raises(cv.CurvatroidError, match=named + re.escape(message)):
        cv.compute_pair_report(m, frame_of(m, s, t))
    capsys.readouterr()
    code = cli.main(["pair", "--input", "named:k4", "--s", ",".join(s), "--t", ",".join(t)])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and re.match("error: " + named + re.escape(message), err)
    assert "Traceback" not in err


def test_exact_sweep_certifies_an_argmin_whose_bounds_agree(monkeypatch, capsys):
    """Every Fano pair has equal bounds, so the sweep solves none and takes
    kappa from the bounds; the reported argmin alone gets the closed-form
    certificate, and a wrong test function stops the curvature command."""
    def no_solve(m, frame):
        raise AssertionError("transport solve")

    certify = curvature._certify_equal_bounds
    certified = []

    def counted(m, frame, *rest):
        certified.append((frame.s_basis, frame.t_basis))
        return certify(m, frame, *rest)

    monkeypatch.setattr(curvature, "exact_pair_curvature", no_solve)
    monkeypatch.setattr(curvature, "_certify_equal_bounds", counted)
    report = cv.global_curvature(cv.build_named("fano"))
    assert certified == [report.argmin_pair]

    monkeypatch.setattr(curvature, "_test_function", tampered_test_function("too much"))
    with pytest.raises(cv.CurvatroidError, match="not 1-Lipschitz"):
        cv.global_curvature(cv.build_named("fano"))
    capsys.readouterr()
    code = cli.main(["curvature", "--input", "named:fano", "--exact"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: pair ")
    assert "Traceback" not in err


# transport solves of the pruned exact sweep with one solve per automorphism
# orbit, as (S labels, T labels) in solve order; K6 solves 1 of its 17,460
# pairs, where the unpruned sweep solved 6,660 and the pruned sweep without
# orbits 180 (vamos: 48)
PRUNED_SOLVES = {
    "k6": [(("1", "2", "3", "s", "46"), ("1", "2", "3", "35", "46"))],
    "vamos": [(("a1", "a2", "b1", "d2"), ("a2", "b1", "b2", "d2")),
              (("a1", "a2", "b1", "d2"), ("a2", "b1", "d1", "d2"))],
    "rank3-counterexample": [],
}


@pytest.mark.parametrize("name", sorted(PRUNED_SOLVES))
def test_pruned_sweep_solves_only_pairs_that_can_reach_the_minimum(name, monkeypatch):
    m = cv.build_named(name)
    exact = curvature.exact_pair_curvature
    solved = []

    def counted(m, frame):
        solved.append(frame)
        return exact(m, frame)

    monkeypatch.setattr(curvature, "exact_pair_curvature", counted)
    kappa = cv.global_curvature(m).kappa_exact
    open_pairs = 0
    for x, y in cv.canonical_pairs(m):
        frame = cv.PairFrame(x, y)
        open_pairs += cv.downstep_lb_pair(m, frame) <= kappa < cv.theorem_ub_pair(m, frame)
    assert all(cv.downstep_lb_pair(m, frame) <= kappa for frame in solved)
    assert len(solved) <= open_pairs
    assert [(m.labels_of(frame.s_basis), m.labels_of(frame.t_basis))
            for frame in solved] == PRUNED_SOLVES[name]


# Graphs where the first canonical pair reaching the minimum has a larger
# down-step bound than a later pair reaching it, so the pruned sweep meets
# the minimum before its argmin. Atlas #570 is K(2,3) with a triangle hung on
# vertex 2, and there the argmin's bound equals the minimum itself; atlas
# #947 is a 12-edge graph on 7 vertices. Edges in networkx atlas order.
TIE_GRAPHS = {
    "atlas-570": ((0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4), (2, 5), (2, 6),
                  (5, 6)),
    "atlas-947": ((0, 1), (0, 4), (1, 2), (1, 5), (1, 6), (2, 3), (3, 4), (3, 5),
                  (3, 6), (4, 5), (4, 6), (5, 6)),
}


@pytest.mark.parametrize("name", sorted(TIE_GRAPHS))
def test_pruned_sweep_keeps_the_first_canonical_argmin_on_ties(name):
    m = cv.build_matroid(cv.GraphicSpec(vertex_count=7, edges=tuple(
        (a, b, f"e{i}") for i, (a, b) in enumerate(TIE_GRAPHS[name]))))
    kappa, argmin = unpruned_global_curvature(m)
    reaching = []  # down-step bounds of the pairs reaching kappa, canonical order
    for x, y in cv.canonical_pairs(m):
        frame = cv.PairFrame(x, y)
        if cv.exact_pair_curvature(m, frame) == kappa:
            reaching.append(((x, y), cv.downstep_lb_pair(m, frame)))
    (first, first_lb), later = reaching[0], reaching[1:]
    assert first == argmin
    assert any(lb < first_lb for _, lb in later)
    assert (first_lb == kappa) == (name == "atlas-570")
    report = cv.global_curvature(m)
    assert (report.kappa_exact, report.argmin_pair) == (kappa, argmin)


def test_global_u42_argmin_and_value():
    m = u42()
    report = cv.global_curvature(m)
    assert report.kappa_exact == F(2, 3)
    assert report.argmin_pair == (m.mask_from_labels(["a", "b"]),
                                  m.mask_from_labels(["a", "c"]))
    assert report.downstep_lb == report.theorem_ub == F(2, 3)
    assert report.pair_count == 12


def test_identical_kernels_curvature_one():
    m = cv.build_matroid(cv.UniformSpec(n=3, k=1))
    report = cv.global_curvature(m)
    assert report.kappa_exact == 1
    assert not report.degenerate
    assert report.pair_count == 3


def test_degenerate_single_basis():
    report = cv.global_curvature(cv.build_matroid(cv.UniformSpec(n=2, k=2)))
    assert report.degenerate
    assert report.kappa_exact == 1
    assert report.pair_count == 0
    assert report.argmin_pair is None
    assert report.theorem_lb is None
    bounds_only = cv.global_curvature(cv.build_matroid(cv.UniformSpec(n=2, k=2)),
                                      exact=False)
    assert bounds_only.degenerate and bounds_only.kappa_exact is None
    # no basis pairs of any distance: the all-pairs audit passes vacuously
    audited = cv.global_curvature(cv.build_matroid(cv.UniformSpec(n=3, k=3)),
                                  audit_all_pairs=True)
    assert audited.degenerate and audited.audited and audited.kappa_exact == 1


# two families failing the exchange axiom, each with a one-exchange frame
NON_MATROIDS = {
    # ab - ac and de - df are adjacent, but nothing exchanges ab towards de
    "split": (("ab", "ac", "de", "df"), ("ab", "ac")),
    # no two bases are adjacent, so the frame names abd outside the family
    "disjoint": (("abc", "def"), ("abc", "abd")),
}


@pytest.mark.parametrize("family", NON_MATROIDS)
def test_every_curvature_entry_point_runs_the_matroid_gate(family):
    bases, (s_labels, t_labels) = NON_MATROIDS[family]
    m = cv.build_matroid(cv.ExplicitSpec(ground=tuple("abcdef"),
                                         bases=tuple(map(tuple, bases))))
    s, t = m.mask_from_labels(s_labels), m.mask_from_labels(t_labels)
    frame = cv.PairFrame(s, t)
    entry_points = {
        "bounds-only": lambda: cv.global_curvature(m, exact=False),
        "exact": lambda: cv.global_curvature(m),
        "all-pairs": lambda: cv.global_curvature(m, audit_all_pairs=True),
        "witness": lambda: cv.compute_pair_witness(m, frame),
        "downstep_lb_pair": lambda: cv.downstep_lb_pair(m, frame),
        "theorem_ub_pair": lambda: cv.theorem_ub_pair(m, frame),
        "theorem_ub_values": lambda: cv.theorem_ub_values(m, frame),
        "coupling": lambda: cv.downstep_coupling_table(m, frame),
        "exact_pair": lambda: cv.exact_pair_curvature(m, frame),
        "basis_graph": lambda: cv.basis_graph(m),
        "pair_report": lambda: cv.compute_pair_report(m, frame),
    }
    # the gate comes before the pair's own membership check: "disjoint" has
    # no adjacent pair, and its frame names abd outside the family
    assert (t in m.bases) == (family == "split")
    assert (cv.canonical_pairs(m) == []) == (family == "disjoint")
    want = "not a matroid: " + cv.validate_exchange_axiom(m).detail
    assert "'a' dropped from ('a', 'b'" in want
    for name, call in entry_points.items():
        with pytest.raises(cv.NotAMatroid) as info:
            call()
        assert str(info.value) == want, name
    # listing and validating need no gate
    assert len(m.sorted_bases()) == len(bases)
    assert not cv.validate_exchange_axiom(m).ok


def test_audit_of_family_without_adjacent_pairs_fails():
    m = cv.build_matroid(cv.ExplicitSpec(ground=("a", "b", "c", "d"),
                                         bases=(("a", "b"), ("c", "d"))))
    # every bound is a theorem about matroids, and {ab, cd} fails the
    # exchange gate, so no mode reports a (degenerate) curvature for it
    for exact, audit in ((False, False), (True, False), (True, True)):
        with pytest.raises(cv.NotAMatroid, match="exchange fails"):
            cv.global_curvature(m, exact=exact, audit_all_pairs=audit)


def test_bounds_only_mode():
    m = cv.build_named("k4")
    report = cv.global_curvature(m, exact=False)
    assert report.kappa_exact is None and report.argmin_pair is None
    assert report.downstep_lb == F(1, 3)
    assert report.pair_count == 54


def bound_test_set(test_set):
    """The conftest set plus K6 and u(5,12), where many pairs share one
    crossing-drop signature."""
    out = dict(test_set)
    out["k6"] = cv.build_named("k6")
    out["u(5,12)"] = cv.build_matroid(cv.UniformSpec(n=12, k=5))
    return out


def test_bounds_are_computed_once_per_signature(test_set, monkeypatch):
    """Pairs sharing a crossing-drop signature share both bounds, and
    global_curvature computes their integer numerators once per signature;
    its reported minima equal the minima of the per-pair Fraction oracles."""
    numerators = curvature.bound_numerators
    calls = []

    def counted(*args):
        calls.append(args)
        return numerators(*args)

    monkeypatch.setattr(curvature, "bound_numerators", counted)
    for name, m in bound_test_set(test_set).items():
        by_signature = {}
        for x, y in cv.canonical_pairs(m):
            frame = cv.PairFrame(x, y)
            witness = cv.compute_pair_witness(m, frame)
            bounds = (fraction_downstep_lb(m, frame, witness),
                      min(fraction_theorem_ub_values(m, frame, witness)))
            signature = tuple(sorted((e.ns_size, e.nt_size, e.overlap_size)
                                     for e in witness))
            assert by_signature.setdefault(signature, bounds) == bounds, name
        calls.clear()
        report = cv.global_curvature(m, exact=False)
        assert len(calls) == len(by_signature), name
        assert report.downstep_lb == min(
            (lb for lb, _ in by_signature.values()), default=None), name
        assert report.theorem_ub == min(
            (ub for _, ub in by_signature.values()), default=None), name


def test_canonical_pair_order_matches_sorted_index_tuples(test_set):
    for name, m in bound_test_set(test_set).items():
        pairs = cv.canonical_pairs(m)
        assert pairs == sorted_index_pairs(quadratic_adjacent_pairs(m.bases)), name


def test_bounds_only_builds_no_kernel_and_exact_two_per_solve(monkeypatch):
    kernels, solves = [], []
    kernel, solve = curvature.transition_distribution, curvature.exact_pair_curvature

    def counted_kernel(m, s):
        kernels.append(s)
        return kernel(m, s)

    def counted_solve(m, frame):
        solves.append(frame)
        return solve(m, frame)

    monkeypatch.setattr(curvature, "transition_distribution", counted_kernel)
    monkeypatch.setattr(curvature, "exact_pair_curvature", counted_solve)
    m = cv.build_named("vamos")
    cv.global_curvature(m, exact=False)
    assert kernels == [] and solves == []
    cv.global_curvature(m)
    assert len(solves) == 2
    assert kernels == [b for frame in solves for b in (frame.s_basis, frame.t_basis)]


def test_sweep_keeps_no_list_of_every_pair(monkeypatch):
    # the sweep walks the completion table: with the pair list gone it runs
    # unchanged
    families = (cv.build_named("vamos"), cv.build_named("fano"), cv.build_named("k4"))
    want = [(cv.global_curvature(m, exact=False), cv.global_curvature(m),
             cv.global_curvature(m, audit_all_pairs=True)) for m in families]

    def refuse(*args):
        raise AssertionError("the sweep built a pair list")

    monkeypatch.setattr(curvature, "canonical_pairs", refuse)
    for m, reports in zip(families, want):
        assert (cv.global_curvature(m, exact=False), cv.global_curvature(m),
                cv.global_curvature(m, audit_all_pairs=True)) == reports, m.origin


def test_exact_sweep_witnesses_one_key_per_orbit(monkeypatch):
    """K6's 1,080 completion-table keys fall into 6 orbits whose first keys
    hold 122 pairs; those get a witness, the other 17,338 pairs are their
    images on the other keys, and the reported argmin gets one more: 123
    witnesses where a per-pair sweep makes 17,460."""
    witness = curvature.compute_pair_witness
    calls = []

    def counted(m, frame):
        calls.append(frame)
        return witness(m, frame)

    monkeypatch.setattr(curvature, "compute_pair_witness", counted)
    report = cv.global_curvature(cv.build_named("k6"), exact=True)
    assert report.pair_count == 17_460 and report.kappa_exact == F(-11, 100)
    assert len(calls) == 123


def permuted_fano() -> cv.Matroid:
    fano = cv.build_named("fano")
    return cv.build_matroid(as_permuted_explicit(fano, (3, 6, 0, 5, 1, 4, 2)))


@pytest.mark.parametrize("build", [partial(cv.build_named, "k6"),
                                   partial(cv.build_named, "vamos"), permuted_fano],
                         ids=["k6", "vamos", "permuted-fano"])
def test_exact_sweep_solves_and_reports_only_witnessed_pairs(build, monkeypatch):
    """Every pair the exact walk solves had its own witness first, so the
    bounds it is held to are its own, and the reported argmin, an image of a
    walked pair, is witnessed once more after the walk."""
    witness, exact = curvature.compute_pair_witness, curvature.exact_pair_curvature
    events = []

    def witnessed(m, frame):
        events.append(("witness", {frame.s_basis, frame.t_basis}))
        return witness(m, frame)

    def solved(m, frame):
        pair = {frame.s_basis, frame.t_basis}
        assert ("witness", pair) in events, (m.origin, pair)
        events.append(("solve", pair))
        return exact(m, frame)

    monkeypatch.setattr(curvature, "compute_pair_witness", witnessed)
    monkeypatch.setattr(curvature, "exact_pair_curvature", solved)
    m = build()
    report = cv.global_curvature(m)
    assert report.kappa_exact == unpruned_global_curvature(m)[0]
    assert events[-1] == ("witness", set(report.argmin_pair))


def _argmin_check_stops_the_run(monkeypatch, capsys, tamper, detail):
    """Tamper with the argmin's own bound numerators (the walk reads
    bound_numerators, so only the checks after it see the change) and
    expect the run to stop on detail, naming the argmin; the curvature
    command reports it on one error line with exit status 1."""
    m = cv.build_named("k6")
    x, y = cv.global_curvature(m).argmin_pair
    numerators = curvature._pair_numerators

    def tampered(m, witness):
        (lb, forward, reverse), denominator = numerators(m, witness)
        return tamper(lb, forward, reverse, denominator), denominator

    monkeypatch.setattr(curvature, "_pair_numerators", tampered)
    message = (rf"pair {re.escape(str(m.labels_of(x)))} / {re.escape(str(m.labels_of(y)))}"
               rf": {detail}")
    with pytest.raises(cv.CurvatroidError, match=message):
        cv.global_curvature(m)
    capsys.readouterr()
    code = cli.main(["curvature", "--input", "named:k6", "--exact"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and re.match("error: " + message, err)
    assert "Traceback" not in err


def test_exact_sweep_holds_the_argmin_to_its_own_bounds(monkeypatch, capsys):
    """An argmin whose own down-step bound is raised by a whole unit fails
    the coupling cross-check, the first check of its certificate."""
    _argmin_check_stops_the_run(
        monkeypatch, capsys,
        lambda lb, forward, reverse, denominator: (lb + denominator, forward, reverse),
        "down-step bound disagrees with its coupling")


def test_exact_sweep_holds_the_argmin_below_its_own_upper_bound(monkeypatch, capsys):
    """An argmin whose own theoremUB lies below kappa stops the run at the
    sandwich; downstepLB is untouched, so the coupling cross-check passes."""
    _argmin_check_stops_the_run(
        monkeypatch, capsys,
        lambda lb, forward, reverse, denominator: (lb, forward - denominator,
                                                   reverse - denominator),
        "exact curvature -11/100 outside its bounds")


def complete_graph(v: int) -> cv.Matroid:
    return cv.build_matroid(cv.GraphicSpec(vertex_count=v, edges=tuple(
        (a, b, f"e{a}{b}") for a, b in combinations(range(v), 2))))


def test_k7_exact():
    m = complete_graph(7)
    report = cv.global_curvature(m)
    assert (report.kappa_exact, report.downstep_lb, report.theorem_ub) == (
        F(-79, 360), F(-11, 45), F(-13, 72))
    assert report.pair_count == 365_085
    assert [m.labels_of(b) for b in report.argmin_pair] == [
        ("e01", "e02", "e13", "e24", "e35", "e46"),
        ("e01", "e13", "e24", "e35", "e46", "e56")]


# K8's kappa, downstepLB, theoremUB and adjacent pairs, which the README's
# table of complete graphs quotes
K8_REPORT = (F(-232, 735), F(-248, 735), F(-40, 147), 8_498_784)


@pytest.fixture(scope="module")
def k8() -> cv.Matroid:
    """One K8 for the tests that run on it, released with this module."""
    return complete_graph(8)


@pytest.mark.slow
def test_k8_exact(k8):
    report = cv.global_curvature(k8)
    assert (report.kappa_exact, report.downstep_lb, report.theorem_ub,
            report.pair_count) == K8_REPORT
    assert [k8.labels_of(b) for b in report.argmin_pair] == [
        ("e01", "e02", "e13", "e24", "e35", "e46", "e57"),
        ("e02", "e13", "e24", "e35", "e46", "e57", "e67")]


def witness_forbidden(m, frame):
    raise AssertionError("a pair was witnessed")


@pytest.mark.slow
def test_k8_bounds_only_is_refused_before_any_witness(k8, monkeypatch):
    # no generators, so every one of K8's 8,498,784 pairs would get a witness
    monkeypatch.setattr(curvature, "compute_pair_witness", witness_forbidden)
    with pytest.raises(cv.TooLarge, match="witness at least 8498784 adjacent pairs"):
        cv.global_curvature(k8, exact=False)


def test_the_exact_sweep_charges_each_key_orbit_before_its_witnesses(monkeypatch):
    m = complete_graph(5)
    calls = []
    witness = curvature.compute_pair_witness
    monkeypatch.setattr(curvature, "compute_pair_witness",
                        lambda m, frame: calls.append(frame) or witness(m, frame))
    report = cv.global_curvature(m)
    witnessed = len(calls) - 1  # the argmin is witnessed once more, after the sweep
    assert 0 < witnessed < report.pair_count == 930
    # the limit bounds the pairs witnessed, not the pairs counted
    monkeypatch.setattr(curvature, "ENUMERATION_LIMIT", witnessed)
    assert cv.global_curvature(m) == report
    calls.clear()
    monkeypatch.setattr(curvature, "ENUMERATION_LIMIT", witnessed - 1)
    with pytest.raises(cv.TooLarge, match="over the enumeration limit"):
        cv.global_curvature(m)
    # refused at a later orbit, after the first orbits' pairs, and never past the limit
    assert 0 < len(calls) < witnessed
    # a bounds-only run charges every pair before the first witness
    monkeypatch.setattr(curvature, "ENUMERATION_LIMIT", report.pair_count)
    assert cv.global_curvature(m, exact=False).pair_count == 930
    monkeypatch.setattr(curvature, "ENUMERATION_LIMIT", report.pair_count - 1)
    monkeypatch.setattr(curvature, "compute_pair_witness", witness_forbidden)
    with pytest.raises(cv.TooLarge, match="witness at least 930 adjacent pairs"):
        cv.global_curvature(m, exact=False)


def test_audit_all_pairs():
    for m in (u42(), cv.build_named("k4"), cv.build_named("fano")):
        audited = cv.global_curvature(m, audit_all_pairs=True)
        plain = cv.global_curvature(m)
        assert audited.audited and not plain.audited
        assert audited.kappa_exact == plain.kappa_exact


def test_audit_without_exact_values_is_rejected():
    with pytest.raises(cv.CurvatroidError, match="exact"):
        cv.global_curvature(cv.build_named("k4"), exact=False, audit_all_pairs=True)

