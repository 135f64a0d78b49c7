"""Property checks of the matroid gate against the quadratic definition.

The gate (validate_exchange_axiom) checks distance-two pairs plus
connectivity; tests/oracles.py scans every ordered pair of bases. They must
agree on the verdict, and every failure witness must be a genuine failing
triple chosen by the documented rule. The comparison is exhaustive over
every family of k-sets for (n, k) in {(4, 2), (5, 2), (5, 3)}.

The hypothesis examples take a small matroid (n <= 6) and remove one basis
or add one k-set. When the result satisfies the exchange axiom,
exchange_distance must equal BFS on the exchange graph and the exact report
must succeed; when it does not, every distance path of the CLI must exit 1 with
one error line and no traceback.
"""

import contextlib
import io
import json
import os
import tempfile
from itertools import combinations

import pytest

import curvatroid as cv
from conftest import connected_graph_specs
from curvatroid.cli import main
from curvatroid.walk import exchange_distance
from oracles import (
    bfs_distances,
    failing_exchange_triples,
    index_tuple,
    is_failing_triple,
    quadratic_adjacent_pairs,
    quadratic_exchange_check,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# rank < n, so every family can lose a basis or gain a k-set
SMALL = ([cv.build_matroid(cv.UniformSpec(n=n, k=k))
          for n in range(3, 7) for k in range(1, n)]
         + [m for m in map(cv.build_matroid, connected_graph_specs()) if m.rank < m.n])


def adjacency(bases):
    adj = {b: [] for b in bases}
    for x, y in quadratic_adjacent_pairs(bases):
        adj[x].append(y)
        adj[y].append(x)
    return adj


def check_gate(m):
    """The gate's verdict and witness against the quadratic oracle.

    A failing distance-two triple makes the witness the first of them in
    canonical order. Otherwise the exchange graph is disconnected: the
    witness's B2 is the first basis outside the first basis's component,
    and its B1 lies inside that component.
    """
    result = cv.validate_exchange_axiom(m)
    assert result.ok == (quadratic_exchange_check(m.bases) is None)
    if result.ok:
        return result
    assert is_failing_triple(m.bases, result.witness)
    local = next((t for t in failing_exchange_triples(m.bases)
                  if (t[0] & ~t[1]).bit_count() == 2), None)
    if local is not None:
        assert result.witness == local
    else:
        order = sorted(m.bases, key=index_tuple)
        component = bfs_distances(adjacency(m.bases), order[0])
        b1, b2, _ = result.witness
        assert b1 in component
        assert b2 == next(b for b in order if b not in component)
    return result


@pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (5, 3)])
def test_gate_matches_oracle_on_every_small_family(n, k):
    ksets = [sum(1 << i for i in c) for c in combinations(range(n), k)]
    labels = tuple("abcdefg"[:n])
    verdicts = set()
    for choice in range(1, 1 << len(ksets)):
        family = [b for i, b in enumerate(ksets) if choice >> i & 1]
        verdicts.add(check_gate(cv.Matroid(labels, family, "explicit")).ok)
    assert verdicts == {True, False}


def test_bounds_only_curvature_is_gated_on_every_rank2_family_on_5():
    # the bounds are theorems about matroids: a bounds-only run must refuse
    # exactly the families the validator refuses, with its witness
    ksets = [sum(1 << i for i in c) for c in combinations(range(5), 2)]
    refused = 0
    for choice in range(1, 1 << len(ksets)):
        m = cv.Matroid(tuple("abcde"), [b for i, b in enumerate(ksets)
                                        if choice >> i & 1], "explicit")
        result = cv.validate_exchange_axiom(m)
        try:
            report = cv.global_curvature(m, exact=False)
        except cv.NotAMatroid as e:
            assert not result.ok and str(e) == f"not a matroid: {result.detail}"
            refused += 1
        else:
            assert result.ok
            assert report.pair_count == len(quadratic_adjacent_pairs(m.bases))
    assert refused == 852


@pytest.mark.parametrize("bases,witness", [
    (("abc", "def"), ("abc", "def", "a")),
    # abcd walks to bcde towards efgh, the first basis outside its
    # component, and gets stuck dropping b
    (("abcd", "bcde", "efgh", "efgi"), ("bcde", "efgh", "b")),
])
def test_gate_on_disconnected_locally_vacuous_family(bases, witness):
    m = cv.build_matroid(cv.ExplicitSpec(ground=tuple("abcdefghi"),
                                         bases=tuple(map(tuple, bases))))
    # no two bases differ in exactly two elements, so only the
    # connectivity half of the gate can fail
    assert all((x & ~y).bit_count() != 2 for x in m.bases for y in m.bases)
    result = check_gate(m)
    assert not result.ok
    b1, b2, u = result.witness
    assert ("".join(m.labels_of(b1)), "".join(m.labels_of(b2)), m.labels[u]) == witness


@st.composite
def near_matroids(draw):
    """(ground labels, bases as label tuples, first adjacent pair or None)."""
    m = draw(st.sampled_from(SMALL))
    family = set(m.bases)
    outside = [mask for mask in (sum(1 << i for i in c)
                                 for c in combinations(range(m.n), m.rank))
               if mask not in family]
    if len(family) > 1 and (not outside or draw(st.booleans())):
        family.remove(draw(st.sampled_from(sorted(family))))
    else:
        family.add(draw(st.sampled_from(outside)))
    bases = [m.labels_of(b) for b in sorted(family)]
    pair = min(quadratic_adjacent_pairs(family), default=None)
    if pair is not None:
        pair = tuple(m.labels_of(b) for b in pair)
    return m.labels, bases, pair


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(near_matroids())
def test_gate_on_near_matroids(case):
    ground, bases, pair = case
    m = cv.build_matroid(cv.ExplicitSpec(ground=ground, bases=tuple(bases)))
    is_matroid = check_gate(m).ok
    if is_matroid:
        assert set(cv.basis_graph(m)) == m.bases
        adj = adjacency(m.bases)
        for x in m.bases:
            want = bfs_distances(adj, x)
            assert set(want) == m.bases
            for y in m.bases:
                assert exchange_distance(x, y) == want[y]

    commands = [["curvature", "--exact"]]
    if pair is not None:
        flags = ["--s", ",".join(pair[0]), "--t", ",".join(pair[1])]
        commands += [["pair", *flags], ["coupling", *flags]]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "family.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"type": "explicit", "ground": list(ground),
                       "bases": [list(b) for b in bases]}, fh)
        for argv in commands:
            code, out, err = run_cli([argv[0], "--input", path, *argv[1:]])
            if is_matroid:
                assert code == 0 and err == "", argv
            else:
                assert code == 1 and out == "", argv
                assert err.startswith("error: not a matroid: exchange fails"), argv
                assert err.count("\n") == 1 and "Traceback" not in err, argv
