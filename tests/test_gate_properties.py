"""Property check of the matroid gate on near-matroid explicit families.

Each example takes a small matroid (n <= 6) and removes one basis or adds
one k-set. When the result satisfies the exchange axiom, the served
distances must equal BFS on the exchange graph and the exact report must
succeed; when it does not, every distance path of the CLI must exit 1 with
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
from oracles import bfs_distances, quadratic_adjacent_pairs

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# rank < n, so every family can lose a basis or gain a k-set
SMALL = ([cv.build_matroid(cv.UniformSpec(n=n, k=k))
          for n in range(3, 7) for k in range(1, n)]
         + [m for m in map(cv.build_matroid, connected_graph_specs()) if m.rank < m.n])


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
    is_matroid = cv.validate_exchange_axiom(m).ok
    if is_matroid:
        g = cv.basis_graph(m)
        adj = {b: [] for b in m.bases}
        for x, y in quadratic_adjacent_pairs(m.bases):
            adj[x].append(y)
            adj[y].append(x)
        for x in m.bases:
            want = bfs_distances(adj, x)
            assert set(want) == m.bases
            for y in m.bases:
                assert g.distance(x, y) == want[y]

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
