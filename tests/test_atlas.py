"""Regression corpus: every connected graph with a cycle on <= 6 vertices.

networkx's bundled graph atlas (no download) holds 129 such graphs. Each
becomes a graphic matroid with edges labelled e0, e1, ... in atlas edge
order. The golden tests/goldens/atlas-6.json, keyed by atlas index, holds
the exact curvature, both global per-pair bounds, the pair count and the
argmin pair's labels. It was recorded once from the unpruned exact sweep
(every pair with unequal bounds solved) and is never re-recorded: it guards
the bound-pruned sweep against that earlier route.
"""

from __future__ import annotations

import json
from pathlib import Path

import networkx as nx
import pytest

import curvatroid as cv
from curvatroid.fileio import global_report_to_obj

GOLDEN = Path(__file__).parent / "goldens" / "atlas-6.json"
KEYS = ("kappaExact", "downstepLBGlobal", "theoremUBGlobal", "pairCount", "argminPair")


def atlas_specs() -> dict[int, cv.GraphicSpec]:
    """Atlas index -> graphic spec, for the connected graphs with a cycle on
    at most 6 vertices."""
    specs = {}
    for index, g in enumerate(nx.graph_atlas_g()):
        v = g.number_of_nodes()
        if 0 < v <= 6 and g.number_of_edges() >= v and nx.is_connected(g):
            specs[index] = cv.GraphicSpec(
                vertex_count=v,
                edges=tuple((a, b, f"e{i}") for i, (a, b) in enumerate(g.edges())),
            )
    return specs


def atlas_entry(m: cv.Matroid, report: cv.GlobalReport) -> dict:
    obj = global_report_to_obj(m, report)
    return {key: obj[key] for key in KEYS}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_atlas_corpus_size(golden):
    specs = atlas_specs()
    assert len(specs) == 129
    assert sorted(golden) == sorted(str(i) for i in specs)


def test_atlas_exact_curvature_matches_golden_and_is_sandwiched(golden):
    for index, spec in atlas_specs().items():
        m = cv.build_matroid(spec)
        report = cv.global_curvature(m, exact=True)
        assert atlas_entry(m, report) == golden[str(index)], index
        assert report.downstep_lb <= report.kappa_exact <= report.theorem_ub, index
        assert cv.theorem_lb_global(m.rank, m.n) <= report.kappa_exact, index
