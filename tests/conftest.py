"""Shared fixtures: the standard matroid test set and a full pair sweep.

The test set is every uniform matroid with n <= 7, the graphic matroid of
every labeled connected simple graph on 2..4 vertices, and the built-ins
vamos, fano, k4, and rank3-counterexample. The sweep computes, once per
session,
the global curvature report plus per-pair bounds, exact curvature, and the
down-step coupling for every adjacent pair of every test-set matroid, with
the coupling's marginals and expected distance checked by the oracle.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial
from itertools import combinations

import pytest

import curvatroid as cv
from oracles import cell_masses, coupling_cost, distance

PairData = namedtuple(
    "PairData",
    "x y lb ub_forward ub_reverse kappa expected_distance coupling_cost",
)
SweepResult = namedtuple("SweepResult", "matroid report pairs")


def _connected(vertex_count: int, edges) -> bool:
    parent = list(range(vertex_count))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in edges:
        parent[find(a)] = find(b)
    return len({find(v) for v in range(vertex_count)}) == 1


def connected_graph_specs() -> list[cv.GraphicSpec]:
    """Every labeled connected simple graph on 2..4 vertices (43 of them)."""
    specs = []
    for v in (2, 3, 4):
        slots = list(combinations(range(v), 2))
        for count in range(v - 1, len(slots) + 1):
            for chosen in combinations(slots, count):
                if _connected(v, chosen):
                    specs.append(cv.GraphicSpec(
                        vertex_count=v,
                        edges=tuple((a, b, f"e{a}{b}") for a, b in chosen),
                    ))
    return specs


def build_test_set() -> dict[str, cv.Matroid]:
    out: dict[str, cv.Matroid] = {}
    for n in range(2, 8):
        for k in range(1, n + 1):
            out[f"u({k},{n})"] = cv.build_matroid(cv.UniformSpec(n=n, k=k))
    for i, spec in enumerate(connected_graph_specs()):
        out[f"graph{spec.vertex_count}v-{i}"] = cv.build_matroid(spec)
    for name in ("vamos", "fano", "k4", "rank3-counterexample"):
        out[name] = cv.build_named(name)
    return out


@pytest.fixture(scope="session")
def test_set() -> dict[str, cv.Matroid]:
    return build_test_set()


@pytest.fixture(scope="session")
def sweep(test_set) -> dict[str, SweepResult]:
    """Dual-route data: global_curvature's report next to independent
    per-pair computations through the public pair API."""
    out = {}
    for name, m in test_set.items():
        g = cv.basis_graph(m)
        report = cv.global_curvature(m, exact=True)
        pairs = []
        for x, y in cv.canonical_pairs(m):
            frame = cv.make_pair_frame(m, x, y)
            lb = cv.downstep_lb_pair(m, frame)
            forward, reverse = cv.theorem_ub_values(m, frame)
            table = cv.downstep_coupling_table(m, frame)
            cost = coupling_cost(cell_masses(table.cells), g[x].masses,
                                 g[y].masses, partial(distance, m))
            kappa = cv.exact_pair_curvature(m, frame)
            pairs.append(PairData(x, y, lb, forward, reverse, kappa,
                                  table.expected_distance(), cost))
        out[name] = SweepResult(m, report, pairs)
    return out
