"""Seeded job lists for the three benchmark workloads.

Everything here is independent of the package under test: families are
built from their own definitions, basis counts and adjacent pairs come from
plain enumeration, and the program only ever sees the description files
written by `write_inputs` plus each job's argv.

A job is a dict with
  argv     the CLI argv (input paths are relative to the work directory)
  kind     "curvature", "validate", "pair" or "coupling"
  golden   key into goldens.json for label-invariant report fields, or None
  input    name of the description file the job reads
  expect_pairs  (curvature jobs) adjacent-pair count found by enumeration
"""

from __future__ import annotations

import itertools
import json
import os
import random
from fractions import Fraction

WORKLOADS = ("bounds-large", "exact-symmetric", "exact-asymmetric")

# Size bands, inclusive. A random graph or matrix is kept only when its counts
# fall inside its band, so that every seed asks for about the same work:
# adjacent pairs size a bounds sweep, and the cost-matrix cells of the pairs
# with unequal closed-form bounds size the transport solves of an exact run
# (see bound_profile).
GRAPH_BOUNDS = {"edges": 14, "pairs": (10500, 10800)}
LINEAR_BOUNDS = {"shape": (5, 13), "entries": 2, "pairs": (23500, 24000)}
GRAPH_EXACT = {"edges": 11, "pairs": (935, 935), "cells": (89_000, 93_000)}
EXACT_GRAPHS = 6      # random graphs in exact-asymmetric
AUTOMORPHISM_CAP = 2  # largest vertex-automorphism group order allowed there

# Single-pair queries per round: enough for ten beyond the 95th percentile.
PAIR_QUERIES = 200


# ── independent enumeration ─────────────────────────────────────────────────


def _find(parent: list[int], a: int) -> int:
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def graph_bases(vertices: int, edges: list[tuple[int, int]]) -> list[frozenset[int]]:
    """Spanning trees of a connected graph, as sets of edge indices."""
    out = []
    for combo in itertools.combinations(range(len(edges)), vertices - 1):
        parent = list(range(vertices))
        for i in combo:
            ra, rb = _find(parent, edges[i][0]), _find(parent, edges[i][1])
            if ra == rb:
                break
            parent[ra] = rb
        else:
            out.append(frozenset(combo))
    return out


def _det(rows: list[list[int]]) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination."""
    a = [r[:] for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def matrix_bases(matrix: list[list[int]]) -> list[frozenset[int]]:
    """Column sets of a full-row-rank integer matrix that form a basis."""
    k, n = len(matrix), len(matrix[0])
    return [frozenset(c) for c in itertools.combinations(range(n), k)
            if _det([[row[j] for j in c] for row in matrix])]


def adjacent_pair(rng: random.Random, bases: list[frozenset[int]],
                  n: int) -> tuple[frozenset[int], frozenset[int]]:
    """A uniformly chosen basis and a uniformly chosen exchange out of it."""
    family = set(bases)
    while True:
        s = rng.choice(bases)
        moves = [(s - {a}) | {b} for a in sorted(s) for b in range(n)
                 if b not in s and (s - {a}) | {b} in family]
        if moves:
            return s, rng.choice(moves)


def adjacent_pair_count(bases: list[frozenset[int]]) -> int:
    """Pairs of bases differing by one exchange, grouped by shared (k-1)-sets."""
    groups: dict[frozenset[int], int] = {}
    for b in bases:
        for x in b:
            groups[b - {x}] = groups.get(b - {x}, 0) + 1
    return sum(c * (c - 1) // 2 for c in groups.values())


def bound_profile(bases: list[frozenset[int]]) -> tuple[int, int]:
    """Pairs with unequal closed-form bounds, and their cost-matrix cells.

    The bounds are the down-step lower bound and the neighbourhood upper
    bound of the paper, computed here from their definitions. An exact run
    solves transport for the pairs where they differ, on a cost matrix of
    |supp P(S,.)| x |supp P(T,.)| cells, so the cell total sizes the exact
    workload the way the pair count sizes the bounds one.
    """
    k = len(bases[0])
    completions: dict[frozenset[int], set[int]] = {}
    for b in bases:
        for x in b:
            completions.setdefault(b - {x}, set()).add(x)
    support = {b: 1 + sum(len(completions[b - {u}]) - 1 for u in b) for b in bases}
    unequal = cells = 0
    for sub, xs in completions.items():
        xs = sorted(xs)
        for i, s in enumerate(xs):
            for t in xs[i + 1:]:
                lb = forward = reverse = Fraction(1, k)
                for u in sub:
                    ns = completions[(sub - {u}) | {s}]
                    nt = completions[(sub - {u}) | {t}]
                    if t not in ns:
                        continue
                    a, b, overlap = len(ns), len(nt), len(ns & nt)
                    lb += (Fraction(1 + overlap, k * max(a, b)) + Fraction(1, k * min(a, b))
                           - Fraction(1, k))
                    # t is in ns but never in nt, s the other way round
                    forward += Fraction(1, k * b) - Fraction(len(ns - nt) - 1, k * a)
                    reverse += Fraction(1, k * a) - Fraction(b - 1 - overlap, k * b)
                if lb != min(forward, reverse):
                    unequal += 1
                    cells += support[sub | {s}] * support[sub | {t}]
    return unequal, cells


def vertex_automorphisms(vertices: int, edges: list[tuple[int, int]]) -> int:
    """Order of the vertex-automorphism group of a simple graph (brute force)."""
    edge_set = {frozenset(e) for e in edges}
    return sum(1 for p in itertools.permutations(range(vertices))
               if all(frozenset((p[a], p[b])) in edge_set for a, b in edges))


# ── families ────────────────────────────────────────────────────────────────


def complete_graph(v: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(v), 2))


def complete_bipartite(a: int, b: int) -> list[tuple[int, int]]:
    return [(i, a + j) for i in range(a) for j in range(b)]


def wheel(rim: int) -> list[tuple[int, int]]:
    spokes = [(0, i) for i in range(1, rim + 1)]
    return spokes + [(i, i % rim + 1) for i in range(1, rim + 1)]


def vamos() -> tuple[list[str], list[tuple[str, ...]]]:
    ground = ["a1", "a2", "b1", "b2", "c1", "c2", "d1", "d2"]
    excluded = {frozenset(x + y for x in p for y in "12")
                for p in ("ab", "ac", "ad", "bc", "bd")}
    return ground, [c for c in itertools.combinations(ground, 4)
                    if frozenset(c) not in excluded]


def fano() -> tuple[list[str], list[tuple[str, ...]]]:
    ground = [str(i) for i in range(1, 8)]
    return ground, [(str(a), str(b), str(c))
                    for a, b, c in itertools.combinations(range(1, 8), 3) if a ^ b ^ c]


def rank3_counterexample() -> tuple[list[str], list[tuple[str, ...]]]:
    """Rank 3 on 14 elements: s = e1, t = e2, u = e3, u' = e1+e2+e3,
    five parallel copies v of t and five parallel copies w of s."""
    vectors = {"s": (1, 0, 0), "t": (0, 1, 0), "u": (0, 0, 1), "u'": (1, 1, 1)}
    vectors.update({f"v{i}": (0, 1, 0) for i in range(1, 6)})
    vectors.update({f"w{i}": (1, 0, 0) for i in range(1, 6)})
    ground = list(vectors)
    return ground, [c for c in itertools.combinations(ground, 3)
                    if _det([list(vectors[x]) for x in c])]


def graph_as_explicit(vertices: int, edges: list[tuple[int, int]]):
    labels = [f"{a}{b}" for a, b in edges]
    return labels, [tuple(labels[i] for i in sorted(b))
                    for b in graph_bases(vertices, edges)]


# ── description files ───────────────────────────────────────────────────────


def _graphic_doc(rng: random.Random, vertices: int,
                 edges: list[tuple[int, int]]) -> tuple[dict, list[str]]:
    """A graphic description file under a seeded vertex permutation, edge order
    and edge labelling; returns the doc and the labels in edge-index order."""
    perm = list(range(vertices))
    rng.shuffle(perm)
    order = list(range(len(edges)))
    rng.shuffle(order)
    names = [f"e{i}" for i in range(len(edges))]
    rng.shuffle(names)
    doc_edges = [[perm[edges[i][0]], perm[edges[i][1]], names[i]] for i in order]
    return {"type": "graphic", "vertices": vertices, "edges": doc_edges}, names


def _explicit_doc(rng: random.Random, ground: list[str],
                  bases: list[tuple[str, ...]]) -> tuple[dict, dict[str, str]]:
    """An explicit file with the ground set renamed and every list shuffled."""
    new = [f"x{i}" for i in range(len(ground))]
    rng.shuffle(new)
    rename = dict(zip(ground, new))
    doc_ground = new[:]
    rng.shuffle(doc_ground)
    doc_bases = [[rename[x] for x in b] for b in bases]
    for b in doc_bases:
        rng.shuffle(b)
    rng.shuffle(doc_bases)
    return {"type": "explicit", "ground": doc_ground, "bases": doc_bases}, rename


def _in_band(bases: list[frozenset[int]], band: dict) -> bool:
    if not bases:
        return False
    lo, hi = band["pairs"]
    if not lo <= adjacent_pair_count(bases) <= hi:
        return False
    if "cells" in band:
        lo, hi = band["cells"]
        return lo <= bound_profile(bases)[1] <= hi
    return True


def _random_graph(rng: random.Random, band: dict, automorphism_cap: int | None = None):
    pool = complete_graph(7)
    while True:
        edges = rng.sample(pool, band["edges"])
        if automorphism_cap and vertex_automorphisms(7, edges) > automorphism_cap:
            continue
        bases = graph_bases(7, edges)
        if _in_band(bases, band):
            return edges, bases


def _random_matrix(rng: random.Random, band: dict):
    (k, n), entry = band["shape"], band["entries"]
    while True:
        matrix = [[rng.randint(-entry, entry) for _ in range(n)] for _ in range(k)]
        bases = matrix_bases(matrix)
        if _in_band(bases, band):
            return matrix, bases


class Workload:
    """Collects description files and jobs for one workload."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.files: dict[str, dict] = {}
        self.jobs: list[dict] = []
        # per input: (labels by element index, bases as index sets) for pair picks
        self.structure: dict[str, tuple[list[str], list[frozenset[int]]]] = {}

    def graph(self, name: str, vertices: int, edges, bases=None) -> str:
        doc, names = _graphic_doc(self.rng, vertices, edges)
        self.files[name] = doc
        self.structure[name] = (names, bases or graph_bases(vertices, edges))
        return name

    def explicit(self, name: str, ground, bases) -> str:
        doc, rename = _explicit_doc(self.rng, ground, bases)
        self.files[name] = doc
        index = {x: i for i, x in enumerate(ground)}
        self.structure[name] = (
            [rename[x] for x in ground],
            [frozenset(index[x] for x in b) for b in bases])
        return name

    def linear(self, name: str, matrix, bases) -> str:
        labels = [f"c{i}" for i in range(len(matrix[0]))]
        self.files[name] = {"type": "linear", "labels": labels,
                            "matrix": [[str(x) for x in row] for row in matrix]}
        self.structure[name] = (labels, bases)
        return name

    def uniform(self, name: str, n: int, k: int) -> str:
        self.files[name] = {"type": "uniform", "n": n, "k": k}
        self.structure[name] = ([], [frozenset(c) for c in itertools.combinations(range(n), k)])
        return name

    def job(self, kind: str, name: str, *flags: str, golden: str | None = None) -> None:
        job = {"argv": [kind, "--input", name + ".json", *flags],
               "kind": kind, "golden": golden, "input": name}
        if kind == "curvature":
            job["expect_pairs"] = adjacent_pair_count(self.structure[name][1])
        self.jobs.append(job)

    def pair_queries(self, kind: str, names: list[str], count: int, csv_every: int = 0,
                     rng: random.Random | None = None) -> None:
        """`count` single-pair jobs on random adjacent pairs. With a fixed
        `rng` every seed asks the same pairs, up to the seeded relabelling."""
        rng = rng or self.rng
        for q in range(count):
            name = names[q % len(names)]
            labels, bases = self.structure[name]
            s, t = adjacent_pair(rng, bases, len(labels))
            flags = ["--s", ",".join(labels[i] for i in sorted(s)),
                     "--t", ",".join(labels[i] for i in sorted(t))]
            if csv_every and q % csv_every == csv_every - 1:
                flags += ["--format", "csv"]
            self.job(kind, name, *flags)


def build_workload(workload: str, seed: int) -> Workload:
    """Description files (`files`, name -> JSON doc), the ordered `jobs` and
    each input's `structure` (labels and bases) for the output checks."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    b = Workload(random.Random(f"{workload}:{seed}"))

    if workload == "bounds-large":
        b.graph("k6", 6, complete_graph(6))
        b.graph("k5", 5, complete_graph(5))
        b.explicit("k6-explicit", *graph_as_explicit(6, complete_graph(6)))
        b.uniform("u5-12", 12, 5)
        b.linear("linear", *_random_matrix(b.rng, LINEAR_BOUNDS))
        b.graph("graph7", 7, *_random_graph(b.rng, GRAPH_BOUNDS))
        b.job("curvature", "k6", golden="k6")
        b.job("curvature", "u5-12", golden="u5-12")
        b.job("curvature", "linear")
        b.job("curvature", "graph7")
        b.job("validate", "k6-explicit")
        b.job("validate", "linear")
        b.pair_queries("coupling", ["k5"], PAIR_QUERIES, csv_every=4,
                        rng=random.Random("k5 pairs"))

    elif workload == "exact-symmetric":
        for name, v, edges in (("k5", 5, complete_graph(5)),
                               ("k33", 6, complete_bipartite(3, 3)),
                               ("w5", 6, wheel(5)),
                               ("w6", 7, wheel(6)),
                               ("k24", 6, complete_bipartite(2, 4))):
            b.graph(name, v, edges)
        b.explicit("vamos", *vamos())
        b.explicit("fano", *fano())
        b.explicit("k4", *graph_as_explicit(4, complete_graph(4)))
        b.explicit("rank3", *rank3_counterexample())
        for name in ("k5", "k33", "w5", "w6", "vamos", "fano", "k4", "rank3"):
            b.job("curvature", name, "--exact", golden=name)
        for name in ("k4", "fano", "k24"):
            b.job("curvature", name, "--all-pairs", golden=name + "-all")
        b.pair_queries("pair", ["k5"], PAIR_QUERIES, csv_every=4,
                        rng=random.Random("k5 pairs"))

    else:
        names = [b.graph(f"graph{i}", 7, *_random_graph(b.rng, GRAPH_EXACT, AUTOMORPHISM_CAP))
                 for i in range(EXACT_GRAPHS)]
        for name in names:
            b.job("curvature", name, "--exact")
        b.pair_queries("pair", names, PAIR_QUERIES, csv_every=4)

    return b


def write_inputs(files: dict[str, dict], directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    for name, doc in files.items():
        with open(os.path.join(directory, name + ".json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

