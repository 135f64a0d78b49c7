"""Independent reference implementations used only by the tests.

These deliberately avoid the library's own algorithms: optimal transport by
brute-force enumeration of the transportation polytope's vertices, coupling
marginals and expected cost by plain Fraction sums over a dict, distances
by a plain dict-based BFS, adjacency and the basis exchange axiom by the
quadratic definitions, rank by Gaussian elimination over fractions, and
pair order by comparing sorted index tuples.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def transport_vertices(supply, demand):
    """Yield the basic feasible solutions of a balanced transportation problem.

    Vertices of the transportation polytope are the nonnegative tree
    solutions: enumerate every (m+n-1)-edge subset of the complete bipartite
    graph, keep the spanning trees, and solve each tree's flow exactly by
    leaf elimination. Intended for tiny problems (m, n <= 4 or so).
    """
    m, n = len(supply), len(demand)
    total = m + n
    edges = [(i, j) for i in range(m) for j in range(n)]
    for combo in combinations(edges, total - 1):
        parent = list(range(total))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        is_tree = True
        for i, j in combo:
            ri, rj = find(i), find(m + j)
            if ri == rj:
                is_tree = False
                break
            parent[ri] = rj
        if not is_tree:
            continue

        remaining = [Fraction(s) for s in supply] + [Fraction(d) for d in demand]
        incident = {v: [] for v in range(total)}
        for idx, (i, j) in enumerate(combo):
            incident[i].append((m + j, idx))
            incident[m + j].append((i, idx))
        used = [False] * len(combo)
        gone = [False] * total
        flows = [Fraction(0)] * len(combo)
        stack = [v for v in range(total)
                 if sum(1 for _, idx in incident[v] if not used[idx]) == 1]
        feasible = True
        while stack:
            v = stack.pop()
            if gone[v]:
                continue
            live = [(w, idx) for w, idx in incident[v] if not used[idx] and not gone[w]]
            if len(live) != 1:
                continue
            w, idx = live[0]
            flows[idx] = remaining[v]
            if flows[idx] < 0:
                feasible = False
                break
            remaining[w] -= remaining[v]
            used[idx] = True
            gone[v] = True
            stack.append(w)
        if feasible:
            yield {combo[idx]: flows[idx] for idx in range(len(combo))}


def min_cost_by_vertices(supply, demand, cost) -> Fraction:
    """Exact transportation optimum as a minimum over polytope vertices."""
    best = None
    for flow in transport_vertices(supply, demand):
        value = sum((q * cost[i][j] for (i, j), q in flow.items()), Fraction(0))
        if best is None or value < best:
            best = value
    assert best is not None, "balanced problem must have at least one vertex"
    return best


def network_simplex_value(supply, demand, cost):
    """Optimal transportation cost via networkx; exact for int or Fraction data."""
    import networkx as nx

    g = nx.DiGraph()
    for i, s in enumerate(supply):
        g.add_node(("r", i), demand=-s)
    for j, d in enumerate(demand):
        g.add_node(("c", j), demand=d)
    for i in range(len(supply)):
        for j in range(len(demand)):
            g.add_edge(("r", i), ("c", j), weight=cost[i][j])
    value, _ = nx.network_simplex(g)
    return value


def coupling_cost(masses, mu, nu, dist):
    """Expected cost of a coupling of mu and nu, or None if it is not one.

    masses is a plain {(x, y): mass} dict, mu and nu are {point: mass}
    dicts. A coupling has nonnegative masses whose row sums are exactly mu
    and whose column sums are exactly nu; zero entries are ignored.
    """
    rows, cols = {}, {}
    for (x, y), q in masses.items():
        if q < 0:
            return None
        rows[x] = rows.get(x, 0) + q
        cols[y] = cols.get(y, 0) + q

    def nonzero(d):
        return {key: q for key, q in d.items() if q}

    if nonzero(rows) != nonzero(mu) or nonzero(cols) != nonzero(nu):
        return None
    return sum((q * dist(x, y) for (x, y), q in masses.items()), Fraction(0))


def cell_masses(cells):
    """Sum the masses of coupling cells (objects with x, y, mass) per (x, y)."""
    out = {}
    for c in cells:
        out[(c.x, c.y)] = out.get((c.x, c.y), 0) + c.mass
    return out


def bfs_distances(adjacency, source):
    """Plain BFS over a dict of adjacency sets."""
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adjacency[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def quadratic_adjacent_pairs(bases):
    """All unordered adjacent pairs by the definition, O(|B|^2)."""
    order = sorted(bases)
    out = set()
    for i, x in enumerate(order):
        for y in order[i + 1:]:
            if (x ^ y).bit_count() == 2:
                out.add((x, y))
    return out


def index_tuple(mask):
    """Sorted indices of the set bits of mask."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def failing_exchange_triples(bases):
    """Every failing (B1, B2, u) of the basis exchange axiom, in order.

    The definition over every ordered pair of bases, O(|B|^2 k^2): B1 and
    B2 in sorted-index-tuple order, then u ascending. A triple fails when
    u is in B1 - B2 and no y in B2 - B1 makes (B1 - u) + y a basis.
    """
    family = set(bases)
    order = sorted(family, key=index_tuple)
    for b1 in order:
        for b2 in order:
            for u in index_tuple(b1 & ~b2):
                if is_failing_triple(family, (b1, b2, u)):
                    yield b1, b2, u


def is_failing_triple(bases, triple):
    """Whether (B1, B2, u) is a genuine counterexample to the exchange axiom."""
    b1, b2, u = triple
    if b1 not in bases or b2 not in bases or not (b1 & ~b2) >> u & 1:
        return False
    rest = b1 & ~(1 << u)
    return not any(rest | 1 << y in bases for y in index_tuple(b2 & ~b1))


def quadratic_exchange_check(bases):
    """The first failing triple of failing_exchange_triples, or None."""
    return next(failing_exchange_triples(bases), None)


def fraction_matrix_rank(rows) -> int:
    """Rank by exact Gauss-Jordan elimination over Fraction."""
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return 0
    height, width = len(m), len(m[0])
    rank = 0
    for col in range(width):
        pivot = next((r for r in range(rank, height) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = Fraction(1) / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(height):
            if r != rank and m[r][col]:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == height:
            break
    return rank


def sorted_index_pairs(pairs):
    """Orient and sort basis-mask pairs by their sorted index tuples."""

    oriented = [(x, y) if index_tuple(x) <= index_tuple(y) else (y, x) for x, y in pairs]
    return sorted(oriented, key=lambda p: (index_tuple(p[0]), index_tuple(p[1])))
