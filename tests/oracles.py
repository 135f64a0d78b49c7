"""Independent reference implementations used only by the tests.

These deliberately avoid the library's own algorithms: optimal transport by
brute-force enumeration of the transportation polytope's vertices, on the
full (unreduced) problem, coupling marginals and expected cost by plain
Fraction sums over a dict, the walk kernel by Fraction sums over its
definition, distances by a plain dict-based BFS, adjacency and the basis
exchange axiom by the quadratic definitions, rank by Gaussian elimination
over fractions, spanning forests by testing every k-subset of the edges
with its own union-find, linear bases by ranking every k-subset of the
columns (the construction's route before its minor pass), the origin hash
by sorting the family afresh, the pair counts of the automorphism search
by testing two bits of every basis,
pair order by comparing sorted index tuples, a pair frame's exchange
from the symmetric difference of its two bases, matroid automorphisms
by extending element maps one element at a time, the search's leaf check
by mapping every basis element by element, cocircuits as the minimal sets
that meet every basis, by a scan of all subsets, the closed-form
pair bounds by Fraction sums over the witness's drops, and the coupling
report by one Fraction per cell of the coupling's drops. The test-only
helpers at the end (the unpruned exact sweep, the pruned sweep's solve
order from the Fraction bounds, the distance proposition,
the distribution rendering and masses, the random-matroid and
explicit-family strategies, the
exchange distance between bases, basis membership by labels, one
exchange neighbourhood by membership tests and the vector realization of
the rank-3 catalog matroid) use the public library API, and
DISTINGUISHED_PAIRS names the catalog pairs the tests pin down.
"""

from __future__ import annotations

import hashlib
import json
from collections import namedtuple
from fractions import Fraction
from itertools import combinations, product
from math import lcm

import curvatroid as cv
from curvatroid import curvature, matroid
from curvatroid.catalog import RANK3_GROUND
from curvatroid.walk import exchange_distance

# one distinguished adjacent pair (label sets) per catalog entry whose
# couplings and witness tables the tests pin down
DISTINGUISHED_PAIRS = {
    "k4": (("ab", "cd", "da"), ("bd", "cd", "da")),
    "k6": (("s", "1", "2", "3", "4"), ("t", "1", "2", "3", "4")),
    "rank3-counterexample": (("s", "u", "u'"), ("t", "u", "u'")),
}


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
    """Sum the masses of coupling cells (CouplingCell records) per (x, y)."""
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


def graphic_bases_by_subsets(spec):
    """Spanning forests of a graphic spec as masks, in index-tuple order.

    k is the size of a greedy spanning forest; every k-subset of the edges
    is then tested from scratch by a union-find of its own, and kept when no
    edge of it closes a cycle. A graph of loops only gives k = 0 and no
    bases.
    """
    def forest_size(edges):
        parent = {}

        def find(a):
            while parent.get(a, a) != a:
                a = parent[a]
            return a

        size = 0
        for a, b in edges:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
                size += 1
        return size

    ends = [(a, b) for a, b, _ in spec.edges]
    k = forest_size(ends)
    if k == 0:
        return []
    return [sum(1 << i for i in combo)
            for combo in combinations(range(len(ends)), k)
            if forest_size([ends[i] for i in combo]) == k]


def linear_bases_by_subsets(spec):
    """Bases of a linear spec as index tuples, in lexicographic order.

    k is the rank of the whole matrix, and every k-subset of the columns is
    kept when its own submatrix has rank k, by the integer rank that
    test_integer_rank_matches_fraction_elimination checks.
    """
    def rank(rows):
        return matroid._integer_rank(matroid._integer_rows(rows))

    rows = spec.matrix
    width = len(rows[0])
    k = rank(rows)
    return [combo for combo in combinations(range(width), k)
            if rank([[row[c] for c in combo] for row in rows]) == k]


def origin_hash_by_sort(m):
    """SHA-256 of the canonical description, the family sorted afresh."""
    doc = {"labels": list(m.labels), "rank": m.rank,
           "bases": [list(index_tuple(b)) for b in sorted(m.bases, key=index_tuple)]}
    return hashlib.sha256(json.dumps(doc, separators=(",", ":")).encode()).hexdigest()


def pair_counts_by_bases(m):
    """P[e][f], the number of bases that hold both e and f (P[e][e]: the
    number that hold e), counted basis by basis."""
    return [[sum(1 for b in m.bases if b >> e & 1 and b >> f & 1) for f in range(m.n)]
            for e in range(m.n)]


def basis_check(perm, bases):
    """Whether perm maps every basis to a basis, element by element: the
    leaf check of the automorphism search before it read the cocircuits."""
    return all(sum(1 << perm[e] for e in index_tuple(b)) in bases for b in bases)


def cocircuits_by_subsets(m):
    """The cocircuits of m as the minimal sets that meet every basis, by a
    scan of the subsets of the ground set in order of size."""
    found = []
    for size in range(1, m.n + 1):
        for c in combinations(range(m.n), size):
            s = sum(1 << e for e in c)
            if not any(f & s == f for f in found) and all(s & b for b in m.bases):
                found.append(s)
    return set(found)


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


def frame_by_symmetric_difference(s, t):
    """(s_elem, t_elem, shared) of bases s, t differing in two elements:
    the symmetric difference holds one element of each, and shared is the
    sorted index tuple of the rest."""
    diff = s ^ t
    assert diff.bit_count() == 2, "not a single exchange"
    (s_elem,) = index_tuple(diff & s)
    (t_elem,) = index_tuple(diff & t)
    return s_elem, t_elem, index_tuple(s & t)


def swapped(frame):
    """The same pair seen from T: the frame of (T, S)."""
    return cv.PairFrame(frame.t_basis, frame.s_basis)


def sorted_index_pairs(pairs):
    """Orient and sort basis-mask pairs by their sorted index tuples."""

    oriented = [(x, y) if index_tuple(x) <= index_tuple(y) else (y, x) for x, y in pairs]
    return sorted(oriented, key=lambda p: (index_tuple(p[0]), index_tuple(p[1])))


FullProblem = namedtuple("FullProblem", "row_keys col_keys supply demand cost")


def set_difference_size(x, y):
    """|X - Y| for two masks, from their index tuples."""
    return len(set(index_tuple(x)) - set(index_tuple(y)))


def full_transport_problem(mu, nu, dist=set_difference_size):
    """The unreduced transportation problem between two distributions.

    Rows and columns are the full supports in sorted-index-tuple order, with
    Fraction masses and cost dist(x, y) (default |X - Y|); no shared mass
    is fixed, so the optimum of this problem is W1 by definition.
    """
    rows = support(mu)
    cols = support(nu)
    return FullProblem(rows, cols, [mass(mu, x) for x in rows],
                       [mass(nu, y) for y in cols],
                       [[dist(x, y) for y in cols] for x in rows])


def as_transport_problem(full):
    """The unreduced problem in integers over its common denominator, with
    no shared mass fixed, so wasserstein1 routes every unit; its costs are
    full.cost as given, any nonnegative ints."""
    scale = lcm(*(q.denominator for q in full.supply + full.demand))
    return cv.TransportProblem(
        tuple(full.row_keys), tuple(full.col_keys),
        tuple(int(q * scale) for q in full.supply),
        tuple(int(q * scale) for q in full.demand),
        tuple(map(tuple, full.cost)), scale)


def fraction_kernel(m, s):
    """The down-up walk's row at basis s, {basis: Fraction}, by definition.

    Drop each element u of s with probability 1/k, then move to each basis
    containing s - u with probability 1 / #(bases containing s - u); the
    bases are found by scanning the whole family.
    """
    k = m.rank
    out = {}
    for u in index_tuple(s):
        hole = s & ~(1 << u)
        targets = [b for b in m.bases if b & hole == hole]
        for b in targets:
            out[b] = out.get(b, Fraction(0)) + Fraction(1, k * len(targets))
    return out


def automorphisms(m):
    """Every automorphism of m, as tuples p with p[e] the image of e.

    Brute force: P[e][f] counts the bases containing e and f (by a scan of
    the family), element maps are extended one element at a time while they
    preserve P on the elements mapped so far, and a complete map is kept
    only if it sends every basis to a basis.
    """
    n = m.n
    bases = set(m.bases)
    counts = [[sum(1 for b in bases if b >> e & 1 and b >> f & 1) for f in range(n)]
              for e in range(n)]
    found = []

    def extend(perm):
        e = len(perm)
        if e == n:
            if all(sum(1 << perm[i] for i in index_tuple(b)) in bases for b in bases):
                found.append(tuple(perm))
            return
        for x in range(n):
            if x in perm or counts[x][x] != counts[e][e]:
                continue
            if all(counts[x][perm[f]] == counts[e][f] for f in range(e)):
                extend(perm + [x])

    extend([])
    return found


def group_order(generators, n):
    """The order of the permutation group the tuples generate, by the
    Schreier-Sims algorithm (Sims 1970), for groups too large to list.

    Row i of the table holds, for each image of i under the pointwise
    stabilizer of 0, ..., i-1, one element taking i there. An element is
    sifted through the rows from the first point it may move; a residue
    that stops at row i becomes that row's element for its image of i and a
    generator at level i. Every product of a generator with a row element
    at a level no deeper than the generator's is sifted in turn. When none
    is left each row is an orbit and the stabilizers are generated by the
    deeper rows (Schreier's lemma), so the order is the product of the row
    sizes.
    """
    identity = tuple(range(n))

    def mul(p, q):  # q first, then p
        return tuple(p[x] for x in q)

    def inverse(p):
        out = [0] * n
        for x, y in enumerate(p):
            out[y] = x
        return tuple(out)

    rows = [{i: identity} for i in range(n)]
    kept = []  # (level, generator); a generator at level i fixes 0, ..., i-1
    work = [(0, g) for g in generators]  # (level, element fixing 0, ..., level-1)
    while work:
        level, p = work.pop()
        for i in range(level, n):
            element = rows[i].get(p[i])
            if element is None:
                break
            p = mul(inverse(element), p)
        else:
            continue
        rows[i][p[i]] = p
        kept.append((i, p))
        work += [(row, mul(p, element)) for row in range(i + 1)
                 for element in rows[row].values()]
        work += [(i, mul(g, p)) for at, g in kept if at >= i]
    order = 1
    for row in rows:
        order *= len(row)
    return order


def fraction_downstep_lb(m, frame, witness):
    """The pair's down-step lower bound in Fraction arithmetic: 1/k minus
    (number of crossing drops)/k plus, per crossing drop u,
    (1 + overlap)/(k max) + 1/(k min), max and min over #N(S-u), #N(T-u).
    """
    k = m.rank
    total = Fraction(1, k) - Fraction(len(witness), k)
    for e in witness:
        hi = max(e.ns_size, e.nt_size)
        lo = min(e.ns_size, e.nt_size)
        total += Fraction(1 + e.overlap_size, k * hi) + Fraction(1, k * lo)
    return total


def fraction_theorem_ub_values(m, frame, witness):
    """(forward, reverse) per-pair upper bounds in Fraction arithmetic.

    Forward: 1/k + (1/k) * sum over crossing drops of
    (1/#N(T-u) - #onlyS/#N(S-u)), with onlyS = N(S-u) - N(T-u) - t and
    both completion sets found by membership tests, so only the crossing
    drops come from the witness; reverse swaps the roles of S and T.
    """
    k = m.rank
    s_bit, t_bit = 1 << frame.s_elem, 1 << frame.t_elem
    forward = reverse = Fraction(1, k)
    for e in witness:
        ns = exchange_neighborhood(m, frame.s_basis, e.drop)
        nt = exchange_neighborhood(m, frame.t_basis, e.drop)
        s_only = (ns & ~nt & ~t_bit).bit_count()
        t_only = (nt & ~ns & ~s_bit).bit_count()
        forward += Fraction(1, k * nt.bit_count()) - Fraction(s_only, k * ns.bit_count())
        reverse += Fraction(1, k * ns.bit_count()) - Fraction(t_only, k * nt.bit_count())
    return forward, reverse


CouplingCell = namedtuple(
    "CouplingCell", "drop_from_s drop_from_t add_to_s add_to_t x y mass distance")


def fraction_cells(cells):
    """Flat integer coupling cells, (drop from S, drop from T, add to S, add
    to T, X, Y, weight, denominator) as DownstepCoupling.cells lists them,
    as CouplingCell records: each mass a Fraction of the weight over the
    denominator, each distance |X - Y| from index tuples."""
    return tuple(CouplingCell(drop_s, drop_t, add_s, add_t, x, y, Fraction(w, denominator),
                              set_difference_size(x, y))
                 for drop_s, drop_t, add_s, add_t, x, y, w, denominator in cells)


def fraction_coupling_cells(m, frame):
    """The down-step coupling as one CouplingCell per cell (fraction_cells),
    read straight off the drops of _coupling_drops."""
    return fraction_cells(
        (drop_s, drop_t, add_s, add_t, x, y, w, denominator)
        for drop_s, drop_t, denominator, cells in curvature._coupling_drops(m, frame)
        for add_s, add_t, x, y, w in cells)


def fraction_coupling_report(m, frame, with_decimal=False):
    """(report object, expected distance) of the coupling command, built
    cell by cell from fraction_coupling_cells with str(Fraction) masses and
    labels read off index tuples. The expected distance is the Fraction sum
    of mass times distance over the cells, not the library's integer sum."""
    labels = m.labels

    def names(mask):
        return [labels[i] for i in index_tuple(mask)]

    cells = fraction_coupling_cells(m, frame)
    expected = sum((c.mass * c.distance for c in cells), Fraction(0))
    obj = {"version": cv.__version__, "origin": m.origin, "originHash": m.origin_hash()}
    obj["frame"] = {"S": names(frame.s_basis), "T": names(frame.t_basis),
                    "s": labels[frame.s_elem], "t": labels[frame.t_elem],
                    "shared": [labels[u] for u in frame.shared]}
    obj["cells"] = []
    for c in cells:
        cell = {"dropS": labels[c.drop_from_s], "dropT": labels[c.drop_from_t],
                "addS": labels[c.add_to_s], "addT": labels[c.add_to_t],
                "x": names(c.x), "y": names(c.y), "distance": c.distance,
                "mass": str(c.mass)}
        if with_decimal:
            cell["massApprox"] = cv.approx_decimal(c.mass)
        obj["cells"].append(cell)
    obj["expectedDistance"] = str(expected)
    if with_decimal:
        obj["expectedDistanceApprox"] = cv.approx_decimal(expected)
        obj["decimalsAreApproximate"] = True
    return obj, expected


def unpruned_global_curvature(m):
    """(kappa, argmin pair) by solving every pair whose two bounds differ.

    The exact sweep's route before bound pruning: every adjacent pair gets
    its value (the shared bound when the two agree, a transport solve
    otherwise), then the minimum and the first canonical pair reaching it.
    A family without adjacent pairs gives (1, None).
    """
    pairs = cv.canonical_pairs(m)
    kappas = []
    for x, y in pairs:
        frame = cv.PairFrame(x, y)
        witness = cv.compute_pair_witness(m, frame)
        lb = fraction_downstep_lb(m, frame, witness)
        ub = min(fraction_theorem_ub_values(m, frame, witness))
        kappas.append(lb if lb == ub else cv.exact_pair_curvature(m, frame))
    if not pairs:
        return Fraction(1), None
    kappa = min(kappas)
    return kappa, pairs[kappas.index(kappa)]


def pruned_solve_order(m):
    """The canonical pairs the pruned exact sweep solves when it has no
    automorphisms, in solve order.

    Pairs are taken by ascending (downstepLB, canonical index), both bounds
    in Fraction arithmetic. The walk stops at the first pair with
    downstepLB > kappa, or with downstepLB == kappa after the argmin, and
    solves every pair before that whose two bounds differ. Here (kappa,
    argmin) are the final ones of the unpruned sweep: every pair before the
    argmin in this order has downstepLB <= kappa, so the sweep's running
    minimum never stops earlier and equals (kappa, argmin) from there on.
    """
    kappa, argmin = unpruned_global_curvature(m)
    pairs = cv.canonical_pairs(m)
    order = []
    for i, (x, y) in enumerate(pairs):
        frame = cv.PairFrame(x, y)
        witness = cv.compute_pair_witness(m, frame)
        order.append((fraction_downstep_lb(m, frame, witness), i,
                      min(fraction_theorem_ub_values(m, frame, witness))))
    last = pairs.index(argmin) if argmin else None
    solved = []
    for lb, i, ub in sorted(order):
        if lb > kappa or (lb == kappa and i > last):
            break
        if lb != ub:
            solved.append(pairs[i])
    return solved


def small_specs():
    """Hypothesis strategy for a random small matroid spec.

    Uniform on at most 7 elements, graphic on 2..5 vertices with at most 7
    edges (loops and parallel edges allowed, not loops only), or linear over
    an at most 4 x 7 integer matrix with entries in -2..2, not all zero.
    """
    import hypothesis
    from hypothesis import strategies as st

    @st.composite
    def specs(draw):
        kind = draw(st.sampled_from(("uniform", "graphic", "linear")))
        if kind == "uniform":
            n = draw(st.integers(2, 7))
            return cv.UniformSpec(n=n, k=draw(st.integers(1, n - 1)))
        if kind == "graphic":
            v = draw(st.integers(2, 5))
            ends = draw(st.lists(st.tuples(st.integers(0, v - 1), st.integers(0, v - 1)),
                                 min_size=1, max_size=7))
            hypothesis.assume(any(a != b for a, b in ends))
            return cv.GraphicSpec(vertex_count=v, edges=tuple(
                (a, b, f"e{i}") for i, (a, b) in enumerate(ends)))
        height = draw(st.integers(1, 4))
        width = draw(st.integers(2, 7))
        matrix = draw(st.lists(st.lists(st.integers(-2, 2).map(Fraction),
                                        min_size=width, max_size=width),
                               min_size=height, max_size=height))
        hypothesis.assume(any(any(row) for row in matrix))
        return cv.LinearSpec(matrix=tuple(map(tuple, matrix)))

    return specs()


def as_permuted_explicit(m, order):
    """m as an explicit spec whose ground set lists m's labels in the given
    order of its elements, so element e of the result is m's order[e]."""
    return cv.ExplicitSpec(ground=tuple(m.labels[e] for e in order),
                           bases=tuple(m.labels_of(b) for b in m.sorted_bases()))


def permuted_explicit_specs():
    """Hypothesis strategy: a small_specs() matroid rewritten as an explicit
    spec over a permuted ground set, the shape of a relabelled explicit
    file."""
    from hypothesis import strategies as st

    @st.composite
    def specs(draw):
        m = cv.build_matroid(draw(small_specs()))
        return as_permuted_explicit(m, draw(st.permutations(range(m.n))))

    return specs()


def explicit_families():
    """Hypothesis strategy for a nonempty family of k-subsets of at most 6
    elements, as an explicit spec; most such families are not matroids."""
    from hypothesis import strategies as st

    @st.composite
    def families(draw):
        ground = tuple("abcdef"[:draw(st.integers(2, 6))])
        subsets = list(combinations(ground, draw(st.integers(1, len(ground) - 1))))
        bases = draw(st.lists(st.sampled_from(subsets), min_size=1, unique=True))
        return cv.ExplicitSpec(ground=ground, bases=tuple(bases))

    return families()


def mass(dist, b):
    """Exact mass of basis b under a distribution, 0 off its support."""
    return Fraction(dist.weights.get(b, 0), dist.denominator)


def masses(dist):
    """Every support entry of a distribution with its exact mass."""
    return {b: mass(dist, b) for b in dist.weights}


def support(dist):
    """The support of a distribution in sorted-index-tuple order."""
    return sorted(dist.weights, key=index_tuple)


def items_sorted(dist):
    """(basis, Fraction mass) for the support of a distribution, in order."""
    return [(b, mass(dist, b)) for b in support(dist)]


def distribution_to_obj(m, dist):
    """A distribution as report rows: labels and "p/q" mass per basis."""
    return [{"basis": list(m.labels_of(b)), "mass": str(mass(dist, b))}
            for b in support(dist)]


def proposition_distance_check(m, frame, u, a=None):
    """Verify that an S-only add lands far from T's one-step range.

    For a crossing drop u and a in (N(S-u) - t) \\ N(T-u), the basis S-u+a
    must be at distance >= 2 from every neighbor of T except T-u+s, T-t+s
    and T-t+a (those that are bases). With a=None every such a is checked;
    a vacuous pass is reported when there are none.
    """
    entry = next((e for e in cv.compute_pair_witness(m, frame) if e.drop == u), None)
    if entry is None:
        raise cv.CurvatroidError(f"{m.labels[u]!r} is not a crossing drop")
    adds_mask = entry.s_only_adds
    if a is None:
        adds = list(cv.bits(adds_mask))
        if not adds:
            return cv.ValidationResult.passed("no one-sided adds: vacuous")
    else:
        if not adds_mask & (1 << a):
            raise cv.CurvatroidError(f"{m.labels[a]!r} is not a one-sided add for this drop")
        adds = [a]

    t = frame.t_basis
    neighbors = []
    for x in cv.bits(t):
        for y in cv.bits(exchange_neighborhood(m, t, x)):
            if y != x:
                neighbors.append((t ^ (1 << x)) | (1 << y))
    u_bit = 1 << u
    s_bit = 1 << frame.s_elem
    t_bit = 1 << frame.t_elem
    for cand in adds:
        probe = (frame.s_basis ^ u_bit) | (1 << cand)
        exceptions = {(t ^ u_bit) | s_bit, (t ^ t_bit) | s_bit}
        with_a = (t ^ t_bit) | (1 << cand)
        if with_a in m.bases:
            exceptions.add(with_a)
        for z in neighbors:
            if z in exceptions:
                continue
            if distance(m, probe, z) < 2:
                return cv.ValidationResult.failed(
                    f"{m.labels_of(probe)} is near neighbor {m.labels_of(z)}",
                    witness=(probe, z),
                )
    return cv.ValidationResult.passed(f"checked {len(adds)} add(s) against "
                                      f"{len(neighbors)} neighbors")


class ElementNotInBasis(cv.CurvatroidError):
    """Asked to drop an element from a basis that does not contain it."""


def distance(m, x, y):
    """Exchange-graph distance |X - Y| between two bases of m; NotABasis
    when either set is not a basis."""
    if x not in m.bases or y not in m.bases:
        raise cv.NotABasis("distance is defined between bases only")
    return exchange_distance(x, y)


def is_basis(m, labels):
    """Whether the elements named by labels form a basis of m."""
    return m.mask_from_labels(labels) in m.bases


def exchange_neighborhood(m, b, u):
    """Bitmask of the elements x with (b - u) + x a basis, by one membership
    test per element: always contains u and avoids b - u."""
    if b not in m.bases:
        raise cv.NotABasis(f"{m.labels_of(b) if not b >> m.n else b} is not a basis")
    if not b >> u & 1:
        raise ElementNotInBasis(f"element {m.labels[u]!r} not in the given basis")
    rest = b ^ 1 << u
    return sum(1 << x for x in range(m.n) if rest | 1 << x in m.bases)


def rank3_counterexample_linear_spec():
    """Vector realization of the rank-3 catalog matroid.

    Columns (in ground order): s = e1, t = e2, u = e3, u' = e1+e2+e3, each
    v_i a repeat of t's vector and each w_i a repeat of s's vector. Repeated
    columns are distinct parallel elements.
    """
    e1 = (1, 0, 0)
    e2 = (0, 1, 0)
    e3 = (0, 0, 1)
    usum = (1, 1, 1)
    cols = [e1, e2, e3, usum] + [e2] * 5 + [e1] * 5
    matrix = tuple(tuple(Fraction(cols[c][r]) for c in range(len(cols)))
                   for r in range(3))
    return cv.LinearSpec(matrix=matrix, labels=RANK3_GROUND)


def direct_sum(*ms):
    """The direct sum of the given matroids as an explicit family: summand
    i's labels prefixed by "i.", and each basis the union of one basis of
    every summand."""
    parts = [[tuple(f"{i}.{label}" for label in m.labels_of(b)) for b in m.sorted_bases()]
             for i, m in enumerate(ms)]
    return cv.build_matroid(cv.ExplicitSpec(
        ground=tuple(f"{i}.{label}" for i, m in enumerate(ms) for label in m.labels),
        bases=tuple(sum(choice, ()) for choice in product(*parts))))
