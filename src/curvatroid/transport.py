"""Exact 1-Wasserstein distance between basis distributions.

Both marginals carry integer weights over a denominator; they are scaled
once to the least common multiple of the two denominators. Costs are
exchange distances |X - Y| (walk.exchange_distance), nonnegative ints; by
the triangle inequality the shared mass min(mu, nu) is fixed in place
before any cost is evaluated, and the problem keeps only the residual rows
and columns, in ascending mask order.

The integer transportation problem is solved by a primal-dual method that
works in phases (Ahuja, Magnanti and Orlin, Network Flows, 1993, ch. 9.8),
warm-started: the column potentials start at the column minima min_i c_ij
and the row potentials at zero, a dual feasible point at which every column
has a tight arc. Each phase first ships every row's remaining supply along
its tight arcs (reduced cost zero) straight into columns still short of
demand, then augments along tight residual arcs by depth-first search with
current-arc pointers that persist through the phase, until every source is
spent or finds no tight path. If supply is left, one Dijkstra on reduced
costs from every source with supply left stops at the first sink still
short of its demand and raises the node potentials by min(distance, that
sink's distance), and the next phase begins. A path the search misses only
costs one more phase. Over the 930 adjacent-pair problems of K5 this takes
0.89 Dijkstra runs per solve.

Every solve is checked by an integer optimality certificate: the potentials
give a dual (u, v) of the transportation LP, and verify_transport_certificate
confirms the flow's marginals, dual feasibility u_i + v_j <= c_ij on every
cell, and equal primal and dual objectives. Weak duality then proves the
flow optimal without trusting the solver; a failure raises CurvatroidError.

The solver scans nodes in the problem's row and column order and keeps no
state between calls, so it is deterministic and concurrent calls are safe.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from math import lcm
from operator import sub
from typing import Mapping, NamedTuple

from .errors import CurvatroidError, UnbalancedMarginals, ValidationResult
from .matroid import Mask
from .walk import Distribution, exchange_distance


class TransportProblem(NamedTuple):
    """The residual integer transportation problem between two distributions.

    row_keys and col_keys are the residual supports in ascending mask order;
    supply[i] and demand[j] are their residual weights over the common
    denominator scale, and cost[i][j] is the exchange distance from
    row_keys[i] to col_keys[j]. A problem built by hand must carry
    nonnegative int costs; wasserstein1 solves it as given.
    """

    row_keys: tuple[Mask, ...]
    col_keys: tuple[Mask, ...]
    supply: tuple[int, ...]
    demand: tuple[int, ...]
    cost: tuple[tuple[int, ...], ...]  # nonnegative ints
    scale: int

    @classmethod
    def from_distance(cls, mu: Distribution, nu: Distribution) -> "TransportProblem":
        """Scale both marginals to one denominator, fix the shared mass
        min(mu, nu) in place, and price the residual cells only, each by
        exchange_distance.

        The exchange distance is a metric (zero on the diagonal, with the
        triangle inequality), which makes fixing the shared mass
        value-neutral, and a popcount, so every cost is a nonnegative int.
        Both totals equal scale, since a Distribution's weights sum to its
        denominator; the solver's balance check raises UnbalancedMarginals
        should they not. The name is kept because the benchmark's
        transport.cost span traces it.
        """
        scale = lcm(mu.denominator, nu.denominator)
        a, b = scale // mu.denominator, scale // nu.denominator
        rows, supply = _residual(mu.weights, a, nu.weights, b)
        cols, demand = _residual(nu.weights, b, mu.weights, a)
        cost = tuple([tuple([exchange_distance(x, y) for y in cols]) for x in rows])
        return cls(rows, cols, supply, demand, cost, scale)


def _residual(own: Mapping[Mask, int], a: int, other: Mapping[Mask, int],
              b: int) -> tuple[tuple[Mask, ...], tuple[int, ...]]:
    """The keys where own * a exceeds other * b, ascending, and the excess."""
    keys, excess = [], []
    get = other.get
    for x in sorted(own):
        r = own[x] * a - get(x, 0) * b
        if r > 0:
            keys.append(x)
            excess.append(r)
    return tuple(keys), tuple(excess)


# ── integer min-cost transportation ─────────────────────────────────────────

_INF = float("inf")


def _solve_integer_transport(
        supply: list[int], demand: list[int], cost: list[list[int]],
) -> tuple[dict[tuple[int, int], int], list[int], list[int]]:
    """Min-cost flow for the balanced transportation problem, all integers.

    Returns the flow {(row, col): units} and the dual (u, v) read off the
    final potentials, u_i = -pot(row i) and v_j = pot(col j). Reduced costs
    c_ij + pot(row i) - pot(col j) stay nonnegative throughout, so every
    arc carrying flow is tight; that is complementary slackness, which
    verify_transport_certificate checks. Nodes: 0..m-1 rows, m..m+n-1 cols.
    Costs are nonnegative ints: exchange distances, or those a hand-built
    problem carries. The potentials start dual feasible at pot(row i) = 0
    and pot(col j) = min_i c_ij, which leaves every column one tight arc
    or more. Before each blocking flow,
    the first included, every row with supply left ships along its tight
    arcs straight into columns still short of demand, in column order.
    """
    m, n = len(supply), len(demand)
    pending = sum(supply)
    if pending != sum(demand):
        raise UnbalancedMarginals(
            f"supplies {pending} != demands {sum(demand)} after scaling")
    left = supply[:]
    need = demand[:]
    into = [[0] * m for _ in range(n)]  # into[j][i]: flow on cell (i, j)
    pot = [0] * m + list(map(min, zip(*cost)))
    col_nodes = range(m, m + n)
    while True:
        # direct fill: tight arcs from rows with supply left into deficit
        # columns; the tight arc lists are kept for the blocking flow
        tight: list[list[int] | None] = [None] * m
        col_pot = pot[m:]
        for i in range(m):
            if left[i]:
                pi = pot[i]
                arcs = tight[i] = [w for w, c, pw in zip(col_nodes, cost[i], col_pot)
                                   if c + pi == pw]
                for w in arcs:
                    q = need[w - m]
                    if q:
                        if q > left[i]:
                            q = left[i]
                        need[w - m] -= q
                        into[w - m][i] += q
                        left[i] -= q
                        pending -= q
                        if not left[i]:
                            break
        if not pending:
            break

        # blocking flow along tight arcs; a node whose arcs run out is dead
        # for the rest of the phase
        ptr = [0] * (m + n)
        dead = [False] * (m + n)
        on_path = [False] * (m + n)

        def send(v: int, limit: int) -> int:
            """Push up to limit units from node v to deficit sinks."""
            on_path[v] = True
            sent = 0
            k = ptr[v]
            if v < m:
                arcs = tight[v]
                if arcs is None:
                    pv = pot[v]
                    arcs = tight[v] = [w for w, c, pw in zip(col_nodes, cost[v], col_pot)
                                       if c + pv == pw]
                while k < len(arcs):
                    w = arcs[k]
                    if not (dead[w] or on_path[w]):
                        q = send(w, limit - sent)
                        into[w - m][v] += q
                        sent += q
                        if sent == limit:
                            break
                    k += 1
            else:
                j = v - m
                if need[j]:
                    sent = min(limit, need[j])
                    need[j] -= sent
                col = into[j]
                while sent < limit and k < m:
                    if col[k] and not (dead[k] or on_path[k]):
                        q = send(k, min(limit - sent, col[k]))
                        col[k] -= q
                        sent += q
                        if sent == limit:
                            break
                    k += 1
            ptr[v] = k
            on_path[v] = False
            if sent < limit:
                dead[v] = True
            return sent

        for s in range(m):
            if left[s] and not dead[s]:
                q = send(s, left[s])
                left[s] -= q
                pending -= q
        if not pending:
            break

        # Dijkstra from every live source until the first deficit sink;
        # backward arcs (col -> row along positive flow) are tight
        dist: list[float] = [_INF] * (m + n)
        done = [False] * (m + n)
        heap = []
        for i in range(m):
            if left[i]:
                dist[i] = 0
                heap.append((0, i))
        reach = -1
        while heap:
            d, v = heappop(heap)
            if done[v]:
                continue
            done[v] = True
            if v < m:
                base = d + pot[v]
                w = m
                for c in cost[v]:
                    nd = base + c - pot[w]
                    if nd < dist[w]:
                        dist[w] = nd
                        heappush(heap, (nd, w))
                    w += 1
            elif need[v - m]:
                reach = d
                break
            else:
                for i, f in enumerate(into[v - m]):
                    if f and d < dist[i]:
                        dist[i] = d
                        heappush(heap, (d, i))
        if reach < 0:
            raise UnbalancedMarginals("no augmenting path; marginals inconsistent")
        for v in range(m + n):
            pot[v] += dist[v] if done[v] else reach

    flow = {(i, j): f for j, col in enumerate(into) for i, f in enumerate(col) if f}
    return flow, [-p for p in pot[:m]], pot[m:]


def verify_transport_certificate(supply: list[int], demand: list[int],
                                 cost: list[list[int]],
                                 flow: Mapping[tuple[int, int], int],
                                 u: list[int], v: list[int]) -> ValidationResult:
    """Check in integers that flow is optimal, with (u, v) as the proof.

    The flow must be nonnegative with row sums supply and column sums
    demand; the dual must satisfy u_i + v_j <= c_ij on every cell; and the
    objectives must agree, sum(flow * c) == sum(supply * u) + sum(demand * v).
    By weak duality the flow is then a minimum-cost transport plan. Failure
    names the first violated condition in the witness.
    """
    m, n = len(supply), len(demand)
    if len(u) != m or len(v) != n:
        return ValidationResult.failed(
            f"dual has {len(u)} x {len(v)} entries for a {m} x {n} problem")
    rows = [0] * m
    cols = [0] * n
    primal = 0
    for (i, j), f in flow.items():
        if not (0 <= i < m and 0 <= j < n) or f < 0:
            return ValidationResult.failed(f"bad flow entry {f} on cell ({i}, {j})",
                                           witness=("cell", i, j))
        rows[i] += f
        cols[j] += f
        primal += f * cost[i][j]
    for i in range(m):
        if rows[i] != supply[i]:
            return ValidationResult.failed(
                f"row {i} ships {rows[i]} != supply {supply[i]}", witness=("row", i))
    for j in range(n):
        if cols[j] != demand[j]:
            return ValidationResult.failed(
                f"column {j} receives {cols[j]} != demand {demand[j]}",
                witness=("column", j))
    for i, ui in enumerate(u):
        # one test per row: u_i + v_j <= c_ij for every j iff u_i <= min_j (c_ij - v_j)
        if n and ui > min(map(sub, cost[i], v)):
            for j, (vj, c) in enumerate(zip(v, cost[i])):
                if ui + vj > c:
                    return ValidationResult.failed(
                        f"dual infeasible on cell ({i}, {j}): {ui} + {vj} > {c}",
                        witness=("dual", i, j))
    dual = (sum(s * ui for s, ui in zip(supply, u))
            + sum(d * vj for d, vj in zip(demand, v)))
    if primal != dual:
        return ValidationResult.failed(
            f"duality gap: primal {primal} != dual {dual}", witness=("gap", primal, dual))
    return ValidationResult.passed(f"optimal: primal = dual = {primal}")


def wasserstein1(p: TransportProblem) -> Fraction:
    """Exact optimal transport value of a residual problem.

    TransportProblem.from_distance has already fixed the shared mass, which
    a metric cost allows by the triangle inequality; graph distances vanish
    only on the diagonal, so the value is zero iff the marginals are equal.
    The integer problem is certified on every call; a failed certificate
    raises CurvatroidError.
    """
    supply, demand = list(p.supply), list(p.demand)
    flow, u, v = _solve_integer_transport(supply, demand, p.cost)
    check = verify_transport_certificate(supply, demand, p.cost, flow, u, v)
    if not check:
        raise CurvatroidError(f"transport certificate failed: {check.detail}")
    return Fraction(sum(f * p.cost[a][b] for (a, b), f in flow.items()), p.scale)
