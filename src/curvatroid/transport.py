"""Exact 1-Wasserstein distance between basis distributions.

Both marginals are scaled once to integers over the least common multiple of
their mass denominators. Costs are exchange-graph distances, so by the
triangle inequality the shared mass min(mu, nu) is fixed in place and only
the residuals are routed.

The integer transportation problem is solved by a primal-dual method that
works in phases (Ahuja, Magnanti and Orlin, Network Flows, 1993, ch. 9.8).
Each phase runs one Dijkstra on reduced costs from every source with supply
left, stops at the first sink still short of its demand, and raises the
node potentials by min(distance, that sink's distance). It then augments
along tight residual arcs (reduced cost zero) by depth-first search with
current-arc pointers that persist through the phase, until every source is
spent or finds no tight path. A path the search misses only costs one more
phase.

Every solve is checked by an integer optimality certificate: the potentials
give a dual (u, v) of the transportation LP, and verify_transport_certificate
confirms the flow's marginals, dual feasibility u_i + v_j <= c_ij on every
cell, and equal primal and dual objectives. Weak duality then proves the
flow optimal without trusting the solver; a failure raises CurvatroidError.

The solver scans nodes in canonical support order and keeps no state
between calls, so it is deterministic and concurrent calls are safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from math import lcm
from typing import Callable, Mapping

from .errors import CurvatroidError, UnbalancedMarginals, ValidationResult
from .matroid import Mask
from .walk import Distribution


@dataclass(frozen=True)
class TransportProblem:
    """Marginals plus an integer cost matrix over their canonical supports."""

    mu: Distribution
    nu: Distribution
    row_keys: tuple[Mask, ...]
    col_keys: tuple[Mask, ...]
    cost: tuple[tuple[int, ...], ...]  # cost[i][j], nonnegative

    @classmethod
    def from_distance(cls, mu: Distribution, nu: Distribution,
                      dist: Callable[[Mask, Mask], int]) -> "TransportProblem":
        rows = tuple(mu.support())
        cols = tuple(nu.support())
        cost = tuple(tuple(dist(x, y) for y in cols) for x in rows)
        return cls(mu, nu, rows, cols, cost)


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
    Costs must be nonnegative, so zero potentials start dual feasible.
    """
    m, n = len(supply), len(demand)
    pending = sum(supply)
    if pending != sum(demand):
        raise UnbalancedMarginals(
            f"supplies {pending} != demands {sum(demand)} after scaling")
    left = supply[:]
    need = demand[:]
    into = [[0] * m for _ in range(n)]  # into[j][i]: flow on cell (i, j)
    pot = [0] * (m + n)
    while pending:
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

        # blocking flow along tight arcs; a node whose arcs run out is dead
        # for the rest of the phase
        tight: list[list[int] | None] = [None] * m
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
                    arcs = tight[v] = [m + j for j, c in enumerate(cost[v])
                                       if c + pv == pot[m + j]]
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
    for i in range(m):
        ui = u[i]
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
    """Exact optimal transport value.

    Shared mass min(mu, nu) on a zero-cost diagonal cell stays in place and
    only the residuals are routed, which a metric cost allows by the
    triangle inequality. Graph distances vanish only on the diagonal, so the
    value is zero iff the marginals are equal. The integer problem actually
    solved is certified on every call; a failed certificate raises
    CurvatroidError.
    """
    mu, nu = p.mu.masses, p.nu.masses
    scale = lcm(*(q.denominator for q in mu.values()),
                *(q.denominator for q in nu.values()))
    supply_of = {x: q.numerator * (scale // q.denominator) for x, q in mu.items()}
    demand_of = {y: q.numerator * (scale // q.denominator) for y, q in nu.items()}
    total_mu, total_nu = sum(supply_of.values()), sum(demand_of.values())
    if total_mu != total_nu:
        raise UnbalancedMarginals(f"marginal totals differ: {Fraction(total_mu, scale)} "
                                  f"!= {Fraction(total_nu, scale)}")

    col_index = {y: j for j, y in enumerate(p.col_keys)}
    for i, x in enumerate(p.row_keys):
        j = col_index.get(x)
        if j is not None and p.cost[i][j] == 0:
            q = min(supply_of[x], demand_of[x])
            supply_of[x] -= q
            demand_of[x] -= q

    rows = [i for i, x in enumerate(p.row_keys) if supply_of[x]]
    if not rows:
        return Fraction(0)
    cols = [j for j, y in enumerate(p.col_keys) if demand_of[y]]
    supply = [supply_of[p.row_keys[i]] for i in rows]
    demand = [demand_of[p.col_keys[j]] for j in cols]
    cost = [[p.cost[i][j] for j in cols] for i in rows]
    flow, u, v = _solve_integer_transport(supply, demand, cost)
    check = verify_transport_certificate(supply, demand, cost, flow, u, v)
    if not check:
        raise CurvatroidError(f"transport certificate failed: {check.detail}")
    return Fraction(sum(f * cost[a][b] for (a, b), f in flow.items()), scale)
