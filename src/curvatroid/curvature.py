"""Ollivier-Ricci curvature of the down-up walk, with certified bounds.

For adjacent bases S, T the pair curvature is 1 - W1(P(S,.), P(T,.)) under
the exchange-graph metric, and the walk's curvature is the minimum over all
adjacent pairs. Alongside the exact optimal-transport route this module
carries three closed-form certificates:

* a global lower bound depending only on the rank and ground-set size,
* a per-pair lower bound realized by an explicit coupling of the two
  down-up steps (the down-step coupling),
* a per-pair upper bound from an exhaustive split of the coupled step into
  meet / drift / separate events.

Every quantity is an exact fraction.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import CurvatroidError, InvalidRank, NotABasis, NotAdjacent
from .matroid import Mask, Matroid, bits
from .transport import TransportProblem, wasserstein1
from .walk import basis_graph, exchange_distance


# ── pair frame and witness ──────────────────────────────────────────────────


@dataclass(frozen=True)
class PairFrame:
    """An adjacent basis pair S, T with the exchange made explicit.

    Built from the two sets alone: s_elem is the element of S - T, t_elem
    the element of T - S, and shared lists S ∩ T in canonical order. The
    constructor raises NotAdjacent unless S and T differ by exactly one
    exchange, so every frame is consistent; whether S and T are bases of a
    given family is checked by the functions that take the family.
    """

    s_basis: Mask
    t_basis: Mask
    s_elem: int = field(init=False)
    t_elem: int = field(init=False)
    shared: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        s_only = self.s_basis & ~self.t_basis
        t_only = self.t_basis & ~self.s_basis
        if s_only.bit_count() != 1 or t_only.bit_count() != 1:
            raise NotAdjacent("bases do not differ by a single exchange")
        object.__setattr__(self, "s_elem", s_only.bit_length() - 1)
        object.__setattr__(self, "t_elem", t_only.bit_length() - 1)
        object.__setattr__(self, "shared", tuple(bits(self.s_basis & self.t_basis)))

    def swapped(self) -> "PairFrame":
        return PairFrame(self.t_basis, self.s_basis)


@dataclass(frozen=True)
class DropWitness:
    """Neighborhood data for one crossing drop u (a shared element whose
    removal lets the S-side walk add t_elem directly)."""

    drop: int            # the shared element u
    ns_size: int         # #N(S - u)
    nt_size: int         # #N(T - u)
    overlap_size: int    # #(N(S - u) ∩ N(T - u))
    s_only_adds: Mask    # (N(S - u) - t) \ N(T - u): S-side adds T cannot mirror

    @property
    def s_only_count(self) -> int:
        return self.s_only_adds.bit_count()

    @property
    def t_only_count(self) -> int:
        # by symmetry: #((N(T - u) - s) \ N(S - u))
        return self.nt_size - 1 - self.overlap_size


@dataclass(frozen=True)
class PairWitness:
    """Crossing drops of a pair frame with their neighborhood statistics."""

    entries: tuple[DropWitness, ...]

    @property
    def crossing_drops(self) -> tuple[int, ...]:
        return tuple(e.drop for e in self.entries)


def _require_frame_bases(m: Matroid, frame: PairFrame) -> None:
    if frame.s_basis not in m.bases or frame.t_basis not in m.bases:
        raise NotABasis("pair frame names a set that is not a basis")


def make_pair_frame(m: Matroid, s: Mask, t: Mask) -> PairFrame:
    """Orient an adjacent pair: the first-listed basis supplies s_elem."""
    if s not in m.bases:
        raise NotABasis("first basis is not in the family")
    if t not in m.bases:
        raise NotABasis("second basis is not in the family")
    return PairFrame(s, t)


def compute_pair_witness(m: Matroid, frame: PairFrame) -> PairWitness:
    """Scan the shared elements and record the crossing drops.

    A shared u is a crossing drop when the S side can add t_elem after
    dropping u, that is when S - u + t is a basis; that set is T - u + s,
    so the T side can then add s_elem. The matroid gate runs first: the
    bounds built on the witness are theorems about matroids only, and in a
    matroid a non-crossing drop leaves N(S - u) = N(T - u), so only the
    crossing drops need N(T - u).
    """
    m.require_matroid()
    _require_frame_bases(m, frame)
    table = m._completion_table()
    s_basis, t_basis = frame.s_basis, frame.t_basis
    t_bit = 1 << frame.t_elem
    entries = []
    for u in frame.shared:
        u_bit = 1 << u
        ns = table[s_basis ^ u_bit]
        if ns & t_bit:
            nt = table[t_basis ^ u_bit]
            entries.append(DropWitness(
                drop=u,
                ns_size=ns.bit_count(),
                nt_size=nt.bit_count(),
                overlap_size=(ns & nt).bit_count(),
                s_only_adds=ns & ~nt & ~t_bit,
            ))
    return PairWitness(tuple(entries))


# ── closed-form bounds ──────────────────────────────────────────────────────


def theorem_lb_global(k: int, n: int) -> Fraction:
    """Curvature lower bound for every rank-k matroid on n elements.

    For n > k + 1 this is -1 + 2/k + 3(k-1)/(k(n-k+1)); for n = k + 1 the
    stronger constant 1/k holds.
    """
    if not 1 <= k < n:
        raise InvalidRank(f"need 1 <= k < n, got k={k}, n={n}")
    if n == k + 1:
        return Fraction(1, k)
    return -1 + Fraction(2, k) + Fraction(3 * (k - 1), k * (n - k + 1))


def downstep_lb_pair(m: Matroid, frame: PairFrame,
                     witness: PairWitness | None = None) -> Fraction:
    """Pair curvature lower bound: 1 minus the down-step coupling's exact
    expected distance, in closed form.

    Dropping the exchanged elements (probability 1/k) the walks meet.
    A non-crossing shared drop leaves the walks at distance one. For a
    crossing drop u the coupled up-steps meet with probability 1/max,
    agree (distance one) with probability overlap/max, and the leftover
    lands at distance one exactly on the forced residual of the meeting
    column, mass 1/min - 1/max, everything else at distance two. The terms
    are symmetric in the two bases, so the value is orientation-invariant.
    """
    if witness is None:
        witness = compute_pair_witness(m, frame)
    k = m.rank
    total = Fraction(1, k) - Fraction(len(witness.entries), k)
    for e in witness.entries:
        hi = max(e.ns_size, e.nt_size)
        lo = min(e.ns_size, e.nt_size)
        total += Fraction(1 + e.overlap_size, k * hi) + Fraction(1, k * lo)
    return total


def theorem_ub_values(m: Matroid, frame: PairFrame,
                      witness: PairWitness | None = None) -> tuple[Fraction, Fraction]:
    """Both orientations of the per-pair upper bound.

    Forward: 1/k + (1/k) * sum over crossing drops of
    (1/#N(T-u) - #onlyS/#N(S-u)); reverse swaps the roles of S and T.
    """
    if witness is None:
        witness = compute_pair_witness(m, frame)
    k = m.rank
    forward = Fraction(1, k)
    reverse = Fraction(1, k)
    for e in witness.entries:
        forward += Fraction(1, k * e.nt_size) - Fraction(e.s_only_count, k * e.ns_size)
        reverse += Fraction(1, k * e.ns_size) - Fraction(e.t_only_count, k * e.nt_size)
    return forward, reverse


def theorem_ub_pair(m: Matroid, frame: PairFrame,
                    witness: PairWitness | None = None) -> Fraction:
    """The tighter of the two orientations of the per-pair upper bound."""
    forward, reverse = theorem_ub_values(m, frame, witness)
    return min(forward, reverse)


# ── the down-step coupling ──────────────────────────────────────────────────


@dataclass(frozen=True)
class CouplingCell:
    """One outcome of the coupled down-up step (kept per drop, unaggregated)."""

    drop_from_s: int
    drop_from_t: int
    add_to_s: int
    add_to_t: int
    x: Mask
    y: Mask
    mass: Fraction
    distance: int


@dataclass(frozen=True)
class DownstepCoupling:
    """Full outcome table of the down-step coupling for one pair."""

    frame: PairFrame
    cells: tuple[CouplingCell, ...]

    def expected_distance(self) -> Fraction:
        return sum((c.mass * c.distance for c in self.cells), Fraction(0))


def downstep_coupling_table(m: Matroid, frame: PairFrame) -> DownstepCoupling:
    """Couple the two walks: drop the same shared element on both sides (or
    the exchanged pair s, t together), then pair the up-steps.

    After a crossing drop the S-side add of t is paired with the T-side add
    of s (the walks meet: S - u + t = T - u + s), shared candidates are
    paired identically, and the residual mass, 1/k - (1 + overlap)/(k max)
    on each side, is filled by the product rule. Every outcome pair shares
    the k - 1 elements of S ∩ T less the drop, so it sits at distance at
    most two; the expected distance does not depend on the residual filling
    because the only distance-one residual column is marginal-forced.
    Distances are |X - Y| and a non-crossing drop reuses N(S - u) for the
    T side, both facts about matroids, so the matroid gate runs first.
    """
    m.require_matroid()
    _require_frame_bases(m, frame)
    table = m._completion_table()
    k = m.rank
    s_elem, t_elem = frame.s_elem, frame.t_elem
    t_bit = 1 << t_elem
    drop_prob = Fraction(1, k)
    cells: list[CouplingCell] = []

    def emit(drop_s, drop_t, add_s, add_t, x, y, mass):
        cells.append(CouplingCell(drop_s, drop_t, add_s, add_t, x, y, mass,
                                  exchange_distance(x, y)))

    # both walks drop their exchanged element: identical completions
    rest = frame.s_basis ^ (1 << s_elem)
    comps = table[rest]
    step = drop_prob / comps.bit_count()
    for x in bits(comps):
        target = rest | (1 << x)
        emit(s_elem, t_elem, x, x, target, target, step)

    for u in frame.shared:
        u_bit = 1 << u
        s_sub = frame.s_basis ^ u_bit
        t_sub = frame.t_basis ^ u_bit
        ns = table[s_sub]
        if ns & t_bit:
            # crossing drop: meet on (add t, add s), mirror the overlap
            nt = table[t_sub]
            a, b = ns.bit_count(), nt.bit_count()
            match = drop_prob / max(a, b)
            meet = s_sub | t_bit
            emit(u, u, t_elem, s_elem, meet, meet, match)
            overlap = ns & nt
            for v in bits(overlap):
                v_bit = 1 << v
                emit(u, u, v, v, s_sub | v_bit, t_sub | v_bit, match)
            left_s = []
            for x in bits(ns):
                q = drop_prob / a - (match if (x == t_elem or (1 << x) & overlap) else 0)
                if q > 0:
                    left_s.append((x, q))
            left_t = []
            for y in bits(nt):
                q = drop_prob / b - (match if (y == s_elem or (1 << y) & overlap) else 0)
                if q > 0:
                    left_t.append((y, q))
            total_left = sum(q for _, q in left_s)
            for x, qx in left_s:
                for y, qy in left_t:
                    emit(u, u, x, y, s_sub | (1 << x), t_sub | (1 << y),
                         qx * qy / total_left)
        else:
            step = drop_prob / ns.bit_count()
            for v in bits(ns):
                v_bit = 1 << v
                emit(u, u, v, v, s_sub | v_bit, t_sub | v_bit, step)

    return DownstepCoupling(frame, tuple(cells))


# ── exact curvature ─────────────────────────────────────────────────────────


def exact_pair_curvature(m: Matroid, frame: PairFrame) -> Fraction:
    """1 - W1 between the two one-step distributions."""
    g = basis_graph(m)
    problem = TransportProblem.from_distance(
        g.kernel(frame.s_basis), g.kernel(frame.t_basis), exchange_distance)
    return 1 - wasserstein1(problem)


# ── reports ─────────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class PairReport:
    frame: PairFrame
    witness: PairWitness
    downstep_lb: Fraction
    ub_forward: Fraction
    ub_reverse: Fraction
    theorem_ub: Fraction
    coupling_expected_distance: Fraction
    kappa_exact: Fraction


@dataclass(frozen=True)
class GlobalReport:
    kappa_exact: Fraction | None
    argmin_pair: tuple[Mask, Mask] | None
    theorem_lb: Fraction | None
    downstep_lb: Fraction | None
    theorem_ub: Fraction | None
    pair_count: int
    degenerate: bool = False
    audited: bool = False


def compute_pair_report(m: Matroid, s: Mask, t: Mask) -> PairReport:
    """All per-pair quantities for one adjacent pair.

    s and t must be bases of m differing by one exchange; the witness runs
    the matroid gate, so a non-matroid fails with the exchange axiom's
    witness before any bound is computed. The closed-form down-step bound
    is cross-checked against the expected distance of the explicit
    coupling table.
    """
    frame = make_pair_frame(m, s, t)
    witness = compute_pair_witness(m, frame)
    lb = downstep_lb_pair(m, frame, witness)
    forward, reverse = theorem_ub_values(m, frame, witness)
    expected = downstep_coupling_table(m, frame).expected_distance()
    if lb != 1 - expected:
        raise CurvatroidError("down-step bound disagrees with its coupling")
    return PairReport(frame, witness, lb, forward, reverse, min(forward, reverse),
                      expected, exact_pair_curvature(m, frame))


def canonical_pairs(m: Matroid) -> list[tuple[Mask, Mask]]:
    """Adjacent pairs, each oriented and listed in canonical order.

    Pairs are compared by the positions of their bases in m.sorted_bases(),
    which is the same order as comparing basis_sort_key tuples.
    """
    order = m.sorted_bases()
    position = {b: i for i, b in enumerate(order)}
    pairs = []
    for x, y in m.adjacent_basis_pairs():
        i, j = position[x], position[y]
        pairs.append((i, j) if i < j else (j, i))
    pairs.sort()
    return [(order[i], order[j]) for i, j in pairs]


def _pruned_minimum(m: Matroid, pairs: list[tuple[Mask, Mask]],
                    groups: Iterable[tuple[Fraction, Fraction, list[int]]],
                    ) -> tuple[Fraction, tuple[Mask, Mask]]:
    """Minimum exact pair curvature and the first canonical pair reaching it.

    groups yields (lb, ub, pair indices) per bound signature. Pairs are
    visited by ascending (lb, canonical index). A pair with lb > kappa (the
    smallest value found so far) cannot go lower, and neither can any later
    pair, so the walk stops there; a pair with lb == kappa can only tie,
    which matters only before the current argmin in canonical order. The
    walk trusts lb to discard pairs, so every solved value is held to both
    bounds.
    """
    levels: dict[Fraction, list[tuple[Fraction, list[int]]]] = {}
    for lb, ub, indices in groups:
        levels.setdefault(lb, []).append((ub, indices))
    kappa = best = None
    for lb in sorted(levels):
        if kappa is not None and lb > kappa:
            break
        for i, ub in sorted((i, ub) for ub, indices in levels[lb] for i in indices):
            if lb == kappa and i > best:
                break  # the rest of this level comes after the argmin too
            if lb == ub:
                value = lb
            else:
                x, y = pairs[i]
                value = exact_pair_curvature(m, make_pair_frame(m, x, y))
                if not lb <= value <= ub:
                    raise CurvatroidError(
                        f"pair {m.labels_of(x)} / {m.labels_of(y)}: exact curvature "
                        f"{value} outside its bounds [{lb}, {ub}]")
            if kappa is None or value < kappa or (value == kappa and i < best):
                kappa, best = value, i
    return kappa, pairs[best]


def global_curvature(m: Matroid, exact: bool = True,
                     audit_all_pairs: bool = False) -> GlobalReport:
    """Minimum pair curvature over every adjacent pair, plus global bounds.

    The matroid gate runs first, in both modes: every bound below is a
    theorem about matroids, so a family failing the exchange axiom raises
    NotAMatroid with the validator's witness. Every pair then gets its frame
    and witness, and its bounds are looked up by the pair's signature, the sorted multiset of (#N(S-u), #N(T-u), overlap) over its
    crossing drops u, and computed only for a signature not seen before. The
    signature and the rank determine both bounds: each is 1/k plus a sum of
    per-drop terms in those three sizes, because #onlyS = #N(S-u) - overlap
    - 1 (t lies in N(S-u) and never in N(T-u), a completion set being
    disjoint from its own (k-1)-set) and symmetrically for #onlyT.

    The exact minimum is found by branch and bound on those bounds. In a
    matroid downstepLB <= kappa on every pair,
    since downstepLB is 1 minus the expected distance of a valid coupling.
    Pairs are visited by ascending (downstepLB, canonical position), keeping
    the smallest kappa so far and its canonical-first pair. The visit stops
    at the first pair with downstepLB > kappa, and skips a pair with
    downstepLB == kappa that comes after the current argmin. A pair whose
    two bounds agree takes that value without a transport solve; every
    solved value is checked against both bounds. K6 solves 180 of its
    17,460 pairs, where solving every pair with unequal bounds took 6,660.

    A single-basis family has no pairs; by convention it reports curvature 1
    with the degenerate flag set. With audit_all_pairs the minimum of
    1 - W1/d over all basis pairs (any distance) is computed as well and
    must agree with the adjacent-pair minimum; the audit needs exact=True
    and passes vacuously when there is only one basis.
    """
    if audit_all_pairs and not exact:
        raise CurvatroidError("the all-pairs audit needs exact values (exact=True)")
    m.require_matroid()
    g = basis_graph(m) if exact else None
    theorem_lb = theorem_lb_global(m.rank, m.n) if m.rank < m.n else None
    pairs = canonical_pairs(m)

    # signature -> (downstepLB, theoremUB, indices of its pairs)
    groups: dict[tuple[tuple[int, int, int], ...],
                 tuple[Fraction, Fraction, list[int]]] = {}
    for index, (x, y) in enumerate(pairs):
        frame = make_pair_frame(m, x, y)
        witness = compute_pair_witness(m, frame)
        signature = tuple(sorted((e.ns_size, e.nt_size, e.overlap_size)
                                 for e in witness.entries))
        group = groups.get(signature)
        if group is None:
            group = groups[signature] = (downstep_lb_pair(m, frame, witness),
                                         theorem_ub_pair(m, frame, witness), [])
        group[2].append(index)
    lb_min = min((lb for lb, _, _ in groups.values()), default=None)
    ub_min = min((ub for _, ub, _ in groups.values()), default=None)
    if not exact:
        return GlobalReport(None, None, theorem_lb, lb_min, ub_min, len(pairs),
                            degenerate=not pairs)

    if pairs:
        kappa, argmin = _pruned_minimum(m, pairs, groups.values())
    else:
        kappa, argmin = Fraction(1), None

    if audit_all_pairs:
        order = m.sorted_bases()
        worst = None
        for i, x in enumerate(order):
            for y in order[i + 1:]:
                d = exchange_distance(x, y)
                problem = TransportProblem.from_distance(g.kernel(x), g.kernel(y),
                                                         exchange_distance)
                ratio = 1 - wasserstein1(problem) / d
                if worst is None or ratio < worst:
                    worst = ratio
        if worst is not None and worst != kappa:
            raise CurvatroidError(
                f"all-pairs audit disagrees: {worst} != adjacent minimum {kappa}")

    return GlobalReport(kappa, argmin, theorem_lb, lb_min, ub_min, len(pairs),
                        degenerate=not pairs, audited=audit_all_pairs)
