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

Every quantity is an exact fraction. The closed-form pair bounds are
integer numerators over one denominator per matroid (bound_scale).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb, lcm
from typing import NamedTuple

from .errors import CurvatroidError, InvalidRank, NotABasis, NotAdjacent, TooLarge
from .matroid import ENUMERATION_LIMIT, Mask, Matroid, bits
from .symmetry import automorphism_generators, mask_image, pair_orbit
from .transport import TransportProblem, wasserstein1
from .walk import Frozen, basis_graph, exchange_distance, transition_distribution


# ── pair frame and witness ──────────────────────────────────────────────────


class PairFrame(Frozen):
    """An adjacent basis pair S, T with the exchange made explicit.

    Built from the two sets alone: s_elem is the element of S - T, t_elem
    the element of T - S, and shared lists S ∩ T in canonical order. The
    constructor raises NotAdjacent unless S and T differ by exactly one
    exchange, so every frame is consistent. It is the one way to build a
    pair; every pair function takes (m, frame) and checks itself that S and
    T are bases of m. A Frozen record: its fields cannot be assigned or
    deleted, and two frames of the same pair are equal and hash equal.
    """

    __slots__ = ("s_basis", "t_basis", "s_elem", "t_elem", "shared")

    def __init__(self, s_basis: Mask, t_basis: Mask):
        s_only = s_basis & ~t_basis
        t_only = t_basis & ~s_basis
        if s_only.bit_count() != 1 or t_only.bit_count() != 1:
            raise NotAdjacent("bases do not differ by a single exchange")
        write = object.__setattr__
        write(self, "s_basis", s_basis)
        write(self, "t_basis", t_basis)
        write(self, "s_elem", s_only.bit_length() - 1)
        write(self, "t_elem", t_only.bit_length() - 1)
        write(self, "shared", tuple(bits(s_basis & t_basis)))


class DropWitness(Frozen):
    """Neighborhood data for one crossing drop u (a shared element whose
    removal lets the S-side walk add t_elem directly). A Frozen record: its
    fields cannot be assigned or deleted, and it compares and hashes by
    value."""

    __slots__ = ("drop",           # the shared element u
                 "ns_size",        # #N(S - u)
                 "nt_size",        # #N(T - u)
                 "overlap_size",   # #(N(S - u) ∩ N(T - u))
                 "s_only_adds")    # (N(S - u) - t) \ N(T - u): S-side adds T cannot mirror

    def __init__(self, drop: int, ns_size: int, nt_size: int, overlap_size: int,
                 s_only_adds: Mask):
        write = object.__setattr__
        write(self, "drop", drop)
        write(self, "ns_size", ns_size)
        write(self, "nt_size", nt_size)
        write(self, "overlap_size", overlap_size)
        write(self, "s_only_adds", s_only_adds)


def _require_frame_bases(m: Matroid, frame: PairFrame) -> None:
    if frame.s_basis not in m.bases or frame.t_basis not in m.bases:
        raise NotABasis("pair frame names a set that is not a basis")


def compute_pair_witness(m: Matroid, frame: PairFrame) -> tuple[DropWitness, ...]:
    """Scan the shared elements and record the crossing drops, in the order
    of frame.shared.

    A shared u is a crossing drop when the S side can add t_elem after
    dropping u, that is when S - u + t is a basis; that set is T - u + s,
    so the T side can then add s_elem. The matroid gate runs first: the
    bounds built on the witness are theorems about matroids only, and in a
    matroid a non-crossing drop leaves N(S - u) = N(T - u), so only the
    crossing drops need N(T - u). The sets are read from the matroid's one
    store (Matroid._completions), which computes only the pair's own sets
    unless a sweep or the gate has filled it.
    """
    m.require_matroid()
    _require_frame_bases(m, frame)
    table = m._completions
    s_basis, t_basis = frame.s_basis, frame.t_basis
    t_bit = 1 << frame.t_elem
    drops = []
    for u in frame.shared:
        u_bit = 1 << u
        ns = table[s_basis ^ u_bit]
        if ns & t_bit:
            nt = table[t_basis ^ u_bit]
            drops.append(DropWitness(
                drop=u,
                ns_size=ns.bit_count(),
                nt_size=nt.bit_count(),
                overlap_size=(ns & nt).bit_count(),
                s_only_adds=ns & ~nt & ~t_bit,
            ))
    return tuple(drops)


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


@cache
def bound_scale(k: int, n: int) -> int:
    """L = lcm(1, ..., n - k + 1): k * L is a common denominator of every
    closed-form bound of a rank-k matroid on n elements.

    Each bound is 1/k plus per-drop terms over k * #N(R), and a completion
    set N(R) of a (k-1)-set R is a subset of E - R, so #N(R) <= n - k + 1
    and divides L.

    L is the product, over the primes p <= n - k + 1 (a sieve), of the
    largest power of p not above n - k + 1: a few thousand small factors
    where an lcm fold over the whole range would take a gcd at every step.
    """
    top = n - k + 1
    composite = bytearray(top + 1)
    scale = 1
    for p in range(2, top + 1):
        if composite[p]:
            continue
        composite[p * p::p] = b"\x01" * len(range(p * p, top + 1, p))
        power = p
        while power * p <= top:
            power *= p
        scale *= power
    return scale


def bound_numerators(scale: int, signature: Iterable[tuple[int, int, int]],
                     ) -> tuple[int, int, int]:
    """Numerators of (downstepLB, forward UB, reverse UB) over k * scale for
    a crossing-drop signature, (#N(S-u), #N(T-u), overlap) per drop u.

    scale must be a multiple of every size in the signature, as
    bound_scale(k, n) is. With a = scale / #N(S-u) and b = scale / #N(T-u)
    each drop adds (1 + overlap) min(a, b) + max(a, b) - scale to the lower
    bound, b - #onlyS a to the forward bound and a - #onlyT b to the
    reverse one, where #onlyS = #N(S-u) - overlap - 1 (see global_curvature)
    and symmetrically for #onlyT.
    """
    lb = forward = reverse = scale
    for ns, nt, overlap in signature:
        a, b = scale // ns, scale // nt
        lb += (1 + overlap) * min(a, b) + max(a, b) - scale
        forward += b - (ns - overlap - 1) * a
        reverse += a - (nt - overlap - 1) * b
    return lb, forward, reverse


def _pair_numerators(m: Matroid, drops: tuple[DropWitness, ...],
                     ) -> tuple[tuple[int, int, int], int]:
    scale = bound_scale(m.rank, m.n)
    return bound_numerators(scale, ((d.ns_size, d.nt_size, d.overlap_size)
                                    for d in drops)), m.rank * scale


def downstep_lb_pair(m: Matroid, frame: PairFrame) -> Fraction:
    """Pair curvature lower bound: 1 minus the down-step coupling's exact
    expected distance, in closed form.

    Dropping the exchanged elements (probability 1/k) the walks meet.
    A non-crossing shared drop leaves the walks at distance one. For a
    crossing drop u the coupled up-steps meet with probability 1/max,
    agree (distance one) with probability overlap/max, and the leftover
    lands at distance one exactly on the forced residual of the meeting
    column, mass 1/min - 1/max, everything else at distance two. The terms
    are symmetric in the two bases, so the value is orientation-invariant.
    It is computed in integers over k * L, L = lcm(1, ..., n - k + 1),
    which every #N(R) <= n - k + 1 divides (bound_numerators).
    """
    (lb, _, _), denominator = _pair_numerators(m, compute_pair_witness(m, frame))
    return Fraction(lb, denominator)


def theorem_ub_values(m: Matroid, frame: PairFrame) -> tuple[Fraction, Fraction]:
    """Both orientations of the per-pair upper bound.

    Forward: 1/k + (1/k) * sum over crossing drops of
    (1/#N(T-u) - #onlyS/#N(S-u)); reverse swaps the roles of S and T.
    Both are computed in integers over k * L, L = lcm(1, ..., n - k + 1),
    which every #N(R) <= n - k + 1 divides (bound_numerators).
    """
    (_, forward, reverse), denominator = _pair_numerators(m, compute_pair_witness(m, frame))
    return Fraction(forward, denominator), Fraction(reverse, denominator)


def theorem_ub_pair(m: Matroid, frame: PairFrame) -> Fraction:
    """The tighter of the two orientations of the per-pair upper bound."""
    (_, forward, reverse), denominator = _pair_numerators(m, compute_pair_witness(m, frame))
    return Fraction(min(forward, reverse), denominator)


# ── the down-step coupling ──────────────────────────────────────────────────


class DownstepCoupling(NamedTuple):
    """The down-step coupling of one pair, drop by drop as _coupling_drops
    yields it: per drop (drop from S, drop from T, denominator, cells), each
    cell (add to S, add to T, X, Y, weight) with a positive integer weight
    over the drop's denominator.

    The coupling report (fileio.coupling_table_to_obj) renders the integer
    weights directly, and the expected distance is summed in integers.
    """

    frame: PairFrame
    drops: tuple[tuple[int, int, int, tuple[tuple[int, int, Mask, Mask, int], ...]], ...]

    @property
    def cells(self) -> tuple[tuple[int, int, int, int, Mask, Mask, int, int], ...]:
        """Every outcome, unaggregated, in drop order: (drop from S, drop
        from T, add to S, add to T, X, Y, weight, denominator). The
        benchmark's coupling-cell count (bench/spans.py _n_cells) and the
        tests' Fraction cell oracles read it; no route of the package does."""
        return tuple((drop_s, drop_t, add_s, add_t, x, y, w, denominator)
                     for drop_s, drop_t, denominator, cells in self.drops
                     for add_s, add_t, x, y, w in cells)

    def expected_distance(self) -> Fraction:
        return _expected_distance(self.drops)


def _coupling_drops(m: Matroid, frame: PairFrame):
    """Yield the down-step coupling drop by drop, as (drop from S, drop from
    T, denominator, cells), each cell (add to S, add to T, X, Y, weight)
    with a positive integer weight over the drop's denominator.

    The exchanged drop and a non-crossing drop put weight 1 over k * #N on
    each completion. For a crossing drop with a = #N(S-u), b = #N(T-u) and
    lo = min(a, b) the masses are over k * a * b: a matched cell (the meet
    and the overlap) weighs lo, and the residual is b - [matched] lo on the
    S side and a - [matched] lo on the T side, paired by the product rule.
    A residual cell's mass is the product of its two sides over the
    residual total, so every weight of that drop is scaled by that total.
    The completion sets N(S - u) and N(T - u) are read one at a time from
    the matroid's store (Matroid._completions), which they do not fill.
    """
    m.require_matroid()
    _require_frame_bases(m, frame)
    table = m._completions
    k = m.rank
    s_elem, t_elem = frame.s_elem, frame.t_elem
    s_bit, t_bit = 1 << s_elem, 1 << t_elem

    # both walks drop their exchanged element: identical completions
    rest = frame.s_basis ^ s_bit
    comps = table[rest]
    yield s_elem, t_elem, k * comps.bit_count(), tuple([
        (x, x, rest | (1 << x), rest | (1 << x), 1) for x in bits(comps)])

    for u in frame.shared:
        u_bit = 1 << u
        s_sub = frame.s_basis ^ u_bit
        t_sub = frame.t_basis ^ u_bit
        ns = table[s_sub]
        if not ns & t_bit:
            yield u, u, k * ns.bit_count(), tuple([
                (v, v, s_sub | (1 << v), t_sub | (1 << v), 1) for v in bits(ns)])
            continue
        # crossing drop: meet on (add t, add s), mirror the overlap
        nt = table[t_sub]
        a, b = ns.bit_count(), nt.bit_count()
        lo = min(a, b)
        overlap = ns & nt
        matched_s, matched_t = overlap | t_bit, overlap | s_bit
        left_s = [(x, w) for x in bits(ns) if (w := b - lo * (matched_s >> x & 1))]
        left_t = [(y, w) for y in bits(nt) if (w := a - lo * (matched_t >> y & 1))]
        left = sum(w for _, w in left_s) or 1
        meet = s_sub | t_bit
        cells = [(t_elem, s_elem, meet, meet, lo * left)]
        cells += [(v, v, s_sub | (1 << v), t_sub | (1 << v), lo * left)
                  for v in bits(overlap)]
        cells += [(x, y, s_sub | (1 << x), t_sub | (1 << y), wx * wy)
                  for x, wx in left_s for y, wy in left_t]
        yield u, u, k * a * b * left, tuple(cells)


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
    return DownstepCoupling(frame, tuple(_coupling_drops(m, frame)))


def _expected_distance(drops: Iterable[tuple]) -> Fraction:
    """Sum of weight times |X - Y| over the cells of coupling drops, in
    integers over the lcm of the drops' denominators."""
    sums = [(sum(w * exchange_distance(x, y) for _, _, x, y, w in cells), denominator)
            for _, _, denominator, cells in drops]
    common = lcm(*(denominator for _, denominator in sums))
    return Fraction(sum(total * (common // denominator) for total, denominator in sums),
                    common)


# ── exact curvature ─────────────────────────────────────────────────────────


def exact_pair_curvature(m: Matroid, frame: PairFrame) -> Fraction:
    """1 - W1 between the two one-step distributions."""
    m.require_matroid()
    mu, nu = (transition_distribution(m, b) for b in (frame.s_basis, frame.t_basis))
    return 1 - wasserstein1(TransportProblem.from_distance(mu, nu))


# ── reports ─────────────────────────────────────────────────────────────────


class PairReport(NamedTuple):
    frame: PairFrame
    witness: tuple[DropWitness, ...]
    downstep_lb: Fraction
    ub_forward: Fraction
    ub_reverse: Fraction
    theorem_ub: Fraction
    coupling_expected_distance: Fraction
    kappa_exact: Fraction


class GlobalReport(NamedTuple):
    kappa_exact: Fraction | None
    argmin_pair: tuple[Mask, Mask] | None
    theorem_lb: Fraction | None
    downstep_lb: Fraction | None
    theorem_ub: Fraction | None
    pair_count: int
    degenerate: bool = False
    audited: bool = False


def compute_pair_report(m: Matroid, frame: PairFrame) -> PairReport:
    """All per-pair quantities for one adjacent pair.

    The witness runs the matroid gate and then checks that both sets of
    the frame are bases of m, so a non-matroid fails with the exchange
    axiom's witness before any bound is computed. The bounds are integers
    over k * L, L = lcm(1, ..., n - k + 1), which every #N(R) <= n - k + 1
    divides. The closed-form down-step bound is cross-checked against the
    coupling's expected distance, summed in integer weights over the cells
    of _coupling_drops (_expected_distance) without keeping them, and the
    exact value is held to downstepLB <= kappa <= theoremUB (_check_sandwich).
    """
    witness = compute_pair_witness(m, frame)
    numerators, denominator = _pair_numerators(m, witness)
    lb, forward, reverse = (Fraction(x, denominator) for x in numerators)
    expected = _expected_distance(_coupling_drops(m, frame))
    if lb != 1 - expected:
        raise CurvatroidError("down-step bound disagrees with its coupling")
    kappa = exact_pair_curvature(m, frame)
    _check_sandwich(m, frame.s_basis, frame.t_basis, lb, kappa, min(forward, reverse))
    return PairReport(frame, witness, lb, forward, reverse, min(forward, reverse),
                      expected, kappa)


def canonical_pairs(m: Matroid) -> list[tuple[Mask, Mask]]:
    """Adjacent pairs, each oriented and listed in canonical order.

    Pairs are compared by the positions of their bases in m.sorted_bases(),
    which is the same order as comparing basis_sort_key tuples. Every pair
    is (R + a, R + b) for one completion-table group R = S ∩ T and a < b in
    N(R), and R + a comes first: the two sets agree below a, and R + b holds
    a larger element at a's place. Raises TooLarge, before listing any,
    when there are more than ENUMERATION_LIMIT pairs.
    """
    table = m._completion_table()
    count = sum(comb(members.bit_count(), 2) for members in table.values())
    if count > ENUMERATION_LIMIT:
        raise TooLarge(f"listing {count} adjacent pairs exceeds the enumeration limit "
                       f"of {ENUMERATION_LIMIT} pairs")
    order = m.sorted_bases()
    position = {b: i for i, b in enumerate(order)}
    pairs = []
    for rest, members in table.items():
        pairs += combinations([position[rest | 1 << x] for x in bits(members)], 2)
    pairs.sort()
    return [(order[i], order[j]) for i, j in pairs]


def _check_sandwich(m: Matroid, x: Mask, y: Mask, lb: Fraction, value: Fraction,
                    ub: Fraction) -> None:
    """Raise CurvatroidError, naming the pair, unless lb <= value <= ub."""
    if not lb <= value <= ub:
        raise CurvatroidError(
            f"pair {m.labels_of(x)} / {m.labels_of(y)}: exact curvature "
            f"{value} outside its bounds [{lb}, {ub}]")


def _pruned_minimum(m: Matroid, candidates: list[tuple[int, int, Mask, Mask, list]],
                    denominator: int, images: list[Callable[[Mask], Mask]],
                    ) -> tuple[Fraction, tuple[Mask, Mask]]:
    """Minimum exact pair curvature and the first canonical pair reaching it.

    candidates are (lb, ub, S, T, rows): the pairs of each key orbit's first
    key that can reach the minimum, S < T, with their own bounds as integer
    numerators over denominator and the orbit's Schreier rows (_key_orbit).
    Every adjacent pair is the image of exactly one of them on a key of its
    orbit, with the same bounds and value (global_curvature).

    Pairs are visited by ascending (lb, i), i the canonical index of (S, T),
    the positions of S and T in m.sorted_bases(). A pair with lb > kappa
    (the smallest value found so far) cannot go lower, and neither can any
    later one, so the walk stops there. A visited pair's first image, its
    image of least canonical index (_pair_images), decides ties and names
    the argmin: a pair with lb == kappa can only tie, so it is skipped
    unless its first image comes before the current argmin. A pair whose
    bounds agree takes that value; any other is solved unless its value is
    known: images are set maps of automorphisms of m (mask_image), possibly
    none, and a solved value is recorded for every pair of its orbit
    (pair_orbit). The walk trusts lb to discard pairs, so every value is
    held to the pair's own bounds, and the argmin to its own witnessed
    bounds, once, after the walk.
    """
    position = {b: i for i, b in enumerate(m.sorted_bases())}
    known: dict[tuple[Mask, Mask], Fraction] = {}  # (smaller, larger) -> orbit value
    kappa = best = argmin = None
    for lb_numerator, _, ub_numerator, x, y, rows in sorted(
            (lb, (position[x], position[y]), ub, x, y, rows)
            for lb, ub, x, y, rows in candidates):
        lb = Fraction(lb_numerator, denominator)
        if kappa is not None and lb > kappa:
            break
        i, image = min(((position[a], position[b]), (a, b))
                       for a, b in _pair_images(x, y, rows, images))
        if kappa is not None and lb == kappa and i > best:
            continue
        if ub_numerator == lb_numerator:
            value = lb
        else:
            value = known.get((x, y))
            if value is None:
                value = exact_pair_curvature(m, PairFrame(x, y))
                known.update(dict.fromkeys(pair_orbit(images, x, y), value))
            _check_sandwich(m, x, y, lb, value, Fraction(ub_numerator, denominator))
        if kappa is None or value < kappa or (value == kappa and i < best):
            kappa, best, argmin = value, i, image
    (lb_numerator, forward, reverse), denominator = _pair_numerators(
        m, compute_pair_witness(m, PairFrame(*argmin)))
    _check_sandwich(m, *argmin, Fraction(lb_numerator, denominator), kappa,
                    Fraction(min(forward, reverse), denominator))
    return kappa, argmin


def _audit_minimum(m: Matroid, images: list[Callable[[Mask], Mask]]) -> Fraction | None:
    """Minimum of 1 - W1/d over every unordered pair of distinct bases, one
    transport solve per orbit of such pairs under the group generated by
    images, set maps of automorphisms of m (mask_image)."""
    rows = basis_graph(m)
    order = m.sorted_bases()
    size = len(order)
    position = {b: i for i, b in enumerate(order)}
    done = bytearray(size * size)  # done[i * size + j], i < j: orbit covered
    worst = None
    for i, x in enumerate(order):
        for j in range(i + 1, size):
            if done[i * size + j]:
                continue
            y = order[j]
            problem = TransportProblem.from_distance(rows[x], rows[y])
            ratio = 1 - wasserstein1(problem) / exchange_distance(x, y)
            if worst is None or ratio < worst:
                worst = ratio
            for a, b in pair_orbit(images, x, y):
                p, q = sorted((position[a], position[b]))
                done[p * size + q] = 1
    return worst


def _key_orbit(rest: Mask, images: list[Callable[[Mask], Mask]],
               seen: set[Mask]) -> list[tuple[int, int]]:
    """The orbit of the completion-table key rest under the group generated
    by images, breadth first from rest, as a Schreier vector: one row
    (parent, generator index) per key after rest, the image under that
    generator of the key at position parent of the orbit (rest at 0). seen
    gathers the keys of every orbit walked; with no images the orbit is
    rest alone and nothing is recorded."""
    keys = [rest]
    rows = []
    if images:
        seen.add(rest)
    for parent, key in enumerate(keys):  # grows while it is read
        for g, image in enumerate(images):
            image_key = image(key)
            if image_key not in seen:
                seen.add(image_key)
                keys.append(image_key)
                rows.append((parent, g))
    return rows


def _pair_images(x: Mask, y: Mask, rows: list[tuple[int, int]],
                 images: list[Callable[[Mask], Mask]]) -> list[tuple[Mask, Mask]]:
    """The images of the pair (x, y) of a key orbit's first key on every key
    of the orbit, along its Schreier rows (_key_orbit), each as (smaller
    mask, larger mask)."""
    xs, ys = [x], [y]
    for parent, g in rows:
        xs.append(images[g](xs[parent]))
        ys.append(images[g](ys[parent]))
    return [(a, b) if a < b else (b, a) for a, b in zip(xs, ys)]


def global_curvature(m: Matroid, exact: bool = True,
                     audit_all_pairs: bool = False) -> GlobalReport:
    """Minimum pair curvature over every adjacent pair, plus global bounds.

    The matroid gate runs first, in both modes: every bound below is a
    theorem about matroids, so a family failing the exchange axiom raises
    NotAMatroid with the validator's witness. Every adjacent pair is
    (R + a, R + b) for exactly one completion-table key, the (k-1)-set
    R = S ∩ T, and a < b in N(R), already in canonical orientation
    (canonical_pairs), so no list of every pair is built. A pair's bounds
    are looked up by its signature: the sorted multiset of (#N(S-u),
    #N(T-u), overlap) over its crossing drops u, computed only for a
    signature not seen before. The signature and the rank determine both
    bounds: each is 1/k plus a sum of per-drop terms in those three sizes,
    because #onlyS = #N(S-u) - overlap - 1 (t lies in N(S-u) and never in
    N(T-u), a completion set being disjoint from its own (k-1)-set) and
    symmetrically for #onlyT. Both are integers over k * L,
    L = lcm(1, ..., n - k + 1): a completion set N(R) lies in E - R, so
    #N(R) <= n - k + 1 divides L. The minima are taken in integers, and a
    Fraction is built only for a report field or where a bound is compared
    with a solved value.

    The sweep walks the orbits of the keys under the automorphism group
    (see automorphism_generators), searched once per exact run before the
    sweep; a bounds-only run passes no generators, so every key is its own
    orbit. Only the pairs of the orbit's first key R get a witness, and the
    orbit adds |orbit| * C(#N(R), 2) to the pair count: the automorphism
    sigma_K of the Schreier vector (_key_orbit) that maps R to the key K
    maps N(R) onto N(K), so each pair on K is the image of exactly one pair
    on R, with the same bounds, since downstepLB is symmetric in S and T
    and theoremUB is the smaller of its two orientations. (The signature
    itself is not invariant.) A subgroup gives finer orbits and the same
    result.

    The exact minimum is found by branch and bound on those bounds. In a
    matroid downstepLB <= kappa <= theoremUB on every pair, since
    downstepLB is 1 minus the expected distance of a valid coupling, so
    kappa <= min theoremUB and only the pairs with downstepLB <= min
    theoremUB can reach it. The first keys' such pairs, each with its own
    bounds, are the candidates _pruned_minimum walks. A pair's images on
    the keys of its orbit, oriented smaller mask first, which is
    (sigma R + min(sigma a, sigma b), sigma R + max(sigma a, sigma b)), the
    canonical orientation, serve only to find its canonical-first image:
    the first canonical pair reaching kappa is the least image of a pair
    of a first key reaching kappa.

    A single-basis family has no pairs; by convention it reports curvature 1
    with the degenerate flag set. With audit_all_pairs the minimum of
    1 - W1/d over all basis pairs (any distance) is computed as well, one
    solve per orbit of unordered basis pairs under the same generators, and
    must agree with the adjacent-pair minimum. The audit needs exact=True,
    raises TooLarge before any work when the family has more than
    ENUMERATION_LIMIT pairs, and passes vacuously when there is only one
    basis.
    """
    if audit_all_pairs and not exact:
        raise CurvatroidError("the all-pairs audit needs exact values (exact=True)")
    if audit_all_pairs and comb(len(m.bases), 2) > ENUMERATION_LIMIT:
        raise TooLarge(f"the all-pairs audit of {len(m.bases)} bases would solve up to "
                       f"{comb(len(m.bases), 2)} pairs, over the limit of "
                       f"{ENUMERATION_LIMIT}")
    m.require_matroid()
    theorem_lb = theorem_lb_global(m.rank, m.n) if m.rank < m.n else None
    table = m._completion_table()  # before the search, whose leaves read its values
    generators = automorphism_generators(m) if exact else ()
    # the key orbits map every key once per generator, the audit both bases of every pair
    masks = len(table) + (2 * comb(len(m.bases), 2) if audit_all_pairs else 0)
    images = [mask_image(p, masks) for p in generators]

    # signature -> (downstepLB, theoremUB), numerators over k * scale
    scale = bound_scale(m.rank, m.n)
    bounds_of: dict[tuple[tuple[int, int, int], ...], tuple[int, int]] = {}
    pair_count = 0
    seen: set[Mask] = set()
    kept = []  # exact: (lb, ub, S, T, Schreier rows of the orbit) per first-key pair
    for rest, members in table.items():
        if rest in seen:
            continue
        rows = _key_orbit(rest, images, seen)
        pair_count += (len(rows) + 1) * comb(members.bit_count(), 2)
        for x, y in combinations([rest | 1 << e for e in bits(members)], 2):
            signature = tuple(sorted((d.ns_size, d.nt_size, d.overlap_size)
                                     for d in compute_pair_witness(m, PairFrame(x, y))))
            bounds = bounds_of.get(signature)
            if bounds is None:
                lb, forward, reverse = bound_numerators(scale, signature)
                bounds = bounds_of[signature] = lb, min(forward, reverse)
            if exact:
                kept.append((*bounds, x, y, rows))
    denominator = m.rank * scale
    lb_min = min((lb for lb, _ in bounds_of.values()), default=None)
    ub_min = min((ub for _, ub in bounds_of.values()), default=None)
    bounds = (None, None) if not pair_count else (Fraction(lb_min, denominator),
                                                  Fraction(ub_min, denominator))
    if not exact:
        return GlobalReport(None, None, theorem_lb, *bounds, pair_count,
                            degenerate=not pair_count)

    candidates = [pair for pair in kept if pair[0] <= ub_min]
    if pair_count:
        kappa, argmin = _pruned_minimum(m, candidates, denominator, images)
    else:
        kappa, argmin = Fraction(1), None

    if audit_all_pairs:
        worst = _audit_minimum(m, images)
        if worst is not None and worst != kappa:
            raise CurvatroidError(
                f"all-pairs audit disagrees: {worst} != adjacent minimum {kappa}")

    return GlobalReport(kappa, argmin, theorem_lb, *bounds, pair_count,
                        degenerate=not pair_count, audited=audit_all_pairs)
