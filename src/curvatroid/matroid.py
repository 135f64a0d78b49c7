"""Matroids given by their basis families, over a canonicalized ground set.

Elements are canonicalized to indices 0..n-1; user labels live in a sidecar
tuple. A set of elements is an int bitmask over those indices, so all the
hot set algebra (exchange neighborhoods, symmetric differences) is integer
arithmetic. Bases are enumerated explicitly: the uniform and linear
constructions filter k-subsets, the graphic one grows spanning forests edge
by edge, which is exact and comfortably fast at desk scale (n up to ~20).
Every construction emits its family in canonical order.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Iterable, Iterator, Sequence, Union

from .errors import (
    DegenerateGraph,
    ElementNotInBasis,
    EmptyBasisFamily,
    InvalidRank,
    NotABasis,
    NotAMatroid,
    RankMismatch,
    TooLarge,
    UnknownElement,
    ValidationResult,
)

Mask = int

ENUMERATION_LIMIT = 2_000_000  # max C(n, k) a construction will filter
WORK_LIMIT = 50_000_000  # max estimated steps of a construction (_guard_enumeration)

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def bits(mask: Mask) -> Iterator[int]:
    """Indices of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def basis_sort_key(mask: Mask) -> tuple[int, ...]:
    """Canonical order: lexicographic on the sorted index tuple."""
    return tuple(bits(mask))


# ── construction specs ──────────────────────────────────────────────────────


@dataclass(frozen=True)
class UniformSpec:
    n: int
    k: int


@dataclass(frozen=True)
class GraphicSpec:
    vertex_count: int
    edges: tuple[tuple[int, int, str], ...]  # (endpoint, endpoint, label)


@dataclass(frozen=True)
class LinearSpec:
    matrix: tuple[tuple[Fraction, ...], ...]  # rows; columns are the elements
    labels: tuple[str, ...] | None = None


@dataclass(frozen=True)
class ExplicitSpec:
    ground: tuple[str, ...]
    bases: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class NamedSpec:
    name: str


MatroidSpec = Union[UniformSpec, GraphicSpec, LinearSpec, ExplicitSpec, NamedSpec]


# ── the matroid itself ──────────────────────────────────────────────────────


class Matroid:
    """Ground labels plus an enumerated basis family, with exchange helpers.

    Instances are immutable once built; use build_matroid() rather than the
    constructor so the family is validated for shape (nonempty, equal ranks).
    known_matroid marks a family that satisfies the exchange axiom by
    theorem (uniform, graphic and linear constructions); any other family is
    checked once, by require_matroid, before its first curvature result.

    A construction that enumerates its family in canonical order passes
    keys, the index tuple of each basis of bases in the same order;
    sorted_bases() and origin_hash() then use that order instead of sorting.
    """

    __slots__ = ("labels", "rank", "bases", "origin", "_index", "_completions",
                 "_sorted", "_keys", "_hash", "_exchange", "__weakref__")

    def __init__(self, labels: Sequence[str], bases: Iterable[Mask], origin: str,
                 known_matroid: bool = False,
                 keys: list[tuple[int, ...]] | None = None):
        self.labels = tuple(labels)
        if len(set(self.labels)) != len(self.labels):
            raise UnknownElement("duplicate ground labels")
        self._sorted: list[Mask] | None = None
        self._keys = keys
        if keys is not None:
            bases = self._sorted = list(bases)
        family = frozenset(bases)
        if not family:
            raise EmptyBasisFamily("basis family is empty")
        ranks = {m.bit_count() for m in family}
        if len(ranks) != 1:
            raise RankMismatch(f"bases of different sizes: {sorted(ranks)}")
        (self.rank,) = ranks
        if self.rank == 0:
            raise EmptyBasisFamily("rank-0 family (only the empty set)")
        full = (1 << len(self.labels)) - 1
        for m in family:
            if m & ~full:
                raise UnknownElement("basis uses an element outside the ground set")
        self.bases = family
        self.origin = origin
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        self._completions: dict[Mask, Mask] | None = None
        self._hash: str | None = None
        self._exchange: ValidationResult | None = (
            ValidationResult.passed("matroid by construction") if known_matroid else None)

    # -- ground set -----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.labels)

    def element_index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownElement(f"unknown element {label!r}") from None

    def mask_from_labels(self, labels: Iterable[str]) -> Mask:
        mask = 0
        for lab in labels:
            bit = 1 << self.element_index(lab)
            if mask & bit:
                raise UnknownElement(f"repeated element {lab!r}")
            mask |= bit
        return mask

    def labels_of(self, mask: Mask) -> tuple[str, ...]:
        if mask >> self.n:
            raise UnknownElement("mask has bits outside the ground set")
        return tuple(self.labels[i] for i in bits(mask))

    def sorted_bases(self) -> list[Mask]:
        """All bases in canonical order."""
        if self._sorted is None:
            keyed = sorted((basis_sort_key(b), b) for b in self.bases)
            self._keys = [key for key, _ in keyed]
            self._sorted = [b for _, b in keyed]
        return self._sorted

    # -- exchange structure ----------------------------------------------

    def _completion_table(self) -> dict[Mask, Mask]:
        # group bases by their (k-1)-subsets: table[B - u] has bit x set
        # exactly when (B - u) + x is a basis
        if self._completions is None:
            table: dict[Mask, Mask] = {}
            for b in self.bases:
                rest = b
                while rest:
                    low = rest & -rest
                    sub = b ^ low
                    table[sub] = table.get(sub, 0) | low
                    rest ^= low
            self._completions = table
        return self._completions

    def is_basis(self, s: Mask | Iterable[str]) -> bool:
        if not isinstance(s, int):
            s = self.mask_from_labels(s)
        return s in self.bases

    def exchange_neighborhood(self, b: Mask, u: int) -> Mask:
        """Bitmask of the elements x with (b - u) + x a basis.

        Always contains u itself and is disjoint from b - u.
        """
        if b not in self.bases:
            raise NotABasis(f"{self.labels_of(b) if not b >> self.n else b} is not a basis")
        bit = 1 << u
        if not b & bit:
            raise ElementNotInBasis(f"element {self.labels[u]!r} not in the given basis")
        return self._completion_table()[b ^ bit]

    def adjacent_basis_pairs(self) -> Iterator[tuple[Mask, Mask]]:
        """Every unordered pair of bases differing by one exchange, once.

        Groups bases by shared (k-1)-subsets, so the work is proportional to
        the family size times the rank, never quadratic in the family.
        """
        for sub, members in self._completion_table().items():
            xs = list(bits(members))
            for i, x in enumerate(xs):
                bx = sub | (1 << x)
                for y in xs[i + 1:]:
                    yield bx, sub | (1 << y)

    def require_matroid(self) -> None:
        """Raise NotAMatroid, naming the witness, unless the family satisfies
        the basis exchange axiom.

        The curvature bounds are theorems about matroids, and in a matroid
        the exchange-graph distance between bases X and Y is |X - Y|, so
        every curvature computation calls this first. An explicit family
        runs validate_exchange_axiom on the first call only; the result is
        cached on the instance.
        """
        if self._exchange is None:
            self._exchange = validate_exchange_axiom(self)
        if not self._exchange.ok:
            raise NotAMatroid(f"not a matroid: {self._exchange.detail}")

    # -- identity ---------------------------------------------------------

    def origin_hash(self) -> str:
        """Stable digest of the canonical description (labels + basis list)."""
        if self._hash is None:
            self.sorted_bases()  # fills in the index tuples, self._keys
            doc = {
                "labels": list(self.labels),
                "rank": self.rank,
                "bases": self._keys,  # tuples serialise as JSON arrays
            }
            blob = json.dumps(doc, separators=(",", ":")).encode()
            self._hash = hashlib.sha256(blob).hexdigest()
        return self._hash

    def __repr__(self) -> str:
        return (f"Matroid(origin={self.origin!r}, n={self.n}, rank={self.rank}, "
                f"bases={len(self.bases)})")


# ── constructions ───────────────────────────────────────────────────────────


def _default_labels(n: int) -> tuple[str, ...]:
    if n <= len(_LETTERS):
        return tuple(_LETTERS[:n])
    return tuple(f"e{i}" for i in range(n))


def _guard_enumeration(n: int, k: int, rank_steps: int = 0) -> None:
    """Raise TooLarge when C(n, k) exceeds ENUMERATION_LIMIT, or when the
    estimated work C(n, k) * (k * ceil(n / 64) + rank_steps) exceeds
    WORK_LIMIT.

    Every enumerated subset sets k bits of an n-bit mask, ceil(n / 64)
    machine words wide, and rank_steps is any further per-subset test (the
    linear construction's rank). The binomial is multiplied out over
    min(k, n - k) factors, and the partial products C(n - r + i, i) only
    grow, so the loop stops as soon as one passes the limit instead of
    computing a huge C(n, k) in full.
    """
    r = min(k, n - k)
    count = 1
    for i in range(1, r + 1):
        count = count * (n - r + i) // i
        if count > ENUMERATION_LIMIT:
            raise TooLarge(f"C({n},{k}) exceeds the enumeration limit of "
                           f"{ENUMERATION_LIMIT} subsets")
    if count * (k * -(-n // 64) + rank_steps) > WORK_LIMIT:
        raise TooLarge(f"enumerating C({n},{k}) subsets exceeds the work limit of "
                       f"{WORK_LIMIT} steps")


def _build_uniform(spec: UniformSpec, origin: str | None) -> Matroid:
    n, k = spec.n, spec.k
    if not (1 <= k <= n):
        raise InvalidRank(f"uniform matroid needs 1 <= k <= n, got k={k}, n={n}")
    _guard_enumeration(n, k)
    keys = list(combinations(range(n), k))
    bases = [sum(1 << i for i in key) for key in keys]
    return Matroid(_default_labels(n), bases, origin or f"uniform(n={n},k={k})",
                   known_matroid=True, keys=keys)


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, a: int) -> int:
        parent = self.parent
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def _build_graphic(spec: GraphicSpec, origin: str | None) -> Matroid:
    v = spec.vertex_count
    if v < 1:
        raise DegenerateGraph("graph needs at least one vertex")
    if not spec.edges:
        raise DegenerateGraph("graph has no edges")
    labels = []
    for a, b, lab in spec.edges:
        if not (0 <= a < v and 0 <= b < v):
            raise UnknownElement(f"edge {lab!r} touches a vertex outside 0..{v - 1}")
        labels.append(lab)
    if len(set(labels)) != len(labels):
        raise UnknownElement("duplicate edge labels")

    # the rank v - components counts the unions that merge two components;
    # an untouched vertex is its own component and merges nothing, so the
    # union-find covers the touched vertices only and memory follows the
    # edge list
    touched = sorted({a for a, _, _ in spec.edges} | {b for _, b, _ in spec.edges})
    index = {x: i for i, x in enumerate(touched)}
    ends = [(index[a], index[b]) for a, b, _ in spec.edges]
    uf = _UnionFind(len(touched))
    k = sum(uf.union(a, b) for a, b in ends)
    if k == 0:
        raise DegenerateGraph("no non-loop edges: spanning forests are empty")

    n = len(spec.edges)
    _guard_enumeration(n, k)
    # k is the size of the greedy spanning forest above, so acyclic k-subsets
    # are maximum forests, and at least one exists
    bases, keys = _spanning_forests(ends, len(touched), k)
    return Matroid(labels, bases, origin or f"graphic(vertices={v},edges={n})",
                   known_matroid=True, keys=keys)


def _spanning_forests(ends: list[tuple[int, int]], vertex_count: int,
                      k: int) -> tuple[list[Mask], list[tuple[int, ...]]]:
    """Masks and index tuples of the acyclic k-subsets of the edges, in
    lexicographic order of the tuples.

    A depth-first search adds edges in increasing index order and drops a
    prefix as soon as it closes a cycle, so the prefixes of acyclic subsets
    are tested once each. root[x] names the component of vertex x in the
    prefix forest; an edge closes a cycle exactly when its two ends share a
    root (a loop always does). An index stops a prefix when too few edges
    follow it to reach k, and the last level only tests each remaining edge.
    The stack is explicit, since k can exceed the recursion limit.
    """
    n = len(ends)
    bases: list[Mask] = []
    keys: list[tuple[int, ...]] = []
    # (next edge index, prefix mask, prefix tuple, root); children are pushed
    # in reverse, so the smallest index is explored first
    stack = [(0, 0, (), list(range(vertex_count)))]
    while stack:
        start, prefix, key, root = stack.pop()
        depth = len(key)
        if depth == k - 1:
            for j in range(start, n):
                a, b = ends[j]
                if root[a] != root[b]:
                    bases.append(prefix | 1 << j)
                    keys.append(key + (j,))
            continue
        children = []
        for j in range(start, n - k + depth + 1):
            a, b = ends[j]
            ra, rb = root[a], root[b]
            if ra != rb:
                children.append((j + 1, prefix | 1 << j, key + (j,),
                                 [ra if r == rb else r for r in root]))
        stack.extend(reversed(children))
    return bases, keys


def _integer_rows(rows: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    """Each row times the lcm of its denominators: same row space, integers."""
    out = []
    for row in rows:
        scale = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (scale // x.denominator) for x in row])
    return out


def _integer_rank(m: list[list[int]]) -> int:
    """Rank by fraction-free (Bareiss) elimination.

    Swaps and replaces entries of m but never writes into a row list, so a
    shallow copy of m keeps the caller's rows intact.

    After each pivot step every remaining entry is a minor of the input, so
    the division by the previous pivot is exact and entries stay integers.
    """
    height = len(m)
    rank = 0
    prev = 1
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, height) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        p = top[col]
        for r in range(rank + 1, height):
            row = m[r]
            f = row[col]
            m[r] = [(p * a - f * b) // prev for a, b in zip(row, top)]
        prev = p
        rank += 1
        if rank == height:
            break
    return rank


def matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank of a rational matrix, by integer Bareiss elimination."""
    return _integer_rank(_integer_rows(rows))


def _build_linear(spec: LinearSpec, origin: str | None) -> Matroid:
    rows = spec.matrix
    if not rows or not rows[0]:
        raise EmptyBasisFamily("empty matrix")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise RankMismatch("matrix rows of unequal length")
    labels = spec.labels if spec.labels is not None else tuple(f"v{i}" for i in range(width))
    if len(labels) != width:
        raise RankMismatch("label count does not match the column count")
    if len(rows) * width * min(len(rows), width) > WORK_LIMIT:
        raise TooLarge(f"ranking a {len(rows)} x {width} matrix exceeds the work "
                       f"limit of {WORK_LIMIT} steps")
    scaled = _integer_rows(rows)
    k = _integer_rank(list(scaled))
    if k == 0:
        raise EmptyBasisFamily("zero matrix has no independent columns")
    # ranking one height x k submatrix takes about height * k * k steps
    _guard_enumeration(width, k, len(scaled) * k * k)
    keys = [combo for combo in combinations(range(width), k)
            if _integer_rank([[row[c] for c in combo] for row in scaled]) == k]
    bases = [sum(1 << c for c in key) for key in keys]
    return Matroid(labels, bases, origin or f"linear({len(rows)}x{width})",
                   known_matroid=True, keys=keys)


def _build_explicit(spec: ExplicitSpec, origin: str | None) -> Matroid:
    ground = tuple(spec.ground)
    if not spec.bases:
        raise EmptyBasisFamily("no bases given")
    index = {lab: i for i, lab in enumerate(ground)}
    if len(index) != len(ground):
        raise UnknownElement("duplicate ground labels")
    sizes = {len(b) for b in spec.bases}
    if len(sizes) != 1:
        raise RankMismatch(f"bases of different sizes: {sorted(sizes)}")
    masks = []
    for b in spec.bases:
        mask = 0
        for lab in b:
            if lab not in index:
                raise UnknownElement(f"basis element {lab!r} not in the ground set")
            bit = 1 << index[lab]
            if mask & bit:
                raise UnknownElement(f"repeated element {lab!r} in a basis")
            mask |= bit
        masks.append(mask)
    return Matroid(ground, masks, origin or "explicit")


def build_matroid(spec: MatroidSpec, origin: str | None = None) -> Matroid:
    """Build the matroid described by a construction spec.

    Explicit families are taken verbatim (shape-checked only); their
    exchange axiom is checked once, at the first curvature computation
    (Matroid.require_matroid), or on demand by validate_exchange_axiom. The
    origin defaults to a description of the construction; a named spec
    always reports its catalog name.
    """
    if isinstance(spec, UniformSpec):
        return _build_uniform(spec, origin)
    if isinstance(spec, GraphicSpec):
        return _build_graphic(spec, origin)
    if isinstance(spec, LinearSpec):
        return _build_linear(spec, origin)
    if isinstance(spec, ExplicitSpec):
        return _build_explicit(spec, origin)
    if isinstance(spec, NamedSpec):
        from . import catalog

        return catalog.build_named(spec.name)
    raise TypeError(f"not a matroid spec: {spec!r}")


# ── validation ───────────────────────────────────────────────────────────────


def _stranded(table: dict[Mask, Mask], sub: Mask, active: Mask) -> Mask:
    """Vertices q of H(sub) with some edge of H(sub) outside N(q) + q.

    H(sub) joins x and y when sub + x + y is a basis, so N(x) is
    table[sub + x]; active holds the vertices with a neighbour. An edge cd
    strands every active vertex outside N(c) + c + N(d) + d.
    """
    closed = {}
    rest = active
    while rest:
        x = rest & -rest
        closed[x] = table[sub | x] | x
        rest ^= x
    stranded = 0
    for x, nx in closed.items():
        above = nx & ~((x << 1) - 1)  # each edge once, from its lower end
        while above:
            y = above & -above
            stranded |= active & ~(nx | closed[y])
            above ^= y
    return stranded


def _local_failures(table: dict[Mask, Mask],
                    failing: list[tuple[Mask, Mask, Mask]]) -> Iterator[tuple[Mask, Mask, int]]:
    """Candidates for the least failing distance-two triple (B1, B2, u).

    For a stranded q of H(sub), (sub + q + a, sub + c + d, a) fails for
    every neighbour a of q and every edge cd outside N(q) + q. Every failing
    distance-two triple arises this way, and for given (sub, q) only the
    least such B2 can be the least triple, so that one is yielded.
    """
    for sub, active, stranded in failing:
        for q in bits(stranded):
            nq = table[sub | 1 << q]
            outside = active & ~nq & ~(1 << q)
            b2 = min((sub | 1 << c | 1 << d for c in bits(outside)
                      for d in bits(table[sub | 1 << c] & outside) if c < d),
                     key=basis_sort_key)
            for a in bits(nq):
                yield sub | 1 << q | 1 << a, b2, a


def validate_exchange_axiom(m: Matroid) -> ValidationResult:
    """Check the basis exchange axiom through its local characterisation.

    The axiom asks, for all bases B1, B2 and every u in B1 - B2, for some y
    in B2 - B1 with B1 - u + y a basis. A nonempty family of equal-size sets
    satisfies it iff (a) it holds on every pair with |B1 - B2| = 2 and
    (b) the exchange graph, joining bases that differ by one exchange, is
    connected: the local exchange theorem for M-convex sets, applied to 0/1
    vectors (K. Murota, Discrete Convex Analysis, SIAM 2003). Both parts read
    the completion table, so the work is linear in the family (times a
    power of the rank), never a scan over pairs of bases.

    (a) A distance-two pair shares a (k-2)-set sub. On the graph H(sub) of
    _stranded, the pair (sub + q + a, sub + c + d) fails for u = a exactly
    when a is a neighbour of q and cd is an edge outside N(q) + q, so (a)
    holds iff no vertex of any H(sub) is stranded. The witness is then the
    least failing triple, ordered by the positions of B1 and B2 in
    sorted_bases() and then by u.

    (b) Bases that share a (k-1)-set are pairwise adjacent, so a union-find
    over the completion-table groups finds the components. If there are
    several, B1 is the first basis and B2 the first basis outside B1's
    component; B1 walks towards B2, replacing its lowest element of B1 - B2
    by the lowest replacement in B2 - B1, until that element has none. Each
    step keeps B1 in its component and shortens B1 - B2, and B1 never
    reaches B2, so within k steps the walk stops at a failing (B1, B2, u).

    Nonemptiness and the equal-cardinality (hence no-proper-subset)
    conditions hold by construction and are restated in the result detail.
    """
    table = m._completion_table()
    active_by_sub: dict[Mask, Mask] = {}
    for key in table:
        rest = key
        while rest:
            low = rest & -rest
            active_by_sub[key ^ low] = active_by_sub.get(key ^ low, 0) | low
            rest ^= low
    failing = []
    for sub, active in active_by_sub.items():
        stranded = _stranded(table, sub, active)
        if stranded:
            failing.append((sub, active, stranded))
    if failing:
        return _exchange_failure(m, *min(
            _local_failures(table, failing),
            key=lambda t: (basis_sort_key(t[0]), basis_sort_key(t[1]), t[2])))

    index = {b: i for i, b in enumerate(m.bases)}
    uf = _UnionFind(len(index))
    merges = 0
    for key, members in table.items():
        low = members & -members
        first = index[key | low]
        for x in bits(members ^ low):
            merges += uf.union(first, index[key | 1 << x])
    if merges < len(index) - 1:
        order = m.sorted_bases()
        b1 = order[0]
        root = uf.find(index[b1])
        b2 = next(b for b in order if uf.find(index[b]) != root)
        while True:
            missing = b1 & ~b2
            low = missing & -missing
            # completions of b1 - low avoid it, and low is not in b2
            replacements = table[b1 ^ low] & b2
            if not replacements:
                return _exchange_failure(m, b1, b2, low.bit_length() - 1)
            b1 ^= low | (replacements & -replacements)
    return ValidationResult.passed(
        f"exchange axiom holds for all {len(m.bases)} bases "
        f"(equal rank {m.rank}, nonempty by construction)"
    )


def _exchange_failure(m: Matroid, b1: Mask, b2: Mask, u: int) -> ValidationResult:
    return ValidationResult.failed(
        "exchange fails: no replacement in "
        f"{m.labels_of(b2)} - {m.labels_of(b1)} for "
        f"{m.labels[u]!r} dropped from {m.labels_of(b1)}",
        witness=(b1, b2, u),
    )
