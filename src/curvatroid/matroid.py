"""Matroids given by their basis families, over a canonicalized ground set.

Elements are canonicalized to indices 0..n-1; user labels live in a sidecar
tuple. A set of elements is an int bitmask over those indices, so all the
hot set algebra (exchange neighborhoods, symmetric differences) is integer
arithmetic. Bases are enumerated explicitly, which is exact and
comfortably fast at desk scale (n up to ~20): the uniform construction
lists the k-subsets; the linear one computes every maximal minor in one
Laplace pass over the rows, on the dual when 2k > n; the graphic one grows
spanning forests edge by edge, by a depth-first search whose last level
(a forest two edges short) runs as one flat loop. It grows no dead prefix:
forest F plus edge i extends to a basis by later edges iff
rank(F + E>=i) = k, since F + i + E>i is that same set. Every construction
emits its family in canonical order, and origin_hash() digests that order.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations
from math import lcm
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

from .errors import (
    DegenerateGraph,
    EmptyBasisFamily,
    InvalidRank,
    NotAMatroid,
    RankMismatch,
    TooLarge,
    UnknownElement,
    ValidationResult,
)

Mask = int

ENUMERATION_LIMIT = 2_000_000  # max C(n, k) subsets, audit pairs and `pairs` listed pairs
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


class UniformSpec(NamedTuple):
    n: int
    k: int


class GraphicSpec(NamedTuple):
    vertex_count: int
    edges: tuple[tuple[int, int, str], ...]  # (endpoint, endpoint, label)


class LinearSpec(NamedTuple):
    matrix: tuple[tuple[Fraction, ...], ...]  # rows; columns are the elements
    labels: tuple[str, ...] | None = None


class ExplicitSpec(NamedTuple):
    ground: tuple[str, ...]
    bases: tuple[tuple[str, ...], ...]


class NamedSpec(NamedTuple):
    name: str


MatroidSpec = Union[UniformSpec, GraphicSpec, LinearSpec, ExplicitSpec, NamedSpec]


# ── the matroid itself ──────────────────────────────────────────────────────


class Matroid:
    """Ground labels plus an enumerated basis family, with exchange helpers.

    Instances are immutable once built. The constructor is the one check of
    a family's shape: nonempty, of equal sizes and positive rank, within a
    ground set of distinct labels. constructed marks a family that the uniform,
    graphic or linear construction enumerated: a matroid by theorem, listed
    in canonical order. Any other family is sorted once here, and checked
    against the exchange axiom once, by require_matroid, before its first
    curvature result. sorted_bases(), origin_hash() and the automorphism
    search read the canonical order, and bases are held as masks only.

    The completion set N(R) of a (k-1)-set R holds the elements x with
    R + x a basis; _completions is their one store (_CompletionSets). The
    walk kernels, the pair witness and the down-step coupling subscript it,
    one N(R) at a time, so a single-pair query on a family that needs no
    validation never fills it; whole-family passes (the sweep, pair
    enumeration, validation) iterate the full table, _completion_table().
    """

    __slots__ = ("labels", "rank", "bases", "origin", "_index", "_completions",
                 "_sorted", "_exchange", "__weakref__")

    def __init__(self, labels: Sequence[str], bases: Iterable[Mask], origin: str,
                 constructed: bool = False):
        bases = list(bases)
        family = frozenset(bases)
        if not family:
            raise EmptyBasisFamily("basis family is empty")
        self.labels = tuple(labels)
        if len(set(self.labels)) != len(self.labels):
            raise UnknownElement("duplicate ground labels")
        ranks = {m.bit_count() for m in family}
        if len(ranks) != 1:
            raise RankMismatch(f"bases of different sizes: {sorted(ranks)}")
        (self.rank,) = ranks
        if self.rank == 0:
            raise EmptyBasisFamily("rank-0 family (only the empty set)")
        full = (1 << len(self.labels)) - 1
        if min(family) < 0 or max(family) > full:
            raise UnknownElement("basis uses an element outside the ground set")
        self.bases = family
        self._sorted = bases if constructed else sorted(family, key=basis_sort_key)
        self.origin = origin
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        self._completions = _CompletionSets(family, full)
        self._exchange: ValidationResult | None = (
            ValidationResult.passed("matroid by construction") if constructed else None)

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
        labels = self.labels
        out = []
        while mask:  # the set bits, lowest first, as bits() yields them
            low = mask & -mask
            out.append(labels[low.bit_length() - 1])
            mask ^= low
        return tuple(out)

    def sorted_bases(self) -> list[Mask]:
        """All bases in canonical order."""
        return self._sorted

    # -- exchange structure ----------------------------------------------

    def _completion_table(self) -> _CompletionSets:
        """The store, filled with every (k-1)-subset of a basis."""
        if not self._completions.complete:
            self._completions.fill()
        return self._completions

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
        """SHA-256 of json.dumps({"labels", "rank", "bases"},
        separators=(",", ":")), where "bases" lists the index tuples in
        canonical order. Each index array is written from its mask, one
        8-element chunk at a time (_chunk_digits); dropping the comma before
        its first index leaves the same text json.dumps writes for it."""
        columns = [[digits[mask >> shift & 255] for mask in self._sorted]
                   for shift, digits in _chunk_digits(self.n)]
        rows = "],[".join(map("".join, zip(*columns))).replace("[,", "[")[1:]
        head = json.dumps({"labels": list(self.labels), "rank": self.rank},
                          separators=(",", ":"))
        blob = f'{head[:-1]},"bases":[[{rows}]]}}'.encode()
        return hashlib.sha256(blob).hexdigest()

    def __repr__(self) -> str:
        return (f"Matroid(origin={self.origin!r}, n={self.n}, rank={self.rank}, "
                f"bases={len(self.bases)})")


@lru_cache(maxsize=None)
def _chunk_digits(n: int) -> tuple[tuple[int, tuple[str, ...]], ...]:
    """Per 8-element chunk of n elements: its first element s, and a table whose
    entry b is the text ",s+j" for each set bit j of b, doubled per element."""
    return tuple((s, tuple(reduce(lambda table, i: table + [t + f",{i}" for t in table],
                                  range(s, min(s + 8, n)), [""]))) for s in range(0, n, 8))


class _CompletionSets(dict):
    """N(R) by (k-1)-set R: the one store of a Matroid's completion sets.

    A subscript computes N(R) at its first read, from the n - k + 1
    membership tests R + x in bases, and remembers it; a pair query reads
    2k - 1 such sets. fill() adds every key in one pass over the bases,
    visiting all |bases| * k (basis, element) pairs, and sets complete: the
    store is then the completion table that whole-family passes iterate.
    Keys read before the fill come first in iteration order, so those
    passes must not depend on key order. Subscript only with a (k-1)-subset
    of a basis: the table has no other keys.

    Holds the basis family and the ground-set mask, not the matroid, so the
    matroid and its store form no reference cycle.
    """

    __slots__ = ("_bases", "_ground", "complete")

    def __init__(self, bases: frozenset[Mask], ground: Mask):
        super().__init__()
        self._bases = bases
        self._ground = ground
        self.complete = False

    def __missing__(self, sub: Mask) -> Mask:
        bases = self._bases
        found = 0
        rest = self._ground & ~sub
        while rest:
            low = rest & -rest
            if sub | low in bases:
                found |= low
            rest ^= low
        self[sub] = found
        return found

    def fill(self) -> None:
        """Add every key in one pass over the bases: self[B - u] gets bit u
        of each basis B; a key read before already holds every such bit."""
        get = self.get  # dict.get: never calls __missing__
        for b in self._bases:
            rest = b
            while rest:
                low = rest & -rest
                sub = b ^ low
                self[sub] = get(sub, 0) | low
                rest ^= low
        self.complete = True


# ── constructions ───────────────────────────────────────────────────────────


def _default_labels(n: int) -> tuple[str, ...]:
    if n <= len(_LETTERS):
        return tuple(_LETTERS[:n])
    return tuple(f"e{i}" for i in range(n))


def _guard_enumeration(n: int, k: int) -> None:
    """Raise TooLarge when C(n, k) exceeds ENUMERATION_LIMIT, or when the
    estimated work C(n, k) * k * ceil(n / 64) exceeds WORK_LIMIT.

    Every enumerated subset sets k bits of an n-bit mask, ceil(n / 64)
    machine words wide. The binomial is multiplied out over
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
    if count * k * -(-n // 64) > WORK_LIMIT:
        raise TooLarge(f"enumerating C({n},{k}) subsets exceeds the work limit of "
                       f"{WORK_LIMIT} steps")


def _build_uniform(spec: UniformSpec, origin: str | None) -> Matroid:
    n, k = spec.n, spec.k
    if not (1 <= k <= n):
        raise InvalidRank(f"uniform matroid needs 1 <= k <= n, got k={k}, n={n}")
    _guard_enumeration(n, k)
    bases = list(map(sum, combinations([1 << i for i in range(n)], k)))
    return Matroid(_default_labels(n), bases, origin or f"uniform(n={n},k={k})",
                   constructed=True)


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
    bases = _spanning_forests(ends, len(touched), k)
    return Matroid(labels, bases, origin or f"graphic(vertices={v},edges={n})",
                   constructed=True)


def _spanning_forests(ends: list[tuple[int, int]], vertex_count: int,
                      k: int) -> list[Mask]:
    """Masks of the acyclic k-subsets of the edges, in canonical order:
    lexicographic on their index tuples.

    A depth-first search adds edges in increasing index order and expands a
    prefix forest F only by live edges: i joins two components of F and
    rank(F + E>=i) = k, as F + i + E>i is that same set. The rank only falls
    as i grows, so one backward scan that merges components until k - |F|
    unions are found gives the last live index. Endpoints are read from
    two flat lists, heads and tails; component labels are a str, one chr
    per vertex, merged by str.replace. A prefix two edges short of k has
    its own loop, which emits each child's bases in place; a longer one
    pushes its live children largest index first, so the smallest is
    popped first. The stack is explicit, since k can exceed the recursion
    limit.
    """
    n = len(ends)
    if k == 1:
        return [1 << j for j, (a, b) in enumerate(ends) if a != b]
    heads = [a for a, _ in ends]
    tails = [b for _, b in ends]
    bases: list[Mask] = []
    # (next edge index, prefix mask, edges still needed, labels) of live
    # prefixes two or more edges short
    stack = [(0, 0, k, "".join(map(chr, range(vertex_count))))]
    pop, push = stack.pop, stack.append
    while stack:
        start, prefix, need, root = pop()
        last = n - need  # a later edge leaves too few behind it
        if last > start:  # else all the rest is needed, and F is live
            comp, last, unions = root, n, need
            while unions:
                last -= 1
                x, y = comp[heads[last]], comp[tails[last]]
                if x != y:
                    unions -= 1
                    comp = comp.replace(y, x)
        if need == 2:  # each later edge that joins two components ends a basis
            for i in range(start, last + 1):
                x, y = root[heads[i]], root[tails[i]]
                if x == y:
                    continue
                child = root.replace(y, x)
                mask = prefix | 1 << i
                for j in range(i + 1, n):
                    if child[heads[j]] != child[tails[j]]:
                        bases.append(mask | 1 << j)
        else:  # pushed largest index first, so the smallest is explored first
            for i in range(last, start - 1, -1):
                x, y = root[heads[i]], root[tails[i]]
                if x != y:
                    push((i + 1, prefix | 1 << i, need - 1, root.replace(y, x)))
    return bases


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
    shallow copy of m keeps the caller's rows intact. The first rank rows
    of m are then in echelon form and span the row space of the input.

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


def _build_linear(spec: LinearSpec, origin: str | None) -> Matroid:
    """Column matroid of a rational matrix of rank k: a k-set of columns is
    a basis iff its minor on k independent rows is nonzero.

    The rows are the k echelon rows the rank computation leaves, and one
    pass lists the nonzero minors (_nonzero_maximal_minors). When 2k > n it
    runs on the dual, whose bases are the complements, so no level of the
    pass has more than C(n, min(k, n - k)) column sets.
    """
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
    echelon = _integer_rows(rows)
    k = _integer_rank(echelon)
    if k == 0:
        raise EmptyBasisFamily("zero matrix has no independent columns")
    _guard_enumeration(width, k)
    top = echelon[:k]
    if 2 * k <= width:
        bases = _nonzero_maximal_minors(top, width)
    else:
        # bases are the complements of the dual's, and complementing
        # reverses the lexicographic order of equal-size sets
        full = (1 << width) - 1
        dual = _nonzero_maximal_minors(_dual_rows(top, width), width)
        bases = [full ^ mask for mask in reversed(dual)]
    return Matroid(labels, bases, origin or f"linear({len(rows)}x{width})",
                   constructed=True)


def _nonzero_maximal_minors(rows: list[list[int]], width: int) -> list[Mask]:
    """Masks of the column sets whose maximal minor is nonzero, in canonical
    order (lexicographic on their index tuples); rows must be independent.

    Laplace expansion along the rows: level j maps each j-column set with a
    nonzero minor on the last j rows to that minor, and is built from level
    j - 1 by expanding along its first row. Only columns with a nonzero
    entry in those rows can take part, which in echelon rows leaves out
    every column left of the top one's pivot. The last level is emitted,
    not stored, so the pass keeps at most C(width, len(rows) - 1) minors.
    """
    height = len(rows)
    if not height:  # the empty minor is 1
        return [0]
    level = {0: 1}
    bases: list[Mask] = []
    for j in range(1, height + 1):
        row = rows[height - j]
        below = level
        level = {}
        columns = [c for c in range(width) if any(r[c] for r in rows[height - j:])]
        for key in combinations(columns, j):
            mask = 0
            for c in key:
                mask |= 1 << c
            det = 0
            sign = 1
            for c in key:
                x = row[c]
                if x:
                    minor = below.get(mask ^ 1 << c)
                    if minor:
                        det += sign * x * minor
                sign = -sign
            if not det:
                continue
            if j < height:
                level[mask] = det
            else:
                bases.append(mask)
    return bases


def _dual_rows(rows: list[list[int]], width: int) -> list[list[int]]:
    """Integer rows whose column matroid is the dual of that of the given
    independent echelon rows.

    The reduced row echelon form is [I | A] up to a column permutation, and
    [-A^T | I] in the same column order spans its orthogonal complement;
    each of its rows is scaled to integers.
    """
    reduced: list[list[Fraction]] = []
    pivots: list[int] = []
    for row in rows:
        pivot = next(c for c, x in enumerate(row) if x)
        lead = row[pivot]
        new = [Fraction(x, lead) for x in row]
        # the earlier rows' pivot columns are zero in an echelon row, so
        # clearing this pivot column above leaves theirs as they are
        reduced = [[a - r[pivot] * b for a, b in zip(r, new)] if r[pivot] else r
                   for r in reduced]
        reduced.append(new)
        pivots.append(pivot)
    dual = []
    for q in sorted(set(range(width)) - set(pivots)):
        row = [Fraction(0)] * width
        row[q] = Fraction(1)
        for r, pivot in zip(reduced, pivots):
            row[pivot] = -r[q]
        dual.append(row)
    dual = _integer_rows(dual)
    _integer_rank(dual)  # into echelon form, for the minor pass's sparsity
    return dual


def _build_explicit(spec: ExplicitSpec, origin: str | None) -> Matroid:
    """Map each basis's labels to a mask; Matroid checks the family's shape.
    A basis of distinct labels has as many bits as labels, so a family of
    unequal sizes fails there as RankMismatch."""
    index = {lab: i for i, lab in enumerate(spec.ground)}
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
    return Matroid(spec.ground, masks, origin or "explicit")


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
