"""Automorphisms of a matroid, as permutations of its elements.

An automorphism is a permutation of the ground set that maps the basis
family onto itself. automorphism_generators searches for a generating set
of that group by partition refinement and backtracking, in the manner of
McKay ("Practical graph isomorphism", 1981), with one route for every kind
of input:

* Colours start from the pair-count matrix P[e][f], the number of bases
  containing both e and f (P[e][e] counts the bases containing e), and are
  refined until stable: two elements keep one colour only while they share
  a colour and the multiset of (colour, P) over all elements, each pair
  kept as the int colour * (max P + 1) + P. After v is individualized the
  refinement reads v's row of P first: if the row is constant on every
  cell, the colouring is already stable.
* The search individualizes one element of the first non-singleton cell,
  refines again, and repeats down to a discrete colouring, a leaf. The
  first leaf fixes an order; another leaf whose refinements matched the
  first path's at every level gives a candidate, the permutation taking the
  element of each colour in the first leaf to the element of that colour
  in the other.
* A candidate is kept only when it maps every basis to a basis, the one
  proof that it is an automorphism. The leaf's P round has already
  compared P, whose digest is part of the invariant the leaf matched; P
  alone does not determine the family.

P can be blind where the family is not: the pair counts of a 2-design such
as the Fano plane are uniform, so no individualization splits anything but
the element itself, every leaf matches the first and most of them fail the
basis check. A second invariant, in the manner of the vertex invariants of
McKay and Piperno ("Practical graph isomorphism, II", 2014), serves there:
an incidence round colours each basis by the sorted tuple of its elements'
colours and adds to each element's signature the sorted multiset of its
bases' colours. It runs at a node only where P split no cell of a
colouring of three or more cells, not all single; and the search first runs
without it, switching it on and starting again only when a leaf fails the
basis check after some node where it would have run. So families whose
leaves all pass, uniform matroids among them, never pay for it, and K4,
whose failing leaves lie below nodes that P splits, does not restart.

Working up the first path, level by level, the search looks in the subtree
of each element of the level's cell that is not yet in the orbit of the
path's own choice, and keeps the first candidate there. With the search
complete these generate the whole group. One SEARCH_BUDGET covers the
whole search, restart included: a P round reads n * n entries of P, a
pivot test the n of one row, and an incidence round the |B| * k
element-basis incidences. Running out loses generators, never soundness,
since every kept permutation was checked against the family.

Each call of automorphism_generators runs a search. An exact
global_curvature run searches once, before its sweep, and uses the
generators three times: the sweep walks the orbits of the completion-table
keys, the exact walk maps a pair of an orbit's first key to its images on
the rest of the orbit to find the canonical-first one, and the set maps
(mask_image) let the exact walk and the all-pairs audit reuse a solved
value across an orbit of pairs. A bounds-only run does not search.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from operator import add

from .matroid import Mask, Matroid, _UnionFind

Permutation = tuple[int, ...]
Incidence = Callable[[list[int]], tuple[list[int], int, int] | None]

SEARCH_BUDGET = 1_000_000  # entries of P and basis incidences read by one search


def mask_image(perm: Permutation) -> Callable[[Mask], Mask]:
    """The map of element sets induced by perm, by one table lookup per byte.
    Each byte's table doubles once per element: the images of the sets
    without the element, then the same with its image added."""
    tables = []
    for start in range(0, len(perm), 8):
        table = [0]
        for e in perm[start:start + 8]:
            bit = 1 << e
            table += [t | bit for t in table]
        tables.append(table)

    def image(mask: Mask) -> Mask:
        out = 0
        for table in tables:
            out |= table[mask & 255]
            mask >>= 8
        return out

    return image


def pair_orbit(images: list[Callable[[Mask], Mask]], x: Mask,
               y: Mask) -> list[tuple[Mask, Mask]]:
    """The orbit of the unordered pair {x, y} under the group generated by
    the given set maps, each pair once as (smaller mask, larger mask)."""
    orbit = [(x, y) if x < y else (y, x)]
    seen = set(orbit)
    for a, b in orbit:  # grows while it is read
        for image in images:
            c, d = image(a), image(b)
            key = (c, d) if c < d else (d, c)
            if key not in seen:
                seen.add(key)
                orbit.append(key)
    return orbit


class _OutOfBudget(Exception):
    pass


class _BlindPairCounts(Exception):
    """A leaf failed the basis check after a node where P split no cell."""


def _pair_counts(m: Matroid) -> list[list[int]]:
    """P[e][f] as the popcount of the AND of two columns: column e has bit i
    set when the i-th basis in canonical order contains e."""
    m.sorted_bases()  # fills in the index tuples, m._keys
    columns = [bytearray((len(m._keys) + 7) // 8) for _ in range(m.n)]
    for i, key in enumerate(m._keys):
        byte, bit = i >> 3, 1 << (i & 7)
        for e in key:
            columns[e][byte] |= bit
    ints = [int.from_bytes(column, "little") for column in columns]
    return [[(a & b).bit_count() for b in ints] for a in ints]


def _relabel(signatures: list) -> tuple[list[int], int, int]:
    """Labels 0, 1, ... in the order of the sorted distinct signatures, their
    number and a hash of them."""
    ranked = sorted(set(signatures))
    label = {s: i for i, s in enumerate(ranked)}
    return [label[s] for s in signatures], len(ranked), hash(tuple(ranked))


def _pair_rounds(colours: list[int], weights: list[list[int]], width: int,
                 charge: Callable[[int], None]) -> tuple[list[int], int, int]:
    """P rounds until no cell splits or every cell is single: the colouring,
    its number of colours and a hash of the last round's signatures.

    A round gives e the signature (colour of e, sorted colour(f) * width +
    P[e][f] over all f); width exceeds every P, so the ints sort as the
    (colour, P) pairs would.
    """
    n = len(colours)
    count = len(set(colours))
    while True:
        charge(n * n)
        scaled = [c * width for c in colours]
        colours, new, digest = _relabel([(c, tuple(sorted(map(add, scaled, row))))
                                         for c, row in zip(colours, weights)])
        if new in (count, n):
            return colours, new, digest
        count = new


def _refine(colours: list[int], pivot: int | None, weights: list[list[int]],
            width: int, incidence: Incidence,
            charge: Callable[[int], None]) -> tuple[list[int], tuple[int, int, int]]:
    """The stable refinement of colours, labelled 0, 1, ... by the sorted
    signatures, and as the node's invariant the number of colours with
    hashes of the last signatures.

    colours is the root colouring (pivot None) or a stable colouring with
    pivot individualized. There the first P round could split a cell only
    where the pivot's row of P is not constant on it, so that row is read
    first; if it splits nothing and some cell has two or more elements, the
    colouring is already stable and the row's (colour, P) pairs are hashed
    instead. A discrete colouring always gets a P round, whose signatures
    hold all of P.

    Where the P rounds split no cell of colours and left three or more
    cells, not all single, incidence(colours) is asked for an incidence
    round; None means none is run. While incidence rounds split cells, they
    alternate with P rounds. One cell, or one element and one cell, give an
    incidence round nothing P does not: with one element v singled out, the
    bases through e with and without v number P[e][v] and P[e][e] - P[e][v].

    Labels depend on the signatures only, so the refinements of two
    colourings that an automorphism maps onto each other are mapped onto
    each other too, with equal invariants.
    """
    n = len(colours)
    given = len(set(colours))
    row = None
    if pivot is not None and given < n:
        charge(n)
        row = frozenset(zip(colours, weights[pivot]))
    if row is not None and len(row) == given:
        count, digest = given, hash(row)
    else:
        colours, count, digest = _pair_rounds(colours, weights, width, charge)
    incidence_digest = 0
    if count == given and 3 <= count < n:
        while (rounded := incidence(colours)) is not None:
            colours, new, incidence_digest = rounded
            if new == count:
                break
            colours, count, digest = _pair_rounds(colours, weights, width, charge)
            if count == n:
                break
    return colours, (count, digest, incidence_digest)


def _individualize(colours: list[int], v: int) -> list[int]:
    """v alone in a new cell just after the rest of its own, with labels
    kept 0, 1, ..."""
    own = colours[v]
    out = [c + (c > own) for c in colours]
    out[v] = own + 1
    return out


def _target_cell(colours: list[int]) -> list[int] | None:
    """The elements of the lowest-labelled cell with two or more, if any."""
    sizes = Counter(colours)
    target = min((c for c, size in sizes.items() if size > 1), default=None)
    if target is None:
        return None
    return [e for e, c in enumerate(colours) if c == target]


def _leaf_permutation(first: list[int], leaf: list[int]) -> Permutation:
    """Element of colour c in the first leaf to element of colour c in leaf."""
    by_colour = [0] * len(leaf)
    for e, c in enumerate(leaf):
        by_colour[c] = e
    perm = [0] * len(leaf)
    for e, c in enumerate(first):
        perm[e] = by_colour[c]
    return tuple(perm)


def _is_automorphism(perm: Permutation, bases: frozenset[Mask]) -> bool:
    """perm maps every basis to a basis, so, being a bijection, maps the
    family onto itself. P needs no comparison here: the leaf's own P round
    compared it, its digest being part of the invariant the leaf matched,
    and a permutation that changes P fails this check too."""
    image = mask_image(perm)
    return all(image(b) in bases for b in bases)


def automorphism_generators(m: Matroid) -> tuple[Permutation, ...]:
    """Generators of the automorphism group of m, each a tuple p with p[e]
    the image of element e, checked to map the basis family onto itself.

    An empty tuple means no non-trivial automorphism was found: the group
    is trivial, or the search ran out of budget.
    """
    n = m.n
    left = SEARCH_BUDGET
    if n * n > left:
        return ()
    weights = _pair_counts(m)
    width = max(map(max, weights)) + 1

    def charge(reads: int) -> None:
        nonlocal left
        left -= reads
        if left < 0:
            raise _OutOfBudget

    containing: list[list[int]] = []  # positions of the bases through e

    def incidence_round(colours: list[int]) -> tuple[list[int], int, int]:
        """A basis's colour is the sorted tuple of its elements' colours,
        ranked; e's signature is (colour of e, sorted multiset of the
        colours of the bases through e)."""
        keys = m._keys
        charge(len(keys) * m.rank)
        if not containing:
            containing.extend([] for _ in range(n))
            for i, key in enumerate(keys):
                for e in key:
                    containing[e].append(i)
        colour_of = colours.__getitem__
        tuples = [tuple(sorted(map(colour_of, key))) for key in keys]
        rank = {t: i for i, t in enumerate(sorted(set(tuples)))}
        basis_colour = [rank[t] for t in tuples].__getitem__
        return _relabel([(c, tuple(sorted(map(basis_colour, through))))
                         for c, through in zip(colours, containing)])

    blind = False  # whether an incidence round was asked for and not run

    def no_incidence(colours: list[int]) -> None:
        nonlocal blind
        blind = True
        return None

    generators: list[Permutation] = []

    def search(incidence: Incidence) -> None:
        def refine(node: list[int], v: int | None) -> tuple[list[int], tuple[int, int, int]]:
            """The refinement of node with v individualized; the root's
            refinement for v None."""
            colours = node if v is None else _individualize(node, v)
            return _refine(colours, v, weights, width, incidence, charge)

        # path[d] = (colouring at depth d, its target cell, invariant of the
        # child that individualizes the cell's first element); a colouring
        # whose invariant matches the last one is discrete, so a leaf
        path: list[tuple[list[int], list[int], tuple[int, int, int]]] = []
        node, _ = refine([0] * n, None)
        while (cell := _target_cell(node)) is not None:
            child, invariant = refine(node, cell[0])
            path.append((node, cell, invariant))
            node = child
        first = node

        def candidate(node: list[int], depth: int, v: int) -> Permutation | None:
            """A verified candidate from a leaf below node, the colouring at
            depth with v individualized, or None; the invariants must match
            the first path's at every level."""
            child, invariant = refine(node, v)
            if invariant != path[depth][2]:
                return None
            if depth + 1 == len(path):
                perm = _leaf_permutation(first, child)
                if _is_automorphism(perm, m.bases):
                    return perm
                if blind and incidence is no_incidence:
                    raise _BlindPairCounts
                return None
            for u in _target_cell(child):
                found = candidate(child, depth + 1, u)
                if found is not None:
                    return found
            return None

        orbits = _UnionFind(n)
        for depth in reversed(range(len(path))):
            node, cell, _ = path[depth]
            for w in cell[1:]:
                if orbits.find(w) == orbits.find(cell[0]):
                    continue
                perm = candidate(node, depth, w)
                if perm is not None:
                    generators.append(perm)
                    for e, image in enumerate(perm):
                        orbits.union(e, image)

    try:
        try:
            search(no_incidence)
        except _BlindPairCounts:
            # generators of the first pass need not fix the new first path
            generators.clear()
            search(incidence_round)
    except _OutOfBudget:
        pass
    return tuple(generators)
