"""Automorphisms of a matroid, as permutations of its elements.

An automorphism is a permutation of the ground set that maps the basis
family onto itself. automorphism_generators searches for a generating set
of that group by partition refinement and backtracking, in the manner of
McKay ("Practical graph isomorphism", 1981), with one route for every kind
of input:

* Colours start from the pair-count matrix P[e][f], the number of bases
  containing both e and f (P[e][e] counts the bases containing e), and are
  refined until stable: two elements keep one colour only while they share
  a colour and the multiset of (colour, P) over all elements.
* The search individualizes one element of the first non-singleton cell,
  refines again, and repeats down to a discrete colouring, a leaf. The
  first leaf fixes an order; another leaf whose refinements matched the
  first path's at every level gives a candidate, the permutation taking the
  element of each colour in the first leaf to the element of that colour
  in the other.
* A candidate is kept only when it preserves P and maps every basis to a
  basis: P alone does not determine the family.

Working up the first path, level by level, the search looks in the subtree
of each element of the level's cell that is not yet in the orbit of the
path's own choice, and keeps the first candidate there. With the search
complete these generate the whole group. The search stops at
SEARCH_BUDGET pair reads of P; running out loses generators, never
soundness, since every kept permutation was checked against the family.

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

from .matroid import Mask, Matroid, _UnionFind

Permutation = tuple[int, ...]

SEARCH_BUDGET = 1_000_000  # reads of P over all refinement rounds of one search


def mask_image(perm: Permutation) -> Callable[[Mask], Mask]:
    """The map of element sets induced by perm, by one table lookup per byte."""
    tables = []
    for start in range(0, len(perm), 8):
        chunk = perm[start:start + 8]
        table = [0] * (1 << len(chunk))
        for x in range(1, len(table)):
            low = x & -x
            table[x] = table[x ^ low] | 1 << chunk[low.bit_length() - 1]
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


def _refine(colours: list[int], weights: list[list[int]],
            charge: Callable[[], None]) -> tuple[list[int], tuple[int, int]]:
    """The stable refinement of colours, labelled 0, 1, ... by the sorted
    signatures, and as the node's invariant the number of colours with a
    hash of the last signatures. charge is called once per round.

    Labels depend on the signatures only, so the refinements of two
    colourings that an automorphism of P maps onto each other are mapped
    onto each other too, with equal invariants.
    """
    count = len(set(colours))
    while True:
        charge()
        signatures = [(colours[e], tuple(sorted(zip(colours, row))))
                      for e, row in enumerate(weights)]
        ranked = sorted(set(signatures))
        label = {s: i for i, s in enumerate(ranked)}
        colours = [label[s] for s in signatures]
        if len(ranked) == count:
            return colours, (count, hash(tuple(ranked)))
        count = len(ranked)


def _individualize(colours: list[int], v: int) -> list[int]:
    """v alone in a new cell just after the rest of its own."""
    out = [2 * c for c in colours]
    out[v] += 1
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


def _is_automorphism(perm: Permutation, weights: list[list[int]],
                     bases: frozenset[Mask]) -> bool:
    """perm preserves P and maps every basis to a basis (so, being a
    bijection, maps the family onto itself)."""
    for e, row in enumerate(weights):
        image_row = weights[perm[e]]
        if any(image_row[perm[f]] != w for f, w in enumerate(row)):
            return False
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

    def charge() -> None:
        nonlocal left
        left -= n * n
        if left < 0:
            raise _OutOfBudget

    def refine(colours: list[int]) -> tuple[list[int], tuple[int, int]]:
        return _refine(colours, weights, charge)

    # path[d] = (colouring at depth d, its target cell, invariant of the
    # child that individualizes the cell's first element); a colouring whose
    # invariant matches the last one is discrete, so a leaf
    path: list[tuple[list[int], list[int], tuple[int, int]]] = []
    generators: list[Permutation] = []
    try:
        node, _ = refine([0] * n)
        while (cell := _target_cell(node)) is not None:
            child, invariant = refine(_individualize(node, cell[0]))
            path.append((node, cell, invariant))
            node = child
        first = node

        def candidate(node: list[int], depth: int, v: int) -> Permutation | None:
            """A verified candidate from a leaf below node, the colouring at
            depth with v individualized, or None; the invariants must match
            the first path's at every level."""
            child, invariant = refine(_individualize(node, v))
            if invariant != path[depth][2]:
                return None
            if depth + 1 == len(path):
                perm = _leaf_permutation(first, child)
                return perm if _is_automorphism(perm, weights, m.bases) else None
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
    except _OutOfBudget:
        pass
    return tuple(generators)
