"""Built-in named matroids.

Five entries: uniform-free test cases with known curvature behavior.
"""

from __future__ import annotations

from itertools import combinations

from .errors import ParseError
from .matroid import (
    ExplicitSpec,
    GraphicSpec,
    Matroid,
    build_matroid,
)

def vamos_spec() -> ExplicitSpec:
    """Rank-4 matroid on 8 elements, 65 of the 70 possible bases.

    Elements come in pairs A={a1,a2}, B, C, D; the five excluded quadruples
    are A∪B, A∪C, A∪D, B∪C, B∪D (C∪D stays independent). Not linear.
    """
    ground = ("a1", "a2", "b1", "b2", "c1", "c2", "d1", "d2")
    pairs = {"a": ("a1", "a2"), "b": ("b1", "b2"), "c": ("c1", "c2"), "d": ("d1", "d2")}
    excluded = {frozenset(pairs[x] + pairs[y])
                for x, y in (("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"))}
    bases = tuple(combo for combo in combinations(ground, 4)
                  if frozenset(combo) not in excluded)
    return ExplicitSpec(ground=ground, bases=bases)


def fano_spec() -> ExplicitSpec:
    """Rank-3 matroid on 7 points: all triples except the 7 lines of PG(2,2).

    Points are the nonzero vectors of GF(2)^3, named by their value 1..7;
    a triple is a line exactly when the values xor to zero.
    """
    ground = tuple(str(i) for i in range(1, 8))
    bases = tuple((str(a), str(b), str(c))
                  for a, b, c in combinations(range(1, 8), 3)
                  if a ^ b ^ c != 0)
    return ExplicitSpec(ground=ground, bases=bases)


def k4_spec() -> GraphicSpec:
    """Complete graph on the square a(0,0) b(1,0) c(1,1) d(0,1).

    Edges are labeled by their endpoints: ab (bottom), bc (right), cd (top),
    da (left), ac and bd (diagonals). Spanning trees: 16.
    """
    edges = (
        (0, 1, "ab"),
        (1, 2, "bc"),
        (2, 3, "cd"),
        (0, 3, "da"),
        (0, 2, "ac"),
        (1, 3, "bd"),
    )
    return GraphicSpec(vertex_count=4, edges=edges)


def k6_spec() -> GraphicSpec:
    """Complete graph on six vertices arranged as a hexagon.

    The outer cycle edges are labeled 1, 2, t, 3, 4, s in order, so
    S = {s,1,2,3,4} and T = {t,1,2,3,4} are the two Hamiltonian paths
    obtained by deleting t resp. s from the outer cycle. The nine chords
    are labeled by their endpoint pair ("13" joins vertices 1 and 3).
    Spanning trees: 6^4 = 1296.
    """
    edges = (
        (0, 1, "1"),
        (1, 2, "2"),
        (2, 3, "t"),
        (3, 4, "3"),
        (4, 5, "4"),
        (5, 0, "s"),
        (0, 2, "13"),
        (0, 3, "14"),
        (0, 4, "15"),
        (1, 3, "24"),
        (1, 4, "25"),
        (1, 5, "26"),
        (2, 4, "35"),
        (2, 5, "36"),
        (3, 5, "46"),
    )
    return GraphicSpec(vertex_count=6, edges=edges)


RANK3_GROUND = ("s", "t", "u", "u'",
                "v1", "v2", "v3", "v4", "v5",
                "w1", "w2", "w3", "w4", "w5")


def rank3_counterexample_spec() -> ExplicitSpec:
    """Rank-3 matroid on 14 elements whose walk has negative curvature,
    its 84 bases listed explicitly."""
    vs = ("v1", "v2", "v3", "v4", "v5")
    ws = ("w1", "w2", "w3", "w4", "w5")
    bases: list[tuple[str, str, str]] = [
        ("s", "u", "u'"),
        ("t", "u", "u'"),
        ("s", "t", "u"),
        ("s", "t", "u'"),
    ]
    for v in vs:
        bases.append(("s", "u", v))
        bases.append(("s", "u'", v))
        bases.append(("u", "u'", v))
    for w in ws:
        bases.append(("t", "u", w))
        bases.append(("t", "u'", w))
        bases.append(("u", "u'", w))
    for v in vs:
        for w in ws:
            bases.append(("u", v, w))
            bases.append(("u'", v, w))
    return ExplicitSpec(ground=RANK3_GROUND, bases=tuple(bases))


_BUILDERS = {
    "vamos": vamos_spec,
    "fano": fano_spec,
    "k4": k4_spec,
    "k6": k6_spec,
    "rank3-counterexample": rank3_counterexample_spec,
}
CATALOG_NAMES = tuple(_BUILDERS)


def build_named(name: str) -> Matroid:
    """Look up and build a catalog matroid; an unknown name, from named:KEY
    or from a named description file, raises ParseError here and only here."""
    try:
        spec = _BUILDERS[name]()
    except KeyError:
        known = ", ".join(CATALOG_NAMES)
        raise ParseError(f"unknown catalog name {name!r} (known: {known})") from None
    return build_matroid(spec, origin=f"named:{name}")
