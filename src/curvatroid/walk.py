"""The down-up basis-exchange walk and the metric of the basis exchange graph.

One walk step from a basis S: drop an element u of S uniformly, then replace
S - u by a uniform choice among all bases containing it. A kernel row holds
positive integer weights over one common denominator, so every mass is
exact without Fraction arithmetic. A row reads only the k completion sets
N(S - u) of its own basis from the matroid's store (Matroid._completions),
so a single-pair query never fills the completion table. The exchange graph
(bases adjacent when they differ by one exchange) carries the metric used
by the transport layer. In a matroid its shortest-path distance is
d(X, Y) = |X - Y|, so exchange_distance is a popcount and no graph is
built. The formula holds only in a matroid: basis_graph, like every
curvature computation, runs Matroid.require_matroid first, which checks an
explicit family against the exchange axiom once and rejects a non-matroid
with the validator's witness. basis_graph then returns every kernel row in
a plain dict, cached nowhere; it keeps its name because the benchmark's
walk.graph span traces it.

Every value record of the package is a NamedTuple. One that checks its
input, Distribution here and the curvature module's PairFrame, subclasses a
private NamedTuple of its fields and checks in its own __new__.
"""

from __future__ import annotations

from math import lcm
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .errors import NotABasis
from .matroid import Mask, Matroid, bits


def exchange_distance(x: Mask, y: Mask) -> int:
    """Exchange-graph distance |X - Y| between two bases of a matroid."""
    return (x & ~y).bit_count()


class _DistributionFields(NamedTuple):
    weights: Mapping[Mask, int]
    denominator: int


class Distribution(_DistributionFields):
    """Probability distribution over bases (masks): positive integer weights
    over a common denominator, so the mass of b is weights[b] / denominator.

    __new__, which _make and _replace run too, keeps a read-only copy of the
    weights. They need not be in lowest terms, so equality is identity, even
    against a tuple of the same fields. A weight or denominator that is not
    an int (a float, a Fraction) raises ValueError, like every other check.
    """

    __slots__ = ()

    def __new__(cls, weights: Mapping[Mask, int], denominator: int):
        frozen = MappingProxyType(dict(weights))
        total = 0
        for b, w in frozen.items():
            if w <= 0:
                raise ValueError(f"nonpositive weight {w} on {b}")
            total += w
        # a sum of ints is an int; one float or Fraction weight makes it not
        if type(total) is not int or type(denominator) is not int:
            raise ValueError(f"weights and denominator must be ints: weights sum to "
                             f"{total!r} over {denominator!r}")
        if total != denominator or total <= 0:
            raise ValueError(f"weights sum to {total}, not the denominator "
                             f"{denominator}")
        return tuple.__new__(cls, (frozen, denominator))

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    def __eq__(self, other):
        return self is other

    def __ne__(self, other):
        return self is not other

    __hash__ = object.__hash__


def transition_distribution(m: Matroid, s: Mask) -> Distribution:
    """One-step distribution of the down-up walk started at basis s.

    Dropping u leaves the hole s - u, whose completions each get mass
    1 / (k |N(s - u)|); the k sets N(s - u) are read one at a time from
    the matroid's store (Matroid._completions), which they do not fill.
    Over the common denominator k * lcm_u |N(s - u)| every mass is an
    integer weight. Multiple (drop, add) routes to the same target are
    summed into a single support entry; the result always puts positive
    mass on s itself.
    """
    if s not in m.bases:
        raise NotABasis("walk must start at a basis")
    table = m._completions
    holes = [(s ^ (1 << u), table[s ^ (1 << u)]) for u in bits(s)]
    scale = lcm(*(comps.bit_count() for _, comps in holes))
    out: dict[Mask, int] = {}
    for sub, comps in holes:
        w = scale // comps.bit_count()
        while comps:
            low = comps & -comps
            target = sub | low
            out[target] = out.get(target, 0) + w
            comps ^= low
    return Distribution(out, m.rank * scale)


def basis_graph(m: Matroid) -> dict[Mask, Distribution]:
    """Every kernel row of m, keyed by basis, after the matroid gate; raises
    NotAMatroid for a non-matroid."""
    m.require_matroid()
    return {b: transition_distribution(m, b) for b in m.bases}
