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
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from types import MappingProxyType
from typing import Mapping

from .errors import NotABasis
from .matroid import Mask, Matroid, bits


def exchange_distance(x: Mask, y: Mask) -> int:
    """Exchange-graph distance |X - Y| between two bases of a matroid."""
    return (x & ~y).bit_count()


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probability distribution over bases (masks): positive integer weights
    over a common denominator, so the mass of b is weights[b] / denominator.

    The weights need not be in lowest terms; equality is identity.
    """

    weights: Mapping[Mask, int]
    denominator: int

    def __post_init__(self):
        frozen = MappingProxyType(dict(self.weights))
        object.__setattr__(self, "weights", frozen)
        total = 0
        for b, w in frozen.items():
            if w <= 0:
                raise ValueError(f"nonpositive weight {w} on {b}")
            total += w
        if total != self.denominator or total <= 0:
            raise ValueError(f"weights sum to {total}, not the denominator "
                             f"{self.denominator}")


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
