"""The down-up basis-exchange walk and the metric of the basis exchange graph.

One walk step from a basis S: drop an element u of S uniformly, then replace
S - u by a uniform choice among all bases containing it. A kernel row holds
positive integer weights over one common denominator, so every mass is
exact without Fraction arithmetic. A row reads only the k completion sets
N(S - u) of its own basis (Matroid._completion_lookup), so a single-pair
query builds no completion table. The exchange graph (bases adjacent when
they differ by one exchange) carries the metric used by the transport
layer. In a matroid its shortest-path distance is d(X, Y) = |X - Y|, so
exchange_distance is a popcount and no graph is built. The formula holds
only in a matroid: basis_graph, like every curvature computation, runs
Matroid.require_matroid first, which checks an explicit family against the
exchange axiom once and rejects a non-matroid with the validator's witness.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from types import MappingProxyType
from typing import Mapping

from .errors import NotABasis
from .matroid import Mask, Matroid, bits


def exchange_distance(x: Mask, y: Mask) -> int:
    """Exchange-graph distance |X - Y| between two bases of a matroid."""
    return (x & ~y).bit_count()


@dataclass(frozen=True)
class Distribution:
    """Probability distribution over bases (masks): positive integer weights
    over a common denominator, so the mass of b is weights[b] / denominator.

    The weights need not be in lowest terms; equality compares masses.
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

    @property
    def masses(self) -> dict[Mask, Fraction]:
        """Every support entry with its exact mass."""
        return {b: Fraction(w, self.denominator) for b, w in self.weights.items()}

    def __eq__(self, other) -> bool:
        if not isinstance(other, Distribution):
            return NotImplemented
        return self.masses == other.masses


def transition_distribution(m: Matroid, s: Mask) -> Distribution:
    """One-step distribution of the down-up walk started at basis s.

    Dropping u leaves the hole s - u, whose completions each get mass
    1 / (k |N(s - u)|); the k sets N(s - u) are read one at a time through
    Matroid._completion_lookup, so no completion table is built for them.
    Over the common denominator k * lcm_u |N(s - u)| every mass is an
    integer weight. Multiple (drop, add) routes to the same target are
    summed into a single support entry; the result always puts positive
    mass on s itself.
    """
    if s not in m.bases:
        raise NotABasis("walk must start at a basis")
    table = m._completion_lookup()
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


class BasisGraph:
    """Kernel cache and exchange-graph metric of a matroid's down-up walk.

    The constructor runs the matroid gate (Matroid.require_matroid), so the
    basis-graph distance it serves is the formula |X - Y|. The matroid is
    held through a weak proxy: basis_graph caches the graph under the
    matroid as a weak key, and a strong reference back to the key would keep
    every matroid, with its tables and kernels, alive for the whole process.
    Using the graph after its matroid is gone raises ReferenceError.
    """

    def __init__(self, m: Matroid):
        m.require_matroid()
        self.matroid = weakref.proxy(m)
        self._kernels: dict[Mask, Distribution] = {}

    def kernel(self, s: Mask) -> Distribution:
        """Cached transition distribution."""
        dist = self._kernels.get(s)
        if dist is None:
            dist = transition_distribution(self.matroid, s)
            self._kernels[s] = dist
        return dist

    def distance(self, x: Mask, y: Mask) -> int:
        """Exchange-graph distance between two bases: |X - Y|."""
        bases = self.matroid.bases
        if x not in bases or y not in bases:
            raise NotABasis("distance is defined between bases only")
        return exchange_distance(x, y)


_graphs: "weakref.WeakKeyDictionary[Matroid, BasisGraph]" = weakref.WeakKeyDictionary()


def basis_graph(m: Matroid) -> BasisGraph:
    """Per-matroid cached BasisGraph; raises NotAMatroid for a non-matroid."""
    g = _graphs.get(m)
    if g is None:
        g = BasisGraph(m)
        _graphs[m] = g
    return g
