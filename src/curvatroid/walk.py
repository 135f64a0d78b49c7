"""The down-up basis-exchange walk and the metric of the basis exchange graph.

One walk step from a basis S: drop an element u of S uniformly, then replace
S - u by a uniform choice among all bases containing it. All masses are
exact fractions. The exchange graph (bases adjacent when they differ by one
exchange) carries the metric used by the transport layer. In a matroid its
shortest-path distance is d(X, Y) = |X - Y|, so distances are popcounts and
no graph is built; basis_graph gates the family through
Matroid.require_matroid, which checks an explicit family against the
exchange axiom once and rejects a non-matroid with the validator's witness.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from .errors import NotABasis
from .matroid import Mask, Matroid, basis_sort_key, bits


@dataclass(frozen=True)
class Distribution:
    """Probability distribution over bases (masks), masses exact and positive."""

    masses: Mapping[Mask, Fraction]

    def __post_init__(self):
        frozen = MappingProxyType(dict(self.masses))
        object.__setattr__(self, "masses", frozen)
        total = Fraction(0)
        for b, q in frozen.items():
            if q <= 0:
                raise ValueError(f"nonpositive mass {q} on {b}")
            total += q
        if total != 1:
            raise ValueError(f"masses sum to {total}, not 1")

    def mass(self, b: Mask) -> Fraction:
        return self.masses.get(b, Fraction(0))

    def support(self) -> list[Mask]:
        """Support in canonical order."""
        return sorted(self.masses, key=basis_sort_key)

    def items_sorted(self) -> list[tuple[Mask, Fraction]]:
        return [(b, self.masses[b]) for b in self.support()]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Distribution):
            return NotImplemented
        return dict(self.masses) == dict(other.masses)


def transition_distribution(m: Matroid, s: Mask) -> Distribution:
    """One-step distribution of the down-up walk started at basis s.

    Multiple (drop, add) routes to the same target are summed into a single
    support entry; the result always puts positive mass on s itself.
    """
    if s not in m.bases:
        raise NotABasis("walk must start at a basis")
    k = m.rank
    out: dict[Mask, Fraction] = {}
    for u in bits(s):
        sub = s ^ (1 << u)
        completions = m.exchange_neighborhood(s, u)
        step = Fraction(1, k * completions.bit_count())
        for x in bits(completions):
            target = sub | (1 << x)
            out[target] = out.get(target, Fraction(0)) + step
    return Distribution(out)


class BasisGraph:
    """Kernel cache and exchange-graph metric of a matroid's down-up walk.

    The constructor runs the matroid gate (Matroid.require_matroid), so the
    basis-graph distance it serves is the formula |X - Y|.
    """

    def __init__(self, m: Matroid):
        m.require_matroid()
        self.matroid = m
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
        return (x & ~y).bit_count()


_graphs: "weakref.WeakKeyDictionary[Matroid, BasisGraph]" = weakref.WeakKeyDictionary()


def basis_graph(m: Matroid) -> BasisGraph:
    """Per-matroid cached BasisGraph; raises NotAMatroid for a non-matroid."""
    g = _graphs.get(m)
    if g is None:
        g = BasisGraph(m)
        _graphs[m] = g
    return g
