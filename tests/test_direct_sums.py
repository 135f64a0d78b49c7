"""Curvature of direct sums: every global minimum scales by the rank share.

Let M = M_1 + ... + M_r have rank k = k_1 + ... + k_r. An adjacent pair of
M differs in one summand i, its crossing drops all lie in summand i, and
each completion set there is the summand's own, so both closed-form pair
bounds are (k_i / k) times the summand's. The exact curvature follows the
same rule (Ollivier's tensorization of products of random walks, J. Funct.
Anal. 256, 2009): kappa(M), the down-step lower bound and the theorem upper
bound are each the minimum of (k_i / k) times that summand's value, over the
summands with at least two bases. A summand with one basis, such as a
coloop, only raises k. The per-pair bound identity is checked on the first
and last canonical pair of each summand, lifted into the sum. The sums are
built as explicit families (oracles.direct_sum), so the library sees no
structure in them.
"""

from fractions import Fraction
from math import prod

import pytest

import curvatroid as cv
from oracles import direct_sum, small_specs

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

CATALOG = ("vamos", "fano", "k4", "rank3-counterexample")  # k6 has 1,296 bases
MAX_BASES = 600  # of a sum, so that each example takes milliseconds


def uniform(n: int, k: int) -> cv.UniformSpec:
    return cv.UniformSpec(n=n, k=k)


@hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.lists(st.one_of(st.sampled_from(CATALOG).map(cv.NamedSpec),
                                     small_specs()),
                           min_size=2, max_size=3))
@hypothesis.example([cv.NamedSpec("fano"), uniform(3, 2)])
@hypothesis.example([cv.NamedSpec("k4"), uniform(1, 1)])
@hypothesis.example([cv.NamedSpec("vamos"), uniform(2, 1)])
@hypothesis.example([uniform(5, 2), uniform(3, 1), uniform(1, 1)])
@hypothesis.example([cv.NamedSpec("rank3-counterexample"), uniform(4, 2)])
def test_direct_sum_minima_scale_by_the_rank_share(specs):
    summands = [cv.build_matroid(spec) for spec in specs]
    hypothesis.assume(prod(len(m.bases) for m in summands) <= MAX_BASES)
    total = direct_sum(*summands)
    report = cv.global_curvature(total)
    pairs = [cv.canonical_pairs(m) for m in summands]
    # each pair of a summand lifts to one pair per choice of the other bases
    assert report.pair_count == sum(len(p) * len(total.bases) // len(m.bases)
                                    for m, p in zip(summands, pairs))
    for i, m in enumerate(summands):
        rest = [f"{j}.{label}" for j, other in enumerate(summands) if j != i
                for label in other.labels_of(other.sorted_bases()[0])]
        share = Fraction(m.rank, total.rank)
        for x, y in pairs[i][:1] + pairs[i][-1:]:
            lifted = cv.PairFrame(*(total.mask_from_labels(
                [f"{i}.{label}" for label in m.labels_of(b)] + rest) for b in (x, y)))
            assert cv.downstep_lb_pair(total, lifted) == \
                share * cv.downstep_lb_pair(m, cv.PairFrame(x, y)), specs
            assert cv.theorem_ub_values(total, lifted) == tuple(
                share * value for value in cv.theorem_ub_values(m, cv.PairFrame(x, y))), specs
    moving = [m for m in summands if len(m.bases) > 1]
    if not moving:
        assert report.degenerate
        return
    reports = [cv.global_curvature(m) for m in moving]
    for field in ("kappa_exact", "downstep_lb", "theorem_ub"):
        assert getattr(report, field) == min(
            Fraction(m.rank, total.rank) * getattr(r, field)
            for m, r in zip(moving, reports)), (field, specs)
