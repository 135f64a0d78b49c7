"""Output checks for benchmark jobs.

`check_job` returns None for a correct output or a one-line reason. It never
raises on bad output: a malformed report, a wrong golden or a broken
sandwich is a failed job, counted in the run's fail ratio.

`oracle_kappa` recomputes a pair's curvature with networkx min-cost flow on
kernels and distances built from the generator's own basis list, so it
shares no code with the package under test.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from math import lcm

GOLDEN_FIELDS = ("pairCount", "kappaExact", "downstepLBGlobal", "theoremUBGlobal",
                 "theoremLBGlobal")


def _csv_fields(text: str) -> dict[str, str]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["field", "value"]:
        raise ValueError("not a field,value table")
    return {r[0]: r[1] for r in rows[1:] if len(r) == 2}


def _frac(value) -> Fraction | None:
    if value is None or value == "":
        return None
    return Fraction(value)


def _check_curvature(obj: dict, job: dict, goldens: dict) -> str | None:
    kappa = _frac(obj["kappaExact"])
    lower = max(x for x in (_frac(obj["theoremLBGlobal"]), _frac(obj["downstepLBGlobal"]))
                if x is not None)
    upper = _frac(obj["theoremUBGlobal"])
    if kappa is not None and not lower <= kappa <= upper:
        return f"sandwich broken: {lower} <= {kappa} <= {upper}"
    if job.get("expect_pairs") is not None and obj["pairCount"] != job["expect_pairs"]:
        return f"pairCount {obj['pairCount']} != {job['expect_pairs']} enumerated"
    if job.get("golden"):
        want = goldens.get(job["golden"])
        if want is None:
            return f"no golden {job['golden']!r}"
        for field in GOLDEN_FIELDS:
            if obj.get(field) != want.get(field):
                return f"{field} {obj.get(field)!r} != golden {want.get(field)!r}"
    return None


def _check_pair(fields: dict) -> str | None:
    lb, kappa, ub = (_frac(fields[k]) for k in ("downstepLB", "exactKappa", "theoremUB"))
    if not lb <= kappa <= ub:
        return f"sandwich broken: {lb} <= {kappa} <= {ub}"
    return None


def _check_coupling(cells: list[tuple[Fraction, int]], expected: Fraction | None) -> str | None:
    if sum(m for m, _ in cells) != 1:
        return "coupling masses do not sum to 1"
    if any(m <= 0 or not 0 <= d <= 2 for m, d in cells):
        return "coupling cell with nonpositive mass or distance beyond two"
    if expected is not None and sum(m * d for m, d in cells) != expected:
        return "expectedDistance disagrees with the cells"
    return None


def check_job(job: dict, result: dict, goldens: dict) -> str | None:
    """None when the job exited 0 and its report passes every check."""
    if result["error"]:
        return f"raised {result['error']}"
    if result["code"] != 0:
        return f"exit code {result['code']}: {result['stderr'].strip()[:200]}"
    text = result["stdout"]
    argv = job["argv"]
    csv_format = "--format" in argv and argv[argv.index("--format") + 1] == "csv"
    try:
        kind = job["kind"]
        if kind == "coupling":
            if csv_format:
                rows = list(csv.DictReader(io.StringIO(text)))
                cells = [(Fraction(r["mass"]), int(r["distance"])) for r in rows]
                return _check_coupling(cells, None)
            obj = json.loads(text)
            cells = [(Fraction(c["mass"]), c["distance"]) for c in obj["cells"]]
            return _check_coupling(cells, Fraction(obj["expectedDistance"]))
        fields = _csv_fields(text) if csv_format else json.loads(text)
        if kind == "pair":
            return _check_pair(fields)
        if kind == "validate":
            return None if fields["ok"] in (True, "true") else "validate reported not ok"
        if kind == "curvature":
            return _check_curvature(fields, job, goldens)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as e:
        return f"unreadable report: {type(e).__name__}: {e}"
    return f"unknown job kind {job['kind']!r}"


def _kernel(bases: set[frozenset[int]], n: int, s: frozenset[int]) -> dict:
    k = len(s)
    out: dict[frozenset[int], Fraction] = {}
    for u in s:
        sub = s - {u}
        targets = [sub | {x} for x in range(n) if x not in sub and sub | {x} in bases]
        for t in targets:
            out[t] = out.get(t, Fraction(0)) + Fraction(1, k * len(targets))
    return out


def oracle_kappa(labels: list[str], bases: list[frozenset[int]],
                 s_labels: list[str], t_labels: list[str]) -> Fraction:
    """1 - W1 between the two one-step distributions, by networkx min-cost flow.

    Distances are |X - Y|, the exchange-graph metric of a matroid.
    """
    import networkx as nx

    index = {x: i for i, x in enumerate(labels)}
    s = frozenset(index[x] for x in s_labels)
    t = frozenset(index[x] for x in t_labels)
    family = set(bases)
    mu, nu = _kernel(family, len(labels), s), _kernel(family, len(labels), t)
    scale = lcm(*(q.denominator for q in list(mu.values()) + list(nu.values())))
    g = nx.DiGraph()
    for x, q in mu.items():
        g.add_node(("s", x), demand=-int(q * scale))
    for y, q in nu.items():
        g.add_node(("t", y), demand=int(q * scale))
    for x in mu:
        for y in nu:
            g.add_edge(("s", x), ("t", y), weight=len(x - y))
    cost = nx.min_cost_flow_cost(g)
    return 1 - Fraction(cost, scale)
