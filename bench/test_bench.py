"""Smoke test of the benchmark itself, on a tiny workload (a few seconds).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from spans import LAYER_METRICS, Tracer, unmeasured_metrics  # noqa: E402
from workloads import Workload, complete_graph, fano  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)
with open(run.GOLDENS, encoding="utf-8") as fh:
    GOLDENS = json.load(fh)


def tiny_workload(seed: int) -> Workload:
    """Every job kind and every layer, on K4 and the Fano plane."""
    w = Workload(random.Random(seed))
    w.graph("k4", 4, complete_graph(4))
    w.explicit("fano", *fano())
    w.job("curvature", "k4", "--exact", golden="k4")
    w.job("curvature", "fano", "--all-pairs", golden="fano-all")
    w.job("curvature", "k4")
    w.job("validate", "fano")
    w.pair_queries("pair", ["k4", "fano"], 4, csv_every=2)
    w.pair_queries("coupling", ["k4"], 2, csv_every=2)
    return w


def _units(entries) -> dict[str, str]:
    return {e["name"]: e["unit"] for e in entries}


def test_every_end_to_end_metric_is_emitted_with_its_unit():
    result = run.run_workload(tiny_workload(1), "tiny", 1, 0, False, GOLDENS)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.MIN_ROUNDS * len(tiny_workload(1).jobs)
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == _units(BENCHMARK["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_every_layer_metric_is_emitted_and_counts_repeat():
    first = run.run_workload(tiny_workload(2), "tiny", 2, 0, True, GOLDENS)
    second = run.run_workload(tiny_workload(2), "tiny", 2, 0, True, GOLDENS)
    assert first["correct"] and second["correct"]
    emitted = {name: m["unit"] for name, m in first["metrics"].items()}
    assert emitted == _units(BENCHMARK["per_layer"])
    assert first["details"]["counts_repeat"] and second["details"]["counts_repeat"]
    counts = [name for name, unit, _ in LAYER_METRICS if unit == "count"]
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["transport.solves"]["value"] > 0
    assert first["metrics"]["curvature.audit_solves"]["value"] > 0


def test_corrupted_golden_counts_as_failure():
    goldens = json.loads(json.dumps(GOLDENS))
    goldens["k4"]["kappaExact"] = "1/2"
    result = run.run_workload(tiny_workload(3), "tiny", 3, 0, False, goldens)
    assert not result["correct"]
    assert result["failed"] == run.MIN_ROUNDS  # the k4 curvature job, once a round
    assert all("kappaExact" in f for f in result["details"]["failures"])


def test_missing_target_is_reported_unmeasured():
    tracer = Tracer({"curvature.witness": [("curvatroid.curvature", "renamed_away", None)],
                     "walk.kernel": [("curvatroid.no_such_module", "kernel", None)]})
    tracer.install()
    assert tracer.unmeasured == {"curvature.witness", "walk.kernel"}
    assert len(tracer.missing) == 2
    gone = unmeasured_metrics(tracer.unmeasured, set())
    assert {"curvature.witness_s", "curvature.witness_calls", "walk.kernel_s",
            "walk.kernels_built"} <= gone
    assert "transport.solve_s" not in gone

    # a traced round that lost a layer still yields a full report
    layers = {name: 0 for name, _, _ in LAYER_METRICS if name != "trace.overhead_s"}
    job = {"seconds": 1.0}
    rounds = [{"traced": False, "jobs": [job]},
              {"traced": True, "jobs": [job], "layers": layers,
               "unmeasured": sorted(tracer.unmeasured), "uncounted": []}]
    values, unmeasured, repeat = run.layer_report(rounds)
    assert unmeasured == gone and repeat
    assert set(values) == {name for name, _, _ in LAYER_METRICS}
