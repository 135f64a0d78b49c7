"""Every function the benchmark traces still exists in the package, and every
work count it reads still reads a real result.

bench/spans.py reports a layer whose target it cannot find as unmeasured
rather than failing, so renaming a traced function (build_matroid, a
*_to_obj renderer, ...) would quietly drop that layer from every traced
benchmark run. Likewise a count function that cannot read a changed result
type marks its layer uncounted. These tests read the benchmark's TARGETS
table, without installing the tracer, resolve each entry the way
Tracer.install does, and call each count function on a result of its
target computed here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import curvatroid as cv
from curvatroid.catalog import k4_spec
from oracles import fraction_coupling_cells, quadratic_adjacent_pairs

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _targets() -> list[tuple[str, str, str]]:
    return [(layer, module, path) for layer, targets in _spans().TARGETS.items()
            for module, path, _ in targets]


def _counted_targets() -> list[tuple[str, str, str, object]]:
    return [(layer, module, path, count) for layer, targets in _spans().TARGETS.items()
            for module, path, count in targets if count is not None]


@pytest.mark.parametrize("layer,module_name,path", _targets(),
                         ids=lambda value: value)
def test_trace_target_resolves(layer, module_name, path):
    module = importlib.import_module(module_name)
    if path.startswith("*"):
        names = [n for n in vars(module)
                 if n.endswith(path[1:]) and callable(getattr(module, n))]
        assert names, f"{layer}: nothing in {module_name} matches {path}"
        return
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    assert owner is not None and attr in vars(owner), f"{layer}: {module_name}.{path}"
    assert callable(getattr(owner, attr)), f"{layer}: {module_name}.{path}"


def _calls() -> dict[tuple[str, str], tuple[tuple, object, int]]:
    """(args, result, expected count) of one call of each counted target on
    K4, the count found without the benchmark's count functions."""
    spec = k4_spec()
    m = cv.build_matroid(spec)
    pairs = cv.canonical_pairs(m)
    frame = cv.PairFrame(*pairs[0])
    mu = cv.transition_distribution(m, frame.s_basis)
    nu = cv.transition_distribution(m, frame.t_basis)
    problem = cv.TransportProblem.from_distance(mu, nu)
    # the residual rows and columns: masses compared by cross-multiplying
    # the weights with the other side's denominator
    p, q = mu.weights, nu.weights
    rows = sum(1 for b in p if p[b] * nu.denominator > q.get(b, 0) * mu.denominator)
    cols = sum(1 for b in q if q[b] * mu.denominator > p.get(b, 0) * nu.denominator)
    return {
        ("curvatroid.matroid", "build_matroid"): ((spec,), m, 16),
        ("curvatroid.curvature", "canonical_pairs"):
            ((m,), pairs, len(quadratic_adjacent_pairs(m.bases))),
        ("curvatroid.curvature", "downstep_coupling_table"):
            ((m, frame), cv.downstep_coupling_table(m, frame),
             len(fraction_coupling_cells(m, frame))),
        ("curvatroid.transport", "TransportProblem.from_distance"):
            ((mu, nu), problem, rows * cols),
        ("curvatroid.transport", "wasserstein1"):
            ((problem,), cv.wasserstein1(problem), max(rows, cols)),
    }


@pytest.mark.parametrize("layer,module_name,path,count", _counted_targets(),
                         ids=lambda value: getattr(value, "__name__", value))
def test_trace_count_reads_a_real_result(layer, module_name, path, count):
    calls = _calls()
    assert (module_name, path) in calls, f"{layer}: no call of {module_name}.{path} here"
    args, result, expected = calls[module_name, path]
    assert count(args, result) == expected, f"{layer}: {count.__name__}"
