"""Every function the benchmark traces still exists in the package.

bench/spans.py reports a layer whose target it cannot find as unmeasured
rather than failing, so renaming a traced function (build_matroid, a
*_to_obj renderer, ...) would quietly drop that layer from every traced
benchmark run. This test reads the benchmark's TARGETS table, without
installing the tracer, and resolves each entry the way Tracer.install does.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _targets() -> list[tuple[str, str, str]]:
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(layer, module, path) for layer, targets in spans.TARGETS.items()
            for module, path, _ in targets]


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
