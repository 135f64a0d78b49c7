"""The public surface: every exported name resolves, deleted ones stay gone."""

import inspect
from pathlib import Path

import curvatroid as cv
from curvatroid import curvature, fileio, matroid, transport, walk

# removed with the BFS exchange graph, the thread fan-out and the Fraction
# coupling layer; the last three are test helpers in tests/oracles.py
DELETED = ("basis_distance", "distance_matrix", "resolve_workers",
           "Coupling", "verify_coupling", "expected_distance",
           "build_downstep_coupling", "downstep_lb_via_coupling",
           "proposition_distance_check", "distribution_to_obj", "items_sorted")
DELETED_GRAPH_MEMBERS = ("adj", "order", "index", "row", "verify_budget",
                         "verify_distance_formula", "_bfs_row", "_formula_row",
                         "_vertex", "_formula_ok")


def test_public_names_resolve_and_deleted_names_are_gone():
    assert len(set(cv.__all__)) == len(cv.__all__)
    for name in cv.__all__:
        assert hasattr(cv, name), name
    for name in DELETED:
        assert name not in cv.__all__ and not hasattr(cv, name), name
    for name in ("Coupling", "verify_coupling", "expected_distance"):
        assert not hasattr(transport, name), name
    assert not hasattr(curvature, "proposition_distance_check")
    assert not hasattr(fileio, "distribution_to_obj")
    assert not hasattr(cv.Distribution, "items_sorted")
    g = cv.basis_graph(cv.build_named("k4"))
    for name in DELETED_GRAPH_MEMBERS:
        assert not hasattr(g, name), name
    assert not hasattr(matroid, "_bit_list")
    for name in ("coupling", "mass_multiset"):
        assert not hasattr(cv.DownstepCoupling, name), name


def test_deleted_knobs_are_gone():
    assert "collapse" not in inspect.signature(cv.global_curvature).parameters
    assert "fix_common_mass" not in inspect.signature(cv.wasserstein1).parameters
    assert "exact" not in inspect.signature(cv.compute_pair_report).parameters


# per-pair checks that a one-exchange PairFrame and the matroid gate make
# unreachable: identities for such a frame, or facts the gate implies
UNREACHABLE_CHECKS = ("exchange symmetry violated",
                      "non-crossing drop with unequal neighborhoods",
                      "exchange bookkeeping error",
                      "residual masses out of balance",
                      "beyond distance two")


def test_unreachable_pair_checks_and_metric_copies_are_gone():
    source = "".join(path.read_text(encoding="utf-8") for path in
                     Path(curvature.__file__).parent.glob("*.py"))
    for message in UNREACHABLE_CHECKS:
        assert message not in source, message
    assert list(inspect.signature(cv.PairFrame).parameters) == ["s_basis", "t_basis"]
    assert not hasattr(curvature, "_exchange_distance")
    assert curvature.exchange_distance is walk.exchange_distance
