"""The public surface: every exported name resolves, deleted ones stay gone."""

import inspect

import curvatroid as cv
from curvatroid import curvature, fileio, matroid, transport

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
