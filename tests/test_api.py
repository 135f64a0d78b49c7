"""The public surface: every exported name resolves, deleted ones stay gone."""

import curvatroid as cv
from curvatroid import matroid

# removed with the BFS exchange graph and the thread fan-out
DELETED = ("basis_distance", "distance_matrix", "resolve_workers")
DELETED_GRAPH_MEMBERS = ("adj", "order", "index", "row", "verify_budget",
                         "verify_distance_formula", "_bfs_row", "_formula_row",
                         "_vertex", "_formula_ok")


def test_public_names_resolve_and_deleted_names_are_gone():
    assert len(set(cv.__all__)) == len(cv.__all__)
    for name in cv.__all__:
        assert hasattr(cv, name), name
    for name in DELETED:
        assert name not in cv.__all__ and not hasattr(cv, name), name
    g = cv.basis_graph(cv.build_named("k4"))
    for name in DELETED_GRAPH_MEMBERS:
        assert not hasattr(g, name), name
    assert not hasattr(matroid, "_bit_list")
