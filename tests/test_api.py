"""The public surface: every exported name resolves, deleted ones stay gone."""

import copy
import inspect
import pickle
import re
from pathlib import Path

import pytest

import curvatroid as cv
from curvatroid import (catalog, cli, curvature, errors, fileio, matroid, symmetry,
                        transport, walk)
from oracles import DISTINGUISHED_PAIRS
from test_curvature import PAIR_FUNCTIONS

# removed with the BFS exchange graph, the thread fan-out, the Fraction
# coupling layer and the kernel cache (BasisGraph), and format_rational, which
# only called str; proposition_distance_check,
# distribution_to_obj, items_sorted, ElementNotInBasis and the Fraction
# coupling cell are test helpers in tests/oracles.py, the rank wrapper
# matrix_rank is gone, PairWitness is the tuple of DropWitness records
# that compute_pair_witness returns, and PairFrame is the one pair
# constructor, with no checked second route; the catalog's distinguished
# pairs are test data in tests/oracles.py
DELETED = ("basis_distance", "distance_matrix", "resolve_workers",
           "Coupling", "verify_coupling", "expected_distance",
           "build_downstep_coupling", "downstep_lb_via_coupling",
           "proposition_distance_check", "distribution_to_obj", "items_sorted",
           "ElementNotInBasis", "BasisGraph", "format_rational", "CouplingCell",
           "matrix_rank", "PairWitness", "make_pair_frame", "DISTINGUISHED_PAIRS")

# exported names that nothing under src/curvatroid/ uses, each with its reason
UNUSED_EXPORTS = {
    # traced by bench/spans.py; they move to tests/oracles.py once the
    # bench's bound spans read bound_numerators
    "downstep_lb_pair": "bench span target",
    "theorem_ub_pair": "bench span target",
    "theorem_ub_values": "bench span target",
}


def test_public_names_resolve_and_deleted_names_are_gone():
    assert len(set(cv.__all__)) == len(cv.__all__)
    for name in cv.__all__:
        assert hasattr(cv, name), name
    for name in DELETED:
        assert name not in cv.__all__ and not hasattr(cv, name), name
    for name in ("Coupling", "verify_coupling", "expected_distance"):
        assert not hasattr(transport, name), name
    assert not hasattr(curvature, "proposition_distance_check")
    for name in ("distribution_to_obj", "coupling_table_to_obj", "pairs_to_obj",
                 "bases_to_obj"):  # tests/oracles.py builds these reports
        assert not hasattr(fileio, name), name
    for name in ("items_sorted", "mass", "masses", "support"):  # tests/oracles.py
        assert not hasattr(cv.Distribution, name), name
    assert not hasattr(curvature, "CouplingCell") and not hasattr(matroid, "matrix_rank")
    # a distribution equals only itself: no second, mass-comparing route, and
    # no tuple equality with its fields
    assert cv.Distribution.__hash__ is object.__hash__
    d = cv.Distribution({1: 1}, 1)
    assert d == d and d != cv.Distribution({1: 1}, 1)
    for fields in (tuple(d), ({1: 1}, 1)):
        assert d != fields and fields != d and not d == fields and not fields == d
    assert not hasattr(errors, "ElementNotInBasis")
    m = cv.build_named("k4")
    rows = cv.basis_graph(m)
    assert type(rows) is dict and set(rows) == m.bases
    assert all(type(row) is cv.Distribution for row in rows.values())
    assert not hasattr(walk, "_graphs")
    for name in ("s_only_count", "t_only_count"):
        assert not hasattr(cv.DropWitness, name), name
    # a matroid holds its bases as masks only: no index tuple per basis
    assert "_keys" not in cv.Matroid.__slots__
    assert "keys" not in inspect.signature(cv.Matroid).parameters
    assert not hasattr(matroid, "_bit_list")
    for name in ("is_basis", "exchange_neighborhood"):  # test helpers, tests/oracles.py
        assert not hasattr(cv.Matroid, name), name
    # pairs come from canonical_pairs and the sweep, both over the completion table
    assert not hasattr(cv.Matroid, "adjacent_basis_pairs")
    for name in ("coupling", "mass_multiset"):
        assert not hasattr(cv.DownstepCoupling, name), name
    # one completion-set store on the Matroid, no second accessor or slot
    assert not hasattr(cv.Matroid, "_completion_lookup")
    # no group or digest cached on the Matroid, no orbit index map
    for name in ("_automorphisms", "_hash", "_lookup"):
        assert name not in cv.Matroid.__slots__, name
    assert not hasattr(curvature, "_pair_orbits")
    assert not hasattr(symmetry, "_search")
    assert not hasattr(fileio, "format_rational")
    # one route to the coupling's expected distance; the linear realization
    # of the rank-3 catalog matroid is a test helper and the distinguished
    # pairs are test data, both in tests/oracles.py
    assert not hasattr(curvature, "downstep_expected_distance")
    for name in ("rank3_counterexample_linear_spec", "DISTINGUISHED_PAIRS"):
        assert not hasattr(catalog, name), name
    # one parser function, built once per process, that keeps each command's parser
    for name in ("build_parser", "_parser"):
        assert not hasattr(cli, name), name
    assert cli._parsers() is cli._parsers()


def test_every_public_name_is_used_inside_the_package():
    """A name in __all__ occurs at least twice in the package outside
    __init__.py, its definition and one use, or is listed with its reason."""
    package = Path(cv.__file__).parent
    source = "".join(path.read_text(encoding="utf-8") for path in package.glob("*.py")
                     if path.name != "__init__.py")
    unused = {name for name in cv.__all__
              if len(re.findall(rf"\b{re.escape(name)}\b", source)) < 2}
    assert unused == set(UNUSED_EXPORTS)


def test_pair_witness_is_its_drop_records():
    m = cv.build_named("k6")
    frame = cv.PairFrame(*(m.mask_from_labels(p) for p in DISTINGUISHED_PAIRS["k6"]))
    witness = cv.compute_pair_witness(m, frame)
    assert type(witness) is tuple and witness
    assert all(type(e) is cv.DropWitness for e in witness)
    assert cv.compute_pair_report(m, frame).witness == witness


def test_deleted_knobs_are_gone():
    assert "collapse" not in inspect.signature(cv.global_curvature).parameters
    # the orbit search is on whenever it can help: no switch, no budget knob
    assert list(inspect.signature(cv.global_curvature).parameters) == [
        "m", "exact", "audit_all_pairs"]
    assert list(inspect.signature(cv.automorphism_generators).parameters) == ["m"]
    # one proof per candidate: the cocircuit check, with no second comparison of P
    assert list(inspect.signature(symmetry._is_automorphism).parameters) == [
        "perm", "cocircuits"]
    assert "fix_common_mass" not in inspect.signature(cv.wasserstein1).parameters
    # every function of one pair takes the matroid and one frame
    for pair_function in PAIR_FUNCTIONS:
        assert list(inspect.signature(pair_function).parameters) == ["m", "frame"], \
            pair_function
    # one construction flag: a matroid by theorem, listed in canonical order
    assert list(inspect.signature(cv.Matroid).parameters) == [
        "labels", "bases", "origin", "constructed"]
    # the exact walk takes one candidate list and returns its pair
    assert list(inspect.signature(curvature._pruned_minimum).parameters) == [
        "m", "candidates", "denominator", "images"]
    # transport prices exchange distances itself: no metric callback, and no
    # check of costs that a popcount cannot get wrong
    assert list(inspect.signature(cv.TransportProblem.from_distance).parameters) == [
        "mu", "nu"]
    assert not hasattr(transport, "_reject_cost")


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
    # no process-wide cache keyed on matroids
    assert not re.search(r"\bweakref\b", source)
    assert list(inspect.signature(cv.PairFrame).parameters) == ["s_basis", "t_basis"]
    assert not hasattr(cv.PairFrame, "swapped")  # a test helper, tests/oracles.py
    assert not hasattr(curvature, "_exchange_distance")
    assert curvature.exchange_distance is walk.exchange_distance


# the value records are NamedTuples: built by position (GlobalReport(None,
# None, theorem_lb, *bounds, ...), TransportProblem(rows, cols, ...)) and
# unpacked in this order; PairFrame and Distribution check their input in
# __new__, so they are built from (s_basis, t_basis) and (weights, denominator)
RECORD_FIELDS = {
    cv.UniformSpec: ("n", "k"),
    cv.GraphicSpec: ("vertex_count", "edges"),
    cv.LinearSpec: ("matrix", "labels"),
    cv.ExplicitSpec: ("ground", "bases"),
    cv.NamedSpec: ("name",),
    cv.ValidationResult: ("ok", "detail", "witness"),
    cv.TransportProblem: ("row_keys", "col_keys", "supply", "demand", "cost", "scale"),
    cv.PairFrame: ("s_basis", "t_basis", "s_elem", "t_elem", "shared"),
    cv.Distribution: ("weights", "denominator"),
    cv.DownstepCoupling: ("frame", "drops"),
    cv.DropWitness: ("drop", "ns_size", "nt_size", "overlap_size", "s_only_adds"),
    cv.PairReport: ("frame", "witness", "downstep_lb", "ub_forward", "ub_reverse",
                    "theorem_ub", "coupling_expected_distance", "kappa_exact"),
    cv.GlobalReport: ("kappa_exact", "argmin_pair", "theorem_lb", "downstep_lb",
                      "theorem_ub", "pair_count", "degenerate", "audited"),
}


def test_value_records_keep_their_field_order():
    for record, fields in RECORD_FIELDS.items():
        assert record._fields == fields, record
    assert cv.LinearSpec._field_defaults == {"labels": None}
    assert cv.ValidationResult._field_defaults == {"detail": "", "witness": ()}
    assert cv.GlobalReport._field_defaults == {"degenerate": False, "audited": False}
    # truth is the outcome, not the tuple's length (wasserstein1's `if not check:`)
    assert not cv.ValidationResult.failed("no", (1, 2, 3))
    assert cv.ValidationResult.passed()


def k6_frame_and_witness():
    m = cv.build_named("k6")
    frame = cv.PairFrame(*(m.mask_from_labels(p) for p in DISTINGUISHED_PAIRS["k6"]))
    return m, frame, cv.compute_pair_witness(m, frame)


def test_frozen_records_refuse_assignment_and_deletion():
    m, frame, witness = k6_frame_and_witness()
    distribution = cv.transition_distribution(m, frame.s_basis)
    for record in (frame, witness[0], distribution):
        for name in record._fields:
            value = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert getattr(record, name) is value
        with pytest.raises(AttributeError):
            record.extra = 1
    with pytest.raises(TypeError):  # the weights are a read-only view
        distribution.weights[frame.s_basis] = 1


def test_pair_frame_and_drop_witness_are_values():
    _, frame, witness = k6_frame_and_witness()
    again = cv.PairFrame(frame.s_basis, frame.t_basis)
    assert again is not frame and again == frame and hash(again) == hash(frame)
    assert cv.PairFrame(frame.t_basis, frame.s_basis) != frame
    fields = [getattr(witness[0], name) for name in cv.DropWitness._fields]
    twin = cv.DropWitness(*fields)
    assert twin == witness[0] and hash(twin) == hash(witness[0])
    assert cv.DropWitness(*fields[:-1], fields[-1] + 1) != witness[0]
    # every record is a NamedTuple, so it equals its field tuple; a frame never (S, T)
    assert witness[0] == tuple(fields) and frame == tuple(frame)
    assert frame != (frame.s_basis, frame.t_basis)
    # copy and pickle rebuild a frame from its two bases, through the check
    for again in (copy.copy(frame), pickle.loads(pickle.dumps(frame))):
        assert type(again) is cv.PairFrame and again == frame
    assert pickle.loads(pickle.dumps(witness)) == witness
    assert repr(frame) == (f"PairFrame(s_basis={frame.s_basis}, t_basis={frame.t_basis}, "
                           f"s_elem={frame.s_elem}, t_elem={frame.t_elem}, "
                           f"shared={frame.shared!r})")
    assert repr(twin) == "DropWitness(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(cv.DropWitness._fields, fields)) + ")"


def test_every_record_is_a_named_tuple_and_only_checked_ones_define_new():
    for record in RECORD_FIELDS:
        assert issubclass(record, tuple) and record._fields, record
    assert not hasattr(walk, "Frozen")
    # a record that only stores its fields keeps the __new__ that NamedTuple
    # generates; one that checks its input defines its own
    checked = {record for record in RECORD_FIELDS
               if record.__new__.__module__ == record.__module__}
    assert checked == {cv.PairFrame, cv.Distribution}
    source = "".join(path.read_text(encoding="utf-8")
                     for path in Path(cv.__file__).parent.glob("*.py"))
    for name in ("Frozen", "__setattr__", "__delattr__", "__setstate__"):
        assert not re.search(rf"\b{name}\b", source), name


def test_checked_records_check_on_every_route():
    m, frame, _ = k6_frame_and_witness()
    assert frame._make(frame) == frame and frame._replace() == frame
    for fields in ({"s_elem": frame.t_elem}, {"shared": frame.shared[1:]},
                   {"t_basis": frame.s_basis}):
        with pytest.raises(cv.NotAdjacent):
            frame._replace(**fields)
    with pytest.raises(cv.NotAdjacent):
        cv.PairFrame._make((frame.s_basis, frame.t_basis, frame.t_elem, frame.s_elem,
                            frame.shared))
    d = cv.transition_distribution(m, frame.s_basis)
    for again in (d._make(d), d._replace(), copy.copy(d)):
        assert type(again) is cv.Distribution and again is not d
        assert dict(again.weights) == dict(d.weights) and again.denominator == d.denominator
        with pytest.raises(TypeError):  # each copy's weights are read-only too
            again.weights[frame.s_basis] = 1
    with pytest.raises(ValueError):
        d._replace(denominator=d.denominator + 1)
    with pytest.raises(ValueError):
        d._replace(weights={**d.weights, frame.s_basis: 0})
    with pytest.raises(ValueError):
        cv.Distribution._make((d.weights, float(d.denominator)))
