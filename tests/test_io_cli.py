"""Serialization, file parsing, and the command-line interface."""

import argparse
import csv
import io
import json
import time
from fractions import Fraction

import pytest

import curvatroid as cv
from curvatroid import catalog, cli, curvature, matroid
from curvatroid import fileio as fio
from curvatroid.cli import main
from oracles import (DISTINGUISHED_PAIRS, distribution_to_obj, is_basis,
                     rank3_counterexample_linear_spec)
from test_curvature import complete_graph

F = Fraction


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name: str, obj) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


# ── rationals ───────────────────────────────────────────────────────────────


def test_parse_rational():
    assert cv.parse_rational("3/4") == F(3, 4)
    assert cv.parse_rational("-1/21") == F(-1, 21)
    assert cv.parse_rational("7") == F(7)
    assert cv.parse_rational(7) == F(7)
    assert cv.parse_rational("+2/6") == F(1, 3)
    # a str pattern's \d and Fraction both read any Unicode decimal digit
    for bad in ("1.5", "a", "1/0", "", "1/2/3", True, 3.2, None, "\u0663", "\uff13/\uff14"):
        with pytest.raises(cv.BadRational):
            cv.parse_rational(bad)


def test_format_and_approx():
    assert str(F(-1, 21)) == "-1/21"
    assert str(F(4)) == "4"
    assert cv.parse_rational(str(F(22, 7))) == F(22, 7)
    assert cv.approx_decimal(F(2, 3)) == "0.666667"
    assert cv.approx_decimal(F(-1, 21)) == "-0.0476190"
    assert cv.approx_decimal(F(1, 4)) == "0.25"


# ── matroid descriptions ────────────────────────────────────────────────────


def test_parse_matroid_obj_all_types():
    uniform = cv.parse_matroid_obj({"type": "uniform", "n": 4, "k": 2})
    assert uniform == cv.UniformSpec(n=4, k=2)

    graphic = cv.parse_matroid_obj(
        {"type": "graphic", "vertices": 3,
         "edges": [[0, 1, "x"], [1, 2, "y"], [0, 2, "z"]]})
    assert graphic.vertex_count == 3 and graphic.edges[2] == (0, 2, "z")

    linear = cv.parse_matroid_obj(
        {"type": "linear", "matrix": [["1", "0", "1/2"], ["0", "1", "1/2"]],
         "labels": ["x", "y", "z"]})
    assert linear.matrix[0][2] == F(1, 2) and linear.labels == ("x", "y", "z")

    explicit = cv.parse_matroid_obj(
        {"type": "explicit", "ground": ["a", "b"], "bases": [["a"], ["b"]]})
    assert explicit.ground == ("a", "b")

    named = cv.parse_matroid_obj({"type": "named", "name": "fano"})
    assert cv.build_matroid(named).origin == "named:fano"


def test_parse_matroid_obj_integer_labels_coerced():
    spec = cv.parse_matroid_obj(
        {"type": "explicit", "ground": [1, 2], "bases": [[1], [2]]})
    assert spec.ground == ("1", "2")
    m = cv.build_matroid(spec)
    assert is_basis(m, ["1"])


def test_parse_matroid_obj_errors():
    with pytest.raises(cv.UnknownType):
        cv.parse_matroid_obj({"type": "projective", "n": 3})
    with pytest.raises(cv.ParseError):
        cv.parse_matroid_obj({"n": 4, "k": 2})
    with pytest.raises(cv.ParseError):
        cv.parse_matroid_obj({"type": "uniform", "n": 4, "k": "two"})
    with pytest.raises(cv.ParseError):
        cv.parse_matroid_obj({"type": "named", "name": 7})
    with pytest.raises(cv.ParseError):
        cv.parse_matroid_obj({"type": "explicit", "ground": ["a", True],
                              "bases": [["a"]]})
    with pytest.raises(cv.BadRational):
        cv.parse_matroid_obj({"type": "linear", "matrix": [["0.5"]]})
    with pytest.raises(cv.ParseError):
        cv.parse_matroid_obj(["not", "an", "object"])


def test_unknown_catalog_name_has_one_check_and_one_message(capsys, tmp_path):
    # a named file parses to its spec; build_named alone knows the catalog
    spec = cv.parse_matroid_obj({"type": "named", "name": "petersen"})
    assert spec == cv.NamedSpec(name="petersen")
    line = ("error: unknown catalog name 'petersen' "
            "(known: vamos, fano, k4, k6, rank3-counterexample)\n")
    path = write_json(tmp_path, "petersen.json", {"type": "named", "name": "petersen"})
    for source in ("named:petersen", path):
        assert run_cli(capsys, "bases", "--input", source) == (2, "", line)
    assert cv.CATALOG_NAMES == tuple(catalog._BUILDERS)


def test_parse_matroid_file(tmp_path):
    path = write_json(tmp_path, "u42.json", {"type": "uniform", "n": 4, "k": 2})
    assert cv.parse_matroid_file(path) == cv.UniformSpec(n=4, k=2)

    broken = tmp_path / "broken.json"
    broken.write_text('{"type": "uniform",\n  "n": 4,', encoding="utf-8")
    with pytest.raises(cv.ParseError) as err:
        cv.parse_matroid_file(str(broken))
    assert "line" in str(err.value)

    with pytest.raises(cv.ParseError):
        cv.parse_matroid_file(str(tmp_path / "missing.json"))

    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    with pytest.raises(cv.ParseError):
        cv.parse_matroid_file(str(binary))


def test_load_input(tmp_path):
    m = cv.load_input("named:k4")
    assert len(m.bases) == 16
    path = write_json(tmp_path, "m.json", {"type": "uniform", "n": 4, "k": 2})
    assert len(cv.load_input(path).bases) == 6
    with pytest.raises(cv.ParseError):
        cv.load_input("named:nope")


# ── report objects ──────────────────────────────────────────────────────────


def test_pair_report_round_trip():
    m = cv.build_named("k4")
    s, t = (m.mask_from_labels(p) for p in DISTINGUISHED_PAIRS["k4"])
    report = cv.compute_pair_report(m, cv.PairFrame(s, t))
    obj = fio.pair_report_to_obj(m, report)
    assert cv.parse_rational(obj["exactKappa"]) == report.kappa_exact == F(13, 36)
    assert cv.parse_rational(obj["downstepLB"]) == F(13, 36)
    assert cv.parse_rational(obj["theoremUB_forward"]) == F(13, 36)
    assert cv.parse_rational(obj["theoremUB_reverse"]) == F(5, 12)
    assert cv.parse_rational(obj["theoremUB"]) == F(13, 36)
    assert cv.parse_rational(obj["couplingExpectedDistance"]) == F(23, 36)
    assert obj["frame"]["S"] == list(DISTINGUISHED_PAIRS["k4"][0])
    assert obj["version"] == cv.__version__
    assert obj["originHash"] == m.origin_hash()
    assert "exactKappaApprox" not in obj

    with_dec = fio.pair_report_to_obj(m, report, with_decimal=True)
    assert with_dec["exactKappaApprox"] == cv.approx_decimal(F(13, 36))
    assert with_dec["decimalsAreApproximate"] is True


def test_global_report_obj():
    m = cv.build_named("k4")
    obj = fio.global_report_to_obj(m, cv.global_curvature(m))
    assert cv.parse_rational(obj["kappaExact"]) == F(1, 3)
    assert obj["argminPair"] == {"S": ["ab", "bc", "cd"], "T": ["ab", "cd", "da"]}
    assert cv.parse_rational(obj["theoremLBGlobal"]) == F(1, 6)
    assert cv.parse_rational(obj["downstepLBGlobal"]) == F(1, 3)
    assert cv.parse_rational(obj["theoremUBGlobal"]) == F(1, 3)
    assert obj["pairCount"] == 54
    assert obj["degenerate"] is False and obj["audited"] is False

    bounds = fio.global_report_to_obj(m, cv.global_curvature(m, exact=False))
    assert bounds["kappaExact"] is None and bounds["argminPair"] is None


def test_distribution_obj_shape():
    m = cv.build_matroid(cv.UniformSpec(n=4, k=2))
    dist = cv.transition_distribution(m, m.mask_from_labels(["a", "b"]))
    rows = distribution_to_obj(m, dist)
    assert rows[0] == {"basis": ["a", "b"], "mass": "1/3"}
    assert [r["basis"] for r in rows] == sorted((r["basis"] for r in rows),
                                                key=lambda b: [m.element_index(x) for x in b])
    assert sum((cv.parse_rational(r["mass"]) for r in rows), F(0)) == 1


def test_validation_obj_pass_and_fail():
    good = cv.build_matroid(cv.UniformSpec(n=4, k=2))
    obj = fio.validation_to_obj(good, cv.validate_exchange_axiom(good))
    assert obj["ok"] is True and obj["witness"] is None

    bad = cv.build_matroid(cv.ExplicitSpec(ground=("a", "b", "c", "d"),
                                           bases=(("a", "b"), ("c", "d"))))
    obj = fio.validation_to_obj(bad, cv.validate_exchange_axiom(bad))
    assert obj["ok"] is False
    assert obj["witness"] == {"B1": ["a", "b"], "B2": ["c", "d"], "dropped": "a"}


# ── CSV and JSON agree ──────────────────────────────────────────────────────


def parse_csv(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def test_csv_pair_matches_json(capsys):
    args = ("pair", "--input", "named:k4", "--s", "ab,cd,da", "--t", "bd,cd,da")
    code, json_text, _ = run_cli(capsys, *args)
    assert code == 0
    obj = json.loads(json_text)
    code, csv_text, _ = run_cli(capsys, *args, "--format", "csv")
    assert code == 0
    table = dict(parse_csv(csv_text)[1:])
    for key in ("exactKappa", "downstepLB", "theoremUB_forward",
                "theoremUB_reverse", "theoremUB", "couplingExpectedDistance"):
        assert table[key] == obj[key]
    assert table["frame.S"] == "ab cd da"
    assert table["witness[da].sizeNS"] == "4"


def test_csv_coupling_matches_json(capsys):
    args = ("coupling", "--input", "named:k4", "--s", "ab,cd,da", "--t", "bd,cd,da")
    code, json_text, _ = run_cli(capsys, *args)
    obj = json.loads(json_text)
    code, csv_text, _ = run_cli(capsys, *args, "--format", "csv")
    rows = parse_csv(csv_text)
    assert rows[0] == ["dropS", "dropT", "addS", "addT", "x", "y",
                       "mass", "distance"]
    assert len(rows) == 1 + 12
    csv_masses = sorted(cv.parse_rational(r[6]) for r in rows[1:])
    json_masses = sorted(cv.parse_rational(c["mass"]) for c in obj["cells"])
    assert csv_masses == json_masses
    expected = sum((cv.parse_rational(r[6]) * int(r[7]) for r in rows[1:]), F(0))
    assert expected == cv.parse_rational(obj["expectedDistance"]) == F(23, 36)


def test_only_the_coupling_command_builds_the_coupling_table(capsys, monkeypatch):
    """pair cross-checks its down-step bound in integers and the exact sweep
    needs no coupling at all; only coupling builds the coupling table."""
    built = []

    def refuse(m, frame):
        raise AssertionError("coupling table built")

    def counted(m, frame):
        built.append(frame)
        return table(m, frame)

    table = curvature.downstep_coupling_table
    monkeypatch.setattr(curvature, "downstep_coupling_table", refuse)
    monkeypatch.setattr(cli, "downstep_coupling_table", refuse)
    pair = ("--input", "named:k4", "--s", "ab,cd,da", "--t", "bd,cd,da")
    assert run_cli(capsys, "pair", *pair)[0] == 0
    assert run_cli(capsys, "curvature", "--input", "named:vamos", "--exact")[0] == 0
    monkeypatch.setattr(cli, "downstep_coupling_table", counted)
    assert run_cli(capsys, "coupling", *pair)[0] == 0
    assert len(built) == 1


# a constructed family of each kind: a pair query needs no validation there
CONSTRUCTED = {"graphic": catalog.k6_spec(), "uniform": cv.UniformSpec(n=6, k=3),
               "linear": rank3_counterexample_linear_spec()}


def pair_and_coupling_text(m: cv.Matroid, x: int, y: int) -> str:
    frame = cv.PairFrame(x, y)
    report = fio.pair_report_to_obj(m, cv.compute_pair_report(m, frame))
    table = cv.downstep_coupling_table(m, frame)
    return fio.render_json(report) + fio.render_json(fio.coupling_table_to_obj(m, table))


@pytest.mark.parametrize("kind", sorted(CONSTRUCTED))
def test_pair_queries_build_no_completion_table(kind):
    """pair and coupling on a constructed family read the pair's own
    completion sets, and print what they print with the table built."""
    spec = CONSTRUCTED[kind]
    swept = cv.build_matroid(spec)
    pairs = cv.canonical_pairs(swept)  # builds swept's table
    for x, y in pairs[::max(1, len(pairs) // 12)]:
        m = cv.build_matroid(spec)
        assert pair_and_coupling_text(m, x, y) == pair_and_coupling_text(swept, x, y)
        assert not m._completions.complete


def test_explicit_pair_queries_build_the_completion_table_once(monkeypatch):
    """The matroid gate of an explicit family fills the completion-set
    store, once, and the pair and coupling reports then read it."""
    fills, gated = [], []  # (store, inside the gate) per fill; gates running
    fill, validate = matroid._CompletionSets.fill, matroid.validate_exchange_axiom

    def counted(self):
        fills.append((self, bool(gated)))
        fill(self)

    def gate(m):
        gated.append(m)
        try:
            return validate(m)
        finally:
            gated.pop()

    monkeypatch.setattr(matroid._CompletionSets, "fill", counted)
    monkeypatch.setattr(matroid, "validate_exchange_axiom", gate)
    m = cv.build_named("rank3-counterexample")
    s, t = (m.mask_from_labels(b) for b in DISTINGUISHED_PAIRS[
        "rank3-counterexample"])
    pair_and_coupling_text(m, s, t)
    assert fills == [(m._completions, True)] and m._completions.complete


def test_csv_curvature_kv(capsys):
    code, csv_text, _ = run_cli(capsys, "curvature", "--input", "named:k4",
                                "--exact", "--format", "csv", "--decimal")
    assert code == 0
    table = dict(parse_csv(csv_text)[1:])
    assert table["kappaExact"] == "1/3"
    assert table["kappaExactApprox"] == "0.333333"
    assert table["pairCount"] == "54"


# ── CLI behavior and exit codes ─────────────────────────────────────────────


def test_cli_catalog(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    entries = json.loads(out)["catalog"]
    assert [e["name"] for e in entries] == list(cv.CATALOG_NAMES)
    k4 = next(e for e in entries if e["name"] == "k4")
    assert k4["rank"] == 3 and k4["bases"] == 16


def test_cli_validate_ok(capsys):
    code, out, _ = run_cli(capsys, "validate", "--input", "named:vamos")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_cli_validate_failure_exit_one(capsys, tmp_path):
    path = write_json(tmp_path, "bad.json",
                      {"type": "explicit", "ground": ["a", "b", "c", "d"],
                       "bases": [["a", "b"], ["c", "d"]]})
    code, out, err = run_cli(capsys, "validate", "--input", path)
    assert code == 1
    obj = json.loads(out)
    assert obj["ok"] is False and obj["witness"]["dropped"] == "a"


def test_cli_curvature_exact_vs_default(capsys):
    code, out, _ = run_cli(capsys, "curvature", "--input",
                           "named:rank3-counterexample", "--exact")
    assert code == 0
    obj = json.loads(out)
    assert obj["kappaExact"] == "-1/21"
    assert obj["pairCount"] == 606

    code, out, _ = run_cli(capsys, "curvature", "--input",
                           "named:rank3-counterexample")
    obj = json.loads(out)
    assert obj["kappaExact"] is None
    assert cv.parse_rational(obj["downstepLBGlobal"]) <= F(-1, 21)


def test_cli_all_pairs_audit_on_single_basis(capsys, tmp_path):
    path = write_json(tmp_path, "one.json", {"type": "uniform", "n": 3, "k": 3})
    code, out, _ = run_cli(capsys, "curvature", "--input", path, "--all-pairs")
    assert code == 0
    obj = json.loads(out)
    assert obj["degenerate"] is True and obj["audited"] is True
    assert obj["kappaExact"] == "1" and obj["pairCount"] == 0


def test_cli_bases_and_pairs(capsys):
    code, out, _ = run_cli(capsys, "bases", "--input", "named:fano")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 28 and len(obj["bases"]) == 28

    code, out, _ = run_cli(capsys, "pairs", "--input", "named:k4")
    obj = json.loads(out)
    assert obj["pairCount"] == 54 == len(obj["pairs"])


def test_cli_exit_codes(capsys, tmp_path):
    code, _, err = run_cli(capsys, "validate", "--input",
                           str(tmp_path / "absent.json"))
    assert code == 2 and "error:" in err

    path = write_json(tmp_path, "weird.json", {"type": "projective", "n": 3})
    code, _, err = run_cli(capsys, "bases", "--input", path)
    assert code == 2 and "error:" in err

    path = write_json(tmp_path, "mismatch.json",
                      {"type": "explicit", "ground": ["a", "b", "c"],
                       "bases": [["a", "b"], ["c"]]})
    code, _, err = run_cli(capsys, "bases", "--input", path)
    assert code == 1 and "error:" in err

    code, _, err = run_cli(capsys, "pair", "--input", "named:k4",
                           "--s", "ab,bc,ac", "--t", "ab,cd,da")
    assert code == 1 and "not a basis" in err

    code, _, err = run_cli(capsys, "pair", "--input", "named:k4",
                           "--s", "ab,bc,cd", "--t", "ac,bd,da")
    assert code == 1 and "exchange" in err

    # the default mode has no flag: --bounds-only is unknown, as any other
    with pytest.raises(SystemExit) as exit_info:
        main(["curvature", "--input", "named:k4", "--all-pairs", "--bounds-only"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("error: unrecognized arguments: --bounds-only\n")


# malformed explicit specs: (ground, bases, error, message); Matroid checks
# the family's shape and the explicit builder only maps labels, so an
# unknown label is reported before unequal sizes
MALFORMED_EXPLICIT = {
    "no-bases": ("a", (), cv.EmptyBasisFamily, "basis family is empty"),
    "duplicate-ground-label": ("aa", ("a",), cv.UnknownElement,
                               "duplicate ground labels"),
    "unequal-sizes": ("abc", ("ab", "c"), cv.RankMismatch,
                      "bases of different sizes: [1, 2]"),
    "unknown-label": ("ab", ("az",), cv.UnknownElement,
                      "basis element 'z' not in the ground set"),
    "repeated-label": ("ab", ("aa",), cv.UnknownElement, "repeated element 'a' in a basis"),
    "unknown-label-and-unequal-sizes": ("abc", ("ab", "z"), cv.UnknownElement,
                                        "basis element 'z' not in the ground set"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_EXPLICIT))
def test_malformed_explicit_spec_keeps_its_error_and_exit_code(name, capsys, tmp_path):
    ground, bases, error, message = MALFORMED_EXPLICIT[name]
    with pytest.raises(error) as info:
        cv.build_matroid(cv.ExplicitSpec(ground=tuple(ground),
                                         bases=tuple(map(tuple, bases))))
    assert str(info.value) == message
    path = write_json(tmp_path, "malformed.json", {
        "type": "explicit", "ground": list(ground), "bases": [list(b) for b in bases]})
    assert run_cli(capsys, "validate", "--input", path) == (1, "", f"error: {message}\n")


HUGE = "9" * 5000  # past the interpreter's default integer digit limit of 4300


@pytest.mark.parametrize("text, code, message", [
    ('{"type": "uniform", "n": 100000, "k": 50000}', 1,
     "error: C(100000,50000) exceeds the enumeration limit of 2000000 subsets"),
    ('{"type": "uniform", "n": ' + HUGE + ', "k": 2}', 2,
     "a number is too long to read"),
    ('{"type": "linear", "matrix": [["' + HUGE + '/7", "1"]]}', 2,
     "error: rational of 5002 characters is too long"),
    ('{"type": "graphic", "vertices": 1000000000000, "edges": [[0, 1, "a"]]}', 0, ""),
    ("[" * 200_000 + "]" * 200_000, 2, "nesting is too deep to read"),
    ('{"type": "uniform", "n": 20000, "k": 19999}', 1,
     "error: enumerating C(20000,19999) subsets exceeds the work limit"),
], ids=["too-many-subsets", "huge-integer", "huge-rational", "huge-vertex-count",
        "deep-nesting", "too-much-work"])
def test_cli_contract_on_huge_inputs(capsys, tmp_path, text, code, message):
    path = tmp_path / "huge.json"
    path.write_text(text, encoding="utf-8")
    got, out, err = run_cli(capsys, "bases", "--input", str(path))
    assert got == code
    assert "Traceback" not in out + err
    if code:
        # one error line that never prints the huge number
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error:")
        assert message in err and len(err) < 200
    else:
        assert json.loads(out)["rank"] == 1 and err == ""


def test_cli_rejects_non_ascii_digits(capsys, tmp_path):
    # an Arabic-Indic three used to build as if it were 3
    path = write_json(tmp_path, "arabic.json",
                      {"type": "linear", "matrix": [["1", "\u0663"], ["0", "1"]]})
    code, out, err = run_cli(capsys, "bases", "--input", path)
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("error: not a p/q rational")


def test_cli_all_pairs_audit_too_large_fails_fast(capsys, tmp_path):
    # K7 has 16,807 bases, so its audit would solve up to 141,229,221 pairs
    edges = [[a, b, f"e{a}{b}"] for a in range(7) for b in range(a + 1, 7)]
    path = write_json(tmp_path, "k7.json", {"type": "graphic", "vertices": 7, "edges": edges})
    code, out, err = run_cli(capsys, "curvature", "--input", path, "--all-pairs")
    assert code == 1 and out == "" and "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("error: the all-pairs audit of 16807 bases")
    assert "141229221 pairs, over the limit of 2000000" in err


def test_cli_non_matroid_fails_on_every_distance_path(capsys, tmp_path):
    # ab - ac and de - df are adjacent pairs whose witnesses check out, but
    # nothing exchanges ab towards de: only the matroid gate catches it
    path = write_json(tmp_path, "split.json",
                      {"type": "explicit", "ground": list("abcdef"),
                       "bases": [["a", "b"], ["a", "c"], ["d", "e"], ["d", "f"]]})
    witness = "'a' dropped from ('a', 'b')"
    pair = ("--s", "a,b", "--t", "a,c")
    for argv in (("curvature",), ("curvature", "--exact"), ("curvature", "--all-pairs"),
                 ("pair", *pair), ("coupling", *pair)):
        code, out, err = run_cli(capsys, argv[0], "--input", path, *argv[1:])
        assert code == 1 and out == "", argv
        assert err.startswith("error: not a matroid") and witness in err, argv
        assert err.count("\n") == 1 and "Traceback" not in err, argv
    code, out, _ = run_cli(capsys, "validate", "--input", path)
    assert code == 1 and witness in json.loads(out)["detail"]


def test_cli_gates_every_curvature_command_on_a_family_without_pairs(capsys, tmp_path):
    # {abc, def} has no adjacent pair, so only the connectivity half of the
    # gate fails; the split family is covered above
    bases = ("abc", "def")
    path = write_json(tmp_path, "disjoint.json",
                      {"type": "explicit", "ground": list("abcdef"),
                       "bases": [list(b) for b in bases]})
    m = cv.build_matroid(cv.ExplicitSpec(ground=tuple("abcdef"),
                                         bases=tuple(map(tuple, bases))))
    line = f"error: not a matroid: {cv.validate_exchange_axiom(m).detail}\n"
    for argv in (("curvature",), ("curvature", "--exact"), ("curvature", "--all-pairs")):
        assert run_cli(capsys, argv[0], "--input", path, *argv[1:]) == (1, "", line)
    # no pair to name: the pair commands refuse the arguments instead
    for command in ("pair", "coupling"):
        assert run_cli(capsys, command, "--input", path,
                       "--s", "a,b,c", "--t", "d,e,f") == (
            1, "", "error: --s and --t must differ by exactly one exchange\n")
    for command in ("bases", "pairs"):
        assert run_cli(capsys, command, "--input", path)[0] == 0


def test_cli_decimal_flag(capsys):
    code, out, _ = run_cli(capsys, "pair", "--input", "named:k4",
                           "--s", "ab,cd,da", "--t", "bd,cd,da", "--decimal")
    obj = json.loads(out)
    assert obj["decimalsAreApproximate"] is True
    assert obj["exactKappaApprox"] == "0.361111"
    assert obj["exactKappa"] == "13/36"


def k4_argv(command: str) -> list[str]:
    """command on named:k4, with the distinguished k4 pair where it needs one."""
    if command == "catalog":
        return [command]
    argv = [command, "--input", "named:k4"]
    if command in ("pair", "coupling"):
        s, t = DISTINGUISHED_PAIRS["k4"]
        argv += ["--s", ",".join(s), "--t", ",".join(t)]
    return argv


def test_every_option_changes_the_report(capsys):
    # a flag or choice that prints the same bytes as its absence buys nothing;
    # every optional argument that takes a value must offer choices
    inert = []
    for command, parser in cli._parsers()[1].items():
        base = k4_argv(command)
        assert main(base) == 0
        default = capsys.readouterr().out
        for action in parser._actions:
            if (isinstance(action, argparse._HelpAction) or not action.option_strings
                    or action.required):
                continue
            flag = action.option_strings[0]
            if action.nargs == 0:
                variants = [[flag]]
            else:
                assert action.choices, (command, flag)
                variants = [[flag, c] for c in action.choices if c != action.default]
            for extra in variants:
                assert main(base + extra) == 0, (command, extra)
                if capsys.readouterr().out == default:
                    inert.append(" ".join([command, *extra]))
    assert inert == []


@pytest.mark.parametrize("argv", [
    ["curvature", "--input", "named:k4", "--bounds-only"],
    *(k4_argv(command) + ["--decimal"]
      for command in ("validate", "bases", "pairs", "catalog")),
], ids=lambda argv: f"{argv[0]} {argv[-1]}")
def test_removed_options_are_unknown_flags(capsys, argv):
    # the command's own parser reports the flag, with that command's usage
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith(f"usage: curvatroid {argv[0]} [-h]") and err.count("usage:") == 1
    assert err.endswith(
        f"\ncurvatroid {argv[0]}: error: unrecognized arguments: {argv[-1]}\n")


TOP_USAGE = ("usage: curvatroid [-h]\n"
             "                  {validate,bases,pairs,curvature,pair,coupling,catalog} ...\n")
CHOICES = "'validate', 'bases', 'pairs', 'curvature', 'pair', 'coupling', 'catalog'"


@pytest.mark.parametrize("argv,code,out,err", [
    ([], 2, "", TOP_USAGE + "curvatroid: error: the following arguments are required: "
                            "command\n"),
    (["bogus"], 2, "", TOP_USAGE + "curvatroid: error: argument command: invalid choice: "
                                   f"'bogus' (choose from {CHOICES})\n"),
    (["--input", "named:k4"], 2, "", TOP_USAGE + "curvatroid: error: argument command: "
                                                 f"invalid choice: 'named:k4' (choose from "
                                                 f"{CHOICES})\n"),
    (["-h"], 0, TOP_USAGE, ""),
    (["--help"], 0, TOP_USAGE, ""),
], ids=["empty", "unknown-command", "no-command", "-h", "--help"])
def test_the_top_level_parser_answers_without_a_command(capsys, monkeypatch, argv, code,
                                                        out, err):
    # argparse wraps usage to the terminal width, which COLUMNS sets
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == code
    captured = capsys.readouterr()
    assert captured.err == err
    assert captured.out.startswith(out)
    if code == 0:  # the help lists every command with its one-line help
        assert captured.out == cli._parsers()[0].format_help()
        for command in cli._parsers()[1]:
            assert f"\n    {command} " in captured.out, command


def count_parses(monkeypatch) -> list:
    parses = []
    parse = argparse.ArgumentParser.parse_known_args

    def counted(self, args=None, namespace=None):
        parses.append(self.prog)
        return parse(self, args, namespace)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    return parses


@pytest.mark.parametrize("command", sorted(cli._parsers()[1]))
def test_main_parses_each_call_once_with_the_commands_own_parser(capsys, monkeypatch,
                                                                 command):
    parses = count_parses(monkeypatch)
    for extra in ([], ["--format", "csv"]):
        argv = k4_argv(command) + extra
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        assert parses == [f"curvatroid {command}"], argv
        parses.clear()
    # an unknown flag is one pass too, and so is a call without a command
    with pytest.raises(SystemExit):
        main(k4_argv(command) + ["--bogus"])
    with pytest.raises(SystemExit):
        main([])
    assert parses == [f"curvatroid {command}", "curvatroid"]
    assert f"curvatroid {command}: error: unrecognized arguments: --bogus" in (
        capsys.readouterr().err)


def test_cli_pairs_over_the_limit_fails_fast(capsys, tmp_path):
    # U(2,200) has 19,900 bases, and each element's completion set holds the
    # 199 others: 200 * C(199, 2) = 3,940,200 adjacent pairs
    path = write_json(tmp_path, "u2-200.json", {"type": "uniform", "n": 200, "k": 2})
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "pairs", "--input", path)
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == ("error: listing 3940200 adjacent pairs exceeds the enumeration "
                   "limit of 2000000 pairs\n")
    assert run_cli(capsys, *k4_argv("pairs"))[0] == 0
    assert len(cv.canonical_pairs(complete_graph(7))) == 365_085
