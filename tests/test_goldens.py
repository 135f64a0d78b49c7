"""Byte-identity guard: CLI reports for the catalog against checked-in goldens.

Every quantity is an exact rational, so a refactor that keeps the numbers
keeps the bytes. The files under tests/goldens/ are recorded once and only
re-recorded by a change that means to alter a report:

    python tests/test_goldens.py --record
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from itertools import combinations
from pathlib import Path

import pytest

from curvatroid.catalog import RANK3_GROUND
from curvatroid.cli import main
from oracles import DISTINGUISHED_PAIRS

GOLDENS = Path(__file__).parent / "goldens"

# element labels that JSON escapes (a quote, a backslash, a control
# character) or writes as they are (a non-ASCII letter)
ESCAPED_LABELS = ('a"q', "b\\", "\u00e9", "\u0001")

# one adjacent pair per catalog entry for the single-pair commands
PAIRS = {
    **DISTINGUISHED_PAIRS,
    "vamos": (("c1", "c2", "d1", "d2"), ("a1", "c1", "c2", "d1")),
    "fano": (("1", "2", "4"), ("1", "2", "5")),
    "rank3-linear": DISTINGUISHED_PAIRS["rank3-counterexample"],
    "linear-4x9": (("v1", "v3", "v4"), ("v2", "v3", "v4")),
    # downstepLB 1/3 < kappa = theoremUB = 11/30
    "linear-5x7": (("v0", "v1", "v2", "v3", "v4"), ("v0", "v1", "v2", "v3", "v5")),
    "escapes": (ESCAPED_LABELS[:2], ESCAPED_LABELS[:3:2]),
}

# description files, written to a temporary file per render (a report's
# origin describes the construction, not the path): two explicit
# non-matroids for the validate witness goldens, then three linear inputs
FILES = {
    "split": {"type": "explicit", "ground": list("abcdef"),
              "bases": [["a", "b"], ["a", "c"], ["d", "e"], ["d", "f"]]},
    "two-triangles": {"type": "explicit", "ground": list("abcdef"),
                      "bases": [["a", "b", "c"], ["d", "e", "f"]]},
    # the rank-3 catalog matroid from vectors: s = e1, t = e2, u = e3,
    # u' = (2/3)(e1 + e2 + e3), each v_i parallel to t and each w_i to s
    "rank3-linear": {
        "type": "linear", "labels": list(RANK3_GROUND),
        "matrix": [[1, 0, 0, "2/3", 0, 0, 0, 0, 0, 1, 1, "-3/4", 1, 1],
                   [0, 1, 0, "2/3", 1, 1, "5/2", 1, 1, 0, 0, 0, 0, 0],
                   [0, 0, 1, "2/3", 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]]},
    # rank 3: the last row is the first minus the third, v0 is a zero
    # column (a loop) and v2 = -2 v1 (a parallel pair); default labels
    "linear-4x9": {
        "type": "linear",
        "matrix": [[0, 1, -2, 1, 0, 2, 1, 3, 0],
                   [0, 2, -4, 0, 1, 1, -1, 0, 2],
                   [0, 0, 0, 1, 1, 0, 2, -1, 1],
                   [0, 1, -2, 0, -1, 2, -1, 4, -1]]},
    # rank 5 on 7 columns, 2k > n: the bases come from the dual's minors;
    # some pairs have downstepLB < theoremUB; default labels
    "linear-5x7": {
        "type": "linear",
        "matrix": [[0, 2, 1, 1, -1, -1, 0],
                   [0, 0, -1, 1, 0, 0, 2],
                   [0, -1, 0, 0, -1, 1, 0],
                   [0, -1, 1, 0, -1, 2, 0],
                   [2, -1, -1, 1, -1, 1, 1]]},
    # U(2,4) on ESCAPED_LABELS
    "escapes": {"type": "explicit", "ground": list(ESCAPED_LABELS),
                "bases": [list(b) for b in combinations(ESCAPED_LABELS, 2)]},
    # one basis, so no adjacent pair
    "u33": {"type": "uniform", "n": 3, "k": 3},
}
NON_MATROIDS = ("split", "two-triangles")

CASES = (
    [("curvature", name, ()) for name in
     ("vamos", "fano", "k4", "k6", "rank3-counterexample")]
    + [("curvature", name, ("--exact",)) for name in
       ("vamos", "fano", "k4", "rank3-counterexample")]
    + [("pairs", name, ()) for name in ("k4", "fano")]
    + [(command, name, ()) for command in ("pair", "coupling") for name in PAIRS
       if name not in FILES]
    + [("validate", "fano", ())]
    + [("bases", name, ()) for name in ("vamos", "fano", "k4", "rank3-counterexample")]
    + [("catalog", "", ())]
    + [("validate", name, ()) for name in NON_MATROIDS]
    # appended last so the generated ids of the cases above stay as they were
    + [("curvature", name, ("--all-pairs",)) for name in ("k4", "fano")]
    + [(command, name, flags) for name in ("rank3-linear", "linear-4x9")
       for command, flags in (("bases", ()), ("curvature", ()),
                              ("curvature", ("--exact",)), ("pair", ()))]
    + [(command, "linear-5x7", flags)
       for command, flags in (("bases", ()), ("curvature", ()),
                              ("curvature", ("--exact",)), ("pair", ()))]
    + [("coupling", "k4", ("--decimal",))]
    + [(command, "escapes", ()) for command in ("bases", "pairs", "coupling")]
    + [("pairs", "u33", ())]
)
FORMATS = ("json", "csv")


def golden_name(command: str, name: str, flags: tuple[str, ...], fmt: str) -> str:
    parts = [command, *(f.lstrip("-") for f in flags), name]
    return "-".join(p for p in parts if p) + "." + fmt


def render(command: str, name: str, flags: tuple[str, ...], fmt: str) -> bytes:
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if command == "catalog":
            source = []
        elif name in FILES:
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(FILES[name]), encoding="utf-8")
            source = ["--input", str(path)]
        else:
            source = ["--input", f"named:{name}"]
        argv = [command, *source, *flags, "--format", fmt]
        if command in ("pair", "coupling"):
            s, t = PAIRS[name]
            argv += ["--s", ",".join(s), "--t", ",".join(t)]
        with contextlib.redirect_stdout(out):
            code = main(argv)
    # the explicit FILES entries fail the exchange axiom, so validate exits 1
    assert code == (1 if name in NON_MATROIDS else 0)
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command,name,flags", CASES)
def test_report_matches_golden(command, name, flags, fmt):
    expected = (GOLDENS / golden_name(command, name, flags, fmt)).read_bytes()
    assert render(command, name, flags, fmt) == expected


def test_one_parser_serves_interleaved_calls(capsys, tmp_path):
    # main() builds its parser once per process; rejected calls between
    # valid ones must not change what the valid ones print
    s, t = PAIRS["k4"]
    pair = ["pair", "--input", "named:k4", "--s", ",".join(s), "--t", ",".join(t)]
    valid = [(pair + ["--format", "csv"], "pair-k4.csv"),
             (pair, "pair-k4.json"),
             (["curvature", "--input", "named:fano", "--exact"],
              "curvature-exact-fano.json")]
    bad = tmp_path / "bad.json"
    bad.write_text('{"type": "uniform",', encoding="utf-8")
    for _ in range(2):
        for argv, golden in valid:
            assert main(argv) == 0
            assert capsys.readouterr().out.encode("utf-8") == (GOLDENS / golden).read_bytes()
        for argv, flag in ((pair + ["--no-such-flag"], "--no-such-flag"),
                           (["curvature", "--input", "named:k4", "--all-pairs",
                             "--bounds-only"], "--bounds-only")):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
            assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: {flag}\n")
        assert main(["pair", "--input", str(bad), "--s", "a", "--t", "b"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_goldens.py --record")
    GOLDENS.mkdir(exist_ok=True)
    for command, name, flags in CASES:
        for fmt in FORMATS:
            path = GOLDENS / golden_name(command, name, flags, fmt)
            path.write_bytes(render(command, name, flags, fmt))
            print(path.name)
