"""Byte-identity guard: CLI reports for the catalog against checked-in goldens.

Every quantity is an exact rational, so a refactor that keeps the numbers
keeps the bytes. The files under tests/goldens/ are recorded once and only
re-recorded by a change that means to alter a report:

    python tests/test_goldens.py --record
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from curvatroid.catalog import DISTINGUISHED_PAIRS
from curvatroid.cli import main

GOLDENS = Path(__file__).parent / "goldens"

# one adjacent pair per catalog entry for the single-pair commands
PAIRS = {
    **DISTINGUISHED_PAIRS,
    "vamos": (("c1", "c2", "d1", "d2"), ("a1", "c1", "c2", "d1")),
    "fano": (("1", "2", "4"), ("1", "2", "5")),
}

CASES = (
    [("curvature", name, ()) for name in
     ("vamos", "fano", "k4", "k6", "rank3-counterexample")]
    + [("curvature", name, ("--exact",)) for name in
       ("vamos", "fano", "k4", "rank3-counterexample")]
    + [("pairs", name, ()) for name in ("k4", "fano")]
    + [(command, name, ()) for command in ("pair", "coupling") for name in PAIRS]
    + [("validate", "fano", ())]
)
FORMATS = ("json", "csv")


def golden_name(command: str, name: str, flags: tuple[str, ...], fmt: str) -> str:
    parts = [command, *(f.lstrip("-") for f in flags), name]
    return "-".join(parts) + "." + fmt


def render(command: str, name: str, flags: tuple[str, ...], fmt: str) -> bytes:
    argv = [command, "--input", f"named:{name}", *flags, "--format", fmt]
    if command in ("pair", "coupling"):
        s, t = PAIRS[name]
        argv += ["--s", ",".join(s), "--t", ",".join(t)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command,name,flags", CASES)
def test_report_matches_golden(command, name, flags, fmt):
    expected = (GOLDENS / golden_name(command, name, flags, fmt)).read_bytes()
    assert render(command, name, flags, fmt) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_goldens.py --record")
    GOLDENS.mkdir(exist_ok=True)
    for command, name, flags in CASES:
        for fmt in FORMATS:
            path = GOLDENS / golden_name(command, name, flags, fmt)
            path.write_bytes(render(command, name, flags, fmt))
            print(path.name)
