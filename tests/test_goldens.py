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

from curvatroid.cli import main

GOLDENS = Path(__file__).parent / "goldens"

CASES = (
    [("curvature", name, ()) for name in
     ("vamos", "fano", "k4", "k6", "rank3-counterexample")]
    + [("curvature", name, ("--exact",)) for name in
       ("vamos", "fano", "k4", "rank3-counterexample")]
    + [("pairs", name, ()) for name in ("k4", "fano")]
)
FORMATS = ("json", "csv")


def golden_name(command: str, name: str, flags: tuple[str, ...], fmt: str) -> str:
    parts = [command, *(f.lstrip("-") for f in flags), name]
    return "-".join(parts) + "." + fmt


def render(command: str, name: str, flags: tuple[str, ...], fmt: str) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, "--input", f"named:{name}", *flags, "--format", fmt])
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
