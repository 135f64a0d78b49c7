"""The README's Library snippet runs and prints what its comments say, and
its table of complete graphs holds the values the sweep reports.

The snippet is read out of README.md, executed, and every line of the form
`expression  # Fraction(p, q) ...` is evaluated in the snippet's namespace
and compared with the Fraction its comment names. The K4-K7 rows of the
table are recomputed, and the K8 row is held to test_k8_exact's constants;
so are the rows of the table of direct sums.
A change to the public API or to a reported value then fails here instead
of leaving the README stale. Every command of the Command line section's
first block runs through the command-line entry point and must exit 0,
with one argparse pass each, so a removed flag cannot stay documented.
"""

import re
import shlex
from fractions import Fraction
from pathlib import Path

import curvatroid as cv
from curvatroid.cli import main
from oracles import direct_sum
from test_curvature import K8_REPORT, complete_graph
from test_io_cli import count_parses

README = Path(__file__).resolve().parent.parent / "README.md"
CLAIM = re.compile(r"^(?P<expr>[^#]+?)\s+#\s*Fraction\((?P<p>-?\d+), (?P<q>\d+)\)")


def library_snippet() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_snippet_values_match_its_comments():
    snippet = library_snippet()
    namespace: dict = {}
    exec(compile(snippet, str(README), "exec"), namespace)
    claims = [CLAIM.match(line) for line in snippet.splitlines()]
    claims = [c for c in claims if c]
    assert len(claims) >= 4
    for claim in claims:
        got = eval(claim["expr"], namespace)
        assert got == Fraction(int(claim["p"]), int(claim["q"])), claim["expr"]


def command_block() -> list[str]:
    """The lines of the first sh block under the README's Command line heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1]
    return section.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()


def test_command_line_examples_exit_zero(capsys, monkeypatch, tmp_path):
    block = command_block()
    # the description file the validate example names is shown in a comment
    (example,) = [line[2:] for line in block if line.startswith('# {"type"')]
    (tmp_path / "my-matroid.json").write_text(example, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line)[1:] for line in block if line.startswith("curvatroid ")]
    assert len(commands) >= 7
    parses = count_parses(monkeypatch)
    for argv in commands:
        assert main(argv) == 0, argv
        assert capsys.readouterr().err == "", argv
        assert parses == [f"curvatroid {argv[0]}"], argv
        parses.clear()


def table_rows(heading: str, first_cell: str = "") -> list[list[str]]:
    """The cells of the rows of the table under a README heading whose first
    cell starts with first_cell, header and rule excluded."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    rows = [[cell.strip().replace("\u2212", "-") for cell in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| ")]
    return [row for row in rows[1:] if row[0].startswith(first_cell)]


def complete_graph_rows() -> list[list[str]]:
    """The cells of the rows of the README's table of complete graphs."""
    return [[cell.replace(",", "") for cell in row]
            for row in table_rows("Complete graphs", "K")]


def test_complete_graph_table_matches_the_sweep():
    rows = {row[0]: row[1:] for row in complete_graph_rows()}
    assert list(rows) == ["K4", "K5", "K6", "K7", "K8"]
    for v in range(4, 9):
        n, k = v * (v - 1) // 2, v - 1
        if v < 8:
            m = complete_graph(v)
            report = cv.global_curvature(m)
            assert (m.n, m.rank, len(m.bases)) == (n, k, v ** (v - 2))
            values = (report.kappa_exact, report.downstep_lb, report.theorem_ub,
                      report.pair_count)
            assert report.theorem_lb == cv.theorem_lb_global(k, n)
        else:
            values = K8_REPORT
        kappa, lb, ub, pairs = values
        expected = [n, k, v ** (v - 2), pairs, kappa, lb, ub, cv.theorem_lb_global(k, n)]
        assert rows[f"K{v}"] == [str(x) for x in expected], v


def test_direct_sum_table_matches_the_sweep():
    k4 = cv.build_named("k4")
    pendant = cv.GraphicSpec(vertex_count=5, edges=(
        *((a, b, f"{a}{b}") for a in range(4) for b in range(a + 1, 4)), (3, 4, "34")))
    fano, rank3 = cv.build_named("fano"), cv.build_named("rank3-counterexample")
    u23, u24 = (cv.build_matroid(cv.UniformSpec(n=n, k=2)) for n in (3, 4))
    # row name -> (the sum, its summands with at least two bases)
    sums = {"K4 plus a pendant edge (a coloop)": (cv.build_matroid(pendant), [k4]),
            "fano \u2295 U(2,3)": (direct_sum(fano, u23), [fano, u23]),
            "rank3-counterexample \u2295 U(2,4)": (direct_sum(rank3, u24), [rank3, u24])}
    rows = {row[0]: row[1:] for row in table_rows("Direct sums")}
    assert list(rows) == list(sums)
    for name, (m, summands) in sums.items():
        kappa = cv.global_curvature(m).kappa_exact
        parts = [cv.global_curvature(part).kappa_exact for part in summands]
        assert kappa == min(Fraction(part.rank, m.rank) * value
                            for part, value in zip(summands, parts)), name
        assert rows[name] == [str(m.rank), str(len(m.bases)),
                              ", ".join(map(str, parts)), str(kappa)], name
