"""The README's Library snippet runs and prints what its comments say.

The snippet is read out of README.md, executed, and every line of the form
`expression  # Fraction(p, q) ...` is evaluated in the snippet's namespace
and compared with the Fraction its comment names. A change to the public
API or to a reported value then fails here instead of leaving the README
stale.
"""

import re
from fractions import Fraction
from pathlib import Path

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
