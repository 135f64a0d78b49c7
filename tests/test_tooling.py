"""The test session itself: a failing hypothesis property is reported as a
failure under the repository's pytest settings, and the session goes on."""

import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(max_examples=5, database=None, derandomize=True)
@given(st.integers())
def test_always_fails(x):
    assert x != x


def test_runs_after_the_property():
    pass
'''


def test_failing_property_is_a_failure_not_an_internal_error(tmp_path):
    # on failure hypothesis's pytest plugin imports modules that raise
    # DeprecationWarning at import; under filterwarnings = ["error"] alone
    # that ends the whole session in INTERNALERROR
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_property.py")],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
