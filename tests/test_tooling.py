"""The test session itself: a failing hypothesis property is reported as a
failure under the repository's pytest settings, and the session goes on.
And the start-up of a one-pair command: no module that generates classes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    pytest.importorskip("hypothesis")
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


START_UP = '''
import contextlib, io, sys
from curvatroid import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["pair", "--input", "named:k4", "--s", "ab,cd,da", "--t", "bd,cd,da"])
print(code, sorted(name for name in ("dataclasses", "inspect") if name in sys.modules))
'''


def test_a_pair_query_imports_no_class_generator():
    # dataclasses, and the inspect module it imports, take half the import
    # of curvatroid.cli; every record is a NamedTuple, and a record that
    # checks its input does so in __new__
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", START_UP], capture_output=True,
                         text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "0 []\n", run.stdout
