"""The repository's pytest settings, exercised on a throwaway test file."""

import os
import subprocess
import sys

PYPROJECT = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")

TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 0


def test_runs_after():
    pass
'''


def test_failing_property_test_does_not_abort_the_run(tmp_path):
    # warnings are errors, so a warning raised while hypothesis reports a
    # failure must not turn into an INTERNALERROR that stops the session
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", os.path.abspath(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-v", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "test_two.py::test_runs_after PASSED" in run.stdout
    assert "1 failed, 1 passed" in run.stdout
