"""The repository's pytest settings, exercised on a throwaway test file, and
the CI workflow's agreement with pyproject.toml."""

import importlib.util
import os
import re
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
PYPROJECT = os.path.join(ROOT, "pyproject.toml")
WORKFLOW = os.path.join(ROOT, ".github", "workflows", "tier1.yml")
CI_SCRIPT = os.path.join(ROOT, "tools", "ci.py")

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


def test_ci_floor_entry_mirrors_pyproject():
    # both files are read as text: Python 3.10, the floor, has no tomllib
    with open(PYPROJECT, encoding="utf-8") as fh:
        project = fh.read()
    with open(WORKFLOW, encoding="utf-8") as fh:
        workflow = fh.read()
    # the floor entry pins every runtime dependency at its >= floor
    block = re.search(r"^dependencies = \[(.*?)\]", project, flags=re.M | re.S).group(1)
    floors = [re.fullmatch(r"([\w-]+)>=([\d.]+)", dep).groups()
              for dep in re.findall(r'"([^"]+)"', block)]
    pins = re.search(r'^\s+pins: "(.+)"$', workflow, flags=re.M).group(1).split()
    assert pins == [f"{name}=={version}.*" for name, version in floors]
    python = re.search(r'^requires-python = ">=([\d.]+)"$', project, flags=re.M).group(1)
    matrix = re.search(r"^\s+python-version: \[(.*)\]$", workflow, flags=re.M).group(1)
    assert f'"{python}"' in matrix.split(", ")


def _ci_steps():
    spec = importlib.util.spec_from_file_location("ci", CI_SCRIPT)
    ci = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ci)
    return ci.STEPS


def test_every_workflow_step_of_ci_script_exists():
    with open(WORKFLOW, encoding="utf-8") as fh:
        workflow = fh.read()
    runs = re.findall(r"^\s+run: (.*)$", workflow, flags=re.M)
    calls = [run.split() for run in runs if "tools/ci.py" in run]
    assert [call[:2] for call in calls] == [["python", "tools/ci.py"]] * len(calls)
    assert sorted(call[2] for call in calls) == sorted(_ci_steps())
    # the step bodies live in the script, not in inline one-liners
    assert not re.search(r"python3? -c\b", workflow)
    assert all(len(call) == 3 for call in calls)


def test_ci_script_refuses_an_unknown_step():
    run = subprocess.run([sys.executable, CI_SCRIPT, "no-such-step"],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 2
    assert "usage: python tools/ci.py {tier1,bench-smoke,bench-trace-smoke,tree-clean}" in run.stderr
