"""The steps of the CI workflow, so a checkout can run exactly what CI runs.

Run from the repository root::

    python tools/ci.py tier1              # installed numpy/scipy, then the Tier-1 tests
    python tools/ci.py bench-smoke        # one short run of each benchmark workload
    python tools/ci.py bench-trace-smoke  # the same, traced
    python tools/ci.py tree-clean         # nothing above wrote into the tree

Each step exits 0 when it passes. Standard library only, so it runs before
anything is installed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from importlib import metadata

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _workloads() -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    if not names:
        raise SystemExit("BENCHMARK.json declares no workload")
    return names


def _bench(workload: str, out_name: str, *extra: str) -> list[str]:
    """Run one second of a workload, keep its stdout in out_name at the
    root, and return its stdout lines; the last is the result."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "1", "--seconds", "1", *extra]
    run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    with open(os.path.join(ROOT, out_name), "w", encoding="utf-8") as fh:
        fh.write(run.stdout)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        raise SystemExit(f"{workload}: perfbench/run.py exited {run.returncode}")
    return lines


def _check_result(workload: str, line: str) -> None:
    result = json.loads(line)
    if not (result["correct"] is True and result["failed"] == 0):
        raise SystemExit(f"{workload}: correct {result['correct']}, failed {result['failed']}")


def tier1() -> int:
    print("numpy", metadata.version("numpy"), "scipy", metadata.version("scipy"), flush=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    return subprocess.run(command, cwd=ROOT, env=env).returncode


def bench_smoke() -> int:
    # the last stdout line of a run is the result, the one before it the report
    for workload in _workloads():
        lines = _bench(workload, f"bench-{workload}.out")
        _check_result(workload, lines[-1])
        print(f"{workload}: correct", flush=True)
    return 0


def bench_trace_smoke() -> int:
    # every span reader must still fit the functions it wraps, and the
    # traced body must still be correct
    for workload in _workloads():
        lines = _bench(workload, f"bench-trace-{workload}.out", "--trace", "1")
        errors = json.loads(lines[-2])["report"]["info_errors"]
        if errors != {}:
            raise SystemExit(f"{workload}: info_errors {errors}")
        _check_result(workload, lines[-1])
        print(f"{workload}: correct, no info_errors", flush=True)
    return 0


def tree_clean() -> int:
    # tests and benchmark runs write only to temporary or ignored paths
    status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True, check=True).stdout
    print(status, end="")
    return 1 if status else 0


STEPS = {
    "tier1": tier1,
    "bench-smoke": bench_smoke,
    "bench-trace-smoke": bench_trace_smoke,
    "tree-clean": tree_clean,
}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in STEPS:
        print(f"usage: python tools/ci.py {{{','.join(STEPS)}}}", file=sys.stderr)
        return 2
    return STEPS[argv[0]]()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
