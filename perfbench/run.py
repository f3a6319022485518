"""Benchmark of the cdfnet pipeline on seeded STL-10-shaped data.

Run from the repository root:

    python3 perfbench/run.py --workload fold_job --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` beside this directory, never from an
installed copy. The run sets up its workload ``setup_reps`` times (set-up time is
the median), then repeats the timed body until ``--seconds`` have passed and
reports the median body time. Every body's outputs are checked and digested;
digests must agree between repetitions.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates untraced
and traced bodies and prints the per-layer metrics of the traced ones, plus
the tracing overhead (median traced minus median untraced body time).

The last stdout line is the result object; the line before it is a report
with the environment record, scale factors, digests, absent trace targets
and, for a traced ``fold_job``, the extrapolated cost of one paper-scale job.
The report and the spans are also written to ``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_REPS = 2
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def limit_blas_threads() -> int:
    """Cap BLAS threads at the cores this process may use; before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return nproc


def import_package():
    """Import cdfnet from ROOT/src; refuse any other copy."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(1, ROOT)
    import cdfnet.cli

    where = os.path.dirname(os.path.abspath(cdfnet.cli.__file__))
    if where != os.path.join(src, "cdfnet"):
        raise ImportError(f"cdfnet imported from {where}, not from {src}")
    if not os.path.isdir(os.path.join(ROOT, "configs")):
        raise ImportError(f"no configs/ directory in {ROOT}")
    return cdfnet.cli


def git_commit() -> str | None:
    """HEAD of ROOT's git checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int, nproc: int, workload) -> dict:
    import numpy
    import scipy

    src = os.path.join(ROOT, "src", "cdfnet")
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = None
    return {
        "git_commit": git_commit(),
        "src_sha256": h.hexdigest(),
        "seed": seed,
        "scale": workload.scale_factors(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_threads": blas_threads(),
        "nproc": nproc,
        "python": platform.python_version(),
    }


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run(args, cli, nproc: int) -> tuple[dict, dict, dict]:
    from perfbench import spans as span_mod
    from perfbench import workloads as wl

    workload = wl.WORKLOADS[args.workload](ROOT)
    ops = wl.Ops(cli)
    tracer = span_mod.Tracer() if args.trace else None
    work = os.path.join(ROOT, "perfbench", "_work", f"{args.workload}-{os.getpid()}")
    report = {"workload": args.workload, "env": environment(args.seed, nproc, workload)}
    problems = []
    try:
        if tracer:
            tracer.install()
        setup_s, setup_digests = [], []
        for i in range(workload.setup_reps):
            wdir = os.path.join(work, f"setup{i}")
            os.makedirs(wdir)
            t0 = time.perf_counter()
            state = workload.setup(ops, wdir, args.seed)
            setup_s.append(time.perf_counter() - t0)
            setup_digests.append({os.path.basename(p): wl.sha256(p) for p in state["artifacts"]})
        if tracer:
            tracer.uninstall()
        if any(d != setup_digests[0] for d in setup_digests):
            problems.append("set-up outputs differ between set-ups")
        report["setup_s"] = setup_s
        report["setup_digests"] = setup_digests[0]
        report["loader_max_abs_error"] = state["ds"]["loader_error"]

        walls = {False: [], True: []}
        cpu = []
        accuracies, digests = [], []
        started = time.perf_counter()
        rep = 0
        while True:
            for traced in ((False, True) if tracer else (False,)):
                out = os.path.join(work, f"body{rep}")
                rep += 1
                if traced:
                    tracer.phase = "body"
                    tracer.install()
                cpu0, t0 = cpu_seconds(), time.perf_counter()
                result = workload.body(ops, state, out)
                wall = time.perf_counter() - t0
                cpu1 = cpu_seconds()
                if traced:
                    tracer.uninstall()
                    cpu.append(cpu1 - cpu0)
                walls[traced].append(wall)
                acc, dig = workload.verify(ops, state, result)
                accuracies.append(acc)
                digests.append(dig)
                shutil.rmtree(out, ignore_errors=True)
            # untraced runs want MIN_REPS rounds for a median; then another
            # round only if it fits in the time left
            done = len(walls[False])
            elapsed = time.perf_counter() - started
            enough = done >= (1 if tracer else MIN_REPS)
            if enough and elapsed * (1 + 1 / done) > args.seconds:
                break
        if any(a is None for a in accuracies) or len(set(accuracies)) != 1:
            problems.append(f"accuracy failed its checks or varied: {accuracies}")
        if any(d != digests[0] or not d for d in digests):
            problems.append("body outputs missing or differ between repetitions")
        report.update({
            "body_s": walls[False],
            "traced_body_s": walls[True],
            "accuracy": accuracies[0],
            "digests": digests[0],
            "attempted": ops.attempted,
            "failed": ops.failed,
            "errors": ops.errors[:20],
            "problems": problems,
        })
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    correct = not problems and ops.failed == 0
    if not tracer:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "wall_s": statistics.median(walls[False]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "accuracy": accuracies[0] or 0.0,
        }
    else:
        metrics = span_mod.layer_metrics(tracer.spans, len(walls[True]))
        metrics.update({
            "run.cpu_s": statistics.median(cpu),
            "run.blas_threads": report["env"]["blas_threads"] or 0,
            "trace.overhead_s": statistics.median(walls[True]) - statistics.median(walls[False]),
            "error_rate": ops.failed / ops.attempted,
        })
        report["absent_targets"] = tracer.absent()
        report["info_errors"] = tracer.info_errors
        extrapolate = getattr(workload, "extrapolate", None)
        if extrapolate is not None:
            report["extrapolated_paper_job"] = extrapolate(
                tracer.spans, metrics, statistics.median(walls[True]), len(walls[True])
            )
    report["error_rate"] = ops.failed / ops.attempted
    declared = declared_metrics("per_layer" if tracer else "end_to_end")
    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}")
    result = {
        "correct": bool(correct),
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in declared.items()},
    }
    spans = {}
    if tracer:
        spans = {
            "totals": [[phase, name, *t] for (phase, name), t in sorted(tracer.totals.items())],
            "fields": span_mod.SPAN_FIELDS,
            "body": span_mod.span_records(tracer.spans),
        }
    return report, result, spans


def declared_metrics(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("fold_job", "test_committee", "svm_fit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    nproc = limit_blas_threads()
    try:
        cli = import_package()
    except ImportError as exc:
        print(f"error: cannot import the package to benchmark: {exc}", file=sys.stderr)
        return 2
    report, result, spans = run(args, cli, nproc)
    out_dir = os.path.join(ROOT, "perfbench", "_out")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"report": report, "result": result, "spans": spans}, fh)
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
