"""Spans around the package's public functions, installed from outside.

:class:`Tracer` replaces every public function of the traced modules with a
wrapper under each name a caller looks it up by (``cdfnet.pipeline.kmeans``
and ``cdfnet.kmeans.kmeans`` are one target). A wrapper records a span: name,
start, end, parent span, phase (``setup`` or ``body``) and a few facts read
from the arguments and the result. Body spans stay in memory until the run
ends; set-up spans, hundreds of thousands when set-up trains networks, are
folded into per-name totals as they end.

:func:`layer_metrics` turns the body spans into the per-layer metrics named
in ``BENCHMARK.json``. A metric whose target function no longer exists reads
0 and the target is listed by :meth:`Tracer.absent`.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import os
import sys
import time
import types

PACKAGE = "cdfnet"
LAYERS = (
    "stl10", "augment", "patches", "kmeans", "layer",
    "svm", "committee", "model_io", "pipeline", "cli",
)

# Functions the per-layer metrics read; any that disappears is reported.
REQUIRED = (
    "kmeans.kmeans",
    "patches.extract_patches", "patches.normalize_columns",
    "patches.fit_zca", "patches.apply_zca",
    "layer.run_layer", "layer.convolve_valid", "layer.rectify_abs",
    "layer.rectify_on_off", "layer.lcn_subtractive", "layer.lcn_divisive",
    "layer.pool",
    "augment.expand_set",
    "svm.train_ova_svm", "svm.score_many",
    "pipeline.train_network", "pipeline.extract_descriptors",
    "stl10.load_stl10", "model_io.read_container", "model_io.write_container",
    "committee.normalize_table", "committee.write_score_file",
    "committee.read_score_file", "committee.committee_predict",
)


class Span:
    __slots__ = ("name", "parent", "start", "end", "phase", "info", "child_s")

    def __init__(self, name, parent, start, phase):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.phase = phase
        self.info = None
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus the time its direct child spans cover."""
        return self.duration - self.child_s


def _kmeans_info(bound, result):
    dim, n = bound.arguments["patches"].data.shape
    k = bound.arguments["k"]
    return {
        "layer": 1 if bound.arguments["patches"].depth == 1 else 2,
        "n": n, "k": k, "dim": dim,
        "n_iters": result.n_iters, "converged": bool(result.converged),
    }


def _conv_info(bound, result):
    fmset, bank = bound.arguments["fmset"], bound.arguments["bank"]
    p = bank.patch_side
    positions = (fmset.height - p + 1) * (fmset.width - p + 1)
    d, k = bank.dim, bank.k
    flop = 2.0 * positions * d * k
    if bound.arguments.get("dense_preprocess") and bank.whitening is not None:
        flop += 2.0 * positions * d * d
    return {"layer": bank.layer_index, "flop": flop}


def _run_layer_info(bound, result):
    fmset, bank = bound.arguments["fmset"], bound.arguments["bank"]
    info = {"layer": bank.layer_index}
    if bank.layer_index == 1:
        # fingerprint of (filters, input), to count distinct layer-1 work items
        h = hashlib.blake2b(bank.filters.tobytes(), digest_size=16)
        h.update(fmset.maps.tobytes())
        info["input"] = h.hexdigest()
    return info


def _train_svm_info(bound, result):
    descs = bound.arguments["descriptors"]
    shape = getattr(descs, "shape", None)
    if shape is not None:
        return {"n": int(shape[0]), "dim": int(shape[1])}
    return {"n": len(descs), "dim": int(descs[0].dim)}


def _container_info(bound, result):
    return {"bytes": os.path.getsize(bound.arguments["path"])}


INFO = {
    "kmeans.kmeans": _kmeans_info,
    "layer.convolve_valid": _conv_info,
    "layer.run_layer": _run_layer_info,
    "patches.extract_patches": lambda b, r: {"n": int(b.arguments["n_patches"])},
    "pipeline.extract_descriptors": lambda b, r: {"images": len(b.arguments["images"])},
    "svm.train_ova_svm": _train_svm_info,
    "model_io.read_container": _container_info,
    "model_io.write_container": _container_info,
}


class Tracer:
    """Wraps public functions of the cdfnet modules; collects spans."""

    def __init__(self):
        self.spans: list[Span] = []  # body spans, in the order they ended
        self.totals: dict[tuple[str, str], list] = {}  # (phase, name) -> [calls, s, self_s]
        self.phase = "setup"
        self.info_errors: dict[str, str] = {}
        self._stack: list[Span] = []
        self._patched: list[tuple[types.ModuleType, str, object]] = []
        self._targets: set[str] = set()

    def _wrap(self, name, fn):
        info_fn = INFO.get(name)
        sig = inspect.signature(fn) if info_fn else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span = Span(name, parent, time.perf_counter(), tracer.phase)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
                tracer._record(span)
            if info_fn is not None:
                try:
                    span.info = info_fn(sig.bind(*args, **kwargs), result)
                except Exception as exc:  # the traced API moved; keep running
                    tracer.info_errors[name] = f"{type(exc).__name__}: {exc}"
            return result

        return wrapper

    def _record(self, span: Span) -> None:
        total = self.totals.setdefault((span.phase, span.name), [0, 0.0, 0.0])
        total[0] += 1
        total[1] += span.duration
        total[2] += span.self_s
        if span.phase == "body":
            self.spans.append(span)

    def install(self) -> None:
        """Wrap each public function of LAYERS under every module name bound to it."""
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"{PACKAGE}.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                ):
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = (obj, self._wrap(name, obj))
                    self._targets.add(name)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def absent(self) -> list[str]:
        return [name for name in REQUIRED if name not in self._targets]


def layer_metrics(spans: list[Span], reps: int) -> dict[str, float]:
    """Per-layer metrics from body spans, per timed-body repetition."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(*names):
        return sum(s.duration for n in names for s in by_name.get(n, ()))

    def calls(*names):
        return sum(len(by_name.get(n, ())) for n in names)

    def infos(name):
        return [s.info for s in by_name.get(name, ()) if s.info is not None]

    km = infos("kmeans.kmeans")
    runs = by_name.get("layer.run_layer", [])
    l1 = [s for s in runs if s.info and s.info["layer"] == 1]
    l2 = [s for s in runs if s.info and s.info["layer"] == 2]
    l1_s = sum(s.duration for s in l1)
    l2_s = sum(s.duration for s in l2)
    l1_inputs = {s.info["input"] for s in l1}
    l2_images = sum(i["images"] for i in infos("pipeline.extract_descriptors"))
    conv = infos("layer.convolve_valid")
    svm_fit = infos("svm.train_ova_svm")

    m = {
        "kmeans.kmeans.s": total("kmeans.kmeans"),
        "kmeans.kmeans.calls": calls("kmeans.kmeans"),
        "kmeans.iters": sum(i["n_iters"] for i in km),
        "kmeans.converged": sum(1 for i in km if i["converged"]),
        "kmeans.assign_gflop": sum(2.0 * i["n"] * i["k"] * i["dim"] * i["n_iters"] for i in km) / 1e9,
        "patches.extract_patches.s": total("patches.extract_patches"),
        "patches.normalize_columns.s": total("patches.normalize_columns"),
        "patches.fit_zca.s": total("patches.fit_zca"),
        "patches.apply_zca.s": total("patches.apply_zca"),
        "patches.sampled": sum(i["n"] for i in infos("patches.extract_patches")),
        "layer.l1.s": l1_s,
        "layer.l1.calls": len(l1),
        "layer.l1.gflop": sum(i["flop"] for i in conv if i["layer"] == 1) / 1e9,
        "layer.l2.s": l2_s,
        "layer.l2.calls": len(l2),
        "layer.l2.gflop": sum(i["flop"] for i in conv if i["layer"] == 2) / 1e9,
        "layer.convolve_valid.s": total("layer.convolve_valid"),
        "layer.rectify.s": total("layer.rectify_abs", "layer.rectify_on_off"),
        "layer.lcn.s": total("layer.lcn_subtractive", "layer.lcn_divisive"),
        "layer.pool.s": total("layer.pool"),
        "augment.expand_set.s": total("augment.expand_set"),
        "augment.expand_set.calls": calls("augment.expand_set"),
        "svm.train_ova_svm.s": total("svm.train_ova_svm"),
        "svm.score_many.s": total("svm.score_many"),
        "pipeline.train_network.self_s": sum(s.self_s for s in by_name.get("pipeline.train_network", ())),
        "pipeline.extract_descriptors.self_s": sum(
            s.self_s for s in by_name.get("pipeline.extract_descriptors", ())
        ),
        "stl10.load_stl10.s": total("stl10.load_stl10"),
        "model_io.read_container.s": total("model_io.read_container"),
        "model_io.write_container.s": total("model_io.write_container"),
        "model_io.bytes": sum(
            i["bytes"] for n in ("model_io.read_container", "model_io.write_container") for i in infos(n)
        ),
        "committee.normalize_table.s": total("committee.normalize_table"),
        "committee.write_score_file.s": total("committee.write_score_file"),
        "committee.read_score_file.s": total("committee.read_score_file"),
        "committee.committee_predict.s": total("committee.committee_predict"),
    }
    # every repetition runs the same work, so report one repetition's worth
    m = {k: v / reps for k, v in m.items()}
    m.update({
        "layer.l1.ms_per_image": 1e3 * l1_s / len(l1) if l1 else 0.0,
        "layer.l1.calls_per_image": len(l1) / reps / len(l1_inputs) if l1_inputs else 0.0,
        "layer.l2.ms_per_image": 1e3 * l2_s / l2_images if l2_images else 0.0,
        "svm.train.n": max((i["n"] for i in svm_fit), default=0),
        "svm.train.dim": max((i["dim"] for i in svm_fit), default=0),
    })
    return m


SPAN_FIELDS = ("name", "parent", "start", "end", "self_s", "info")


def span_records(spans: list[Span]) -> list[list]:
    """Spans as SPAN_FIELDS rows, the parent given by its row index."""
    index = {id(s): i for i, s in enumerate(spans)}
    return [
        [s.name, index.get(id(s.parent)), s.start, s.end, s.self_s, s.info]
        for s in spans
    ]
