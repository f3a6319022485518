"""The three workloads: set-up, timed body and output checks.

Every operation is one ``cdfnet.cli.main`` subcommand, called in-process the
way README.md documents it. Checks read the outputs back with this file's own
parsers, never with package functions, so they add no spans to a traced body.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import os
import traceback
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from perfbench import data

# What one (fold, network) job of the paper works on.
PAPER = {"fold_images": 1000, "test_images": 8000}
N_CLASSES = 10
ACCURACY_FLOOR = 0.4  # four times 10-class chance


class Op:
    """One CLI subcommand call and whether it and its output checks passed."""

    def __init__(self, argv):
        self.argv = argv
        self.out = ""
        self.ok = True


class Ops:
    """Runs CLI calls and counts attempted and failed operations."""

    def __init__(self, cli):
        self.cli_module = cli
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def cli(self, argv: list[str]) -> Op:
        op = Op(argv)
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    rc = self.cli_module.main(argv)
                except SystemExit as exc:  # argparse rejected the arguments
                    rc = exc.code
        except Exception:  # a crash is a failed operation, not a crashed run
            self.fail(op, traceback.format_exc(limit=-3))
            return op
        op.out = out.getvalue()
        if rc != 0:
            self.fail(op, f"exit {rc}: {err.getvalue().strip()}")
        return op

    def fail(self, op: Op, why: str) -> None:
        self.errors.append(f"{op.argv[0]}: {why}")
        if op.ok:
            op.ok = False
            self.failed += 1

    def check(self, op: Op, ok: bool, why: str) -> bool:
        if not ok:
            self.fail(op, why)
        return ok


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def read_scores(path: str):
    """(network id, image ids, scores) from a score file, parsed independently."""
    with open(path, encoding="ascii") as fh:
        header = fh.readline().split()
        rows = [line.split() for line in fh if line.strip()]
    if len(header) != 4 or header[:2] != ["scores", "v1"]:
        raise ValueError(f"{path}: bad header {header}")
    ids = np.array([int(r[0]) for r in rows])
    scores = np.array([[float(v) for v in r[1:]] for r in rows])
    return header[2], ids, scores


def printed_value(out: str, prefix: str) -> float | None:
    """The number after ``prefix`` on the first stdout line that starts with it."""
    for line in out.splitlines():
        if line.startswith(prefix):
            return float(line[len(prefix):].split()[0])
    return None


def check_table(ops: Ops, op: Op, path: str, labels: np.ndarray):
    """One finite row per test image with entries in [0, 1]; returns the scores."""
    try:
        _, ids, scores = read_scores(path)
    except (OSError, ValueError) as exc:
        ops.fail(op, f"unreadable score file: {exc}")
        return None
    ok = ops.check(op, scores.shape == (labels.size, N_CLASSES), f"{path}: shape {scores.shape}")
    ok = ok and ops.check(op, np.array_equal(ids, np.arange(labels.size)), f"{path}: image ids")
    ok = ok and ops.check(op, bool(np.all(np.isfinite(scores))), f"{path}: non-finite score")
    ok = ok and ops.check(
        op, bool(scores.min() >= 0.0 and scores.max() <= 1.0), f"{path}: score outside [0, 1]"
    )
    return scores if ok else None


def check_accuracy(ops: Ops, op: Op, printed, predictions, labels) -> float | None:
    """The printed accuracy must equal the one recomputed here and clear the floor."""
    acc = float(np.mean(np.asarray(predictions) == labels))
    ok = ops.check(op, printed is not None and printed == acc, f"printed accuracy {printed} != {acc}")
    ok = ok and ops.check(op, acc >= ACCURACY_FLOOR, f"accuracy {acc} below {ACCURACY_FLOOR}")
    return acc if ok else None


def scaled_config(root: str, name: str, patch_scale: float, out_dir: str) -> str:
    """Copy of configs/<name>.ini with only the patch counts scaled."""
    cp = configparser.ConfigParser()
    with open(os.path.join(root, "configs", f"{name}.ini"), encoding="utf-8") as fh:
        cp.read_file(fh)
    for section in ("layer1", "layer2"):
        cp[section]["patches"] = str(max(1, round(int(cp[section]["patches"]) * patch_scale)))
    path = os.path.join(out_dir, f"{name}.ini")
    with open(path, "w", encoding="utf-8") as fh:
        cp.write(fh)
    return path


class Workload:
    """Sizes shared by the workloads; subclasses add set-up, body and checks."""

    name = ""
    fold_images = 10
    test_images = 20
    patch_scale = 1 / 200  # of the shipped configs' patch counts, both layers
    setup_reps = 3  # set-up runs per benchmark run; setup_s is their median
    noise_sd = data.NOISE_SD

    def __init__(self, root: str):
        self.root = root

    def scale_factors(self) -> dict:
        return {
            "fold_images": self.fold_images / PAPER["fold_images"],
            "test_images": self.test_images / PAPER["test_images"],
            "patches": self.patch_scale,
            "pixel_noise_sd": self.noise_sd,
            "network": "shipped configs unchanged apart from patch counts",
        }

    def _dataset(self, wdir: str, seed: int) -> dict:
        ds = data.write_dataset(wdir, seed, self.fold_images, self.test_images, self.noise_sd)
        ds["loader_error"] = data.check_loader(ds)
        return ds

    def setup(self, ops: Ops, wdir: str, seed: int) -> dict:
        raise NotImplementedError

    def body(self, ops: Ops, state: dict, out: str) -> dict:
        raise NotImplementedError

    def verify(self, ops: Ops, state: dict, result: dict) -> tuple[float | None, dict]:
        """Check a body's outputs; returns (accuracy, sha256 per output file)."""
        raise NotImplementedError


class FoldJob(Workload):
    """``cdfnet evaluate`` on one network (n1) and one fold."""

    name = "fold_job"

    def setup(self, ops, wdir, seed):
        ds = self._dataset(wdir, seed)
        scaled_config(self.root, "n1", self.patch_scale, wdir)
        exp = os.path.join(wdir, "fold_job.ini")
        with open(exp, "w", encoding="ascii") as fh:
            fh.write("[experiment]\nname = fold_job\nnetworks = n1.ini\nfolds = 0\n")
        return {"ds": ds, "exp": exp, "artifacts": list(ds["paths"].values())}

    def body(self, ops, state, out):
        p = state["ds"]["paths"]
        op = ops.cli([
            "evaluate", "--config", state["exp"],
            "--train-x", p["train_x"], "--train-y", p["train_y"],
            "--test-x", p["test_x"], "--test-y", p["test_y"],
            "--folds", p["folds"], "--out", out,
        ])
        return {"op": op, "out": out}

    def verify(self, ops, state, result):
        op, out = result["op"], result["out"]
        if not op.ok:
            return None, {}
        labels = state["ds"]["labels"]["test"]
        files = [os.path.join(out, f) for f in ("scores_fold0_n1.txt", "report.txt", "report.csv")]
        if not ops.check(op, all(os.path.exists(f) for f in files), "evaluate outputs missing"):
            return None, {}
        scores = check_table(ops, op, files[0], labels)
        if scores is None:
            return None, {}
        acc = check_accuracy(ops, op, printed_value(op.out, "n1 mean "), scores.argmax(axis=1), labels)
        return acc, {os.path.basename(f): sha256(f) for f in files}

    def extrapolate(self, spans, layer: dict, wall: float, reps: int) -> dict:
        """Extrapolated cost of one paper-scale (fold, network) job on this machine.

        Filter learning (patch sampling, normalization, ZCA, k-means outside
        any forward pass) scales with the patch count, assuming the same
        number of k-means iterations. Layer-1 calls scale as the passes over
        the augmented fold seen here (passes = (l1 calls - T) / (A F)) plus
        one per test image; layer-2 images as A F + T; the SVM linearly in
        its sample count (a lower bound: its epoch count grows too); the
        rest of the body with the image count.
        """
        learning = {"kmeans.kmeans", "patches.extract_patches", "patches.normalize_columns",
                    "patches.fit_zca", "patches.apply_zca"}

        def top_level(span):
            parent = span.parent
            while parent is not None:
                if parent.name in learning or parent.name == "layer.convolve_valid":
                    return False
                parent = parent.parent
            return True

        learn_s = sum(
            s.duration for s in spans if s.name in learning and top_level(s)
        ) / reps
        from cdfnet import load_network_config

        aug = load_network_config(os.path.join(self.root, "configs", "n1.ini")).augment
        a = 1 + int(aug.mirror) + len(aug.rotations_deg)
        f, t = self.fold_images, self.test_images
        pf, pt = PAPER["fold_images"], PAPER["test_images"]
        passes = (layer["layer.l1.calls"] - t) / (a * f)
        l1_s, l2_s, svm_s = layer["layer.l1.s"], layer["layer.l2.s"], layer["svm.train_ova_svm.s"]
        rest_s = wall - learn_s - l1_s - l2_s - svm_s
        terms = {
            "filter_learning": learn_s / self.patch_scale,
            "layer1": layer["layer.l1.ms_per_image"] / 1e3 * (passes * a * pf + pt),
            "layer2": layer["layer.l2.ms_per_image"] / 1e3 * (a * pf + pt),
            "svm": svm_s * pf / f,
            "rest": rest_s * (a * pf + pt) / (a * f + t),
        }
        total = sum(terms.values())
        return {
            "label": "extrapolated from the traced fold_job bodies, not measured",
            "seconds": total,
            "hours": total / 3600.0,
            "terms_s": terms,
            "inputs": {"A": a, "F": f, "T": t, "paper_F": pf, "paper_T": pt,
                       "patch_scale": self.patch_scale, "l1_passes": passes,
                       "learn_s": learn_s, "rest_s": rest_s, "body_s": wall},
            "formula": "learn_s/patch_scale + l1_ms*(passes*A*paper_F + paper_T) "
                       "+ l2_ms*(A*paper_F + paper_T) + svm_s*paper_F/F "
                       "+ rest_s*(A*paper_F + paper_T)/(A*F + T)",
        }


class TestCommittee(Workload):
    """Extract and score the test set with five trained members, then fuse."""

    name = "test_committee"
    members = ("n1", "n2", "n3", "n4", "n5")
    patch_scale = 1 / 1000
    # one set-up trains five members (15-25 s on 2 cores); repeating it would
    # double the length of a run
    setup_reps = 1

    def setup(self, ops, wdir, seed):
        ds = self._dataset(wdir, seed)
        p = ds["paths"]
        artifacts = list(p.values())
        for m in self.members:
            cfg = scaled_config(self.root, m, self.patch_scale, wdir)
            model, desc, svm = (os.path.join(wdir, f"{m}.{ext}") for ext in ("model", "desc", "svm"))
            ops.cli(["train", "--config", cfg, "--train-x", p["train_x"], "--train-y", p["train_y"],
                     "--folds", p["folds"], "--fold", "0", "--out", model])
            # the classifier sees the fold without augmentation, to keep set-up short
            ops.cli(["extract", "--model", model, "--images", p["train_x"], "--labels", p["train_y"],
                     "--folds", p["folds"], "--fold", "0", "--out", desc])
            ops.cli(["svm", "--descriptors", desc, "--out", svm])
            artifacts += [model, desc, svm]
        return {"ds": ds, "wdir": wdir, "artifacts": artifacts}

    def body(self, ops, state, out):
        p = state["ds"]["paths"]
        os.makedirs(out)
        ops_by_member = {}
        for m in self.members:
            desc = os.path.join(out, f"{m}_test.desc")
            extract = ops.cli(["extract", "--model", os.path.join(state["wdir"], f"{m}.model"),
                               "--images", p["test_x"], "--labels", p["test_y"], "--out", desc])
            score = ops.cli(["score", "--svm", os.path.join(state["wdir"], f"{m}.svm"),
                             "--descriptors", desc, "--network-id", m,
                             "--out", os.path.join(out, f"scores_{m}.txt")])
            ops_by_member[m] = (extract, score)
        committee = ops.cli(["committee", *(os.path.join(out, f"scores_{m}.txt") for m in self.members),
                             "--labels", p["test_y"], "--out", os.path.join(out, "predictions.txt")])
        return {"members": ops_by_member, "committee": committee, "out": out}

    def verify(self, ops, state, result):
        labels = state["ds"]["labels"]["test"]
        out = result["out"]
        total = np.zeros((labels.size, N_CLASSES))
        digests = {}
        ok = True
        for m, (extract, score) in result["members"].items():
            path = os.path.join(out, f"scores_{m}.txt")
            if not (extract.ok and score.ok):
                ok = False
                continue
            scores = check_table(ops, score, path, labels)
            if scores is None:
                ok = False
                continue
            printed = printed_value(score.out, "accuracy ")
            member_acc = float(np.mean(scores.argmax(axis=1) == labels))
            ok &= ops.check(score, printed == member_acc, f"{m}: printed accuracy {printed} != {member_acc}")
            total += scores
            digests[os.path.basename(path)] = sha256(path)
        committee = result["committee"]
        if not (ok and committee.ok):
            return None, digests
        pred_path = os.path.join(out, "predictions.txt")
        with open(pred_path, encoding="ascii") as fh:
            written = [tuple(int(t) for t in line.split()) for line in fh if line.strip()]
        predictions = total.argmax(axis=1)
        expected = [(i, int(c)) for i, c in enumerate(predictions)]
        if not ops.check(committee, written == expected, "predictions differ from the summed tables"):
            return None, digests
        digests["predictions.txt"] = sha256(pred_path)
        acc = check_accuracy(ops, committee, printed_value(committee.out, "committee accuracy "),
                             predictions, labels)
        return acc, digests


class SvmFit(Workload):
    """``cdfnet svm`` on n4 descriptors of augmented folds, then ``cdfnet score``.

    Dual coordinate descent needs a number of epochs that depends on the
    descriptors, so one classifier's time varies by some 15 % from seed to
    seed. The body therefore fits one classifier per fold, each on the
    descriptors of its own fold's n4 model, and the variation averages out.
    """

    name = "svm_fit"
    fold_images = 50
    test_images = 30
    folds = 4
    # noisier pixels give descriptor sets whose epoch counts vary less
    noise_sd = 0.6
    # one set-up trains and extracts four n4 models (15-20 s on 2 cores)
    setup_reps = 1

    def scale_factors(self):
        f = super().scale_factors()
        f["svm_samples"] = self.fold_images / PAPER["fold_images"]
        f["svm_folds"] = self.folds
        return f

    def _files(self, wdir: str, fold: int):
        return tuple(os.path.join(wdir, f"fold{fold}.{ext}") for ext in ("model", "train.desc", "test.desc"))

    def setup(self, ops, wdir, seed):
        ds = self._dataset(wdir, seed)
        p = ds["paths"]
        cfg = scaled_config(self.root, "n4", self.patch_scale, wdir)
        artifacts = list(p.values())
        for fold in range(self.folds):
            model, train_desc, test_desc = self._files(wdir, fold)
            ops.cli(["train", "--config", cfg, "--train-x", p["train_x"], "--train-y", p["train_y"],
                     "--folds", p["folds"], "--fold", str(fold), "--out", model])
            ops.cli(["extract", "--model", model, "--images", p["train_x"], "--labels", p["train_y"],
                     "--folds", p["folds"], "--fold", str(fold), "--augment", "--out", train_desc])
            ops.cli(["extract", "--model", model, "--images", p["test_x"], "--labels", p["test_y"],
                     "--out", test_desc])
            artifacts += [model, train_desc, test_desc]
        return {"ds": ds, "wdir": wdir, "artifacts": artifacts}

    def body(self, ops, state, out):
        os.makedirs(out)
        runs = []
        for fold in range(self.folds):
            _, train_desc, test_desc = self._files(state["wdir"], fold)
            svm, scores = (os.path.join(out, f"fold{fold}.{ext}") for ext in ("svm", "scores.txt"))
            fit = ops.cli(["svm", "--descriptors", train_desc, "--out", svm])
            score = ops.cli(["score", "--svm", svm, "--descriptors", test_desc,
                             "--network-id", "n4", "--out", scores])
            runs.append((fit, score, svm, scores))
        return {"runs": runs}

    def verify(self, ops, state, result):
        """Mean held-out accuracy over the folds; each fold must pass its checks."""
        labels = state["ds"]["labels"]["test"]
        accuracies, digests = [], {}
        for fit, score, svm, scores in result["runs"]:
            if not (fit.ok and score.ok):
                return None, digests
            table = check_table(ops, score, scores, labels)
            if table is None:
                return None, digests
            acc = check_accuracy(ops, score, printed_value(score.out, "accuracy "),
                                 table.argmax(axis=1), labels)
            if acc is None:
                return None, digests
            accuracies.append(acc)
            digests.update({os.path.basename(f): sha256(f) for f in (svm, scores)})
        return float(np.mean(accuracies)), digests


WORKLOADS = {w.name: w for w in (FoldJob, TestCommittee, SvmFit)}
