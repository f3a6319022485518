"""One-vs-all linear SVM with squared hinge loss, trained by dual
coordinate descent.

The primal objective for each binary problem is

    min_w  0.5 ||w||^2 + (reg_c / n) * sum_i max(0, 1 - y_i w.x_i)^2

The 1/n weighting makes the solution invariant to duplicating the training
set. Features are standardized per dimension for training, which the dual
solver needs for its conditioning; a constant bias feature is appended, so
the bias is regularized like the weights. The trained classifier is folded
back onto raw descriptors, so scoring is one matrix product. Each epoch
visits the rows in a fresh permutation (Hsieh et al., ICML 2008, section
3.1), drawn from a fixed stream per class, so training is deterministic for
a given data order.

The solver works on the (n, n) Gram matrix of the design matrix, formed
once for all classes, so a coordinate step costs O(n) whatever the
descriptor dimension; each class's weights are the combination of the
design matrix's rows that its dual variables give. Every protocol job has
fewer rows than dimensions, so the Gram matrix is the smaller of the two.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLabels, DimError
from .tensor import SeededRng, assert_array_finite

logger = logging.getLogger(__name__)

STD_FLOOR = 1e-8
MAX_EPOCHS = 1000
TOL = 1e-4
DEFAULT_REG_C = 1.0  # C of train_ova_svm and NetworkConfig.svm_reg_c
# class c's solver visits the rows in orders drawn from SeededRng(ROW_ORDER_SEED).child(c)
ROW_ORDER_SEED = 0


@dataclass(frozen=True)
class SvmModel:
    """C binary classifiers on raw descriptors: scores = weights @ x + biases."""

    weights: np.ndarray  # (C, d)
    biases: np.ndarray  # (C,)

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.float64)
        biases = np.asarray(self.biases, dtype=np.float64)
        if weights.ndim != 2 or weights.shape[0] < 2 or weights.shape[1] < 1:
            raise DimError(f"need >= 2 classes and >= 1 feature, got {weights.shape}")
        if biases.shape != weights.shape[:1]:
            raise DimError(f"biases {biases.shape} do not match weights {weights.shape}")
        assert_array_finite(weights, what="SVM weights")
        assert_array_finite(biases, what="SVM biases")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "biases", biases)

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.weights.shape[1]


def _check_reg_c(reg_c, name: str = "reg_c") -> None:
    """The one rule for C, reported under the name the caller knows it by."""
    if not (np.isfinite(reg_c) and reg_c > 0):
        raise ValueError(f"{name} must be finite and > 0, got {reg_c}")


def _dual_cd_l2svm(q: np.ndarray, y: np.ndarray, c_eff: float, rng: SeededRng):
    """Dual coordinate descent for the L2-loss SVM (LIBLINEAR-style), on the
    Gram matrix of the design matrix.

    q is the (n, n) Gram matrix x x^T of the (n, d + 1) design matrix x,
    whose bias feature is already appended, and y is in {-1, +1}. The
    solver never sees x: it keeps u = x w as an n-vector, so a step reads
    u_i for its gradient, and an update adds delta y_i q_i to u, O(n) work
    instead of a dot product and an axpy over d + 1. Row i of q is read as
    its column i, so q must be exactly symmetric. Each epoch visits the
    rows in a fresh permutation drawn from `rng`, for at most MAX_EPOCHS
    epochs, both constants read at call time. Returns (coefficients
    alpha * y, whose product with x is w; dual objective per epoch, with
    w.w = (alpha * y).u; the largest projected gradient of the last
    epoch); training stopped early when that is below TOL. Each coordinate
    step exactly minimizes the dual along one alpha_i subject to
    alpha_i >= 0, so the dual objective never increases.
    """
    n = q.shape[0]
    d_ii = 1.0 / (2.0 * c_eff)
    # per-row Python floats and row views: indexing numpy arrays in the
    # inner loop costs more than a step's scalar arithmetic
    q_ii = (np.diagonal(q) + d_ii).tolist()
    signs = y.tolist()
    rows = list(q)
    alpha = [0.0] * n
    u = np.zeros(n, dtype=np.float64)
    gen = rng.generator()
    objectives = []
    max_pg = np.inf
    for _ in range(MAX_EPOCHS):
        max_pg = 0.0
        for i in gen.permutation(n).tolist():
            a, y_i = alpha[i], signs[i]
            g = y_i * u.item(i) - 1.0 + d_ii * a
            pg = min(g, 0.0) if a == 0.0 else g
            if pg != 0.0:
                max_pg = max(max_pg, abs(pg))
                new_alpha = max(a - g / q_ii[i], 0.0)
                delta = new_alpha - a
                if delta != 0.0:
                    u += (delta * y_i) * rows[i]
                    alpha[i] = new_alpha
        alphas = np.array(alpha)
        coef = alphas * y
        objectives.append(
            0.5 * float(coef @ u) + 0.5 * d_ii * float(alphas @ alphas) - float(alphas.sum())
        )
        if max_pg < TOL:
            break
    return coef, objectives, max_pg


def _as_descriptors(descriptors, dim: int | None = None) -> np.ndarray:
    """Validate an (n_images, dim) descriptor matrix; rows come from outside."""
    values = np.asarray(descriptors, dtype=np.float64)
    if values.ndim != 2:
        raise DimError(f"descriptors must be an (n_images, dim) matrix, got shape {values.shape}")
    if dim is not None and values.shape[1] != dim:
        raise DimError(f"descriptor dim {values.shape[1]} does not match model dim {dim}")
    assert_array_finite(values, what="descriptors")
    return values


def train_ova_svm(
    descriptors: np.ndarray,
    labels,
    reg_c: float = DEFAULT_REG_C,
) -> SvmModel:
    """One binary L2 SVM per class over standardized descriptor features.

    `descriptors` is an (n_images, dim) matrix, one row per label. Class c's
    problem labels its images +1 and all others -1, and its solver visits
    the rows in the order of ``SeededRng(ROW_ORDER_SEED).child(c)`` until
    its largest projected gradient is below ``TOL``, or for ``MAX_EPOCHS``
    epochs with a warning. Deterministic for a given row order.

    All classes share one Gram matrix of the design matrix, n^2 * 8 bytes
    (128 MB at 4000 rows), and their weights come from one (C, n) @
    (n, d + 1) product of the solvers' coefficients with the design matrix.
    """
    _check_reg_c(reg_c)
    values = _as_descriptors(descriptors)
    labels = np.asarray(labels, dtype=np.int64)
    if values.shape[0] != labels.size:
        raise DimError(f"{values.shape[0]} descriptors but {labels.size} labels")
    classes = np.unique(labels)
    if classes.size < 2:
        raise DegenerateLabels(f"need >= 2 classes, got {classes.size}")
    if classes.min() < 0:
        raise DegenerateLabels("labels must be non-negative")
    n_classes = int(classes.max()) + 1

    # one (n, d + 1) design matrix: standardized features, then the bias
    # feature; a feature constant over the rows is all zeros, so weight 0
    n, d = values.shape
    mean = values.mean(axis=0)
    std = np.maximum(values.std(axis=0), STD_FLOOR)
    x = np.empty((n, d + 1))
    np.subtract(values, mean, out=x[:, :d])
    x[:, :d] /= std
    x[:, np.flatnonzero(std == STD_FLOOR)] = 0.0
    x[:, d] = 1.0

    q = x @ x.T
    c_eff = reg_c / n
    coefs = np.zeros((n_classes, n), dtype=np.float64)
    for cls in range(n_classes):
        y = np.where(labels == cls, 1.0, -1.0)
        coefs[cls], _, max_pg = _dual_cd_l2svm(q, y, c_eff, SeededRng(ROW_ORDER_SEED).child(cls))
        if max_pg >= TOL:
            logger.warning(
                "SVM class %d: dual CD ran %d epochs without reaching tol %g"
                " (max projected gradient %.3g)",
                cls, MAX_EPOCHS, TOL, max_pg,
            )
    w = coefs @ x
    # scores raw x as the trained classifier scores (x - mean) / std
    weights = w[:, :d] / std
    biases = w[:, d] - weights @ mean
    return SvmModel(weights=weights, biases=biases)


def score_many(model: SvmModel, descriptors: np.ndarray) -> np.ndarray:
    """Raw scores w_c . x + b_c as an (n_images, n_classes) matrix."""
    return _as_descriptors(descriptors, model.dim) @ model.weights.T + model.biases
