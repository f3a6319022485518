"""Score rescaling, summation across networks, and the committee decision.

Each network contributes one [0,1]-rescaled score vector per test image;
the committee adds them up and takes the argmax. Rescaling is per image
across its class scores, so every network contributes exactly one unit of
dynamic range per image.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, ContractError, FormatError, naming
from .model_io import atomic_open

SCORE_MAGIC = "scores"
SCORE_VERSION = "v1"


def _check_network_id(value: str, what: str) -> None:
    """Refuse a name that whitespace-split ASCII files, or a file name, cannot carry."""
    seps = {"/", os.sep, os.altsep}
    if not value or not value.isascii() or any(ch.isspace() or ch in seps for ch in value):
        raise ValueError(
            f"{what} must be non-empty ASCII without whitespace or path separators: {value!r}"
        )


@dataclass(frozen=True)
class ScoreTable:
    """Per-test-image score vectors produced by one network, each in [0, 1]."""

    network_id: str
    image_ids: tuple[int, ...]
    scores: np.ndarray  # (n_images, n_classes)

    def __post_init__(self):
        _check_network_id(self.network_id, "network_id")
        scores = np.asarray(self.scores, dtype=np.float64)
        image_ids = tuple(int(i) for i in self.image_ids)
        if scores.ndim != 2 or scores.shape[0] != len(image_ids):
            raise ValueError(
                f"scores shape {scores.shape} inconsistent with {len(image_ids)} image ids"
            )
        # written so that NaN fails it too
        if not np.all((scores >= 0.0) & (scores <= 1.0)):
            raise ContractError(f"table {self.network_id!r} has scores outside [0, 1]")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "image_ids", image_ids)

    @property
    def n_classes(self) -> int:
        return self.scores.shape[1]


def normalize_table(network_id: str, image_ids, raw: np.ndarray) -> ScoreTable:
    """Build a ScoreTable from an (n_images, n_classes) raw score matrix.

    Each image's row is mapped onto [0, 1] independently. A constant row
    maps to zeros, so an uninformative network abstains rather than voting
    for every class at once.
    """
    raw = np.asarray(raw, dtype=np.float64)
    lo = raw.min(axis=-1, keepdims=True)
    span = raw.max(axis=-1, keepdims=True) - lo
    # raw - lo is exactly 0 wherever span is 0, so dividing by 1 there gives zeros
    scores = (raw - lo) / np.where(span == 0.0, 1.0, span)
    return ScoreTable(network_id, tuple(image_ids), scores)


def _check_aligned(tables: list[ScoreTable]) -> None:
    if not tables:
        raise AlignmentError("need at least one score table")
    base = tables[0]
    for t in tables[1:]:
        if t.image_ids != base.image_ids:
            raise AlignmentError(
                f"tables {base.network_id!r} and {t.network_id!r} cover different images"
            )
        if t.n_classes != base.n_classes:
            raise AlignmentError(
                f"tables {base.network_id!r} and {t.network_id!r} disagree on class count"
            )


def committee_predict(tables: list[ScoreTable]) -> list[int]:
    """Per-image argmax of the summed scores; ties go to the lowest index."""
    _check_aligned(tables)
    total = np.zeros_like(tables[0].scores)
    for t in tables:
        total += t.scores
    return [int(i) for i in np.argmax(total, axis=1)]


def table_predict(table: ScoreTable) -> list[int]:
    return [int(i) for i in np.argmax(table.scores, axis=1)]


def accuracy(predictions, labels) -> float:
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise AlignmentError(
            f"{predictions.size} predictions but {labels.size} labels"
        )
    if not predictions.size:
        raise ValueError("accuracy of no predictions")
    return float(np.mean(predictions == labels))


def write_score_file(path, table: ScoreTable) -> None:
    """Text format: `scores v1 <network_id> <C>` then one line per image.

    Floats are written with repr, which round-trips bit-exactly. A write
    that fails leaves any previous file at path as it was.
    """
    with atomic_open(path) as fh:
        fh.write(f"{SCORE_MAGIC} {SCORE_VERSION} {table.network_id} {table.n_classes}\n")
        for i, image_id in enumerate(table.image_ids):
            row = " ".join(repr(float(v)) for v in table.scores[i])
            fh.write(f"{image_id} {row}\n")


def read_score_file(path) -> ScoreTable:
    with open(path, "r", encoding="ascii") as fh, naming(path):
        header = fh.readline().split()
        if len(header) != 4 or header[0] != SCORE_MAGIC:
            raise FormatError("bad score-file header")
        if header[1] != SCORE_VERSION:
            raise FormatError(f"unsupported score-file version {header[1]!r}")
        n_classes = int(header[3])
        if n_classes < 1:
            raise FormatError("bad class count in header")
        image_ids = []
        rows = []
        for lineno, line in enumerate(fh, start=2):
            tokens = line.split()
            if len(tokens) != n_classes + 1:
                raise FormatError(
                    f"line {lineno}: expected {n_classes + 1} tokens, got {len(tokens)}"
                )
            image_ids.append(int(tokens[0]))
            rows.append([float(t) for t in tokens[1:]])
        if not rows:
            raise FormatError("score file has no rows")
        return ScoreTable(header[2], tuple(image_ids), np.array(rows, dtype=np.float64))
