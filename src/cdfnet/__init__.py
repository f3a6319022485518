"""Committees of two-layer convolutional feature networks learned with k-means.

The pipeline: sample patches from whitened images, cluster them into filter
dictionaries, convolve + rectify + contrast-normalize + pool (twice, with a
random grouping between the layers), classify the flattened feature maps with
one-vs-all linear SVMs, and fuse several such networks by summing rescaled
score vectors.

The top level exports the documented API (README "Library use") and the
types and errors it takes, returns or raises. Stage-level functions (layer,
patches, kmeans, tensor, augment) are imported from their submodules.
"""

from .augment import AugmentPlan, expand_set
from .committee import (
    ScoreTable,
    accuracy,
    committee_predict,
    normalize_table,
    read_score_file,
    table_predict,
    write_score_file,
)
from .config import (
    ExperimentConfig,
    Layer1Config,
    Layer2Config,
    NetworkConfig,
    load_experiment_config,
    load_network_config,
    save_network_config,
)
from .errors import (
    AlignmentError,
    CdfnetError,
    ContractError,
    DegenerateLabels,
    DimError,
    FormatError,
    InvalidGrouping,
    InvalidK,
    InvalidPatchSize,
    InvalidWindow,
    NonFiniteValue,
)
from .pipeline import (
    ExperimentReport,
    NetworkModel,
    descriptor_shape,
    evaluate_protocol,
    extract_descriptors,
    load_model,
    load_svm,
    save_model,
    save_svm,
    train_and_score,
    train_network,
)
from .stl10 import FoldPlan, LabeledImage, load_fold_plan, load_stl10
from .svm import SvmModel, cross_validate_c, score_many, train_ova_svm

__version__ = "0.1.0"

__all__ = [
    "AlignmentError",
    "AugmentPlan",
    "CdfnetError",
    "ContractError",
    "DegenerateLabels",
    "DimError",
    "ExperimentConfig",
    "ExperimentReport",
    "FoldPlan",
    "FormatError",
    "InvalidGrouping",
    "InvalidK",
    "InvalidPatchSize",
    "InvalidWindow",
    "LabeledImage",
    "Layer1Config",
    "Layer2Config",
    "NetworkConfig",
    "NetworkModel",
    "NonFiniteValue",
    "ScoreTable",
    "SvmModel",
    "accuracy",
    "committee_predict",
    "cross_validate_c",
    "descriptor_shape",
    "evaluate_protocol",
    "expand_set",
    "extract_descriptors",
    "load_experiment_config",
    "load_fold_plan",
    "load_model",
    "load_network_config",
    "load_stl10",
    "load_svm",
    "normalize_table",
    "read_score_file",
    "save_model",
    "save_network_config",
    "save_svm",
    "score_many",
    "table_predict",
    "train_and_score",
    "train_network",
    "train_ova_svm",
    "write_score_file",
]
