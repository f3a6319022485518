"""Exception types shared across the package, and :func:`naming`, the one
place a refused input file is named."""

import configparser
from contextlib import contextmanager


class CdfnetError(Exception):
    """Base class for all package-specific errors."""


class FormatError(CdfnetError):
    """A file does not conform to its declared binary or text layout."""


class DimError(CdfnetError):
    """Array dimensions are inconsistent with the operation's contract."""


class NonFiniteValue(CdfnetError):
    """A NaN or infinity was found where only finite values are allowed.

    Carries ``coord``, the first offending index tuple, when known.
    """

    def __init__(self, message, coord=None):
        super().__init__(message)
        self.coord = coord


class InvalidPatchSize(CdfnetError):
    """Requested patch does not fit inside the source feature maps."""


class InvalidK(CdfnetError):
    """Cluster count is incompatible with the number of data points."""


class InvalidWindow(CdfnetError):
    """A normalization or pooling window is even, too large, or degenerate."""


class InvalidGrouping(CdfnetError):
    """Group size does not evenly partition the feature maps."""


class DegenerateLabels(CdfnetError):
    """Classifier training requires at least two distinct classes."""


class AlignmentError(CdfnetError):
    """Score tables do not cover the same images in the same order."""


class ContractError(CdfnetError):
    """An input violates a documented precondition (e.g. unnormalized scores)."""


@contextmanager
def naming(path):
    """Turn a refusal of the contents of the file at path into one
    FormatError whose message starts with ``<path>: ``.

    A KeyError, CdfnetError, ValueError (UnicodeDecodeError among them) or
    INI syntax error raised in the block is the file's fault. Other errors,
    such as an OSError that already names the file, pass unchanged.
    """
    try:
        yield
    except KeyError as exc:
        raise FormatError(f"{path}: missing {exc}") from exc
    except (CdfnetError, ValueError, configparser.Error) as exc:
        raise FormatError(f"{path}: {exc}") from exc
