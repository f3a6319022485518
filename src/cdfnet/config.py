"""Network and experiment configuration: dataclasses plus an INI text form.

The same text form is used for standalone config files and for the config
block embedded in saved model containers, so a model file is always
self-describing.
"""

from __future__ import annotations

import configparser
import io
import math
import os
import typing
from dataclasses import dataclass, field, fields, is_dataclass, replace

from .augment import AugmentPlan
from .committee import _check_network_id
from .errors import FormatError, InvalidK, InvalidWindow, naming
from .layer import RECTIFIERS
from .model_io import atomic_open
from .stl10 import NUM_FOLDS
from .svm import DEFAULT_REG_C, _check_reg_c


def _signed_pool_alpha(alpha: float) -> bool:
    """True if Lp pooling with this alpha is defined on signed inputs."""
    return alpha == 1.0 or (alpha >= 2.0 and alpha % 2.0 == 0.0)


def _check_layer(layer, k_field: str) -> None:
    """Checks on the fields both layer records share; k_field names the filter count."""
    k = getattr(layer, k_field)
    if k < 1:
        raise InvalidK(f"{k_field} must be >= 1, got {k}")
    if layer.patches < k:
        raise InvalidK(f"patches {layer.patches} is below {k_field} = {k}")
    if layer.patch_side < 1:
        raise ValueError(f"patch_side must be >= 1, got {layer.patch_side}")
    if not (math.isfinite(layer.zca_epsilon) and layer.zca_epsilon > 0):
        raise ValueError(f"zca_epsilon must be finite and > 0, got {layer.zca_epsilon}")
    if layer.pool_side < 1 or layer.pool_stride < 1:
        raise ValueError("pool_side and pool_stride must be >= 1")
    if not _signed_pool_alpha(layer.pool_alpha):
        raise ValueError(
            f"pool_alpha must be 1 or an even integer, got {layer.pool_alpha}: "
            "pooling runs after LCN, whose output is signed"
        )
    if layer.lcn_window < 3 or layer.lcn_window % 2 == 0:
        raise InvalidWindow(f"lcn_window must be odd and >= 3, got {layer.lcn_window}")
    if not (math.isfinite(layer.lcn_sigma) and layer.lcn_sigma > 0):
        raise ValueError(f"lcn_sigma must be finite and > 0, got {layer.lcn_sigma}")


@dataclass(frozen=True)
class Layer1Config:
    filters: int = 300
    patch_side: int = 16
    pool_side: int = 12
    pool_stride: int = 12
    pool_alpha: float = 1.0
    lcn_window: int = 9
    lcn_sigma: float = 2.25
    zca_epsilon: float = 0.01
    patches: int = 400_000

    def __post_init__(self):
        _check_layer(self, "filters")


@dataclass(frozen=True)
class Layer2Config:
    filters_per_group: int = 75
    patch_side: int = 3
    group_size: int = 4
    pool_side: int = 3
    pool_stride: int = 3
    pool_alpha: float = 1.0
    lcn_window: int = 3
    lcn_sigma: float = 0.75
    zca_epsilon: float = 0.1
    patches: int = 200_000

    def __post_init__(self):
        _check_layer(self, "filters_per_group")
        if self.group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {self.group_size}")


@dataclass(frozen=True)
class NetworkConfig:
    """Complete hyperparameter record for one committee member."""

    name: str = "net"
    rectifier: str = "abs"
    scale_factor: float = 1.0  # working resolution over native; 1 is native
    layer1: Layer1Config = field(default_factory=Layer1Config)
    layer2: Layer2Config = field(default_factory=Layer2Config)
    augment: AugmentPlan = field(default_factory=AugmentPlan)
    svm_reg_c: float = DEFAULT_REG_C
    # training draws patch sampling, layer-1 k-means, layer-2 k-means and
    # the grouping from SeededRng(seed + i), i = 0 ... 3 in that order
    seed: int = 1

    def __post_init__(self):
        _check_network_id(self.name, "network name")
        if self.rectifier not in RECTIFIERS:
            raise ValueError(f"rectifier must be one of {RECTIFIERS}, got {self.rectifier!r}")
        if not 0.0 < self.scale_factor <= 1.0:
            raise ValueError(f"scale_factor must be in (0, 1], got {self.scale_factor}")
        _check_reg_c(self.svm_reg_c, "svm_reg_c")
        if not 0 <= self.seed <= 2**64 - 4:
            raise ValueError(f"seed must be in 0 ... 2**64 - 4, got {self.seed}")


def parse_fraction(text: str) -> float:
    """Float parser that also accepts 'a/b' fractions (e.g. 1/3) with b != 0."""
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        if float(den) == 0.0:
            raise ValueError(f"fraction {text!r} divides by zero")
        return float(num) / float(den)
    return float(text)


def _parse_bool(text: str) -> bool:
    text = text.strip().lower()
    if text in ("true", "1", "yes", "on"):
        return True
    if text in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"bad boolean {text!r}")


def _format_float(x: float) -> str:
    return repr(float(x))


_OPTIONAL_SECTIONS = ("augment",)

# field type -> (parse INI text, format value as INI text)
_CODECS = {
    int: (int, str),
    float: (parse_fraction, _format_float),
    bool: (_parse_bool, lambda b: str(b).lower()),
    str: (str, str),
    tuple[float, ...]: (
        lambda t: tuple(parse_fraction(tok) for tok in t.split(",") if tok.strip()),
        lambda xs: ", ".join(_format_float(x) for x in xs),
    ),
    tuple[str, ...]: (lambda t: tuple(s.strip() for s in t.split(",") if s.strip()), ", ".join),
    # fold indices: "all" is every fold, else integers split on commas or spaces
    tuple[int, ...]: (
        lambda t: tuple(range(NUM_FOLDS)) if t.strip() == "all"
        else tuple(map(int, t.replace(",", " ").split())),
        lambda xs: ", ".join(map(str, xs)),
    ),
}


def _scalar_fields(cls) -> list[tuple[str, type]]:
    """(name, type) of each field of cls that is not a record; the name is its INI key."""
    hints = typing.get_type_hints(cls)
    return [(f.name, hints[f.name]) for f in fields(cls) if not is_dataclass(hints[f.name])]


# sub-record sections in file order after [network]: field name -> record class
_RECORDS = {
    name: tp for name, tp in typing.get_type_hints(NetworkConfig).items() if is_dataclass(tp)
}


def _section_text(record) -> dict[str, str]:
    return {key: _CODECS[tp][1](getattr(record, key)) for key, tp in _scalar_fields(type(record))}


def network_config_to_text(cfg: NetworkConfig) -> str:
    cp = configparser.ConfigParser(interpolation=None)
    cp["network"] = _section_text(cfg)
    for name in _RECORDS:
        cp[name] = _section_text(getattr(cfg, name))
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def _read_section(cp: configparser.ConfigParser, section: str, cls) -> dict:
    """Field values given in one section; absent keys keep the dataclass default."""
    if not cp.has_section(section):
        if section in _OPTIONAL_SECTIONS:
            return {}
        raise FormatError(f"missing section [{section}]")
    given = dict(cp.items(section))
    values = {}
    for key, tp in _scalar_fields(cls):
        if key in given:
            try:
                values[key] = _CODECS[tp][0](given.pop(key))
            except ValueError as exc:
                raise FormatError(f"{section}.{key}: {exc}") from exc
    if given:
        raise FormatError(f"unknown key {section}.{min(given)}")
    return values


def _parse(text: str, sections: set[str]) -> configparser.ConfigParser:
    """The INI text of a network or experiment file, whose sections must be among sections."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(text)
    unknown = set(cp.sections()) - sections
    if unknown:
        raise FormatError(f"unknown section [{min(unknown)}]")
    return cp


def network_config_from_text(text: str) -> NetworkConfig:
    try:
        cp = _parse(text, {"network", *_RECORDS})
        records = {name: _build(cp, name, cls) for name, cls in _RECORDS.items()}
        return _build(cp, "network", NetworkConfig, **records)
    except (FormatError, configparser.Error) as exc:
        raise FormatError(f"bad network config: {exc}") from exc


def _build(cp: configparser.ConfigParser, section: str, cls, **records):
    """One section's record; a refused value names the section, as both layers
    share keys."""
    values = _read_section(cp, section, cls)
    try:
        return cls(**values, **records)
    except (ValueError, InvalidK, InvalidWindow) as exc:
        raise FormatError(f"{exc} (in [{section}])") from exc


def load_network_config(path) -> NetworkConfig:
    with open(path, "r", encoding="utf-8") as fh, naming(path):
        return network_config_from_text(fh.read())


def save_network_config(path, cfg: NetworkConfig) -> None:
    # the name rule keeps config text ASCII
    with atomic_open(path) as fh:
        fh.write(network_config_to_text(cfg))


@dataclass(frozen=True)
class ExperimentConfig:
    """A committee experiment: member configs and which folds to run."""

    name: str = "experiment"
    networks: tuple[str, ...] = ()
    folds: tuple[int, ...] = tuple(range(NUM_FOLDS))  # indices into the fold plan

    def __post_init__(self):
        if not self.networks:
            raise ValueError("experiment lists no networks")
        if not self.folds or len(set(self.folds)) != len(self.folds):
            raise ValueError(f"experiment folds must be non-empty and distinct, got {self.folds}")


def load_experiment_config(path) -> ExperimentConfig:
    """The experiment file at path, its network paths taken relative to the file."""
    with open(path, "r", encoding="utf-8") as fh, naming(path):
        exp = _build(_parse(fh.read(), {"experiment"}), "experiment", ExperimentConfig)
    base = os.path.dirname(os.path.abspath(path))
    return replace(exp, networks=tuple(os.path.join(base, p) for p in exp.networks))
