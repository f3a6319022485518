"""Network and experiment configuration: dataclasses plus an INI text form.

The same text form is used for standalone config files and for the config
block embedded in saved model containers, so a model file is always
self-describing.
"""

from __future__ import annotations

import configparser
import io
import math
import typing
from dataclasses import dataclass, field, fields, is_dataclass

from .augment import AugmentPlan
from .errors import FormatError, InvalidK, InvalidWindow
from .layer import RECTIFIERS
from .stl10 import NUM_FOLDS
from .tensor import SeededRng


def _signed_pool_alpha(alpha: float) -> bool:
    """True if Lp pooling with this alpha is defined on signed inputs."""
    return alpha == 1.0 or (alpha >= 2.0 and alpha % 2.0 == 0.0)


def _check_layer(layer, k_field: str) -> None:
    """Checks on the fields both layer records share; k_field names the filter count."""
    k = getattr(layer, k_field)
    if k < 1:
        raise InvalidK(f"{k_field} must be >= 1, got {k}")
    if layer.n_patches < k:
        raise InvalidK(f"n_patches {layer.n_patches} is below {k_field} = {k}")
    if layer.patch_side < 1:
        raise ValueError(f"patch_side must be >= 1, got {layer.patch_side}")
    if layer.zca_epsilon <= 0:
        raise ValueError(f"zca_epsilon must be > 0, got {layer.zca_epsilon}")
    if layer.pool_side < 1 or layer.pool_stride < 1:
        raise ValueError("pool_side and pool_stride must be >= 1")
    if not _signed_pool_alpha(layer.pool_alpha):
        raise ValueError(
            f"pool_alpha must be 1 or an even integer, got {layer.pool_alpha}: "
            "pooling runs after LCN, whose output is signed"
        )
    if layer.lcn_window < 3 or layer.lcn_window % 2 == 0:
        raise InvalidWindow(f"lcn_window must be odd and >= 3, got {layer.lcn_window}")
    if layer.lcn_sigma <= 0:
        raise ValueError(f"lcn_sigma must be > 0, got {layer.lcn_sigma}")


@dataclass(frozen=True)
class Layer1Config:
    k: int = 300
    patch_side: int = 16
    pool_side: int = 12
    pool_stride: int = 12
    pool_alpha: float = 1.0
    lcn_window: int = 9
    lcn_sigma: float = 2.25
    zca_epsilon: float = 0.01
    n_patches: int = 400_000

    def __post_init__(self):
        _check_layer(self, "k")


@dataclass(frozen=True)
class Layer2Config:
    k_per_group: int = 75
    patch_side: int = 3
    group_size: int = 4
    pool_side: int = 3
    pool_stride: int = 3
    pool_alpha: float = 1.0
    lcn_window: int = 3
    lcn_sigma: float = 0.75
    zca_epsilon: float = 0.1
    n_patches: int = 200_000

    def __post_init__(self):
        _check_layer(self, "k_per_group")
        if self.group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {self.group_size}")


@dataclass(frozen=True)
class Seeds:
    patches: int = 1
    kmeans1: int = 2
    kmeans2: int = 3
    grouping: int = 4

    def __post_init__(self):
        for f in fields(self):
            try:
                SeededRng(getattr(self, f.name))
            except ValueError as exc:
                raise ValueError(f"seeds.{f.name} = {getattr(self, f.name)}: {exc}") from None

    def shifted(self, base: int) -> "Seeds":
        """Derive all four seeds from one base seed (CLI --seed override)."""
        return Seeds(
            patches=base * 4 + 0,
            kmeans1=base * 4 + 1,
            kmeans2=base * 4 + 2,
            grouping=base * 4 + 3,
        )


@dataclass(frozen=True)
class NetworkConfig:
    """Complete hyperparameter record for one committee member."""

    name: str = "net"
    rectifier: str = "abs"
    scale_factor: float | None = None
    layer1: Layer1Config = field(default_factory=Layer1Config)
    layer2: Layer2Config = field(default_factory=Layer2Config)
    augment: AugmentPlan = field(default_factory=AugmentPlan)
    seeds: Seeds = field(default_factory=Seeds)
    svm_reg_c: float = 1.0

    def __post_init__(self):
        if not self.name or any(ch.isspace() for ch in self.name):
            raise ValueError(f"network name must be non-empty without spaces: {self.name!r}")
        if self.rectifier not in RECTIFIERS:
            raise ValueError(f"rectifier must be one of {RECTIFIERS}, got {self.rectifier!r}")
        if self.scale_factor is not None and not 0.0 < self.scale_factor <= 1.0:
            raise ValueError(f"scale_factor must be in (0, 1], got {self.scale_factor}")
        if not (math.isfinite(self.svm_reg_c) and self.svm_reg_c > 0):
            raise ValueError(f"svm_reg_c must be finite and > 0, got {self.svm_reg_c}")


def parse_fraction(text: str) -> float:
    """Float parser that also accepts 'a/b' fractions (e.g. 1/3)."""
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
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


# INI keys that differ from their dataclass field names
_RENAMED = {"k": "filters", "k_per_group": "filters_per_group", "n_patches": "patches"}
_OPTIONAL_SECTIONS = ("augment", "seeds")
# Retired options that older files still carry: each is read only in its old
# section and only at the one value the code keeps, then dropped.
_RETIRED = {
    "network": {"descriptor_mode": "layer2_only"},
    "layer1": {"dense_preprocess": True},
    "layer2": {"dense_preprocess": True},
}

# field type -> (parse INI text, format value as INI text)
_CODECS = {
    int: (int, str),
    float: (parse_fraction, _format_float),
    bool: (_parse_bool, lambda b: str(b).lower()),
    str: (str, str),
    float | None: (
        lambda t: parse_fraction(t) if t.strip() else None,
        lambda x: "" if x is None else _format_float(x),
    ),
    tuple[float, ...]: (
        lambda t: tuple(parse_fraction(tok) for tok in t.split(",") if tok.strip()),
        lambda xs: ", ".join(_format_float(x) for x in xs),
    ),
}


def _scalar_fields(cls) -> list[tuple[str, str, type]]:
    """(field name, INI key, field type) for the fields of cls that are not records."""
    hints = typing.get_type_hints(cls)
    return [
        (f.name, _RENAMED.get(f.name, f.name), hints[f.name])
        for f in fields(cls)
        if not is_dataclass(hints[f.name])
    ]


# sub-record sections in file order after [network]: field name -> record class
_RECORDS = {
    name: tp for name, tp in typing.get_type_hints(NetworkConfig).items() if is_dataclass(tp)
}


def _section_text(record) -> dict[str, str]:
    return {
        key: _CODECS[tp][1](getattr(record, name))
        for name, key, tp in _scalar_fields(type(record))
    }


def network_config_to_text(cfg: NetworkConfig) -> str:
    cp = configparser.ConfigParser()
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
        raise FormatError(f"bad network config: missing section [{section}]")
    given = dict(cp.items(section))
    values = {}
    for name, key, tp in _scalar_fields(cls):
        if key in given:
            try:
                values[name] = _CODECS[tp][0](given.pop(key))
            except ValueError as exc:
                raise FormatError(f"bad network config: {section}.{key}: {exc}") from exc
    for key, kept in _RETIRED.get(section, {}).items():
        parse, show = _CODECS[type(kept)]
        try:
            ok = parse(given.pop(key, show(kept))) == kept
        except ValueError:
            ok = False
        if not ok:
            raise FormatError(
                f"bad network config: {section}.{key}: the option was removed; "
                f"only {show(kept)} is still read"
            )
    if given:
        raise FormatError(f"bad network config: unknown key {section}.{min(given)}")
    return values


def network_config_from_text(text: str) -> NetworkConfig:
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise FormatError(f"bad network config: {exc}") from exc
    unknown = set(cp.sections()) - {"network", *_RECORDS}
    if unknown:
        raise FormatError(f"bad network config: unknown section [{min(unknown)}]")
    try:
        top = _read_section(cp, "network", NetworkConfig)
        records = {name: cls(**_read_section(cp, name, cls)) for name, cls in _RECORDS.items()}
        return NetworkConfig(**top, **records)
    except ValueError as exc:
        raise FormatError(f"bad network config: {exc}") from exc


def load_network_config(path) -> NetworkConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return network_config_from_text(fh.read())


def save_network_config(path, cfg: NetworkConfig) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(network_config_to_text(cfg))


@dataclass(frozen=True)
class ExperimentConfig:
    """A committee experiment: member configs and which folds to run."""

    name: str
    network_paths: tuple[str, ...]
    folds: tuple[int, ...]  # indices into the fold plan


def load_experiment_config(path) -> ExperimentConfig:
    import os

    cp = configparser.ConfigParser()
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise FormatError(f"bad experiment config {path}: {exc}") from exc
    if not read:
        raise FormatError(f"no such experiment config: {path}")
    unknown = set(cp.sections()) - {"experiment"}
    if unknown:
        raise FormatError(f"bad experiment config {path}: unknown section [{min(unknown)}]")
    try:
        exp = cp["experiment"]
        unknown = set(exp) - {"name", "networks", "folds"}
        if unknown:
            raise FormatError(
                f"bad experiment config {path}: unknown key experiment.{min(unknown)}"
            )
        name = exp.get("name", "experiment")
        base = os.path.dirname(os.path.abspath(path))
        networks = tuple(
            os.path.join(base, tok.strip())
            for tok in exp["networks"].split(",")
            if tok.strip()
        )
        folds_text = exp.get("folds", "all").strip()
        if folds_text == "all":
            folds = tuple(range(NUM_FOLDS))
        else:
            folds = tuple(
                int(t) for t in folds_text.replace(",", " ").split() if t.strip()
            )
    except (KeyError, ValueError) as exc:
        raise FormatError(f"bad experiment config {path}: {exc}") from exc
    if not networks:
        raise FormatError(f"{path}: experiment lists no networks")
    return ExperimentConfig(name=name, network_paths=networks, folds=folds)
