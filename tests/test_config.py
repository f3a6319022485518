import configparser
import dataclasses
import glob
import os
import re

import pytest

from cdfnet import config as config_mod
from cdfnet.augment import AugmentPlan
from cdfnet.config import (
    ExperimentConfig,
    Layer1Config,
    Layer2Config,
    NetworkConfig,
    load_experiment_config,
    load_network_config,
    network_config_from_text,
    network_config_to_text,
    parse_fraction,
    save_network_config,
)
from cdfnet.errors import FormatError
from cdfnet.tensor import SeededRng


def _full_config():
    return NetworkConfig(
        name="n4",
        rectifier="on_off",
        scale_factor=1.0 / 3.0,
        layer1=Layer1Config(filters=96, patch_side=8, pool_side=4, pool_stride=4,
                            pool_alpha=4.0, lcn_window=5, lcn_sigma=1.25,
                            zca_epsilon=0.05, patches=12345),
        layer2=Layer2Config(filters_per_group=10, patch_side=2, group_size=8,
                            pool_side=2, pool_stride=1, pool_alpha=2.0,
                            lcn_window=5, lcn_sigma=0.5, zca_epsilon=0.2,
                            patches=777),
        augment=AugmentPlan(mirror=True, rotations_deg=(-10.0, 10.0)),
        svm_reg_c=32.0,
        seed=11,
    )


CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
SHIPPED = sorted(glob.glob(os.path.join(CONFIG_DIR, "n[1-5].ini")))


def _scalar_diffs(a, b, path=""):
    """(dotted field path, value in a, its record's default) for each differing leaf."""
    out = []
    for f in dataclasses.fields(a):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if dataclasses.is_dataclass(va):
            out += _scalar_diffs(va, vb, f"{path}{f.name}.")
        elif va != vb:
            out.append((path + f.name, va, getattr(type(a)(), f.name)))
    return out


def _texts_missing_one_key(cfg):
    """The config's text once per key line, with that line left out."""
    lines = network_config_to_text(cfg).splitlines(keepends=True)
    section = None
    for i, line in enumerate(lines):
        if line.startswith("["):
            section = line.strip("[]\n")
        elif " = " in line:
            key = line.split(" = ")[0]
            yield pytest.param("".join(lines[:i] + lines[i + 1:]), id=f"{section}.{key}")


class TestParseFraction:
    def test_plain_floats(self):
        assert parse_fraction("2.25") == 2.25
        assert parse_fraction(" 1 ") == 1.0

    def test_fractions(self):
        assert parse_fraction("1/3") == pytest.approx(1.0 / 3.0, abs=0)
        assert parse_fraction("3/4") == 0.75

    @pytest.mark.parametrize("text", ["1/0", "5/0.0", "0/-0"])
    def test_zero_denominator_is_a_value_error(self, text):
        with pytest.raises(ValueError, match="divides by zero"):
            parse_fraction(text)


class TestRoundTrip:
    def test_full_round_trip(self):
        cfg = _full_config()
        # each of the 26 scalar fields holds a non-default value
        assert len(_scalar_diffs(cfg, NetworkConfig())) == 26
        assert network_config_from_text(network_config_to_text(cfg)) == cfg

    @pytest.mark.parametrize("text", _texts_missing_one_key(_full_config()))
    def test_dropped_key_takes_default(self, text):
        [(_, value, default)] = _scalar_diffs(network_config_from_text(text), _full_config())
        assert value == default

    @pytest.mark.parametrize("path", SHIPPED, ids=os.path.basename)
    def test_shipped_config_is_its_own_text(self, path):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        assert network_config_to_text(load_network_config(path)) == text

    def test_defaults_round_trip(self):
        cfg = NetworkConfig()
        assert network_config_from_text(network_config_to_text(cfg)) == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = _full_config()
        path = tmp_path / "net.ini"
        save_network_config(path, cfg)
        assert load_network_config(path) == cfg

    def test_failed_save_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "net.ini"
        save_network_config(path, NetworkConfig())
        before = path.read_bytes()

        def broken(cfg):
            raise RuntimeError("disk gone")

        # the text is made while the file is open, so this fails partway
        monkeypatch.setattr(config_mod, "network_config_to_text", broken)
        with pytest.raises(RuntimeError, match="disk gone"):
            save_network_config(path, _full_config())
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["net.ini"]

    # values are read literally: '%' starts no interpolation, so '%%' is two characters
    @pytest.mark.parametrize("name", ["a%b", "50%", "a%%b", "%(name)s"])
    def test_percent_in_value_round_trips(self, tmp_path, name):
        cfg = NetworkConfig(name=name)
        assert f"name = {name}\n" in network_config_to_text(cfg)
        save_network_config(tmp_path / "net.ini", cfg)
        assert load_network_config(tmp_path / "net.ini") == cfg

    def test_text_is_stable(self):
        cfg = _full_config()
        text = network_config_to_text(cfg)
        assert network_config_to_text(network_config_from_text(text)) == text


class TestOneNamePerSetting:
    """Each setting has one name: a record's field names are its INI keys."""

    @pytest.mark.parametrize("section", ["network", "layer1", "layer2", "augment"])
    def test_written_keys_are_the_field_names(self, section):
        cfg = NetworkConfig()
        record = cfg if section == "network" else getattr(cfg, section)
        scalars = [f.name for f in dataclasses.fields(record)
                   if not dataclasses.is_dataclass(getattr(record, f.name))]
        cp = configparser.ConfigParser(interpolation=None)
        cp.read_string(network_config_to_text(cfg))
        assert list(cp[section]) == scalars

    def test_experiment_keys_are_the_field_names(self, tmp_path):
        values = {"name": "e", "networks": "a.ini", "folds": "3"}
        assert list(values) == [f.name for f in dataclasses.fields(ExperimentConfig)]
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\n" + "".join(f"{k} = {v}\n" for k, v in values.items()))
        exp = load_experiment_config(path)
        assert (exp.name, exp.networks, exp.folds) == ("e", (str(tmp_path / "a.ini"),), (3,))


class TestParsing:
    def test_minimal_sections_get_defaults(self):
        cfg = network_config_from_text("[network]\n[layer1]\n[layer2]\n")
        assert cfg == NetworkConfig()

    def test_fraction_scale_factor(self):
        cfg = network_config_from_text(
            "[network]\nscale_factor = 1/3\n[layer1]\n[layer2]\n"
        )
        assert cfg.scale_factor == pytest.approx(1.0 / 3.0, abs=0)

    def test_rotation_list(self):
        cfg = network_config_from_text(
            "[network]\n[layer1]\n[layer2]\n[augment]\nrotations_deg = -10, 10, 30.5\n"
        )
        assert cfg.augment.rotations_deg == (-10.0, 10.0, 30.5)

    def test_empty_rotations(self):
        cfg = network_config_from_text(
            "[network]\n[layer1]\n[layer2]\n[augment]\nrotations_deg =\n"
        )
        assert cfg.augment.rotations_deg == ()

    def test_bad_ini_syntax(self):
        with pytest.raises(FormatError):
            network_config_from_text("network]\nbroken\n")

    def test_missing_section(self):
        with pytest.raises(FormatError):
            network_config_from_text("[network]\nname = x\n")

    def test_bad_int(self):
        with pytest.raises(FormatError):
            network_config_from_text("[network]\n[layer1]\nfilters = many\n[layer2]\n")

    def test_bad_bool(self):
        with pytest.raises(FormatError):
            network_config_from_text(
                "[network]\n[layer1]\n[layer2]\n[augment]\nmirror = maybe\n"
            )

    @pytest.mark.parametrize(
        "section, line, name",
        [
            ("layer1", "filter = 64", "layer1.filter"),
            ("layer1", "pool_sise = 4", "layer1.pool_sise"),
            ("layer2", "k_per_group = 10", "layer2.k_per_group"),
            ("augment", "mirorr = true", "augment.mirorr"),
            ("augment", "scale_factor = 0.5", "augment.scale_factor"),
            ("sedes", "patches = 5", "sedes"),
            # the four-seed section of earlier versions is unknown too
            ("seeds", "patches = 11", "[seeds]"),
            # retired keys are unknown, also in the sections that held them
            ("network", "dense_preprocess = true", "network.dense_preprocess"),
            ("layer2", "descriptor_mode = layer2_only", "layer2.descriptor_mode"),
            ("layer1", "dense_preprocess = true", "layer1.dense_preprocess"),
            ("network", "descriptor_mode = layer2_only", "network.descriptor_mode"),
        ],
    )
    def test_unknown_name_rejected(self, section, line, name):
        bodies = {"network": "", "layer1": "", "layer2": "", section: line}
        text = "".join(f"[{s}]\n{body}\n" for s, body in bodies.items())
        with pytest.raises(FormatError, match=re.escape(name)):
            network_config_from_text(text)


class TestValidation:
    def test_name_no_spaces(self):
        with pytest.raises(ValueError):
            NetworkConfig(name="two words")
        with pytest.raises(ValueError):
            NetworkConfig(name="")
        # score files and reports are ASCII
        with pytest.raises(ValueError, match="ASCII"):
            NetworkConfig(name="r\u00e9seau")

    def test_scale_factor_bounds(self):
        with pytest.raises(ValueError):
            NetworkConfig(scale_factor=0.0)
        with pytest.raises(ValueError):
            NetworkConfig(scale_factor=1.5)
        NetworkConfig(scale_factor=1.0)

    def test_invalid_layer_params_fail_fast(self):
        with pytest.raises(Exception):
            NetworkConfig(layer1=Layer1Config(pool_side=0))
        with pytest.raises(ValueError, match="group_size"):
            NetworkConfig(layer2=Layer2Config(group_size=0))

    # LCN output is signed, so pooling is only defined for alpha 1 or even
    @pytest.mark.parametrize("alpha", [1.5, 3.0, 0.5, 5.0])
    @pytest.mark.parametrize("layer", ["layer1", "layer2"])
    def test_pool_alpha_undefined_on_signed_input_rejected(self, alpha, layer):
        layer_cls = Layer1Config if layer == "layer1" else Layer2Config
        with pytest.raises(ValueError, match="pool_alpha"):
            NetworkConfig(**{layer: layer_cls(pool_alpha=alpha)})

    # NaN passes a plain `x <= 0` test, and inf would reach the LCN kernel or eigh
    @pytest.mark.parametrize(
        "section, line",
        [
            ("layer1", "lcn_sigma = nan"),
            ("layer2", "lcn_sigma = nan"),
            ("layer1", "lcn_sigma = inf"),
            ("layer1", "zca_epsilon = nan"),
            ("layer2", "zca_epsilon = nan"),
            ("layer2", "zca_epsilon = inf"),
            ("augment", "rotations_deg = nan"),
            ("augment", "rotations_deg = -10, nan"),
        ],
    )
    def test_non_finite_value_rejected_at_load(self, section, line):
        bodies = {"network": "", "layer1": "", "layer2": "", section: line}
        text = "".join(f"[{s}]\n{body}\n" for s, body in bodies.items())
        with pytest.raises(FormatError, match=line.split(" = ")[0]):
            network_config_from_text(text)

    # both layers share these keys, so only the section tells the lines apart
    @pytest.mark.parametrize(
        "line", ["lcn_sigma = nan", "zca_epsilon = 0", "pool_stride = 0", "lcn_window = 4"]
    )
    @pytest.mark.parametrize("section", ["layer1", "layer2"])
    def test_record_error_names_its_section(self, section, line):
        bodies = {"network": "", "layer1": "", "layer2": "", section: line}
        text = "".join(f"[{s}]\n{body}\n" for s, body in bodies.items())
        with pytest.raises(FormatError) as info:
            network_config_from_text(text)
        assert str(info.value).startswith("bad network config: ")
        assert str(info.value).endswith(f"(in [{section}])")

    # a refused value is reported under its INI key, which is also its field name
    @pytest.mark.parametrize(
        "section, line, message",
        [
            ("layer2", "filters_per_group = 0", "filters_per_group must be >= 1, got 0"),
            ("layer1", "filters = 0", "filters must be >= 1, got 0"),
            ("layer1", "patches = 3", "patches 3 is below filters = 300"),
            ("network", "svm_reg_c = 0", "svm_reg_c must be finite and > 0, got 0.0"),
        ],
    )
    def test_record_error_names_the_ini_key(self, section, line, message):
        bodies = {"network": "", "layer1": "", "layer2": "", section: line}
        text = "".join(f"[{s}]\n{body}\n" for s, body in bodies.items())
        with pytest.raises(FormatError) as info:
            network_config_from_text(text)
        assert str(info.value) == f"bad network config: {message} (in [{section}])"

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 4.0])
    def test_pool_alpha_one_or_even_accepted(self, alpha):
        cfg = NetworkConfig(
            layer1=Layer1Config(pool_alpha=alpha), layer2=Layer2Config(pool_alpha=alpha)
        )
        assert cfg.layer1.pool_alpha == cfg.layer2.pool_alpha == alpha


class TestSeeds:
    """Training draws its four streams from seed ... seed + 3."""

    @staticmethod
    def _streams(cfg):
        return set(range(cfg.seed, cfg.seed + 4))

    def test_shipped_stream_sets_are_disjoint(self):
        sets = [self._streams(load_network_config(p)) for p in SHIPPED]
        assert len(sets) == 5
        assert len(set().union(*sets)) == 4 * len(sets)

    @pytest.mark.parametrize("value", [-1, 2**64 - 3])
    def test_out_of_range_seed_rejected(self, value):
        message = re.escape(f"seed must be in 0 ... 2**64 - 4, got {value}")
        with pytest.raises(ValueError, match=message):
            NetworkConfig(seed=value)
        with pytest.raises(FormatError, match=message + re.escape(" (in [network])")):
            network_config_from_text(f"[network]\nseed = {value}\n[layer1]\n[layer2]\n")

    def test_largest_seeds_accepted(self):
        top = 2**64 - 4
        assert NetworkConfig(seed=top).seed == top
        assert SeededRng(top + 3).seed == 2**64 - 1  # the last stream is still a seed


class TestExperiment:
    def _write(self, tmp_path, body):
        path = tmp_path / "exp.ini"
        path.write_text(body)
        return path

    def test_basic(self, tmp_path):
        path = self._write(
            tmp_path,
            "[experiment]\nname = committee\nnetworks = a.ini, sub/b.ini\nfolds = 0, 3, 9\n",
        )
        exp = load_experiment_config(path)
        assert exp.name == "committee"
        assert exp.networks == (str(tmp_path / "a.ini"), str(tmp_path / "sub/b.ini"))
        assert exp.folds == (0, 3, 9)

    def test_folds_all(self, tmp_path):
        path = self._write(tmp_path, "[experiment]\nnetworks = a.ini\n")
        assert load_experiment_config(path).folds == tuple(range(10))

    def test_folds_space_separated(self, tmp_path):
        path = self._write(tmp_path, "[experiment]\nnetworks = a.ini\nfolds = 0 1 2\n")
        assert load_experiment_config(path).folds == (0, 1, 2)

    def test_missing_file(self, tmp_path):
        path = tmp_path / "nope.ini"
        with pytest.raises(FileNotFoundError, match=re.escape(str(path))):
            load_experiment_config(path)

    # README runs both files
    @pytest.mark.parametrize(
        "name, networks, folds",
        [("stl10_committee.ini", ("n1", "n2", "n3", "n4", "n5"), tuple(range(10))),
         ("n1_only.ini", ("n1",), (0,))],
    )
    def test_shipped_experiment(self, name, networks, folds):
        exp = load_experiment_config(os.path.join(CONFIG_DIR, name))
        assert tuple(load_network_config(p).name for p in exp.networks) == networks
        assert exp.folds == folds

    def test_no_networks(self, tmp_path):
        path = self._write(tmp_path, "[experiment]\nnetworks =\n")
        with pytest.raises(FormatError):
            load_experiment_config(path)

    # an empty list would train nothing; a repeated fold would count twice in the mean
    @pytest.mark.parametrize("folds", ["", "2, 2", "0 1 0"])
    def test_empty_or_repeated_folds(self, tmp_path, folds):
        path = self._write(tmp_path, f"[experiment]\nnetworks = a.ini\nfolds = {folds}\n")
        with pytest.raises(FormatError, match="folds"):
            load_experiment_config(path)

    def test_bad_fold(self, tmp_path):
        path = self._write(tmp_path, "[experiment]\nnetworks = a.ini\nfolds = one\n")
        with pytest.raises(FormatError):
            load_experiment_config(path)

    # a misspelt key must not fall back to its default (fold -> all ten folds)
    @pytest.mark.parametrize(
        "body, name",
        [
            ("[experiment]\nnetworks = a.ini\nfold = 0\n", "experiment.fold"),
            ("[experiment]\nnetwork = a.ini\nnetworks = a.ini\n", "experiment.network"),
            ("[experiment]\nnetworks = a.ini\n[experiments]\nfolds = 0\n", "[experiments]"),
        ],
        ids=["key", "near_key", "section"],
    )
    def test_unknown_name_rejected(self, tmp_path, body, name):
        with pytest.raises(FormatError, match=re.escape(name)):
            load_experiment_config(self._write(tmp_path, body))

    def test_parse_error_is_format_error(self, tmp_path):
        body = "[experiment]\nnetworks = a.ini\nnetworks = b.ini\n"
        with pytest.raises(FormatError, match="already exists"):
            load_experiment_config(self._write(tmp_path, body))

    def test_dataclass_is_plain(self):
        exp = ExperimentConfig(name="e", networks=("a",), folds=(0,))
        assert exp.folds == (0,)

    @pytest.mark.parametrize(
        "kwargs, reason",
        [(dict(), "lists no networks"), (dict(networks=("a",), folds=(1, 1)), "distinct")],
        ids=["no_networks", "repeated_fold"],
    )
    def test_record_checks_itself(self, kwargs, reason):
        with pytest.raises(ValueError, match=reason):
            ExperimentConfig(**kwargs)
