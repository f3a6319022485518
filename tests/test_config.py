import dataclasses
import glob
import os
import re

import pytest

from cdfnet.augment import AugmentPlan
from cdfnet.config import (
    ExperimentConfig,
    Layer1Config,
    Layer2Config,
    NetworkConfig,
    Seeds,
    load_experiment_config,
    load_network_config,
    network_config_from_text,
    network_config_to_text,
    parse_fraction,
    save_network_config,
)
from cdfnet.errors import FormatError


def _full_config():
    return NetworkConfig(
        name="n4",
        rectifier="on_off",
        scale_factor=1.0 / 3.0,
        layer1=Layer1Config(k=96, patch_side=8, pool_side=4, pool_stride=4,
                            pool_alpha=4.0, lcn_window=5, lcn_sigma=1.25,
                            zca_epsilon=0.05, n_patches=12345),
        layer2=Layer2Config(k_per_group=10, patch_side=2, group_size=8,
                            pool_side=2, pool_stride=1, pool_alpha=2.0,
                            lcn_window=5, lcn_sigma=0.5, zca_epsilon=0.2,
                            n_patches=777),
        augment=AugmentPlan(mirror=True, rotations_deg=(-10.0, 10.0)),
        seeds=Seeds(patches=11, kmeans1=22, kmeans2=33, grouping=44),
        svm_reg_c=32.0,
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


class TestRoundTrip:
    def test_full_round_trip(self):
        cfg = _full_config()
        # each of the 29 scalar fields holds a non-default value
        assert len(_scalar_diffs(cfg, NetworkConfig())) == 29
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

    def test_text_is_stable(self):
        cfg = _full_config()
        text = network_config_to_text(cfg)
        assert network_config_to_text(network_config_from_text(text)) == text


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
            # the retired keys are read only in the sections that held them
            ("network", "dense_preprocess = true", "network.dense_preprocess"),
            ("layer2", "descriptor_mode = layer2_only", "layer2.descriptor_mode"),
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

    def test_descriptor_mode_checked(self):
        # the option is retired; older files may only name the kept value
        with pytest.raises(FormatError, match="network.descriptor_mode: .*removed"):
            network_config_from_text("[network]\ndescriptor_mode = layer9\n[layer1]\n[layer2]\n")

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

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 4.0])
    def test_pool_alpha_one_or_even_accepted(self, alpha):
        cfg = NetworkConfig(
            layer1=Layer1Config(pool_alpha=alpha), layer2=Layer2Config(pool_alpha=alpha)
        )
        assert cfg.layer1.pool_alpha == cfg.layer2.pool_alpha == alpha


class TestSeeds:
    def test_shifted_distinct_streams(self):
        s = Seeds().shifted(7)
        assert s == Seeds(patches=28, kmeans1=29, kmeans2=30, grouping=31)
        t = Seeds().shifted(8)
        assert len({s.patches, s.kmeans1, s.kmeans2, s.grouping,
                    t.patches, t.kmeans1, t.kmeans2, t.grouping}) == 8

    @pytest.mark.parametrize("field, value", [("kmeans2", -3), ("patches", 2**64)])
    def test_out_of_range_seed_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"seeds.{field}"):
            Seeds(**{field: value})
        with pytest.raises(FormatError, match=f"seeds.{field}"):
            network_config_from_text(f"[network]\n[layer1]\n[layer2]\n[seeds]\n{field} = {value}\n")

    def test_largest_seeds_accepted(self):
        top = 2**64 - 1
        assert Seeds(top, top, top, top).grouping == top
        assert Seeds().shifted((2**64 - 4) // 4).grouping == top

    @pytest.mark.parametrize("base", [-1, 2**62])
    def test_shifted_out_of_range_rejected(self, base):
        # 2**62 * 4 + 3 is past the 64-bit range; -1 * 4 is below it
        with pytest.raises(ValueError, match="64-bit"):
            Seeds().shifted(base)


def _with_retired_keys(text, value1="true", value2="true"):
    """text with the retired keys in the places older files held them."""
    for header, line in (
        ("[network]\n", "descriptor_mode = layer2_only\n"),
        ("[layer1]\n", f"dense_preprocess = {value1}\n"),
        ("[layer2]\n", f"dense_preprocess = {value2}\n"),
    ):
        head, _, tail = text.partition(header)
        text = head + header + line + tail
    return text


class TestRetiredKeys:
    """dense_preprocess and descriptor_mode are gone; older files still load."""

    @pytest.mark.parametrize("path", SHIPPED, ids=os.path.basename)
    @pytest.mark.parametrize("spelling", ["true", "yes"])
    def test_kept_values_load_as_without(self, path, spelling):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        old = _with_retired_keys(text, spelling, spelling)
        assert old != text
        assert network_config_from_text(old) == network_config_from_text(text)

    @pytest.mark.parametrize(
        "values, name",
        [
            (dict(value1="false"), "layer1.dense_preprocess"),
            (dict(value2="maybe"), "layer2.dense_preprocess"),
        ],
    )
    def test_other_values_rejected(self, values, name):
        # descriptor_mode's case is TestValidation::test_descriptor_mode_checked
        text = _with_retired_keys(network_config_to_text(NetworkConfig()), **values)
        with pytest.raises(FormatError, match=re.escape(name) + ".*removed"):
            network_config_from_text(text)


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
        assert exp.network_paths == (str(tmp_path / "a.ini"), str(tmp_path / "sub/b.ini"))
        assert exp.folds == (0, 3, 9)

    def test_folds_all(self, tmp_path):
        path = self._write(tmp_path, "[experiment]\nnetworks = a.ini\n")
        assert load_experiment_config(path).folds == tuple(range(10))

    def test_folds_space_separated(self, tmp_path):
        path = self._write(tmp_path, "[experiment]\nnetworks = a.ini\nfolds = 0 1 2\n")
        assert load_experiment_config(path).folds == (0, 1, 2)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError):
            load_experiment_config(tmp_path / "nope.ini")

    def test_no_networks(self, tmp_path):
        path = self._write(tmp_path, "[experiment]\nnetworks =\n")
        with pytest.raises(FormatError):
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
        exp = ExperimentConfig(name="e", network_paths=("a",), folds=(0,))
        assert exp.folds == (0,)
