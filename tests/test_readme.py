"""README drift: the names and commands it shows must exist in the package."""

import argparse
import ast
import importlib
import re
from pathlib import Path

import numpy as np
import pytest

import cdfnet
from cdfnet.cli import build_parser
from cdfnet.config import network_config_to_text
from cdfnet.layer import FilterBank
from cdfnet.layer import make_groups
from cdfnet.model_io import read_container
from cdfnet.tensor import SeededRng

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


def _python_imports():
    names = []
    for block in _blocks("python"):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "cdfnet":
                names.extend(alias.name for alias in node.names)
    return names


def _sh_commands():
    """(subcommand, its --flags) for each `cdfnet <sub>` line of the sh blocks."""
    found = []
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            command = line.split("#", 1)[0].strip()
            match = re.match(r"cdfnet\s+(\S+)(.*)", command)
            if match:
                found.append((match.group(1), re.findall(r"(?<!\S)(--[\w-]+)", match.group(2))))
    return found


def _prose_flags():
    """The --flags named in backticks outside the code blocks."""
    prose = re.sub(r"^```.*?^```", "", README, flags=re.M | re.S)
    spans = re.findall(r"`([^`\n]+)`", prose)
    return sorted({flag for span in spans for flag in re.findall(r"(?<![\w-])--[\w-]+", span)})


def _sh_subcommands():
    return [command for command, _ in _sh_commands()]


def _parser_subcommands():
    """Subcommand name -> its parser."""
    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    raise AssertionError("cdfnet parser has no subcommands")


def test_readme_has_examples():
    assert _python_imports() and _sh_subcommands()
    assert any(flags for _, flags in _sh_commands())
    assert _prose_flags()


@pytest.mark.parametrize("name", sorted(set(_python_imports())))
def test_python_import_is_exported(name):
    assert name in cdfnet.__all__
    assert hasattr(cdfnet, name)


@pytest.mark.parametrize("command", sorted(set(_sh_subcommands())))
def test_sh_subcommand_exists(command):
    assert command in _parser_subcommands()


@pytest.mark.parametrize(
    "command, flag", sorted({(c, f) for c, flags in _sh_commands() for f in flags})
)
def test_sh_flag_is_an_option(command, flag):
    parser = _parser_subcommands().get(command)
    assert parser is not None and flag in parser._option_string_actions, (command, flag)


@pytest.mark.parametrize("flag", _prose_flags())
def test_prose_flag_is_an_option(flag):
    parsers = [build_parser(), *_parser_subcommands().values()]
    assert any(flag in parser._option_string_actions for parser in parsers), flag


def _parser_options():
    """(subcommand, option) for every option of every subcommand, help aside,
    and ("", option) for those of cdfnet itself."""
    parsers = {"": build_parser(), **_parser_subcommands()}
    return sorted(
        (command, option)
        for command, parser in parsers.items()
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
    )


@pytest.mark.parametrize("command, option", _parser_options())
def test_option_is_documented(command, option):
    # the reverse of the tests above: README names every option the CLI takes
    assert re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", README), (command, option)


@pytest.mark.parametrize("ref", sorted(set(re.findall(r"`cdfnet((?:\.\w+)+)", README))))
def test_dotted_reference_resolves(ref):
    # the longest prefix that imports as a module, then attributes, so README
    # can name a class's method as well as a module's function
    parts = f"cdfnet{ref}".split(".")
    for cut in range(len(parts), 0, -1):
        module = ".".join(parts[:cut])
        try:
            obj = importlib.import_module(module)
            break
        except ModuleNotFoundError as exc:  # the name itself, not an import inside it
            if not f"{module}.".startswith(f"{exc.name}."):
                raise
    for name in parts[cut:]:
        assert hasattr(obj, name), f"cdfnet{ref}"
        obj = getattr(obj, name)


def test_all_names_exist():
    missing = [name for name in cdfnet.__all__ if not hasattr(cdfnet, name)]
    assert not missing


def test_model_tensor_list_is_what_save_model_writes(tmp_path):
    # README "File formats" names every tensor of a model container in full
    listed = re.search(r"A model holds \w+ tensors: (.*?)\.\s", README, flags=re.S)
    assert listed, "README lists no model tensors"
    names = re.findall(r"`([^`]+)`", listed.group(1))
    cfg = cdfnet.NetworkConfig()
    l1, l2 = cfg.layer1, cfg.layer2
    d1, d2 = l1.patch_side**2, l2.patch_side**2 * l2.group_size
    groups = make_groups(l1.filters, l2.group_size, SeededRng(0))
    g = len(groups)
    model = cdfnet.NetworkModel(
        cfg,
        FilterBank(np.ones((d1, l1.filters)), np.zeros(l1.filters)),
        groups,
        FilterBank(np.ones((g, d2, l2.filters_per_group)), np.zeros((g, l2.filters_per_group))),
        (96, 96),
    )
    cdfnet.save_model(tmp_path / "m.model", model)
    assert names == list(read_container(tmp_path / "m.model")[0])


def test_svm_tensor_list_is_what_save_svm_writes(tmp_path):
    # README "File formats" names every tensor of an SVM container in full
    listed = re.search(r"An SVM holds \w+ tensors: (.*?)\.\s", README, flags=re.S)
    assert listed, "README lists no SVM tensors"
    names = re.findall(r"`([^`]+)`", listed.group(1))
    svm = cdfnet.SvmModel(weights=np.ones((2, 3)), biases=np.zeros(2))
    cdfnet.save_svm(tmp_path / "m.svm", svm)
    assert names == list(read_container(tmp_path / "m.svm")[0])


def test_config_section_list_is_what_the_writer_writes():
    # README "Configs" names every section of a network config
    listed = re.search(r"A config is a plain INI file\s+with (.*?) sections", README, flags=re.S)
    assert listed, "README lists no config sections"
    names = re.findall(r"`\[(\w+)\]`", listed.group(1))
    text = network_config_to_text(cdfnet.NetworkConfig())
    assert names == re.findall(r"^\[(\w+)\]$", text, flags=re.M)


def test_checked_values_are_config_keys():
    # README "Configs" names each checked setting by its INI key
    bullet = re.search(r"^- Values are checked when the config is built(.*?)^- ", README,
                       flags=re.M | re.S)
    assert bullet, "README lists no checked values"
    names = re.findall(r"`([a-z_]+)`", bullet.group(1))
    keys = re.findall(r"^(\w+) = ", network_config_to_text(cdfnet.NetworkConfig()), flags=re.M)
    assert names and not set(names) - set(keys)
