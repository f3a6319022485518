"""No module of the package imports a name it never uses.

``__init__.py`` is left out: its imports are the exports it lists.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cdfnet"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """The names that source's import statements bind and nothing else reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_modules_are_found():
    assert "cli.py" in MODULES and "pipeline.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    assert _unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "import configparser\nimport os\nfrom .svm import DEFAULT_REG_C, score_many\n"
    source += "os.getcwd()\nscore_many()\n"
    assert _unused_imports(source) == ["configparser (line 1)", "DEFAULT_REG_C (line 3)"]
