"""The names the demos and the benchmark scripts import from fisherhash exist.

The scripts are parsed, not run: a deletion from the package that breaks
one of them fails here, in milliseconds, rather than when it is next run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import fisherhash

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted([*ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py")])


def fisherhash_imports(path):
    """(module, name) for each `from fisherhash... import name` in a script,
    and (module, None) for each plain `import fisherhash...`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom) and not node.level and node.module \
                and node.module.split(".")[0] == "fisherhash":
            found.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.extend((alias.name, None) for alias in node.names
                         if alias.name.split(".")[0] == "fisherhash")
    return found


def resolves(module_name, name):
    if importlib.util.find_spec(module_name) is None:
        return False
    module = importlib.import_module(module_name)
    if name is None or hasattr(module, name):
        return True
    # A submodule, as in `from fisherhash import cli`, that nothing has imported yet.
    return (hasattr(module, "__path__")
            and importlib.util.find_spec(f"{module_name}.{name}") is not None)


def test_scripts_are_found():
    assert {p.parent.name for p in SCRIPTS} == {"demos", "perfbench"}
    assert any(fisherhash_imports(p) for p in SCRIPTS if p.parent.name == "perfbench")


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_fisherhash_import_of_a_script_resolves(path):
    missing = [f"{module}.{name}" for module, name in fisherhash_imports(path)
               if not resolves(module, name)]
    assert not missing, f"{path.name} imports names that do not exist: {missing}"


def test_every_exported_name_resolves():
    missing = [name for name in fisherhash.__all__ if not hasattr(fisherhash, name)]
    assert not missing
