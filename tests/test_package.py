"""The package's shape: `import metroq` itself only sets the BLAS default,
every name is imported from its own module, and no module keeps an import it
does not use."""

import ast
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import metroq

from helpers import child_env

MODULES = sorted(p for p in Path(metroq.__file__).parent.glob("*.py") if p.name != "__init__.py")


def test_package_reexports_nothing():
    assert not [name for name, value in vars(metroq).items()
                if inspect.isfunction(value) or inspect.isclass(value)]


def test_module_import_loads_only_its_own_dependencies():
    code = ("import metroq.linalg, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'metroq'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=child_env())
    assert proc.stdout.strip() == "['metroq', 'metroq.linalg']"


def _unused_imports(tree: ast.Module) -> set[str]:
    """Names bound by an import statement but never loaded in the module."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_unused_import_finder_sees_an_orphan():
    tree = ast.parse("import math\nimport os.path\nfrom .linalg import kron, vec\nvec(os.sep)\n")
    assert _unused_imports(tree) == {"math", "kron"}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_has_no_unused_import(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == set()
