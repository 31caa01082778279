"""The package's shape: `import metroq` itself only sets the BLAS default,
every name is imported from its own module, and no module, of the package or
of the tests, keeps an import it does not use."""

import ast
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import metroq

from helpers import child_env

PACKAGE = Path(metroq.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# the test modules too: a name moved into tests/helpers.py moves its imports
TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))


def test_package_reexports_nothing():
    assert not [name for name, value in vars(metroq).items()
                if inspect.isfunction(value) or inspect.isclass(value)]


def test_module_import_loads_only_its_own_dependencies():
    code = ("import metroq.linalg, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'metroq'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=child_env())
    assert proc.stdout.strip() == "['metroq', 'metroq.linalg']"


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy.random loads on the first draw.  A module-level SeedSequence,
    # Philox or pre-filled seed cache would load it at import, into the
    # start-up of every command, those that draw nothing included.
    code = "import metroq.cli, sys; print('numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=child_env())
    assert proc.stdout.strip() == "False"


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


@pytest.mark.parametrize("path", MODULES + TEST_MODULES,
                         ids=[p.name for p in MODULES + TEST_MODULES])
def test_module_has_no_unused_import(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == set()


def _exponentiating_functions(tree: ast.Module) -> set[str]:
    """Functions that both call an `exp` and read an `.eigenvalues` attribute:
    the ones that exponentiate a generator's eigenvalues themselves."""
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        nodes = list(ast.walk(fn))
        calls_exp = any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                        and n.func.attr == "exp" for n in nodes)
        reads_eigenvalues = any(isinstance(n, ast.Attribute) and n.attr == "eigenvalues"
                                for n in nodes)
        if calls_exp and reads_eigenvalues:
            found.add(fn.name)
    return found


def test_exponent_finder_sees_a_hand_built_box():
    tree = ast.parse("def box(h, phi):\n    return np.diag(np.exp(1j * phi * h.eigenvalues))\n"
                     "def amplitude(lam):\n    return np.exp(1j * lam)\n")
    assert _exponentiating_functions(tree) == {"box"}


def test_phase_box_is_the_one_exponential_of_a_generator():
    found = {(path.stem, name) for path in MODULES
             for name in _exponentiating_functions(ast.parse(path.read_text(encoding="utf-8")))}
    assert found == {("states", "phase_box")}


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names a module imports, loads or reads as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_name_finder_sees_an_aliased_import_and_an_attribute_call():
    for code in ("from .states import ghz_register as put\n",
                 "states.ghz_register(h, n, support)\n"):
        assert "ghz_register" in _referenced_names(ast.parse(code))


def _module_names(name: str) -> set[str]:
    return _referenced_names(ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8")))


def test_certificates_build_no_register():
    # conversion certificates measure the GHZ support itself, so equivalence
    # names neither constructor of a whole d^N register
    assert not {"ghz_register", "ghz_like"} & _module_names("equivalence")


def test_monte_carlo_builds_no_register():
    # the entangled strategy is evolved and graded on its GHZ support
    assert not {"ghz_register", "ghz_like"} & _module_names("simulate")


def test_bounds_and_bosonic_probes_build_no_register():
    # crb takes the entangled QFI on the GHZ support, and the N0/NOON probe is
    # the + state of plus_minus_states
    assert not {"ghz_register", "ghz_like"} & _module_names("information")
    assert "ghz_register" not in _module_names("fock")


def _defined_names(tree: ast.Module) -> set[str]:
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_no_module_names_a_dense_phase_box():
    # a phase box is its diagonal, states.phase_box; the dense u_phi is only
    # a reference in the tests
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert "u_phi" not in _referenced_names(tree) | _defined_names(tree), path.name


def test_no_module_defines_ghz_register():
    # a support goes back on the register only in the tests' reference
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert "ghz_register" not in _defined_names(tree), path.name
