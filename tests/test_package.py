"""The package's shape: `import metroq` itself only sets the BLAS default,
every name is imported from its own module, no module, of the package or of
the tests, keeps an import it does not use, and no package module keeps a
private name it never reads or a cache without a bound."""

import ast
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import metroq
from metroq import equivalence

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


# Each subcommand's argv, and the layers it runs besides cli and the states
# and linalg that cli imports itself.  cli registers the others lazily: their
# source runs on a command's first read of them.
LAYERS_RUN = {
    "noon": (["noon", "--n", "2"], {"fock"}),
    "fisher": (["fisher", "--n-values", "1,2"], {"information"}),
    "frequency": (["frequency", "--gamma", "1"], {"information"}),
    "noise": (["noise", "--channel", "dephasing", "--p", "0.1"], {"channels", "equivalence"}),
    "verify": (["verify", "--n-max", "2"], {"equivalence", "channels", "information"}),
    "scaling": (["scaling", "--rounds", "50", "--seed", "0", "--out", "x.csv"],
                {"simulate", "information"}),
}


@pytest.mark.parametrize("command", sorted(LAYERS_RUN))
def test_a_command_runs_only_the_layers_it_reads(tmp_path, command):
    # a layer has run when its own namespace holds __builtins__; that dict is
    # read with object.__getattribute__, which runs no lazy module
    argv, layers = LAYERS_RUN[command]
    code = ("import contextlib, io, sys\n"
            "from metroq import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    exit_code = cli.main({argv!r})\n"
            "ran = [name for name, m in sys.modules.items() if name.startswith('metroq.')\n"
            "       and '__builtins__' in object.__getattribute__(m, '__dict__')]\n"
            "print(exit_code, ' '.join(sorted(ran)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=child_env(), cwd=tmp_path)
    exit_code, *ran = proc.stdout.split()
    assert exit_code == "0"
    assert set(ran) == {f"metroq.{name}" for name in {"cli", "linalg", "states"} | layers}


def test_in_process_main_freezes_nothing():
    # gc.freeze is the cold entrypoint's alone: a test suite or a benchmark's
    # warm loop that imports metroq.cli and calls main keeps its collector
    code = ("import contextlib, gc, io, metroq.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    metroq.cli.main(['noise', '--channel', 'dephasing', '--p', '0.1'])\n"
            "print(gc.get_freeze_count())")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=child_env())
    assert proc.stdout.strip() == "0"


def test_entrypoint_runs_main_on_a_frozen_import_graph():
    # main, patched to report, finds numpy's and metroq.cli's namespaces in
    # the permanent generation, where no collection walks them, not even
    # the interpreter's passes at exit
    code = ("import gc, numpy, metroq.cli as cli\n"
            "def main(argv=None):\n"
            "    walked = {id(o) for o in gc.get_objects()}\n"
            "    print(gc.get_freeze_count(), id(vars(numpy)) in walked, id(vars(cli)) in walked)\n"
            "    return 0\n"
            "cli.main = main\n"
            "cli.entrypoint()")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=child_env())
    frozen, numpy_walked, cli_walked = proc.stdout.split()
    assert int(frozen) > 0
    assert numpy_walked == cli_walked == "False"


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
    # crb takes the entangled QFI on the GHZ support, the N0/NOON probe is the
    # + state of plus_minus_states, and the fock certificates grade the qubit
    # side on its support
    assert not {"ghz_register", "ghz_like"} & _module_names("information")
    assert not {"ghz_register", "ghz_like"} & _module_names("fock")


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


def test_no_module_calls_object_new():
    # each frozen value type has one constructor: an instance made by
    # __new__ would skip its __post_init__ and the array rule in it
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert "__new__" not in _referenced_names(tree), path.name


def test_no_module_defines_support_columns():
    # the +- columns are the same for every generator: one module constant,
    # no per-generator cache
    for path in PACKAGE.glob("*.py"):
        assert "_support_columns" not in _defined_names(ast.parse(path.read_text(encoding="utf-8")))


def test_certificate_functions_take_no_generator():
    # a certificate grades two-entry supports against two-entry references
    for fn in (equivalence._certificate, equivalence._support_branch_amplitudes):
        params = inspect.signature(fn).parameters.values()
        assert not [p for p in params if p.name == "h" or "Generator" in str(p.annotation)]


def _function(module: str, name: str) -> ast.FunctionDef:
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    return next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_every_strategy_starts_from_the_ghz_support():
    # the sequential and classical probe is the one-probe GHZ support too, and
    # every strategy's boxes are one ghz_phase_support evolution: simulate
    # builds no box of its own, and the success probability reads no kind
    assert not {"plus_minus_states", "phase_box"} & _module_names("simulate")
    success = _referenced_names(_function("simulate", "strategy_success_probability"))
    assert not {"StrategyKind", "kind"} & success


def _is_zero_phase_list(node) -> bool:
    """A list or tuple of literal zeros, alone or repeated by `*`."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return _is_zero_phase_list(node.left) or _is_zero_phase_list(node.right)
    return (isinstance(node, (ast.List, ast.Tuple)) and bool(node.elts)
            and all(isinstance(e, ast.Constant) and e.value == 0 for e in node.elts))


def _zero_phase_evolutions(tree: ast.Module) -> set[str]:
    """Calls of ghz_phase_support whose phases are literal zeros: the start
    support built by evolving it."""
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        phis = node.args[1:2] + [k.value for k in node.keywords if k.arg == "phis"]
        if name == "ghz_phase_support" and phis and _is_zero_phase_list(phis[0]):
            found.add(f"line {node.lineno}")
    return found


def test_zero_phase_finder_sees_an_orphan():
    tree = ast.parse("ghz_phase_support(h, [0.0], lam)\n"
                     "states.ghz_phase_support(q, [0.0] * n)\n"
                     "ghz_phase_support(h, phis=(0, 0.0))\n"
                     "ghz_phase_support(h, n * [0])\n"
                     "ghz_phase_support(h, [phi] * n)\n"
                     "ghz_phase_support(h, [0.0, phi])\n"
                     "ghz_support(0.0)\n")
    assert _zero_phase_evolutions(tree) == {"line 1", "line 2", "line 3", "line 4"}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_evolves_a_zero_phase_for_a_start(path):
    # a start is states.ghz_support, the same for every generator and N
    assert _zero_phase_evolutions(ast.parse(path.read_text(encoding="utf-8"))) == set()


def _unread_private_names(tree: ast.Module) -> set[str]:
    """Private module-level functions, classes and constants that the module
    never reads."""
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return {name for name in defined
            if name.startswith("_") and not name.startswith("__")} - read


def test_unread_private_name_finder_sees_an_orphan():
    tree = ast.parse("_A, _B = 1, 2\n_C: int = 3\n__all__ = []\n"
                     "def _used():\n    return _A\n"
                     "def _orphan():\n    _local = 1\n    return _local\n"
                     "class _Gone:\n    pass\n"
                     "def public():\n    return _used() + _C\n")
    assert _unread_private_names(tree) == {"_B", "_orphan", "_Gone"}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_keeps_no_unread_private_name(path):
    assert _unread_private_names(ast.parse(path.read_text(encoding="utf-8"))) == set()


def _public_definitions(tree: ast.Module) -> set[str]:
    """Public module-level functions and classes, and the public methods and
    properties of those classes, as name or Class.name."""
    found = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        if isinstance(node, ast.ClassDef):
            found.update(f"{node.name}.{item.name}" for item in node.body
                         if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return {name for name in found if not name.split(".")[-1].startswith("_")}


def _unread_public_names(trees: dict[str, ast.Module]) -> set[str]:
    """module.name of each public definition that no module of trees reads."""
    read = set().union(*map(_referenced_names, trees.values()))
    return {f"{module}.{name}" for module, tree in trees.items()
            for name in _public_definitions(tree) if name.split(".")[-1] not in read}


def test_unread_public_name_finder_sees_an_orphan():
    trees = {
        "a": ast.parse("def used():\n    return 1\n"
                       "def orphan():\n    return used()\n"
                       "def _private():\n    pass\n"
                       "class Kept:\n    def __init__(self):\n        pass\n"
                       "    def method(self):\n        return 1\n"
                       "    @property\n    def gone(self):\n        return 2\n"),
        "b": ast.parse("from .a import Kept\nKept().method()\n"),
    }
    assert _unread_public_names(trees) == {"a.orphan", "a.Kept.gone"}


# Public names that no package code reads, each with the reader it has instead.
UNREAD_PUBLIC_NAMES = {
    # perfbench's _count_branches hook counts branches by it (ROADMAP item 1)
    "equivalence.ConversionCertificate.records",
}


def test_every_public_name_has_a_package_reader():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    unread = _unread_public_names(trees)
    # cli._run looks each subcommand's handler up by name
    unread = {name for name in unread if not name.startswith("cli.cmd_")}
    assert unread == UNREAD_PUBLIC_NAMES


FUNCTOOLS_CACHES = {"cache", "lru_cache"}


def _unbounded_caches(tree: ast.Module) -> set[str]:
    """Uses of functools' caches that can grow without bound: lru_cache with
    no integer maxsize (None, or left to its default), cache on a function
    that takes arguments, or either one outside a decorator."""
    imported = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "functools"
                for alias in node.names if alias.name in FUNCTOOLS_CACHES}

    def cache_name(node):
        if (isinstance(node, ast.Attribute) and node.attr in FUNCTOOLS_CACHES
                and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            return node.attr
        if isinstance(node, ast.Name):
            return imported.get(node.id)
        return None

    bounded = set()  # ids of the name nodes of bounded cache decorators
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in fn.decorator_list:
            name = dec.func if isinstance(dec, ast.Call) else dec
            if cache_name(name) == "cache" and name is dec:
                a = fn.args
                if not (a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg):
                    bounded.add(id(name))
            elif cache_name(name) == "lru_cache" and name is not dec:
                sizes = dec.args[:1] + [k.value for k in dec.keywords if k.arg == "maxsize"]
                if sizes and not (isinstance(sizes[0], ast.Constant)
                                  and not isinstance(sizes[0].value, int)):
                    bounded.add(id(name))
    return {f"line {node.lineno}" for node in ast.walk(tree)
            if cache_name(node) and id(node) not in bounded}


def test_unbounded_cache_finder_sees_an_unbounded_cache():
    tree = ast.parse(
        "import functools\nfrom functools import lru_cache as memo\n"
        "@functools.lru_cache(maxsize=None)\ndef a(x):\n    return x\n"  # line 3
        "@functools.cache\ndef b(x):\n    return x\n"  # line 6
        "@memo\ndef c(x):\n    return x\n"  # line 9
        "d = functools.lru_cache(maxsize=4)(len)\n"  # line 12
        "@functools.lru_cache(maxsize=2 * N)\ndef e(x):\n    return x\n"
        "@memo(4)\ndef f(x):\n    return x\n"
        "@functools.cache\ndef g():\n    return 1\n"
        "from functools import cache as keep\n"
        "@keep\ndef h(x):\n    return x\n")  # line 23
    assert _unbounded_caches(tree) == {"line 3", "line 6", "line 9", "line 12", "line 23"}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_cache_is_bounded(path):
    # a cache that grows with its inputs would hold every lam or generator
    # a long-lived process ever passed
    assert _unbounded_caches(ast.parse(path.read_text(encoding="utf-8"))) == set()
