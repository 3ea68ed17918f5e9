"""Source checks on ``onoffchain``: no rule of the package, nor of the
oracle helper ``tests/core_reference.py``, may depend on whether Python
runs with ``-O``, which strips ``assert`` statements and sets
``__debug__`` and ``sys.flags.optimize``; the package imports nothing
beyond the standard library and its declared dependencies; and it never
sets mpmath's global precision, so every width is scoped by ``workprec``
and none leaks to the caller; and every random draw comes from a seeded
generator."""

import ast
import sys
from pathlib import Path

import onoffchain

# the dependencies declared in pyproject.toml, and the package itself
_ALLOWED_IMPORTS = sys.stdlib_module_names | {"numpy", "mpmath", "onoffchain"}


def _modules() -> list[Path]:
    modules = sorted(Path(onoffchain.__file__).parent.glob("*.py"))
    assert len(modules) >= 8
    return modules


def _optimize_dependent(source: str) -> list[tuple[int, str]]:
    """(line, construct) for each ``assert``, ``__debug__`` and read of
    ``sys.flags.optimize`` (or of ``flags.optimize``) in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assert):
            found.append((node.lineno, "assert"))
        elif isinstance(node, ast.Name) and node.id == "__debug__":
            found.append((node.lineno, "__debug__"))
        elif isinstance(node, ast.Attribute) and node.attr == "optimize" and (
                isinstance(node.value, ast.Attribute) and node.value.attr == "flags"
                or isinstance(node.value, ast.Name) and node.value.id == "flags"):
            found.append((node.lineno, "flags.optimize"))
    return found


def _undeclared_imports(source: str) -> list[tuple[int, str]]:
    """(line, top-level module) for each absolute import in ``source`` that
    is neither in the standard library nor allowed in ``_ALLOWED_IMPORTS``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found.extend((node.lineno, top) for name in names
                     if (top := name.partition(".")[0]) not in _ALLOWED_IMPORTS)
    return found


def _global_precision_writes(source: str) -> list[tuple[int, str]]:
    """(line, target) for each assignment, plain or augmented, to the
    ``prec`` or ``dps`` of mpmath's context ``mp`` (as ``mp.prec`` or
    ``mpmath.mp.dps``) in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        found.extend((node.lineno, ast.unparse(t)) for t in targets
                     if isinstance(t, ast.Attribute) and t.attr in ("prec", "dps")
                     and (isinstance(t.value, ast.Name) and t.value.id == "mp"
                          or isinstance(t.value, ast.Attribute) and t.value.attr == "mp"))
    return found


# the numpy.random names that draw only from a given key or seed
_SEEDED_DRAWS = {"Philox", "Generator", "default_rng"}


def _unseeded_draws(source: str) -> list[tuple[int, str]]:
    """(line, construct) for each import of the ``random`` module, each
    ``np.random.<name>`` or ``numpy.random.<name>`` outside ``_SEEDED_DRAWS``,
    and each ``default_rng()`` call with no seed, in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Import) and any(a.name == "random" for a in node.names)
                or isinstance(node, ast.ImportFrom) and node.module == "random"):
            found.append((node.lineno, "import random"))
        elif (isinstance(node, ast.Attribute) and node.attr not in _SEEDED_DRAWS
              and isinstance(node.value, ast.Attribute) and node.value.attr == "random"
              and isinstance(node.value.value, ast.Name)
              and node.value.value.id in ("np", "numpy")):
            found.append((node.lineno, ast.unparse(node)))
        elif (isinstance(node, ast.Call) and not (node.args or node.keywords)
              and "default_rng" in (getattr(node.func, "id", None),
                                    getattr(node.func, "attr", None))):
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_no_module_depends_on_python_optimize():
    planted = ("assert x\nif __debug__:\n    pass\nimport sys\ny = sys.flags.optimize\n"
               "from sys import flags\nz = flags.optimize\n")
    assert [c for _, c in _optimize_dependent(planted)] == [
        "assert", "__debug__", "flags.optimize", "flags.optimize"]
    # pytest rewrites asserts only in test modules, so an assert in the oracle
    # helper module would vanish silently under python -O, as in the package
    helper = Path(__file__).with_name("core_reference.py")
    found = {path.name: hits for path in _modules() + [helper]
             if (hits := _optimize_dependent(path.read_text()))}
    assert found == {}


def test_imports_only_declared_dependencies():
    # scipy and sympy may be installed, but pyproject declares numpy and mpmath
    planted = ("import math, scipy\nimport numpy.linalg\nfrom sympy.core import S\n"
               "from . import core\nfrom mpmath import mpf\nimport onoffchain.sim\n")
    assert _undeclared_imports(planted) == [(1, "scipy"), (3, "sympy")]
    found = {path.name: hits for path in _modules()
             if (hits := _undeclared_imports(path.read_text()))}
    assert found == {}


def test_no_module_sets_global_mpmath_precision():
    planted = ("import mpmath\nfrom mpmath import mp\nmp.prec = 200\nmpmath.mp.dps += 5\n"
               "mp.dps: int = 30\nwith mpmath.workprec(80):\n    x = mpmath.mpf(1)\n"
               "y = mp.prec\nctx.prec = 53\n")
    assert _global_precision_writes(planted) == [
        (3, "mp.prec"), (4, "mpmath.mp.dps"), (5, "mp.dps")]
    found = {path.name: hits for path in _modules()
             if (hits := _global_precision_writes(path.read_text()))}
    assert found == {}


def test_every_draw_is_seeded():
    planted = ("import random\nfrom random import random as r\nimport numpy as np\n"
               "x = np.random.rand(3)\ng = np.random.default_rng()\n"
               "h = np.random.default_rng(7)\nb = np.random.Philox(key=[0, 0])\n"
               "y = numpy.random.normal()\nfrom numpy.random import default_rng\n"
               "z = default_rng()\nw = np.random.Generator(b).random()\n")
    assert _unseeded_draws(planted) == [
        (1, "import random"), (2, "import random"), (4, "np.random.rand"),
        (5, "np.random.default_rng()"), (8, "numpy.random.normal"), (10, "default_rng()")]
    found = {path.name: hits for path in _modules()
             if (hits := _unseeded_draws(path.read_text()))}
    assert found == {}
