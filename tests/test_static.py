"""Source checks on ``onoffchain``: no rule of the package may depend on
whether Python runs with ``-O``, which strips ``assert`` statements and sets
``__debug__`` and ``sys.flags.optimize``."""

import ast
from pathlib import Path

import onoffchain


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


def test_no_module_depends_on_python_optimize():
    planted = ("assert x\nif __debug__:\n    pass\nimport sys\ny = sys.flags.optimize\n"
               "from sys import flags\nz = flags.optimize\n")
    assert [c for _, c in _optimize_dependent(planted)] == [
        "assert", "__debug__", "flags.optimize", "flags.optimize"]
    modules = sorted(Path(onoffchain.__file__).parent.glob("*.py"))
    assert len(modules) >= 8
    found = {path.name: hits for path in modules
             if (hits := _optimize_dependent(path.read_text()))}
    assert found == {}
