"""Every name a module imports is used in that module, and no module
reaches into numpy's private modules or names.

No linter ships with the project, so this parses each module with ast. A
package __init__ imports names to re-export them, so it is skipped by the
unused-import check.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "slopetrot"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_check_flags_an_unused_name():
    source = "import math\nfrom os import path, sep\nprint(math.pi, sep)\n"
    assert unused_imports(source) == [(2, "path")]


def _private(segment: str) -> bool:
    return segment.startswith("_") and not segment.endswith("__")


def private_numpy_uses(source: str) -> list:
    """(line, dotted name) for each private numpy module or name the
    source imports or reaches through a numpy module's attributes: one
    with a path segment or name that starts with an underscore. Private
    numpy APIs change without notice between releases."""
    tree = ast.parse(source)
    numpy_names = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] != "numpy":
                    continue
                numpy_names.add(alias.asname or parts[0])
                if any(map(_private, parts)):
                    found.append((node.lineno, alias.name))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            parts = node.module.split(".")
            for alias in node.names:
                if any(map(_private, parts + [alias.name])):
                    found.append((node.lineno, f"{node.module}.{alias.name}"))
                else:
                    numpy_names.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            chain = [node.attr]
            base = node.value
            while isinstance(base, ast.Attribute):
                chain.append(base.attr)
                base = base.value
            if isinstance(base, ast.Name) and base.id in numpy_names:
                found.append((node.lineno, ".".join([base.id] + chain[::-1])))
    return sorted(found)


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_private_numpy(path):
    assert private_numpy_uses(path.read_text()) == []


def test_check_flags_private_numpy():
    source = (
        "import numpy as np\n"
        "import numpy.linalg._umath_linalg\n"
        "from numpy.linalg import _umath_linalg as ul, inv\n"
        "from numpy._core import multiarray\n"
        "x = np.linalg._umath_linalg.inv\n"
        "y = np.linalg.inv, np.__version__, inv, ul, multiarray\n"
    )
    assert private_numpy_uses(source) == [
        (2, "numpy.linalg._umath_linalg"),
        (3, "numpy.linalg._umath_linalg"),
        (4, "numpy._core.multiarray"),
        (5, "np.linalg._umath_linalg"),
    ]
