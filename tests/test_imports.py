"""Import hygiene: every top-level import in a library module is used,
and scipy is imported in one module only.

A module-level import counts as used when the module refers to the
bound name anywhere (code or annotation) or lists it in ``__all__``.
``__init__.py`` is exempt: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tanbun"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> list:
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name.split(".")[0], node.lineno)
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [(a.asname or a.name, node.lineno) for a in node.names]
    return names


def _exported(tree: ast.Module) -> set:
    out = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            out |= {c.value for c in ast.walk(node.value)
                    if isinstance(c, ast.Constant)}
    return out


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _exported(tree)
    return [f"{path.name}:{line}: {name}"
            for name, line in _imported_names(tree) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path) == []


def _scipy_imports(tree: ast.Module) -> list:
    mods = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            mods += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            mods.append(node.module)
    return [m for m in mods if m.split(".")[0] == "scipy"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.stem)
def test_only_universal_imports_scipy(path):
    # universal.collapse_search is the one Nelder-Mead search, and
    # bench/tracer.py times it through universal.minimize
    found = _scipy_imports(ast.parse(path.read_text(), filename=str(path)))
    assert found == (["scipy.optimize"] if path.stem == "universal" else [])
