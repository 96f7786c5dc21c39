"""Source hygiene of the package modules, read as syntax trees."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pgcodes"


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """The names a module's imports bind, with the line of each; the
    __future__ flags bind none."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.AST) -> set[str]:
    """Every name a module reads: in code, in quoted annotations, and the
    strings of its __all__."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            annotations = [a.annotation for a in every if a is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for note in filter(None, annotations):
            for part in ast.walk(note):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used |= _used_names(ast.parse(part.value, mode="eval"))
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return used


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    imported = _imported_names(tree).items()
    unused = [f"{name} (line {line})" for name, line in imported if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_an_unused_import_is_found():
    tree = ast.parse(
        "import os\nimport numpy as np\nfrom typing import Optional, Sequence\n"
        "from .geometry import theta\n"
        "def f(x: 'Optional[int]') -> Sequence:\n    return np.zeros(x)\n"
        "__all__ = ['theta']\n"
    )
    assert sorted(set(_imported_names(tree)) - _used_names(tree)) == ["os"]
