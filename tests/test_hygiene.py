"""Source hygiene: no module under src/coexsim imports a name it never uses."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "coexsim"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def _string_annotation_names(tree: ast.AST):
    """Names inside quoted annotations such as ``-> "ClassifierModel"``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        else:
            continue
        for part in ast.walk(annotation) if annotation is not None else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                expr = ast.parse(part.value, mode="eval")
                yield from (n.id for n in ast.walk(expr) if isinstance(n, ast.Name))


def unused_imports(source: str) -> list[str]:
    """Names bound by imports in ``source`` that no other node references."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_string_annotation_names(tree))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_scanner_flags_unused_and_spares_used():
    source = ("from __future__ import annotations\n"
              "from dataclasses import dataclass, field\n"
              "import numpy as np\nimport os.path\nimport sys\n"
              "x: 'np.ndarray' = 'sys'\n"
              "@dataclass\nclass A:\n    pass\n")
    assert unused_imports(source) == ["field (line 2)", "os (line 4)", "sys (line 5)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
