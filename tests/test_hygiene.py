"""Source hygiene: no module under src/coexsim, tests or tools imports a name
it never uses, no function, class or annotated field under src/coexsim goes
unreferenced, and no public one is referenced from the tests alone."""

import ast
from collections import Counter
from pathlib import Path
import re

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "coexsim"
MODULES = sorted(p for d in (SRC, ROOT / "tests", ROOT / "tools") for p in d.rglob("*.py")
                 if p.name != "__init__.py")


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


# A package module is named by its path in the package, any other by its path
# in the repository.
@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(SRC if SRC in p.parents else ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def defined_names(source: str) -> Counter:
    """Functions, classes and annotated class fields defined in ``source``,
    dunder methods aside, with how often each is defined."""
    names = Counter()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] += 1
        if isinstance(node, ast.ClassDef):
            names.update(item.target.id for item in node.body
                         if isinstance(item, ast.AnnAssign)
                         and isinstance(item.target, ast.Name))
    return Counter({n: k for n, k in names.items()
                    if not (n.startswith("__") and n.endswith("__"))})


def unreferenced(defined: Counter, texts) -> list[str]:
    """Names whose every occurrence as a word in ``texts`` is a definition."""
    words = Counter(w for text in texts for w in re.findall(r"\w+", text))
    return sorted(n for n, k in defined.items() if words[n] <= k)


def test_unreferenced_scanner_flags_only_the_lonely_name():
    source = ("class A:\n    x: int = 0\n    lonely: int = 1\n"
              "    def __init__(self):\n        pass\n"
              "    def used(self):\n        return self.x\n"
              "def orphan():\n    pass\n")
    defined = defined_names(source)
    assert unreferenced(defined, [source, "A().used()"]) == ["lonely", "orphan"]


def test_no_unreferenced_definitions():
    defined = sum((defined_names(p.read_text()) for p in SRC.rglob("*.py")), Counter())
    texts = [p.read_text() for d in ("src", "tests", "perfbench")
             for p in (ROOT / d).rglob("*.py")]
    assert unreferenced(defined, texts) == []


# Public names that only tests read, on purpose: criterion 2's closed-form SINR.
TEST_ONLY_PUBLIC = {"compute_sinr"}


def test_no_public_definition_only_tests_reference():
    defined = sum((defined_names(p.read_text()) for p in SRC.rglob("*.py")), Counter())
    public = Counter({n: k for n, k in defined.items() if not n.startswith("_")})
    assert TEST_ONLY_PUBLIC <= set(public)
    texts = [p.read_text() for d in ("src", "tools", "perfbench")
             for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py"]
    assert [n for n in unreferenced(public, texts) if n not in TEST_ONLY_PUBLIC] == []
