"""Source hygiene: no module under src/coexsim, tests or tools imports a name
it never uses, no function, class or annotated field under src/coexsim goes
unreferenced, no public one is used by the tests' code alone, and no
module-level constant under src/coexsim is left unread outside the tests."""

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


def code_references(source: str) -> Counter:
    """How often ``source``'s code names each identifier: as a name, an attribute,
    an imported name or its alias, a keyword argument, or inside a quoted
    annotation.  Docstrings, comments and other strings do not count."""
    refs = Counter(_string_annotation_names(ast.parse(source)))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs.update(n for n in (node.name, node.asname) if n)
        elif isinstance(node, ast.keyword) and node.arg:
            refs[node.arg] += 1
    return refs


def test_code_reference_scanner_ignores_words():
    source = ('"""gen_awgn is named here only in words."""\n'
              "from m import a, b as c\n"
              "x = obj.attr + f(kw=1)  # lonely\n"
              "def g() -> 'Model':\n    return 'literal'\n")
    refs = code_references(source)
    assert all(refs[n] for n in ("a", "b", "c", "obj", "attr", "f", "kw", "Model"))
    assert not any(refs[n] for n in ("gen_awgn", "lonely", "literal", "g"))


# Public names that no code outside the tests uses, on purpose, and why.
TEST_ONLY_PUBLIC = {
    "compute_sinr": "criterion 2's closed-form SINR",
    "measure_band_power": "criterion 1's band-power oracle",
    "gen_awgn": "a tracer target of perfbench/test_perfbench.py, until the benchmark "
                "stops tracing it",
    "error": "harness.cli._Parser.error, the hook argparse calls on a usage error",
}


def program_references() -> Counter:
    """``code_references`` summed over src/ (re-exports in __init__.py aside),
    tools/ and perfbench/'s non-test modules."""
    paths = [p for d in ("src", "tools", "perfbench") for p in (ROOT / d).rglob("*.py")
             if p.name != "__init__.py" and not p.name.startswith("test_")]
    return sum((code_references(p.read_text()) for p in paths), Counter())


def test_no_public_definition_only_tests_reference():
    """Every public function, class and annotated field is used by code in src/
    (re-exports in __init__.py aside), tools/ or perfbench/'s non-test modules."""
    defined = sum((defined_names(p.read_text()) for p in SRC.rglob("*.py")), Counter())
    public = {n for n in defined if not n.startswith("_")}
    assert set(TEST_ONLY_PUBLIC) <= public
    refs = program_references()
    assert sorted(n for n in public if not refs[n] and n not in TEST_ONLY_PUBLIC) == []


def module_constants(source: str) -> Counter:
    """Module-level UPPER_CASE names that ``source`` assigns, private ones too,
    with how often each is assigned."""
    names = Counter()
    for node in ast.parse(source).body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        names.update(n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", n.id))
    return names


def unread(constants: Counter, refs: Counter) -> list[str]:
    """Constants that ``refs`` names no more often than they are assigned."""
    return sorted(n for n, k in constants.items() if refs[n] <= k)


def test_module_constant_scanner_flags_only_unread():
    source = ("import m\nA = 1\n_B: int = 2\nC, D = 3, 4\nlower = 5\n"
              "def f():\n    E = 6\n    return A + m.D + E\n")
    constants = module_constants(source)
    assert constants == Counter({"A": 1, "_B": 1, "C": 1, "D": 1})
    assert unread(constants, code_references(source)) == ["C", "_B"]


def test_every_module_constant_is_read():
    """A constant that only tests read, or none, is a leftover of deleted code."""
    constants = sum((module_constants(p.read_text()) for p in SRC.rglob("*.py")), Counter())
    assert unread(constants, program_references()) == []
