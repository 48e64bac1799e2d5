"""Every public top-level name in the package has a caller: a reference
outside its own definition, in src/, in README.md or in perfbench/.  A name
that only tests call is code the program carries for nothing; the one
exception below is a reference implementation the tests check against."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "nisaclab"
TEST_REFERENCES = {"modem.ppm_demodulate"}


def _definitions():
    """(module, name, first line, last line) of each public def, class or
    assignment at the top level of a package module."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if not name.startswith("_"):
                    yield path.stem, name, node.lineno, node.end_lineno


def _src_uses():
    """(module, name, line) of every name or attribute read in the package."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                yield path.stem, node.id, node.lineno
            elif isinstance(node, ast.Attribute):
                yield path.stem, node.attr, node.lineno


def _text_outside_src() -> str:
    files = [ROOT / "README.md", *sorted((ROOT / "perfbench").rglob("*.py"))]
    return "\n".join(p.read_text(encoding="utf-8") for p in files)


def test_every_public_name_has_a_caller():
    uses = list(_src_uses())
    text = _text_outside_src()
    orphans = []
    for module, name, first, last in _definitions():
        in_src = any(
            used == name and not (where == module and first <= line <= last)
            for where, used, line in uses
        )
        if not (in_src or re.search(rf"\b{re.escape(name)}\b", text)
                or f"{module}.{name}" in TEST_REFERENCES):
            orphans.append(f"{module}.{name}")
    assert orphans == []


def test_exempt_names_still_exist():
    defined = {f"{module}.{name}" for module, name, *_ in _definitions()}
    assert TEST_REFERENCES <= defined
