"""Every public top-level name in the package has a caller: a reference
outside its own definition, in src/, in README.md or in perfbench/.  A name
that only tests call is code the program carries for nothing; the one
exception below is a reference implementation the tests check against.
Likewise every field of a config class, or of SnnModel, is set by some
caller: a field that only tests set is an option with one value in use,
which is a constant.  So is a command-line flag that only tests pass:
every option the parser defines appears in README.md or perfbench/.  A flag
that several subcommands define parses and reads the same in each."""

import argparse
import ast
import re
from pathlib import Path

from nisaclab.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "nisaclab"
TEST_REFERENCES = {"modem.ppm_demodulate"}
CONFIG_CLASSES = {"ChannelConfig", "SnnModel", "TrainConfig"}
# paths whose help names what each subcommand reads or writes there
PER_COMMAND_HELP = {"--data", "--model", "--out"}


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


def _config_fields():
    """(class, field, module, first line, last line of the class) of each
    init field of the config classes; ClassVar constants are not fields."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef) and node.name in CONFIG_CLASSES:
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and "ClassVar" not in ast.unparse(stmt.annotation):
                        yield node.name, stmt.target.id, path.stem, node.lineno, node.end_lineno


def _src_keywords():
    """(module, keyword, line) of every keyword argument passed in the package."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.keyword) and node.arg is not None:
                yield path.stem, node.arg, node.lineno


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


def test_every_config_field_is_set_by_a_caller():
    keywords = list(_src_keywords())
    text = _text_outside_src()
    fields = list(_config_fields())
    assert {cls for cls, *_ in fields} == CONFIG_CLASSES
    unset = []
    for cls, field, module, first, last in fields:
        in_src = any(
            arg == field and not (where == module and first <= line <= last)
            for where, arg, line in keywords
        )
        if not (in_src or re.search(rf"\b{re.escape(field)}=(?!=)", text)):
            unset.append(f"{cls}.{field}")
    assert unset == []


def _flags(parser):
    """Every action of a parser but its help."""
    return [action for action in parser._actions if not isinstance(action, argparse._HelpAction)]


def _subcommands(parser) -> dict:
    """{name: subparser} of the parser's subcommands."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _option_strings():
    """Every option string of the parser and of each subcommand, help aside."""
    parser = build_parser()
    for p in [parser, *_subcommands(parser).values()]:
        for action in _flags(p):
            yield from action.option_strings


def test_every_flag_has_a_caller():
    text = _text_outside_src()
    # --out must not count as a use of itself inside --out-train, nor --L inside --Lb
    unused = {opt for opt in _option_strings() if not re.search(rf"{re.escape(opt)}(?![\w-])", text)}
    assert unused == set()


def test_shared_flags_agree():
    specs = {}
    for command, p in _subcommands(build_parser()).items():
        for action in _flags(p):
            flag = action.option_strings[0]
            help_text = None if flag in PER_COMMAND_HELP else action.help
            spec = (action.type, action.default, action.choices, action.required, action.nargs, help_text)
            specs.setdefault(flag, {})[command] = spec
    assert {flag: by_command for flag, by_command in specs.items() if len(set(by_command.values())) > 1} == {}
