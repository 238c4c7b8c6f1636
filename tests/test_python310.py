"""The package declares ``requires-python >=3.10``: every module must parse
with Python 3.10's grammar and use none of the standard-library names added
in 3.11 or later, nor the methods that accept more input from 3.11 on,
whichever interpreter runs the tests."""
import ast
from pathlib import Path

import pytest

import shmev

SOURCES = sorted(Path(shmev.__file__).parent.glob("*.py"))
# module -> names it gained in 3.11 or later that a 3.10 interpreter lacks
NEWER_NAMES = {
    "datetime": {"UTC"},
    "enum": {"StrEnum", "ReprEnum", "verify", "EnumCheck"},
    "itertools": {"batched"},
    "typing": {"Self", "LiteralString", "Never", "assert_never", "assert_type", "reveal_type", "Required",
               "NotRequired", "TypeVarTuple", "Unpack", "dataclass_transform", "override"},
}
NEWER_MODULES = {"tomllib", "wsgiref.types"}
# methods that read more forms from 3.11 on (date.fromisoformat takes
# YYYYMMDD and week dates), so the same input would parse differently
WIDER_METHODS = {"fromisoformat"}


def newer_uses(tree: ast.Module) -> list[str]:
    """``module.name`` for every 3.11+ name the tree imports or reads, and
    ``receiver.method`` for every method in ``WIDER_METHODS`` it reads."""
    aliases = {}  # local name -> module
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name] = alias.name
                if alias.name in NEWER_MODULES:
                    found.append(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module in NEWER_MODULES:
                found.append(node.module)
            found += [f"{node.module}.{a.name}" for a in node.names if a.name in NEWER_NAMES.get(node.module, ())]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in WIDER_METHODS:
            found.append(ast.unparse(node))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = aliases.get(node.value.id)
            if node.attr in NEWER_NAMES.get(module, ()):
                found.append(f"{module}.{node.attr}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_module_parses_as_python_310(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
    assert newer_uses(tree) == []


def test_newer_names_are_found():
    source = (
        "import itertools\nimport datetime as dt\nfrom typing import Self\nimport tomllib\n"
        "itertools.batched([], 2)\ndt.UTC\ndt.timezone.utc\n"
    )
    assert sorted(newer_uses(ast.parse(source))) == ["datetime.UTC", "itertools.batched", "tomllib", "typing.Self"]


def test_wider_methods_are_found():
    source = (
        "import datetime as dt\nfrom datetime import date\n"
        "dt.date.fromisoformat('2001-01-01')\nparse = date.fromisoformat\ndt.datetime.fromisoformat(text)\n"
    )
    assert sorted(newer_uses(ast.parse(source))) == [
        "date.fromisoformat", "dt.date.fromisoformat", "dt.datetime.fromisoformat"
    ]
