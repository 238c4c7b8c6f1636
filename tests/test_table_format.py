"""Every table the package reads or writes goes through the File IO section
of ``shmev.ingest``, so the CSV dialect, the number format and the
numeric-cell errors are decided in one module: no other module imports
``csv``."""
import ast
from pathlib import Path

import shmev

SOURCES = sorted(Path(shmev.__file__).parent.glob("*.py"))


def imports_csv(tree: ast.Module) -> bool:
    """Whether the tree imports ``csv``, or anything from it, anywhere."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "csv" for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] == "csv":
            return True
    return False


def test_only_ingest_imports_csv():
    importers = [p.name for p in SOURCES if imports_csv(ast.parse(p.read_text(encoding="utf-8")))]
    assert importers == ["ingest.py"]


def test_csv_imports_are_found():
    found = [
        "import csv\n",
        "import io, csv as c\n",
        "from csv import writer\n",
        "def f():\n    import csv\n",
    ]
    missed = ["import csvkit\n", "from .csv import x\n", "from . import csv_io\n", "x = 'import csv'\n"]
    assert all(imports_csv(ast.parse(source)) for source in found)
    assert not any(imports_csv(ast.parse(source)) for source in missed)
