"""The package imports only the standard library, numpy and itself: numpy
is its one declared runtime dependency, and an import of anything else
installed here (scipy, hypothesis) would pass every other test."""
import ast
import sys
from pathlib import Path

import hemanet

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "hemanet"}


def _imports(path: Path):
    """(line, top-level module) of every absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.partition(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted(Path(hemanet.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    stray = [f"{path.name}:{line}: {module}" for path in sources
             for line, module in _imports(path) if module not in ALLOWED]
    assert stray == []


def test_the_guard_sees_a_stray_import(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("import os\nfrom . import x\nfrom scipy import stats\nimport numpy.linalg\n",
                      encoding="utf-8")
    assert [m for _, m in _imports(source) if m not in ALLOWED] == ["scipy"]
