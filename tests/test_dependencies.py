"""The package imports only the standard library, numpy and itself: numpy
is its one declared runtime dependency, and an import of anything else
installed here (scipy, hypothesis) would pass every other test.  Each of its
modules also imports first, on its own: the package imports none of them, so
no import runs them all in one fixed order that could hide a cycle."""
import ast
import subprocess
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


# Imports each named hemanet module in turn, every one into a module table
# that holds no hemanet module, so each is the first of the package to load.
IMPORT_EACH_ALONE = """\
import importlib, sys
for name in sys.argv[1:]:
    for key in [key for key in sys.modules if key.startswith("hemanet")]:
        del sys.modules[key]
    print(name, flush=True)
    importlib.import_module("hemanet." + name)
"""


def test_each_module_imports_alone():
    package = Path(hemanet.__file__).parent
    names = sorted(path.stem for path in package.glob("*.py") if path.stem != "__init__")
    assert len(names) > 5
    child = subprocess.run([sys.executable, "-c", IMPORT_EACH_ALONE, *names],
                           cwd=package.parent, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == names
