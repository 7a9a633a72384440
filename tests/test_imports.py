"""Every name a library module imports is used there.

No linter ships with the project, so this stdlib `ast` check keeps helpers
that are deleted from leaving stale imports behind. A name counts as used
when it is loaded anywhere in the module (annotations included) or, in a
package `__init__`, listed in `__all__`. A second scan keeps every module
free of `concurrent` and `multiprocessing` imports: every command runs in
the calling process.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "torus_spectra"
POOL_PACKAGES = ("concurrent", "multiprocessing")


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple)) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(elt.value for elt in node.value.elts)
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path) == []


def test_unused_import_is_reported(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from __future__ import annotations\nimport os\nfrom math import comb, isqrt\n\nisqrt(4)\n"
    )
    assert _unused_imports(module) == ["mod.py:2 os", "mod.py:3 comb"]


def _process_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.append(node.module)
    return [f"{path.name}:{m}" for m in modules if m.split(".")[0] in POOL_PACKAGES]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_process_machinery(path):
    """Every command runs in the calling process: no module imports a worker pool."""
    assert _process_imports(path) == []


def test_process_import_is_reported(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "import concurrent.futures\nfrom multiprocessing import Pool\nimport os\n\n"
        "def f():\n    from concurrent.futures import ProcessPoolExecutor\n"
    )
    assert _process_imports(module) == [
        "mod.py:concurrent.futures", "mod.py:multiprocessing", "mod.py:concurrent.futures"
    ]


def test_cli_import_loads_no_process_pool_machinery():
    """Importing the CLI loads neither package, through numpy or any other dependency."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import torus_spectra.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('concurrent', 'multiprocessing')))"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
