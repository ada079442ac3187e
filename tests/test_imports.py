"""The package imports only the standard library, numpy and itself.

A heavier dependency costs every CLI command its import time: scipy.stats
alone once took about 1 s of each run, for one rank function.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import uqgate

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "uqgate"}
MODULES = sorted(Path(uqgate.__file__).parent.glob("*.py"))


def _imported_packages(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_imports_only_stdlib_numpy_and_uqgate(path):
    assert set(_imported_packages(path)) <= ALLOWED


def test_cli_import_loads_no_scipy():
    code = "import sys, uqgate.cli; print(sorted(m for m in sys.modules if 'scipy' in m))"
    env = {**os.environ, "PYTHONPATH": str(Path(uqgate.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout.strip() == "[]"
