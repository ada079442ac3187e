"""The package imports only the standard library, numpy and itself.

A heavier dependency costs every CLI command its import time: scipy.stats
alone once took about 1 s of each run, for one rank function. For the same
reason the CLI runs OpenBLAS with one thread (on a 2-core host its worker
threads took 55-70 ms of each start-up), which is free only while uqgate
calls no BLAS routine; and ``import uqgate`` resolves names lazily, so that
``uqgate.cli`` sets ``OPENBLAS_NUM_THREADS`` before numpy loads.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import uqgate

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "uqgate"}
MODULES = sorted(Path(uqgate.__file__).parent.glob("*.py"))
SUBMODULES = ("calibration", "cli", "diagnostics", "ept", "gating", "margin", "measures",
              "stats", "synth")
BLAS_NAMES = {"dot", "vdot", "inner", "outer", "matmul", "tensordot", "einsum", "kron", "linalg"}

# The package's public names as they were listed by hand before resolving lazily.
PUBLIC = [
    "ABSENT", "ClassStats", "CoverageRiskCurve", "Decomposition", "DiversitySeries", "Ensemble",
    "EptError", "EptFormatError", "EptManifest", "EptValidationError", "GateConfig",
    "GatedEnsemble", "MulticlassDecisions", "PRESENT", "PredictionTensor", "SynthConfig",
    "TemperatureFit", "UNCERTAIN", "apply_temperature", "auroc", "collapse_epoch",
    "coverage_risk", "decide_multiclass", "decide_multilabel", "diversity", "ece", "entropy",
    "epce", "epjs", "epkl", "fit_per_member", "fit_temperature", "gate", "gated_decomposition",
    "gated_members", "generate", "generate_collapse_series", "gmu_multiclass", "gmu_multilabel",
    "make_tensor", "nll", "read_ept", "read_ept_file", "read_labels", "read_labels_file",
    "softmax", "softmax_tensor", "standard_decomposition", "top2", "write_ept", "write_ept_file",
]


def _run_child(code: str, **env) -> str:
    """Run ``code`` in a fresh interpreter and return its stdout.

    OPENBLAS_NUM_THREADS is removed from the child's environment, since
    in-process CLI tests set it in this one.
    """
    child_env = {key: value for key, value in os.environ.items()
                 if key != "OPENBLAS_NUM_THREADS"}
    child_env.update(env, PYTHONPATH=str(Path(uqgate.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=child_env, check=True)
    return result.stdout


def _imported_packages(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_imports_only_stdlib_numpy_and_uqgate(path):
    assert set(_imported_packages(path)) <= ALLOWED


def _blas_uses(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            yield node.lineno, node.attr
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in BLAS_NAMES):
            yield node.lineno, node.func.id


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_blas_calls(path):
    uses = list(_blas_uses(path))
    assert not uses, (f"{path.name} calls BLAS at {uses}, but the CLI runs OpenBLAS "
                      "single-threaded (cli.py defaults OPENBLAS_NUM_THREADS to 1)")


def test_cli_import_loads_no_scipy():
    # Every top-level module the CLI adds beyond numpy's own is stdlib or uqgate.
    code = ("import sys, json, numpy\n"
            "before = set(sys.modules)\n"
            "import uqgate.cli\n"
            "print(json.dumps(sorted(m for m in set(sys.modules) - before if '.' not in m)))")
    added = json.loads(_run_child(code))
    assert "uqgate" in added
    assert set(added) <= set(sys.stdlib_module_names) | {"uqgate"}


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
def test_cli_import_starts_no_blas_threads():
    code = "import os, uqgate.cli; print(len(os.listdir('/proc/self/task')))"
    assert _run_child(code).strip() == "1"


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_cli_defaults_openblas_to_one_thread(preset, expected):
    code = "import os, uqgate.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    env = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
    assert _run_child(code, **env).strip() == expected


def test_bare_import_loads_no_numpy():
    code = "import sys, uqgate; print('numpy' in sys.modules)"
    assert _run_child(code).strip() == "False"


def test_names_resolve_after_bare_import():
    code = ("import json, uqgate\n"
            "listed = dir(uqgate)\n"
            "star = {}\n"
            "exec('from uqgate import *', star)\n"
            f"subs = {SUBMODULES!r}\n"
            "resolved = [getattr(uqgate, s).__name__ for s in subs]\n"
            "print(json.dumps([listed, resolved, uqgate.stats.member_probs.__module__,\n"
            "                  sorted(set(star) - {'__builtins__'})]))")
    listed, resolved, defined_in, starred = json.loads(_run_child(code))
    assert set(PUBLIC) | set(SUBMODULES) <= set(listed)
    assert resolved == [f"uqgate.{name}" for name in SUBMODULES]
    assert defined_in == "uqgate.stats"
    assert starred == sorted(PUBLIC)


def test_public_names():
    assert uqgate.__all__ == PUBLIC
    modules = [importlib.import_module(f"uqgate.{name}") for name in SUBMODULES]
    for name in PUBLIC:
        bound = [vars(module)[name] for module in modules if name in vars(module)]
        assert bound and all(getattr(uqgate, name) is value for value in bound), name
    with pytest.raises(AttributeError, match="no_such_name"):
        uqgate.no_such_name

