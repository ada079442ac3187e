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
MEASURE_FUNCTIONS = {"decompose", "decompose_gated", "gmu_multiclass", "pairwise_ce",
                     "pairwise_kl", "pairwise_js"}
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


SORT_NAMES = {"argsort", "sort", "argpartition", "partition", "lexsort"}


def _nodes_in_functions(path: Path):
    """Each AST node of ``path``, with the name of the function that encloses it."""
    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        yield node, function
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    yield from visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), None)


def _called_name(node):
    """The name a call calls, ``f`` of ``f(...)`` and of ``np.f(...)``; None if not a call."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "attr", getattr(node.func, "id", None))
    return None


def _sort_calls(path: Path):
    """(line, enclosing function, name) of each call named in SORT_NAMES."""
    for node, function in _nodes_in_functions(path):
        name = _called_name(node)
        if name in SORT_NAMES:
            yield node.lineno, function, name


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_auroc_ranks_sort(path):
    # margin.top2 takes two argmax passes, O(C) a row; only the AUROC's midranks need
    # the order of all scores.
    calls = [(line, name) for line, function, name in _sort_calls(path)
             if (path.name, function) != ("diagnostics.py", "_midranks")]
    assert not calls, f"{path.name} sorts at {calls}"


def test_margin_formula_is_written_once():
    # Multiclass and multilabel share one SNR, gate and GMU: margin.py divides only in
    # _snr and takes exp(-SNR) only in _gmu.
    sites = sorted(
        (function, "exp" if _called_name(node) == "exp" else "/")
        for node, function in _nodes_in_functions(Path(uqgate.__file__).parent / "margin.py")
        if _called_name(node) in {"exp", "divide", "true_divide"}
        or isinstance(getattr(node, "op", None), ast.Div))
    assert sites == [("_gmu", "exp"), ("_snr", "/")]


def _names(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.alias):
            yield node.lineno, node.name


@pytest.mark.parametrize("path", [path for path in MODULES if path.name != "stats.py"],
                         ids=lambda path: path.name)
def test_block_policy_stays_in_stats(path):
    # Every blocked consumer maps over stats.ensemble_blocks (or stats.blockwise),
    # so the block size and the block bounds are known in one module.
    uses = [(line, name) for line, name in _names(path)
            if name in ("BLOCK_VALUES", "sample_blocks")]
    assert not uses, f"{path.name} names the sample-block policy at {uses}"


@pytest.mark.parametrize("path", [path for path in MODULES if path.name != "stats.py"],
                         ids=lambda path: path.name)
def test_log_clamp_stays_in_stats(path):
    # Every log of a probability is stats.clamped_log, so the clamp is known in one module.
    uses = [line for line, name in _names(path) if name == "LOG_CLAMP"]
    assert not uses, f"{path.name} names LOG_CLAMP at lines {uses}"


# Each input contract is raised by one function, in the module that owns it.
CONTRACT_OWNERS = {"labels shape": "ept.py", " requires a ": "ept.py",
                   "must be positive, got": "gating.py",
                   "spreads must be finite and non-negative": "margin.py",
                   "eps must be non-negative, got": "margin.py"}


def _raised_text(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            for inner in ast.walk(node.exc):
                if isinstance(inner, ast.Constant) and isinstance(inner.value, str):
                    yield node.lineno, inner.value


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_each_contract_is_raised_by_its_owner(path):
    # check_labels and EptManifest.require in ept, check_positive in gating: a copy of a
    # rule elsewhere would drift from the one every entry point shares.
    copies = [(line, words) for line, text in _raised_text(path)
              for words, owner in CONTRACT_OWNERS.items()
              if words in text and path.name != owner]
    assert not copies, f"{path.name} raises a contract of another module at {copies}"


def _literal(node):
    """The value of a literal expression node (``1e-3``, ``-1``, ``("a", "b")``), else None."""
    try:
        return ast.literal_eval(node)
    except ValueError:
        return None


def test_cli_settings_come_from_their_owners():
    # SynthConfig owns synth's defaults and modes, diagnostics.DEFAULT_TAU diversity's tau,
    # and one cli.py constant the CSV number format: a copy could drift from its owner.
    path = Path(uqgate.__file__).with_name("cli.py")
    source = path.read_text(encoding="utf-8")
    copies = []
    for node, function in _nodes_in_functions(path):
        if function != "_build_parser" or _called_name(node) != "add_argument":
            continue
        option = _literal(node.args[0])
        for keyword in node.keywords:
            value = _literal(keyword.value)
            if ((keyword.arg == "default" and isinstance(value, (int, float)))
                    or (option == "--mode" and value is not None)):
                copies.append((option, keyword.arg, value))
    assert not copies, f"cli._build_parser restates settings it does not own: {copies}"
    assert source.count(".9g") == 1, "cli.py spells the CSV number format more than once"


def test_cli_import_loads_no_scipy():
    # Every top-level module the CLI adds beyond numpy's own is stdlib or uqgate.
    code = ("import sys, json, numpy\n"
            "before = set(sys.modules)\n"
            "import uqgate.cli\n"
            "print(json.dumps(sorted(m for m in set(sys.modules) - before if '.' not in m)))")
    added = json.loads(_run_child(code))
    assert "uqgate" in added
    assert set(added) <= set(sys.stdlib_module_names) | {"uqgate"}


def test_cli_import_loads_no_executor():
    # synth imports concurrent.futures, and logging with it, only when a collapse series runs.
    code = ("import sys, uqgate.cli\n"
            "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
    assert _run_child(code).strip() == "[]"


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
def test_cli_import_starts_no_blas_threads():
    code = "import os, uqgate.cli; print(len(os.listdir('/proc/self/task')))"
    assert _run_child(code).strip() == "1"


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_cli_defaults_openblas_to_one_thread(preset, expected):
    code = "import os, uqgate.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    env = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
    assert _run_child(code, **env).strip() == expected


def test_cli_import_leaves_the_allocator_alone():
    # mallopt is looked up only when main runs; the lookup below proves the probe sees it.
    code = ("import ctypes, os\n"
            "looked = []\n"
            "class Libc(ctypes.CDLL):\n"
            "    def __getattr__(self, name):\n"
            "        looked.append(name)\n"
            "        return super().__getattr__(name)\n"
            "ctypes.CDLL = Libc\n"
            "import uqgate, uqgate.cli\n"
            "print(looked.count('mallopt'))\n"
            "for name in uqgate.cli._MALLOC_ENVIRONMENT + ('GLIBC_TUNABLES',):\n"
            "    os.environ.pop(name, None)\n"
            "uqgate.cli._tune_allocator()\n"
            "print(looked.count('mallopt'))")
    assert _run_child(code).split() == ["0", "1"]


def test_only_the_program_freezes_the_start_up_heap(tmp_path):
    # cli.main leaves a host's collector alone: a cycle dropped before the call is still
    # collected after it. python -m uqgate.cli and the uqgate script (cli.run) freeze.
    synth = ["synth", "--samples", "4", "--classes", "2", "--members", "1",
             "--out", str(tmp_path / "fix")]
    in_process = ("import gc, sys, weakref, uqgate.cli\n"
                  "class Node: pass\n"
                  "node = Node(); node.self = node; alive = weakref.ref(node); del node\n"
                  f"code = uqgate.cli.main({synth!r})\n"
                  "gc.collect()\n"
                  "print(code, gc.get_freeze_count(), alive() is None)\n"
                  f"sys.argv = ['uqgate', *{synth!r}]\n"
                  "print(uqgate.cli.run(), gc.get_freeze_count() > 0)")
    assert _run_child(in_process).split() == ["0", "0", "True", "0", "True"]
    as_module = ("import gc, runpy, sys\n"
                 f"sys.argv = ['uqgate', *{synth!r}]\n"
                 "try:\n"
                 "    runpy.run_module('uqgate.cli', run_name='__main__', alter_sys=True)\n"
                 "except SystemExit as exc:\n"
                 "    print(exc.code, gc.get_freeze_count() > 0)")
    assert _run_child(as_module).split() == ["0", "True"]
    pyproject = Path(uqgate.__file__).parents[2] / "pyproject.toml"
    if pyproject.is_file():
        assert 'uqgate = "uqgate.cli:run"' in pyproject.read_text(encoding="utf-8")


def test_cli_selects_its_measures_from_the_table():
    # report and ood name the measures.SCORES they print; no measure is called, or wrapped
    # in a lambda, in cli.py, so each is evaluated in one place, once per block.
    path = Path(uqgate.__file__).with_name("cli.py")
    calls = [(line, name) for line, name in _names(path) if name in MEASURE_FUNCTIONS]
    assert not calls, f"cli.py calls measures directly at {calls}"
    lambdas = [node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Lambda)
               and any(isinstance(inner, ast.Name) and inner.id in ("measures", "gating", "margin")
                       for inner in ast.walk(node.body))]
    assert not lambdas, f"cli.py wraps a measure in a lambda at lines {lambdas}"


def test_main_alone_writes_the_reports():
    # Each command returns its text, and main writes it to stdout or --output once the
    # command's checks have passed. synth writes its own files.
    path = Path(uqgate.__file__).with_name("cli.py")
    writes = []
    for func in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(func, ast.FunctionDef) or func.name in ("main", "cmd_synth"):
            continue
        for node in ast.walk(func):
            if ((isinstance(node, ast.Name) and node.id in ("open", "_open_output"))
                    or (isinstance(node, ast.Attribute)
                        and ast.unparse(node) in ("json.dump", "sys.stdout"))
                    or (isinstance(node, ast.Call) and ast.unparse(node.func) == "print"
                        and not any(kw.arg == "file" for kw in node.keywords))):
                writes.append((func.name, node.lineno))
    assert not writes, f"cli.py writes output outside main at {writes}"


# Every result record is a NamedTuple: its fields, in order, are the ones its attributes name.
RESULT_FIELDS = {
    "CoverageRiskCurve": ("k", "coverage", "risk"),
    "Decomposition": ("tu", "au", "eu"),
    "DiversitySeries": ("epochs", "values", "tau", "collapse_epoch"),
    "GatedEnsemble": ("gates", "members", "predictive", "fallback"),
    "MulticlassDecisions": ("top1", "top2", "snr", "decision"),
    "TemperatureFit": ("temperature", "nll_before", "nll_after"),
}


@pytest.mark.parametrize("name, fields", RESULT_FIELDS.items())
def test_results_are_named_tuples(name, fields):
    record = getattr(uqgate, name)
    assert issubclass(record, tuple) and record._fields == fields
    values = record(*range(len(fields)))
    assert tuple(values) == tuple(range(len(fields)))
    assert [getattr(values, field) for field in fields] == list(range(len(fields)))


@pytest.mark.parametrize("module", ["calibration", "diagnostics", "margin"])
def test_result_modules_import_no_dataclasses(module):
    path = Path(uqgate.__file__).with_name(f"{module}.py")
    assert "dataclasses" not in set(_imported_packages(path))


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

