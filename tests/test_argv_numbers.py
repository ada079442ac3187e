"""Hostile numbers in argv: every float option of every command, at the float range's edges.

Each run exits 0, or exits 1 with nothing on stdout and exactly one ``error:``
line on stderr; no run prints a warning. The runs share one child process,
with every warning shown each time it is raised, so that a numpy
``RuntimeWarning`` appears as a stderr line instead of as a pytest error.
Sizes, epoch counts and grid counts are not fuzzed: they set how much a
command allocates and writes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import uqgate
from uqgate import SynthConfig, generate, generate_collapse_series, write_ept_file
from uqgate.ept import write_labels

VALUES = ("0", "-0", "5e-324", "-5e-324", "1e308", "-1e308", "inf", "-inf", "nan")

CHILD = """
import contextlib, io, json, sys, traceback, warnings
warnings.simplefilter("always")
from uqgate import cli
results = {}
for name, argv in json.load(sys.stdin).items():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except BaseException:
            status = "raised"
            traceback.print_exc()
    results[name] = [status, out.getvalue(), err.getvalue()]
print(json.dumps(results))
"""


def _slots(directory: Path) -> dict[str, tuple[list[str], str]]:
    """Each float option's command line, with the option last, and the option's spelling."""
    probs, logits, labels = (str(directory / name)
                             for name in ("probs.ept", "logits.ept", "labels.csv"))
    series = [str(directory / f"epoch{epoch}.ept") for epoch in range(2)]
    report = ["report", "--input", logits, "--labels", labels]
    coverage = ["coverage", "--input", probs, "--labels", labels]
    ood = ["ood", "--id", probs, "--ood", logits]
    synth = ["synth", "--samples", "20", "--classes", "3", "--members", "2", "--seed", "4"]
    collapse = [*synth, "--mode", "collapse", "--epochs", "2"]
    return {
        "report-k": (report, "--k={}"),
        "report-k-list": (report, "--k=1,{}"),
        "report-epsilon": (report, "--epsilon={}"),
        "diversity-tau": (["diversity", "--inputs", *series], "--tau={}"),
        "coverage-k-list": (coverage, "--k-grid=0.5,{}"),
        "coverage-k-lo": (coverage, "--k-grid={}:2:3"),
        "coverage-k-hi": (coverage, "--k-grid=0.5:{}:3"),
        "coverage-epsilon": (coverage, "--epsilon={}"),
        "ood-k": (ood, "--k={}"),
        "ood-epsilon": (ood, "--epsilon={}"),
        "synth-s-signal": (synth, "--s-signal={}"),
        "synth-s-noise": (synth, "--s-noise={}"),
        "collapse-s-noise": (collapse, "--s-noise={}"),
        "collapse-decay": (collapse, "--decay={}"),
    }


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("argv")
    probs, logits, labels = generate(SynthConfig(samples=30, classes=4, members=3, seed=5))
    write_ept_file(probs, directory / "probs.ept")
    write_ept_file(logits, directory / "logits.ept")
    with open(directory / "labels.csv", "w", encoding="utf-8", newline="") as handle:
        write_labels(labels, handle)
    cfg = SynthConfig(samples=30, classes=4, members=3, seed=5, mode="collapse", epochs=2)
    for epoch, tensor in generate_collapse_series(cfg):
        write_ept_file(tensor, directory / f"epoch{epoch}.ept")
    cases = {}
    for slot, (argv, option) in _slots(directory).items():
        for index, value in enumerate(VALUES):
            out = ["--out", str(directory / f"{slot}{index}")]
            cases[f"{slot} {value}"] = [*argv, option.format(value),
                                        *(out if argv[0] == "synth" else [])]
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(uqgate.__file__).parents[1])
    child = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps(cases), env=env,
                           capture_output=True, text=True)
    assert child.returncode == 0 and child.stderr == "", child.stderr
    return json.loads(child.stdout)


@pytest.mark.parametrize("slot", list(_slots(Path("."))))
def test_ends_cleanly_without_warnings(runs, slot):
    for value in VALUES:
        status, out, err = runs[f"{slot} {value}"]
        lines = err.splitlines()
        if status == 0:
            # Only the notes that a command prints on success: softmaxed logits, files written.
            assert all(line.startswith(("note: ", "wrote ")) for line in lines), (value, err)
        else:
            assert status == 1, (value, err)
            assert out == "", value
            assert len(lines) == 1 and lines[0].startswith("error: "), (value, err)
            assert err.endswith("\n"), value


def test_values_inside_the_ranges_succeed(runs):
    # The fuzz reaches past argument checking: a subnormal or huge value that a rule
    # admits runs the command to the end.
    for case in ("report-k 5e-324", "report-k 1e308", "report-epsilon inf",
                 "coverage-k-hi 1e308", "ood-epsilon 5e-324", "diversity-tau inf",
                 "synth-s-noise -0", "collapse-decay 1e308"):
        assert runs[case][0] == 0, (case, runs[case][2])
