"""A fixed corpus of CLI runs, and the sha256 digests of what each one prints.

The fixtures' bytes do not depend on numpy's CPU dispatch: logits are
``synth``'s seeded draws (sums and products, no exp), and every probability
row is a row of integer counts divided by its sum. A case's record holds its
exit status, the digests of its stdout and stderr and, if it wrote any, of
each file it wrote (``--output`` files, ``synth``'s EPT and label files). What the commands print
does depend on it, through softmax's exp and the entropies' log, so the
digests are kept per numpy version and dispatch path, the highest x86 target
that numpy's kernels use (``X86_V4`` with AVX-512, ``X86_V3`` with AVX2). A
case whose record is the same on every recorded path is kept once, under
``common``; on this corpus only the JSON reports and ``synth``'s files differ.

The corpus runs twice, on fixtures drawn from two seeds; the second run's
case and file names carry its prefix (``seed11/``).

    python tests/output_corpus.py run DIR   # print this path's digests as JSON
    python tests/output_corpus.py record    # rewrite output_digests.json

``record`` runs the corpus once on each dispatch path this host supports, in
a child process each. Record only for a change that means to change output
bytes, and say so with the change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

DIGESTS = Path(__file__).with_name("output_digests.json")
# Turns numpy's AVX-512 kernels off, so it dispatches to its AVX2 ones.
NO_AVX512 = "AVX512_SPR AVX512_ICL X86_V4"

PROBS, LOGITS, WIDE, SINGLE = "probs.ept", "logits.ept", "wide32.ept", "single.ept"
LABELS, WIDE_LABELS = "labels.csv", "wide_labels.csv"
BINARY, BINARY_LABELS, TRUNCATED = "binary.ept", "binary_labels.csv", "truncated.ept"
FIXTURES = (PROBS, LOGITS, WIDE, SINGLE, LABELS, WIDE_LABELS, BINARY, BINARY_LABELS, TRUNCATED)
# The collapse series that the synth-collapse case writes, and the diversity cases read.
SERIES = tuple(f"collapse_epoch{epoch:03d}.ept" for epoch in range(3))
OOD_MEASURES = ("tu", "au", "eu", "epce", "epkl", "epjs", "gmu",
                "gated_tu", "gated_au", "gated_eu")
# Each run of the corpus by its name prefix: the fixtures' seed and synth's --seed.
SEEDS = {"": (7, 3), "seed11/": (11, 11)}


def all_cases(synth_seed: int) -> dict[str, list[str]]:
    """Each case's argv by name, in run order: a case may read files that earlier ones wrote."""
    cases = {}
    for name, path, labels in ((PROBS, PROBS, LABELS), (LOGITS, LOGITS, LABELS),
                               (WIDE, WIDE, WIDE_LABELS)):
        stem = name.removesuffix(".ept")
        cases[f"report-csv-{stem}"] = ["report", "--input", path, "--labels", labels,
                                       "--k", "0.5,1,2,4"]
        cases[f"report-json-{stem}"] = ["report", "--input", path, "--labels", labels,
                                        "--format", "json"]
    cases["report-csv-single-eps"] = ["report", "--input", SINGLE, "--epsilon", "5e-324"]
    cases["report-json-single-eps"] = ["report", "--input", SINGLE, "--epsilon", "5e-324",
                                       "--format", "json"]
    ood = ["ood", "--id", PROBS, "--ood", LOGITS]
    cases["ood-all"] = ood
    cases["ood-all-k2"] = [*ood, "--k", "2"]
    for measure in OOD_MEASURES:
        cases[f"ood-{measure}"] = [*ood, "--measure", measure]
    for name in (PROBS, LOGITS):
        cases[f"coverage-{name.removesuffix('.ept')}"] = [
            "coverage", "--input", name, "--labels", LABELS, "--k-grid", "0.25:4:16"]
    cases["error-unknown-measure"] = [*ood, "--measure", "nope"]
    cases["error-colliding-k"] = ["report", "--input", PROBS, "--k", "1,1.0000001"]

    # synth writes its files under the case's prefix; calibrate reads the static logits
    # and labels, diversity the collapse series.
    synth = ["synth", "--samples", "300", "--classes", "10", "--members", "5",
             "--seed", str(synth_seed)]
    cases["synth-static"] = [*synth, "--out", "static"]
    cases["synth-collapse"] = [*synth, "--mode", "collapse", "--epochs", str(len(SERIES)),
                               "--decay", "3", "--out", "collapse"]
    for mode, extra in (("global", []), ("per-member", ["--per-member"])):
        calibrate = ["calibrate", "--input", "static_logits.ept",
                     "--labels", "static_labels.csv", *extra]
        cases[f"calibrate-{mode}"] = calibrate
        cases[f"calibrate-{mode}-output"] = [*calibrate, "--output", f"calibrate-{mode}.json"]
    cases["diversity-csv"] = ["diversity", "--inputs", *SERIES]
    cases["diversity-json"] = ["diversity", "--inputs", *SERIES, "--format", "json"]
    cases["diversity-json-output"] = [*cases["diversity-json"], "--output", "diversity.json"]
    cases["report-csv-probs-output"] = [*cases["report-csv-probs"], "--output", "report.csv"]
    cases["report-json-logits-output"] = [*cases["report-json-logits"], "--output",
                                          "report.json"]
    cases["ood-all-output"] = [*ood, "--output", "ood.json"]
    cases["coverage-probs-output"] = [*cases["coverage-probs"], "--output", "coverage.csv"]
    cases["report-csv-binary"] = ["report", "--input", BINARY, "--labels", BINARY_LABELS,
                                  "--k", "0.5,1,2,4"]
    cases["report-json-binary"] = ["report", "--input", BINARY, "--labels", BINARY_LABELS,
                                   "--format", "json"]
    cases["coverage-binary"] = ["coverage", "--input", BINARY, "--labels", BINARY_LABELS,
                                "--k-grid", "0.25:4:16"]
    # Nothing is decided at these k, so risk prints NA.
    cases["coverage-undecided"] = ["coverage", "--input", PROBS, "--labels", LABELS,
                                   "--k-grid", "1e6,1e9"]

    cases["error-ood-epsilon-0"] = [*ood, "--epsilon", "0"]
    cases["error-calibrate-probs"] = ["calibrate", "--input", PROBS, "--labels", LABELS]
    cases["error-calibrate-label-range"] = ["calibrate", "--input", LOGITS,
                                            "--labels", WIDE_LABELS]
    cases["error-report-missing-file"] = ["report", "--input", "missing.ept"]
    cases["error-report-truncated"] = ["report", "--input", TRUNCATED]
    cases["error-diversity-shapes"] = ["diversity", "--inputs", PROBS, WIDE]
    cases["error-diversity-order"] = ["diversity", "--inputs", SERIES[1], SERIES[0]]
    cases["error-coverage-grid"] = ["coverage", "--input", PROBS, "--labels", LABELS,
                                    "--k-grid", "1:2"]
    cases["error-synth-config"] = ["synth", "--samples", "0", "--classes", "10",
                                   "--members", "5", "--out", "none"]
    cases["error-synth-overflow"] = [*synth, "--s-noise", "1e308", "--out", "none"]
    return cases


def _write_fixtures(seed: int) -> None:
    import numpy as np

    from uqgate import SynthConfig, generate, make_tensor, write_ept_file
    from uqgate.ept import write_labels

    rng = np.random.default_rng(seed)

    def counts(shape, dtype=np.float64):
        # Integer counts over their sum: one correctly rounded division per entry.
        # Members lean, by differing amounts, towards one class per sample.
        draws = rng.integers(0, 20, size=shape)
        favourite = rng.integers(0, shape[-1], size=shape[1])
        draws[:, np.arange(shape[1]), favourite] += rng.integers(0, 40, size=shape[:2])
        draws[..., 0] += draws.sum(axis=-1) == 0  # no empty row
        rows = draws / draws.sum(axis=-1, keepdims=True)
        return make_tensor(rows.astype(dtype), kind="probs",
                           precision="binary32" if dtype == np.float32 else "binary64")

    def labels(path, classes, samples):
        with open(path, "w", encoding="utf-8", newline="") as handle:
            write_labels(rng.integers(0, classes, size=samples), handle)

    # 2100 samples: two full sample blocks and a partial third.
    write_ept_file(counts((8, 2100, 10)), PROBS)
    _, logits, _ = generate(SynthConfig(samples=2100, classes=10, members=8, s_signal=2.0,
                                        seed=seed))
    write_ept_file(logits, LOGITS)
    write_ept_file(counts((5, 2100, 100), np.float32), WIDE)
    write_ept_file(counts((1, 300, 10)), SINGLE)
    labels(LABELS, 10, 2100)
    labels(WIDE_LABELS, 100, 2100)
    # Drawn after the fixtures above, so that their bytes stay as they were.
    write_ept_file(counts((6, 2100, 2)), BINARY)
    labels(BINARY_LABELS, 2, 2100)
    Path(TRUNCATED).write_bytes(Path(PROBS).read_bytes()[:-8])


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _dispatch_path() -> str:
    import numpy as np

    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__ as features
    target = next((name for name in ("X86_V4", "X86_V3") if features.get(name)), "other")
    return f"numpy {np.__version__} {target}"


def _run(argv: list[str]) -> dict:
    """Exit status and stdout and stderr digests, and a digest of every file the run wrote."""
    from uqgate import cli

    before = set(os.listdir())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:  # argparse
            status = exc.code
    run = {"status": status, "stdout": _digest(out.getvalue().encode()),
           "stderr": _digest(err.getvalue().encode())}
    written = sorted(set(os.listdir()) - before)
    if written:
        run["files"] = {name: _digest(Path(name).read_bytes()) for name in written}
    return run


def run_corpus(directory: Path) -> dict:
    """Build each seed's fixtures under ``directory`` and run every case there, in this process."""
    fixtures, runs = {}, {}
    for prefix, (seed, synth_seed) in SEEDS.items():
        (directory / prefix).mkdir(exist_ok=True)
        os.chdir(directory / prefix)  # relative paths: stderr names files the same anywhere
        _write_fixtures(seed)
        fixtures.update({prefix + name: _digest(Path(name).read_bytes()) for name in FIXTURES})
        runs.update({prefix + case: _run(argv) for case, argv in all_cases(synth_seed).items()})
    return {"path": _dispatch_path(), "fixtures": fixtures, "runs": runs}


def expected_runs(recorded: dict, path: str) -> dict | None:
    """Every case's recorded run on dispatch path ``path``, or None if none is recorded."""
    if path not in recorded["paths"]:
        return None
    return {**recorded["common"], **recorded["paths"][path]}


def run_child(directory: Path, disable: str | None) -> subprocess.CompletedProcess:
    """Run the corpus in a fresh interpreter, with numpy's dispatch limited by ``disable``."""
    env = {key: value for key, value in os.environ.items()
           if key not in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_NUM_THREADS")}
    if disable:
        env["NPY_DISABLE_CPU_FEATURES"] = disable
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run([sys.executable, __file__, "run", str(directory)], env=env,
                          capture_output=True, text=True)


def _record() -> None:
    import tempfile

    paths, fixtures = {}, None
    for disable in (None, NO_AVX512):
        with tempfile.TemporaryDirectory() as directory:
            child = run_child(Path(directory), disable)
        if child.returncode != 0:
            sys.exit(child.stderr)
        result = json.loads(child.stdout)
        if fixtures not in (None, result["fixtures"]):
            sys.exit("fixture bytes differ between dispatch paths")
        fixtures = result["fixtures"]
        paths[result["path"]] = result["runs"]
    first = next(iter(paths.values()))
    common = {case: run for case, run in first.items()
              if all(runs[case] == run for runs in paths.values())}
    paths = {path: {case: run for case, run in runs.items() if case not in common}
             for path, runs in paths.items()}
    DIGESTS.write_text(json.dumps({"fixtures": fixtures, "common": common, "paths": paths},
                                  indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {', '.join(sorted(paths))} in {DIGESTS}")


if __name__ == "__main__":
    if sys.argv[1:2] == ["run"] and len(sys.argv) == 3:
        print(json.dumps(run_corpus(Path(sys.argv[2]))))
    elif sys.argv[1:] == ["record"]:
        _record()
    else:
        sys.exit(__doc__)
