"""The uqgate benchmark: CLI wall time and peak RSS per workload, or a traced breakdown.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a repository checkout; the program is taken from
``src/`` there. Fixtures are generated from the seed and cached under
``.perfbench_cache/``. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the full record (every metric with its percentile and sample count,
per-command times, output problems and the environment). See README.md.

--trace 0 times the uqgate CLI in child processes, one at a time: one
untimed warm-up of each command, then whole iterations until the next one
would end after S seconds (at least one). An iteration is
SETUP_PROBES_PER_ITERATION fresh-interpreter imports for ``setup_s``, then
the workload's commands.

--trace 1 runs ``python -X importtime`` for the start-up layer, then every
command twice in fresh processes that call ``uqgate.cli.main`` in process:
once plain and once with span wrappers around each module's public
functions, and derives the per-layer metrics from the spans.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import measure  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES_PER_ITERATION = 2
# The gated end-to-end metrics: present on every workload and never 0.
HEADLINE = ("setup_s", "samples_per_s", "peak_rss_mib")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
PROBE = ("import time, uqgate.cli; "
         "print(time.clock_gettime(time.CLOCK_MONOTONIC))")


def child_env() -> dict[str, str]:
    src = str(ROOT / "src")
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))


def environment(seed: int) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, check=False)
            commit = done.stdout.strip() or None
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "seed": seed,
        "default_seed": workloads.DEFAULT_SEED,
        "held_out_seed": workloads.HELD_OUT_SEED,
    }


def load_reference(workload: str, seed: int) -> dict | None:
    path = REFERENCE_DIR / f"seed{seed}" / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


class Checker:
    """Output checks, skipping outputs already verified byte for byte in this run."""

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.verified: set[tuple[str, str]] = set()

    def __call__(self, cmd) -> list[str]:
        try:
            key = (cmd.name, checks.output_digest(cmd))
        except OSError as exc:
            return [f"missing output: {exc}"]
        if key in self.verified:
            return []
        ref = self.reference.get(cmd.name) if self.reference is not None else None
        problems = checks.check(cmd, ref)
        if not problems:
            self.verified.add(key)
        return problems


def exit_problems(result: measure.ChildResult) -> list[str]:
    if result.returncode == 0:
        return []
    lines = result.stderr.strip().splitlines()
    return [f"exit status {result.returncode}: {lines[-1] if lines else ''}"]


def cli_argv(cmd: workloads.Command) -> list[str]:
    return [sys.executable, "-m", "uqgate.cli", *cmd.argv]


def setup_probe(env: dict) -> float:
    """Seconds from spawning a fresh interpreter until ``import uqgate.cli`` returns."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True)
    return float(done.stdout) - start


def run_timed(wl: workloads.Workload, env: dict, checker: Checker, seconds: float) -> dict:
    stderr_path = str(workloads.work_dir(ROOT, wl.name) / "stderr.txt")

    def run(cmd):
        return measure.run_child(cli_argv(cmd), env, str(ROOT), stderr_path)

    for cmd in wl.commands:  # warm-up: compiles bytecode, fills the page cache
        run(cmd)

    # Set-up probes are spread over the run, so that a slow spell of the host
    # moves their median as little as it moves the commands'.
    iterations, setup, problems = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        setup.extend(setup_probe(env) for _ in range(SETUP_PROBES_PER_ITERATION))
        results = {}
        for cmd in wl.commands:
            result = run(cmd)
            attempted += 1
            found = exit_problems(result) or checker(cmd)
            if found:
                failed += 1
                problems.append({"command": cmd.name, "problems": found[:5]})
            results[cmd.name] = result
        iterations.append(results)
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break

    samples = sum(cmd.samples for cmd in wl.commands)
    rate = [samples / sum(r.wall_s for r in it.values()) for it in iterations]
    rss = [max(r.maxrss_mib for r in it.values()) for it in iterations]
    full = {"setup_s": {**measure.summarize(setup), "unit": "s"}}
    for cmd in wl.commands:
        full[f"{cmd.name}_s"] = {**measure.summarize([it[cmd.name].wall_s for it in iterations]),
                                 "unit": "s"}
    full["samples_per_s"] = {**measure.summarize(rate), "unit": "samples/s",
                             "base": f"{samples} input samples per iteration"}
    full["peak_rss_mib"] = {**measure.summarize(rss), "unit": "MiB"}
    full["failed_ratio"] = {"value": failed / attempted, "unit": "fraction",
                            "base": f"{failed} of {attempted} commands"}
    headline = {name: {"value": full[name]["median"], "unit": full[name]["unit"]}
                for name in HEADLINE}
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "all_metrics": full, "metrics": headline,
            "maxrss_mib": {cmd.name: [it[cmd.name].maxrss_mib for it in iterations]
                           for cmd in wl.commands}}


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)$")


def parse_importtime(text: str) -> list[tuple[int, int, str, int | None]]:
    """(level, cumulative_us, module, parent index) per ``-X importtime`` line.

    A module's line comes after those of the modules it imported, indented one
    level deeper, so each entry adopts the unclaimed deeper entries before it.
    """
    entries, pending = [], []
    for line in text.splitlines():
        match = _IMPORTTIME.match(line)
        if not match:
            continue
        index = len(entries)
        level = len(match.group(3)) // 2
        while pending and entries[pending[-1]][0] > level:
            child = pending.pop()
            entries[child] = (*entries[child][:3], index)
        entries.append((level, int(match.group(2)), match.group(4), None))
        pending.append(index)
    return entries


def startup_metrics(text: str) -> dict[str, dict]:
    entries = parse_importtime(text)

    def outer_seconds(package: str) -> float:
        def inside(name):
            return name == package or name.startswith(package + ".")
        total = 0
        for _, cumulative, name, parent in entries:
            if not inside(name):
                continue
            while parent is not None and not inside(entries[parent][2]):
                parent = entries[parent][3]
            if parent is None:
                total += cumulative
        return total / 1e6

    return {
        "startup.import_s": {"value": outer_seconds("uqgate"), "unit": "s"},
        "startup.scipy_import_s": {"value": outer_seconds("scipy"), "unit": "s"},
        "startup.numpy_import_s": {"value": outer_seconds("numpy"), "unit": "s"},
        "startup.modules_loaded": {"value": len(entries), "unit": "count"},
    }


def run_traced(wl: workloads.Workload, env: dict, checker: Checker) -> dict:
    work = workloads.work_dir(ROOT, wl.name)
    stderr_path = str(work / "stderr.txt")
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import uqgate.cli"],
                          env=env, cwd=ROOT, capture_output=True, text=True, check=True)
    spans, wrapped, problems = [], set(), []
    wall = {"plain": 0.0, "traced": 0.0}
    attempted = failed = output_bytes = 0
    for cmd in wl.commands:
        for mode in ("plain", "traced"):
            out = work / f"{cmd.name}-{mode}.json"
            result = measure.run_child(
                [sys.executable, str(HERE / "tracechild.py"), str(out), f"{cmd.name}:{mode}",
                 mode, "--", *cmd.argv], env, str(ROOT), stderr_path)
            attempted += 1
            found = exit_problems(result) or checker(cmd)
            if found:
                failed += 1
                problems.append({"command": cmd.name, "mode": mode, "problems": found[:5]})
                continue
            record = json.loads(out.read_text(encoding="utf-8"))
            wall[mode] += record["wall_s"]
            offset = len(spans)
            for span in record["spans"]:
                if span["parent"] is not None:
                    span["parent"] += offset
                spans.append(span)
            wrapped.update(record["wrapped"])
        if cmd.output is not None and os.path.exists(cmd.output):
            output_bytes += os.path.getsize(cmd.output)
    metrics = startup_metrics(done.stderr)
    layer, absent, bases = tracing.layer_metrics(spans, wrapped, wall["traced"], wall["plain"],
                                                 output_bytes)
    metrics.update(layer)
    trace_file = ROOT / workloads.CACHE_DIR / "traces" / f"{wl.name}.json"
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    trace_file.write_text(json.dumps({"workload": wl.name, "spans": spans}), encoding="utf-8")
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "metrics": metrics, "absent": absent, "bases": bases,
            "trace_file": str(trace_file.relative_to(ROOT))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "uqgate" / "cli.py").is_file():
        print(f"error: no uqgate sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2

    env_record = environment(args.seed)
    env_record["loadavg_start"] = os.getloadavg()
    wl = workloads.build(args.workload, ROOT, args.seed)
    checker = Checker(load_reference(args.workload, args.seed))
    env = child_env()
    if args.trace:
        result = run_traced(wl, env, checker)
    else:
        result = run_timed(wl, env, checker, args.seconds)
    env_record["loadavg_end"] = os.getloadavg()

    record = {"workload": wl.name, "sizes": wl.sizes, "trace": args.trace,
              "reference_checked": checker.reference is not None,
              "environment": env_record, **result}
    print(json.dumps(record))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
