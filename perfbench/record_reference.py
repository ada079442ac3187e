"""Record the reference outputs that run.py compares against at one seed.

    python3 perfbench/record_reference.py [--seed N]

Runs every command of every workload once through the uqgate CLI, requires
the seed-independent invariants to pass, and writes
reference/seed<N>/<workload>.json. Re-record only when an output change is
intended and explained.
"""

from __future__ import annotations

import argparse
import json
import sys

import checks
import measure
import run
import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    args = parser.parse_args()
    env = run.child_env()
    target = run.REFERENCE_DIR / f"seed{args.seed}"
    target.mkdir(parents=True, exist_ok=True)
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, run.ROOT, args.seed)
        stderr_path = str(workloads.work_dir(run.ROOT, name) / "stderr.txt")
        entries = {}
        for cmd in wl.commands:
            result = measure.run_child(run.cli_argv(cmd), env, str(run.ROOT), stderr_path)
            problems = run.exit_problems(result) or checks.check(cmd, None)
            if problems:
                print(f"{name}/{cmd.name}: {problems}", file=sys.stderr)
                return 1
            entries[cmd.name] = checks.record(cmd)
        path = target / f"{name}.json"
        lines = [f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
                 for k, v in entries.items()]
        path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
        print(f"wrote {path.relative_to(run.ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
