"""Run one uqgate command in process, optionally traced, and write what happened.

    python3 perfbench/tracechild.py OUT.json OP {plain,traced} -- ARG...

Calls ``uqgate.cli.main([ARG...])`` and times it; with ``traced``, the
wrappers from ``tracing`` are installed first and removed afterwards. The
JSON written to OUT holds the return code, the in-process wall time of
``main``, the names of the wrapped functions and the spans. The exit status
is main's return code. ``uqgate`` must be importable (PYTHONPATH=src).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main() -> int:
    out, op, mode, separator, *argv = sys.argv[1:]
    if separator != "--" or mode not in ("plain", "traced"):
        raise SystemExit(__doc__)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracing
    import uqgate.cli

    tracer = tracing.Tracer(op)
    if mode == "traced":
        tracer.install()
    try:
        start = time.perf_counter()
        code = uqgate.cli.main(argv)
        wall = time.perf_counter() - start
    finally:
        tracer.restore()
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"returncode": code, "wall_s": wall, "wrapped": sorted(tracer.wrapped),
                   "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
