"""Child-process timing and the summary statistics the benchmark reports.

Every timed command runs as its own child process, one at a time, from one
parent process (a closed loop with a single client). Wall time is taken in
the parent around spawn and reap; peak memory is the child's own
``ru_maxrss`` from ``wait4``, so no allocator hook runs inside the program.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import time
from dataclasses import dataclass

MIN_BEYOND = 10


@dataclass(frozen=True)
class ChildResult:
    returncode: int
    wall_s: float
    maxrss_mib: float
    stderr: str


def run_child(argv: list[str], env: dict[str, str], cwd: str, stderr_path: str) -> ChildResult:
    """Run one command to completion; stdout is discarded, stderr kept in a file."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    # wait4 reaped the child; tell Popen so it never waits for it again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(stderr_path, encoding="utf-8", errors="replace") as err:
        text = err.read()
    # Linux reports ru_maxrss in KiB.
    return ChildResult(proc.returncode, wall, usage.ru_maxrss / 1024.0, text)


def highest_percentile(n: int, min_beyond: int = MIN_BEYOND) -> int | None:
    """The highest integer percentile p in [50, 99] with >= min_beyond samples above it.

    The p-th percentile is the nearest-rank sample at position ceil(p/100 * n),
    so n - ceil(p/100 * n) samples lie beyond it. Returns None when even the
    median has fewer than min_beyond samples beyond it (n < 2 * min_beyond).
    """
    best = None
    for p in range(50, 100):
        if n - math.ceil(p * n / 100) >= min_beyond:
            best = p
    return best


def summarize(values: list[float]) -> dict:
    """Median, the highest percentile with ten samples beyond it, and the count."""
    ordered = sorted(values)
    n = len(ordered)
    p = highest_percentile(n)
    return {
        "median": statistics.median(ordered) if ordered else None,
        "percentile": p,
        "percentile_value": ordered[math.ceil(p * n / 100) - 1] if p is not None else None,
        "n": n,
    }
