"""The workloads: seeded fixtures and the uqgate commands one iteration runs.

Fixtures come from ``uqgate.synth`` at the benchmark's seed and are cached on
disk by shape, precision, generator parameters and seed, so generating them
never falls inside a timed region. Only the generated files reach the
program under test.
"""

from __future__ import annotations

import os
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 1
HELD_OUT_SEED = 7

CACHE_DIR = ".perfbench_cache"
CACHE_BUDGET_BYTES = 2 << 30  # newest fixture sets kept within this

OOD_SIGNAL, OOD_NOISE = 0.5, 1.0
COLLAPSE_EPOCHS, COLLAPSE_DECAY = 20, 0.4
COVERAGE_GRID = "0.25:4:16"
REPORT_K = "0.5,1,2,4"


@dataclass(frozen=True)
class Draw:
    """One static synthetic draw; it is written as probs, logits and labels files."""

    members: int
    samples: int
    classes: int
    precision: str
    seed: int
    s_signal: float = 1.0
    s_noise: float = 0.5

    @property
    def key(self) -> str:
        return (f"{self.members}x{self.samples}x{self.classes}-{self.precision}"
                f"-sig{self.s_signal:g}-noise{self.s_noise:g}-seed{self.seed}")


@dataclass(frozen=True)
class Command:
    """One timed uqgate invocation and what its output check needs to know."""

    name: str                 # metric stem: "<name>_s"
    argv: tuple[str, ...]     # arguments after "uqgate"
    samples: int              # input samples it processes (synth: samples written)
    check: str                # output check kind, see checks.py
    output: str | None        # report path it writes, None for synth
    context: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: str
    commands: tuple[Command, ...]


def fixture_paths(root: Path, draw: Draw) -> dict[str, Path]:
    """Generate (once) and return the probs, logits and labels files of a draw."""
    base = root / CACHE_DIR / "fixtures"
    target = base / draw.key
    paths = {name: target / f"{name}{ext}" for name, ext in
             (("probs", ".ept"), ("logits", ".ept"), ("labels", ".csv"))}
    if target.is_dir():
        os.utime(target)
        return paths
    # Import lazily: only a cache miss needs the generator.
    if str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))
    import numpy as np
    from uqgate import ept, synth

    probs, logits, labels = synth.generate(synth.SynthConfig(
        samples=draw.samples, classes=draw.classes, members=draw.members,
        s_signal=draw.s_signal, s_noise=draw.s_noise, seed=draw.seed))
    if draw.precision == "binary32":
        probs = ept.make_tensor(probs.data.astype(np.float32), kind="probs")
        logits = ept.make_tensor(logits.data.astype(np.float32), kind="logits")
    staging = base / f"{draw.key}.tmp{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    ept.write_ept_file(probs, staging / "probs.ept")
    ept.write_ept_file(logits, staging / "logits.ept")
    with open(staging / "labels.csv", "w", encoding="utf-8", newline="") as handle:
        ept.write_labels(labels, handle)
    os.rename(staging, target)
    _evict(base)
    return paths


def _evict(base: Path) -> None:
    sets = sorted((p for p in base.iterdir() if p.is_dir() and ".tmp" not in p.name),
                  key=lambda p: p.stat().st_mtime, reverse=True)
    total = 0
    for fixture in sets:
        total += sum(f.stat().st_size for f in fixture.iterdir())
        if total > CACHE_BUDGET_BYTES:
            shutil.rmtree(fixture, ignore_errors=True)


def _labels(path: Path) -> list[int]:
    return [int(line) for line in path.read_text(encoding="utf-8").split()]


def dense_report(root: Path, seed: int, work: Path) -> Workload:
    draw = Draw(20, 20000, 10, "binary64", seed)
    fx = fixture_paths(root, draw)
    ctx = {"samples": draw.samples, "classes": draw.classes, "labels": _labels(fx["labels"])}
    csv_out, json_out = work / "report.csv", work / "report.json"
    return Workload("dense-report", "20x20000x10 binary64 probs (32 MB) with labels", (
        Command("report", ("report", "--input", str(fx["probs"]), "--labels", str(fx["labels"]),
                           "--k", REPORT_K, "--output", str(csv_out)),
                draw.samples, "report_csv", str(csv_out), {**ctx, "k": REPORT_K}),
        Command("report_json", ("report", "--input", str(fx["probs"]), "--labels",
                                str(fx["labels"]), "--k", "1", "--format", "json",
                                "--output", str(json_out)),
                draw.samples, "report_json", str(json_out), {**ctx, "k": "1"}),
    ))


def wide_ood(root: Path, seed: int, work: Path) -> Workload:
    id_draw = Draw(10, 5000, 100, "binary32", seed)
    ood_draw = Draw(10, 5000, 100, "binary32", seed + 1, OOD_SIGNAL, OOD_NOISE)
    fx_id, fx_ood = fixture_paths(root, id_draw), fixture_paths(root, ood_draw)
    ood_out, cov_out = work / "ood.json", work / "coverage.csv"
    return Workload("wide-ood", "ID and OOD 10x5000x100 binary32 probs; ID labels", (
        Command("ood", ("ood", "--id", str(fx_id["probs"]), "--ood", str(fx_ood["probs"]),
                        "--measure", "all", "--output", str(ood_out)),
                2 * id_draw.samples, "ood_json", str(ood_out)),
        Command("coverage", ("coverage", "--input", str(fx_id["probs"]), "--labels",
                             str(fx_id["labels"]), "--k-grid", COVERAGE_GRID,
                             "--output", str(cov_out)),
                id_draw.samples, "coverage_csv", str(cov_out), {"grid": COVERAGE_GRID}),
    ))


def calibrate(root: Path, seed: int, work: Path) -> Workload:
    draw = Draw(20, 20000, 10, "binary64", seed)
    fx = fixture_paths(root, draw)
    member_out, global_out = work / "calibrate_member.json", work / "calibrate_global.json"
    ctx = {"members": draw.members}
    return Workload("calibrate", "20x20000x10 binary64 logits (same draw as dense-report)", (
        Command("calibrate_member", ("calibrate", "--input", str(fx["logits"]), "--labels",
                                     str(fx["labels"]), "--per-member",
                                     "--output", str(member_out)),
                draw.samples, "calibrate_member_json", str(member_out), ctx),
        Command("calibrate_global", ("calibrate", "--input", str(fx["logits"]), "--labels",
                                     str(fx["labels"]), "--output", str(global_out)),
                draw.samples, "calibrate_global_json", str(global_out), ctx),
    ))


def small_commands(root: Path, seed: int, work: Path) -> Workload:
    """Every command but report --format json, at shapes where start-up weighs most."""
    members, samples, classes = 20, 2000, 10  # the series the timed synth writes
    draw = Draw(members, samples, classes, "binary64", seed)
    wide = Draw(10, 500, 100, "binary32", seed)
    wide_ood = Draw(10, 500, 100, "binary32", seed + 1, OOD_SIGNAL, OOD_NOISE)
    fx, fx_wide, fx_ood = (fixture_paths(root, d) for d in (draw, wide, wide_ood))
    prefix = work / "tl"
    epochs = [f"{prefix}_epoch{e:03d}.ept" for e in range(COLLAPSE_EPOCHS)]
    written = COLLAPSE_EPOCHS * samples
    out = {name: work / name for name in ("diversity.csv", "report.csv", "ood.json",
                                          "coverage.csv", "calibrate_member.json",
                                          "calibrate_global.json")}
    return Workload("small-commands",
                    "collapse series 20 epochs of 20x2000x10; report and calibrate on "
                    "20x2000x10; ood and coverage on 10x500x100 binary32", (
        Command("synth", ("synth", "--mode", "collapse", "--epochs", str(COLLAPSE_EPOCHS),
                          "--decay", str(COLLAPSE_DECAY), "--samples", str(samples),
                          "--classes", str(classes), "--members", str(members),
                          "--seed", str(seed), "--out", str(prefix)),
                written, "synth_files", None,
                {"files": epochs, "shape": (members, samples, classes)}),
        Command("diversity", ("diversity", "--inputs", *epochs,
                              "--output", str(out["diversity.csv"])),
                written, "diversity_csv", str(out["diversity.csv"]), {"epochs": COLLAPSE_EPOCHS}),
        Command("report", ("report", "--input", str(fx["probs"]), "--labels", str(fx["labels"]),
                           "--k", REPORT_K, "--output", str(out["report.csv"])),
                draw.samples, "report_csv", str(out["report.csv"]),
                {"samples": draw.samples, "classes": draw.classes,
                 "labels": _labels(fx["labels"]), "k": REPORT_K}),
        Command("ood", ("ood", "--id", str(fx_wide["probs"]), "--ood", str(fx_ood["probs"]),
                        "--measure", "all", "--output", str(out["ood.json"])),
                2 * wide.samples, "ood_json", str(out["ood.json"])),
        Command("coverage", ("coverage", "--input", str(fx_wide["probs"]), "--labels",
                             str(fx_wide["labels"]), "--k-grid", COVERAGE_GRID,
                             "--output", str(out["coverage.csv"])),
                wide.samples, "coverage_csv", str(out["coverage.csv"]), {"grid": COVERAGE_GRID}),
        Command("calibrate_member", ("calibrate", "--input", str(fx["logits"]), "--labels",
                                     str(fx["labels"]), "--per-member",
                                     "--output", str(out["calibrate_member.json"])),
                draw.samples, "calibrate_member_json", str(out["calibrate_member.json"]),
                {"members": draw.members}),
        Command("calibrate_global", ("calibrate", "--input", str(fx["logits"]), "--labels",
                                     str(fx["labels"]), "--output",
                                     str(out["calibrate_global.json"])),
                draw.samples, "calibrate_global_json", str(out["calibrate_global.json"]),
                {"members": draw.members}),
    ))


# BENCHMARK.json gates dense-report and small-commands. wide-ood and calibrate
# keep the ROADMAP's full shapes for those commands; they are run by hand.
WORKLOADS = {
    "dense-report": dense_report,
    "wide-ood": wide_ood,
    "calibrate": calibrate,
    "small-commands": small_commands,
}


def work_dir(root: Path, name: str) -> Path:
    """Where a workload's commands write their outputs."""
    return root / CACHE_DIR / "work" / name


def build(name: str, root: Path, seed: int) -> Workload:
    """Prepare fixtures and an empty work directory for one workload."""
    work = work_dir(root, name)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return WORKLOADS[name](root, seed, work)
