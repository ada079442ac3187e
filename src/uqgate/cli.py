"""Command-line interface: reproducible uncertainty reports from EPT files.

Subcommands
-----------
report      per-sample uncertainty table (standard + gated decompositions,
            GMU, SNR, abstention decision, pairwise divergences)
diversity   diversity timeline over an epoch-ordered list of EPT files,
            with collapse detection
coverage    coverage/risk curve over a grid of gate sensitivities
calibrate   temperature fit for a logits tensor (global or per member)
ood         AUROC of uncertainty scores for separating two EPT files
synth       deterministic synthetic ensemble fixtures

Each command checks its arguments, reads its inputs and returns its report
as text; ``main`` alone writes that text, to stdout or to --output, which it
opens only once the command's checks have passed. Diagnostics go to stderr;
exit status is 0 exactly when no error occurred. CSV output uses 9
significant digits, '.' decimals, and LF line endings so files are identical
across platforms.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import gc
import itertools
import json
import os
import stat
import sys
from collections.abc import Iterable
from contextlib import closing, suppress

# uqgate calls no BLAS routine, and OpenBLAS's worker threads cost start-up time.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import calibration, diagnostics, gating, margin, measures, synth
from .ept import (
    EptError,
    PredictionTensor,
    read_ept_file,
    read_labels_file,
    write_ept_file,
    write_labels,
)
from .stats import blockwise, ensemble_blocks

DEFAULT_K = 1.0

# glibc malloc policy of a CLI run: blocks below MMAP_THRESHOLD come from the
# heap, and up to TRIM_THRESHOLD of freed heap stays mapped, so block-sized
# work arrays reuse pages instead of faulting fresh ones in on every block.
MMAP_THRESHOLD = 4 << 20
TRIM_THRESHOLD = 64 << 20
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameter numbers, malloc.h
_MALLOC_ENVIRONMENT = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")

_INT_COLUMNS = ("sample", "decision", "correct", "epoch", "collapse")
_FLOAT_CELL = "%.9g"
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # repr -> json

# report and ood print entries of measures.SCORES; report names a trio's columns by part.
_TRIO = gating.Decomposition._fields
OOD_MEASURES = tuple(measures.SCORES)


def _parse_float_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise ValueError(f"bad numeric list {text!r}: {exc}") from exc
    if not values:
        raise ValueError(f"empty numeric list {text!r}")
    return values


def _parse_k_grid(text: str) -> np.ndarray:
    """Either 'lo:hi:count' (inclusive, evenly spaced) or 'k1,k2,...'."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid must be lo:hi:count, got {text!r}")
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError("grid count must be >= 1")
        gating.check_k(lo)
        gating.check_k(hi)
        return np.linspace(lo, hi, count)
    return np.array(_parse_float_list(text))


def _read_input(path: str) -> PredictionTensor:
    """Read one file to analyse; the analysis softmaxes logits one sample block at a time."""
    tensor = read_ept_file(path)
    if tensor.manifest.kind == "logits":
        print(f"note: {path} contains logits; applying softmax", file=sys.stderr)
    return tensor


# ---------------------------------------------------------------------------
# report


def _report_rows(tensor, labels, configs):
    """The report's columns, one list of (name, values) per sample block."""
    first = configs[0]  # its k also drives the decision column
    for start, stop, ens in ensemble_blocks(tensor):
        decisions = margin.decide_multiclass(ens.stats, k=first.k, eps=first.epsilon)
        columns = [("sample", np.arange(start, stop))]
        columns += zip(_TRIO, measures.block_scores(ens, _TRIO, first))
        for cfg in configs:
            gated = measures.block_scores(ens, [f"gated_{part}" for part in _TRIO], cfg)
            columns += zip([f"{part}_{_k_suffix(cfg.k)}" for part in _TRIO], gated)
        gmu, epce, epkl, epjs = measures.block_scores(ens, ("gmu", "epce", "epkl", "epjs"), first)
        columns += [("gmu", gmu), ("snr", decisions.snr), ("decision", decisions.decision),
                    ("epce", epce), ("epkl", epkl), ("epjs", epjs)]
        if labels is not None:
            columns.append(("correct", (decisions.top1 == labels[start:stop]).astype(np.int64)))
        yield columns


def _k_suffix(k: float) -> str:
    """The suffix of the gated columns for sensitivity k: tu_k1, au_k1, eu_k1 for k = 1."""
    return f"k{k:g}"


def _cells(name, values, fmt):
    """One column's cells for the record template: numbers, except JSON floats as text and
    "uncertain" for an undecided decision."""
    if name not in _INT_COLUMNS:
        if fmt == "csv":
            return values.tolist()
        cells = list(map(repr, values.tolist()))
        if np.isfinite(values).all():
            return cells
        return [_JSON_NONFINITE.get(cell, cell) for cell in cells]
    ints = values.astype(np.int64).tolist()
    if name != "decision":
        return ints
    undecided = "uncertain" if fmt == "csv" else '"uncertain"'
    return [undecided if v == margin.UNCERTAIN else v for v in ints]


def _table_text(blocks, fmt):
    """Yield CSV, or what ``json.dump(records, out, indent=2)`` writes, one block at a time.

    ``blocks`` yields lists of (name, values) columns with the same names;
    the first block sets the header.
    """
    blocks = iter(blocks)
    first = next(blocks)
    names = [name for name, _ in first]
    if fmt == "csv":
        yield ",".join(names) + "\n"
        # An undecided decision is already text.
        specs = ["%s" if n == "decision" else "%d" if n in _INT_COLUMNS else _FLOAT_CELL
                 for n in names]
        record, lead, sep = ",".join(specs) + "\n", "", ""
    else:
        yield "["
        record = "  {\n" + ",\n".join(f"    {json.dumps(name)}: %s" for name in names) + "\n  }"
        lead, sep = "\n", ",\n"
    wrote = False
    for columns in itertools.chain([first], blocks):
        cells = [_cells(name, values, fmt) for name, values in columns]
        if cells[0]:
            yield (sep if wrote else lead) + sep.join([record % row for row in zip(*cells)])
            wrote = True
    if fmt == "json":
        yield "\n]\n" if wrote else "]\n"


def _json_text(value) -> list[str]:
    """What ``json.dump(value, out, indent=2)`` writes, and a final newline."""
    return [json.dumps(value, indent=2), "\n"]


def cmd_report(args) -> Iterable[str]:
    # GateConfig checks k and epsilon before any input is read.
    k_values = list(dict.fromkeys(_parse_float_list(args.k)))
    configs = [gating.GateConfig(k=k, epsilon=args.epsilon) for k in k_values]
    named = {}
    for k in k_values:
        suffix = _k_suffix(k)
        if named.setdefault(suffix, k) != k:
            raise ValueError(f"k values {named[suffix]!r} and {k!r} both name the columns "
                             f"tu_{suffix}, au_{suffix} and eu_{suffix}")
    tensor = _read_input(args.input)
    tensor.manifest.require("report", task="multiclass")
    labels = None
    if args.labels:
        labels = read_labels_file(args.labels, tensor.manifest)
    # A plain function, not a generator: the input and labels are read before main opens
    # --output. Only the table is lazy, one block at a time.
    return _table_text(_report_rows(tensor, labels, configs), args.format)


# ---------------------------------------------------------------------------
# diversity


def cmd_diversity(args) -> Iterable[str]:
    gating.check_positive("tau", args.tau)
    # A generator, so one snapshot is in memory at a time.
    series = diagnostics.collapse_epoch(map(_read_input, args.inputs), tau=args.tau)
    if args.format == "csv":
        collapse = series.epochs == series.collapse_epoch  # all False when None
        return _table_text([[("epoch", series.epochs), ("diversity", series.values),
                             ("collapse", collapse)]], "csv")
    # tolist: Python ints and floats, as json writes them.
    return _json_text({"epochs": series.epochs.tolist(), "diversity": series.values.tolist(),
                       "tau": series.tau, "collapse_epoch": series.collapse_epoch})


# ---------------------------------------------------------------------------
# coverage


def cmd_coverage(args) -> Iterable[str]:
    k_grid = _parse_k_grid(args.k_grid)
    for k in k_grid:
        gating.check_k(k)
    gating.check_positive("epsilon", args.epsilon)
    tensor = _read_input(args.input)
    tensor.manifest.require("coverage", task="multiclass")
    labels = read_labels_file(args.labels, tensor.manifest)
    curve = diagnostics._coverage_curve(blockwise(tensor, lambda e: e.stats.top2), labels, k_grid)
    lines = ["k,coverage,risk\n"]
    for k, cov, risk in zip(curve.k, curve.coverage, curve.risk):
        risk_cell = "NA" if np.isnan(risk) else _FLOAT_CELL % risk
        lines.append(f"{_FLOAT_CELL % k},{_FLOAT_CELL % cov},{risk_cell}\n")
    return lines


# ---------------------------------------------------------------------------
# calibrate


def cmd_calibrate(args) -> Iterable[str]:
    tensor = read_ept_file(args.input)
    tensor.manifest.require("calibration", kind="logits")
    tensor.manifest.require("calibrate", task="multiclass")
    labels = read_labels_file(args.labels, tensor.manifest)
    loss = calibration.objective(tensor, labels, pooled=not args.per_member)
    del tensor  # the search runs on the objective's copy of the logits
    fit = calibration.fit_objective(loss)
    payload = {"temperatures" if args.per_member else "temperature": fit.temperature,
               "nll_before": fit.nll_before, "nll_after": fit.nll_after}
    # As Python floats: a list of one per member, or one for all members.
    return _json_text({k: np.asarray(v).tolist() for k, v in payload.items()})


# ---------------------------------------------------------------------------
# ood


def _ood_scores(tensor: PredictionTensor, names, cfg) -> list[np.ndarray]:
    """The named scores of one file, computed one sample block at a time."""
    tensor.manifest.require("ood", task="multiclass")
    return blockwise(tensor, functools.partial(measures.block_scores, names=names, cfg=cfg))


def cmd_ood(args) -> Iterable[str]:
    cfg = gating.GateConfig(k=args.k, epsilon=args.epsilon)  # checks k, then epsilon
    if args.measure not in (*OOD_MEASURES, "all"):
        raise ValueError(f"unknown measure {args.measure!r}; choose from {OOD_MEASURES} or 'all'")
    names = OOD_MEASURES if args.measure == "all" else (args.measure,)
    # One payload at a time: the ID file is scored, and dropped, before the OOD file is read.
    neg = _ood_scores(_read_input(args.id), names, cfg)
    pos = _ood_scores(_read_input(args.ood), names, cfg)
    scores = {name: diagnostics.auroc(n, p) for name, n, p in zip(names, neg, pos)}
    return _json_text({"k": args.k, "auroc": scores})


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args) -> None:
    # The synth subparser's dests are SynthConfig's field names.
    cfg = synth.SynthConfig(**{f.name: getattr(args, f.name)
                               for f in dataclasses.fields(synth.SynthConfig)})
    if cfg.mode == "static":
        probs, logits, labels = synth.generate(cfg)
        write_ept_file(probs, f"{args.out}_probs.ept")
        write_ept_file(logits, f"{args.out}_logits.ept")
        with open(f"{args.out}_labels.csv", "w", encoding="utf-8", newline="") as handle:
            write_labels(labels, handle)
        print(f"wrote {args.out}_probs.ept, {args.out}_logits.ept, {args.out}_labels.csv",
              file=sys.stderr)
    else:
        # closing: a failed write still joins the series' helper thread before main returns.
        with closing(synth._collapse_epochs(cfg)) as series:
            for epoch, tensor in series:  # one epoch in memory at a time
                write_ept_file(tensor, f"{args.out}_epoch{epoch:03d}.ept")
                del tensor  # freed before the next epoch's softmax
        print(f"wrote {cfg.epochs} epoch files under prefix {args.out}", file=sys.stderr)


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uqgate",
        description="Variance-gated uncertainty analysis for classifier ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="per-sample uncertainty report")
    rep.add_argument("--input", required=True, help="EPT file (logits are softmaxed)")
    rep.add_argument("--labels", help="label CSV; adds a correctness column")
    rep.add_argument("--k", default=f"{DEFAULT_K:g}", help="comma-separated gate sensitivities "
                     "(first value also drives the decision column)")
    rep.add_argument("--epsilon", type=float, default=gating.DEFAULT_EPS)
    rep.add_argument("--format", choices=("csv", "json"), default="csv")
    rep.add_argument("--output", help="destination path (default stdout)")
    rep.set_defaults(func=cmd_report)

    div = sub.add_parser("diversity", help="diversity timeline and collapse epoch")
    div.add_argument("--inputs", nargs="+", required=True, help="EPT files ordered by epoch")
    div.add_argument("--tau", type=float, default=diagnostics.DEFAULT_TAU,
                     help="collapse threshold")
    div.add_argument("--format", choices=("csv", "json"), default="csv")
    div.add_argument("--output")
    div.set_defaults(func=cmd_diversity)

    cov = sub.add_parser("coverage", help="coverage/risk curve over gate sensitivities")
    cov.add_argument("--input", required=True)
    cov.add_argument("--labels", required=True)
    cov.add_argument("--k-grid", dest="k_grid", default="0.5,1,2,4",
                     help="comma list or lo:hi:count")
    cov.add_argument("--epsilon", type=float, default=gating.DEFAULT_EPS,
                     help="checked, but has no effect: it enters only the SNR, "
                     "which the rule does not read")
    cov.add_argument("--output")
    cov.set_defaults(func=cmd_coverage)

    cal = sub.add_parser("calibrate", help="temperature scaling fit")
    cal.add_argument("--input", required=True, help="logits EPT file")
    cal.add_argument("--labels", required=True)
    cal.add_argument("--per-member", action="store_true",
                     help="fit one temperature per ensemble member")
    cal.add_argument("--output")
    cal.set_defaults(func=cmd_calibrate)

    ood = sub.add_parser("ood", help="AUROC of uncertainty scores, OOD vs in-domain")
    ood.add_argument("--id", required=True, help="in-domain EPT file")
    ood.add_argument("--ood", required=True, help="out-of-domain EPT file")
    ood.add_argument("--measure", default="all",
                     help=f"one of {', '.join(OOD_MEASURES)}, or 'all'")
    ood.add_argument("--k", type=float, default=DEFAULT_K, help="sensitivity for gated measures")
    ood.add_argument("--epsilon", type=float, default=gating.DEFAULT_EPS)
    ood.add_argument("--output")
    ood.set_defaults(func=cmd_ood)

    syn = sub.add_parser("synth", help="generate synthetic ensemble fixtures")
    syn.add_argument("--samples", type=int, required=True)
    syn.add_argument("--classes", type=int, required=True)
    syn.add_argument("--members", type=int, required=True)
    syn.add_argument("--s-signal", dest="s_signal", type=float)
    syn.add_argument("--s-noise", dest="s_noise", type=float)
    syn.add_argument("--seed", type=int)
    syn.add_argument("--mode", choices=synth.MODES)
    syn.add_argument("--epochs", type=int, help="collapse mode only")
    syn.add_argument("--decay", type=float, help="collapse mode only")
    syn.add_argument("--out", required=True, help="output path prefix")
    syn.set_defaults(func=cmd_synth, **{f.name: f.default
                                        for f in dataclasses.fields(synth.SynthConfig)
                                        if f.default is not dataclasses.MISSING})

    return parser


def _tune_allocator() -> None:
    """Apply the CLI's malloc policy, unless the user set one or libc has no ``mallopt``.

    Only ``main`` calls this: importing uqgate leaves a host program's allocator alone.
    """
    user_set = any(name in os.environ for name in _MALLOC_ENVIRONMENT)
    if user_set or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", ""):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no libc handle, or no mallopt in it
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # Both: setting either one turns off glibc's dynamic mmap threshold.
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def main(argv=None) -> int:
    _tune_allocator()
    args = _build_parser().parse_args(argv)
    temp = None
    try:
        text = args.func(args)  # None from synth, which writes its own files
        if text is not None and args.output is not None:
            try:
                mode = os.stat(args.output).st_mode  # a symlink's target's
            except FileNotFoundError:
                mode = None
            out = args.output  # not a regular file (/dev/stdout, a FIFO): written directly
            named = os.path.basename(out) not in {"", ".", ".."}  # "", "new/": open refuses
            if named and (mode is None or stat.S_ISREG(mode)):
                # A lazy report can fail part way, so it goes to a new file beside the
                # target, which takes the target's place once the whole report is written.
                target = os.path.realpath(args.output)  # a symlink keeps its link
                name = os.path.join(os.path.dirname(target), f".uqgate-{os.urandom(6).hex()}.tmp")
                # Mode 0o666 less the umask, as open(path, "w") creates a file.
                out = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                temp = name  # ours to remove from here on
            with open(out, "w", encoding="utf-8", newline="") as handle:
                handle.writelines(text)
            if temp is not None:
                if mode is not None:
                    os.chmod(temp, stat.S_IMODE(mode))  # an existing file keeps its mode
                os.replace(temp, target)
                temp = None
        elif text is not None and hasattr(sys.stdout, "buffer"):
            # A pipe whose reader closes part way takes a short write without an error;
            # writing the rest again raises it.
            sys.stdout.flush()
            for chunk in text:
                data = memoryview(chunk.encode(sys.stdout.encoding, sys.stdout.errors))
                while data:
                    data = data[sys.stdout.buffer.write(data):]
        elif text is not None:  # a text stream of an in-process caller, such as a StringIO
            sys.stdout.writelines(text)
    except (EptError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    finally:
        if temp is not None:  # the report failed: the target is left as it was
            with suppress(FileNotFoundError):
                os.unlink(temp)
    return 0


def run() -> int:
    """The program: ``main`` in a process of its own (``python -m uqgate.cli``, ``uqgate``).

    Its start-up heap lives to exit, so it is left out of every collection,
    the several at exit included. A program that calls ``main`` keeps its own.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
