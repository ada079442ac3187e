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

Reports go to stdout or --output; diagnostics go to stderr; exit status is
0 exactly when no error occurred. CSV output uses 9 significant digits,
'.' decimals, and LF line endings so files are identical across platforms.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from contextlib import contextmanager

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
from .stats import ClassStats, ensemble_blocks

DEFAULT_K = 1.0
DEFAULT_EPS = 1e-8

_INT_COLUMNS = ("sample", "decision", "correct", "epoch", "collapse")
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # repr -> json

OOD_MEASURES = (
    "tu", "au", "eu", "epce", "epkl", "epjs", "gmu",
    "gated_tu", "gated_au", "gated_eu",
)


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def _parse_float_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise ValueError(f"bad numeric list {text!r}: {exc}") from exc
    if not values:
        raise ValueError(f"empty numeric list {text!r}")
    return values


def _parse_k_grid(text: str) -> list[float]:
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
        return list(np.linspace(lo, hi, count))
    return _parse_float_list(text)


@contextmanager
def _open_output(path: str | None):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            yield handle


def _read_input(path: str) -> PredictionTensor:
    """Read one file to analyse; the analysis softmaxes logits one sample block at a time."""
    tensor = read_ept_file(path)
    if tensor.manifest.kind == "logits":
        print(f"note: {path} contains logits; applying softmax", file=sys.stderr)
    return tensor


def _require_multiclass(tensor: PredictionTensor, command: str) -> None:
    if tensor.manifest.task != "multiclass":
        raise ValueError(f"{command} requires a multiclass tensor")


# ---------------------------------------------------------------------------
# report


def _report_rows(tensor, labels, configs):
    """The report's columns, one list of (name, values) per sample block."""
    eps = configs[0].epsilon
    for start, stop, ens in ensemble_blocks(tensor):
        std = measures.decompose(ens)
        gmu, _ = margin.gmu_multiclass(ens.stats, eps=eps)
        decisions = margin.decide_multiclass(ens.stats, k=configs[0].k, eps=eps)

        columns = [("sample", np.arange(start, stop))]
        columns += [("tu", std.tu), ("au", std.au), ("eu", std.eu)]
        for cfg in configs:
            suffix = _k_suffix(cfg.k)
            dec = gating.decompose_gated(ens, cfg)
            columns += [(f"tu_{suffix}", dec.tu), (f"au_{suffix}", dec.au),
                        (f"eu_{suffix}", dec.eu)]
        columns += [
            ("gmu", gmu),
            ("snr", decisions.snr),
            ("decision", decisions.decision),
            ("epce", measures.pairwise_ce(ens)),
            ("epkl", measures.pairwise_kl(ens)),
            ("epjs", measures.pairwise_js(ens)),
        ]
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
        return [_JSON_NONFINITE.get(cell, cell) for cell in map(repr, values.tolist())]
    ints = values.astype(np.int64).tolist()
    if name != "decision":
        return ints
    undecided = "uncertain" if fmt == "csv" else '"uncertain"'
    return [undecided if v == margin.UNCERTAIN else v for v in ints]


def _emit_table(blocks, fmt, out):
    """Write CSV, or what ``json.dump(records, out, indent=2)`` writes, one block at a time.

    ``blocks`` yields lists of (name, values) columns with the same names;
    the first block sets the header.
    """
    blocks = iter(blocks)
    first = next(blocks)
    names = [name for name, _ in first]
    if fmt == "csv":
        out.write(",".join(names) + "\n")
        # Floats to 9 significant digits; an undecided decision is already text.
        specs = ["%s" if n == "decision" else "%d" if n in _INT_COLUMNS else "%.9g" for n in names]
        record, lead, sep = ",".join(specs) + "\n", "", ""
    else:
        out.write("[")
        record = "  {\n" + ",\n".join(f"    {json.dumps(name)}: %s" for name in names) + "\n  }"
        lead, sep = "\n", ",\n"
    wrote = False
    for columns in itertools.chain([first], blocks):
        cells = [_cells(name, values, fmt) for name, values in columns]
        if cells[0]:
            out.write((sep if wrote else lead) + sep.join([record % row for row in zip(*cells)]))
            wrote = True
    if fmt == "json":
        out.write("\n]\n" if wrote else "]\n")


def cmd_report(args) -> int:
    # GateConfig applies gating.check_k and gating.check_epsilon before any input is read.
    k_values = list(dict.fromkeys(_parse_float_list(args.k)))
    configs = [gating.GateConfig(k=k, epsilon=args.epsilon) for k in k_values]
    named = {}
    for k in k_values:
        suffix = _k_suffix(k)
        if named.setdefault(suffix, k) != k:
            raise ValueError(f"k values {named[suffix]!r} and {k!r} both name the columns "
                             f"tu_{suffix}, au_{suffix} and eu_{suffix}")
    tensor = _read_input(args.input)
    _require_multiclass(tensor, "report")
    labels = None
    if args.labels:
        labels = read_labels_file(args.labels, tensor.manifest)
    with _open_output(args.output) as out:
        _emit_table(_report_rows(tensor, labels, configs), args.format, out)
    return 0


# ---------------------------------------------------------------------------
# diversity


def cmd_diversity(args) -> int:
    # A generator, so one snapshot is in memory at a time.
    series = diagnostics.collapse_epoch(map(_read_input, args.inputs), tau=args.tau)
    with _open_output(args.output) as out:
        if args.format == "csv":
            collapse = series.epochs == series.collapse_epoch  # all False when None
            _emit_table([[("epoch", series.epochs), ("diversity", series.values),
                          ("collapse", collapse)]], "csv", out)
        else:
            json.dump(
                {
                    "epochs": [int(e) for e in series.epochs],
                    "diversity": [float(v) for v in series.values],
                    "tau": series.tau,
                    "collapse_epoch": series.collapse_epoch,
                },
                out,
                indent=2,
            )
            out.write("\n")
    return 0


# ---------------------------------------------------------------------------
# coverage


def cmd_coverage(args) -> int:
    k_grid = _parse_k_grid(args.k_grid)
    for k in k_grid:
        gating.check_k(k)
    gating.check_epsilon(args.epsilon)
    tensor = _read_input(args.input)
    _require_multiclass(tensor, "coverage")
    labels = read_labels_file(args.labels, tensor.manifest)
    stats = ClassStats.from_tensor(tensor)
    curve = diagnostics.coverage_risk(stats, labels, k_grid, eps=args.epsilon)
    with _open_output(args.output) as out:
        out.write("k,coverage,risk\n")
        for k, cov, risk in zip(curve.k, curve.coverage, curve.risk):
            risk_cell = "NA" if np.isnan(risk) else _fmt(float(risk))
            out.write(f"{_fmt(float(k))},{_fmt(float(cov))},{risk_cell}\n")
    return 0


# ---------------------------------------------------------------------------
# calibrate


def cmd_calibrate(args) -> int:
    tensor = read_ept_file(args.input)
    if tensor.manifest.kind != "logits":
        raise ValueError("calibration requires a logits tensor (kind=logits)")
    _require_multiclass(tensor, "calibrate")
    labels = read_labels_file(args.labels, tensor.manifest)
    if args.per_member:
        fit = calibration.fit_per_member(tensor, labels)
        payload = {
            "temperatures": [float(t) for t in fit.temperature],
            "nll_before": [float(v) for v in fit.nll_before],
            "nll_after": [float(v) for v in fit.nll_after],
        }
    else:
        fit = calibration.fit_global(tensor, labels)
        payload = {
            "temperature": float(fit.temperature),
            "nll_before": float(fit.nll_before),
            "nll_after": float(fit.nll_after),
        }
    with _open_output(args.output) as out:
        json.dump(payload, out, indent=2)
        out.write("\n")
    return 0


# ---------------------------------------------------------------------------
# ood


def _ood_scores(tensor: PredictionTensor, names, k: float, eps: float) -> list[np.ndarray]:
    """The named scores of one file, computed one sample block at a time."""
    _require_multiclass(tensor, "ood")
    cfg = gating.GateConfig(k=k, epsilon=eps)
    blocks = [_block_scores(ens, names, cfg) for _, _, ens in ensemble_blocks(tensor)]
    return [np.concatenate(column) for column in zip(*blocks)]


def _block_scores(ens, names, cfg: gating.GateConfig) -> list[np.ndarray]:
    """The named scores of one block, all read from its view."""
    std = functools.cache(lambda: measures.decompose(ens))
    gated = functools.cache(lambda: gating.decompose_gated(ens, cfg))
    score = {
        "tu": lambda: std().tu,
        "au": lambda: std().au,
        "eu": lambda: std().eu,
        "epce": lambda: measures.pairwise_ce(ens),
        "epkl": lambda: measures.pairwise_kl(ens),
        "epjs": lambda: measures.pairwise_js(ens),
        "gmu": lambda: margin.gmu_multiclass(ens.stats, eps=cfg.epsilon)[0],
        "gated_tu": lambda: gated().tu,
        "gated_au": lambda: gated().au,
        "gated_eu": lambda: gated().eu,
    }
    return [score[name]() for name in names]


def cmd_ood(args) -> int:
    gating.check_k(args.k)
    gating.check_epsilon(args.epsilon)
    if args.measure not in (*OOD_MEASURES, "all"):
        raise ValueError(f"unknown measure {args.measure!r}; choose from {OOD_MEASURES} or 'all'")
    names = OOD_MEASURES if args.measure == "all" else (args.measure,)
    # One payload at a time: the ID file is scored, and dropped, before the OOD file is read.
    neg = _ood_scores(_read_input(args.id), names, args.k, args.epsilon)
    pos = _ood_scores(_read_input(args.ood), names, args.k, args.epsilon)
    scores = {name: diagnostics.auroc(n, p) for name, n, p in zip(names, neg, pos)}
    with _open_output(args.output) as out:
        json.dump({"k": args.k, "auroc": scores}, out, indent=2)
        out.write("\n")
    return 0


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args) -> int:
    cfg = synth.SynthConfig(
        samples=args.samples,
        classes=args.classes,
        members=args.members,
        s_signal=args.s_signal,
        s_noise=args.s_noise,
        seed=args.seed,
        mode=args.mode,
        epochs=args.epochs,
        decay=args.decay,
    )
    if cfg.mode == "static":
        probs, logits, labels = synth.generate(cfg)
        write_ept_file(probs, f"{args.out}_probs.ept")
        write_ept_file(logits, f"{args.out}_logits.ept")
        with open(f"{args.out}_labels.csv", "w", encoding="utf-8", newline="") as handle:
            write_labels(labels, handle)
        print(f"wrote {args.out}_probs.ept, {args.out}_logits.ept, {args.out}_labels.csv",
              file=sys.stderr)
    else:
        for epoch, tensor in synth._collapse_epochs(cfg):  # one epoch in memory at a time
            write_ept_file(tensor, f"{args.out}_epoch{epoch:03d}.ept")
        print(f"wrote {cfg.epochs} epoch files under prefix {args.out}", file=sys.stderr)
    return 0


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
    rep.add_argument("--k", default="1", help="comma-separated gate sensitivities "
                     "(first value also drives the decision column)")
    rep.add_argument("--epsilon", type=float, default=DEFAULT_EPS)
    rep.add_argument("--format", choices=("csv", "json"), default="csv")
    rep.add_argument("--output", help="destination path (default stdout)")
    rep.set_defaults(func=cmd_report)

    div = sub.add_parser("diversity", help="diversity timeline and collapse epoch")
    div.add_argument("--inputs", nargs="+", required=True, help="EPT files ordered by epoch")
    div.add_argument("--tau", type=float, default=1e-3, help="collapse threshold")
    div.add_argument("--format", choices=("csv", "json"), default="csv")
    div.add_argument("--output")
    div.set_defaults(func=cmd_diversity)

    cov = sub.add_parser("coverage", help="coverage/risk curve over gate sensitivities")
    cov.add_argument("--input", required=True)
    cov.add_argument("--labels", required=True)
    cov.add_argument("--k-grid", dest="k_grid", default="0.5,1,2,4",
                     help="comma list or lo:hi:count")
    cov.add_argument("--epsilon", type=float, default=DEFAULT_EPS)
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
    ood.add_argument("--epsilon", type=float, default=DEFAULT_EPS)
    ood.add_argument("--output")
    ood.set_defaults(func=cmd_ood)

    syn = sub.add_parser("synth", help="generate synthetic ensemble fixtures")
    syn.add_argument("--samples", type=int, required=True)
    syn.add_argument("--classes", type=int, required=True)
    syn.add_argument("--members", type=int, required=True)
    syn.add_argument("--s-signal", dest="s_signal", type=float, default=1.0)
    syn.add_argument("--s-noise", dest="s_noise", type=float, default=0.5)
    syn.add_argument("--seed", type=int, default=0)
    syn.add_argument("--mode", choices=("static", "collapse"), default="static")
    syn.add_argument("--epochs", type=int, default=1, help="collapse mode only")
    syn.add_argument("--decay", type=float, default=1.0, help="collapse mode only")
    syn.add_argument("--out", required=True, help="output path prefix")
    syn.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EptError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
