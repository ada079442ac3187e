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
import json
import sys
from contextlib import contextmanager

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
from .stats import ClassStats, Ensemble, member_probs, softmax_tensor

DEFAULT_K = 1.0
DEFAULT_EPS = 1e-8

EMIT_ROWS = 4096  # table rows formatted and written per block
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
        return list(np.linspace(lo, hi, count))
    return _parse_float_list(text)


@contextmanager
def _open_output(path: str | None):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            yield handle


def _load_probs(path: str) -> PredictionTensor:
    tensor = read_ept_file(path)
    if tensor.manifest.kind == "logits":
        print(f"note: {path} contains logits; applying softmax", file=sys.stderr)
        tensor = softmax_tensor(tensor)
    return tensor


def _require_multiclass(tensor: PredictionTensor, command: str) -> None:
    if tensor.manifest.task != "multiclass":
        raise ValueError(f"{command} requires a multiclass tensor")


# ---------------------------------------------------------------------------
# report


def _report_rows(tensor, labels, configs):
    ens = Ensemble(member_probs(tensor))
    std = measures.decompose(ens)
    eps = configs[0].epsilon
    gmu, _ = margin.gmu_multiclass(ens.stats, eps=eps)
    decisions = margin.decide_multiclass(ens.stats, k=configs[0].k, eps=eps)

    columns = [("sample", np.arange(ens.stats.samples))]
    columns += [("tu", std.tu), ("au", std.au), ("eu", std.eu)]
    for cfg in configs:
        suffix = f"k{cfg.k:g}"
        dec = gating.decompose_gated(ens, cfg)
        columns += [(f"tu_{suffix}", dec.tu), (f"au_{suffix}", dec.au), (f"eu_{suffix}", dec.eu)]
    columns += [
        ("gmu", gmu),
        ("snr", decisions.snr),
        ("decision", decisions.decision),
        ("epce", measures.pairwise_ce(ens)),
        ("epkl", measures.pairwise_kl(ens)),
        ("epjs", measures.pairwise_js(ens)),
    ]
    if labels is not None:
        columns.append(("correct", (decisions.top1 == labels).astype(np.int64)))
    return columns


def _cells(name, values, fmt):
    """One column's cells as text: int, float, or "uncertain" for an undecided decision."""
    if name not in _INT_COLUMNS:
        if fmt == "csv":
            return list(map(_fmt, values.tolist()))
        return [_JSON_NONFINITE.get(cell, cell) for cell in map(repr, values.tolist())]
    ints = values.astype(np.int64).tolist()
    if name != "decision":
        return list(map(str, ints))
    undecided = "uncertain" if fmt == "csv" else '"uncertain"'
    return [undecided if v == margin.UNCERTAIN else str(v) for v in ints]


def _emit_table(columns, fmt, out):
    """Write CSV, or what ``json.dump(records, out, indent=2)`` writes, EMIT_ROWS rows a block."""
    names = [name for name, _ in columns]
    rows = len(columns[0][1])
    if fmt == "csv":
        out.write(",".join(names) + "\n")
        record, sep = ",".join(["%s"] * len(names)) + "\n", ""
    else:
        out.write("[\n" if rows else "[")
        record = "  {\n" + ",\n".join(f"    {json.dumps(name)}: %s" for name in names) + "\n  }"
        sep = ",\n"
    for start in range(0, rows, EMIT_ROWS):
        cells = [_cells(name, values[start:start + EMIT_ROWS], fmt) for name, values in columns]
        out.write((sep if start else "") + sep.join([record % row for row in zip(*cells)]))
    if fmt == "json":
        out.write("\n]\n" if rows else "]\n")


def cmd_report(args) -> int:
    # GateConfig applies gating.check_k and gating.check_epsilon before any input is read.
    k_values = list(dict.fromkeys(_parse_float_list(args.k)))
    configs = [gating.GateConfig(k=k, epsilon=args.epsilon) for k in k_values]
    tensor = _load_probs(args.input)
    _require_multiclass(tensor, "report")
    labels = None
    if args.labels:
        labels = read_labels_file(args.labels, tensor.manifest)
    columns = _report_rows(tensor, labels, configs)
    with _open_output(args.output) as out:
        _emit_table(columns, args.format, out)
    return 0


# ---------------------------------------------------------------------------
# diversity


def cmd_diversity(args) -> int:
    snapshots = [_load_probs(path) for path in args.inputs]
    series = diagnostics.collapse_epoch(snapshots, tau=args.tau)
    with _open_output(args.output) as out:
        if args.format == "csv":
            collapse = series.epochs == series.collapse_epoch  # all False when None
            _emit_table([("epoch", series.epochs), ("diversity", series.values),
                         ("collapse", collapse)], "csv", out)
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
    tensor = _load_probs(args.input)
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
    """The named scores of one file, all read from one view of it."""
    ens = Ensemble(member_probs(tensor))
    gated = functools.cache(
        lambda: gating.decompose_gated(ens, gating.GateConfig(k=k, epsilon=eps)))
    score = {
        "tu": lambda: measures.decompose(ens).tu,
        "au": lambda: measures.decompose(ens).au,
        "eu": lambda: measures.decompose(ens).eu,
        "epce": lambda: measures.pairwise_ce(ens),
        "epkl": lambda: measures.pairwise_kl(ens),
        "epjs": lambda: measures.pairwise_js(ens),
        "gmu": lambda: margin.gmu_multiclass(ens.stats, eps=eps)[0],
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
    id_tensor = _load_probs(args.id)
    ood_tensor = _load_probs(args.ood)
    _require_multiclass(id_tensor, "ood")
    _require_multiclass(ood_tensor, "ood")
    neg = _ood_scores(id_tensor, names, args.k, args.epsilon)
    pos = _ood_scores(ood_tensor, names, args.k, args.epsilon)
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
        for epoch, tensor in synth.generate_collapse_series(cfg):
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
