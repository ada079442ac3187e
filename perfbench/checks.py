"""Correctness checks on the outputs of every workload command.

Two kinds of check run after each command:

* Invariants that hold at any seed: row counts and column names, value
  domains, the decomposition identities TU = AU + EU and EPKL = EPCE - AU,
  and agreement of the decision and correctness columns with the labels.
* At a seed with recorded reference outputs (``reference/seed<n>/``), a
  comparison against them. Integer cells, decision cells and JSON keys must
  match exactly. A float cell may differ by at most one unit in its 9th
  significant digit, the precision the CLI prints, so summation reorderings
  of about 1e-15 pass while a changed decision or AUROC does not. EPT files
  written by ``synth`` must match byte for byte (the container format is
  fixed). Large tables are stored every ``SAMPLE_STRIDE``-th row, plus a
  SHA-256 of each integer or decision column in full and of the whole
  output, whose match skips the comparison.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

DIGITS = 9
SAMPLE_STRIDE = 100
FULL_LIMIT = 200
TOL = 5e-8  # three roundings to 9 significant digits of values below 10
EXACT_COLUMNS = frozenset({"sample", "correct", "epoch", "collapse", "decision"})
OOD_MEASURES = ["tu", "au", "eu", "epce", "epkl", "epjs", "gmu",
                "gated_tu", "gated_au", "gated_eu"]
COLLAPSE_TAU = 1e-3
T_MIN, T_MAX = 0.01, 10.0


def same_to_last_digit(a: float, b: float, digits: int = DIGITS) -> bool:
    """True when a and b differ by at most one unit in the last printed digit."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return True
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    unit = 10.0 ** (math.floor(math.log10(max(abs(a), abs(b)))) - (digits - 1))
    return abs(a - b) <= unit * (1 + 1e-9)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    if not text.endswith("\n"):
        raise ValueError("CSV output does not end with a newline")
    lines = text[:-1].split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


# ---------------------------------------------------------------------------
# reference outputs


def _sampled(rows: list) -> dict[str, object]:
    stride = 1 if len(rows) <= FULL_LIMIT else SAMPLE_STRIDE
    return {str(i): rows[i] for i in range(0, len(rows), stride)}


def record(cmd) -> dict:
    """The reference entry for one command's current output."""
    if cmd.check == "synth_files":
        return {"format": "files",
                "sha256": {Path(f).name: sha256(Path(f).read_bytes())
                           for f in cmd.context["files"]}}
    data = Path(cmd.output).read_bytes()
    ref = {"sha256": sha256(data)}
    if cmd.output.endswith(".csv"):
        header, rows = parse_csv(data.decode("utf-8"))
        ref.update(format="csv", header=header, rows=len(rows), items=_sampled(rows),
                   exact=_exact_digests(header, rows))
        return ref
    value = json.loads(data)
    if isinstance(value, list):
        keys = list(value[0]) if value else []
        ref.update(format="json", length=len(value), items=_sampled(value),
                   exact=_exact_digests(keys, [list(rec.values()) for rec in value]))
    else:
        ref.update(format="json", value=value)
    return ref


def _exact_digests(header: list[str], rows: list[list]) -> dict[str, str]:
    """SHA-256 of every exact column in full, so one changed decision is caught."""
    return {name: sha256(",".join(json.dumps(row[i]) for row in rows).encode())
            for i, name in enumerate(header) if name in EXACT_COLUMNS}


def compare_row(header: list[str], ref: list[str], new: list[str], where: str) -> list[str]:
    if len(new) != len(header):
        return [f"{where}: {len(new)} cells, expected {len(header)}"]
    problems = []
    for name, a, b in zip(header, ref, new):
        if name in EXACT_COLUMNS or not (_is_number(a) and _is_number(b)):
            ok = a == b
        else:
            ok = same_to_last_digit(float(a), float(b))
        if not ok:
            problems.append(f"{where} {name}: {b!r}, reference {a!r}")
    return problems


def compare_json(ref, new, where: str = "$") -> list[str]:
    if isinstance(ref, dict):
        if not isinstance(new, dict) or list(new) != list(ref):
            return [f"{where}: keys {list(new) if isinstance(new, dict) else type(new).__name__}"
                    f", reference {list(ref)}"]
        return [p for key in ref for p in compare_json(ref[key], new[key], f"{where}.{key}")]
    if isinstance(ref, list):
        if not isinstance(new, list) or len(new) != len(ref):
            return [f"{where}: list differs in type or length from reference"]
        return [p for i, (a, b) in enumerate(zip(ref, new))
                for p in compare_json(a, b, f"{where}[{i}]")]
    if isinstance(ref, float) and type(new) is float:
        ok = same_to_last_digit(ref, new)
    else:
        ok = type(new) is type(ref) and new == ref
    return [] if ok else [f"{where}: {new!r}, reference {ref!r}"]


def compare(ref: dict, cmd) -> list[str]:
    """Differences between a command's output and its reference entry."""
    if ref["format"] == "files":
        return [f"{Path(f).name}: bytes differ from reference" for f in cmd.context["files"]
                if sha256(Path(f).read_bytes()) != ref["sha256"].get(Path(f).name)]
    data = Path(cmd.output).read_bytes()
    if sha256(data) == ref["sha256"]:
        return []
    if ref["format"] == "csv":
        header, rows = parse_csv(data.decode("utf-8"))
        if header != ref["header"] or len(rows) != ref["rows"]:
            return [f"header or row count differs: {len(rows)} rows, reference {ref['rows']}"]
        problems = [p for idx, cells in ref["items"].items()
                    for p in compare_row(header, cells, rows[int(idx)], f"row {idx}")]
        return problems + _exact_problems(ref, header, rows)
    value = json.loads(data)
    if "value" in ref:
        return compare_json(ref["value"], value)
    if not isinstance(value, list) or len(value) != ref["length"]:
        return ["record list differs in type or length from reference"]
    keys = list(next(iter(ref["items"].values())))
    problems = [f"$[{i}]: keys differ from reference" for i, rec in enumerate(value)
                if not isinstance(rec, dict) or list(rec) != keys]
    if problems:
        return problems[:5]
    for idx, item in ref["items"].items():
        problems += compare_json(item, value[int(idx)], f"$[{idx}]")
    return problems + _exact_problems(ref, keys, [list(rec.values()) for rec in value])


def _exact_problems(ref: dict, header: list[str], rows: list[list]) -> list[str]:
    digests = _exact_digests(header, rows)
    return [f"column {name} differs from reference" for name in ref["exact"]
            if digests.get(name) != ref["exact"][name]]


# ---------------------------------------------------------------------------
# invariants at any seed


def _k_values(text: str) -> list[float]:
    return list(dict.fromkeys(float(part) for part in text.split(",") if part))


def report_header(k_text: str) -> list[str]:
    header = ["sample", "tu", "au", "eu"]
    for k in _k_values(k_text):
        header += [f"tu_k{k:g}", f"au_k{k:g}", f"eu_k{k:g}"]
    return header + ["gmu", "snr", "decision", "epce", "epkl", "epjs", "correct"]


def _report(header: list[str], cols: dict[str, list], ctx: dict) -> list[str]:
    expected = report_header(ctx["k"])
    if header != expected:
        return [f"columns {header}, expected {expected}"]
    n, classes = ctx["samples"], ctx["classes"]
    if any(len(values) != n for values in cols.values()):
        return [f"expected {n} rows"]
    f = {name: np.asarray(cols[name], dtype=np.float64)
         for name in header if name not in EXACT_COLUMNS}
    problems = []
    if not all(np.isfinite(v).all() for v in f.values()):
        problems.append("non-finite value")
    if [int(v) for v in cols["sample"]] != list(range(n)):
        problems.append("sample column is not 0..N-1")
    ln_c = math.log(classes)
    for suffix in [""] + [f"_k{k:g}" for k in _k_values(ctx["k"])]:
        tu, au, eu = f["tu" + suffix], f["au" + suffix], f["eu" + suffix]
        if (au < -TOL).any() or (tu > ln_c + TOL).any() or (eu < -TOL).any():
            problems.append(f"tu/au/eu{suffix} outside [0, ln C]")
        if (np.abs(tu - au - eu) > TOL).any():
            problems.append(f"tu{suffix} != au{suffix} + eu{suffix}")
    if (np.abs(f["epkl"] - (f["epce"] - f["au"])) > TOL).any():
        problems.append("epkl != epce - au")
    if (f["epjs"] < -TOL).any() or (f["epjs"] > math.log(2) + TOL).any():
        problems.append("epjs outside [0, ln 2]")
    if (f["gmu"] < -TOL).any() or (f["gmu"] > 1 + TOL).any() or (f["snr"] < 0).any():
        problems.append("gmu outside [0, 1] or negative snr")
    labels = ctx["labels"]
    for row, (decision, correct) in enumerate(zip(cols["decision"], cols["correct"])):
        decision = str(decision)
        if decision != "uncertain" and not (decision.isdigit() and int(decision) < classes):
            problems.append(f"row {row}: bad decision {decision!r}")
        elif str(correct) not in ("0", "1"):
            problems.append(f"row {row}: bad correct cell {correct!r}")
        elif decision != "uncertain" and int(correct) != (int(decision) == labels[row]):
            problems.append(f"row {row}: correct cell disagrees with decision and label")
        if len(problems) > 10:
            break
    return problems


def _columns(header: list[str], rows: list[list]) -> dict[str, list]:
    if any(len(row) != len(header) for row in rows):
        raise ValueError("ragged table")
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def _report_csv(cmd, data: bytes) -> list[str]:
    header, rows = parse_csv(data.decode("utf-8"))
    return _report(header, _columns(header, rows), cmd.context)


def _report_json(cmd, data: bytes) -> list[str]:
    records = json.loads(data)
    header = list(records[0]) if records else []
    if any(list(rec) != header for rec in records):
        return ["records do not share one key list"]
    return _report(header, _columns(header, [list(rec.values()) for rec in records]),
                   cmd.context)


def _in_unit_interval(value) -> bool:
    return type(value) is float and 0.0 <= value <= 1.0


def _ood_json(cmd, data: bytes) -> list[str]:
    value = json.loads(data)
    if list(value) != ["k", "auroc"] or list(value["auroc"]) != OOD_MEASURES:
        return ["keys differ from {k, auroc: measures}"]
    return [f"auroc {name} = {v!r} outside [0, 1]" for name, v in value["auroc"].items()
            if not _in_unit_interval(v)]


def _coverage_csv(cmd, data: bytes) -> list[str]:
    header, rows = parse_csv(data.decode("utf-8"))
    lo, hi, count = cmd.context["grid"].split(":")
    if header != ["k", "coverage", "risk"] or len(rows) != int(count):
        return ["header or row count differs"]
    grid = np.linspace(float(lo), float(hi), int(count))
    problems = [f"k cell {row[0]!r} is not grid point {k}" for row, k in zip(rows, grid)
                if not same_to_last_digit(float(row[0]), float(k))]
    coverage = [float(row[1]) for row in rows]
    if any(not 0.0 <= c <= 1.0 for c in coverage) or any(
            b > a for a, b in zip(coverage, coverage[1:])):
        problems.append("coverage outside [0, 1] or increasing in k")
    for (_, cov, risk), c in zip(rows, coverage):
        if (risk == "NA") != (c == 0.0) or (risk != "NA" and not 0.0 <= float(risk) <= 1.0):
            problems.append(f"risk cell {risk!r} at coverage {cov}")
    return problems


def _fit_ok(temperature, before, after) -> bool:
    return (type(temperature) is float and T_MIN <= temperature <= T_MAX
            and type(before) is float and type(after) is float
            and math.isfinite(before) and 0.0 <= after <= before)


def _calibrate_member_json(cmd, data: bytes) -> list[str]:
    value = json.loads(data)
    if list(value) != ["temperatures", "nll_before", "nll_after"] or any(
            len(v) != cmd.context["members"] for v in value.values()):
        return ["keys or lengths differ"]
    return [f"member {m}: bad fit" for m, fit in
            enumerate(zip(value["temperatures"], value["nll_before"], value["nll_after"]))
            if not _fit_ok(*fit)]


def _calibrate_global_json(cmd, data: bytes) -> list[str]:
    value = json.loads(data)
    if list(value) != ["temperature", "nll_before", "nll_after"]:
        return ["keys differ"]
    return [] if _fit_ok(*value.values()) else ["bad fit"]


def _diversity_csv(cmd, data: bytes) -> list[str]:
    header, rows = parse_csv(data.decode("utf-8"))
    epochs = cmd.context["epochs"]
    if header != ["epoch", "diversity", "collapse"] or len(rows) != epochs:
        return ["header or row count differs"]
    problems = []
    if [row[0] for row in rows] != [str(e) for e in range(epochs)]:
        problems.append("epochs are not 0..E-1")
    values = [float(row[1]) for row in rows]
    if any(v <= 0 for v in values) or any(b >= a for a, b in zip(values, values[1:])):
        problems.append("diversity not positive and strictly decreasing")
    below = [i for i, v in enumerate(values) if v < COLLAPSE_TAU]
    expected = ["1" if below and i == below[0] else "0" for i in range(epochs)]
    if [row[2] for row in rows] != expected:
        problems.append("collapse flag is not at the first epoch below tau")
    return problems


def _synth_files(cmd) -> list[str]:
    members, samples, classes = cmd.context["shape"]
    problems = []
    for epoch, path in enumerate(cmd.context["files"]):
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            problems.append(f"{path}: {exc}")
            continue
        (length,) = struct.unpack("<I", data[4:8])
        try:
            manifest = json.loads(data[8:8 + length])
        except ValueError:
            manifest = None
        expected = {"version": 1, "kind": "probs", "task": "multiclass", "members": members,
                    "samples": samples, "classes": classes, "precision": "binary64",
                    "epoch": epoch}
        if data[:4] != b"EPT1" or manifest != expected or \
                len(data) != 8 + length + members * samples * classes * 8:
            problems.append(f"{Path(path).name}: bad magic, manifest or size")
    return problems


_INVARIANTS = {
    "report_csv": _report_csv,
    "report_json": _report_json,
    "ood_json": _ood_json,
    "coverage_csv": _coverage_csv,
    "calibrate_member_json": _calibrate_member_json,
    "calibrate_global_json": _calibrate_global_json,
    "diversity_csv": _diversity_csv,
}


def output_digest(cmd) -> str:
    """SHA-256 over everything the command wrote."""
    paths = cmd.context["files"] if cmd.check == "synth_files" else [cmd.output]
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def check(cmd, ref: dict | None) -> list[str]:
    """All problems found in a command's output; empty means correct."""
    try:
        if cmd.check == "synth_files":
            problems = _synth_files(cmd)
        else:
            problems = _INVARIANTS[cmd.check](cmd, Path(cmd.output).read_bytes())
        if ref is not None and not problems:
            problems = compare(ref, cmd)
    except (OSError, ValueError, KeyError, IndexError, TypeError, AttributeError,
            struct.error) as exc:
        problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return problems
