"""Spans around uqgate's public functions, and the per-layer metrics derived from them.

The benchmark installs the wrappers from outside the program; the program's
source is not touched. Every public function defined in a layer module is
wrapped (of ``cli`` only ``main``, whose span is the whole command), and
every place that function is bound in a uqgate module is pointed at the
wrapper: its own module, modules that imported it by name (``member_probs``
in ``gating`` and ``measures``, ``read_ept_file`` in ``cli``) and the package
namespace. Public classmethods such as ``ClassStats.from_tensor`` are wrapped
on their class. ``restore`` puts every original back.

A span records its name, start, end, parent span, operation id and the
process's ``ru_maxrss`` at entry and exit. Spans stay in memory until the
traced command ends. A span's self time is its duration minus the part of
it that its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import resource
import sys
import time
from collections import defaultdict

LAYERS = ("ept", "stats", "gating", "measures", "margin", "diagnostics", "calibration",
          "synth", "cli")
CLI_ENTRY = "main"


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


# Counts taken at the call boundary, from the arguments or the result.
EXTRAS = {
    "ept.read_ept_file": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))},
    "ept.write_ept_file": lambda a, k, r: {"bytes": int(r)},
    "stats.member_probs": lambda a, k, r: {
        "bytes": math.prod(_arg(a, k, 0, "tensor").data.shape) * 8,
        "tensor": id(_arg(a, k, 0, "tensor")),
    },
    "gating.gated_members": lambda a, k, r: {"fallback": int(r.fallback.sum())},
}


class Tracer:
    """Installs span-recording wrappers and keeps the spans of one command."""

    def __init__(self, op: str):
        self.op = op
        self.spans: list[dict] = []
        self.wrapped: set[str] = set()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        hook = EXTRAS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name, "parent": stack[-1] if stack else None, "op": self.op,
                    "rss_start": _maxrss_mib()}
            stack.append(len(spans))
            spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                span["rss_end"] = _maxrss_mib()
            if hook is not None:
                try:
                    span.update(hook(args, kwargs, result))
                except (AttributeError, TypeError, KeyError, IndexError, OSError):
                    span["hook_failed"] = True
            return result

        self.wrapped.add(name)
        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self, package: str = "uqgate") -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(f"{package}.{layer}")
            if module is None:
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and (layer != "cli" or attr == CLI_ENTRY):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
                elif inspect.isclass(obj) and layer != "cli":
                    for name, member in list(vars(obj).items()):
                        if isinstance(member, classmethod) and not name.startswith("_"):
                            wrapped = self._wrap(member.__func__, f"{layer}.{attr}.{name}")
                            self._patch(obj, name, classmethod(wrapped))
        for name, module in list(sys.modules.items()):
            if name != package and not name.startswith(package + "."):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patch(module, attr, entry[1])

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# analysis, run in the parent process over the spans of all traced commands


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_start, cur_end = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span["parent"] is not None:
            children[span["parent"]].append(index)
    return [span["end"] - span["start"] - union_length(
        [(spans[c]["start"], spans[c]["end"]) for c in children[index]],
        span["start"], span["end"]) for index, span in enumerate(spans)]


def outermost(spans: list[dict], match) -> list[dict]:
    """Spans accepted by match that have no ancestor accepted by match."""
    found = []
    for span in spans:
        if not match(span):
            continue
        parent = span["parent"]
        while parent is not None and not match(spans[parent]):
            parent = spans[parent]["parent"]
        if parent is None:
            found.append(span)
    return found


# name, unit, functions, statistic. incl: summed duration of the outermost
# spans of those functions; self: summed self time; calls: span count;
# sum:<key>: summed count recorded at the boundary.
FUNCTION_METRICS = [
    ("ept.read_s", "s", ("ept.read_ept_file",), "incl"),
    ("ept.read_calls", "count", ("ept.read_ept_file",), "calls"),
    ("ept.bytes_read", "bytes", ("ept.read_ept_file",), "sum:bytes"),
    ("ept.labels_s", "s", ("ept.read_labels_file",), "incl"),
    ("ept.write_s", "s", ("ept.write_ept_file",), "incl"),
    ("ept.bytes_written", "bytes", ("ept.write_ept_file",), "sum:bytes"),
    ("stats.member_probs_calls", "count", ("stats.member_probs",), "calls"),
    ("stats.member_probs_s", "s", ("stats.member_probs",), "incl"),
    ("stats.member_probs_bytes", "bytes", ("stats.member_probs",), "sum:bytes"),
    ("stats.class_stats_calls", "count", ("stats.ClassStats.from_tensor",), "calls"),
    ("stats.class_stats_s", "s", ("stats.ClassStats.from_tensor",), "incl"),
    ("gating.decomposition_s", "s", ("gating.gated_decomposition",), "incl"),
    ("gating.decomposition_calls", "count", ("gating.gated_decomposition",), "calls"),
    ("gating.fallback_samples", "count", ("gating.gated_members",), "sum:fallback"),
    ("measures.standard_s", "s", ("measures.standard_decomposition",), "incl"),
    ("measures.standard_calls", "count", ("measures.standard_decomposition",), "calls"),
    ("measures.epce_s", "s", ("measures.epce",), "incl"),
    ("measures.epkl_s", "s", ("measures.epkl",), "incl"),
    ("measures.epjs_s", "s", ("measures.epjs",), "incl"),
    ("measures.epjs_calls", "count", ("measures.epjs",), "calls"),
    ("margin.top2_calls", "count", ("margin.top2",), "calls"),
    ("margin.top2_s", "s", ("margin.top2",), "incl"),
    ("margin.decide_calls", "count", ("margin.decide_multiclass",), "calls"),
    ("margin.decide_s", "s", ("margin.decide_multiclass",), "incl"),
    ("margin.gmu_s", "s", ("margin.gmu_multiclass",), "incl"),
    ("diagnostics.auroc_s", "s", ("diagnostics.auroc",), "incl"),
    ("diagnostics.auroc_calls", "count", ("diagnostics.auroc",), "calls"),
    ("diagnostics.coverage_risk_s", "s", ("diagnostics.coverage_risk",), "self"),
    ("diagnostics.collapse_s", "s", ("diagnostics.collapse_epoch",), "incl"),
    ("calibration.fit_s", "s", ("calibration.fit_temperature",), "incl"),
    ("calibration.fit_calls", "count", ("calibration.fit_temperature",), "calls"),
    ("calibration.nll_evals", "count", ("calibration.nll",), "calls"),
    # One NLL evaluation is a softmax at T followed by the NLL itself.
    ("calibration.nll_s", "s", ("calibration.apply_temperature", "calibration.nll"), "incl"),
]
RSS_LAYERS = ("ept", "stats", "gating", "measures", "margin", "diagnostics", "calibration")


def _layer(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def layer_metrics(spans: list[dict], wrapped: set[str], traced_s: float, plain_s: float,
                  output_bytes: int) -> tuple[dict[str, dict], list[str], dict]:
    """Per-layer metrics, the names absent because their function is gone, and bases."""
    selfs = self_times(spans)
    metrics: dict[str, dict] = {}
    absent: list[str] = []

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name, unit, functions, stat in FUNCTION_METRICS:
        if not set(functions) <= wrapped:
            absent.append(name)
            continue
        chosen = [i for i, s in enumerate(spans) if s["name"] in functions]
        if stat == "incl":
            value = sum(s["end"] - s["start"]
                        for s in outermost(spans, lambda s: s["name"] in functions))
        elif stat == "self":
            value = sum(selfs[i] for i in chosen)
        elif stat == "calls":
            value = len(chosen)
        else:
            value = sum(spans[i].get(stat.split(":", 1)[1], 0) for i in chosen)
        put(name, value, unit)

    bases = {}
    calls = [s for s in spans if s["name"] == "stats.member_probs"]
    if "stats.member_probs" in wrapped:
        tensors = len({(s["op"], s.get("tensor")) for s in calls})
        bases["stats.member_probs_per_tensor"] = f"{len(calls)} calls over {tensors} tensors"
        put("stats.member_probs_per_tensor", len(calls) / tensors if tensors else 0.0, "ratio")
    else:
        absent.append("stats.member_probs_per_tensor")
    if {"calibration.nll", "calibration.fit_temperature"} <= wrapped:
        evals = metrics["calibration.nll_evals"]["value"]
        fits = metrics["calibration.fit_calls"]["value"]
        bases["calibration.nll_evals_per_fit"] = f"{evals} evaluations over {fits} fits"
        put("calibration.nll_evals_per_fit", evals / fits if fits else 0.0, "count")
    else:
        absent.append("calibration.nll_evals_per_fit")

    present_layers = {_layer(name) for name in wrapped}
    for layer in LAYERS:
        if layer not in present_layers:
            absent.append(f"{layer}.self_s")
            if layer in RSS_LAYERS:
                absent.append(f"{layer}.rss_rise_mib")
            continue
        put(f"{layer}.self_s",
            sum(t for t, s in zip(selfs, spans) if _layer(s["name"]) == layer), "s")
        if layer in RSS_LAYERS:
            rises = [s["rss_end"] - s["rss_start"]
                     for s in outermost(spans, lambda s: _layer(s["name"]) == layer)]
            put(f"{layer}.rss_rise_mib", sum(rises), "MiB")
    put("cli.output_bytes", output_bytes, "bytes")
    accounted = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS
                    if f"{layer}.self_s" in metrics)
    put("trace.inprocess_s", traced_s, "s")
    put("trace.overhead_ratio", traced_s / plain_s if plain_s else 0.0, "ratio")
    put("trace.accounted_ratio", accounted / traced_s if traced_s else 0.0, "ratio")
    bases["trace.overhead_ratio"] = (f"traced {traced_s:.4f} s over untraced {plain_s:.4f} s "
                                     "of main() in process")
    bases["trace.accounted_ratio"] = "sum of every layer's self_s over trace.inprocess_s"
    return metrics, absent, bases
