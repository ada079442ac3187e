"""Tests of the benchmark's own logic: statistics, spans, checks and failure counting.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
from pathlib import Path

import numpy as np
import pytest

import checks
import measure
import run
import tracing
import workloads


class TestPercentileRule:
    @pytest.mark.parametrize("n, expected", [
        (1, None), (19, None), (20, 50), (21, 52), (100, 90), (200, 95), (1000, 99),
    ])
    def test_highest_percentile_with_ten_beyond(self, n, expected):
        assert measure.highest_percentile(n) == expected

    def test_summary_reports_median_percentile_and_count(self):
        values = [float(v) for v in range(100, 0, -1)]
        summary = measure.summarize(values)
        assert summary["n"] == 100
        assert summary["median"] == 50.5
        assert summary["percentile"] == 90
        assert summary["percentile_value"] == 90.0
        assert sum(v > summary["percentile_value"] for v in values) == 10

    def test_small_samples_have_no_percentile(self):
        summary = measure.summarize([3.0, 1.0, 2.0])
        assert summary == {"median": 2.0, "percentile": None, "percentile_value": None, "n": 3}


def _span(name, start, end, parent=None, **extra):
    return {"name": name, "start": start, "end": end, "parent": parent, "op": "op",
            "rss_start": 0.0, "rss_end": 0.0, **extra}


class TestSelfTime:
    def test_children_are_subtracted_once(self):
        spans = [
            _span("cli.main", 0.0, 10.0),
            _span("stats.member_probs", 1.0, 3.0, parent=0),
            _span("measures.epjs", 4.0, 9.0, parent=0),
            _span("stats.entropy", 5.0, 8.0, parent=2),  # grandchild: not main's child
        ]
        assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 2.0, 3.0])
        assert sum(tracing.self_times(spans)) == pytest.approx(10.0)

    def test_overlapping_and_overhanging_children_are_merged_and_clipped(self):
        assert tracing.union_length([(1, 3), (2, 5), (8, 12)], 0, 10) == pytest.approx(6.0)

    def test_inclusive_time_counts_outermost_spans_only(self):
        spans = [
            _span("cli.main", 0.0, 10.0),
            _span("margin.top2", 1.0, 4.0, parent=0),
            _span("margin.top2", 2.0, 3.0, parent=1),
        ]
        metrics, absent, _ = tracing.layer_metrics(
            spans, {"cli.main", "margin.top2"}, 10.0, 8.0, 0)
        assert metrics["margin.top2_s"]["value"] == pytest.approx(3.0)
        assert metrics["margin.top2_calls"]["value"] == 2
        assert metrics["cli.self_s"]["value"] == pytest.approx(7.0)
        assert metrics["trace.accounted_ratio"]["value"] == pytest.approx(1.0)
        assert metrics["trace.overhead_ratio"]["value"] == pytest.approx(1.25)
        assert "measures.epjs_s" in absent and "measures.epjs_s" not in metrics


class TestComparator:
    HEADER = ["sample", "tu", "decision", "correct"]
    ROW = ["7", "0.123456789", "3", "1"]

    def test_last_digit_flip_is_accepted(self):
        assert checks.same_to_last_digit(0.123456789, 0.12345679)
        assert checks.same_to_last_digit(0.0999999999, 0.1)
        assert checks.compare_row(self.HEADER, self.ROW, ["7", "0.12345679", "3", "1"], "r") == []

    def test_two_units_or_a_changed_decision_is_rejected(self):
        assert not checks.same_to_last_digit(0.123456789, 0.123456791)
        uncertain = ["7", "0.123456789", "uncertain", "1"]
        assert checks.compare_row(self.HEADER, self.ROW, uncertain, "r")
        assert checks.compare_row(self.HEADER, self.ROW, ["7", "0.123456789", "4", "1"], "r")

    def test_json_keys_and_integers_match_exactly(self):
        ref = {"k": 1.0, "auroc": {"tu": 0.75, "au": 0.5}}
        assert checks.compare_json(ref, {"k": 1.0, "auroc": {"tu": 0.7500000001, "au": 0.5}}) == []
        assert checks.compare_json(ref, {"k": 1.0, "auroc": {"au": 0.5, "tu": 0.75}})
        assert checks.compare_json(ref, {"k": 1.0, "auroc": {"tu": 0.75000004, "au": 0.5}})
        assert checks.compare_json({"decision": 2}, {"decision": 2.0})
        assert checks.compare_json({"decision": "uncertain"}, {"decision": 2})


    def test_reference_catches_a_changed_decision_between_sampled_rows(self, tmp_path):
        out = tmp_path / "report.csv"
        rows = [f"{i},0.{i:09d},{i % 3}" for i in range(300)]
        out.write_text("sample,tu,decision\n" + "\n".join(rows) + "\n")
        cmd = workloads.Command("report", (), 300, "report_csv", str(out))
        ref = checks.record(cmd)
        assert "7" not in ref["items"] and checks.compare(ref, cmd) == []
        rows[7] = "7,0.000000007,uncertain"
        out.write_text("sample,tu,decision\n" + "\n".join(rows) + "\n")
        assert checks.compare(ref, cmd) == ["column decision differs from reference"]


class TestFailedOperations:
    def test_nonzero_child_exit_counts_as_failed(self, tmp_path, monkeypatch):
        monkeypatch.setattr(run, "SETUP_PROBES_PER_ITERATION", 1)
        monkeypatch.setattr(workloads, "work_dir", lambda root, name: tmp_path)
        missing = tmp_path / "missing.ept"
        good = workloads.Command("synth", ("synth", "--samples", "5", "--classes", "3",
                                           "--members", "2", "--out", str(tmp_path / "s")),
                                 5, "none", None)
        bad = workloads.Command("report", ("report", "--input", str(missing)),
                                5, "report_csv", str(tmp_path / "r.csv"))
        wl = workloads.Workload("fake", "", (good, bad))
        result = run.run_timed(wl, run.child_env(), lambda cmd: [], seconds=0)
        assert (result["attempted"], result["failed"]) == (2, 1)
        assert result["problems"][0]["command"] == "report"
        assert result["problems"][0]["problems"][0].startswith("exit status 1")
        assert result["all_metrics"]["failed_ratio"]["value"] == 0.5


class TestTracer:
    def test_every_binding_is_wrapped_and_restored(self):
        import uqgate.cli
        from uqgate import gating, measures, stats
        from uqgate.ept import make_tensor

        original = stats.member_probs
        original_classmethod = vars(stats.ClassStats)["from_tensor"]
        rng = np.random.default_rng(0)
        tensor = make_tensor(rng.dirichlet(np.ones(3), size=(4, 6)), kind="probs")
        tracer = tracing.Tracer("op")
        tracer.install()
        try:
            assert gating.member_probs is not original and measures.member_probs is not original
            assert uqgate.cli.read_ept_file is uqgate.ept.read_ept_file
            assert hasattr(uqgate.cli.read_ept_file, "__wrapped__")
            measures.epjs(tensor)
            gating.gated_decomposition(tensor, gating.GateConfig(k=1.0))
            stats.ClassStats.from_tensor(tensor)
        finally:
            tracer.restore()
        assert stats.member_probs is original and gating.member_probs is original
        assert measures.member_probs is original
        assert vars(stats.ClassStats)["from_tensor"] is original_classmethod
        names = [span["name"] for span in tracer.spans]
        assert names.count("stats.member_probs") == 3
        assert "stats.ClassStats.from_tensor" in names
        assert "cli._build_parser" not in tracer.wrapped
        metrics, absent, _ = tracing.layer_metrics(tracer.spans, tracer.wrapped, 1.0, 1.0, 0)
        assert metrics["stats.member_probs_bytes"]["value"] == 3 * 4 * 6 * 3 * 8
        assert metrics["stats.member_probs_per_tensor"]["value"] == 3.0
        assert metrics["gating.fallback_samples"]["value"] == 0
        assert absent == []

    def test_missing_function_is_absent_not_an_error(self):
        wrapped = {"cli.main", "stats.member_probs"}
        metrics, absent, _ = tracing.layer_metrics([], wrapped, 1.0, 1.0, 0)
        assert "stats.class_stats_s" in absent
        assert metrics["stats.member_probs_calls"]["value"] == 0


def test_importtime_outermost_entries():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:        50 |        150 |   numpy",
        "import time:        10 |         10 |     scipy._lib",
        "import time:        20 |         30 |   scipy",
        "import time:        40 |        220 | uqgate",
        "import time:         5 |        225 | uqgate.cli",
    ])
    metrics = run.startup_metrics(text)
    assert metrics["startup.numpy_import_s"]["value"] == pytest.approx(150e-6)
    assert metrics["startup.scipy_import_s"]["value"] == pytest.approx(30e-6)
    assert metrics["startup.import_s"]["value"] == pytest.approx(445e-6)
    assert metrics["startup.modules_loaded"]["value"] == 6


def test_benchmark_json_names_every_metric_the_runs_print():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["end_to_end"]] == list(run.HEADLINE)
    wrapped = {f for _, _, functions, _ in tracing.FUNCTION_METRICS for f in functions}
    wrapped |= {f"{layer}.main" for layer in tracing.LAYERS}
    metrics, absent, _ = tracing.layer_metrics([], wrapped, 1.0, 1.0, 0)
    metrics.update(run.startup_metrics(""))
    assert absent == []
    assert {name: m["unit"] for name, m in metrics.items()} == \
        {m["name"]: m["unit"] for m in spec["per_layer"]}
