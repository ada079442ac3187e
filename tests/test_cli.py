"""CLI surface: formats, exit codes, determinism, stream separation."""

import contextlib
import dataclasses
import inspect
import io
import json
import os
import stat
import struct
import subprocess
import sys
import threading
import tracemalloc
import types
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqgate import (
    UNCERTAIN, GateConfig, SynthConfig, calibration, cli, collapse_epoch, diagnostics, ept, gating,
    generate, generate_collapse_series, make_tensor, margin, measures, softmax, stats, synth,
    write_ept_file,
)
from uqgate.cli import main
from uqgate.ept import read_ept_file, write_labels
from uqgate.stats import Ensemble, member_probs

from helpers import block_budget, old_softmax_tensor, ordered_pair_js, probs_tensor, random_probs


@pytest.fixture
def workdir(tmp_path, rng):
    """A small multiclass probs file, logits file, and labels CSV."""
    cfg = SynthConfig(samples=20, classes=4, members=5, s_signal=2.0, s_noise=0.4,
                      seed=13)
    probs, logits, labels = generate(cfg)
    write_ept_file(probs, tmp_path / "probs.ept")
    write_ept_file(logits, tmp_path / "logits.ept")
    with open(tmp_path / "labels.csv", "w", newline="") as handle:
        write_labels(labels, handle)
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReport:
    def test_csv_contract(self, workdir, capsys):
        code, out, err = run(
            capsys, "report", "--input", workdir / "probs.ept",
            "--labels", workdir / "labels.csv", "--k", "0.5,1,2,4",
        )
        assert code == 0
        lines = out.split("\n")
        header = lines[0].split(",")
        # Standard trio plus one gated trio per k, then the scalar columns.
        assert header[:4] == ["sample", "tu", "au", "eu"]
        for k in ("0.5", "1", "2", "4"):
            assert f"tu_k{k}" in header and f"au_k{k}" in header and f"eu_k{k}" in header
        for name in ("gmu", "snr", "decision", "epce", "epkl", "epjs", "correct"):
            assert name in header
        assert len(lines) == 1 + 20 + 1  # header + rows + trailing LF
        assert lines[-1] == ""
        first = lines[1].split(",")
        assert first[0] == "0"
        assert "," in out and "." in out
        # 9 significant digits, never more.
        for cell in first[1:4]:
            mantissa = cell.replace("-", "").replace(".", "").lstrip("0").split("e")[0]
            assert len(mantissa) <= 9

    def test_default_k_is_the_one_ood_takes(self, workdir, capsys):
        # report's --k default is written from cli.DEFAULT_K, the default of ood's --k.
        argv = ("report", "--input", workdir / "probs.ept")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.startswith("sample,tu,au,eu,tu_k1,au_k1,eu_k1,")
        assert run(capsys, *argv, "--k", repr(cli.DEFAULT_K)) == (code, out, "")

    def test_json_format(self, workdir, capsys):
        code, out, _ = run(
            capsys, "report", "--input", workdir / "probs.ept", "--format", "json",
        )
        assert code == 0
        records = json.loads(out)
        assert len(records) == 20
        assert records[0]["sample"] == 0
        assert set(records[0]) >= {"tu", "au", "eu", "gmu", "snr", "decision",
                                   "epce", "epkl", "epjs"}

    def test_logits_softmaxed_with_notice(self, workdir, capsys):
        code, out, err = run(capsys, "report", "--input", workdir / "logits.ept")
        assert code == 0
        assert "softmax" in err
        assert "softmax" not in out

    def test_collapsed_input_k_invariant(self, tmp_path, capsys, rng):
        row = random_probs(rng, 1, 6, 3)[0]
        tensor = probs_tensor(np.broadcast_to(row, (4, 6, 3)).copy())
        write_ept_file(tensor, tmp_path / "flat.ept")
        code, out, _ = run(
            capsys, "report", "--input", tmp_path / "flat.ept",
            "--k", "0.5,4", "--format", "json",
        )
        assert code == 0
        for record in json.loads(out):
            assert abs(record["eu"]) < 1e-9
            assert abs(record["tu_k0.5"] - record["tu_k4"]) < 1e-9

    def test_output_file(self, workdir, tmp_path, capsys):
        target = tmp_path / "report.csv"
        code, out, _ = run(
            capsys, "report", "--input", workdir / "probs.ept", "--output", target,
        )
        assert code == 0
        assert out == ""
        text = target.read_bytes().decode()
        assert "\r" not in text and text.endswith("\n")

    def test_missing_file_fails_cleanly(self, capsys, tmp_path):
        code, out, err = run(capsys, "report", "--input", tmp_path / "nope.ept")
        assert code == 1
        assert out == ""
        assert "error:" in err

    def test_bad_k_rejected(self, workdir, capsys):
        code, _, err = run(
            capsys, "report", "--input", workdir / "probs.ept", "--k", "0,-1",
        )
        assert code == 1
        assert "error:" in err

    def test_multilabel_rejected(self, tmp_path, capsys, rng):
        tensor = make_tensor(rng.random((2, 3, 4)), kind="probs", task="multilabel")
        write_ept_file(tensor, tmp_path / "ml.ept")
        code, _, err = run(capsys, "report", "--input", tmp_path / "ml.ept")
        assert code == 1
        assert "multiclass" in err


class TestDiversity:
    def write_series(self, tmp_path, seed=29):
        cfg = SynthConfig(samples=30, classes=3, members=6, s_signal=2.0,
                          s_noise=0.6, seed=seed, mode="collapse", epochs=6,
                          decay=1.6)
        from uqgate import generate_collapse_series

        paths = []
        for epoch, tensor in generate_collapse_series(cfg):
            path = tmp_path / f"e{epoch}.ept"
            write_ept_file(tensor, path)
            paths.append(path)
        return paths

    def test_collapse_reported(self, tmp_path, capsys):
        paths = self.write_series(tmp_path)
        code, out, _ = run(capsys, "diversity", "--inputs", *paths, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["epochs"] == list(range(6))
        assert payload["collapse_epoch"] is not None

    def test_csv_columns(self, tmp_path, capsys):
        paths = self.write_series(tmp_path)
        code, out, _ = run(capsys, "diversity", "--inputs", *paths)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "epoch,diversity,collapse"
        assert len(lines) == 7

    def test_single_snapshot_no_collapse(self, workdir, capsys):
        code, out, _ = run(
            capsys, "diversity", "--inputs", workdir / "probs.ept", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["collapse_epoch"] is None

    def test_unordered_epochs_rejected(self, tmp_path, capsys):
        paths = self.write_series(tmp_path)
        code, _, err = run(capsys, "diversity", "--inputs", paths[1], paths[0])
        assert code == 1
        assert "strictly increasing" in err

    def test_tau_checked_before_any_input_is_read(self, tmp_path, capsys):
        code, out, err = run(capsys, "diversity", "--inputs", tmp_path / "missing.ept",
                             "--tau", "-1")
        assert (code, out, err) == (1, "", "error: tau must be positive, got -1.0\n")

    def test_default_tau_is_the_library_default(self, workdir, capsys):
        code, out, _ = run(capsys, "diversity", "--inputs", workdir / "probs.ept",
                           "--format", "json")
        default = inspect.signature(collapse_epoch).parameters["tau"].default
        assert code == 0 and json.loads(out)["tau"] == default == diagnostics.DEFAULT_TAU


class TestCoverage:
    def test_certain_tensor_full_coverage(self, tmp_path, capsys):
        rows = np.array([[0.9, 0.05, 0.05], [0.1, 0.8, 0.1]])
        tensor = probs_tensor(np.stack([rows, rows]))
        write_ept_file(tensor, tmp_path / "sure.ept")
        (tmp_path / "labels.csv").write_text("0\n1\n")
        code, out, _ = run(
            capsys, "coverage", "--input", tmp_path / "sure.ept",
            "--labels", tmp_path / "labels.csv", "--k-grid", "0.5,1,2",
        )
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            _, cov, risk = line.split(",")
            assert cov == "1" and risk == "0"

    def test_huge_k_risk_na(self, workdir, capsys):
        code, out, _ = run(
            capsys, "coverage", "--input", workdir / "probs.ept",
            "--labels", workdir / "labels.csv", "--k-grid", "1000000",
        )
        assert code == 0
        line = out.strip().split("\n")[1]
        assert line.endswith(",0,NA")

    @pytest.mark.parametrize("grid", ["0.25:4:16", "3,0.5,1e6,0.5,2,0.01", "0.01:10:200",
                                      "1e6,1e9"])
    @pytest.mark.parametrize("name", ["probs.ept", "logits.ept"])
    def test_blocks_match_one_block(self, workdir, capsys, monkeypatch, name, grid):
        # Only the rule's per-sample columns are joined across blocks.
        argv = ("coverage", "--input", workdir / name, "--labels", workdir / "labels.csv",
                "--k-grid", grid)
        whole = run(capsys, *argv)  # 20 samples: one block at the default budget
        assert whole[0] == 0
        tensor = read_ept_file(workdir / name)
        for samples in (2, 3, 4):
            monkeypatch.setattr(stats, "BLOCK_VALUES", block_budget(tensor, samples))
            assert run(capsys, *argv) == whole

    def test_epsilon_has_no_effect(self, workdir, capsys):
        argv = ("coverage", "--input", workdir / "probs.ept", "--labels", workdir / "labels.csv",
                "--k-grid", "0.01:10:50")
        outputs = {run(capsys, *argv, "--epsilon", eps) for eps in ("1e-8", "0.5", "1e300")}
        assert len(outputs) == 1 and next(iter(outputs))[0] == 0

    def test_coverage_nonincreasing(self, workdir, capsys):
        code, out, _ = run(
            capsys, "coverage", "--input", workdir / "probs.ept",
            "--labels", workdir / "labels.csv", "--k-grid", "0.1:5:10",
        )
        assert code == 0
        values = [float(l.split(",")[1]) for l in out.strip().split("\n")[1:]]
        assert all(b <= a for a, b in zip(values, values[1:]))


class TestCalibrate:
    def test_probs_input_rejected(self, workdir, capsys):
        code, _, err = run(
            capsys, "calibrate", "--input", workdir / "probs.ept",
            "--labels", workdir / "labels.csv",
        )
        assert code == 1
        assert "logits" in err

    def test_global_fit(self, workdir, capsys):
        code, out, _ = run(
            capsys, "calibrate", "--input", workdir / "logits.ept",
            "--labels", workdir / "labels.csv",
        )
        assert code == 0
        payload = json.loads(out)
        assert 0.01 <= payload["temperature"] <= 10.0
        assert payload["nll_after"] <= payload["nll_before"] + 1e-9

    def test_per_member_count(self, workdir, capsys):
        code, out, _ = run(
            capsys, "calibrate", "--input", workdir / "logits.ept",
            "--labels", workdir / "labels.csv", "--per-member",
        )
        assert code == 0
        assert len(json.loads(out)["temperatures"]) == 5


class TestOod:
    def test_identical_files_are_chance(self, workdir, capsys):
        code, out, _ = run(
            capsys, "ood", "--id", workdir / "probs.ept", "--ood", workdir / "probs.ept",
        )
        assert code == 0
        payload = json.loads(out)
        for value in payload["auroc"].values():
            assert abs(value - 0.5) < 0.05

    def test_all_measures_listed(self, workdir, capsys):
        code, out, _ = run(
            capsys, "ood", "--id", workdir / "probs.ept", "--ood", workdir / "probs.ept",
        )
        assert code == 0
        assert set(json.loads(out)["auroc"]) == {
            "tu", "au", "eu", "epce", "epkl", "epjs", "gmu",
            "gated_tu", "gated_au", "gated_eu",
        }

    def test_single_measure(self, workdir, capsys):
        code, out, _ = run(
            capsys, "ood", "--id", workdir / "probs.ept", "--ood", workdir / "probs.ept",
            "--measure", "epkl",
        )
        assert code == 0
        assert list(json.loads(out)["auroc"]) == ["epkl"]

    def test_unknown_measure(self, workdir, capsys):
        code, _, err = run(
            capsys, "ood", "--id", workdir / "probs.ept", "--ood", workdir / "probs.ept",
            "--measure", "entropy_of_vibes",
        )
        assert code == 1
        assert "unknown measure" in err


class TestSynthCommand:
    def test_static_outputs(self, tmp_path, capsys):
        code, out, err = run(
            capsys, "synth", "--samples", 10, "--classes", 3, "--members", 2,
            "--seed", 5, "--out", tmp_path / "fix",
        )
        assert code == 0
        assert out == ""  # progress goes to stderr
        for suffix in ("_probs.ept", "_logits.ept", "_labels.csv"):
            assert (tmp_path / f"fix{suffix}").exists()

    def test_collapse_outputs(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "synth", "--samples", 8, "--classes", 3, "--members", 2,
            "--mode", "collapse", "--epochs", 4, "--decay", 1.0,
            "--seed", 5, "--out", tmp_path / "col",
        )
        assert code == 0
        files = sorted(tmp_path.glob("col_epoch*.ept"))
        assert len(files) == 4

    def test_collapse_epochs_written_as_generated(self, tmp_path, capsys, monkeypatch):
        cfg = SynthConfig(samples=8, classes=3, members=2, seed=5, mode="collapse",
                          epochs=4, decay=1.0)
        events = []
        monkeypatch.setattr(synth, "softmax", lambda x: events.append("draw") or softmax(x))
        monkeypatch.setattr(cli, "write_ept_file",
                            lambda t, path: events.append("write") or write_ept_file(t, path))
        code, _, _ = run(
            capsys, "synth", "--samples", 8, "--classes", 3, "--members", 2,
            "--mode", "collapse", "--epochs", 4, "--decay", 1.0,
            "--seed", 5, "--out", tmp_path / "col",
        )
        assert code == 0
        assert events == ["draw", "write"] * 4  # one epoch in memory at a time
        monkeypatch.undo()
        for epoch, tensor in generate_collapse_series(cfg):
            write_ept_file(tensor, tmp_path / "ref.ept")
            assert ((tmp_path / f"col_epoch{epoch:03d}.ept").read_bytes()
                    == (tmp_path / "ref.ept").read_bytes())

    def test_collapse_series_validates_each_tensor_once(self, tmp_path, capsys, monkeypatch):
        checks = []
        check = ept._check_values
        monkeypatch.setattr(ept, "_check_values",
                            lambda data, manifest: checks.append(1) or check(data, manifest))
        code, _, _ = run(
            capsys, "synth", "--samples", 6, "--classes", 3, "--members", 2,
            "--mode", "collapse", "--epochs", 20, "--seed", 5, "--out", tmp_path / "col",
        )
        assert code == 0
        assert len(checks) == 20  # at make time only: write_ept trusts the sealed tensor

    def test_failed_epoch_write_exits_cleanly(self, tmp_path, capsys):
        (tmp_path / "col_epoch002.ept").mkdir()  # the third epoch cannot be written
        before = threading.active_count()
        code, out, err = run(
            capsys, "synth", "--samples", 8, "--classes", 3, "--members", 2,
            "--mode", "collapse", "--epochs", 6, "--seed", 5, "--out", tmp_path / "col",
        )
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert threading.active_count() == before
        assert sorted(p.name for p in tmp_path.glob("col_epoch*.ept") if p.is_file()) == [
            "col_epoch000.ept", "col_epoch001.ept"]

    def test_byte_identical_reruns(self, tmp_path, capsys):
        for prefix in ("a", "b"):
            run(
                capsys, "synth", "--samples", 10, "--classes", 3, "--members", 2,
                "--seed", 5, "--out", tmp_path / prefix,
            )
        assert (tmp_path / "a_probs.ept").read_bytes() == (tmp_path / "b_probs.ept").read_bytes()
        assert (tmp_path / "a_logits.ept").read_bytes() == (tmp_path / "b_logits.ept").read_bytes()
        assert (tmp_path / "a_labels.csv").read_bytes() == (tmp_path / "b_labels.csv").read_bytes()

    @pytest.mark.parametrize("mode", [[], ["--mode", "collapse", "--epochs", "3"]],
                             ids=["static", "collapse"])
    @pytest.mark.parametrize("setting", ["--s-noise", "--s-signal"])
    def test_overflowing_scale_is_one_error_line(self, tmp_path, setting, mode):
        # A subprocess, so that a numpy overflow warning would show on stderr.
        result = subprocess.run(
            [sys.executable, "-m", "uqgate.cli", "synth", "--samples", "100", "--classes", "3",
             "--members", "2", setting, "1e308", *mode, "--out", str(tmp_path / "big")],
            capture_output=True, text=True,
        )
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.count("\n") == 1 and result.stderr.startswith("error: ")
        assert f"{setting[2:].replace('-', '_')} 1e+308" in result.stderr
        assert not any(tmp_path.iterdir())

    def test_invalid_config(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "synth", "--samples", 10, "--classes", 1, "--members", 2,
            "--out", tmp_path / "bad",
        )
        assert code == 1
        assert "error:" in err

    def test_every_config_field_is_a_parser_dest(self):
        # cmd_synth builds its SynthConfig from the parsed arguments by field name.
        args = cli._build_parser().parse_args(
            ["synth", "--samples", "1", "--classes", "2", "--members", "1", "--out", "x"])
        assert {field.name for field in dataclasses.fields(SynthConfig)} <= set(vars(args))

    def test_defaults_are_the_config_defaults(self):
        args = cli._build_parser().parse_args(
            ["synth", "--samples", "1", "--classes", "2", "--members", "1", "--out", "x"])
        parsed = SynthConfig(**{field.name: getattr(args, field.name)
                                for field in dataclasses.fields(SynthConfig)})
        assert parsed == SynthConfig(samples=1, classes=2, members=1)


@pytest.mark.parametrize("epsilon", ["-0.5", "0", "nan"])
@pytest.mark.parametrize("command", ["report", "coverage", "ood"])
def test_epsilon_must_be_positive(workdir, capsys, command, epsilon):
    probs, labels = workdir / "probs.ept", workdir / "labels.csv"
    inputs = {
        "report": ("--input", probs, "--labels", labels),
        "coverage": ("--input", probs, "--labels", labels),
        "ood": ("--id", probs, "--ood", probs, "--measure", "gmu"),
    }[command]
    code, out, err = run(capsys, command, *inputs, f"--epsilon={epsilon}")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: epsilon must be positive")


def test_oversized_manifest_fails_cleanly(tmp_path, capsys):
    header = json.dumps({
        "version": 1, "kind": "probs", "task": "multiclass", "members": 2**40,
        "samples": 2**40, "classes": 2, "precision": "binary64",
    }).encode()
    path = tmp_path / "huge.ept"
    path.write_bytes(b"EPT1" + struct.pack("<I", len(header)) + header + bytes(16))
    code, out, err = run(capsys, "report", "--input", path)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: truncated payload")


def test_console_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "uqgate.cli", "synth", "--samples", "4",
         "--classes", "2", "--members", "2", "--out", str(tmp_path / "x")],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert (tmp_path / "x_probs.ept").exists()


@pytest.mark.parametrize("k", ["-3", "0", "nan"])
def test_ood_k_must_be_positive(workdir, capsys, k):
    # Every ood measure, not only the gated ones, rejects k before reading input.
    code, out, err = run(capsys, "ood", "--id", workdir / "nope.ept", "--ood",
                         workdir / "nope.ept", "--measure", "epjs", f"--k={k}")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: k must be positive")


@pytest.mark.parametrize("grid", ["0:4:5", "1,-2", "0.5,nan"])
def test_coverage_k_grid_checked_before_input(tmp_path, capsys, grid):
    code, out, err = run(capsys, "coverage", "--input", tmp_path / "nope.ept", "--labels",
                         tmp_path / "nope.csv", "--k-grid", grid)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: k must be positive")


@pytest.mark.parametrize("error", [MemoryError(), MemoryError("Unable to allocate 8 EiB")])
def test_memory_error_fails_cleanly(workdir, capsys, monkeypatch, error):
    def exhausted(args):
        raise error

    monkeypatch.setattr(cli, "cmd_report", exhausted)
    code, out, err = run(capsys, "report", "--input", workdir / "probs.ept")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert err.strip() == f"error: {str(error) or 'MemoryError'}"


# ---------------------------------------------------------------------------
# One member has zero spread, so a subnormal eps overflows every SNR and gate
# ratio to infinity: the output stays right and nothing reaches stderr.


@pytest.fixture
def one_member(tmp_path):
    write_ept_file(probs_tensor(random_probs(np.random.default_rng(5), 1, 6, 3)),
                   tmp_path / "one.ept")
    (tmp_path / "labels.csv").write_text("0\n1\n2\n0\n1\n2\n")
    return tmp_path


def _run_subnormal_eps(*argv):
    result = subprocess.run(
        [sys.executable, "-m", "uqgate.cli", *map(str, argv), "--epsilon", "5e-324"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert result.stderr == ""
    return result.stdout


def test_subnormal_eps_report(one_member):
    out = _run_subnormal_eps("report", "--input", one_member / "one.ept")
    header, *rows = [line.split(",") for line in out.splitlines()]
    assert len(rows) == 6
    for row in map(dict, (zip(header, row) for row in rows)):
        assert row["snr"] == "inf" and row["decision"] != "uncertain"
        # Every gate is 1, so the gated decomposition is the standard one.
        assert [row[c] for c in ("tu_k1", "au_k1", "eu_k1")] == [row[c] for c in ("tu", "au", "eu")]


def test_subnormal_eps_ood(one_member):
    path = one_member / "one.ept"
    auroc = json.loads(_run_subnormal_eps("ood", "--id", path, "--ood", path, "--measure", "all"))
    assert len(auroc["auroc"]) == 10 and set(auroc["auroc"].values()) == {0.5}


def test_subnormal_eps_coverage(one_member):
    out = _run_subnormal_eps("coverage", "--input", one_member / "one.ept",
                             "--labels", one_member / "labels.csv")
    lines = out.splitlines()
    assert lines[0] == "k,coverage,risk" and len(lines) > 1
    assert all(line.split(",")[1] == "1" for line in lines[1:])


# ---------------------------------------------------------------------------
# The column-block table writer against the row-by-row one it replaced.


def _reference_records(columns):
    for row in range(len(columns[0][1])):
        record = []
        for name, values in columns:
            v = values[row]
            if name == "decision" and v == UNCERTAIN:
                record.append("uncertain")
            elif name in ("sample", "decision", "correct", "epoch", "collapse"):
                record.append(int(v))
            else:
                record.append(float(v))
        yield record


def _reference_emit_table(columns, fmt, out):
    names = [name for name, _ in columns]
    if fmt == "csv":
        out.write(",".join(names) + "\n")
        for record in _reference_records(columns):
            out.write(",".join(f"{v:.9g}" if isinstance(v, float) else str(v)
                               for v in record) + "\n")
    else:
        json.dump([dict(zip(names, record)) for record in _reference_records(columns)],
                  out, indent=2)
        out.write("\n")


def _report_columns(data, eps=1e-8, labels=None):
    configs = [GateConfig(k=k, epsilon=eps) for k in (0.5, 1.0, 2.0)]
    [columns] = cli._report_rows(probs_tensor(data), labels, configs)  # N fits one block
    return columns


def _assert_tables_match(columns, rows_per_block):
    _assert_blocks_match(columns, stats.sample_blocks(len(columns[0][1]), rows_per_block))


def _assert_blocks_match(columns, bounds):
    blocks = [[(name, values[start:stop]) for name, values in columns] for start, stop in bounds]
    for fmt in ("csv", "json"):
        got, ref = io.StringIO(), io.StringIO()
        got.writelines(cli._table_text(blocks, fmt))
        _reference_emit_table(columns, fmt, ref)
        assert got.getvalue() == ref.getvalue()


class TestEmitTable:
    @pytest.mark.parametrize("samples", [1, 3, 4, 5, 8, 9])
    def test_report_rows_around_the_block_size(self, rng, samples):
        data = random_probs(rng, 5, samples, 4)
        labels = rng.integers(0, 4, size=samples)
        _assert_tables_match(_report_columns(data, labels=labels), 4)

    def test_uncertain_and_decided_rows(self, rng):
        confident = np.broadcast_to(np.array([0.9, 0.05, 0.05]), (4, 3, 3))
        data = np.concatenate([confident, random_probs(rng, 4, 7, 3)], axis=1)
        decisions = dict(_report_columns(data))["decision"]
        assert (decisions == UNCERTAIN).any() and (decisions != UNCERTAIN).any()
        _assert_tables_match(_report_columns(data), 4)

    def test_infinite_snr(self, rng):
        # One member has zero spread, so a subnormal eps makes every SNR infinite.
        columns = _report_columns(random_probs(rng, 1, 6, 3), eps=5e-324)
        assert np.isinf(dict(columns)["snr"]).all()
        _assert_tables_match(columns, 4)

    def test_nan_and_negative_zero_cells(self):
        columns = [("sample", np.arange(5)),
                   ("risk", np.array([np.nan, -0.0, 0.0, -np.inf, 1e-300])),
                   ("decision", np.array([UNCERTAIN, 0, 2, UNCERTAIN, 1]))]
        _assert_tables_match(columns, 2)

    def test_diversity_bool_collapse_column(self):
        columns = [("epoch", np.arange(6)),
                   ("diversity", np.array([0.3, 0.1, 1e-4, 5e-5, 1e-6, 0.0])),
                   ("collapse", np.arange(6) == 2)]
        _assert_tables_match(columns, 4)

    def test_no_rows(self):
        columns = [("epoch", np.arange(0)), ("diversity", np.zeros(0))]
        _assert_tables_match(columns, 4)

    @pytest.mark.parametrize("rows_per_block", [1, 2, 3, 6, 7, 8])
    def test_every_column_kind_at_any_block_size(self, rng, rows_per_block):
        # Float, int, bool and decision columns: each has its own CSV template field.
        columns = [("sample", np.arange(7)),
                   ("tu", rng.standard_normal(7) * 10.0 ** rng.integers(-300, 300, 7)),
                   ("decision", np.array([UNCERTAIN, 0, 3, UNCERTAIN, UNCERTAIN, 12, 1])),
                   ("correct", np.array([1, 0, 0, 1, 1, 0, 1])),
                   ("collapse", np.arange(7) == 5)]
        _assert_blocks_match(columns, [(start, min(start + rows_per_block, 7))
                                       for start in range(0, 7, rows_per_block)])

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_any_binary64_at_any_block_size(self, data):
        rows = data.draw(st.integers(1, 12))
        # Uniform bit patterns reach every exponent evenly; st.floats() favours
        # the edges (subnormals, +-0, +-inf, NaN, the largest finite values).
        bits = st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])
        floats = st.lists(st.one_of(st.floats(), bits), min_size=rows, max_size=rows)
        decisions = st.lists(st.sampled_from([UNCERTAIN, 0, 1, 2]), min_size=rows, max_size=rows)
        collapse = st.lists(st.booleans(), min_size=rows, max_size=rows)
        columns = [("sample", np.arange(rows)),
                   ("tu", np.array(data.draw(floats), dtype=np.float64)),
                   ("snr", np.array(data.draw(floats), dtype=np.float64)),
                   ("decision", np.array(data.draw(decisions))),
                   ("collapse", np.array(data.draw(collapse)))]
        step = data.draw(st.integers(1, rows))
        _assert_blocks_match(columns, [(start, min(start + step, rows))
                                       for start in range(0, rows, step)])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_finite_and_non_finite_columns_side_by_side(self, data):
        # JSON maps the repr of NaN and +-inf only in a column that holds one: each
        # table has an all-finite column and one with non-finite cells at drawn rows,
        # so a block can be all finite in one column and not in the other.
        rows = data.draw(st.integers(1, 12))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        tu = data.draw(st.lists(finite, min_size=rows, max_size=rows))
        snr = data.draw(st.lists(finite, min_size=rows, max_size=rows))
        for row in data.draw(st.sets(st.integers(0, rows - 1), min_size=1)):
            snr[row] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        columns = [("sample", np.arange(rows)), ("tu", np.array(tu)), ("snr", np.array(snr))]
        step = data.draw(st.integers(1, rows))
        _assert_blocks_match(columns, [(start, min(start + step, rows))
                                       for start in range(0, rows, step)])


# ---------------------------------------------------------------------------
# The report and ood scores in sample blocks against the whole-tensor
# computation they replaced (_whole_report_columns), at block size 4.


def _whole_report_columns(tensor, labels, configs):
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


def _assert_blocked_report_matches(tensor, labels, eps, monkeypatch):
    configs = [GateConfig(k=k, epsilon=eps) for k in (0.5, 1.0, 2.0)]
    ref_columns = _whole_report_columns(tensor, labels, configs)
    monkeypatch.setattr(stats, "BLOCK_VALUES", block_budget(tensor, 4))
    for fmt in ("csv", "json"):  # JSON cells are repr: every bit of every float
        got, ref = io.StringIO(), io.StringIO()
        got.writelines(cli._table_text(cli._report_rows(tensor, labels, configs), fmt))
        ref.writelines(cli._table_text([ref_columns], fmt))
        assert got.getvalue() == ref.getvalue()
    return dict(ref_columns)


class TestReportBlocks:
    @pytest.mark.parametrize("precision", [np.float64, np.float32])
    @pytest.mark.parametrize("members", [1, 9, 12])  # from 8, numpy may sum pairwise
    @pytest.mark.parametrize("samples", [1, 3, 4, 5, 8, 9, 13])
    def test_byte_identical_to_whole_tensor(self, rng, monkeypatch, precision, members,
                                            samples):
        data = random_probs(rng, members, samples, 4)
        data[:, 1::3] = [0.9, 0.05, 0.03, 0.02]  # members agree: decided rows
        tensor = make_tensor(data.astype(precision), kind="probs")
        labels = rng.integers(0, 4, size=samples)
        decision = _assert_blocked_report_matches(tensor, labels, 1e-8, monkeypatch)["decision"]
        if members > 1:
            assert (decision == UNCERTAIN).any()
        if samples > 1:
            assert (decision != UNCERTAIN).any()

    @pytest.mark.parametrize("samples", [1, 5, 13])
    def test_one_member_subnormal_eps(self, rng, monkeypatch, samples):
        tensor = probs_tensor(random_probs(rng, 1, samples, 3))
        snr = _assert_blocked_report_matches(tensor, None, 5e-324, monkeypatch)["snr"]
        assert np.isinf(snr).all()

    @pytest.mark.parametrize("members", [1, 9, 12])
    @pytest.mark.parametrize("samples", [1, 5, 13])
    def test_ood_scores_identical_to_one_block(self, rng, monkeypatch, members, samples):
        tensor = probs_tensor(random_probs(rng, members, samples, 4))
        whole = cli._ood_scores(tensor, cli.OOD_MEASURES, GateConfig(k=1.0))  # N fits one block
        monkeypatch.setattr(stats, "BLOCK_VALUES", block_budget(tensor, 4))
        blocked = cli._ood_scores(tensor, cli.OOD_MEASURES, GateConfig(k=1.0))
        for got, ref in zip(blocked, whole, strict=True):
            assert got.tobytes() == ref.tobytes()

    def test_memory_beyond_the_payload_does_not_grow_with_samples(self, monkeypatch):
        monkeypatch.setattr(stats, "BLOCK_VALUES", 128 * 16 * 32)  # 128-sample blocks

        def traced_peak(blocks):
            return _report_peak(random_probs(np.random.default_rng(0), 16, 128 * blocks, 32))

        # One (16, 128, 32) float64 block is 512 KiB; the whole-tensor report
        # grew by several payloads (6 blocks each) between these sizes.
        assert traced_peak(8) - traced_peak(2) < 64 * 1024

    def test_memory_beyond_the_payload_does_not_grow_with_classes(self):
        def traced_peak(classes):
            # Three blocks and one sample at the default budget: a payload of about
            # 3 * BLOCK_VALUES values, 2.3 MiB, at every C.
            samples = 3 * (stats.BLOCK_VALUES // (10 * classes)) + 1
            return _report_peak(random_probs(np.random.default_rng(0), 10, samples, classes))

        # With 1024-sample blocks at every C, the C = 100 and C = 1000 reports
        # were one block each and peaked 3.8 MiB above the C = 10 one.
        at_10, at_100, at_1000 = map(traced_peak, (10, 100, 1000))
        assert max(at_100, at_1000) - at_10 < 512 * 1024


def _report_peak(data):
    """tracemalloc's peak while the report of these probabilities is written, in bytes.

    The payload is allocated before tracing starts, so the peak excludes it.
    """
    tensor = probs_tensor(data)
    configs = [GateConfig(k=k) for k in (0.5, 1.0, 2.0, 4.0)]
    with open(os.devnull, "w") as sink:
        tracemalloc.start()
        try:
            sink.writelines(cli._table_text(cli._report_rows(tensor, None, configs), "csv"))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


@pytest.mark.parametrize("argv", [
    ("report", "--input", "{dir}/one.ept", "--k", "inf"),
    ("report", "--input", "{dir}/one.ept", "--k", "1,inf"),
    ("ood", "--id", "{dir}/one.ept", "--ood", "{dir}/one.ept", "--k", "inf"),
    ("coverage", "--input", "{dir}/one.ept", "--labels", "{dir}/labels.csv",
     "--k-grid", "1:inf:3"),
    ("coverage", "--input", "{dir}/one.ept", "--labels", "{dir}/labels.csv",
     "--k-grid=-inf:1:3"),
    ("coverage", "--input", "{dir}/one.ept", "--labels", "{dir}/labels.csv",
     "--k-grid", "0.5,inf"),
])
def test_infinite_k_is_rejected(one_member, argv):
    # Run as a subprocess so that a numpy warning would show on stderr.
    result = subprocess.run(
        [sys.executable, "-m", "uqgate.cli", *(a.format(dir=one_member) for a in argv)],
        capture_output=True, text=True,
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith("error: k must be positive and finite")


# ---------------------------------------------------------------------------
# Every analysing command on logits, one sample block at a time, against the
# route it replaced: the whole file softmaxed into a binary64 probs tensor
# (_old_read_input), whose moments are one block.


def _old_read_input(path):
    tensor = read_ept_file(path)
    if tensor.manifest.kind == "logits":
        print(f"note: {path} contains logits; applying softmax", file=sys.stderr)
        tensor = old_softmax_tensor(tensor)
    return tensor


@pytest.fixture
def logits_files(tmp_path):
    paths = []
    for seed, samples in ((3, 9), (4, 13)):
        cfg = SynthConfig(samples=samples, classes=4, members=9, s_signal=2.0, s_noise=0.7,
                          seed=seed)
        probs, logits, labels = generate(cfg)
        write_ept_file(logits, tmp_path / f"logits{seed}.ept")
        with open(tmp_path / f"labels{seed}.csv", "w", newline="") as handle:
            write_labels(labels, handle)
        paths.append(tmp_path / f"logits{seed}.ept")
    return paths


@pytest.mark.parametrize("command", [
    ("report", "--input", "{a}", "--labels", "{dir}/labels3.csv", "--k", "0.5,1,2"),
    ("report", "--input", "{b}", "--labels", "{dir}/labels4.csv", "--format", "json"),
    ("coverage", "--input", "{b}", "--labels", "{dir}/labels4.csv", "--k-grid", "0.25:4:16"),
    ("ood", "--id", "{a}", "--ood", "{b}", "--measure", "all"),
    ("diversity", "--inputs", "{a}", "{a}", "--format", "json"),
    ("diversity", "--inputs", "{b}", "{b}", "{b}"),
])
def test_logits_identical_to_whole_tensor_softmax(logits_files, capsys, monkeypatch, command):
    a, b = logits_files
    argv = [part.format(a=a, b=b, dir=a.parent) for part in command]
    with monkeypatch.context() as old:
        old.setattr(cli, "_read_input", _old_read_input)
        ref = run(capsys, *argv)  # each file is one block at the default budget
    monkeypatch.setattr(stats, "BLOCK_VALUES", 4 * 9 * 4)  # 4-sample blocks of both 9x.x4 files
    assert run(capsys, *argv) == ref
    assert ref[0] == 0 and "applying softmax" in ref[2]


def test_logits_memory_stays_below_the_tensor(monkeypatch):
    # A 20x16384x10 logits tensor is 25 MiB as float64; the whole-tensor
    # softmax route peaked at about three times that.
    rng = np.random.default_rng(0)
    monkeypatch.setattr(stats, "BLOCK_VALUES", 1024 * 20 * 10)  # 1024-sample blocks
    tensor = make_tensor(rng.normal(size=(20, 16 * 1024, 10)), kind="logits")
    configs = [GateConfig(k=k) for k in (0.5, 1.0, 2.0, 4.0)]
    passes = {
        "from_tensor": lambda: stats.ClassStats.from_tensor(tensor),
        "report": lambda: [None for _ in cli._report_rows(tensor, None, configs)],
    }
    for name, run_pass in passes.items():
        tracemalloc.start()
        try:
            run_pass()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < tensor.data.nbytes / 2, name


@pytest.mark.parametrize("kind", ["probs", "logits"])
@pytest.mark.parametrize("name", ["standard_decomposition", "epce", "epkl", "epjs",
                                  "gated_decomposition"])
def test_tensor_measures_memory_stays_below_the_payload(monkeypatch, kind, name):
    # Each tensor-level measure evaluates one sample block at a time, so beyond
    # the payload it holds one block's work and the per-sample results. On one
    # whole-tensor view these peaked at 2.3-3.8 payloads.
    rng = np.random.default_rng(0)
    monkeypatch.setattr(stats, "BLOCK_VALUES", 1024 * 6 * 8)  # 1024-sample blocks
    shape = (6, 16 * 1024 + 3, 8)
    data = random_probs(rng, *shape) if kind == "probs" else 4.0 * rng.normal(size=shape)
    tensor = make_tensor(data, kind=kind)
    module = gating if name == "gated_decomposition" else measures
    args = (GateConfig(k=1.0),) if name == "gated_decomposition" else ()
    tracemalloc.start()
    try:
        getattr(module, name)(tensor, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < tensor.data.nbytes / 2


def test_report_on_a_row_wider_than_the_float_range(tmp_path):
    # Softmax shifts this row by its max: 1e308 - (-1e308) overflows to -inf,
    # and exp(-inf) = 0 is the right value, so numpy's warning must not show.
    path = tmp_path / "wide.ept"
    write_ept_file(make_tensor(np.array([[[1e308, -1e308, 0.0]], [[0.0, 1.0, 2.0]]]),
                               kind="logits"), path)
    result = subprocess.run([sys.executable, "-m", "uqgate.cli", "report", "--input", str(path)],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stderr == f"note: {path} contains logits; applying softmax\n"
    assert len(result.stdout.splitlines()) == 2


def test_report_rejects_colliding_k_columns(tmp_path, capsys):
    # f"{k:g}" keeps 6 digits: both values would name tu_k1, au_k1 and eu_k1.
    code, out, err = run(capsys, "report", "--input", tmp_path / "nope.ept",
                         "--k", "1,1.0000001")
    assert code == 1
    assert out == ""
    assert err == ("error: k values 1.0 and 1.0000001 both name the columns "
                   "tu_k1, au_k1 and eu_k1\n")


def test_deeply_nested_manifest_fails_cleanly(tmp_path, capsys):
    header = b"[" * 200_000
    path = tmp_path / "nested.ept"
    path.write_bytes(b"EPT1" + struct.pack("<I", len(header)) + header)
    code, out, err = run(capsys, "report", "--input", path)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: manifest is not valid JSON")


def test_calibrate_rejects_multilabel_before_labels(tmp_path, capsys, rng):
    tensor = make_tensor(rng.normal(size=(2, 4, 3)), kind="logits", task="multilabel")
    write_ept_file(tensor, tmp_path / "ml.ept")
    (tmp_path / "ml.csv").write_text("0,1,0\n1,0,0\n0,0,1\n1,1,0\n")
    for labels in ("ml.csv", "nope.csv"):
        code, out, err = run(capsys, "calibrate", "--input", tmp_path / "ml.ept",
                             "--labels", tmp_path / labels)
        assert code == 1
        assert out == ""
        assert err == "error: calibrate requires a multiclass tensor\n"


def test_ood_holds_one_payload_at_a_time(workdir, capsys, monkeypatch):
    read = []

    def tracked_read(path):
        # The ID payload is released before the OOD file is read.
        assert all(ref() is None for ref in read)
        tensor = read_ept_file(path)
        read.append(weakref.ref(tensor))
        return tensor

    monkeypatch.setattr(cli, "read_ept_file", tracked_read)
    code, out, _ = run(capsys, "ood", "--id", workdir / "probs.ept", "--ood",
                       workdir / "logits.ept")
    assert code == 0 and json.loads(out)["auroc"]
    assert len(read) == 2


@pytest.mark.parametrize("per_member", [[], ["--per-member"]], ids=["global", "per-member"])
def test_calibrate_frees_the_payload_before_the_search(workdir, capsys, monkeypatch, per_member):
    # The search runs on the objective's classes-first copy; the payload is not resident.
    payloads, alive = [], []
    search = calibration._search

    def tracked_read(path):
        tensor = read_ept_file(path)
        payloads.append(weakref.ref(tensor.data))
        return tensor

    def tracked_search(loss):
        alive.extend(ref() is not None for ref in payloads)
        return search(loss)

    monkeypatch.setattr(cli, "read_ept_file", tracked_read)
    monkeypatch.setattr(calibration, "_search", tracked_search)
    code, out, _ = run(capsys, "calibrate", "--input", workdir / "logits.ept",
                       "--labels", workdir / "labels.csv", *per_member)
    assert code == 0 and json.loads(out)["nll_after"]
    assert alive == [False]


@pytest.mark.parametrize("argv, message", [
    (("report", "--input", "bad.ept"), "stream truncated"),
    (("coverage", "--input", "probs.ept", "--labels", "labels.csv", "--k-grid", "1:2"),
     "grid must be lo:hi:count"),
    (("calibrate", "--input", "probs.ept", "--labels", "labels.csv"),
     "calibration requires a logits tensor"),
    (("diversity", "--inputs", "probs.ept", "other.ept"), "snapshot 1 has shape"),
    (("ood", "--id", "probs.ept", "--ood", "bad.ept"), "stream truncated"),  # ID file valid
], ids=["report", "coverage", "calibrate", "diversity", "ood"])
def test_failing_command_leaves_no_output_file(workdir, capsys, argv, message):
    # main opens --output only once the command has read its inputs and returned its text.
    (workdir / "bad.ept").write_bytes(b"EPT1")
    write_ept_file(probs_tensor(random_probs(np.random.default_rng(0), 2, 3, 3)),
                   workdir / "other.ept")
    target = workdir / "out.txt"
    argv = [workdir / part if part.endswith((".ept", ".csv")) else part for part in argv]
    code, out, err = run(capsys, *argv, "--output", target)
    assert code == 1
    assert out == "" and not target.exists()
    assert err.count("\n") == 1 and err.startswith(f"error: {message}")


# ---------------------------------------------------------------------------
# --output is written whole or not at all: a report goes to a new file beside the
# target, which takes the target's place only once the whole report is written.


@pytest.mark.parametrize("output, message", [
    ("newname/", "[Errno 21] Is a directory: 'newname/'"),
    ("", "[Errno 2] No such file or directory: ''"),
    ("newname/.", "[Errno 2] No such file or directory: 'newname/.'"),
    ("newname/..", "[Errno 2] No such file or directory: 'newname/..'"),
], ids=["trailing-slash", "empty", "dot", "dot-dot"])
def test_an_output_that_names_no_file_is_refused(workdir, capsys, monkeypatch, output, message):
    # Such a path resolves to a directory, or to a file other than the one it names; open
    # refuses it before anything is written, here and in the parent directory.
    cwd = workdir / "run"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    before = sorted(os.listdir(workdir))
    code, out, err = run(capsys, "report", "--input", workdir / "probs.ept", "--output", output)
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert os.listdir(cwd) == [] and sorted(os.listdir(workdir)) == before


def _fail_in_block(monkeypatch, block, error):
    """Make measures.pairwise_js raise ``error`` in the ``block``-th sample block (from 1)."""
    calls = []
    pairwise_js = measures.pairwise_js

    def failing(ens):
        calls.append(ens)
        if len(calls) == block:
            raise error
        return pairwise_js(ens)

    monkeypatch.setattr(measures, "pairwise_js", failing)


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("block", [1, 3])
def test_a_fault_in_a_report_block_leaves_the_output_as_it_was(workdir, capsys, monkeypatch,
                                                                block, existing):
    monkeypatch.setattr(stats, "BLOCK_VALUES", 4 * 5 * 4)  # 4-sample blocks: 5 of them
    target = workdir / "reports" / "report.csv"
    target.parent.mkdir()
    if existing:
        target.write_bytes(b"sample,tu\n0,0.5\n")
    _fail_in_block(monkeypatch, block, MemoryError)
    code, out, err = run(capsys, "report", "--input", workdir / "probs.ept", "--output", target)
    assert (code, out, err) == (1, "", "error: MemoryError\n")
    assert os.listdir(target.parent) == (["report.csv"] if existing else [])
    if existing:
        assert target.read_bytes() == b"sample,tu\n0,0.5\n"


def test_an_interrupted_report_leaves_no_file(workdir, monkeypatch):
    # Any exception, not only the ones main reports, removes the new file.
    monkeypatch.setattr(stats, "BLOCK_VALUES", 4 * 5 * 4)
    _fail_in_block(monkeypatch, 2, KeyboardInterrupt)
    (workdir / "reports").mkdir()
    with pytest.raises(KeyboardInterrupt):
        main(["report", "--input", str(workdir / "probs.ept"),
              "--output", str(workdir / "reports" / "report.csv")])
    assert os.listdir(workdir / "reports") == []


def _coverage_argv(workdir):
    return ["coverage", "--input", workdir / "probs.ept", "--labels", workdir / "labels.csv"]


@pytest.mark.parametrize("existing", [False, True], ids=["dangling", "existing"])
def test_a_symlinked_output_updates_the_link_target(workdir, capsys, existing):
    real = workdir / "reports" / "coverage.csv"
    real.parent.mkdir()
    if existing:
        real.write_text("old\n")
    link = workdir / "latest.csv"
    link.symlink_to(real)
    code, out, _ = run(capsys, *_coverage_argv(workdir), "--output", link)
    assert (code, out) == (0, "")
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_text() == run(capsys, *_coverage_argv(workdir))[1]
    assert os.listdir(real.parent) == ["coverage.csv"]


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o000], ids=["022", "077", "000"])
def test_a_new_output_gets_the_mode_open_gives(workdir, capsys, umask):
    previous = os.umask(umask)
    try:
        with open(workdir / "by_open.csv", "w"):
            pass
        code, _, _ = run(capsys, *_coverage_argv(workdir), "--output", workdir / "new.csv")
    finally:
        os.umask(previous)
    assert code == 0
    assert (workdir / "new.csv").stat().st_mode == (workdir / "by_open.csv").stat().st_mode


def test_an_existing_output_keeps_its_mode(workdir, capsys):
    target = workdir / "kept.csv"
    target.write_text("old\n")
    target.chmod(0o640)
    code, _, _ = run(capsys, *_coverage_argv(workdir), "--output", target)
    assert code == 0 and target.read_text().startswith("k,coverage,risk\n")
    assert stat.S_IMODE(target.stat().st_mode) == 0o640


def test_a_fifo_output_is_written_directly(workdir, capsys):
    # A target that is not a regular file is opened and written as it is, not replaced.
    fifo = workdir / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # the report fits the pipe's buffer
    try:
        code, out, _ = run(capsys, *_coverage_argv(workdir), "--output", fifo)
        text = os.read(reader, 1 << 16).decode()
    finally:
        os.close(reader)
    assert (code, out) == (0, "")
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert text == run(capsys, *_coverage_argv(workdir))[1]


def _report_argv(path, members):
    """A report of 2000 samples, about 280 KB: more than a pipe's buffer holds."""
    probs, _, _ = generate(SynthConfig(samples=2000, classes=10, members=members, seed=1))
    write_ept_file(probs, path)
    return [sys.executable, "-m", "uqgate.cli", "report", "--input", str(path)]


@pytest.fixture
def long_report(tmp_path):
    """A report of four sample blocks."""
    return _report_argv(tmp_path / "long.ept", members=20)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_stdout_is_one_error_line(long_report):
    with open("/dev/full", "w") as full:
        result = subprocess.run(long_report, stdout=full, stderr=subprocess.PIPE, text=True)
    assert (result.returncode, result.stderr) == (1, "error: [Errno 28] No space left on device\n")


def _read_then_close(argv):
    """Exit status, stderr and the first 100 bytes of a run whose reader then closes stdout."""
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = child.stdout.read(100)
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    return child.wait(), err, head


def test_a_closed_pipe_is_one_error_line(long_report):
    # As written: exit 1 and one error line, not the quiet exit of a Unix filter.
    code, err, head = _read_then_close(long_report)
    assert (code, err) == (1, b"error: [Errno 32] Broken pipe\n")
    assert head.startswith(b"sample,tu,au,eu,")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_stdout_of_a_process_is_the_text_of_an_in_process_run(long_report, fmt):
    # A process writes the encoded chunks to stdout's buffer; a StringIO takes the text.
    result = subprocess.run([*long_report, "--format", fmt], capture_output=True)
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert main([*long_report[3:], "--format", fmt]) == 0
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout == text.getvalue().encode()


def test_a_pipe_closed_inside_the_one_chunk_is_one_error_line(tmp_path):
    # One sample block is one chunk, larger than the pipe's buffer: the write that the
    # reader's close cuts short returns a short count and raises nothing itself.
    assert stats.BLOCK_VALUES // (4 * 10) >= 2000  # 4 members, 10 classes: one block
    argv = _report_argv(tmp_path / "one_block.ept", members=4)
    for _ in range(5):
        code, err, head = _read_then_close(argv)
        assert (code, err) == (1, b"error: [Errno 32] Broken pipe\n")
        assert head.startswith(b"sample,tu,au,eu,")


def test_duplicate_manifest_keys_fail_cleanly(tmp_path, capsys):
    header = (b'{"version":1,"kind":"logits","task":"multiclass","kind":"probs","members":2,'
              b'"samples":1,"classes":2,"precision":"binary64","members":1}')
    path = tmp_path / "duplicate.ept"
    path.write_bytes(b"EPT1" + struct.pack("<I", len(header)) + header + bytes(16))
    code, out, err = run(capsys, "report", "--input", path)
    assert (code, out, err) == (1, "", "error: manifest has duplicate field 'kind'\n")


# EPJS in the CLI against the ordered-pair loop over each block's member
# probabilities: same host, same log, so every output byte must match.


@pytest.fixture
def js_files(workdir):
    cfg = SynthConfig(samples=11, classes=100, members=7, s_signal=1.0, s_noise=0.5, seed=5)
    probs, logits, _ = generate(cfg)
    for name, tensor in (("wide32.ept", probs), ("wide32_logits.ept", logits)):
        write_ept_file(make_tensor(tensor.data.astype(np.float32), kind=tensor.manifest.kind),
                       workdir / name)
    return workdir


@pytest.mark.parametrize("argv", [
    ("report", "--input", "probs.ept", "--labels", "labels.csv", "--format", "json"),
    ("report", "--input", "logits.ept", "--format", "json"),
    ("report", "--input", "wide32.ept", "--format", "json"),
    ("ood", "--id", "probs.ept", "--ood", "logits.ept", "--measure", "epjs"),
    ("ood", "--id", "wide32.ept", "--ood", "wide32_logits.ept", "--measure", "epjs"),
])
def test_epjs_bytes_match_ordered_pair_reference(js_files, capsys, monkeypatch, argv):
    argv = [js_files / part if part.endswith((".ept", ".csv")) else part for part in argv]
    # Several blocks, with a remainder: 4 samples of the 5x20x4 files, 2 of the 7x11x100 ones.
    monkeypatch.setattr(stats, "BLOCK_VALUES", 4 * 5 * 4)
    got = run(capsys, *argv)
    monkeypatch.setattr(measures, "pairwise_js", lambda ens: ordered_pair_js(ens.probs))
    assert run(capsys, *argv) == got
    assert got[0] == 0 and got[1]


# ---------------------------------------------------------------------------
# The CLI's malloc policy, against a fake mallopt.


class TestAllocatorPolicy:
    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
        for name in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES"):
            monkeypatch.delenv(name, raising=False)
        return calls

    def test_sets_both_thresholds(self, calls):
        cli._tune_allocator()
        # M_MMAP_THRESHOLD is -3 and M_TRIM_THRESHOLD -1 in glibc's malloc.h.
        assert calls == [(-3, 4 << 20), (-1, 64 << 20)]

    def test_main_applies_it(self, calls, tmp_path):
        assert main(["synth", "--samples", "3", "--classes", "2", "--members", "2",
                     "--out", str(tmp_path / "s")]) == 0
        assert calls == [(-3, cli.MMAP_THRESHOLD), (-1, cli.TRIM_THRESHOLD)]

    @pytest.mark.parametrize("name, value", [
        ("MALLOC_MMAP_THRESHOLD_", "131072"),
        ("MALLOC_TRIM_THRESHOLD_", "0"),
        ("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=0"),
    ])
    def test_a_user_setting_wins(self, calls, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        cli._tune_allocator()
        assert calls == []

    def test_other_tunables_do_not_block_it(self, calls, monkeypatch):
        monkeypatch.setenv("GLIBC_TUNABLES", "glibc.pthread.rseq=0")
        cli._tune_allocator()
        assert len(calls) == 2

    @pytest.mark.parametrize("error", [OSError, TypeError, None])
    def test_no_mallopt_is_silent(self, monkeypatch, error):
        def libc(name):
            if error is not None:
                raise error("no libc")
            return object()  # a libc without mallopt, as on macOS

        monkeypatch.setattr(cli.ctypes, "CDLL", libc)
        cli._tune_allocator()
