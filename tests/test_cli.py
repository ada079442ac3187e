"""CLI surface: formats, exit codes, determinism, stream separation."""

import json
import struct
import subprocess
import sys

import numpy as np
import pytest

from uqgate import SynthConfig, generate, make_tensor, write_ept_file
from uqgate.cli import main
from uqgate.ept import write_labels

from conftest import probs_tensor, random_probs


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

    def test_byte_identical_reruns(self, tmp_path, capsys):
        for prefix in ("a", "b"):
            run(
                capsys, "synth", "--samples", 10, "--classes", 3, "--members", 2,
                "--seed", 5, "--out", tmp_path / prefix,
            )
        assert (tmp_path / "a_probs.ept").read_bytes() == (tmp_path / "b_probs.ept").read_bytes()
        assert (tmp_path / "a_logits.ept").read_bytes() == (tmp_path / "b_logits.ept").read_bytes()
        assert (tmp_path / "a_labels.csv").read_bytes() == (tmp_path / "b_labels.csv").read_bytes()

    def test_invalid_config(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "synth", "--samples", 10, "--classes", 1, "--members", 2,
            "--out", tmp_path / "bad",
        )
        assert code == 1
        assert "error:" in err


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
