"""Container format: round-trips are bit-exact, malformed input raises typed errors."""

import contextlib
import io
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqgate import (
    ClassStats,
    EptError,
    EptFormatError,
    EptManifest,
    EptValidationError,
    GateConfig,
    apply_temperature,
    collapse_epoch,
    coverage_risk,
    ece,
    fit_per_member,
    fit_temperature,
    gated_decomposition,
    gated_members,
    make_tensor,
    nll,
    read_ept,
    read_labels,
    softmax_tensor,
    write_ept,
)
from uqgate import ept
from uqgate.calibration import objective
from uqgate.cli import main
from uqgate.gating import check_positive
from uqgate.ept import KINDS, MAGIC, PRECISIONS, write_labels

from helpers import logits_tensor, probs_tensor, random_probs


def roundtrip(tensor):
    buffer = io.BytesIO()
    write_ept(tensor, buffer)
    buffer.seek(0)
    return read_ept(buffer)


class NonSeekable(io.RawIOBase):
    """A raw byte stream without tell/seek, like a pipe."""

    def __init__(self, raw):
        self._inner = io.BytesIO(raw)

    def readable(self):
        return True

    def readinto(self, buffer):
        return self._inner.readinto(buffer)


class Trickle(NonSeekable):
    """A raw stream that delivers at most 5 bytes per read, like a slow pipe."""

    def readinto(self, buffer):
        return self._inner.readinto(memoryview(buffer)[:5])


def valid_file_bytes(data=None, manifest_overrides=None, payload=None):
    """Hand-built container so tests can corrupt specific pieces."""
    if data is None:
        data = np.array([[[0.5, 0.5]]])
    fields = {
        "version": 1,
        "kind": "probs",
        "task": "multiclass",
        "members": data.shape[0],
        "samples": data.shape[1],
        "classes": data.shape[2],
        "precision": "binary64",
    }
    if manifest_overrides:
        fields.update(manifest_overrides)
    header = json.dumps(fields).encode()
    if payload is None:
        payload = np.ascontiguousarray(data, dtype="<f8").tobytes()
    return MAGIC + struct.pack("<I", len(header)) + header + payload


class TestWriteRead:
    def test_file_size_arithmetic(self):
        tensor = probs_tensor([[[0.5, 0.5]]])
        buffer = io.BytesIO()
        written = write_ept(tensor, buffer)
        header_len = len(tensor.manifest.to_json().encode())
        assert written == 4 + 4 + header_len + 16
        assert written == len(buffer.getvalue())

    def test_roundtrip_bit_exact(self, rng):
        data = random_probs(rng, 3, 5, 4)
        tensor = probs_tensor(data)
        loaded = roundtrip(tensor)
        assert loaded.manifest == tensor.manifest
        assert loaded.data.tobytes() == tensor.data.tobytes()

    def test_roundtrip_binary32(self, rng):
        data = random_probs(rng, 2, 4, 3).astype(np.float32)
        tensor = make_tensor(data, kind="probs")
        assert tensor.manifest.precision == "binary32"
        loaded = roundtrip(tensor)
        assert loaded.data.tobytes() == tensor.data.tobytes()

    def test_roundtrip_logits_with_epoch(self, rng):
        tensor = logits_tensor(rng.normal(size=(2, 3, 4)), epoch=7)
        loaded = roundtrip(tensor)
        assert loaded.manifest.epoch == 7
        np.testing.assert_array_equal(loaded.data, tensor.data)

    def test_roundtrip_multilabel(self, rng):
        data = rng.random((2, 3, 4))
        tensor = probs_tensor(data, task="multilabel")
        loaded = roundtrip(tensor)
        assert loaded.manifest.task == "multilabel"
        assert loaded.data.tobytes() == tensor.data.tobytes()

    @pytest.mark.parametrize("first_buffer", [1, 7, 64, 1 << 24])
    def test_short_reads_fill_a_growing_buffer(self, rng, monkeypatch, first_buffer):
        # The payload arrives 5 bytes at a time into a buffer that starts at
        # first_buffer bytes and doubles when full.
        monkeypatch.setattr(ept, "READ_CHUNK", first_buffer)
        tensor = probs_tensor(random_probs(rng, 3, 7, 4))
        buffer = io.BytesIO()
        write_ept(tensor, buffer)
        loaded = read_ept(Trickle(buffer.getvalue()))
        assert loaded.manifest == tensor.manifest
        assert loaded.data.tobytes() == tensor.data.tobytes()
        with pytest.raises(EptFormatError, match="truncated payload: expected 672 bytes, got 671"):
            read_ept(Trickle(buffer.getvalue()[:-1]))

    @pytest.mark.parametrize("layout", ["binary64", "binary32", "strided", "fortran"])
    def test_payload_written_from_a_view_equals_tobytes(self, rng, layout):
        from uqgate import PredictionTensor

        data = random_probs(rng, 3, 6, 4)
        tensor = make_tensor(data.astype(np.float32) if layout == "binary32" else data,
                             kind="probs")
        if layout == "strided":
            tensor = PredictionTensor(tensor.manifest, np.repeat(tensor.data, 2, axis=1)[:, ::2])
        elif layout == "fortran":
            tensor = PredictionTensor(tensor.manifest, np.asfortranarray(tensor.data))
        assert tensor.data.flags.c_contiguous == (layout in ("binary64", "binary32"))
        header = tensor.manifest.to_json().encode("utf-8")
        payload = np.ascontiguousarray(tensor.data, dtype=tensor.manifest.dtype).tobytes()
        expected = MAGIC + struct.pack("<I", len(header)) + header + payload
        buffer = io.BytesIO()
        assert write_ept(tensor, buffer) == len(expected)
        assert buffer.getvalue() == expected

    def test_write_refuses_bad_row_sum(self):
        bad = np.array([[[0.7, 0.7]]])
        with pytest.raises(EptValidationError, match="row sum"):
            probs_tensor(bad)
        # Bypass make_tensor validation to hit write_ept's own check.
        from uqgate import PredictionTensor

        manifest = EptManifest(
            kind="probs", task="multiclass", members=1, samples=1, classes=2,
            precision="binary64",
        )
        tensor = PredictionTensor(manifest, np.ascontiguousarray(bad, dtype="<f8"))
        sink = io.BytesIO()
        with pytest.raises(EptValidationError, match="row sum"):
            write_ept(tensor, sink)
        assert sink.getvalue() == b""  # validated before the first byte

    def test_write_refuses_nan(self):
        from uqgate import PredictionTensor

        manifest = EptManifest(
            kind="logits", task="multiclass", members=1, samples=1, classes=2,
            precision="binary64",
        )
        data = np.array([[[np.nan, 0.0]]])
        tensor = PredictionTensor(manifest, np.ascontiguousarray(data, dtype="<f8"))
        with pytest.raises(EptValidationError, match="NaN or Inf"):
            write_ept(tensor, io.BytesIO())


class TestValidatedOnce:
    """make_tensor and read_ept hand out read-only payloads that write_ept trusts."""

    def test_read_payload_is_read_only(self, rng):
        loaded = roundtrip(probs_tensor(random_probs(rng, 2, 3, 4)))
        with pytest.raises(ValueError, match="read-only"):
            loaded.data[0, 0, 0] = np.nan

    @pytest.mark.parametrize("source", ["float64", "float32", "list", "view"])
    def test_made_payload_is_read_only_and_not_the_callers(self, rng, source):
        data = rng.normal(size=(2, 3, 4))
        given = {"float64": data, "float32": data.astype(np.float32), "list": data.tolist(),
                 "view": np.repeat(data, 2, axis=0)[::2]}[source]
        tensor = make_tensor(given, kind="logits")
        with pytest.raises(ValueError, match="read-only"):
            tensor.data[0, 0, 0] = np.nan
        before = tensor.data.tobytes()
        if isinstance(given, np.ndarray):
            assert given.flags.writeable
            given[...] = np.nan
        assert tensor.data.tobytes() == before

    def test_write_skips_the_check_only_for_a_sealed_payload(self, rng, monkeypatch):
        checks = []
        check = ept._check_values
        monkeypatch.setattr(ept, "_check_values",
                            lambda data, manifest: checks.append(1) or check(data, manifest))
        tensor = make_tensor(rng.normal(size=(2, 3, 4)), kind="logits")
        assert len(checks) == 1
        write_ept(tensor, io.BytesIO())
        assert len(checks) == 1
        from uqgate import PredictionTensor

        write_ept(PredictionTensor(tensor.manifest, tensor.data), io.BytesIO())
        assert len(checks) == 2
        # A payload made writable again is no longer trusted.
        tensor.data.flags.writeable = True
        tensor.data[0, 0, 0] = np.nan
        with pytest.raises(EptValidationError, match="NaN or Inf"):
            write_ept(tensor, io.BytesIO())


class TestReadRejects:
    def test_bad_magic(self):
        raw = valid_file_bytes()
        with pytest.raises(EptFormatError, match="magic"):
            read_ept(io.BytesIO(b"XPT1" + raw[4:]))

    def test_short_stream(self):
        with pytest.raises(EptFormatError, match="magic"):
            read_ept(io.BytesIO(b"EP"))

    def test_header_length_exceeds_stream(self):
        raw = MAGIC + struct.pack("<I", 10_000) + b"{}"
        with pytest.raises(EptFormatError, match="header length"):
            read_ept(io.BytesIO(raw))

    def test_header_not_json(self):
        header = b"not json at all"
        raw = MAGIC + struct.pack("<I", len(header)) + header
        with pytest.raises(EptFormatError, match="JSON"):
            read_ept(io.BytesIO(raw))

    def test_header_nested_too_deeply(self):
        # json.loads raises RecursionError here, not JSONDecodeError.
        header = b"[" * 200_000
        raw = MAGIC + struct.pack("<I", len(header)) + header
        with pytest.raises(EptFormatError, match="manifest is not valid JSON"):
            read_ept(io.BytesIO(raw))

    def test_manifest_missing_fields(self):
        header = json.dumps({"version": 1}).encode()
        raw = MAGIC + struct.pack("<I", len(header)) + header
        with pytest.raises(EptFormatError, match="missing"):
            read_ept(io.BytesIO(raw))

    def test_truncated_payload(self):
        raw = valid_file_bytes()
        with pytest.raises(EptFormatError, match="truncated payload"):
            read_ept(io.BytesIO(raw[:-1]))

    def test_trailing_bytes(self):
        raw = valid_file_bytes()
        with pytest.raises(EptFormatError, match="trailing"):
            read_ept(io.BytesIO(raw + b"\x00"))

    @pytest.mark.parametrize("seekable", [True, False])
    def test_oversized_manifest(self, seekable):
        # 2**40 x 2**40 x 2 doubles: the declared payload dwarfs the stream.
        raw = valid_file_bytes(manifest_overrides={"members": 2**40, "samples": 2**40})
        source = io.BytesIO(raw)
        if not seekable:
            source = io.BufferedReader(NonSeekable(raw))
        with pytest.raises(EptFormatError, match="truncated payload"):
            read_ept(source)

    def test_nan_payload(self):
        payload = np.array([[[np.nan, 0.5]]]).tobytes()
        raw = valid_file_bytes(payload=payload)
        with pytest.raises(EptValidationError, match="NaN or Inf"):
            read_ept(io.BytesIO(raw))

    def test_inf_rejected_even_for_logits(self):
        data = np.array([[[np.inf, 0.0]]])
        raw = valid_file_bytes(
            manifest_overrides={"kind": "logits"}, payload=data.tobytes()
        )
        with pytest.raises(EptValidationError, match="NaN or Inf"):
            read_ept(io.BytesIO(raw))

    def test_probability_out_of_range(self):
        data = np.array([[[1.5, -0.5]]])
        raw = valid_file_bytes(payload=data.tobytes())
        with pytest.raises(EptValidationError, match="outside"):
            read_ept(io.BytesIO(raw))

    def test_row_sum_violation(self):
        data = np.array([[[0.7, 0.7]]])
        raw = valid_file_bytes(payload=data.tobytes())
        with pytest.raises(EptValidationError, match="row sum"):
            read_ept(io.BytesIO(raw))

    def test_within_slack_accepted(self):
        # 1e-7 above 1.0 is inside the binary32 rounding slack.
        data = np.array([[[1.0 + 1e-7, -1e-7]]])
        raw = valid_file_bytes(payload=data.tobytes())
        loaded = read_ept(io.BytesIO(raw))
        assert loaded.data[0, 0, 0] == 1.0 + 1e-7

    def test_bad_enum_values(self):
        for overrides in (
            {"kind": "scores"},
            {"task": "regression"},
            {"precision": "binary16"},
            {"version": 9},
            {"version": 1.0},
            {"version": True},
            {"classes": 1},
            {"members": 0},
        ):
            raw = valid_file_bytes(manifest_overrides=overrides)
            with pytest.raises((EptValidationError, EptFormatError)):
                read_ept(io.BytesIO(raw))


class TestLabels:
    def multiclass_manifest(self, n=3, c=3):
        return EptManifest(
            kind="probs", task="multiclass", members=1, samples=n, classes=c,
            precision="binary64",
        )

    def multilabel_manifest(self, n=2, c=2):
        return EptManifest(
            kind="probs", task="multilabel", members=1, samples=n, classes=c,
            precision="binary64",
        )

    def test_multiclass_parse(self):
        labels = read_labels(io.StringIO("2\n0\n1\n"), self.multiclass_manifest())
        np.testing.assert_array_equal(labels, [2, 0, 1])

    def test_class_index_out_of_range(self):
        with pytest.raises(EptValidationError, match="out of range"):
            read_labels(io.StringIO("5\n"), self.multiclass_manifest(n=1, c=3))

    def test_long_line_is_out_of_range(self):
        # Past Python's 4300-digit int limit; leading zeros still count for nothing.
        manifest = self.multiclass_manifest(n=2, c=10)
        with pytest.raises(EptValidationError,
                           match=r"^line 2: class index 9{5000} out of range \[0, 10\)$"):
            read_labels(io.StringIO("007\n" + "9" * 5000 + "\n"), manifest)
        labels = read_labels(io.StringIO("007\n" + "0" * 5000 + "9\n"), manifest)
        np.testing.assert_array_equal(labels, [7, 9])

    def test_count_mismatch(self):
        with pytest.raises(EptValidationError, match="count"):
            read_labels(io.StringIO("0\n1\n"), self.multiclass_manifest(n=3))

    def test_not_an_integer(self):
        with pytest.raises(EptValidationError, match="integer"):
            read_labels(io.StringIO("a\n0\n1\n"), self.multiclass_manifest())

    @pytest.mark.parametrize("text, task", [
        ("1_0\n", "multiclass"),
        ("+1\n", "multiclass"),
        ("-0\n", "multiclass"),
        ("\u0663\n", "multiclass"),  # ARABIC-INDIC DIGIT THREE
        (" 1\n", "multiclass"),
        ("1 \n", "multiclass"),
        ("1\r\n", "multiclass"),
        ("\n", "multiclass"),
        ("0,1\r\n", "multilabel"),
        ("0, 1\n", "multilabel"),
        (" 0,1\n", "multilabel"),
        ("0,\u0661\n", "multilabel"),  # ARABIC-INDIC DIGIT ONE
    ])
    def test_only_ascii_digits_and_lf(self, text, task):
        # 20 classes, so every misread multiclass value would be in range.
        manifest = (self.multiclass_manifest(n=1, c=20) if task == "multiclass"
                    else self.multilabel_manifest(n=1))
        with pytest.raises(EptValidationError):
            read_labels(io.StringIO(text), manifest)

    def test_multilabel_parse(self):
        labels = read_labels(io.StringIO("1,0\n0,1\n"), self.multilabel_manifest())
        np.testing.assert_array_equal(labels, [[1, 0], [0, 1]])

    def test_multilabel_non_binary(self):
        with pytest.raises(EptValidationError, match="not 0 or 1"):
            read_labels(io.StringIO("1,2\n0,1\n"), self.multilabel_manifest())

    def test_multilabel_wrong_width(self):
        with pytest.raises(EptValidationError, match="expected 2 values"):
            read_labels(io.StringIO("1,0,1\n0,1,0\n"), self.multilabel_manifest())

    def test_write_read_roundtrip(self):
        out = io.StringIO()
        write_labels(np.array([2, 0, 1]), out)
        assert out.getvalue() == "2\n0\n1\n"
        out = io.StringIO()
        write_labels(np.array([[1, 0], [0, 1]]), out)
        assert out.getvalue() == "1,0\n0,1\n"


# ---------------------------------------------------------------------------
# Hostile containers: mutations of valid files either load or raise an
# EptError subclass, the same on seekable and non-seekable streams, and the
# CLI turns every rejection into exit status 1 and one error line.

# Each manifest attack with the values it is drawn from.
_MANIFEST_ATTACKS = {
    "oversized": [("members", 2**40), ("samples", 2**62), ("classes", 10**30)],
    "long_integer": ["members", "classes"],  # 5001 digits: past Python's int parsing limit
    "nested": [1, 50, 200_000],
    "duplicate": ["version", "kind", "task", "members", "samples", "classes", "precision"],
    "unhashable": ["kind", "task", "precision"],
    "header_length": [0, 2**20, 2**32 - 1],
}


@st.composite
def _valid_containers(draw):
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(2, 4)))
    kind = draw(st.sampled_from(KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "logits":
        data = rng.normal(size=shape)
    else:
        data = rng.dirichlet(np.ones(shape[2]), size=shape[:2])
    precision = draw(st.sampled_from(sorted(PRECISIONS)))
    tensor = make_tensor(data.astype(PRECISIONS[precision]), kind=kind, precision=precision)
    buffer = io.BytesIO()
    write_ept(tensor, buffer)
    return tensor, buffer.getvalue()


def _header_end(raw):
    return 8 + struct.unpack("<I", raw[4:8])[0]


def _attack_manifest(raw, attack, choice):
    """A copy of the valid container ``raw`` whose manifest carries one attack."""
    if attack == "header_length":
        return raw[:4] + struct.pack("<I", choice) + raw[8:]
    fields = json.loads(raw[8:_header_end(raw)])
    if attack == "oversized":
        name, value = choice
        fields[name] = value
    elif attack == "unhashable":
        fields[choice] = []
    elif attack in ("nested", "long_integer"):
        fields[choice if attack == "long_integer" else "epoch"] = "SPLICE"
    text = json.dumps(fields)
    if attack == "nested":
        text = text.replace('"SPLICE"', "[" * choice + "]" * choice)
    elif attack == "long_integer":
        text = text.replace('"SPLICE"', "1" + "0" * 5000)
    elif attack == "duplicate":  # a second, conflicting value for one field
        text = text[:-1] + f', "{choice}": {json.dumps(fields[choice] * 2)}}}'
    header = text.encode()
    return MAGIC + struct.pack("<I", len(header)) + header + raw[_header_end(raw):]


@st.composite
def _hostile_containers(draw):
    tensor, raw = draw(_valid_containers())
    header_end = _header_end(raw)
    regions = {"magic": (0, 4), "length": (4, 8), "header": (8, header_end),
               "payload": (header_end, len(raw))}
    mutation = draw(st.sampled_from(
        ["truncate", "flip", "non_finite", "out_of_range", "row_drift", "trailing", "manifest"]))
    if mutation == "truncate":
        lo, hi = regions[draw(st.sampled_from(list(regions)))]
        return raw[:draw(st.integers(lo, hi - 1))]
    if mutation == "flip":
        lo, hi = regions[draw(st.sampled_from(["header", "payload"]))]
        at = draw(st.integers(lo, hi - 1))
        return raw[:at] + bytes([raw[at] ^ draw(st.integers(1, 255))]) + raw[at + 1:]
    if mutation == "trailing":
        return raw + draw(st.binary(min_size=1, max_size=16))
    if mutation == "manifest":
        attack = draw(st.sampled_from(list(_MANIFEST_ATTACKS)))
        return _attack_manifest(raw, attack, draw(st.sampled_from(_MANIFEST_ATTACKS[attack])))
    data = tensor.data.copy()
    m, n, c = (draw(st.integers(0, size - 1)) for size in data.shape)
    if mutation == "non_finite":
        data[m, n, c] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    elif mutation == "out_of_range":
        data[m, n, c] = draw(st.sampled_from([-0.5, -1e-5, 1.0 + 1e-5, 2.0, 1e30]))
    else:
        data[m, n] *= draw(st.sampled_from([1.0 + 1e-4, 0.99, 0.5, 2.0]))
    return raw[:header_end] + data.tobytes()


def _outcome(source):
    try:
        tensor = read_ept(source)
    except EptError as exc:  # any other exception type fails the test
        return type(exc), str(exc)
    return tensor.manifest, tensor.data.tobytes()


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


# Every CLI slot that reads a container, as argv with HOSTILE, PARTNER (a valid probs
# file) and LABELS in their places.
_INPUT_SLOTS = {
    "coverage --input": ["coverage", "--input", "HOSTILE", "--labels", "LABELS"],
    "calibrate --input": ["calibrate", "--input", "HOSTILE", "--labels", "LABELS"],
    "ood --id": ["ood", "--id", "HOSTILE", "--ood", "PARTNER"],
    "ood --ood": ["ood", "--id", "PARTNER", "--ood", "HOSTILE"],
    "diversity first": ["diversity", "--inputs", "HOSTILE", "PARTNER"],
    "diversity last": ["diversity", "--inputs", "PARTNER", "HOSTILE"],
}


class TestHostileContainers:
    @given(raw=_hostile_containers())
    @settings(max_examples=400, deadline=None)
    def test_typed_error_or_tensor_on_any_stream(self, raw, tmp_path_factory):
        got = _outcome(io.BytesIO(raw))
        assert _outcome(io.BufferedReader(NonSeekable(raw))) == got
        assert _outcome(Trickle(raw)) == got

        path = tmp_path_factory.getbasetemp() / "hostile.ept"
        path.write_bytes(raw)
        code, out, err = _cli("report", "--input", path)
        if isinstance(got[0], EptManifest):
            assert code == 0 and out
        else:
            assert (code, out, err) == (1, "", f"error: {got[1]}\n")

    @pytest.mark.parametrize("slot", _INPUT_SLOTS)
    @given(raw=_hostile_containers())
    @settings(max_examples=150, deadline=None)
    def test_every_input_slot(self, slot, raw, tmp_path_factory):
        got = _outcome(io.BytesIO(raw))
        manifest = got[0] if isinstance(got[0], EptManifest) else None
        # The partner and labels fit a file that loads, so its run can succeed.
        samples, classes = (manifest.samples, manifest.classes) if manifest else (3, 2)
        base = tmp_path_factory.getbasetemp()
        paths = {"HOSTILE": base / "hostile.ept", "PARTNER": base / "partner.ept",
                 "LABELS": base / "labels.csv"}
        paths["HOSTILE"].write_bytes(raw)
        ept.write_ept_file(probs_tensor(np.full((2, samples, classes), 1 / classes)),
                           paths["PARTNER"])
        paths["LABELS"].write_bytes(b"0\n" * samples)
        code, out, err = _cli(*(paths.get(arg, arg) for arg in _INPUT_SLOTS[slot]))
        if manifest is None:
            assert (code, out, err) == (1, "", f"error: {got[1]}\n")
            return
        lines = err.splitlines()
        assert all(line.startswith(("note: ", "error: ")) for line in lines), err
        errors = [line for line in lines if line.startswith("error: ")]
        assert (code, len(errors)) in ((0, 0), (1, 1)), err
        assert bool(out) == (code == 0)

    @pytest.mark.parametrize("attack,choice", [
        (attack, choice) for attack, choices in _MANIFEST_ATTACKS.items() for choice in choices
    ])
    def test_every_manifest_attack_is_typed(self, attack, choice):
        buffer = io.BytesIO()
        write_ept(make_tensor(np.array([[[0.25, 0.75]]]), kind="probs"), buffer)
        got = _outcome(io.BytesIO(_attack_manifest(buffer.getvalue(), attack, choice)))
        assert issubclass(got[0], EptError)
        if attack == "nested" and choice < 1000:  # shallow: valid JSON, invalid epoch
            prefix = "epoch must be a non-negative integer"
        elif attack == "header_length" and choice == 0:
            prefix = "manifest is not valid JSON"
        else:
            prefix = {
                "oversized": "truncated payload",
                "long_integer": "manifest is not valid JSON: Exceeds the limit",
                "nested": "manifest is not valid JSON",
                "duplicate": f"manifest has duplicate field {choice!r}",
                "unhashable": f"{choice} must be",
                "header_length": "header length",
            }[attack]
        assert got[1].startswith(prefix)


# Every CLI slot that reads a label file, as argv with file names in place of paths,
# on a valid 4-sample, 3-class partner: probs, or logits for calibrate.
_LABEL_SLOTS = {
    "report --labels": ["report", "--input", "probs.ept", "--labels", "labels.csv"],
    "coverage --labels": ["coverage", "--input", "probs.ept", "--labels", "labels.csv"],
    "calibrate --labels": ["calibrate", "--input", "logits.ept", "--labels", "labels.csv"],
}

_HOSTILE_LINES = st.one_of(
    st.sampled_from([b"", b"3", b"10", b"0\r", b"\xef\xbb\xbf0", b"\x00", b"1\x00", b" 1",
                     b"+1", b"-0", b"1,0", b"1.0"]),
    # Not UTF-8, then digits that are not ASCII: Arabic-Indic 1, fullwidth 1, superscript 2.
    st.sampled_from([b"\xff", b"\xc3", b"\xd9\xa1", b"\xef\xbc\x91", b"\xc2\xb2"]),
    st.builds(bytes.__mul__, st.sampled_from([b"0", b"9"]), st.integers(2, 6000)),  # long digits
    st.binary(max_size=4),
)


@st.composite
def _hostile_labels(draw):
    """A 4-sample label file with up to two lines replaced, added or dropped (BOM, CR, NUL,
    non-UTF-8 and long digit lines, blank lines), a BOM or not, a final LF or not."""
    lines = draw(st.lists(st.sampled_from([b"0", b"1", b"2", b"00", b"0002"]),
                          min_size=4, max_size=4))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["replace", "insert", "drop"]))
        lines[at:at + (edit != "insert")] = [] if edit == "drop" else [draw(_HOSTILE_LINES)]
    raw = b"\n".join(lines) + draw(st.sampled_from([b"\n", b""]))
    return draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + raw


def _valid_labels(raw, samples=4, classes=3):
    """Whether ``raw`` is a label file: UTF-8, one ASCII integer in [0, classes) per LF line."""
    try:
        lines = raw.decode("utf-8").split("\n")
    except UnicodeDecodeError:
        return False
    if lines[-1] == "":
        lines.pop()
    return len(lines) == samples and all(  # leading zeros, then one digit below classes
        line.isascii() and line.isdigit() and len(line.lstrip("0")) <= 1
        and int(line[-1]) < classes for line in lines)


@pytest.fixture(scope="module")
def label_partners(tmp_path_factory):
    base = tmp_path_factory.mktemp("labels")
    logits = np.random.default_rng(0).normal(size=(2, 4, 3))
    ept.write_ept_file(probs_tensor(np.exp(logits) / np.exp(logits).sum(-1, keepdims=True)),
                       base / "probs.ept")
    ept.write_ept_file(logits_tensor(logits), base / "logits.ept")
    return base


class TestHostileLabels:
    @pytest.mark.parametrize("slot", _LABEL_SLOTS)
    @given(raw=_hostile_labels())
    @settings(max_examples=400, deadline=None)
    def test_every_labels_slot(self, slot, raw, label_partners):
        paths = {name: label_partners / name for name in ("probs.ept", "logits.ept", "labels.csv")}
        paths["labels.csv"].write_bytes(raw)
        code, out, err = _cli(*(paths.get(arg, arg) for arg in _LABEL_SLOTS[slot]))
        # A warning would have raised here: pytest turns warnings into errors.
        assert code == (0 if _valid_labels(raw) else 1), err
        lines = err.splitlines()
        assert all(line.startswith(("note: ", "error: ")) for line in lines), err
        assert sum(line.startswith("error: ") for line in lines) == code
        assert bool(out) == (code == 0)


def test_duplicate_manifest_keys_rejected():
    text = ('{"version":1,"kind":"logits","task":"multiclass","kind":"probs","members":2,'
            '"samples":1,"classes":2,"precision":"binary64","members":1}')
    with pytest.raises(EptFormatError, match="^manifest has duplicate field 'kind'$"):
        EptManifest.from_json(text)


# ---------------------------------------------------------------------------
# Each input contract is raised by one function, which the library and the CLI share.

_GOOD_LABELS = [0, 1, 2, 1, 0]
# Each bad label array, and the error that names its first bad entry.
_BAD_LABELS = {
    "minus-one": ([0, 1, -1, 1, -1], r"^labels\[2\]: class index -1 out of range \[0, 3\)$"),
    "classes": ([0, 1, 3, 1, 3], r"^labels\[2\]: class index 3 out of range \[0, 3\)$"),
    "half": ([0, 1, 0.5, 1, 0.5],
             r"^labels\[2\]: 0.5 is not an integer class index \(dtype float64\)$"),
    "bool": ([True, False, True, False, True],
             r"^labels\[0\]: True is not an integer class index \(dtype bool\)$"),
}


def _label_entry_points():
    logits = np.random.default_rng(0).normal(size=(2, 5, 3))
    probs = np.exp(logits[0]) / np.exp(logits[0]).sum(-1, keepdims=True)
    tensor = logits_tensor(logits)
    stats = ClassStats(probs, np.zeros_like(probs))
    return {
        "nll": lambda labels: nll(probs, labels),
        "fit_temperature": lambda labels: fit_temperature(logits[0], labels),
        "fit_per_member": lambda labels: fit_per_member(tensor, labels),
        "objective": lambda labels: objective(tensor, labels)(np.ones(2)),
        "objective-pooled": lambda labels: objective(tensor, labels, pooled=True)(np.ones(1)),
        "coverage_risk": lambda labels: coverage_risk(stats, labels, [0.5, 1.0]),
        "ece": lambda labels: ece(probs, labels),
    }


class TestLabelContract:
    @pytest.mark.parametrize("entry", list(_label_entry_points()))
    @pytest.mark.parametrize("bad", list(_BAD_LABELS))
    def test_every_entry_point_rejects_bad_labels(self, entry, bad):
        labels, message = _BAD_LABELS[bad]
        with pytest.raises(EptValidationError, match=message):
            _label_entry_points()[entry](np.array(labels))

    @pytest.mark.parametrize("entry", list(_label_entry_points()))
    def test_every_entry_point_takes_any_integer_dtype(self, entry):
        run = _label_entry_points()[entry]

        def bits(labels):
            result = run(labels)
            return [np.asarray(part, dtype=np.float64).tobytes()
                    for part in (result if isinstance(result, tuple) else (result,))]

        want = bits(np.array(_GOOD_LABELS))
        for labels in (_GOOD_LABELS, *(np.array(_GOOD_LABELS, dtype=dtype)
                                       for dtype in (np.uint8, np.int32, np.uint64))):
            assert bits(labels) == want

    def test_check_labels(self):
        labels = ept.check_labels([2, 0, 1], 3, 3)
        assert isinstance(labels, np.ndarray) and labels.tolist() == [2, 0, 1]
        with pytest.raises(EptValidationError, match=r"^labels shape \(2,\) does not match 3 "):
            ept.check_labels([0, 1], 3, 3)
        with pytest.raises(EptValidationError, match=r"^labels\[0\]: 1.0 is not an integer "):
            ept.check_labels([1.0, 0.0, 1.0], 3, 3)  # whole floats too
        with pytest.raises(EptValidationError, match=r"^labels\[1\]: nan is not an integer "):
            ept.check_labels([0.0, np.nan, 1.0], 3, 3)
        assert ept.check_labels(np.array([], dtype=float), 0, 3).size == 0


def _manifest(kind="probs", task="multiclass"):
    return EptManifest(kind=kind, task=task, members=1, samples=2, classes=3,
                       precision="binary64")


class TestRequire:
    @pytest.mark.parametrize("by", ["report", "coverage", "calibrate", "ood"])
    def test_task_message_is_the_cli_message(self, by):
        with pytest.raises(EptValidationError, match=f"^{by} requires a multiclass tensor$"):
            _manifest(task="multilabel").require(by, task="multiclass")

    def test_kind_message_is_the_cli_message(self):
        message = r"^calibration requires a logits tensor \(kind=logits\)$"
        with pytest.raises(EptValidationError, match=message):
            _manifest().require("calibration", kind="logits")

    def test_kind_before_task(self):
        with pytest.raises(EptValidationError, match=r"^x requires a logits tensor \(kind="):
            _manifest(task="multilabel").require("x", kind="logits", task="multiclass")

    def test_a_matching_tensor_passes(self):
        _manifest("logits").require("x", kind="logits", task="multiclass")
        _manifest(task="multilabel").require("x")

    def test_library_messages(self, rng):
        multilabel = probs_tensor(rng.random((2, 3, 4)), task="multilabel")
        probs = probs_tensor(random_probs(rng, 2, 3, 4))
        cases = [
            (lambda: gated_members(multilabel, GateConfig(k=1.0)),
             r"^variance gating requires a multiclass tensor$"),
            (lambda: gated_decomposition(multilabel, GateConfig(k=1.0)),
             r"^variance gating requires a multiclass tensor$"),
            (lambda: softmax_tensor(probs),
             r"^softmax_tensor requires a logits tensor \(kind=logits\)$"),
            (lambda: objective(probs, np.zeros(3, dtype=int)),
             r"^calibration requires a logits tensor \(kind=logits\)$"),
        ]
        for call, message in cases:
            with pytest.raises(EptValidationError, match=message):
                call()


class TestCheckPositive:
    @pytest.mark.parametrize("name, value, message", [
        ("epsilon", 0.0, "epsilon must be positive, got 0.0"),
        ("tau", -1.0, "tau must be positive, got -1.0"),  # the CLI's diversity message
        ("temperature", float("nan"), "temperature must be positive, got nan"),
        ("epsilon", -0.0, "epsilon must be positive, got -0.0"),
    ])
    def test_message(self, name, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_positive(name, value)

    def test_library_entry_points(self):
        tensor = probs_tensor(np.full((2, 2, 2), 0.5))
        for call, message in [
            (lambda: GateConfig(k=1.0, epsilon=0.0), "^epsilon must be positive, got 0.0$"),
            (lambda: apply_temperature(np.zeros((1, 2)), -2.0),
             "^temperature must be positive, got -2.0$"),
            (lambda: collapse_epoch([tensor], tau=0.0), "^tau must be positive, got 0.0$"),
        ]:
            with pytest.raises(ValueError, match=message):
                call()
