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
    EptError,
    EptFormatError,
    EptManifest,
    EptValidationError,
    make_tensor,
    read_ept,
    read_labels,
    write_ept,
)
from uqgate import ept
from uqgate.cli import main
from uqgate.ept import KINDS, MAGIC, PRECISIONS, write_labels

from conftest import logits_tensor, probs_tensor, random_probs


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
        with pytest.raises(EptValidationError, match="row sum"):
            write_ept(tensor, io.BytesIO())

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


def _report(path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["report", "--input", str(path)])
    return code, out.getvalue(), err.getvalue()


class TestHostileContainers:
    @given(raw=_hostile_containers())
    @settings(max_examples=400, deadline=None)
    def test_typed_error_or_tensor_on_any_stream(self, raw, tmp_path_factory):
        got = _outcome(io.BytesIO(raw))
        assert _outcome(io.BufferedReader(NonSeekable(raw))) == got
        assert _outcome(Trickle(raw)) == got

        path = tmp_path_factory.getbasetemp() / "hostile.ept"
        path.write_bytes(raw)
        code, out, err = _report(path)
        if isinstance(got[0], EptManifest):
            assert code == 0 and out
        else:
            assert (code, out, err) == (1, "", f"error: {got[1]}\n")

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


def test_duplicate_manifest_keys_rejected():
    text = ('{"version":1,"kind":"logits","task":"multiclass","kind":"probs","members":2,'
            '"samples":1,"classes":2,"precision":"binary64","members":1}')
    with pytest.raises(EptFormatError, match="^manifest has duplicate field 'kind'$"):
        EptManifest.from_json(text)
