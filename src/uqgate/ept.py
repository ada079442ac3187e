"""EPT container format: binary storage for ensemble prediction tensors.

An EPT file holds one M x N x C tensor of member outputs (probabilities or
logits) together with a JSON manifest describing its shape and semantics:

    bytes 0-3    magic "EPT1"
    bytes 4-7    header length, unsigned 32-bit little-endian
    header       UTF-8 JSON manifest, exactly that many bytes
    payload      IEEE-754 little-endian values, row-major [member][sample][class]

Labels travel separately as UTF-8 CSV with LF line endings: one class index
of ASCII digits per line for multiclass, C comma-separated 0/1 values per
line for multilabel; nothing else (no signs, spaces or CR) is accepted.

Loading is strict: malformed input raises a typed error, never returns a
partial tensor. Write/read round-trips are bit-exact on the payload.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import BinaryIO, TextIO

import numpy as np

MAGIC = b"EPT1"
VERSION = 1

KINDS = ("probs", "logits")
TASKS = ("multiclass", "multilabel")
PRECISIONS = {"binary32": "<f4", "binary64": "<f8"}

# Dumped binary32 softmax rows accumulate rounding; tighter bounds reject
# legitimate files.
ROW_SUM_TOL = 1e-5
PROB_RANGE_SLACK = 1e-6

# First buffer size of a read: declared sizes are checked against the stream, not trusted.
READ_CHUNK = 1 << 24


class EptError(ValueError):
    """Base class for all container and label errors."""


class EptFormatError(EptError):
    """Structural problem: bad magic, truncated stream, unparseable header."""


class EptValidationError(EptError):
    """Well-formed container whose contents violate a declared invariant."""


@dataclass(frozen=True)
class EptManifest:
    """Shape and semantics of one stored prediction tensor."""

    kind: str
    task: str
    members: int
    samples: int
    classes: int
    precision: str
    epoch: int | None = None
    version: int = VERSION

    def validate(self) -> None:
        if self.version != VERSION:
            raise EptValidationError(f"unsupported container version {self.version!r}")
        if self.kind not in KINDS:
            raise EptValidationError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.task not in TASKS:
            raise EptValidationError(f"task must be one of {TASKS}, got {self.task!r}")
        if not isinstance(self.precision, str) or self.precision not in PRECISIONS:
            raise EptValidationError(
                f"precision must be one of {tuple(PRECISIONS)}, got {self.precision!r}"
            )
        for name in ("members", "samples", "classes"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise EptValidationError(f"{name} must be a positive integer, got {value!r}")
        if self.classes < 2:
            raise EptValidationError(f"classes must be >= 2, got {self.classes}")
        if self.epoch is not None and (
            not isinstance(self.epoch, int) or isinstance(self.epoch, bool) or self.epoch < 0
        ):
            raise EptValidationError(f"epoch must be a non-negative integer, got {self.epoch!r}")

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(PRECISIONS[self.precision])

    @property
    def payload_bytes(self) -> int:
        return self.members * self.samples * self.classes * self.dtype.itemsize

    def to_json(self) -> str:
        fields = {
            "version": self.version,
            "kind": self.kind,
            "task": self.task,
            "members": self.members,
            "samples": self.samples,
            "classes": self.classes,
            "precision": self.precision,
        }
        if self.epoch is not None:
            fields["epoch"] = self.epoch
        return json.dumps(fields, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "EptManifest":
        try:
            fields = json.loads(text, object_pairs_hook=_unique_fields)
        except EptFormatError:
            raise
        except (ValueError, RecursionError) as exc:  # too deeply nested or too long an integer
            raise EptFormatError(f"manifest is not valid JSON: {exc}") from exc
        if not isinstance(fields, dict):
            raise EptFormatError("manifest must be a JSON object")
        required = {"version", "kind", "task", "members", "samples", "classes", "precision"}
        missing = required - fields.keys()
        if missing:
            raise EptFormatError(f"manifest missing fields: {sorted(missing)}")
        unknown = fields.keys() - required - {"epoch"}
        if unknown:
            raise EptFormatError(f"manifest has unknown fields: {sorted(unknown)}")
        manifest = cls(
            kind=fields["kind"],
            task=fields["task"],
            members=fields["members"],
            samples=fields["samples"],
            classes=fields["classes"],
            precision=fields["precision"],
            epoch=fields.get("epoch"),
            version=fields["version"],
        )
        manifest.validate()
        return manifest


def _unique_fields(pairs: list[tuple[str, object]]) -> dict:
    """JSON object hook: a repeated key is an error, not a silent overwrite."""
    fields = {}
    for key, value in pairs:
        if key in fields:
            raise EptFormatError(f"manifest has duplicate field {key!r}")
        fields[key] = value
    return fields


@dataclass(frozen=True)
class PredictionTensor:
    """An in-memory ensemble prediction tensor plus its manifest.

    ``data`` has shape (members, samples, classes) and the dtype declared by
    the manifest. Construct via :func:`make_tensor` or :func:`read_ept`,
    both of which validate.
    """

    manifest: EptManifest
    data: np.ndarray

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.manifest.members, self.manifest.samples, self.manifest.classes)

    def validate(self) -> None:
        self.manifest.validate()
        if self.data.shape != self.shape:
            raise EptValidationError(
                f"data shape {self.data.shape} does not match manifest {self.shape}"
            )
        if self.data.dtype != self.manifest.dtype:
            raise EptValidationError(
                f"data dtype {self.data.dtype} does not match precision {self.manifest.precision}"
            )
        _check_values(self.data, self.manifest)


def _check_values(data: np.ndarray, manifest: EptManifest) -> None:
    if not np.isfinite(data).all():
        raise EptValidationError("payload contains NaN or Inf")
    if manifest.kind == "probs":
        low = float(data.min())
        high = float(data.max())
        if low < -PROB_RANGE_SLACK or high > 1.0 + PROB_RANGE_SLACK:
            raise EptValidationError(
                f"probability outside [0, 1] beyond {PROB_RANGE_SLACK} slack: "
                f"range [{low}, {high}]"
            )
        if manifest.task == "multiclass":
            sums = data.sum(axis=2, dtype=np.float64)
            worst = float(np.abs(sums - 1.0).max())
            if worst > ROW_SUM_TOL:
                raise EptValidationError(
                    f"multiclass probability row sum deviates from 1 by {worst:.3g} "
                    f"(tolerance {ROW_SUM_TOL})"
                )


def make_tensor(
    data: np.ndarray,
    kind: str,
    task: str = "multiclass",
    precision: str | None = None,
    epoch: int | None = None,
) -> PredictionTensor:
    """Build a validated PredictionTensor from an (M, N, C) array.

    Precision defaults to the array dtype (float32 -> binary32, anything
    else binary64); data is converted to the little-endian storage dtype.
    """
    data = np.asarray(data)
    if data.ndim != 3:
        raise EptValidationError(f"expected (members, samples, classes) array, got ndim={data.ndim}")
    if precision is None:
        precision = "binary32" if data.dtype == np.float32 else "binary64"
    manifest = EptManifest(
        kind=kind,
        task=task,
        members=int(data.shape[0]),
        samples=int(data.shape[1]),
        classes=int(data.shape[2]),
        precision=precision,
        epoch=epoch,
    )
    tensor = PredictionTensor(manifest, np.ascontiguousarray(data, dtype=manifest.dtype))
    tensor.validate()
    return tensor


def write_ept(tensor: PredictionTensor, destination: BinaryIO) -> int:
    """Write a tensor to a binary sink; returns the number of bytes written.

    Refuses to write tensors that violate their own invariants.
    """
    tensor.validate()
    header = tensor.manifest.to_json().encode("utf-8")
    payload = np.ascontiguousarray(tensor.data, dtype=tensor.manifest.dtype).tobytes()
    written = destination.write(MAGIC)
    written += destination.write(struct.pack("<I", len(header)))
    written += destination.write(header)
    written += destination.write(payload)
    return written


def read_ept(source: BinaryIO) -> PredictionTensor:
    """Parse and strictly validate an EPT container from a binary stream with ``readinto``."""
    magic = source.read(len(MAGIC))
    if len(magic) < len(MAGIC):
        raise EptFormatError("stream too short to contain magic bytes")
    if magic != MAGIC:
        raise EptFormatError(f"unrecognized container magic {magic!r}")
    raw_len = source.read(4)
    if len(raw_len) < 4:
        raise EptFormatError("stream truncated in header length field")
    (header_len,) = struct.unpack("<I", raw_len)
    header = _read_up_to(source, header_len)
    if len(header) < header_len:
        raise EptFormatError(
            f"header length {header_len} exceeds remaining stream ({len(header)} bytes)"
        )
    try:
        text = header.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EptFormatError(f"manifest is not valid UTF-8: {exc}") from exc
    manifest = EptManifest.from_json(text)

    expected = manifest.payload_bytes
    payload = _read_up_to(source, expected)
    if len(payload) < expected:
        raise EptFormatError(
            f"truncated payload: expected {expected} bytes, got {len(payload)}"
        )
    trailing = source.read(1)
    if trailing:
        raise EptFormatError("trailing bytes after payload")

    data = np.frombuffer(payload, dtype=manifest.dtype).reshape(
        manifest.members, manifest.samples, manifest.classes
    )
    _check_values(data, manifest)
    return PredictionTensor(manifest, data)


def _read_up_to(source: BinaryIO, size: int) -> bytearray:
    """Read ``size`` bytes, or fewer at the end of the stream.

    Reads in place into one buffer of at most ``READ_CHUNK`` bytes that
    doubles only once the stream has filled it, so a hostile header cannot
    overflow or oversize the read: the buffer never exceeds ``READ_CHUNK``
    or twice what the stream has delivered.
    """
    buf = bytearray(min(size, READ_CHUNK))
    got = 0
    while got < size:
        if got == len(buf):
            buf.extend(bytes(min(got, size - got)))
        with memoryview(buf)[got:] as view:
            count = source.readinto(view)
        if not count:
            break
        got += count
    del buf[got:]
    return buf


def read_ept_file(path) -> PredictionTensor:
    with open(path, "rb") as handle:
        return read_ept(handle)


def write_ept_file(tensor: PredictionTensor, path) -> int:
    with open(path, "wb") as handle:
        return write_ept(tensor, handle)


def read_labels(source: TextIO, manifest: EptManifest) -> np.ndarray:
    """Parse a label CSV against a manifest.

    Multiclass: returns an (N,) int array of class indices in [0, C).
    Multilabel: returns an (N, C) binary int array.
    """
    lines = source.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if len(lines) != manifest.samples:
        raise EptValidationError(
            f"label count {len(lines)} does not match samples {manifest.samples}"
        )
    if manifest.task == "multiclass":
        labels = np.empty(manifest.samples, dtype=np.int64)
        for row, line in enumerate(lines):
            if not (line.isascii() and line.isdigit()):
                raise EptValidationError(f"line {row + 1}: {line!r} is not an ASCII integer")
            value = int(line)
            if not 0 <= value < manifest.classes:
                raise EptValidationError(
                    f"line {row + 1}: class index {value} out of range [0, {manifest.classes})"
                )
            labels[row] = value
        return labels

    labels = np.empty((manifest.samples, manifest.classes), dtype=np.int64)
    for row, line in enumerate(lines):
        fields = line.split(",")
        if len(fields) != manifest.classes:
            raise EptValidationError(
                f"line {row + 1}: expected {manifest.classes} values, got {len(fields)}"
            )
        for col, field in enumerate(fields):
            if field not in ("0", "1"):
                raise EptValidationError(
                    f"line {row + 1}: multilabel entry {field!r} is not 0 or 1"
                )
            labels[row, col] = int(field)
    return labels


def read_labels_file(path, manifest: EptManifest) -> np.ndarray:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return read_labels(handle, manifest)


def write_labels(labels: np.ndarray, destination: TextIO) -> None:
    """Write labels as CSV with LF line endings (inverse of read_labels)."""
    labels = np.asarray(labels)
    if labels.ndim == 1:
        for value in labels:
            destination.write(f"{int(value)}\n")
    else:
        for row in labels:
            destination.write(",".join(str(int(v)) for v in row) + "\n")
