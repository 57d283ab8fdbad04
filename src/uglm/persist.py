"""Deterministic single-file checkpoint container and metrics CSV export.

Container layout (all integers little-endian):

    magic  b"UGCKPT\\x01"
    u32    version
    u32    metadata length
    bytes  UTF-8 JSON metadata (canonical: sorted keys, compact separators)
    u32    tensor count
    per tensor:
        u16    name length
        bytes  UTF-8 name
        u8     rank
        u64[]  dims
        f64[]  payload, row-major
    32B    SHA-256 of everything after the magic

Tensors are stored sorted by name and metadata JSON is canonical, so the
same logical checkpoint always produces byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ChecksumError,
    CheckpointFormatError,
    ContractError,
    TruncatedFileError,
    UnsupportedVersionError,
    ValidationError,
)
from .numcore import ParamSet

CHECKPOINT_MAGIC = b"UGCKPT\x01"
CHECKPOINT_VERSION = 1
DIGEST_SIZE = 32

METRICS_HEADER = "step,domain,loss,grad_norm,smoothed,weight"
LOSS_LOG_HEADER = "epoch,mean_loss"


def format_float(x: float) -> str:
    """17 significant digits: exact round-trip for 64-bit floats."""
    return f"{float(x):.17g}"


@dataclass
class Checkpoint:
    metadata: dict
    tensors: dict[str, np.ndarray]
    version: int = CHECKPOINT_VERSION

    def __post_init__(self) -> None:
        self.tensors = {k: np.asarray(v, dtype=np.float64) for k, v in self.tensors.items()}

    def tensor(self, name: str, shape: tuple[int | None, ...]) -> np.ndarray:
        """The named tensor, checked to be present, finite and of ``shape``.

        A ``None`` entry in ``shape`` accepts any positive size.
        """
        arr = self.tensors.get(name)
        if arr is None:
            raise ContractError(f"checkpoint lacks tensor {name!r}")
        if arr.ndim != len(shape) or any(
            size < 1 if want is None else size != want for size, want in zip(arr.shape, shape)
        ):
            raise ContractError(
                f"checkpoint tensor {name!r} has shape {arr.shape}, expected {shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ContractError(f"checkpoint tensor {name!r} has non-finite entries")
        return arr


def _tensor_table(tensors: dict[str, np.ndarray]) -> list:
    """The encoded tensor table as parts; each payload is its array, uncopied."""
    parts = [struct.pack("<I", len(tensors))]
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype="<f8")
        name_bytes = name.encode("utf-8")
        if len(name_bytes) > 0xFFFF:
            raise ValidationError(f"tensor name too long: {name[:40]}...")
        rank_and_dims = struct.pack(f"<B{arr.ndim}Q", arr.ndim, *arr.shape)
        parts += [struct.pack("<H", len(name_bytes)), name_bytes, rank_and_dims, arr]
    return parts


def _sha256(parts: list):
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest


def encode_checkpoint(ckpt: Checkpoint) -> bytes:
    meta = json.dumps(ckpt.metadata, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [struct.pack("<II", ckpt.version, len(meta)), meta, *_tensor_table(ckpt.tensors)]
    return b"".join([CHECKPOINT_MAGIC, *parts, _sha256(parts).digest()])  # the one copy


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    blob = encode_checkpoint(ckpt)
    with open(path, "wb") as fh:
        fh.write(blob)
        fh.flush()
        os.fsync(fh.fileno())


class _Cursor:
    """Bounds-checked reader of the structure, which ends where the checksum
    starts; any overrun is a truncation error naming the file and the byte."""

    def __init__(self, data: memoryview, path, start: int):
        self.data, self.path = data, path
        self.pos, self.end = start, len(data) - DIGEST_SIZE

    def take(self, n: int) -> memoryview:
        if self.pos + n > self.end:
            raise TruncatedFileError(
                f"{self.path}: file ends at byte {len(self.data)} but its structure needs "
                f"{self.pos + n} bytes and a {DIGEST_SIZE}-byte checksum"
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str) -> int:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))[0]


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        return decode_checkpoint(fh.read(), path)


def decode_checkpoint(data: bytes, path) -> Checkpoint:
    """Verify and decode a container held in memory; errors name ``path``."""
    if len(data) < len(CHECKPOINT_MAGIC):
        raise TruncatedFileError(f"{path}: shorter than the container magic")
    if data[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"{path}: bad magic bytes")
    if len(data) < len(CHECKPOINT_MAGIC) + 4 + 4 + 4 + DIGEST_SIZE:
        raise TruncatedFileError(f"{path}: shorter than an empty container")
    view = memoryview(data)  # slices of it copy nothing
    stored_digest = data[-DIGEST_SIZE:]

    cur = _Cursor(view, path, len(CHECKPOINT_MAGIC))
    version = cur.unpack("<I")
    if version != CHECKPOINT_VERSION:
        raise UnsupportedVersionError(f"{path}: container version {version} not supported")
    meta_len = cur.unpack("<I")
    meta_bytes = cur.take(meta_len)
    count = cur.unpack("<I")
    # Walk the structure with raw bytes only; nothing is decoded until the
    # checksum has vouched for the payload.
    spans: list[tuple[bytes, tuple[int, ...], int, int]] = []
    for _ in range(count):
        name_len = cur.unpack("<H")
        name_bytes = cur.take(name_len)
        rank = cur.unpack("<B")
        dims = tuple(cur.unpack("<Q") for _ in range(rank))
        start = cur.pos
        cur.take(8 * math.prod(dims))
        spans.append((name_bytes, dims, start, cur.pos))
    if cur.pos != cur.end:
        raise TruncatedFileError(f"{path}: {cur.end - cur.pos} unexpected trailing bytes")

    if hashlib.sha256(view[len(CHECKPOINT_MAGIC) : cur.end]).digest() != stored_digest:
        raise ChecksumError(f"{path}: payload checksum mismatch")

    try:
        metadata = json.loads(bytes(meta_bytes).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointFormatError(f"{path}: metadata is not valid JSON: {exc}") from exc
    tensors: dict[str, np.ndarray] = {}
    for name_bytes, dims, start, end in spans:
        try:
            name = bytes(name_bytes).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointFormatError(f"{path}: tensor name is not valid UTF-8") from exc
        if name in tensors:
            raise CheckpointFormatError(f"{path}: duplicate tensor name {name!r}")
        flat = np.frombuffer(view[start:end], dtype="<f8")
        tensors[name] = flat.astype(np.float64).reshape(dims)
    return Checkpoint(metadata=metadata, tensors=tensors, version=version)


def param_fingerprint(params: ParamSet) -> str:
    """SHA-256 hex digest of the parameter tensors in container encoding."""
    return _sha256(_tensor_table(dict(params.items()))).hexdigest()


# --------------------------------------------------------------- CSV export


def _domain_field(domain) -> str:
    domain = str(domain)
    if "," in domain or "\n" in domain or "\r" in domain:
        raise ValidationError(f"domain id {domain!r} cannot appear in a CSV field")
    return domain


def write_csv(path, header: str, rows: Iterable[Sequence], formats: Sequence) -> None:
    """Write ``header`` and one line per row, field i written by ``formats[i]``."""
    lines = [header] + [",".join(fmt(value) for fmt, value in zip(formats, row)) for row in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def export_metrics(rows: Iterable[Sequence], path) -> None:
    """Write curriculum metrics rows (step, domain, loss, g, smoothed, w)."""
    write_csv(path, METRICS_HEADER, rows, (lambda step: str(int(step)), _domain_field, *[format_float] * 4))


def parse_metrics(path) -> list[tuple[int, str, float, float, float, float]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != METRICS_HEADER:
        raise ValidationError(f"{path}: missing metrics header {METRICS_HEADER!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 6:
            raise ValidationError(f"{path}:{lineno}: expected 6 fields, got {len(parts)}")
        step, domain, loss, grad_norm, smoothed, weight = parts
        rows.append(
            (int(step), domain, float(loss), float(grad_norm), float(smoothed), float(weight))
        )
    return rows


def export_loss_log(epoch_losses: Sequence[float], path) -> None:
    """Write the pretraining per-epoch mean-loss CSV."""
    write_csv(path, LOSS_LOG_HEADER, enumerate(epoch_losses, start=1), (str, format_float))
