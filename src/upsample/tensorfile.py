"""Bit-exact binary serialization of tensors and transformed-kernel packages.

Tensor file layout (all multi-byte integers little-endian):

    magic    4 bytes   b"UPST"
    version  u16       currently 1
    rank     u8        number of extents, >= 1
    extents  rank*u32  each >= 1
    payload  prod(extents) * f32 (IEEE-754 little-endian)

A kernel package is a tensor file followed by one provenance block:

    length   u32       byte length of the JSON text
    json     UTF-8     the provenance record

Provenance JSON field names are fixed for cross-implementation
compatibility: ``source_algorithm``, ``transformation``, ``kernel_size``,
``padding``, ``factor``, ``stride``, ``deconv_kernel_size``,
``deconv_padding``, ``checksum_crc32``.  The checksum is CRC-32 (zlib) over
the raw payload bytes.  ``read_package`` verifies the checksum and the
derivation invariants before returning, so geometrically inconsistent
packages are rejected before any compute is attempted.
"""
from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import asdict, astuple, dataclass
from dataclasses import fields as dataclass_fields
from typing import BinaryIO

import numpy as np

from .ops import DeconvParams, GeometryError
from .tensor import Tensor
from .transforms import InvalidKernelError, derive_params_nn, derive_params_subpixel

MAGIC = b"UPST"
VERSION = 1

# source_algorithm -> (its transformation, its (K, P, r) -> (K^D, S, P^D) derivation)
_SOURCES = {
    "sub-pixel": ("weight-shuffle", derive_params_subpixel),
    "nn-resize": ("weight-convolution", derive_params_nn),
    "native-deconv": ("none", lambda k, p, r: DeconvParams(k, r, p)),
}
_CHUNK_BYTES = 1 << 20  # largest single read, so no buffer is sized from a header


class FormatError(ValueError):
    """Base class for tensor file parse failures."""


class BadMagicError(FormatError):
    pass


class VersionError(FormatError):
    pass


class TruncatedError(FormatError):
    pass


class ExtentError(FormatError):
    pass


class IntegrityError(FormatError):
    """Payload checksum does not match the provenance record."""


class ProvenanceError(FormatError):
    """Provenance record violates its derivation or geometry invariants."""


def _derive(source_algorithm: str, k: int, p: int, r: int) -> tuple[str, DeconvParams]:
    """The transformation and the deconvolution geometry a source convolution implies."""
    if source_algorithm not in _SOURCES:
        raise ProvenanceError(f"unknown source_algorithm {source_algorithm!r}")
    transformation, derive = _SOURCES[source_algorithm]
    try:
        return transformation, derive(k, p, r)
    except (InvalidKernelError, GeometryError) as exc:
        raise ProvenanceError(f"no {source_algorithm} derivation: {exc}") from exc


def _open_for(dest, mode: str):
    if hasattr(dest, "read") or hasattr(dest, "write"):
        return dest, False
    return open(dest, mode), True


def _payload_bytes(t: Tensor) -> bytes:
    return np.ascontiguousarray(t.data, dtype="<f4").tobytes()


def write_tensor(t: Tensor, dest) -> None:
    """Write a tensor to a path or binary stream in the format above."""
    if len(t.dims) > 255:
        raise ExtentError(f"rank {len(t.dims)} exceeds u8")
    for d in t.dims:
        if d >= 1 << 32:
            raise ExtentError(f"extent {d} exceeds u32")
    stream, owned = _open_for(dest, "wb")
    try:
        stream.write(MAGIC)
        stream.write(struct.pack("<HB", VERSION, len(t.dims)))
        stream.write(struct.pack(f"<{len(t.dims)}I", *t.dims))
        stream.write(_payload_bytes(t))
    finally:
        if owned:
            stream.close()


def _read_exact(stream: BinaryIO, n: int, what: str) -> bytes:
    """Read n bytes in chunks: a header claiming too many fails at the stream's end."""
    chunks, got = [], 0
    while got < n:
        chunk = stream.read(min(n - got, _CHUNK_BYTES))
        if not chunk:
            raise TruncatedError(f"truncated file: expected {n} bytes of {what}, got {got}")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def _read_tensor_stream(stream: BinaryIO) -> tuple[Tensor, bytes]:
    magic = _read_exact(stream, 4, "magic")
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
    version, rank = struct.unpack("<HB", _read_exact(stream, 3, "header"))
    if version != VERSION:
        raise VersionError(f"unsupported version {version}, expected {VERSION}")
    if rank < 1:
        raise ExtentError("rank must be >= 1")
    extents = struct.unpack(f"<{rank}I", _read_exact(stream, 4 * rank, "extents"))
    if any(d < 1 for d in extents):
        raise ExtentError(f"extents must be >= 1, got {extents}")
    payload = _read_exact(stream, 4 * math.prod(extents), "payload")
    values = np.frombuffer(payload, dtype="<f4").reshape(extents)
    return Tensor(values.astype(np.float32)), payload


def read_tensor(src) -> Tensor:
    """Read a tensor from a path or binary stream; path reads reject trailing bytes."""
    stream, owned = _open_for(src, "rb")
    try:
        t, _ = _read_tensor_stream(stream)
        if owned and stream.read(1):
            raise TruncatedError("trailing bytes after payload")
        return t
    finally:
        if owned:
            stream.close()


def payload_checksum(t: Tensor) -> int:
    """CRC-32 of the tensor's serialized payload bytes."""
    return zlib.crc32(_payload_bytes(t)) & 0xFFFFFFFF


@dataclass(frozen=True)
class ProvenanceRecord:
    """Where a deconvolution kernel set came from and the geometry it implies.

    For transformed kernels, (kernel_size, padding, factor) describe the
    source convolution and (stride, deconv_kernel_size, deconv_padding) the
    derived deconvolution.  Native deconvolution kernels carry their own
    geometry in both halves (factor == stride).
    """

    source_algorithm: str
    transformation: str
    kernel_size: int
    padding: int
    factor: int
    stride: int
    deconv_kernel_size: int
    deconv_padding: int
    checksum_crc32: int

    def validate(self, kernels: Tensor | None = None) -> None:
        k, p, r = self.kernel_size, self.padding, self.factor
        transformation, expected = _derive(self.source_algorithm, k, p, r)
        if self.transformation != transformation:
            raise ProvenanceError(
                f"source {self.source_algorithm!r} requires transformation "
                f"{transformation!r}, got {self.transformation!r}"
            )
        if (self.deconv_kernel_size, self.stride, self.deconv_padding) != astuple(expected):
            raise ProvenanceError(
                f"derived parameters violate the {self.source_algorithm} derivation: "
                f"K={k} P={p} r={r} -> S={self.stride} "
                f"K^D={self.deconv_kernel_size} P^D={self.deconv_padding}"
            )
        # both derivations give S <= K^D; bounding S bounds the output extent
        # by K^D times the input's, which the two files bound in turn
        if self.stride > self.deconv_kernel_size:
            raise ProvenanceError(
                f"stride S={self.stride} exceeds the kernel extent K^D={self.deconv_kernel_size}"
            )
        if kernels is not None:
            if len(kernels.dims) != 4:
                raise ProvenanceError(f"kernel tensor must be rank 4, got {kernels.dims}")
            _, _, kh, kw = kernels.dims
            if kh != kw or kh != self.deconv_kernel_size:
                raise ProvenanceError(
                    f"kernel extents {kh}x{kw} do not match K^D={self.deconv_kernel_size}"
                )

    @property
    def params(self) -> DeconvParams:
        """The deconvolution geometry (K^D, S, P^D) of a validated record."""
        return DeconvParams(self.deconv_kernel_size, self.stride, self.deconv_padding)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ProvenanceRecord":
        try:
            fields = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ProvenanceError(f"provenance block is not valid JSON: {exc}") from exc
        if not isinstance(fields, dict):
            raise ProvenanceError("provenance block must be a JSON object")
        for f in dataclass_fields(cls):
            # f.type is the annotation's name; bool is rejected although it subclasses int
            if f.name in fields and type(fields[f.name]).__name__ != f.type:
                raise ProvenanceError(
                    f"provenance field {f.name!r} must be {f.type}, "
                    f"got {type(fields[f.name]).__name__}"
                )
        try:
            return cls(**fields)
        except TypeError as exc:
            raise ProvenanceError(f"provenance fields wrong or missing: {exc}") from exc


def provenance_for(
    source_algorithm: str,
    kernel_size: int,
    padding: int,
    factor: int,
    kernels: Tensor,
) -> ProvenanceRecord:
    """Build the provenance record matching a transformation's derivation."""
    transformation, derived = _derive(source_algorithm, kernel_size, padding, factor)
    rec = ProvenanceRecord(
        source_algorithm=source_algorithm,
        transformation=transformation,
        kernel_size=kernel_size,
        padding=padding,
        factor=factor,
        stride=derived.stride,
        deconv_kernel_size=derived.kernel_size,
        deconv_padding=derived.padding,
        checksum_crc32=payload_checksum(kernels),
    )
    rec.validate(kernels)
    return rec


def write_package(kernels: Tensor, prov: ProvenanceRecord, dest) -> None:
    """Write kernels plus provenance; validates the record before writing."""
    prov.validate(kernels)
    if prov.checksum_crc32 != payload_checksum(kernels):
        raise IntegrityError("provenance checksum does not match kernel payload")
    stream, owned = _open_for(dest, "wb")
    try:
        write_tensor(kernels, stream)
        blob = prov.to_json().encode("utf-8")
        stream.write(struct.pack("<I", len(blob)))
        stream.write(blob)
    finally:
        if owned:
            stream.close()


def read_package(src) -> tuple[Tensor, ProvenanceRecord]:
    """Read kernels plus provenance; checksum and invariants checked first."""
    stream, owned = _open_for(src, "rb")
    try:
        kernels, payload = _read_tensor_stream(stream)
        (length,) = struct.unpack("<I", _read_exact(stream, 4, "provenance length"))
        blob = _read_exact(stream, length, "provenance")
        if owned and stream.read(1):
            raise TruncatedError("trailing bytes after provenance block")
    finally:
        if owned:
            stream.close()
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProvenanceError(f"provenance block is not UTF-8: {exc}") from exc
    prov = ProvenanceRecord.from_json(text)
    actual = zlib.crc32(payload) & 0xFFFFFFFF
    if actual != prov.checksum_crc32:
        raise IntegrityError(
            f"payload checksum {actual:#010x} != recorded {prov.checksum_crc32:#010x}"
        )
    prov.validate(kernels)
    return kernels, prov
