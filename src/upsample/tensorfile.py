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

A path output (``write_tensor``, ``write_package``; so every ``infer`` and
``transform``) that already holds a regular file with one link, owned by
this process's user and writable by it, is unlinked and created afresh,
exclusively, with the old permission bits.  ext4 with ``auto_da_alloc`` (its
default) starts writeback when a file that was truncated to zero is closed,
and also when a file is renamed over another: on a 2-vCPU Xeon VM, writing a
786 KB map over an old file took 0.5-0.8 ms that way (a temp file renamed
over it: 0.68-0.76 ms), and 0.1-0.3 ms to a fresh inode.  So nothing is ever
renamed over an output.  A reader holding the old file keeps its old bytes.
Everything else is truncated and rewritten in place, as ``open(path, "wb")``
does: a symlink (its target gets the bytes), a hard-linked file (every name
sees them), a file that is not regular (``os.devnull``, a FIFO), one of
another user's, a read-only one, and one whose unlink fails (a read-only
directory).  A write to a fresh inode that raises removes it, so no partial
output is left behind; all checks on the tensor and the provenance run
before the old file is touched.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
import stat
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


def _opened(target, mode: str):
    """A context giving the stream ``target`` as is, left open, or the file
    at path ``target`` opened in ``mode`` and closed on exit; a path opened
    for writing is replaced by ``_output``'s rules."""
    if hasattr(target, "read") or hasattr(target, "write"):
        return contextlib.nullcontext(target)
    if mode == "wb":
        return _output(target)
    return open(target, mode)


def _replacement(path) -> tuple[bool, int | None]:
    """How ``_output`` writes the file at ``path``: (False, None) to truncate
    it in place, (True, None) to create it where no file is, and (True,
    bits) to create it with the permission bits of the old file, which this
    call has unlinked."""
    try:
        old = os.lstat(path)
    except FileNotFoundError:
        return True, None
    except OSError:
        return False, None
    replaceable = (
        stat.S_ISREG(old.st_mode)
        and old.st_nlink == 1
        # a file of another user's keeps its owner; where os has no geteuid,
        # nothing is replaced
        and old.st_uid == getattr(os, "geteuid", lambda: None)()
        # a read-only file still refuses the write, as open() does
        and old.st_mode & stat.S_IWUSR
    )
    if not replaceable:
        return False, None
    try:
        os.unlink(path)
    except OSError:
        return False, None
    return True, stat.S_IMODE(old.st_mode)


@contextlib.contextmanager
def _output(path):
    """The binary file at ``path`` opened for writing: a fresh inode where
    ``_replacement`` allows, removed again if the write raises, and
    otherwise the file truncated in place, as ``open(path, "wb")`` does."""
    fresh, bits = _replacement(path)
    if not fresh:
        with open(path, "wb") as stream:
            yield stream
        return
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(path, flags, 0o666 if bits is None else bits)
    try:
        if bits is not None:
            os.fchmod(fd, bits)  # the old bits exactly, whatever the umask
        with open(fd, "wb") as stream:
            yield stream
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(path)
        raise


def _payload_bytes(t: Tensor) -> bytes:
    return np.ascontiguousarray(t.data, dtype="<f4").tobytes()


def _header(t: Tensor) -> bytes:
    """The magic, version, rank and extents that start ``t``'s file."""
    if len(t.dims) > 255:
        raise ExtentError(f"rank {len(t.dims)} exceeds u8")
    for d in t.dims:
        if d >= 1 << 32:
            raise ExtentError(f"extent {d} exceeds u32")
    return MAGIC + struct.pack(f"<HB{len(t.dims)}I", VERSION, len(t.dims), *t.dims)


def write_tensor(t: Tensor, dest) -> None:
    """Write a tensor to a path or binary stream in the format above."""
    header, payload = _header(t), _payload_bytes(t)
    with _opened(dest, "wb") as stream:
        stream.write(header)
        stream.write(payload)


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
    with _opened(src, "rb") as stream:
        t, _ = _read_tensor_stream(stream)
        if stream is not src and stream.read(1):
            raise TruncatedError("trailing bytes after payload")
    return t


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

    def validate(self, kernels: Tensor) -> None:
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
    header, payload = _header(kernels), _payload_bytes(kernels)
    blob = prov.to_json().encode("utf-8")
    with _opened(dest, "wb") as stream:
        stream.write(header)
        stream.write(payload)
        stream.write(struct.pack("<I", len(blob)))
        stream.write(blob)


def read_package(src) -> tuple[Tensor, ProvenanceRecord]:
    """Read kernels plus provenance; checksum and invariants checked first."""
    with _opened(src, "rb") as stream:
        kernels, payload = _read_tensor_stream(stream)
        (length,) = struct.unpack("<I", _read_exact(stream, 4, "provenance length"))
        blob = _read_exact(stream, length, "provenance")
        if stream is not src and stream.read(1):
            raise TruncatedError("trailing bytes after provenance block")
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
