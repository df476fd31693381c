import io
import json
import struct

import numpy as np
import pytest

from upsample.tensor import Tensor
from upsample.tensorfile import (
    BadMagicError,
    ExtentError,
    IntegrityError,
    ProvenanceError,
    ProvenanceRecord,
    TruncatedError,
    VersionError,
    payload_checksum,
    provenance_for,
    read_package,
    read_tensor,
    write_package,
    write_tensor,
)
from upsample.transforms import weight_shuffle


def roundtrip(t: Tensor) -> Tensor:
    buf = io.BytesIO()
    write_tensor(t, buf)
    buf.seek(0)
    return read_tensor(buf)


def test_roundtrip_bit_exact(rng):
    t = Tensor(rng.uniform(-1, 1, (3, 8, 8)).astype(np.float32))
    back = roundtrip(t)
    assert back.dims == t.dims
    assert back.data.tobytes() == t.data.tobytes()


def test_roundtrip_many_shapes(rng):
    for dims in [(1,), (7,), (2, 3), (1, 1, 1), (2, 3, 4, 5)]:
        t = Tensor(rng.uniform(-1, 1, dims).astype(np.float32))
        assert roundtrip(t) == t


def test_minimal_hand_built_file():
    # magic + version + rank + one extent + one float32(1.0), all little-endian
    blob = b"UPST" + struct.pack("<HB", 1, 1) + struct.pack("<I", 1) + struct.pack("<f", 1.0)
    t = read_tensor(io.BytesIO(blob))
    assert t.dims == (1,)
    assert t.tolist() == [1.0]


def test_file_bytes_are_platform_fixed():
    buf = io.BytesIO()
    write_tensor(Tensor([1.0], dims=(1,)), buf)
    assert buf.getvalue() == (
        b"UPST" + struct.pack("<HB", 1, 1) + struct.pack("<I", 1) + struct.pack("<f", 1.0)
    )


def test_zero_extent_rejected():
    blob = b"UPST" + struct.pack("<HB", 1, 1) + struct.pack("<I", 0)
    with pytest.raises(ExtentError):
        read_tensor(io.BytesIO(blob))


def test_bad_magic_rejected():
    with pytest.raises(BadMagicError):
        read_tensor(io.BytesIO(b"NOPE" + b"\x00" * 16))


def test_version_mismatch_rejected():
    blob = b"UPST" + struct.pack("<HB", 9, 1) + struct.pack("<I", 1) + struct.pack("<f", 1.0)
    with pytest.raises(VersionError):
        read_tensor(io.BytesIO(blob))


def test_truncated_payload_rejected():
    blob = b"UPST" + struct.pack("<HB", 1, 1) + struct.pack("<I", 2) + struct.pack("<f", 1.0)
    with pytest.raises(TruncatedError):
        read_tensor(io.BytesIO(blob))


def test_trailing_bytes_rejected_for_path_reads(tmp_path):
    path = tmp_path / "t.upst"
    write_tensor(Tensor([1.0, 2.0]), path)
    with open(path, "ab") as fh:
        fh.write(b"x")
    with pytest.raises(TruncatedError):
        read_tensor(path)


def test_path_roundtrip(tmp_path, rng):
    t = Tensor(rng.uniform(-1, 1, (2, 4, 4)).astype(np.float32))
    path = tmp_path / "map.upst"
    write_tensor(t, path)
    assert read_tensor(path) == t


def make_package(rng):
    conv = Tensor(rng.uniform(-1, 1, (4, 3, 3, 3)).astype(np.float32))
    kernels = weight_shuffle(conv, 2)
    prov = provenance_for("sub-pixel", 3, 1, 2, kernels)
    return kernels, prov


def test_package_roundtrip(tmp_path, rng):
    kernels, prov = make_package(rng)
    path = tmp_path / "k.upkg"
    write_package(kernels, prov, path)
    back_k, back_p = read_package(path)
    assert back_k == kernels
    assert back_p == prov


def test_package_tamper_detection(tmp_path, rng):
    kernels, prov = make_package(rng)
    path = tmp_path / "k.upkg"
    write_package(kernels, prov, path)
    blob = bytearray(path.read_bytes())
    payload_start = 4 + 3 + 4 * 4  # magic + header + four extents
    blob[payload_start + 5] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(IntegrityError):
        read_package(path)


@pytest.mark.parametrize(
    "changes",
    [
        # r=1 sub-pixel derivation requires K^D == K; claim K^D=6 instead
        {"deconv_kernel_size": 6},
        {"kernel_size": 4, "deconv_kernel_size": 4},  # even K
        {"padding": 0, "deconv_padding": 0},  # K != 2P+1
        {"source_algorithm": "nn-resize", "transformation": "weight-convolution",
         "kernel_size": 4, "deconv_kernel_size": 4},  # even K, K^D = K+r-1 holds
    ],
    ids=["subpixel-kd", "subpixel-even-k", "subpixel-k-not-2p+1", "nn-even-k"],
)
def test_provenance_invariant_violation_rejected(rng, changes):
    fields = dict(
        source_algorithm="sub-pixel",
        transformation="weight-shuffle",
        kernel_size=3,
        padding=1,
        factor=1,
        stride=1,
        deconv_kernel_size=3,
        deconv_padding=1,
    )
    fields.update(changes)
    kd = fields["deconv_kernel_size"]
    # kernels that match K^D, so only the derivation check can reject the record
    kernels = Tensor(rng.uniform(-1, 1, (3, 1, kd, kd)).astype(np.float32))
    rec = ProvenanceRecord(**fields, checksum_crc32=payload_checksum(kernels))
    with pytest.raises(ProvenanceError):
        rec.validate(kernels)


def test_provenance_pairing_enforced(rng):
    kernels, prov = make_package(rng)
    bad = ProvenanceRecord(
        **{**prov.__dict__, "transformation": "weight-convolution"}
    )
    with pytest.raises(ProvenanceError):
        bad.validate(kernels)


def test_provenance_geometry_mismatch_rejected(rng):
    kernels, prov = make_package(rng)
    wrong = Tensor(rng.uniform(-1, 1, (3, 1, 4, 4)).astype(np.float32))
    with pytest.raises(ProvenanceError):
        prov.validate(wrong)


def test_write_package_validates_before_writing(tmp_path, rng):
    kernels, prov = make_package(rng)
    stale = ProvenanceRecord(**{**prov.__dict__, "checksum_crc32": prov.checksum_crc32 ^ 1})
    with pytest.raises(IntegrityError):
        write_package(kernels, stale, tmp_path / "k.upkg")


def test_native_deconv_provenance(rng):
    kernels = Tensor(rng.uniform(-1, 1, (3, 2, 4, 4)).astype(np.float32))
    prov = provenance_for("native-deconv", 4, 1, 2, kernels)
    buf = io.BytesIO()
    write_package(kernels, prov, buf)
    buf.seek(0)
    back_k, back_p = read_package(buf)
    assert back_p.transformation == "none"
    assert back_k == kernels


def test_huge_extents_rejected_before_allocation():
    # 4 * (2^32 - 1)^3 payload bytes cannot be in the file: reject from the header alone
    blob = b"UPST" + struct.pack("<HB", 1, 3) + struct.pack("<3I", *[0xFFFFFFFF] * 3)
    with pytest.raises(TruncatedError):
        read_tensor(io.BytesIO(blob + b"\0" * 16))


@pytest.mark.parametrize(
    "field, value",
    [("kernel_size", "3"), ("stride", 2.0), ("padding", True), ("source_algorithm", 7),
     ("checksum_crc32", None), ("factor", [2])],
)
def test_provenance_field_types_checked(rng, field, value):
    _, prov = make_package(rng)
    fields = json.loads(prov.to_json())
    fields[field] = value
    with pytest.raises(ProvenanceError):
        ProvenanceRecord.from_json(json.dumps(fields))


def test_provenance_must_be_an_object():
    with pytest.raises(ProvenanceError):
        ProvenanceRecord.from_json("[1, 2, 3]")


def test_non_utf8_provenance_rejected(tmp_path, rng):
    kernels, prov = make_package(rng)
    path = tmp_path / "k.upkg"
    write_package(kernels, prov, path)
    data = path.read_bytes()
    blob = prov.to_json().encode()
    bad = b"\xff" + blob[1:]
    path.write_bytes(data[: len(data) - len(blob)] + bad)
    with pytest.raises(ProvenanceError):
        read_package(path)


class _Pipe(io.RawIOBase):
    """A stream that cannot seek and returns at most 64 KiB per read, like a pipe."""

    def __init__(self, data: bytes):
        self._buf = io.BytesIO(data)

    def readable(self):
        return True

    def seekable(self):
        return False

    def readinto(self, b):
        return self._buf.readinto(memoryview(b)[: 1 << 16])


def test_huge_extents_rejected_on_a_stream_that_cannot_seek():
    blob = b"UPST" + struct.pack("<HB", 1, 3) + struct.pack("<3I", *[0xFFFFFFFF] * 3)
    with pytest.raises(TruncatedError):
        read_tensor(_Pipe(blob + b"\0" * 16))


def test_tensor_over_one_mib_round_trips_through_a_stream_that_cannot_seek(rng):
    t = Tensor(rng.uniform(-1, 1, (2, 400, 400)).astype(np.float32))
    buf = io.BytesIO()
    write_tensor(t, buf)
    assert len(buf.getvalue()) > 1 << 20
    back = read_tensor(_Pipe(buf.getvalue()))
    assert back.dims == t.dims
    assert back.data.tobytes() == t.data.tobytes()
