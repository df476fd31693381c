import errno
import io
import json
import os
import stat
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from upsample import tensorfile
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


def two_maps(rng):
    return [Tensor(rng.uniform(-1, 1, (2, 4, 4)).astype(np.float32)) for _ in range(2)]


def test_rewritten_output_is_a_fresh_inode_with_its_mode(tmp_path, rng):
    old, new = two_maps(rng)
    path = tmp_path / "y.upst"
    write_tensor(old, path)
    path.chmod(0o640)
    first = path.read_bytes()
    # an open reader keeps the old inode alive, so its number cannot be reused
    with open(path, "rb") as reader:
        before = os.fstat(reader.fileno())
        write_tensor(new, path)
        assert reader.read() == first  # a reader of the old file sees no change
    after = os.lstat(path)
    assert after.st_ino != before.st_ino
    assert stat.S_IMODE(after.st_mode) == 0o640
    write_tensor(new, tmp_path / "first.upst")
    assert path.read_bytes() == (tmp_path / "first.upst").read_bytes()


def test_symlinked_output_stays_a_link_to_the_new_bytes(tmp_path, rng):
    old, new = two_maps(rng)
    target, link = tmp_path / "target.upst", tmp_path / "link.upst"
    write_tensor(old, target)
    link.symlink_to(target)
    ino = os.stat(target).st_ino
    write_tensor(new, link)
    assert link.is_symlink()
    assert os.stat(target).st_ino == ino
    assert read_tensor(target) == new


def test_hard_linked_output_is_rewritten_in_place(tmp_path, rng):
    old, new = two_maps(rng)
    a, b = tmp_path / "a.upst", tmp_path / "b.upst"
    write_tensor(old, a)
    os.link(a, b)
    write_tensor(new, a)
    assert read_tensor(a) == new and read_tensor(b) == new
    assert os.stat(a).st_nlink == 2
    assert os.stat(a).st_ino == os.stat(b).st_ino


def test_write_to_devnull():
    write_tensor(Tensor([1.0, 2.0]), os.devnull)
    assert os.path.exists(os.devnull)


@pytest.mark.parametrize(
    "patch",
    ["unlink_fails", "owned_by_another_user"],
)
def test_output_that_cannot_be_replaced_is_truncated_in_place(tmp_path, rng, monkeypatch, patch):
    old, new = two_maps(rng)
    path = tmp_path / "y.upst"
    write_tensor(old, path)
    ino = os.stat(path).st_ino
    if patch == "unlink_fails":
        def refuse(path, *args, **kwargs):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)

        monkeypatch.setattr(os, "unlink", refuse)
    else:
        monkeypatch.setattr(os, "geteuid", lambda: os.stat(path).st_uid + 1)
    write_tensor(new, path)
    monkeypatch.undo()
    assert os.stat(path).st_ino == ino
    assert read_tensor(path) == new


def test_read_only_output_is_not_replaced(tmp_path, rng):
    old, new = two_maps(rng)
    path = tmp_path / "y.upst"
    write_tensor(old, path)
    path.chmod(0o444)
    ino = os.stat(path).st_ino
    try:
        write_tensor(new, path)  # passes only where the user may ignore the mode
    except PermissionError:
        assert read_tensor(path) == old
    else:
        assert read_tensor(path) == new
    assert os.stat(path).st_ino == ino
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o444


class _FullDisk:
    """A file stream whose writes of more than a header fail with ENOSPC."""

    def __init__(self, stream):
        self.stream = stream

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stream.close()

    def write(self, data):
        if len(data) > 64:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self.stream.write(data)


@pytest.mark.parametrize("existing", [False, True], ids=["new", "overwrite"])
def test_failed_write_leaves_no_partial_file(tmp_path, rng, monkeypatch, existing):
    old, new = two_maps(rng)
    path = tmp_path / "y.upst"
    if existing:
        write_tensor(old, path)
    monkeypatch.setattr(tensorfile, "open", lambda *a, **k: _FullDisk(open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError) as info:
        write_tensor(new, path)
    assert info.value.errno == errno.ENOSPC
    assert not path.exists()


def test_rejected_write_leaves_the_old_output(tmp_path, rng):
    kernels, prov = make_package(rng)
    path = tmp_path / "k.upkg"
    write_package(kernels, prov, path)
    before, ino = path.read_bytes(), os.stat(path).st_ino
    stale = ProvenanceRecord(**{**prov.__dict__, "checksum_crc32": prov.checksum_crc32 ^ 1})
    with pytest.raises(IntegrityError):
        write_package(kernels, stale, path)
    with pytest.raises(ExtentError):
        write_tensor(SimpleNamespace(dims=(1 << 32,), data=np.zeros(1, np.float32)), path)
    assert path.read_bytes() == before
    assert os.stat(path).st_ino == ino
