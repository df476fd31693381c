"""Property-based tests: five-way equivalence over random geometry, the
banded GEMM convolution and revd2's fixed-shape GEMM blocks against their loop
oracles, file round trips, and header fuzzing of the files ``infer`` reads.

Examples are derandomized and never stored, so every run checks the same
cases and the suite stays deterministic.
"""
import contextlib
import io
import tempfile
from functools import partial
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference_impls import ref_conv2d, ref_deconv

from upsample import cli, deconv, ops, verify
from upsample.deconv import (
    DeconvParams,
    _phase_map,
    deconv_revd,
    deconv_revd2,
    deconv_tdc,
    grid_tiles,
)
from upsample.tensor import Tensor
from upsample.tensorfile import (
    provenance_for,
    read_package,
    read_tensor,
    write_package,
    write_tensor,
)
from upsample.transforms import weight_shuffle

PROPERTY = settings(derandomize=True, database=None, deadline=None)


@st.composite
def deconv_cases(draw):
    k = draw(st.integers(1, 6))
    s = draw(st.integers(1, 3))
    i_h, i_w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    # padding up to the largest that keeps both output extents >= 1
    p_max = (s * (min(i_h, i_w) - 1) + k - 1) // 2
    p = draw(st.integers(0, min(p_max, 3)))
    i_c, o_c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(-1, 1, (i_c, i_h, i_w)).astype(np.float32)
    w = rng.uniform(-1, 1, (i_c, o_c, k, k)).astype(np.float32)
    return x, w, DeconvParams(k, s, p)


@settings(PROPERTY, max_examples=60)
@given(deconv_cases())
def test_every_variant_matches_the_loop_oracle(case):
    x, w, params = case
    want = ref_deconv(x, w, params.stride, params.padding)
    for name, fn in verify.DEFAULT_VARIANTS.items():
        got = fn(Tensor(x), Tensor(w), params).data
        assert got.shape == want.shape, name
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-4, err_msg=name)


@st.composite
def conv_cases(draw):
    """Convolutions of stride 1-3, padding 0-3 and K 1-5 with up to 8 input
    channels.  Some have enough output rows for two or more row bands of
    ``ops._gemm_bands``, others rows too wide for one band; both end in a
    shorter tail band."""
    k, s, p = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(0, 3))
    i_c, o_c = draw(st.integers(1, 8)), draw(st.integers(1, 2))
    o_min = max(1, -(-(2 * p - k + 1) // s) + 1)  # the least output with input >= 1
    window = i_c * k * k
    shape = draw(st.sampled_from(["small", "tall", "wide"]))
    if shape == "wide":
        width = ops._BAND_ELEMS // window
        o_w = max(o_min, width + draw(st.integers(1, width - 1)))
        o_h = draw(st.integers(o_min, o_min + 1))
    else:
        o_w = draw(st.integers(o_min, 40))
        band = ops._BAND_ELEMS // (window * o_w)
        if shape == "tall":
            tail = draw(st.integers(1, band - 1)) if band > 1 else 1
            o_h = max(o_min, band * draw(st.integers(1, 2)) + tail)
        else:
            o_h = draw(st.integers(o_min, min(band, 12)))
    i_h, i_w = s * (o_h - 1) + k - 2 * p, s * (o_w - 1) + k - 2 * p
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(-1, 1, (i_c, i_h, i_w)).astype(np.float32)
    w = rng.uniform(-1, 1, (o_c, i_c, k, k)).astype(np.float32)
    return x, w, ops.ConvParams(k, s, p)


@settings(PROPERTY, max_examples=30)
@given(conv_cases())
def test_banded_conv_matches_the_loop_oracle(case):
    x, w, params = case
    want = ref_conv2d(x, w, params.stride, params.padding)
    got = ops.conv2d(Tensor(x), Tensor(w), params).data
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-5)


def _in_extent(n: int, k: int, s: int, p: int) -> int:
    """The least input extent whose output holds n pixels of every stride phase."""
    return max(1, -(-(s * n - k + 2 * p) // s) + 1)


@st.composite
def revd2_cases(draw):
    """revd2 geometries, with a shuffled tiling of their output into up to
    6 x 6 rectangles.

    Small maps draw O_C 1-3 and I_C 1-8 or 65-130.  "tall" and "wide" maps
    have 65-130 input channels and need more than one band of phase (0, 0)
    in ``ops._gemm_bands``, run in blocks: tall ones two or more row bands,
    wide ones a row split into pieces.  They keep O_C = 1 and S <= 2, so that the loop
    oracle stays near 0.1 s.  Most phases end in a block of fewer than
    ``deconv._REVD2_COLS`` pixels."""
    k = draw(st.integers(1, 6))
    shape = draw(st.sampled_from(["small", "tall", "wide"]))
    if shape == "small":
        s = draw(st.integers(1, 3))
        i_c = draw(st.one_of(st.integers(1, 8), st.integers(65, 130)))
        o_c = draw(st.integers(1, 3))
        i_h, i_w = draw(st.integers(1, 8)), draw(st.integers(1, 12))
        p_max = (s * (min(i_h, i_w) - 1) + k - 1) // 2  # both output extents >= 1
        p = draw(st.integers(0, min(p_max, 3)))
    else:
        s, i_c, o_c = draw(st.integers(1, 2)), draw(st.integers(65, 130)), 1
        p = draw(st.integers(0, min((k - 1) // 2, 3)))
        window = i_c * (-(-k // s)) ** 2  # phase (0, 0) has the most taps
        cols = deconv._REVD2_COLS
        budget = max(cols, ops._BAND_ELEMS // window // cols * cols)  # pixels per band
        short = draw(st.integers(1, 2))
        if shape == "tall":
            long = budget // short + draw(st.integers(1, 40))
            i_h, i_w = _in_extent(long, k, s, p), _in_extent(short, k, s, p)
        else:
            long = budget + draw(st.integers(1, budget // 2))
            i_h, i_w = _in_extent(short, k, s, p), _in_extent(long, k, s, p)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(-1, 1, (i_c, i_h, i_w)).astype(np.float32)
    w = rng.uniform(-1, 1, (i_c, o_c, k, k)).astype(np.float32)
    pieces = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    return Tensor(x), Tensor(w), DeconvParams(k, s, p), pieces, rng


@settings(PROPERTY, max_examples=30)
@given(revd2_cases())
def test_revd2_tilings_are_bitwise_and_match_the_loop_oracle(case):
    x, w, params, (n_h, n_w), rng = case
    mono = _phase_map(x, w, params, None, None, np.float64)
    _, o_h, o_w = mono.shape
    tiles = grid_tiles(o_h, o_w, -(-o_h // n_h), -(-o_w // n_w))
    rng.shuffle(tiles)
    assert _phase_map(x, w, params, None, tiles, np.float64).tobytes() == mono.tobytes()
    want = ref_deconv(x.data, w.data, params.stride, params.padding)
    got = deconv_revd2(x, w, params).data
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-4)


@st.composite
def cropping_deconv_cases(draw):
    """Deconvolutions with P > K-1: strd's conv padding K-1-P is negative."""
    k, s = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    i_h, i_w = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    p_max = (s * (min(i_h, i_w) - 1) + k - 1) // 2  # both output extents >= 1
    assume(p_max >= k)
    p = draw(st.integers(k, p_max))
    i_c, o_c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(-1, 1, (i_c, i_h, i_w)).astype(np.float32)
    w = rng.uniform(-1, 1, (i_c, o_c, k, k)).astype(np.float32)
    return x, w, DeconvParams(k, s, p)


@settings(PROPERTY, max_examples=40)
@given(cropping_deconv_cases())
def test_every_variant_matches_the_loop_oracle_when_padding_crops(case):
    # the crop alone removes whole taps; revd2 also runs in 2x3 tiles, some
    # of them narrower than a stride, so phases fall outside them
    x, w, params = case
    want = ref_deconv(x, w, params.stride, params.padding)
    runs = {**verify.DEFAULT_VARIANTS, "revd2 tiled": partial(deconv.run, "revd2", tile=(2, 3))}
    for name, fn in runs.items():
        got = fn(Tensor(x), Tensor(w), params).data
        assert got.shape == want.shape, name
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-4, err_msg=name)


def _tdc_shift(k: int, s: int, p: int) -> int:
    """Super-pixels u = (o+P) // S on an axis of tdc output o, less the input
    extent: for o in [0, O) there are I + (K-1-P)//S - P//S of them."""
    return (k - 1 - p) // s - p // s


@st.composite
def tdc_cases(draw):
    """tdc geometries with K 1-7 and S 1-4 (S > K included) and P up to 8.

    When P mod S is nonzero, the super-pixel grid starts before output 0, and
    on most axes it also runs past the last output.  Small maps draw I_C and
    O_C 1-3.  "tall" and "wide" maps have 65-130 input channels and need
    more than one GEMM band in ``ops._gemm_bands``: tall ones two or more
    row bands, wide ones a row split into two pieces; both end in a shorter
    tail.  They keep O_C = 1 and S <= 2, so that the loop oracle stays near
    0.1 s.  With K even, S = 2 and P mod S = 0 they split revd's one
    2 x 2-phase stack across bands and row pieces too."""
    k = draw(st.integers(1, 7))
    shape = draw(st.sampled_from(["small", "tall", "wide"]))
    if shape == "small":
        s = draw(st.sampled_from([4, 3, 2, 1]))  # simplest first: S = 4
        i_c, o_c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        i_h, i_w = draw(st.integers(3, 10)), draw(st.integers(3, 10))
        p_max = (s * (min(i_h, i_w) - 1) + k - 1) // 2  # both output extents >= 1
        off = s - 1 - draw(st.integers(0, s - 1))  # P mod S, simplest first: S - 1
        p = min(p_max, s * draw(st.integers(0, 2)) + off)
    else:
        s, i_c, o_c = draw(st.integers(1, 2)), draw(st.integers(65, 130)), 1
        short = draw(st.integers(1, 2))  # input extent of the short axis
        p = draw(st.integers(0, min((s * (short - 1) + k - 1) // 2, 8)))
        shift = _tdc_shift(k, s, p)
        pixels = ops._BAND_ELEMS // (i_c * (-(-k // s)) ** 2)  # per band
        if shape == "tall":
            band = pixels // (short + shift)  # whole rows per band
            tail = draw(st.integers(1, band - 1)) if band > 1 else 1
            n_long = max(band + tail, 1 + shift)  # an input extent >= 1
            i_h, i_w = n_long - shift, short
        else:
            n_long = pixels + draw(st.integers(1, pixels - 1))
            i_h, i_w = short, n_long - shift
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(-1, 1, (i_c, i_h, i_w)).astype(np.float32)
    w = rng.uniform(-1, 1, (i_c, o_c, k, k)).astype(np.float32)
    return x, w, DeconvParams(k, s, p)


@settings(PROPERTY, max_examples=40)
@given(tdc_cases())
def test_phase_stacked_tdc_matches_the_loop_oracle(case):
    x, w, params = case
    want = ref_deconv(x, w, params.stride, params.padding)
    for fn in (deconv_tdc, deconv_revd):
        got = fn(Tensor(x), Tensor(w), params).data
        assert got.shape == want.shape, fn.__name__
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-4, err_msg=fn.__name__)


@st.composite
def raw_tensors(draw):
    """Tensors of rank 1-4 whose payload is arbitrary float32 bit patterns
    (NaNs, infinities, -0.0 and subnormals included)."""
    if draw(st.booleans()):  # square rank-4 tensors also make kernel packages
        i_c, o_c, k = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
        dims = (i_c, o_c, k, k)
    else:
        dims = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
    payload = draw(st.binary(min_size=4 * int(np.prod(dims)), max_size=4 * int(np.prod(dims))))
    return Tensor(np.frombuffer(payload, dtype="<f4").reshape(dims))


@settings(PROPERTY, max_examples=60)
@given(raw_tensors())
def test_tensor_and_package_round_trip_bit_exact(t):
    buf = io.BytesIO()
    write_tensor(t, buf)
    back = read_tensor(io.BytesIO(buf.getvalue()))
    assert back.dims == t.dims and back.data.tobytes() == t.data.tobytes()
    if t.data.ndim == 4 and t.dims[2] == t.dims[3]:
        buf = io.BytesIO()
        prov = provenance_for("native-deconv", t.dims[2], 0, 1, t)
        write_package(t, prov, buf)
        kernels, back_prov = read_package(io.BytesIO(buf.getvalue()))
        assert kernels.data.tobytes() == t.data.tobytes() and back_prov == prov


def _file_bytes(write) -> bytes:
    buf = io.BytesIO()
    write(buf)
    return buf.getvalue()


_RNG = np.random.default_rng(5)
_CONV = Tensor(_RNG.uniform(-1, 1, (4, 2, 3, 3)).astype(np.float32))
_KERNELS = weight_shuffle(_CONV, 2)
_INPUT = _file_bytes(lambda f: write_tensor(Tensor(_RNG.uniform(-1, 1, (2, 4, 4))), f))
_PACKAGE = _file_bytes(
    lambda f: write_package(_KERNELS, provenance_for("sub-pixel", 3, 1, 2, _KERNELS), f)
)
_INPUT_HEADER = 4 + 3 + 4 * 3
_KERNELS_HEADER = 4 + 3 + 4 * 4
# tensor header, then the provenance length and JSON after the payload
_PROVENANCE = _KERNELS_HEADER + 4 * _KERNELS.size
_PACKAGE_HEADER = [*range(_KERNELS_HEADER), *range(_PROVENANCE, len(_PACKAGE))]


@st.composite
def mutated_files(draw):
    """The input and package bytes, one of them with 1-3 header bytes replaced."""
    target = draw(st.sampled_from(["input", "package"]))
    data = bytearray(_INPUT if target == "input" else _PACKAGE)
    offsets = range(_INPUT_HEADER) if target == "input" else _PACKAGE_HEADER
    for _ in range(draw(st.integers(1, 3))):
        data[draw(st.sampled_from(offsets))] = draw(st.integers(0, 255))
    return (bytes(data), _PACKAGE) if target == "input" else (_INPUT, bytes(data))


@settings(PROPERTY, max_examples=150)
@given(mutated_files(), st.sampled_from([None, "3x3"]))
def test_infer_on_mutated_headers_exits_cleanly(files, tiles):
    with tempfile.TemporaryDirectory() as tmp:
        xfile, pkg = Path(tmp) / "x.upst", Path(tmp) / "p.upkg"
        xfile.write_bytes(files[0])
        pkg.write_bytes(files[1])
        argv = ["infer", "--input", str(xfile), "--package", str(pkg),
                "--out", str(Path(tmp) / "y.upst")]
        err = io.StringIO()
        # an exception escaping cli.main (a traceback) fails the example
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv + (["--tiles", tiles] if tiles else []))
    assert code in (0, 2, 3)
    if code:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
