import threading

import numpy as np
import pytest
from reference_impls import ref_conv2d, ref_nn_interpolate, ref_pixel_shuffle

from upsample import deconv, ops
from upsample.ops import (
    ConvParams,
    DeconvParams,
    GeometryError,
    MacCounter,
    conv2d,
    nn_interpolate,
    pixel_shuffle,
    resize_conv,
    subpixel_conv,
)
from upsample.tensor import ShapeError, Tensor, max_abs_diff
from upsample.transforms import derive_params_subpixel, weight_shuffle


def test_conv2d_ones_2x2_same_padded():
    x = Tensor(np.ones((1, 2, 2), dtype=np.float32))
    w = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
    out = conv2d(x, w, ConvParams(3, 1, 1))
    # every output position sees exactly 4 in-bounds ones
    assert out.dims == (1, 2, 2)
    assert out.tolist() == [[[4.0, 4.0], [4.0, 4.0]]]


def test_conv2d_identity_1x1(rng):
    x = Tensor(rng.uniform(-1, 1, (3, 5, 7)).astype(np.float32))
    w = np.zeros((3, 3, 1, 1), dtype=np.float32)
    for c in range(3):
        w[c, c, 0, 0] = 1.0
    out = conv2d(x, Tensor(w), ConvParams(1, 1, 0))
    assert np.array_equal(out.data, x.data)


def test_conv2d_matches_reference_loops(rng):
    x = rng.uniform(-1, 1, (3, 8, 8)).astype(np.float32)
    w = rng.uniform(-1, 1, (12, 3, 3, 3)).astype(np.float32)
    got = conv2d(Tensor(x), Tensor(w), ConvParams(3, 1, 1))
    assert max_abs_diff(got, Tensor(ref_conv2d(x, w, 1, 1))) <= 1e-5


@pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (3, 0), (2, 2)])
def test_conv2d_shape_law(rng, stride, padding):
    k = 3
    for in_extent in range(k, 14):
        span = in_extent - k + 2 * padding
        if span < 0 or span % stride:
            continue
        x = Tensor(rng.uniform(-1, 1, (2, in_extent, in_extent)).astype(np.float32))
        w = Tensor(rng.uniform(-1, 1, (4, 2, k, k)).astype(np.float32))
        out = conv2d(x, w, ConvParams(k, stride, padding))
        assert out.dims == (4, span // stride + 1, span // stride + 1)


def test_conv2d_errors(rng):
    x = Tensor(rng.uniform(-1, 1, (3, 6, 6)).astype(np.float32))
    w = Tensor(rng.uniform(-1, 1, (4, 3, 3, 3)).astype(np.float32))
    bad = [
        (x, Tensor(rng.uniform(-1, 1, (4, 2, 3, 3)).astype(np.float32))),  # input channels
        (Tensor(x.data[0]), w),  # rank-2 input
        (x, Tensor(w.data[0])),  # rank-3 kernels
        (x, Tensor(w.data[..., :2])),  # non-square kernels
    ]
    for inp, kernels in bad:
        with pytest.raises(ShapeError):
            conv2d(inp, kernels, ConvParams(3, 1, 1))
    with pytest.raises(GeometryError):
        conv2d(x, w, ConvParams(3, 2, 0))  # (6-3)/2 not integral


def test_conv2d_mac_counter(rng):
    x = Tensor(rng.uniform(-1, 1, (3, 6, 6)).astype(np.float32))
    w = Tensor(rng.uniform(-1, 1, (4, 3, 3, 3)).astype(np.float32))
    counter = MacCounter()
    conv2d(x, w, ConvParams(3, 1, 1), counter)
    assert counter.macs == 4 * 6 * 6 * 3 * 3 * 3  # O_C*O_H*O_W*I_C*K^2


def test_pixel_shuffle_identity_r1(rng):
    x = Tensor(rng.uniform(-1, 1, (3, 4, 4)).astype(np.float32))
    assert pixel_shuffle(x, 1) == x


def test_pixel_shuffle_4x1x1():
    x = Tensor(np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32).reshape(4, 1, 1))
    out = pixel_shuffle(x, 2)
    assert out.dims == (1, 2, 2)
    assert out.tolist() == [[[1.0, 2.0], [3.0, 4.0]]]


def test_pixel_shuffle_matches_index_oracle(rng):
    x = rng.uniform(-1, 1, (8, 2, 2)).astype(np.float32)
    out = pixel_shuffle(Tensor(x), 2)
    assert out.dims == (2, 4, 4)
    assert np.array_equal(out.data, ref_pixel_shuffle(x, 2))


def test_pixel_shuffle_is_bijection(rng):
    x = rng.uniform(-1, 1, (18, 3, 5)).astype(np.float32)
    out = pixel_shuffle(Tensor(x), 3)
    assert np.array_equal(np.sort(out.data, axis=None), np.sort(x, axis=None))
    # inverse index map restores the input
    restored = np.zeros_like(x)
    r = 3
    for oc in range(out.dims[0]):
        for oh in range(out.dims[1]):
            for ow in range(out.dims[2]):
                restored[r * r * oc + r * (oh % r) + (ow % r), oh // r, ow // r] = out.data[
                    oc, oh, ow
                ]
    assert np.array_equal(restored, x)


def test_pixel_shuffle_divisibility_error(rng):
    with pytest.raises(ShapeError):
        pixel_shuffle(Tensor(rng.uniform(-1, 1, (6, 2, 2)).astype(np.float32)), 2)


@pytest.mark.parametrize("r", [0, -1])
def test_upsampling_factor_below_one_rejected(rng, r):
    x = Tensor(rng.uniform(-1, 1, (4, 2, 2)).astype(np.float32))
    w = Tensor(rng.uniform(-1, 1, (4, 4, 3, 3)).astype(np.float32))
    for upsample in (
        lambda: pixel_shuffle(x, r),
        lambda: nn_interpolate(x, r),
        lambda: subpixel_conv(x, w, ConvParams(3, 1, 1), r),
        lambda: resize_conv(x, w, ConvParams(3, 1, 1), r),
    ):
        with pytest.raises(GeometryError, match="r must be >= 1"):
            upsample()


@pytest.mark.parametrize("dims", [(4, 2), (1, 4, 2, 2)], ids=["rank-2", "rank-4"])
def test_upsamplers_reject_input_not_rank_3(rng, dims):
    x = Tensor(rng.uniform(-1, 1, dims).astype(np.float32))
    w = Tensor(rng.uniform(-1, 1, (4, 4, 3, 3)).astype(np.float32))
    for upsample in (
        lambda: pixel_shuffle(x, 2),
        lambda: nn_interpolate(x, 2),
        lambda: subpixel_conv(x, w, ConvParams(3, 1, 1), 2),
        lambda: resize_conv(x, w, ConvParams(3, 1, 1), 2),
    ):
        with pytest.raises(ShapeError, match="rank 3"):
            upsample()


def test_nn_interpolate_identity_r1(rng):
    x = Tensor(rng.uniform(-1, 1, (2, 3, 3)).astype(np.float32))
    assert nn_interpolate(x, 1) == x


def test_nn_interpolate_2x2_blocks():
    x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32).reshape(1, 2, 2))
    out = nn_interpolate(x, 2)
    assert out.tolist() == [
        [[1.0, 1.0, 2.0, 2.0], [1.0, 1.0, 2.0, 2.0], [3.0, 3.0, 4.0, 4.0], [3.0, 3.0, 4.0, 4.0]]
    ]


def test_nn_interpolate_matches_index_oracle(rng):
    x = rng.uniform(-1, 1, (3, 5, 7)).astype(np.float32)
    out = nn_interpolate(Tensor(x), 3)
    assert out.dims == (3, 15, 21)
    assert np.array_equal(out.data, ref_nn_interpolate(x, 3))


@pytest.mark.parametrize("o_c", [1, 2, 5])
@pytest.mark.parametrize("r", range(1, 7))
def test_rearrangements_match_index_oracles_bytewise(rng, r, o_c):
    for h, w in [(1, 1), (1, 7), (6, 1), (3, 5), (8, 8)]:
        for op, ref, c_in in (
            (pixel_shuffle, ref_pixel_shuffle, r * r * o_c),
            (nn_interpolate, ref_nn_interpolate, o_c),
        ):
            x = rng.uniform(-1, 1, (c_in, h, w)).astype(np.float32)
            out = op(Tensor(x), r).data
            assert out.tobytes() == ref(x, r).tobytes(), (op.__name__, h, w)
            assert out.shape == (o_c, r * h, r * w)
            assert out.flags.c_contiguous and not out.flags.writeable


def test_nn_interpolate_replicates_each_value_r_squared_times(rng):
    x = rng.uniform(-1, 1, (2, 4, 4)).astype(np.float32)
    out = nn_interpolate(Tensor(x), 2)
    values, counts = np.unique(out.data, return_counts=True)
    in_values, in_counts = np.unique(x, return_counts=True)
    assert np.array_equal(values, in_values)
    assert np.array_equal(counts, in_counts * 4)


def test_subpixel_conv_r1_is_plain_conv(rng):
    x = Tensor(rng.uniform(-1, 1, (3, 6, 6)).astype(np.float32))
    w = Tensor(rng.uniform(-1, 1, (2, 3, 3, 3)).astype(np.float32))
    params = ConvParams(3, 1, 1)
    assert subpixel_conv(x, w, params, 1) == conv2d(x, w, params)


def test_subpixel_conv_is_composition(rng):
    x = Tensor(rng.uniform(-1, 1, (1, 2, 2)).astype(np.float32))
    w = Tensor(rng.uniform(-1, 1, (4, 1, 3, 3)).astype(np.float32))
    params = ConvParams(3, 1, 1)
    out = subpixel_conv(x, w, params, 2)
    assert out.dims == (1, 4, 4)
    assert out == pixel_shuffle(conv2d(x, w, params), 2)


def test_subpixel_conv_output_extents(rng):
    x = Tensor(rng.uniform(-1, 1, (3, 8, 8)).astype(np.float32))
    w = Tensor(rng.uniform(-1, 1, (12, 3, 3, 3)).astype(np.float32))
    out = subpixel_conv(x, w, ConvParams(3, 1, 1), 2)
    assert out.dims == (3, 16, 16)


def test_subpixel_conv_requires_same_padding(rng):
    x = Tensor(rng.uniform(-1, 1, (3, 8, 8)).astype(np.float32))
    w = Tensor(rng.uniform(-1, 1, (12, 3, 3, 3)).astype(np.float32))
    with pytest.raises(GeometryError):
        subpixel_conv(x, w, ConvParams(3, 1, 0), 2)


def test_resize_conv_r1_is_plain_conv(rng):
    x = Tensor(rng.uniform(-1, 1, (3, 6, 6)).astype(np.float32))
    w = Tensor(rng.uniform(-1, 1, (2, 3, 3, 3)).astype(np.float32))
    params = ConvParams(3, 1, 1)
    assert resize_conv(x, w, params, 1) == conv2d(x, w, params)


def test_resize_conv_is_composition(rng):
    x = Tensor(rng.uniform(-1, 1, (1, 2, 2)).astype(np.float32))
    w = Tensor(rng.uniform(-1, 1, (1, 1, 3, 3)).astype(np.float32))
    params = ConvParams(3, 1, 1)
    out = resize_conv(x, w, params, 2)
    assert out.dims == (1, 4, 4)
    assert out == conv2d(nn_interpolate(x, 2), w, params)


def test_resize_conv_output_extents(rng):
    x = Tensor(rng.uniform(-1, 1, (3, 8, 8)).astype(np.float32))
    w = Tensor(rng.uniform(-1, 1, (3, 3, 3, 3)).astype(np.float32))
    assert resize_conv(x, w, ConvParams(3, 1, 1), 2).dims == (3, 16, 16)


def _address(a: np.ndarray) -> int:
    return a.__array_interface__["data"][0]


def test_workspace_starts_on_a_cache_line_and_is_kept(monkeypatch):
    monkeypatch.setattr(ops, "_LOCAL", threading.local())  # a fresh workspace
    for n in (1, 7, 1 << 16, 3 << 16):  # the last grows it
        ws = ops._workspace(n)
        assert ws.dtype == np.float64 and ws.shape == (n,) and ws.flags.c_contiguous
        assert _address(ws) % 64 == 0
    assert _address(ops._workspace(5)) == _address(ws)  # kept, not re-made


def _multi_band_layers(rng):
    """conv2d, strd, tdc and tiled revd2 on layers of several GEMM bands,
    with band widths that are no whole number of cache lines."""
    x = Tensor(rng.uniform(-1, 1, (3, 61, 45)).astype(np.float32))
    w = Tensor(rng.uniform(-1, 1, (12, 3, 3, 3)).astype(np.float32))
    kernels, params = weight_shuffle(w, 2), derive_params_subpixel(3, 1, 2)
    one = Tensor(rng.uniform(-1, 1, (3, 1, 5, 5)).astype(np.float32))  # one-row GEMMs
    tiles = [(h, min(122, h + 37), v, min(90, v + 29)) for h in range(0, 122, 37)
             for v in range(0, 90, 29)]
    return {
        "conv2d": lambda: conv2d(x, w, ConvParams(3, 1, 1)).data,
        "conv2d_one_row": lambda: conv2d(x, Tensor(w.data[:1]), ConvParams(3, 1, 1)).data,
        "strd": lambda: deconv.deconv_strd(x, kernels, params).data,
        "strd_one_row": lambda: deconv.deconv_strd(x, one, DeconvParams(5, 2, 1)).data,
        "tdc": lambda: deconv.deconv_tdc(x, kernels, params).data,
        "tdc_float64": lambda: deconv._phase_map(x, kernels, params, None, None, np.float64,
                                                 block=None),
        "revd2_tiled": lambda: deconv.deconv_revd2(x, kernels, params, tiles=tiles).data,
        "revd2_float64": lambda: deconv._phase_map(x, kernels, params, None, tiles, np.float64),
    }


@pytest.mark.parametrize("offset", [8, 16, 24, 32, 40, 48, 56])
def test_outputs_do_not_depend_on_the_workspace_alignment(rng, monkeypatch, offset):
    layers = _multi_band_layers(rng)
    aligned = {name: run().tobytes() for name, run in layers.items()}
    workspace = ops._workspace
    monkeypatch.setattr(ops, "_workspace", lambda n: workspace(n + 7)[offset // 8 :][:n])
    assert _address(ops._workspace(10)) % 64 == offset
    for name, run in layers.items():
        assert run().tobytes() == aligned[name], name


def test_outputs_share_no_memory_with_the_workspace(rng):
    layers = _multi_band_layers(rng)
    outputs = [layers[name]() for name in ("conv2d", "conv2d", "strd", "tdc", "revd2_tiled")]
    workspace = ops._LOCAL.workspace.base
    for i, out in enumerate(outputs):
        assert not np.shares_memory(out, workspace)
        for other in outputs[i + 1 :]:
            assert not np.shares_memory(out, other)


def test_concurrent_calls_match_serial_results(rng):
    layers = _multi_band_layers(rng)
    names = [("conv2d", "tdc_float64"), ("strd", "revd2_float64")]
    serial = {name: layers[name]().tobytes() for pair in names for name in pair}
    start, wrong, spaces = threading.Barrier(2), [], []

    def repeat(pair):
        start.wait()
        for _ in range(50):
            wrong.extend(name for name in pair if layers[name]().tobytes() != serial[name])
        spaces.append(ops._LOCAL.workspace)

    threads = [threading.Thread(target=repeat, args=(pair,)) for pair in names]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert wrong == []
    assert not np.shares_memory(*spaces)  # each thread unfolds into its own
