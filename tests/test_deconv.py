from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from reference_impls import ref_deconv, ref_deconv_scatter

from upsample import deconv
from upsample.deconv import (
    DeconvParams,
    deconv_revd,
    deconv_revd2,
    deconv_standard,
    deconv_strd,
    deconv_tdc,
    grid_tiles,
    zero_insert,
    _revd2_float64,
    _standard_float64,
)
from upsample.ops import GeometryError, MacCounter
from upsample.tensor import ShapeError, Tensor, max_abs_diff
from upsample.transforms import flip_kernels, tdc_transform_kernels

ALL_VARIANTS = {
    "standard": deconv_standard,
    "revd": deconv_revd,
    "revd2": deconv_revd2,
    "strd": deconv_strd,
    "tdc": deconv_tdc,
}


def fig6_case():
    # 2x2 ones deconvolved with a 4x4 ones kernel, S=2, P=1 -> 4x4 output
    x = Tensor(np.ones((1, 2, 2), dtype=np.float32))
    w = Tensor(np.ones((1, 1, 4, 4), dtype=np.float32))
    return x, w, DeconvParams(4, 2, 1)


def test_standard_fig6_hand_unrolled():
    x, w, params = fig6_case()
    out = deconv_standard(x, w, params)
    # hand-unrolled overlap counts: rows/cols receive [1,2,2,1] contributions
    expected = np.outer([1, 2, 2, 1], [1, 2, 2, 1]).astype(np.float32)
    assert out.dims == (1, 4, 4)
    assert np.array_equal(out.data[0], expected)


def test_standard_scaling_degenerate_geometry(rng):
    x = Tensor(rng.uniform(-1, 1, (1, 3, 3)).astype(np.float32))
    w = Tensor(np.array([[[[2.5]]]], dtype=np.float32))
    out = deconv_standard(x, w, DeconvParams(1, 1, 0))
    assert np.allclose(out.data, 2.5 * x.data)


def test_standard_matches_reference_loops(rng):
    x = rng.uniform(-1, 1, (3, 5, 5)).astype(np.float32)
    w = rng.uniform(-1, 1, (3, 2, 4, 4)).astype(np.float32)
    got = deconv_standard(Tensor(x), Tensor(w), DeconvParams(4, 2, 1))
    assert got.dims == (2, 10, 10)  # S*(I_H-1) + K - 2P
    assert max_abs_diff(got, Tensor(ref_deconv(x, w, 2, 1))) <= 1e-5


def test_standard_scatter_order_is_bitwise_the_block_scatter(rng):
    # The float64 accumulator must sum each pixel's terms in input raster order,
    # as a block-by-block scatter does; float32 outputs alone hide a reordering.
    # The grid has I = 1, K < S (stride holes) and P >= K (taps with empty spans).
    cases = 0
    for k in range(1, 10):
        for s in range(1, 5):
            for p in range(6):
                for i_h, i_w in [(1, 1), (1, 4), (3, 5)]:
                    params = DeconvParams(k, s, p)
                    if min(s * (i_h - 1), s * (i_w - 1)) + k - 2 * p < 1:
                        continue
                    x = rng.uniform(-1, 1, (2, i_h, i_w)).astype(np.float32)
                    w = rng.uniform(-1, 1, (2, 2, k, k)).astype(np.float32)
                    got = _standard_float64(Tensor(x), Tensor(w), params, None)
                    want = ref_deconv_scatter(x, w, s, p)
                    assert got.tobytes() == want.tobytes(), f"K={k} S={s} P={p} in={i_h}x{i_w}"
                    cases += 1
    assert cases > 250


def test_output_extent_shape_law(rng):
    for k, s, p, ih in [(4, 2, 1, 5), (3, 1, 1, 4), (6, 3, 2, 3), (2, 2, 0, 4)]:
        x = Tensor(rng.uniform(-1, 1, (2, ih, ih)).astype(np.float32))
        w = Tensor(rng.uniform(-1, 1, (2, 3, k, k)).astype(np.float32))
        expected = s * (ih - 1) + k - 2 * p
        for fn in ALL_VARIANTS.values():
            assert fn(x, w, DeconvParams(k, s, p)).dims == (3, expected, expected)


def test_nonpositive_output_extent_rejected(rng):
    x = Tensor(rng.uniform(-1, 1, (1, 1, 1)).astype(np.float32))
    w = Tensor(rng.uniform(-1, 1, (1, 1, 2, 2)).astype(np.float32))
    with pytest.raises(GeometryError):
        deconv_standard(x, w, DeconvParams(2, 1, 1))


@pytest.mark.parametrize(
    "input_dims, kernel_dims, params",
    [
        ((3, 4, 4), (2, 2, 3, 3), DeconvParams(3, 2, 0)),  # input channels
        ((2, 4, 4), (2, 3, 3, 3), DeconvParams(4, 2, 1)),  # kernel extent
    ],
    ids=["channels", "extent"],
)
@pytest.mark.parametrize("name", deconv.VARIANTS)
def test_channel_mismatch_rejected(rng, name, input_dims, kernel_dims, params):
    x = Tensor(rng.uniform(-1, 1, input_dims).astype(np.float32))
    w = Tensor(rng.uniform(-1, 1, kernel_dims).astype(np.float32))
    with pytest.raises(ShapeError):
        deconv.run(name, x, w, params)


@pytest.mark.parametrize("name", ["revd", "revd2", "strd", "tdc"])
def test_variants_match_standard_on_fig6(name):
    x, w, params = fig6_case()
    ref = deconv_standard(x, w, params)
    assert max_abs_diff(ref, ALL_VARIANTS[name](x, w, params)) == 0.0


def test_five_way_equivalence_randomized(rng):
    for _ in range(25):
        i_c, o_c = (int(v) for v in rng.integers(1, 5, 2))
        i_h, i_w = (int(v) for v in rng.integers(2, 9, 2))
        k = int(rng.integers(2, 7))
        s = int(rng.integers(1, 4))
        p = int(rng.integers(0, 3))
        if s * (i_h - 1) + k - 2 * p < 1 or s * (i_w - 1) + k - 2 * p < 1:
            continue
        x = Tensor(rng.uniform(-1, 1, (i_c, i_h, i_w)).astype(np.float32))
        w = Tensor(rng.uniform(-1, 1, (i_c, o_c, k, k)).astype(np.float32))
        params = DeconvParams(k, s, p)
        ref = deconv_standard(x, w, params)
        for name, fn in ALL_VARIANTS.items():
            err = max_abs_diff(ref, fn(x, w, params))
            assert err <= 1e-4, f"{name} diverges: {err} at K={k} S={s} P={p}"


def test_degenerate_kernel_smaller_than_stride(rng):
    # K < S leaves stride holes with zero contributions; all variants agree
    x = Tensor(rng.uniform(-1, 1, (2, 4, 4)).astype(np.float32))
    w = Tensor(rng.uniform(-1, 1, (2, 2, 1, 1)).astype(np.float32))
    params = DeconvParams(1, 2, 0)
    ref = deconv_standard(x, w, params)
    assert (ref.data[:, 1::2, :] == 0).all()
    for fn in ALL_VARIANTS.values():
        assert max_abs_diff(ref, fn(x, w, params)) == 0.0


def test_revd_stride1_equals_flipped_correlation(rng):
    x = Tensor(rng.uniform(-1, 1, (2, 5, 5)).astype(np.float32))
    w = Tensor(rng.uniform(-1, 1, (2, 3, 3, 3)).astype(np.float32))
    params = DeconvParams(3, 1, 1)
    assert max_abs_diff(deconv_revd(x, w, params), deconv_standard(x, w, params)) == 0.0


def test_revd2_16_independent_7x7_tiles(rng):
    # 14x14 input, S=2 -> 28x28 output split into sixteen 7x7 workloads
    x = Tensor(rng.uniform(-1, 1, (2, 14, 14)).astype(np.float32))
    w = Tensor(rng.uniform(-1, 1, (2, 2, 4, 4)).astype(np.float32))
    params = DeconvParams(4, 2, 1)
    mono = deconv_revd2(x, w, params)
    assert mono.dims == (2, 28, 28)
    tiles = grid_tiles(28, 28, 7, 7)
    assert len(tiles) == 16
    tiled = deconv_revd2(x, w, params, tiles=tiles)
    assert mono.data.tobytes() == tiled.data.tobytes()


def test_revd2_tiling_bitwise_any_rectangles(rng):
    x = Tensor(rng.uniform(-1, 1, (3, 6, 5)).astype(np.float32))
    w = Tensor(rng.uniform(-1, 1, (3, 2, 5, 5)).astype(np.float32))
    params = DeconvParams(5, 2, 2)
    mono = deconv_revd2(x, w, params)
    o_c, o_h, o_w = mono.dims
    for _ in range(5):
        th = int(rng.integers(1, o_h + 1))
        tw = int(rng.integers(1, o_w + 1))
        tiles = grid_tiles(o_h, o_w, th, tw)
        rng.shuffle(tiles)
        tiled = deconv_revd2(x, w, params, tiles=tiles)
        assert mono.data.tobytes() == tiled.data.tobytes()


def test_revd2_tiles_run_concurrently(rng):
    x = Tensor(rng.uniform(-1, 1, (2, 10, 10)).astype(np.float32))
    w = Tensor(rng.uniform(-1, 1, (2, 2, 4, 4)).astype(np.float32))
    params = DeconvParams(4, 2, 1)
    mono = deconv_revd2(x, w, params)
    o_c, o_h, o_w = mono.dims
    tiles = grid_tiles(o_h, o_w, 7, 7)  # 7 is not divisible by S=2

    def run(rect):
        return rect, deconv_revd2(x, w, params, tiles=[rect])

    merged = np.zeros(mono.dims, dtype=np.float32)
    with ThreadPoolExecutor(max_workers=4) as pool:
        for rect, partial in pool.map(run, tiles):
            h0, h1, w0, w1 = rect
            merged[:, h0:h1, w0:w1] = partial.data[:, h0:h1, w0:w1]
    assert merged.tobytes() == mono.data.tobytes()


@pytest.mark.parametrize("i_c", [1, 33, 257])
@pytest.mark.parametrize("o_c", [1, 4])
@pytest.mark.parametrize("k, s, p", [(4, 2, 1), (5, 3, 1)])
def test_revd2_tile_identity_covers_matmul(rng, i_c, o_c, k, s, p):
    # Channel contractions run through BLAS, whose summation order may change with
    # the number of columns, so compare the float64 accumulators as well as the
    # float32 outputs.  Tiles: 1x1, 1xW, Hx1, an odd tile, an edge not divisible by S.
    x = Tensor(rng.uniform(-1, 1, (i_c, 5, 6)).astype(np.float32))
    w = Tensor(rng.uniform(-1, 1, (i_c, o_c, k, k)).astype(np.float32))
    params = DeconvParams(k, s, p)
    mono64 = _revd2_float64(x, w, params, None, None)
    mono = deconv_revd2(x, w, params)
    _, o_h, o_w = mono.dims
    for th, tw in [(1, 1), (1, o_w), (o_h, 1), (3, 3), (4, s + 1)]:
        tiles = grid_tiles(o_h, o_w, th, tw)
        rng.shuffle(tiles)
        assert _revd2_float64(x, w, params, None, tiles).tobytes() == mono64.tobytes()
        assert deconv_revd2(x, w, params, tiles=tiles).data.tobytes() == mono.data.tobytes()
    assert max_abs_diff(mono, deconv_standard(x, w, params)) <= 1e-4


def test_revd2_rejects_out_of_range_tiles(rng):
    x = Tensor(rng.uniform(-1, 1, (1, 3, 3)).astype(np.float32))
    w = Tensor(rng.uniform(-1, 1, (1, 1, 2, 2)).astype(np.float32))
    with pytest.raises(GeometryError):
        deconv_revd2(x, w, DeconvParams(2, 2, 0), tiles=[(0, 9, 0, 2)])


def test_zero_insert_extent_and_content(rng):
    x = rng.uniform(0.5, 1.0, (1, 2, 2)).astype(np.float32)
    z = zero_insert(Tensor(x), 2)
    assert z.dims == (1, 3, 3)
    assert z.data[0, 0, 0] == x[0, 0, 0] and z.data[0, 2, 2] == x[0, 1, 1]
    assert z.data[0, 1, 1] == 0.0 and z.data[0, 0, 1] == 0.0


def test_strd_fig7_intermediate_geometry():
    x, w, params = fig6_case()
    z = zero_insert(x, params.stride)
    assert z.dims == (1, 3, 3)  # 2x2 input -> 3x3 zero-inserted map
    out = deconv_strd(x, w, params)  # conv with S=1, P = K-1-P = 2
    assert max_abs_diff(out, deconv_standard(x, w, params)) == 0.0


def test_strd_stride1_is_flipped_conv_no_insertion(rng):
    x = Tensor(rng.uniform(-1, 1, (2, 4, 4)).astype(np.float32))
    assert zero_insert(x, 1) == x
    w = Tensor(rng.uniform(-1, 1, (2, 2, 3, 3)).astype(np.float32))
    params = DeconvParams(3, 1, 1)
    assert max_abs_diff(deconv_strd(x, w, params), deconv_standard(x, w, params)) == 0.0


def test_strd_handles_padding_larger_than_kernel(rng):
    # K=2, P=2 makes the equivalent convolution padding negative (a crop)
    x = Tensor(rng.uniform(-1, 1, (1, 5, 5)).astype(np.float32))
    w = Tensor(rng.uniform(-1, 1, (1, 2, 2, 2)).astype(np.float32))
    params = DeconvParams(2, 1, 2)
    ref = deconv_standard(x, w, params)
    assert ref.dims == (2, 2, 2)
    assert max_abs_diff(deconv_strd(x, w, params), ref) == 0.0


def test_flip_kernels_for_conv(rng):
    w = rng.uniform(-1, 1, (2, 3, 4, 4)).astype(np.float32)
    flipped = flip_kernels(w)
    assert flipped.shape == (3, 2, 4, 4)
    assert flipped[1, 0, 0, 0] == w[0, 1, 3, 3]
    assert np.array_equal(flip_kernels(flipped), w)


def test_tdc_stride1_single_slice(rng):
    x = Tensor(rng.uniform(-1, 1, (2, 4, 4)).astype(np.float32))
    w = Tensor(rng.uniform(-1, 1, (2, 2, 3, 3)).astype(np.float32))
    sliced = tdc_transform_kernels(w, 1)
    assert sliced.dims == (2, 2, 1, 3, 3)
    params = DeconvParams(3, 1, 1)
    assert max_abs_diff(deconv_tdc(x, w, params), deconv_standard(x, w, params)) == 0.0


def test_tdc_padded_kernel_case(rng):
    # K=3 not divisible by S=2: slices carry explicit zeros, output still equal
    x = Tensor(rng.uniform(-1, 1, (2, 5, 5)).astype(np.float32))
    w = Tensor(rng.uniform(-1, 1, (2, 3, 3, 3)).astype(np.float32))
    params = DeconvParams(3, 2, 1)
    sliced = tdc_transform_kernels(w, 2)
    assert (sliced.data == 0).sum() >= 2 * 3 * 4  # padded positions present
    assert max_abs_diff(deconv_tdc(x, w, params), deconv_standard(x, w, params)) == 0.0


def test_strd_intermediate_sparsity_formula(rng):
    # fraction of zeros in the zero-inserted map matches the closed form
    for s, h in [(2, 4), (3, 5), (2, 7)]:
        x = Tensor(rng.uniform(0.5, 1.0, (1, h, h)).astype(np.float32))
        z = zero_insert(x, s)
        zeros = int((z.data == 0).sum())
        total = z.size
        expected = 1 - (h * h) / ((s * (h - 1) + 1) ** 2)
        assert zeros / total == pytest.approx(expected, abs=1e-12)


def test_mac_counters_follow_loop_structures(rng):
    x = Tensor(rng.uniform(-1, 1, (2, 4, 4)).astype(np.float32))
    w = Tensor(rng.uniform(-1, 1, (2, 3, 4, 4)).astype(np.float32))
    params = DeconvParams(4, 2, 1)
    o = params.out_extent(4)
    c = MacCounter()
    deconv_standard(x, w, params, counter=c)
    assert c.macs == 2 * 4 * 4 * 3 * 16  # I_C*I_H*I_W*O_C*K^2
    c = MacCounter()
    deconv_revd2(x, w, params, counter=c)
    assert c.macs == 3 * o * o * 2 * 4  # O_C*O_H*O_W*I_C*K_T^2, K_T=2
    c = MacCounter()
    deconv_strd(x, w, params, counter=c)
    assert c.macs == 3 * o * o * 2 * 16  # conv over zero-inserted map, K^2 taps
    c = MacCounter()
    deconv_tdc(x, w, params, counter=c)
    assert c.macs == 3 * o * o * 2 * 4  # same tiles as REVD2
