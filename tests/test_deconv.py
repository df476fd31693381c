import os
import subprocess
import sys
import textwrap
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from reference_impls import ref_deconv, ref_deconv_scatter

import upsample
from upsample import deconv
from upsample.costmodel import tdc_zero_fraction
from upsample.deconv import (
    DeconvParams,
    deconv_revd,
    deconv_revd2,
    deconv_standard,
    deconv_strd,
    deconv_tdc,
    grid_tiles,
    zero_insert,
    _phase_map,
    _standard_float64,
)
from upsample.ops import GeometryError, MacCounter
from upsample.tensor import ShapeError, Tensor, max_abs_diff
from upsample.transforms import (
    derive_params_nn,
    derive_params_subpixel,
    flip_kernels,
    tdc_transform_kernels,
    weight_convolution,
    weight_shuffle,
)

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


def test_standard_scatter_order_is_bitwise_the_block_scatter(rng, monkeypatch):
    # The float64 accumulator must sum each pixel's terms in input raster order,
    # as a block-by-block scatter does; float32 outputs alone hide a reordering.
    # The grid has I = 1, K < S (stride holes) and P >= K (taps with empty spans).
    # band_rows shrinks the scatter's budget to that many input rows per band, so
    # the 3- and 4-row inputs span several bands (the last one short for 3 rows).
    extents = [(1, 1), (1, 4), (3, 5), (4, 2)]
    grid = [(k, s, p, extents) for k in range(1, 10) for s in range(1, 5) for p in range(6)]
    # the verify suite's largest oracle kernels, those of its transform cases:
    # K^D = rK = 9, 10, 15 at S = r = 3, 2, 3 with P^D = rP = 3, 4, 6, and here
    # P = 0 and P = K^D too; two extents keep them quick
    grid += [
        (k, s, p, extents[2:])
        for k in (9, 10, 15) for s in (2, 3) for p in (0, 4, 6, k)
    ]
    cases = 0
    for band_rows in (None, 1, 2):
        for k, s, p, sizes in grid:
            for i_h, i_w in sizes:
                params = DeconvParams(k, s, p)
                if min(s * (i_h - 1), s * (i_w - 1)) + k - 2 * p < 1:
                    continue
                if band_rows is not None:  # O_C = 2
                    elems = band_rows * 2 * k * k * i_w
                    monkeypatch.setattr(deconv, "_SCATTER_ELEMS", elems)
                x = rng.uniform(-1, 1, (2, i_h, i_w)).astype(np.float32)
                w = rng.uniform(-1, 1, (2, 2, k, k)).astype(np.float32)
                got = _standard_float64(Tensor(x), Tensor(w), params, None)
                want = ref_deconv_scatter(x, w, s, p)
                where = f"K={k} S={s} P={p} in={i_h}x{i_w} band_rows={band_rows}"
                assert got.tobytes() == want.tobytes(), where
                cases += 1
    assert cases > 1600


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
        ((4, 4), (2, 3, 3, 3), DeconvParams(3, 2, 0)),  # rank-2 input
        ((2, 4, 4), (2, 3, 3), DeconvParams(3, 2, 0)),  # rank-3 kernels
        ((2, 4, 4), (2, 3, 3, 4), DeconvParams(3, 2, 0)),  # non-square kernels
    ],
    ids=["channels", "extent", "input-rank", "kernel-rank", "non-square"],
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
    mono64 = _phase_map(x, w, params, None, None, np.float64)
    mono = deconv_revd2(x, w, params)
    _, o_h, o_w = mono.dims
    for th, tw in [(1, 1), (1, o_w), (o_h, 1), (3, 3), (4, s + 1)]:
        tiles = grid_tiles(o_h, o_w, th, tw)
        rng.shuffle(tiles)
        assert _phase_map(x, w, params, None, tiles, np.float64).tobytes() == mono64.tobytes()
        assert deconv_revd2(x, w, params, tiles=tiles).data.tobytes() == mono.data.tobytes()
    assert max_abs_diff(mono, deconv_standard(x, w, params)) <= 1e-4


def test_revd2_runs_no_zero_tap_macs(rng, monkeypatch):
    # NN resize at r=3: K^D=5, S=3, P=1, so K_T=2, but phase 2 has one tap
    # per axis.  Full K_T x K_T slices would execute 36/25 of the MACs.
    # revd runs the same phase traversal as revd2, so it skips them too.
    # tdc runs the same engine with all S^2 phases in one matrix: it still
    # executes the K_T x K_T taps of every phase, zero taps included.
    params = derive_params_nn(3, 1, 3)
    k, s, p = params.kernel_size, params.stride, params.padding
    assert (k, s, p) == (5, 3, 1)
    x = Tensor(rng.uniform(-1, 1, (2, 4, 5)).astype(np.float32))
    w = Tensor(rng.uniform(-1, 1, (2, 3, k, k)).astype(np.float32))
    o_h, o_w = params.out_extent(4), params.out_extent(5)
    taps_h = sum(-(-(k - (o + p) % s) // s) for o in range(o_h))
    taps_w = sum(-(-(k - (o + p) % s) // s) for o in range(o_w))
    gemm = deconv._gemm_bands
    macs, mats = [], []

    def counting(windows, w2, dst, *args):
        rows, window = w2.shape
        macs.append(rows * window * dst.shape[-2] * dst.shape[-1])
        mats.append(w2)
        gemm(windows, w2, dst, *args)

    monkeypatch.setattr(deconv, "_gemm_bands", counting)
    for tiles in (None, grid_tiles(o_h, o_w, 4, 5)):
        macs.clear()
        deconv_revd2(x, w, params, tiles=tiles)
        assert sum(macs) == 2 * 3 * taps_h * taps_w  # I_C * O_C * taps per output
    macs.clear()
    deconv_revd(x, w, params)  # the same phases, untiled, one GEMM per band
    assert sum(macs) == 2 * 3 * taps_h * taps_w
    macs.clear()
    mats.clear()
    deconv_tdc(x, w, params)
    k_t = -(-k // s)
    n_u, n_v = (o_h - 1 + p % s) // s + 1, (o_w - 1 + p % s) // s + 1
    assert {m.shape for m in mats} == {(s * s * 3, 2 * k_t * k_t)}  # 27 rows, 8 elements
    assert sum(macs) == n_u * n_v * s * s * 3 * 2 * k_t * k_t
    # the share of exact zeros is the cost model's, 11/36: K^2 of (S*K_T)^2 taps are real
    assert all(1 - np.count_nonzero(m) / m.size == tdc_zero_fraction(k, s) for m in mats)


def _recording_gemm(monkeypatch):
    """Route ``deconv._gemm_bands`` through a recorder of each call's matrix
    and executed MACs (rows x window elements x outputs filled)."""
    gemm = deconv._gemm_bands
    calls = []

    def recording(windows, w2, dst, *args):
        rows, window = w2.shape
        calls.append((w2, rows * window * dst.shape[-2] * dst.shape[-1]))
        gemm(windows, w2, dst, *args)

    monkeypatch.setattr(deconv, "_gemm_bands", recording)
    return calls


def test_revd_and_revd2_run_tdc_matrix_when_s_divides_k(rng, monkeypatch):
    # the sub-pixel geometry of deploy-sp-hires: K=6, S=2, P=2.  P mod S = 0
    # and every phase has K_T^2 = 9 taps, so revd and revd2 stack all S^2
    # phases into one matrix, the one tdc runs
    x = Tensor(rng.uniform(-1, 1, (3, 7, 6)).astype(np.float32))
    w = Tensor(rng.uniform(-1, 1, (3, 2, 6, 6)).astype(np.float32))
    params = DeconvParams(6, 2, 2)
    calls = _recording_gemm(monkeypatch)
    deconv_tdc(x, w, params)
    (tdc_mat, _), = calls
    assert tdc_mat.shape == (2 * 2 * 2, 3 * 3 * 3)
    for variant in (deconv_revd, deconv_revd2):
        calls.clear()
        variant(x, w, params)
        assert len(calls) == 1, variant.__name__
        assert calls[0][0].tobytes() == tdc_mat.tobytes(), variant.__name__


@pytest.mark.parametrize(
    "k, s, p, shapes",
    [
        # K_T = 3; phase 0 has 3 taps per axis, phase 1 two
        (5, 2, 2, [(3, 18), (3, 12), (3, 12), (3, 8)]),
        # K_T = 3; phase 0 has 3 taps per axis, phases 1 and 2 two: the
        # groups are 1 and 2 phases wide, so one stack holds 2 x 2 phases
        (7, 3, 3, [(3, 18), (6, 12), (6, 12), (12, 8)]),
    ],
)
def test_revd_stacks_tap_count_groups_without_zero_taps(rng, monkeypatch, k, s, p, shapes):
    # kernels with no zero, so a zero matrix entry can only be a padded tap
    x = Tensor(rng.uniform(-1, 1, (2, 5, 4)).astype(np.float32))
    w = Tensor(rng.uniform(0.5, 1, (2, 3, k, k)).astype(np.float32))
    params = DeconvParams(k, s, p)
    calls = _recording_gemm(monkeypatch)
    for variant in (deconv_revd, deconv_revd2):
        calls.clear()
        variant(x, w, params)
        mats = [m for m, _ in calls]
        assert sorted(m.shape for m in mats) == sorted(shapes), variant.__name__
        assert all(np.count_nonzero(m) == m.size for m in mats), variant.__name__


@pytest.mark.parametrize("k, s, p", [(6, 2, 2), (5, 2, 2), (7, 3, 3), (5, 3, 0), (4, 4, 4)])
def test_grouped_stacks_execute_only_real_tap_macs(rng, monkeypatch, k, s, p):
    # with P mod S = 0 the super-pixel grid starts at output 0, and the last
    # super-pixel holds exactly the phases of K_T taps: untiled, or on tiles
    # whose edges are multiples of S, the grouped stacks execute I_C * O_C *
    # taps MACs per output, and the stack list, a function of (K, S, P),
    # gives every tiling the same matrices
    x = Tensor(rng.uniform(-1, 1, (2, 7, 5)).astype(np.float32))
    w = Tensor(rng.uniform(-1, 1, (2, 3, k, k)).astype(np.float32))
    params = DeconvParams(k, s, p)
    o_h, o_w = params.out_extent(7), params.out_extent(5)
    taps_h = sum(-(-(k - (o + p) % s) // s) for o in range(o_h))
    taps_w = sum(-(-(k - (o + p) % s) // s) for o in range(o_w))
    calls = _recording_gemm(monkeypatch)
    deconv_revd(x, w, params)
    assert sum(macs for _, macs in calls) == 2 * 3 * taps_h * taps_w
    mats = [m.tobytes() for m, _ in calls]
    for tiles in (None, grid_tiles(o_h, o_w, s, s), grid_tiles(o_h, o_w, 2 * s, 3 * s)):
        calls.clear()
        deconv_revd2(x, w, params, tiles=tiles)
        assert sum(macs for _, macs in calls) == 2 * 3 * taps_h * taps_w
        assert {m.tobytes() for m, _ in calls} == set(mats)


_TILINGS_ON_ONE_THREAD = textwrap.dedent(
    """
    import numpy as np
    from upsample.deconv import DeconvParams, _phase_map, grid_tiles
    from upsample.tensor import Tensor

    rng = np.random.default_rng(12)
    # (I_C, O_C, I_H, I_W, K, S, P); I_C = 70 splits each phase into bands,
    # and the last two stack tap-count groups of phases (P mod S = 0)
    for i_c, o_c, i_h, i_w, k, s, p in [
        (70, 2, 20, 21, 4, 2, 1), (3, 2, 7, 9, 5, 3, 1), (5, 3, 6, 5, 3, 2, 0),
        (3, 2, 9, 7, 6, 2, 2), (2, 3, 6, 5, 5, 2, 2),
    ]:
        x = Tensor(rng.uniform(-1, 1, (i_c, i_h, i_w)).astype(np.float32))
        w = Tensor(rng.uniform(-1, 1, (i_c, o_c, k, k)).astype(np.float32))
        params = DeconvParams(k, s, p)
        mono = _phase_map(x, w, params, None, None, np.float64)
        _, o_h, o_w = mono.shape
        for _ in range(6):
            th, tw = (int(v) for v in rng.integers(1, [o_h + 1, o_w + 1]))
            tiles = grid_tiles(o_h, o_w, th, tw)
            rng.shuffle(tiles)
            tiled = _phase_map(x, w, params, None, tiles, np.float64)
            assert tiled.tobytes() == mono.tobytes(), (i_c, k, s, p, th, tw)
    """
)


def test_revd2_tilings_are_bitwise_on_one_blas_thread():
    # the benchmark pins BLAS to one thread, where the GEMM kernels may
    # split their work differently from the default thread count
    src = os.path.dirname(os.path.dirname(upsample.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _TILINGS_ON_ONE_THREAD],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


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


@pytest.mark.parametrize(
    "dims, limit_mb",
    [
        # a sub-pixel layer, 3x128x128 at r=2: strd convolves a 3x255x255
        # zero-inserted map with 6x6 kernels.  Unfolded whole, its float64
        # im2col would be 108 x 65536 (about 56 MB)
        ((3, 128, 128), 8),
        # one 8191-wide row: unfolded a row at a time, 108 x 8192 (7 MB)
        ((3, 1, 4096), 4),
    ],
    ids=["3x128x128", "3x1x4096"],
)
def test_strd_im2col_runs_in_bands(rng, dims, limit_mb):
    # in bands, the peak stays near the padded copy and the output
    x = Tensor(rng.uniform(-1, 1, dims).astype(np.float32))
    w = weight_shuffle(Tensor(rng.uniform(-1, 1, (12, 3, 3, 3)).astype(np.float32)), 2)
    tracemalloc.start()
    try:
        deconv_strd(x, w, derive_params_subpixel(3, 1, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mb * 2**20


def test_revd2_splits_a_wide_row_into_bands(rng):
    # NN-resize at r=2 on one 2048-wide row of 32 channels: each phase has
    # 2048 pixels of 128 window elements.  The padded copy, the float32 map
    # and its cropped copy come to about 3.5 MiB (a float64 map would add
    # 2 MiB at its cast); unfolding the whole row at once adds 4 MiB of
    # columns and products, and two-channel pair terms added 64 MiB.  revd
    # runs the same phases into the same float32 map, one GEMM per band, so
    # the same bound holds.
    x = Tensor(rng.uniform(-1, 1, (32, 1, 2048)).astype(np.float32))
    w = weight_convolution(Tensor(rng.uniform(-1, 1, (32, 32, 3, 3)).astype(np.float32)), 2)
    for variant in (deconv_revd2, deconv_revd):
        tracemalloc.start()
        try:
            variant(x, w, derive_params_nn(3, 1, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 * 2**20, variant.__name__


def test_standard_scatters_in_bands_of_input_rows(rng):
    # the sub-pixel layer of the test below, K=6: the uncropped float64 map,
    # 3x260x260 (1.5 MiB), and one band's contribution block.  A 128-wide
    # input row is 3*6*6*128 block elements, so the 3 MiB budget takes 28
    # rows and the 128 rows run as 5 bands of 26: a 2.7 MiB buffer, plus the
    # band's float64 input and the add's buffers (0.3 MiB), about 4.5 MiB.
    # The whole (3, 6, 6, 128, 128) block at once is 13.5 MiB more.
    x = Tensor(rng.uniform(-1, 1, (3, 128, 128)).astype(np.float32))
    w = weight_shuffle(Tensor(rng.uniform(-1, 1, (12, 3, 3, 3)).astype(np.float32)), 2)
    params = derive_params_subpixel(3, 1, 2)
    assert (params.kernel_size, params.stride, params.padding) == (6, 2, 2)
    tracemalloc.start()
    try:
        deconv_standard(x, w, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def test_tdc_writes_float32_in_bands(rng):
    # a sub-pixel layer, 3x128x128 at r=2: the padded float64 input (0.4 MiB),
    # one band's columns and products (0.7 MiB) and the float32 output
    # (0.75 MiB).  A float64 map of the output would add 1.5 MiB more.
    x = Tensor(rng.uniform(-1, 1, (3, 128, 128)).astype(np.float32))
    w = weight_shuffle(Tensor(rng.uniform(-1, 1, (12, 3, 3, 3)).astype(np.float32)), 2)
    params = derive_params_subpixel(3, 1, 2)
    tracemalloc.start()
    try:
        out = deconv_tdc(x, w, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20
    assert deconv_tdc(x, w, params).data.tobytes() == out.data.tobytes()


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
    deconv_revd(x, w, params, counter=c)
    assert c.macs == 3 * o * o * 2 * 4  # revd2's loop: O_C*O_H*O_W*I_C*K_T^2, K_T=2
    c = MacCounter()
    deconv_revd2(x, w, params, counter=c)
    assert c.macs == 3 * o * o * 2 * 4  # O_C*O_H*O_W*I_C*K_T^2, K_T=2
    c = MacCounter()
    deconv_strd(x, w, params, counter=c)
    assert c.macs == 3 * o * o * 2 * 16  # conv over zero-inserted map, K^2 taps
    c = MacCounter()
    deconv_tdc(x, w, params, counter=c)
    assert c.macs == 3 * o * o * 2 * 4  # same tiles as REVD2
    # NN resize at r=3 (K=5, S=3, P=1, K_T=2): K is no multiple of S, so the
    # output loops count O^2*K_T^2 = 576 slots per channel pair where
    # standard counts I^2*K^2 = 400
    params = derive_params_nn(3, 1, 3)
    assert (params.kernel_size, params.stride, params.padding) == (5, 3, 1)
    w = Tensor(rng.uniform(-1, 1, (2, 3, 5, 5)).astype(np.float32))
    o = params.out_extent(4)
    c = MacCounter()
    deconv_standard(x, w, params, counter=c)
    assert c.macs == 2 * 4 * 4 * 3 * 25  # I_C*I_H*I_W*O_C*K^2
    for variant in (deconv_revd, deconv_revd2, deconv_tdc):
        c = MacCounter()
        variant(x, w, params, counter=c)
        assert c.macs == 3 * o * o * 2 * 4  # O_C*O_H*O_W*I_C*K_T^2, K_T=2
