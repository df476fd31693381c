import numpy as np
import pytest
from reference_impls import ref_tdc_transform, ref_weight_shuffle

from upsample.deconv import (
    deconv_revd,
    deconv_revd2,
    deconv_standard,
    deconv_strd,
    deconv_tdc,
)
from upsample.ops import ConvParams, _windows, resize_conv, subpixel_conv
from upsample.tensor import ShapeError, Tensor, max_abs_diff
from upsample.transforms import (
    MAX_FACTOR,
    InvalidKernelError,
    _phase_taps,
    derive_params_nn,
    derive_params_subpixel,
    mac_reduction_ratio_nn,
    tdc_transform_kernels,
    weight_convolution,
    weight_shuffle,
)


def test_derive_subpixel_examples():
    d = derive_params_subpixel(3, 1, 2)
    assert (d.stride, d.kernel_size, d.padding) == (2, 6, 2)
    d = derive_params_subpixel(3, 1, 1)
    assert (d.stride, d.kernel_size, d.padding) == (1, 3, 1)
    d = derive_params_subpixel(9, 4, 3)
    assert (d.stride, d.kernel_size, d.padding) == (3, 27, 12)


def test_derive_nn_examples():
    d = derive_params_nn(3, 1, 2)
    # exactly the 4x4 kernel, S=2, P=1 deconvolution geometry
    assert (d.stride, d.kernel_size, d.padding) == (2, 4, 1)
    d = derive_params_nn(3, 1, 1)
    assert (d.stride, d.kernel_size, d.padding) == (1, 3, 1)
    d = derive_params_nn(5, 2, 4)
    assert (d.stride, d.kernel_size, d.padding) == (4, 8, 2)


@pytest.mark.parametrize("derive", [derive_params_subpixel, derive_params_nn])
def test_derivations_preserve_shape_law(derive):
    # deconv output extent S(H-1)+K^D-2P^D must equal r*H for any H
    for k, p, r in [(3, 1, 2), (5, 2, 3), (7, 3, 4), (9, 4, 2)]:
        d = derive(k, p, r)
        for h in (1, 2, 5, 16):
            out = d.stride * (h - 1) + d.kernel_size - 2 * d.padding
            assert out == r * h


@pytest.mark.parametrize("derive", [derive_params_subpixel, derive_params_nn])
def test_derivations_reject_invalid_kernels(derive):
    with pytest.raises(InvalidKernelError):
        derive(4, 1, 2)  # even K
    with pytest.raises(InvalidKernelError):
        derive(5, 1, 2)  # K != 2P+1
    with pytest.raises(InvalidKernelError):
        derive(3, 1, 0)  # r < 1


def test_weight_shuffle_r1_k1_identity(rng):
    w = Tensor(rng.uniform(-1, 1, (2, 3, 1, 1)).astype(np.float32))
    out = weight_shuffle(w, 1)
    assert out.dims == (3, 2, 1, 1)
    assert np.array_equal(out.data, w.data.transpose(1, 0, 2, 3))


def test_weight_shuffle_matches_index_map_oracle(rng):
    # every factor and kernel size, one and several channels, and a -0.0 whose
    # sign a bytes comparison sees
    for r in range(1, MAX_FACTOR + 1):
        for k in (1, 3, 5, 7):
            for i_c, o_c in ((1, 1), (3, 2)):
                w = rng.uniform(-1, 1, (r * r * o_c, i_c, k, k)).astype(np.float32)
                w.flat[rng.integers(w.size)] = -0.0
                out = weight_shuffle(Tensor(w), r)
                assert out.dims == (i_c, o_c, r * k, r * k)
                assert out.data.tobytes() == ref_weight_shuffle(w, r).tobytes(), (r, k, i_c)


def test_weight_shuffle_multichannel_matches_oracle(rng):
    w = rng.uniform(-1, 1, (18, 3, 5, 5)).astype(np.float32)
    out = weight_shuffle(Tensor(w), 3)
    assert out.dims == (3, 2, 15, 15)
    assert np.array_equal(out.data, ref_weight_shuffle(w, 3))


def test_subpixel_tdc_is_the_conv_with_its_rows_permuted(rng):
    # The paper's sub-pixel claim, exact on this backend: tdc multiplies the
    # conv's own (r^2*O_C, I_C*K^2) matrix, its rows permuted from (o_c, g) to
    # (g, o_c), by the conv's own windows.  Plain array equality, no GEMM.
    i_c, o_c, h, w = 2, 2, 5, 4
    x = rng.uniform(-1, 1, (i_c, h, w)).astype(np.float32)
    for r in range(1, MAX_FACTOR + 1):
        for k in (1, 3, 5, 7):
            p = (k - 1) // 2
            conv = rng.uniform(-1, 1, (r * r * o_c, i_c, k, k)).astype(np.float32)
            phases = _phase_taps(weight_shuffle(Tensor(conv), r).data, r)
            rows = conv.reshape(o_c, r, r, i_c, k, k).transpose(1, 2, 0, 3, 4, 5)
            assert np.array_equal(phases, rows), (r, k)
            # _phase_map's window view: K_T = K, from super-pixel u0 = P^D // S
            d = derive_params_subpixel(k, p, r)
            k_t, u0 = -(-d.kernel_size // d.stride), d.padding // d.stride
            n_u, n_v = (d.out_extent(h) - 1) // r + 1, (d.out_extent(w) - 1) // r + 1
            windows = _windows(x, k_t - 1, k_t)[:, u0 : u0 + n_u, u0 : u0 + n_v]
            assert np.array_equal(windows, _windows(x, p, k)), (r, k)


def test_weight_shuffle_preserves_value_multiset(rng):
    w = rng.uniform(-1, 1, (8, 2, 3, 3)).astype(np.float32)
    out = weight_shuffle(Tensor(w), 2)
    assert np.array_equal(np.sort(out.data, axis=None), np.sort(w, axis=None))


def test_weight_shuffle_rejects_bad_channels(rng):
    with pytest.raises(ShapeError):
        weight_shuffle(Tensor(rng.uniform(-1, 1, (6, 2, 3, 3)).astype(np.float32)), 2)


def test_weight_shuffle_end_to_end_equivalence(rng):
    x = Tensor(rng.uniform(-1, 1, (3, 8, 8)).astype(np.float32))
    w = Tensor(rng.uniform(-1, 1, (12, 3, 3, 3)).astype(np.float32))
    ref = subpixel_conv(x, w, ConvParams(3, 1, 1), 2)
    d = derive_params_subpixel(3, 1, 2)
    got = deconv_standard(x, weight_shuffle(w, 2), d)
    assert max_abs_diff(ref, got) <= 1e-4


def test_weight_convolution_r1_is_reversed_kernel(rng):
    w = rng.uniform(-1, 1, (2, 3, 3, 3)).astype(np.float32)
    out = weight_convolution(Tensor(w), 1)
    assert out.dims == (3, 2, 3, 3)
    assert np.array_equal(out.data, w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])


def test_weight_convolution_closed_form_row_sums(rng):
    # K=3, r=2 scalar case; weights on a 1/16 grid so float sums are exact
    w = (rng.integers(-16, 17, (1, 1, 3, 3)).astype(np.float32)) / 16.0
    wd = weight_convolution(Tensor(w), 2).data[0, 0]
    v = w[0, 0]
    assert wd.shape == (4, 4)
    assert wd[1, 0] == v[1, 2] + v[2, 2]
    assert wd[1, 1] == v[1, 1] + v[2, 1] + v[1, 2] + v[2, 2]
    assert wd[1, 2] == v[1, 0] + v[1, 1] + v[2, 0] + v[2, 1]
    assert wd[1, 3] == v[1, 0] + v[2, 0]


def test_weight_convolution_total_sum_scales_with_r_squared(rng):
    w = rng.uniform(-1, 1, (2, 3, 5, 5)).astype(np.float32)
    for r in (1, 2, 3):
        out = weight_convolution(Tensor(w), r)
        assert float(out.data.sum()) == pytest.approx(r * r * float(w.sum()), rel=1e-5)


def test_weight_convolution_rejects_even_kernels(rng):
    with pytest.raises(InvalidKernelError):
        weight_convolution(Tensor(rng.uniform(-1, 1, (1, 1, 4, 4)).astype(np.float32)), 2)


def test_weight_convolution_caps_the_factor(rng):
    w = Tensor(rng.uniform(-1, 1, (1, 1, 3, 3)).astype(np.float32))
    assert weight_convolution(w, MAX_FACTOR).dims == (1, 1, MAX_FACTOR + 2, MAX_FACTOR + 2)
    # above the cap it fails before sizing the (K+r-1)^2 buffer
    for r in (MAX_FACTOR + 1, 1_000_000):
        with pytest.raises(InvalidKernelError, match=f"<= {MAX_FACTOR}, got r={r}"):
            weight_convolution(w, r)


def test_weight_convolution_end_to_end_equivalence(rng):
    x = Tensor(rng.uniform(-1, 1, (3, 8, 8)).astype(np.float32))
    w = Tensor(rng.uniform(-1, 1, (3, 3, 3, 3)).astype(np.float32))
    ref = resize_conv(x, w, ConvParams(3, 1, 1), 2)
    d = derive_params_nn(3, 1, 2)
    got = deconv_standard(x, weight_convolution(w, 2), d)
    assert max_abs_diff(ref, got) <= 1e-4


def test_transformed_kernels_work_with_every_variant(rng):
    # the equivalences hold regardless of which formulation executes the result
    x = Tensor(rng.uniform(-1, 1, (2, 6, 6)).astype(np.float32))
    wsp = Tensor(rng.uniform(-1, 1, (8, 2, 3, 3)).astype(np.float32))
    ref = subpixel_conv(x, wsp, ConvParams(3, 1, 1), 2)
    params = derive_params_subpixel(3, 1, 2)
    shuffled = weight_shuffle(wsp, 2)
    executions = [
        deconv_standard(x, shuffled, params),
        deconv_revd(x, shuffled, params),
        deconv_revd2(x, shuffled, params),
        deconv_strd(x, shuffled, params),
        deconv_tdc(x, shuffled, params),
    ]
    for out in executions:
        assert max_abs_diff(ref, out) <= 1e-4


def test_tdc_transform_stride1(rng):
    w = rng.uniform(-1, 1, (2, 3, 4, 4)).astype(np.float32)
    out = tdc_transform_kernels(Tensor(w), 1)
    assert out.dims == (3, 2, 1, 4, 4)
    assert np.array_equal(out.data[:, :, 0], w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])


def test_tdc_transform_divisible_no_zeros(rng):
    w = rng.uniform(0.1, 1.0, (1, 1, 4, 4)).astype(np.float32)
    out = tdc_transform_kernels(Tensor(w), 2)
    assert out.dims == (1, 1, 4, 2, 2)
    assert not (out.data == 0).any()
    assert np.array_equal(out.data, ref_tdc_transform(w, 2))


def test_tdc_transform_padded_matches_oracle(rng):
    w = rng.uniform(0.1, 1.0, (2, 2, 3, 3)).astype(np.float32)
    out = tdc_transform_kernels(Tensor(w), 2)
    assert np.array_equal(out.data, ref_tdc_transform(w, 2))
    assert float((out.data == 0).mean()) == pytest.approx(1 - 9 / 16)


def test_tdc_transform_matches_oracle_over_k_and_s(rng):
    # K < S leaves most of each phase kernel zero; S divides K needs no padding
    for k in range(1, 16):
        for s in range(1, 5):
            w = rng.uniform(-1, 1, (2, 3, k, k)).astype(np.float32)
            got = tdc_transform_kernels(Tensor(w), s).data
            assert got.tobytes() == ref_tdc_transform(w, s).tobytes(), f"K={k} S={s}"


def test_mac_reduction_ratio_values():
    assert mac_reduction_ratio_nn(3, 2) == pytest.approx(16 / 36)
    assert mac_reduction_ratio_nn(3, 3) == pytest.approx(25 / 81)
    assert mac_reduction_ratio_nn(1, 4) == 1.0  # pointwise kernels gain nothing
