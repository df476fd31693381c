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
from upsample.ops import ConvParams, resize_conv, subpixel_conv
from upsample.tensor import ShapeError, Tensor, max_abs_diff
from upsample.transforms import (
    InvalidKernelError,
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
    w = rng.uniform(-1, 1, (4, 1, 3, 3)).astype(np.float32)
    out = weight_shuffle(Tensor(w), 2)
    assert out.dims == (1, 1, 6, 6)
    assert np.array_equal(out.data, ref_weight_shuffle(w, 2))


def test_weight_shuffle_multichannel_matches_oracle(rng):
    w = rng.uniform(-1, 1, (18, 3, 5, 5)).astype(np.float32)
    out = weight_shuffle(Tensor(w), 3)
    assert out.dims == (3, 2, 15, 15)
    assert np.array_equal(out.data, ref_weight_shuffle(w, 3))


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
    for k, s in [(3, 2), (4, 2), (5, 3), (6, 2)]:
        w = rng.uniform(-1, 1, (2, 3, k, k)).astype(np.float32)
        assert np.array_equal(tdc_transform_kernels(Tensor(w), s).data, ref_tdc_transform(w, s))


def test_mac_reduction_ratio_values():
    assert mac_reduction_ratio_nn(3, 2) == pytest.approx(16 / 36)
    assert mac_reduction_ratio_nn(3, 3) == pytest.approx(25 / 81)
    assert mac_reduction_ratio_nn(1, 4) == 1.0  # pointwise kernels gain nothing
