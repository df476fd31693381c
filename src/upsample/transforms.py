"""One-time kernel transformations from trained convolutions to deconvolutions.

A model trained with sub-pixel convolution or NN resize convolution can run
inference as a plain deconvolution once its kernels are rewritten:

* ``weight_shuffle`` interleaves the r^2 groups of K x K sub-pixel kernels
  into one rK x rK deconvolution kernel (and reverses element indices).
* ``weight_convolution`` sums the index-reversed K x K kernel over r x r
  placements into a (K+r-1) x (K+r-1) deconvolution kernel, collapsing the
  work NN interpolation would otherwise replicate.

Both pair with closed-form parameter derivations (``derive_params_*``, each
returning the ``DeconvParams`` (K^D, S, P^D) that every deconvolution variant
takes; the package format checks its provenance records against them) and
hold for the valid same-padded kernel sizes K = 2P + 1 (3, 5, 7, 9, ...).
``tdc_transform_kernels`` additionally slices any deconvolution kernel into
the S^2 phase kernels used by the TDC execution variant, and ``flip_kernels``
maps kernels between the conv and deconv layouts (``weight_convolution`` and
the STRD variant use it).

Conv kernels are (out_channels, in_channels, K, K); deconv kernels are
(in_channels, out_channels, K, K).  Transformations are pure and cheap: they
run once before deployment, never per inference pass.
"""
from __future__ import annotations

import numpy as np

from .ops import DeconvParams
from .tensor import ShapeError, Tensor


# largest upsampling factor r accepted (the paper uses r <= 4); bounds the
# (K+r-1)^2 kernels and the r^2 placements of ``weight_convolution``
MAX_FACTOR = 16


class InvalidKernelError(ValueError):
    """Kernel size is not a valid same-padded geometry (odd K with K = 2P+1),
    or the upsampling factor is outside [1, MAX_FACTOR]."""


def _check_valid_kernel(k: int, p: int, r: int) -> None:
    if k < 1 or k % 2 == 0:
        raise InvalidKernelError(f"kernel size must be odd and >= 1, got K={k}")
    if k != 2 * p + 1:
        raise InvalidKernelError(f"same-padded kernels require K = 2P+1, got K={k}, P={p}")
    if not 1 <= r <= MAX_FACTOR:
        raise InvalidKernelError(
            f"upsampling factor must be >= 1 and <= {MAX_FACTOR}, got r={r}"
        )


def derive_params_subpixel(k: int, p: int, r: int) -> DeconvParams:
    """Sub-pixel convolution as a deconvolution: S=r, K^D=rK, P^D=rP."""
    _check_valid_kernel(k, p, r)
    return DeconvParams(kernel_size=r * k, stride=r, padding=r * p)


def derive_params_nn(k: int, p: int, r: int) -> DeconvParams:
    """NN resize convolution as a deconvolution: S=r, K^D=K+r-1, P^D=P."""
    _check_valid_kernel(k, p, r)
    return DeconvParams(kernel_size=k + r - 1, stride=r, padding=p)


def _check_conv_kernels(conv_kernels: Tensor, r: int) -> tuple[int, int, int]:
    """(O_C, I_C, K) of square rank-4 conv kernels with a valid same-padded K."""
    if conv_kernels.data.ndim != 4:
        raise ShapeError(f"conv kernels must be rank 4, got dims {conv_kernels.dims}")
    o_c, i_c, k, k2 = conv_kernels.dims
    if k != k2:
        raise ShapeError(f"kernels must be square, got {k}x{k2}")
    _check_valid_kernel(k, (k - 1) // 2, r)
    return o_c, i_c, k


def weight_shuffle(conv_kernels: Tensor, r: int) -> Tensor:
    """Interleave (r^2*O_C, I_C, K, K) sub-pixel conv kernels into
    (I_C, O_C, rK, rK) deconvolution kernels.

    Element (k_h, k_w) of the deconv kernel comes from conv output-channel
    group r*(k_h mod r) + (k_w mod r) at reversed position
    (K-1 - k_h//r, K-1 - k_w//r), mirroring the pixel shuffle's index map
    plus the index reversal a deconvolution needs.
    """
    c_out, i_c, k = _check_conv_kernels(conv_kernels, r)
    if c_out % (r * r) != 0:
        raise ShapeError(f"conv output channels {c_out} not divisible by r^2 = {r * r}")
    o_c = c_out // (r * r)
    kd = r * k
    idx = np.arange(kd)
    group = idx % r               # which of the r interleaved groups per axis
    src = k - 1 - idx // r        # reversed source element index
    # o_c^c = r^2*o_c^d + r*group(k_h) + group(k_w), gathered for all (k_h, k_w)
    chan = (r * group[:, None] + group[None, :])  # (kd, kd) offsets within a group block
    gathered = conv_kernels.data.reshape(o_c, r * r, i_c, k, k)[
        :, chan, :, src[:, None], src[None, :]
    ]
    # gathered axes: (k_h, k_w, o_c, i_c) -> (i_c, o_c, k_h, k_w)
    return Tensor(np.ascontiguousarray(gathered.transpose(3, 2, 0, 1)))


def flip_kernels(kernels: np.ndarray) -> np.ndarray:
    """Swap the two channel axes of rank-4 kernels and reverse both spatial
    axes.  This maps conv kernels to deconv kernels and back, so applying it
    twice gives the input.

    The result is C-contiguous, so ``deconv_strd`` reshapes it into its GEMM
    kernel matrix without a further copy.
    """
    return np.ascontiguousarray(kernels.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])


def weight_convolution(conv_kernels: Tensor, r: int) -> Tensor:
    """Sum r x r placements of the index-reversed (O_C, I_C, K, K) kernels
    into (I_C, O_C, K+r-1, K+r-1) deconvolution kernels.

    Overlapping placements accumulate, so each deconv element is the sum of
    every reversed-kernel element covering it.
    """
    o_c, i_c, k = _check_conv_kernels(conv_kernels, r)
    kd = k + r - 1
    reversed_k = flip_kernels(conv_kernels.data).astype(np.float64)
    out = np.zeros((i_c, o_c, kd, kd), dtype=np.float64)
    for a in range(r):
        for b in range(r):
            out[:, :, a : a + k, b : b + k] += reversed_k
    return Tensor(out.astype(np.float32))


def _phase_taps(kernels: np.ndarray, stride: int) -> np.ndarray:
    """(I_C, O_C, K, K) deconv kernels as an (S, S, O_C, I_C, K_T, K_T) view
    of their phase kernels, K_T = ceil(K/S): the slicing of
    ``tdc_transform_kernels``, which ``deconv._phase_map`` copies straight
    into its float64 matrices.

    The kernels are zero-padded to S*K_T (one copy, only when S does not
    divide K), each axis is reshaped to (K_T, S) and its K_T axis reversed:
    element k = S*j + phase lands at position K_T-1-j of its phase's slice,
    which is K_T - ceil((k+1)/S).
    """
    i_c, o_c, k, _ = kernels.shape
    k_t = -(-k // stride)
    if k != k_t * stride:
        padded = np.zeros((i_c, o_c, k_t * stride, k_t * stride), dtype=kernels.dtype)
        padded[:, :, :k, :k] = kernels
        kernels = padded
    taps = kernels.reshape(i_c, o_c, k_t, stride, k_t, stride)[:, :, ::-1, :, ::-1]
    return taps.transpose(3, 5, 1, 0, 2, 4)


def tdc_transform_kernels(deconv_kernels: Tensor, stride: int) -> Tensor:
    """Slice (I_C, O_C, K, K) deconv kernels into (O_C, I_C, S^2, K_T, K_T)
    phase kernels with K_T = ceil(K/S).

    Slice n = S*(k_h mod S) + (k_w mod S) receives element (k_h, k_w) at the
    reversed position K_T - ceil((k+1)/S) per axis; positions introduced by
    the padding P_K = S*K_T - K stay exactly zero.  The slicing is the view
    of ``_phase_taps``: views and copies, no index arrays.
    """
    if deconv_kernels.data.ndim != 4:
        raise ShapeError(f"deconv kernels must be rank 4, got dims {deconv_kernels.dims}")
    if stride < 1:
        raise InvalidKernelError(f"stride must be >= 1, got {stride}")
    i_c, o_c, k, k2 = deconv_kernels.dims
    if k != k2:
        raise ShapeError(f"kernels must be square, got {k}x{k2}")
    k_t = -(-k // stride)
    # copied tap by tap with the channels innermost, then as one (taps, I_C,
    # O_C) -> (O_C, I_C, taps) transpose: one copy straight into the output's
    # order runs in pieces of K_T elements, which is slower on wide kernels
    phases = _phase_taps(deconv_kernels.data, stride)
    taps = np.ascontiguousarray(phases.transpose(0, 1, 4, 5, 3, 2))
    out = taps.reshape(-1, i_c, o_c).transpose(2, 1, 0)
    return Tensor(out.reshape(o_c, i_c, stride * stride, k_t, k_t))


def mac_reduction_ratio_nn(k: int, r: int) -> float:
    """Ratio of deconvolution MACs to NN resize convolution MACs after the
    weight convolution: (r + K - 1)^2 / (K^2 * r^2)."""
    _check_valid_kernel(k, (k - 1) // 2, r)
    return (r + k - 1) ** 2 / (k * k * r * r)
