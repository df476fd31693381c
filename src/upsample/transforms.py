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


class InvalidKernelError(ValueError):
    """Kernel size is not a valid same-padded geometry (odd K with K = 2P+1)."""


def _check_valid_kernel(k: int, p: int, r: int) -> None:
    if k < 1 or k % 2 == 0:
        raise InvalidKernelError(f"kernel size must be odd and >= 1, got K={k}")
    if k != 2 * p + 1:
        raise InvalidKernelError(f"same-padded kernels require K = 2P+1, got K={k}, P={p}")
    if r < 1:
        raise InvalidKernelError(f"upsampling factor must be >= 1, got r={r}")


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

    The result is C-contiguous: a strided view would stay strided through
    ``astype`` and slow every per-tap contraction of ``deconv_strd``.
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


def tdc_transform_kernels(deconv_kernels: Tensor, stride: int) -> Tensor:
    """Slice (I_C, O_C, K, K) deconv kernels into (O_C, I_C, S^2, K_T, K_T)
    phase kernels with K_T = ceil(K/S).

    Slice n = S*(k_h mod S) + (k_w mod S) receives element (k_h, k_w) at the
    reversed position K_T - ceil((k+1)/S) per axis; positions introduced by
    the padding P_K = S*K_T - K stay exactly zero.
    """
    if deconv_kernels.data.ndim != 4:
        raise ShapeError(f"deconv kernels must be rank 4, got dims {deconv_kernels.dims}")
    if stride < 1:
        raise InvalidKernelError(f"stride must be >= 1, got {stride}")
    i_c, o_c, k, k2 = deconv_kernels.dims
    if k != k2:
        raise ShapeError(f"kernels must be square, got {k}x{k2}")
    k_t = -(-k // stride)
    idx = np.arange(k)
    phase = idx % stride
    reversed_t = k_t - idx // stride - 1  # K_T - ceil((k+1)/S)
    n = stride * phase[:, None] + phase[None, :]
    out = np.zeros((o_c, i_c, stride * stride, k_t, k_t), dtype=np.float32)
    # channel axes swapped
    out[:, :, n, reversed_t[:, None], reversed_t] = deconv_kernels.data.transpose(1, 0, 2, 3)
    return Tensor(out)


def mac_reduction_ratio_nn(k: int, r: int) -> float:
    """Ratio of deconvolution MACs to NN resize convolution MACs after the
    weight convolution: (r + K - 1)^2 / (K^2 * r^2)."""
    _check_valid_kernel(k, (k - 1) // 2, r)
    return (r + k - 1) ** 2 / (k * k * r * r)
