"""Forward convolution-based upsampling building blocks.

Implements the standard convolution loop nest, the pixel shuffle, nearest
neighbor interpolation, and the two composite upsamplers built from them:
sub-pixel convolution (conv then shuffle) and NN resize convolution
(interpolate then conv).

Conventions shared package-wide:

* feature maps are (channels, height, width); conv kernels are
  (out_channels, in_channels, K, K)
* padding is virtual zero-extension: out-of-bounds reads contribute 0 and no
  padded buffer is materialized
* accumulation happens in float64 and results are stored as float32
* every operation that performs multiply-accumulates accepts an optional
  ``MacCounter`` and adds one count per loop slot, including slots whose
  input read falls in the zero padding (this matches how the requirement
  tables count MACs); the pixel shuffle and NN interpolation only move data
  and take no counter
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError, Tensor


class GeometryError(ValueError):
    """Spatial extents, stride and padding do not produce a valid output."""


class MacCounter:
    """Accumulates multiply-accumulate slot counts from executing operations."""

    __slots__ = ("macs",)

    def __init__(self) -> None:
        self.macs = 0

    def add(self, n: int) -> None:
        self.macs += int(n)

    def __repr__(self) -> str:
        return f"MacCounter(macs={self.macs})"


def _check_geometry(params) -> None:
    for name, least in (("kernel_size", 1), ("stride", 1), ("padding", 0)):
        if getattr(params, name) < least:
            raise GeometryError(f"{name} must be >= {least}, got {getattr(params, name)}")


@dataclass(frozen=True)
class ConvParams:
    """Convolution geometry: square kernel size, stride, symmetric padding."""

    kernel_size: int
    stride: int = 1
    padding: int = 0

    __post_init__ = _check_geometry

    @property
    def is_same_padded(self) -> bool:
        return self.stride == 1 and self.kernel_size == 2 * self.padding + 1

    def out_extent(self, in_extent: int) -> int:
        span = in_extent - self.kernel_size + 2 * self.padding
        if span < 0 or span % self.stride != 0:
            raise GeometryError(
                f"no integral output extent for in={in_extent} "
                f"K={self.kernel_size} S={self.stride} P={self.padding}"
            )
        return span // self.stride + 1


@dataclass(frozen=True)
class DeconvParams:
    """Deconvolution geometry: square kernel size K, stride S, padding P
    (here, not in ``deconv``, so that ``transforms`` can return it)."""

    kernel_size: int
    stride: int
    padding: int

    __post_init__ = _check_geometry

    def out_extent(self, in_extent: int) -> int:
        out = self.stride * (in_extent - 1) + self.kernel_size - 2 * self.padding
        if out < 1:
            raise GeometryError(
                f"non-positive output extent {out} for in={in_extent} "
                f"K={self.kernel_size} S={self.stride} P={self.padding}"
            )
        return out


def _conv_accumulate(
    x: np.ndarray,
    w: np.ndarray,
    stride: int,
    padding: int,
    counter: MacCounter | None = None,
) -> np.ndarray:
    """Core correlation loop over kernel taps (stride 1+, any integer padding).

    Returns a float64 (O_C, O_H, O_W) accumulator.  For each tap (k_h, k_w)
    only the output range whose input read is in bounds is touched; reads in
    the virtual zero extension contribute nothing but still count as slots.
    A negative padding crops the input by that many pixels on every side
    (``deconv_strd`` passes K-1-P, negative when P > K-1); ``conv2d`` passes
    the padding >= 0 of its ``ConvParams``.
    """
    i_c, i_h, i_w = x.shape
    o_c, _, k, _ = w.shape
    o_h = (i_h - k + 2 * padding) // stride + 1
    o_w = (i_w - k + 2 * padding) // stride + 1
    out = np.zeros((o_c, o_h, o_w), dtype=np.float64)
    x64 = x.astype(np.float64)
    w64 = w.astype(np.float64)

    def tap_range(kk: int, out_extent: int, in_extent: int) -> tuple[int, int]:
        # o valid iff 0 <= stride*o + kk - padding < in_extent
        lo = max(0, -(-(padding - kk) // stride))  # ceil((P-k)/S)
        hi = min(out_extent - 1, (in_extent - 1 + padding - kk) // stride)
        return lo, hi

    for k_h in range(k):
        lo_h, hi_h = tap_range(k_h, o_h, i_h)
        for k_w in range(k):
            if counter is not None:
                counter.add(o_c * o_h * o_w * i_c)
            lo_w, hi_w = tap_range(k_w, o_w, i_w)
            if lo_h > hi_h or lo_w > hi_w:
                continue
            n_h = hi_h - lo_h + 1
            n_w = hi_w - lo_w + 1
            ih0 = stride * lo_h + k_h - padding
            iw0 = stride * lo_w + k_w - padding
            view = x64[:, ih0 : ih0 + n_h * stride : stride, iw0 : iw0 + n_w * stride : stride]
            out[:, lo_h : lo_h + n_h, lo_w : lo_w + n_w] += np.einsum(
                "ihw,oi->ohw", view, w64[:, :, k_h, k_w]
            )
    return out


def conv2d(
    input: Tensor,
    kernels: Tensor,
    params: ConvParams,
    counter: MacCounter | None = None,
) -> Tensor:
    """Standard strided correlation of a (C, H, W) map with (O_C, I_C, K, K) kernels.

    Output extent obeys O = (I - K + 2P)/S + 1; a non-integral or negative
    extent raises :class:`GeometryError`.
    """
    if input.data.ndim != 3:
        raise ShapeError(f"input must be rank 3, got dims {input.dims}")
    if kernels.data.ndim != 4:
        raise ShapeError(f"kernels must be rank 4, got dims {kernels.dims}")
    o_c, k_ic, k_h, k_w = kernels.dims
    if k_h != k_w or k_h != params.kernel_size:
        raise ShapeError(
            f"kernels spatial extents {k_h}x{k_w} do not match K={params.kernel_size}"
        )
    if k_ic != input.dims[0]:
        raise ShapeError(f"kernel input channels {k_ic} != input channels {input.dims[0]}")
    params.out_extent(input.dims[1])
    params.out_extent(input.dims[2])
    out = _conv_accumulate(input.data, kernels.data, params.stride, params.padding, counter)
    return Tensor(out.astype(np.float32))


def _check_factor(r: int) -> None:
    if r < 1:
        raise GeometryError(f"upsampling factor r must be >= 1, got {r}")


def pixel_shuffle(input: Tensor, r: int) -> Tensor:
    """Rearrange (r^2*C, H, W) channels into (C, r*H, r*W) space.

    out[c, o_h, o_w] = in[r^2*c + r*(o_h mod r) + (o_w mod r), o_h//r, o_w//r].
    Performs no arithmetic, so it takes no MAC counter.
    """
    _check_factor(r)
    c_in, h, w = input.dims
    if c_in % (r * r) != 0:
        raise ShapeError(f"channels {c_in} not divisible by r^2 = {r * r}")
    o_c = c_in // (r * r)
    arr = input.data.reshape(o_c, r, r, h, w)
    out = arr.transpose(0, 3, 1, 4, 2).reshape(o_c, h * r, w * r)
    return Tensor(np.ascontiguousarray(out))


def nn_interpolate(input: Tensor, r: int) -> Tensor:
    """Nearest neighbor upsampling: each pixel becomes an r x r block (no MACs)."""
    _check_factor(r)
    out = np.repeat(np.repeat(input.data, r, axis=1), r, axis=2)
    return Tensor(out)


def subpixel_conv(
    input: Tensor,
    kernels: Tensor,
    params: ConvParams,
    r: int,
    counter: MacCounter | None = None,
) -> Tensor:
    """Sub-pixel convolution: same-padded conv producing r^2*C channels, then shuffle."""
    if not params.is_same_padded:
        raise GeometryError(
            f"sub-pixel convolution requires S=1 and K=2P+1, got {params}"
        )
    _check_factor(r)
    if kernels.dims[0] % (r * r) != 0:
        raise ShapeError(
            f"kernel output channels {kernels.dims[0]} not divisible by r^2 = {r * r}"
        )
    return pixel_shuffle(conv2d(input, kernels, params, counter), r)


def resize_conv(
    input: Tensor,
    kernels: Tensor,
    params: ConvParams,
    r: int,
    counter: MacCounter | None = None,
) -> Tensor:
    """NN resize convolution: interpolate to (C, rH, rW), then same-padded conv."""
    if not params.is_same_padded:
        raise GeometryError(
            f"resize convolution requires S=1 and K=2P+1, got {params}"
        )
    return conv2d(nn_interpolate(input, r), kernels, params, counter)
