"""Forward convolution-based upsampling building blocks.

Implements the standard convolution, the pixel shuffle, nearest neighbor
interpolation, and the two composite upsamplers built from them: sub-pixel
convolution (conv then shuffle) and NN resize convolution (interpolate then
conv).  The convolution is one im2col GEMM per band of outputs
(``_gemm_bands``), the engine that ``deconv_strd`` and the phase engine of
``deconv_tdc``, ``deconv_revd`` and ``deconv_revd2`` share.  revd2 alone
runs it in GEMMs of a fixed ``block`` of columns, which keep its output
tiles bitwise identical.  One argument check, ``_check_layer``, serves ``conv2d`` and
every ``deconv`` variant, so a malformed input, kernel set or geometry
fails the same way in each.

Conventions shared package-wide:

* feature maps are (channels, height, width); conv kernels are
  (out_channels, in_channels, K, K)
* padding is zero-extension: a convolution makes one padded float64 copy of
  its input per call and processes it in bands of outputs
  (``_conv_accumulate``)
* accumulation happens in float64 and results are stored as float32; the
  GEMM engine (``_gemm_bands``) writes each band's float64 products straight
  into the float32 output, so the conv, strd, tdc, revd and revd2 keep no
  float64 map of their output.  The conv writes a band in one assignment; a
  phase stack whose phases interleave along a row writes it one phase at a
  time, so each write runs along the super-pixels
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


# float64 elements unfolded per band by ``_gemm_bands`` (512 KiB: stays in cache)
_BAND_ELEMS = 1 << 16


def _pad64(x: np.ndarray, padding: int) -> np.ndarray:
    """``x`` as a float64 copy, zero-extended by ``padding`` on every side of
    both spatial axes, or cropped by ``-padding`` when it is negative."""
    if padding < 0:
        x = x[:, -padding : x.shape[1] + padding, -padding : x.shape[2] + padding]
        padding = 0
    c, h, w = x.shape
    xp = np.zeros((c, h + 2 * padding, w + 2 * padding), dtype=np.float64)
    xp[:, padding : padding + h, padding : padding + w] = x
    return xp


def _bands(n_h: int, n_w: int, pixels: int):
    """Split an n_h x n_w grid of outputs into (a0, a1, b0, b1) bands of at
    most ``pixels`` (>= 1) outputs each: runs of whole rows, or pieces of one
    row when a row alone is over budget.  An empty grid has no bands."""
    width = max(1, min(n_w, pixels))
    band = pixels // width
    for a0 in range(0, n_h, band):
        for b0 in range(0, n_w, width):
            yield a0, min(n_h, a0 + band), b0, min(n_w, b0 + width)


def _windows(x: np.ndarray, padding: int, k: int, stride: int = 1) -> np.ndarray:
    """The K x K windows of ``x`` padded by ``padding`` (``_pad64``), one
    every ``stride`` pixels: an (I_C, n_h, n_w, K, K) view, the im2col input
    of ``_gemm_bands``, read-only.  Callers pad to at least K on both axes."""
    xp = _pad64(x, padding)
    c, h, w = xp.shape
    s_c, s_h, s_w = xp.strides
    shape = (c, (h - k) // stride + 1, (w - k) // stride + 1, k, k)
    view = np.ndarray(shape, xp.dtype, xp, 0, (s_c, s_h * stride, s_w * stride, s_h, s_w))
    view.flags.writeable = False
    return view


def _gemm_bands(
    windows: np.ndarray, w2: np.ndarray, dst: np.ndarray, block: int | None = None
) -> None:
    """Fill ``dst`` (..., n_h, n_w) with im2col GEMMs, one band of outputs at a time.

    Output (a, b) is the (rows, I_C*k_h*k_w) matrix ``w2`` times the window
    ``windows[:, a, b]`` of an (I_C, n_h, n_w, k_h, k_w) window view,
    flattened in (I_C, k_h, k_w) order; callers slice the view to the
    outputs they fill.  Its rows fill the leading axes of ``dst`` in order:
    (O_C,) for a convolution, (phases_h, phases_w, O_C) for a phase stack of
    ``deconv._phase_map``: a tap-count group of phases for revd and revd2
    (one phase each when P mod S is not 0), all S x S for tdc.  ``dst`` may
    be float32 and strided; each band's float64 products are rounded as
    they are written.  A stack of several ``phases_w`` interleaves them in
    the map, and a numpy assignment iterates in the destination's memory
    order, so one assignment would run its inner loop over those phases,
    a few elements at a time: such a stack writes each band one ``phases_w``
    phase at a time, whose inner loop runs over super-pixels.  The conv and
    the stacks of one ``phases_w`` phase write each band in one assignment.
    A band is a run of whole output rows, or a piece of one row when a row
    alone is over budget.  It unfolds at most ``_BAND_ELEMS`` window
    elements (at least one window, or one ``block``) into columns, so the
    unfolded copy stays in cache however large the map is.

    Without ``block`` a band is one GEMM.  With ``block`` its columns are
    laid out in whole blocks of that many, the tail zeroed, and every GEMM
    is (rows, window) x (window, block).  BLAS may sum a column in another
    order when the column count changes, so only a fixed GEMM shape gives
    every output the same bits wherever its band starts: ``deconv_revd2``
    needs that for its tile identity.  The conv, strd, tdc and revd run one
    GEMM per band: fixed blocks of 64 columns slowed the conv and tdc by
    3-66% on the benchmark's layer shapes (BLAS on one thread).
    """
    *lead, n_h, n_w = dst.shape
    rows, window = w2.shape
    pixels = max(1, _BAND_ELEMS // window)
    if block is not None:
        pixels = max(block, pixels // block * block)
    by_phase = len(lead) == 3 and lead[1] > 1  # a stack of several phases_w
    for a0, a1, b0, b1 in _bands(n_h, n_w, pixels):
        src = windows[:, a0:a1, b0:b1].transpose(0, 3, 4, 1, 2)
        if block is None:
            prod = w2 @ src.reshape(window, -1)
        else:
            n_px = (a1 - a0) * (b1 - b0)
            n_blocks = -(-n_px // block)
            cols = np.empty((window, n_blocks * block), dtype=np.float64)
            cols[:, n_px:] = 0.0
            cols[:, :n_px].reshape(src.shape)[...] = src
            blocks = cols.reshape(window, n_blocks, block).transpose(1, 0, 2)
            prod = np.matmul(w2, blocks).transpose(1, 0, 2).reshape(rows, -1)[:, :n_px]
        if by_phase:
            prod = prod.reshape(*lead, a1 - a0, b1 - b0)
            for ph_w in range(lead[1]):
                dst[:, ph_w, :, a0:a1, b0:b1] = prod[:, ph_w]
        else:
            dst[..., a0:a1, b0:b1] = prod.reshape(*lead, a1 - a0, b1 - b0)


def _conv_accumulate(
    x: np.ndarray,
    w: np.ndarray,
    stride: int,
    padding: int,
    counter: MacCounter | None = None,
) -> np.ndarray:
    """Correlation of (I_C, I_H, I_W) ``x`` with (O_C, I_C, K, K) ``w`` as an
    im2col GEMM (stride 1+, any integer padding).

    Returns the float32 (O_C, O_H, O_W) output, accumulated in float64 and
    rounded once as each band is written.  The input is padded once
    into a float64 copy (``_pad64``; a negative padding crops instead, as
    ``deconv_strd`` needs when P > K-1) and multiplied by the kernels one
    band of outputs at a time (``_gemm_bands``).  Every (output, input channel,
    tap) slot counts as a MAC, including slots that read the padding.
    """
    i_c, i_h, i_w = x.shape
    o_c, _, k, _ = w.shape
    o_h = (i_h - k + 2 * padding) // stride + 1
    o_w = (i_w - k + 2 * padding) // stride + 1
    if counter is not None:
        counter.add(o_c * o_h * o_w * i_c * k * k)
    out = np.empty((o_c, o_h, o_w), dtype=np.float32)
    w2 = w.reshape(o_c, i_c * k * k).astype(np.float64)
    _gemm_bands(_windows(x, padding, k, stride), w2, out)
    return out


def _check_map(input: Tensor) -> None:
    if input.data.ndim != 3:
        raise ShapeError(f"input must be rank 3, got dims {input.dims}")


def _check_layer(
    input: Tensor, kernels: Tensor, params: ConvParams | DeconvParams, in_axis: int
) -> tuple[int, int, int]:
    """Check a layer's arguments and return its (O_C, O_H, O_W) output extents.

    ``input`` is (I_C, H, W).  ``kernels`` are rank 4 and K x K with
    K = ``params.kernel_size``, and hold I_C on axis ``in_axis``: 1 for conv
    kernels (O_C, I_C, K, K), 0 for deconv kernels (I_C, O_C, K, K).  A bad
    shape raises :class:`ShapeError`, a geometry with no output (through
    ``params.out_extent``) :class:`GeometryError`.
    """
    _check_map(input)
    if kernels.data.ndim != 4:
        raise ShapeError(f"kernels must be rank 4, got dims {kernels.dims}")
    k_h, k_w = kernels.dims[2:]
    if k_h != k_w:
        raise ShapeError(f"kernels must be square, got {k_h}x{k_w}")
    if k_h != params.kernel_size:
        raise ShapeError(f"kernel extent {k_h} does not match K={params.kernel_size}")
    i_c = kernels.dims[in_axis]
    if i_c != input.dims[0]:
        raise ShapeError(f"kernel input channels {i_c} != input channels {input.dims[0]}")
    o_c = kernels.dims[1 - in_axis]
    return o_c, params.out_extent(input.dims[1]), params.out_extent(input.dims[2])


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
    _check_layer(input, kernels, params, in_axis=1)
    out = _conv_accumulate(input.data, kernels.data, params.stride, params.padding, counter)
    return Tensor(out)


def _check_same_padded(params: ConvParams, layer: str) -> None:
    if not params.is_same_padded:
        raise GeometryError(f"{layer} convolution requires S=1 and K=2P+1, got {params}")


def _check_factor(r: int) -> None:
    if r < 1:
        raise GeometryError(f"upsampling factor r must be >= 1, got {r}")


def pixel_shuffle(input: Tensor, r: int) -> Tensor:
    """Rearrange (r^2*C, H, W) channels into (C, r*H, r*W) space.

    out[c, o_h, o_w] = in[r^2*c + r*(o_h mod r) + (o_w mod r), o_h//r, o_w//r].
    Performs no arithmetic, so it takes no MAC counter.
    """
    _check_map(input)
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
    _check_map(input)
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
    _check_same_padded(params, "sub-pixel")
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
    _check_same_padded(params, "resize")
    return conv2d(nn_interpolate(input, r), kernels, params, counter)
