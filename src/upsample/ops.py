"""Forward convolution-based upsampling building blocks.

Implements the standard convolution, the pixel shuffle, nearest neighbor
interpolation, and the two composite upsamplers built from them: sub-pixel
convolution (conv then shuffle) and NN resize convolution (interpolate then
conv).  The convolution is one im2col GEMM per band of outputs
(``_gemm_bands``), the engine that ``deconv_strd`` and the phase engine of
``deconv_tdc``, ``deconv_revd`` and ``deconv_revd2`` share.  revd2 alone
runs it in GEMMs of a fixed ``block`` of columns, which keep its output
tiles bitwise identical.  ``deconv_standard`` runs on BLAS too, outside
this engine: its window is one input pixel, so each band of input rows is
one ``np.matmul`` without an unfold, written into its float64 scatter
buffer.  One argument check, ``_check_layer``, serves ``conv2d`` and every
``deconv`` variant, so a malformed input, kernel set or geometry fails the
same way in each; its kernel-shape part, ``_check_kernels``, also serves the
kernel transforms.

Conventions shared package-wide:

* feature maps are (channels, height, width); conv kernels are
  (out_channels, in_channels, K, K)
* padding is zero-extension: a convolution makes one padded float64 copy of
  its input per call and processes it in bands of outputs
  (``_conv_accumulate``)
* accumulation happens in float64 and results are stored as float32; the
  GEMM engine (``_gemm_bands``) writes each band's float64 products straight
  into the float32 output, so the conv, strd, tdc, revd and revd2 keep no
  float64 map of their output.  It writes every band one column phase of
  its (phases_h, phases_w, O_C, n_h, n_w) destination at a time, so each
  write runs along the super-pixels; the conv is one phase, one copy
* the GEMM engine unfolds every band into one float64 workspace per thread
  (``_workspace``), kept across calls, whose first element and rows start
  on 64-byte lines: OpenBLAS ran the benchmark's band GEMMs up to twice as
  fast from such an operand (``_gemm_bands``), with the same bits.  Nothing
  returned views the workspace, and concurrent calls on different threads
  never share one
* the pixel shuffle and NN interpolation write one column phase at a time,
  because a numpy assignment iterates in the destination's memory order: a
  whole write would run its inner loop over the r interleaved phases
* every operation that performs multiply-accumulates accepts an optional
  ``MacCounter`` and adds one count per loop slot, including slots whose
  input read falls in the zero padding (this matches how the requirement
  tables count MACs); the pixel shuffle and NN interpolation only move data
  and take no counter
"""
from __future__ import annotations

import threading
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
_LINE = 64  # bytes: ``_workspace`` starts on a cache line
_LOCAL = threading.local()  # each thread's ``_workspace``


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


def _workspace(n: int) -> np.ndarray:
    """This thread's float64 scratch, as ``n`` contiguous elements whose
    first sits on a ``_LINE``-byte boundary.

    The buffer is kept for the thread's next call and grown when ``n``
    exceeds it, so only a growing call pays the allocation and the
    alignment.  Each thread has its own, so concurrent calls never share
    one; ``_gemm_bands`` unfolds into it and returns nothing that views it.
    """
    ws = getattr(_LOCAL, "workspace", None)
    if ws is None or ws.size < n:
        raw = np.empty(n + _LINE // 8 - 1, dtype=np.float64)
        skip = -raw.__array_interface__["data"][0] % _LINE // 8
        ws = _LOCAL.workspace = raw[skip : skip + n]
    return ws[:n]


def _gemm_bands(
    windows: np.ndarray, w2: np.ndarray, dst: np.ndarray, block: int | None = None
) -> None:
    """Fill ``dst`` with im2col GEMMs, one band of outputs at a time.

    Output (a, b) is the (rows, I_C*k_h*k_w) matrix ``w2`` times the window
    ``windows[:, a, b]`` of an (I_C, n_h, n_w, k_h, k_w) window view,
    flattened in (I_C, k_h, k_w) order; callers slice the view to the
    outputs they fill.  ``dst`` is (phases_h, phases_w, O_C, n_h, n_w), and
    the rows of ``w2`` fill its three leading axes in order: a phase stack
    of ``deconv._phase_map`` (a tap-count group of phases for revd and
    revd2, one phase each when P mod S is not 0, all S x S for tdc), or one
    phase, ``out[None, None]``, for a convolution.  ``dst`` may be float32
    and strided; each band's float64 products are rounded as they are
    written.  A stack of several ``phases_w`` interleaves them in the map,
    and a numpy assignment iterates in the destination's memory order, so
    one assignment would run its inner loop over those phases, a few
    elements at a time.  So every band is written one ``phases_w`` phase at
    a time, whose inner loop runs over super-pixels: one copy per band for
    the conv and for a stack of one ``phases_w`` phase.  A band is a run of
    whole output rows, or a piece of one row when a row alone is over
    budget.  It unfolds at most ``_BAND_ELEMS`` window elements (at least
    one window, or one ``block``) into columns, so the unfolded copy stays
    in cache however large the map is.

    Every band is unfolded in one copy into this thread's ``_workspace``,
    as a (window, columns) matrix whose first element and every row start
    on a 64-byte line.  OpenBLAS runs a band up to twice as fast from
    there: strd's (3, 108) x (108, 512) band of ``deploy-sp-hires`` took
    9.5-9.7 us from an aligned operand and 17.9-18.0 us at 16 or 32 bytes
    past a line, the conv's (12, 27) x (27, 2048) band 19.6-21.8 us against
    29.9-30.7 us (2-vCPU Xeon VM, BLAS on one thread); a C = 32 band, (32,
    512) x (512, 128), did not care.  numpy's allocator aligns to
    16 bytes only, so a fresh buffer per band landed on a line by chance.
    The alignment changes no bits.  Without ``block``, a band of one pixel
    or one ``w2`` row multiplies the window view's own ``reshape`` instead,
    unaligned: numpy runs it as a GEMV, whose sums follow the operand's
    layout, and a copy in the workspace changed some float64 products (1
    in about 1200 random geometries).  The workspace outlives the call,
    because aligning a buffer made on every call cost small calls more
    than it saved, and nothing returned views it: the products are fresh
    arrays, copied into ``dst``.

    Without ``block`` a band is one GEMM.  With ``block`` its columns are
    laid out in whole blocks of that many, the tail zeroed, and every GEMM
    is (rows, window) x (window, block).  BLAS may sum a column in another
    order when the column count changes, so only a fixed GEMM shape gives
    every output the same bits wherever its band starts: ``deconv_revd2``
    needs that for its tile identity.  The conv, strd, tdc and revd run one
    GEMM per band: fixed blocks of 64 columns slowed the conv and tdc by
    3-66% on the benchmark's layer shapes (BLAS on one thread).
    """
    phases_h, phases_w, o_c, n_h, n_w = dst.shape
    rows, window = w2.shape
    i_c, _, _, k_h, k_w = windows.shape
    pixels = max(1, _BAND_ELEMS // window)
    if block is not None:
        pixels = max(block, pixels // block * block)
    for a0, a1, b0, b1 in _bands(n_h, n_w, pixels):
        n_a, n_b = a1 - a0, b1 - b0
        n_px = n_a * n_b
        src = windows[:, a0:a1, b0:b1].transpose(0, 3, 4, 1, 2)
        if block is None and (rows == 1 or n_px == 1):
            prod = w2 @ src.reshape(window, -1)  # a GEMV: its sums follow the layout
        else:
            n_cols = n_px if block is None else -(-n_px // block) * block
            row = -(-n_cols // 8) * 64  # bytes: every row starts on a line
            ws = _workspace(window * row // 8)
            unfold = np.ndarray((i_c, k_h, k_w, n_a, n_b), np.float64, ws, 0,
                                (k_h * k_w * row, k_w * row, row, n_b * 8, 8))
            unfold[...] = src
            cols = np.ndarray((window, n_cols), np.float64, ws, 0, (row, 8))
            if block is None:
                prod = w2 @ cols
            else:
                cols[:, n_px:] = 0.0
                blocks = np.ndarray((n_cols // block, window, block), np.float64, ws, 0,
                                    (block * 8, row, 8))
                prod = np.matmul(w2, blocks).transpose(1, 0, 2).reshape(rows, -1)[:, :n_px]
        prod = prod.reshape(phases_h, phases_w, o_c, n_a, n_b)
        for ph_w in range(phases_w):
            dst[:, ph_w, :, a0:a1, b0:b1] = prod[:, ph_w]


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
    rounded once as each band is written; (O_H, O_W) is the extent of the
    ``_windows`` view.  The input is padded once into a float64 copy
    (``_pad64``; a negative padding crops instead, as ``deconv_strd`` needs
    when P > K-1) and multiplied by the kernels one band of outputs at a
    time (``_gemm_bands``).  Every (output, input channel, tap) slot counts
    as a MAC, including slots that read the padding.
    """
    o_c, i_c, k, _ = w.shape
    windows = _windows(x, padding, k, stride)
    out = np.empty((o_c, *windows.shape[1:3]), dtype=np.float32)
    if counter is not None:
        counter.add(out.size * i_c * k * k)
    _gemm_bands(windows, w.reshape(o_c, i_c * k * k).astype(np.float64), out[None, None])
    return out


def _check_map(input: Tensor) -> None:
    if input.data.ndim != 3:
        raise ShapeError(f"input must be rank 3, got dims {input.dims}")


def _check_kernels(kernels: Tensor, noun: str) -> tuple[int, int, int]:
    """(axis 0, axis 1, K) of rank-4 K x K ``kernels``, which ``noun`` names
    in the rank error; a bad shape raises :class:`ShapeError`."""
    if kernels.data.ndim != 4:
        raise ShapeError(f"{noun} must be rank 4, got dims {kernels.dims}")
    a, b, k, k_w = kernels.dims
    if k != k_w:
        raise ShapeError(f"kernels must be square, got {k}x{k_w}")
    return a, b, k


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
    _, _, k = _check_kernels(kernels, "kernels")
    if k != params.kernel_size:
        raise ShapeError(f"kernel extent {k} does not match K={params.kernel_size}")
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
    The output, viewed as (C, H, r, W, r), is written one column phase
    o_w mod r at a time, so each copy runs along a row of W pixels.
    Performs no arithmetic, so it takes no MAC counter.
    """
    _check_map(input)
    _check_factor(r)
    c_in, h, w = input.dims
    if c_in % (r * r) != 0:
        raise ShapeError(f"channels {c_in} not divisible by r^2 = {r * r}")
    o_c = c_in // (r * r)
    src = input.data.reshape(o_c, r, r, h, w)
    out = np.empty((o_c, h, r, w, r), dtype=np.float32)
    for j in range(r):
        out[..., j] = src[:, :, j].transpose(0, 2, 1, 3)
    return Tensor(out.reshape(o_c, h * r, w * r))


def nn_interpolate(input: Tensor, r: int) -> Tensor:
    """Nearest neighbor upsampling: each pixel becomes an r x r block (no MACs).

    Like :func:`pixel_shuffle`, it writes the (C, H, r, W, r) view of its
    output one column phase at a time, each from the input broadcast over
    the row phases.
    """
    _check_map(input)
    _check_factor(r)
    c, h, w = input.dims
    x = input.data[:, :, None, :]
    out = np.empty((c, h, r, w, r), dtype=np.float32)
    for j in range(r):
        out[..., j] = x
    return Tensor(out.reshape(c, h * r, w * r))


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
