"""Five functionally equivalent deconvolution (transposed convolution) variants.

All variants compute the same upsampled output for kernels stored as
(in_channels, out_channels, K, K) and geometry O = S*(I-1) + K - 2P:

* ``deconv_standard`` computes every input pixel's (O_C, K, K) contribution
  block in one einsum and scatters them with one strided add per tap,
  producing overlapping sums when K > S.  The taps run in descending order,
  so each output pixel sums its terms in input raster order.  This is the
  oracle the other variants are tested against.
* ``deconv_revd`` traverses the output space in S x S tiles: each tap
  reaches one stride phase, so it adds into a strided output slice.
* ``deconv_revd2`` computes each output rectangle on its own, per stride
  phase and tap: the rectangle's pixels of one phase share one tap set, so
  a phase is one batched matmul of (channel pair, tap) terms.  Any
  rectangular tiling (including edges not divisible by S) is bitwise
  identical: each term is rounded once, whatever BLAS path computes it, and
  each pixel sums the same terms in a fixed order (see ``_revd2_block``).
* ``deconv_strd`` inserts S-1 zeros between input pixels and runs a plain
  convolution with index-reversed, channel-swapped kernels.
* ``deconv_tdc`` slices the kernels with ``transforms.tdc_transform_kernels``,
  executes S^2 phase convolutions and stitches each phase directly into its
  strided output positions during computation.

Every variant takes the same (input, kernels, params, counter) arguments
(revd2 also takes ``tiles``) and checks them with ``_check_deconv_args``.
``VARIANTS`` names the five and ``run`` dispatches to them by name.

Out-of-range output writes (possible when P > 0) are silently discarded;
that is what crops the output to the closed-form extent.  Stride-hole
arithmetic uses mathematical (always non-negative) modulo; ``_phase_span``
holds it for revd, revd2 and tdc, and ``_tap_spans`` derives from it the
per-tap spans that standard and revd share.
"""
from __future__ import annotations

from typing import Iterable

import numpy as np

from . import transforms
from .ops import DeconvParams, GeometryError, MacCounter, _conv_accumulate
from .tensor import ShapeError, Tensor
from .tiling import LegalityError

VARIANTS = ("standard", "revd", "revd2", "strd", "tdc")


def _check_deconv_args(input: Tensor, kernels: Tensor, params: DeconvParams):
    if input.data.ndim != 3:
        raise ShapeError(f"input must be rank 3, got dims {input.dims}")
    if kernels.data.ndim != 4:
        raise ShapeError(f"kernels must be rank 4, got dims {kernels.dims}")
    i_c, o_c, k_h, k_w = kernels.dims
    if k_h != k_w:
        raise ShapeError(f"kernels must be square, got {k_h}x{k_w}")
    if k_h != params.kernel_size:
        raise ShapeError(f"kernel extent {k_h} does not match K={params.kernel_size}")
    if i_c != input.dims[0]:
        raise ShapeError(f"kernel input channels {i_c} != input channels {input.dims[0]}")
    o_h = params.out_extent(input.dims[1])
    o_w = params.out_extent(input.dims[2])
    return o_c, o_h, o_w


def deconv_standard(
    input: Tensor,
    kernels: Tensor,
    params: DeconvParams,
    counter: MacCounter | None = None,
) -> Tensor:
    """Input-space deconvolution with overlapping output sums (the oracle).

    One einsum computes every input pixel's (O_C, K, K) contribution block;
    one strided add per tap then scatters them (see ``_standard_float64``).
    """
    return Tensor(_standard_float64(input, kernels, params, counter).astype(np.float32))


def _standard_float64(
    input: Tensor, kernels: Tensor, params: DeconvParams, counter: MacCounter | None
) -> np.ndarray:
    """deconv_standard before its final rounding to float32.

    Tap (kh, kw) of every input pixel lands on one strided output slice.  The
    taps run in descending order on both axes: an output pixel reached from a
    higher input row is reached through a lower tap row, so each pixel sums
    its terms in (ih, iw) raster order onto +0.0, as a scatter of whole
    blocks input pixel by input pixel would.
    """
    o_c, o_h, o_w = _check_deconv_args(input, kernels, params)
    i_c, i_h, i_w = input.dims
    k, s, p = params.kernel_size, params.stride, params.padding
    out = np.zeros((o_c, o_h, o_w), dtype=np.float64)
    contrib = np.einsum(
        "chw,cokl->oklhw", input.data.astype(np.float64), kernels.data.astype(np.float64)
    )
    if counter is not None:
        counter.add(i_c * i_h * i_w * o_c * k * k)
    spans_h, spans_w = _tap_spans(k, s, p, o_h, i_h), _tap_spans(k, s, p, o_w, i_w)
    for kh in reversed(range(k)):
        oh0, ih0, n_h = spans_h[kh]
        if n_h == 0:
            continue
        for kw in reversed(range(k)):
            ow0, iw0, n_w = spans_w[kw]
            if n_w == 0:
                continue
            out[:, oh0 : oh0 + s * n_h : s, ow0 : ow0 + s * n_w : s] += contrib[
                :, kh, kw, ih0 : ih0 + n_h, iw0 : iw0 + n_w
            ]
    return out


def _phase_span(lo: int, hi: int, phase: int, p: int, s: int):
    """Outputs o in [lo, hi) with (o + P) mod S == phase.

    Returns (first, count, q0): they are o = first + S*a for a < count, and
    tap t of output a reads input q0 + a - t.
    """
    first = lo + (phase - p - lo) % s
    count = max(0, -(-(hi - first) // s))
    return first, count, (first + p - phase) // s


def _tap_spans(
    k: int, s: int, p: int, out_extent: int, in_extent: int
) -> list[tuple[int, int, int]]:
    """Per tap kk on one axis: (o0, q0, n), the in-range part of its scatter.

    Tap kk carries input q to output S*q + kk - P, which has stride phase
    kk mod S and is that phase's tap kk // S.  For a < n, input q0 + a lands
    on output o0 + S*a, and both are in range.
    """
    spans = []
    for kk in range(k):
        first, count, q0 = _phase_span(0, out_extent, kk % s, p, s)
        t = kk // s
        a0 = max(0, t - q0)  # outputs before a0 would read input < 0
        n = min(count, in_extent + t - q0) - a0
        spans.append((first + s * a0, q0 + a0 - t, max(0, n)))
    return spans


def deconv_revd(
    input: Tensor,
    kernels: Tensor,
    params: DeconvParams,
    counter: MacCounter | None = None,
) -> Tensor:
    """Reverse-looping deconvolution: output traversal in S x S tiles.

    Tap kk reaches the outputs of stride phase kk mod S, as tap kk // S of
    that phase; its span on each axis is worked out once per call.
    """
    o_c, o_h, o_w = _check_deconv_args(input, kernels, params)
    i_c, i_h, i_w = input.dims
    k, s, p = params.kernel_size, params.stride, params.padding

    out = np.zeros((o_c, o_h, o_w), dtype=np.float64)
    x64 = input.data.astype(np.float64)
    w64 = kernels.data.astype(np.float64)
    spans_w = _tap_spans(k, s, p, o_w, i_w)
    for k_h, (oh0, ih0, n_h) in enumerate(_tap_spans(k, s, p, o_h, i_h)):
        if n_h == 0:
            continue
        for k_w, (ow0, iw0, n_w) in enumerate(spans_w):
            if n_w == 0:
                continue
            if counter is not None:
                counter.add(n_h * n_w * i_c * o_c)
            view = x64[:, ih0 : ih0 + n_h, iw0 : iw0 + n_w]
            out[:, oh0 : oh0 + s * n_h : s, ow0 : ow0 + s * n_w : s] += np.einsum(
                "ihw,io->ohw", view, w64[:, :, k_h, k_w]
            )
    return Tensor(out.astype(np.float32))


_BAND_ELEMS = 1 << 16  # float64 terms per batched matmul (512 KiB: stays in cache)


def _revd2_block(
    xp: np.ndarray, phases: list, params: DeconvParams, out64: np.ndarray, rect: tuple
) -> None:
    """Fill one output rectangle, stride phase by stride phase.

    ``xp`` holds the input as (pairs, 2, I_H, I_W) channel pairs, zero-padded
    by ceil(K/S) on every side.  Phase (ph_h, ph_w) owns the outputs with
    (o+P) mod S equal to it; they all use taps ph + S*t, whose kernels
    ``phases`` holds as (pairs, taps, O_C, 2), so one batched matmul yields
    every (pair, tap) term of the phase's pixels.  Each term is a two-term dot
    product of exact float32 products, rounded once whichever BLAS path runs
    it; the terms are then summed in a fixed order (pairs, then taps in
    ascending order, onto +0.0).  No value depends on the rectangle, so any
    tiling is bitwise identical to the monolithic run.
    """
    s, p = params.stride, params.padding
    pad = -(-params.kernel_size // s)
    h0, h1, w0, w1 = rect
    for ph_h, ph_w, taps_w, w_phase in phases:
        fh, n_h, qh = _phase_span(h0, h1, ph_h, p, s)
        fw, n_w, qw = _phase_span(w0, w1, ph_w, p, s)
        if n_h == 0 or n_w == 0:
            continue
        pairs, n_taps, o_c = w_phase.shape[:3]
        # rows per batch, bounding both x_taps (2 per pair and tap) and terms (O_C)
        band = max(1, _BAND_ELEMS // (n_taps * pairs * max(o_c, 2) * n_w))
        for a0 in range(0, n_h, band):
            a1 = min(n_h, a0 + band)
            x_taps = np.empty((pairs, n_taps, 2, a1 - a0, n_w), dtype=np.float64)
            for i in range(n_taps):
                r, c = qh + pad + a0 - i // taps_w, qw + pad - i % taps_w
                x_taps[:, i] = xp[:, :, r : r + a1 - a0, c : c + n_w]
            terms = np.matmul(w_phase, x_taps.reshape(pairs, n_taps, 2, -1))
            for j in range(1, pairs):
                terms[0] += terms[j]
            acc = np.zeros((o_c, (a1 - a0) * n_w), dtype=np.float64)
            for tap in terms[0]:
                acc += tap
            out64[:, fh + s * a0 : fh + s * a1 : s, fw:w1:s] = acc.reshape(o_c, a1 - a0, n_w)


def grid_tiles(o_h: int, o_w: int, tile_h: int, tile_w: int) -> list[tuple[int, int, int, int]]:
    """Partition an (o_h, o_w) output into row-major rectangles of at most
    tile_h x tile_w pixels (edge tiles are smaller)."""
    if tile_h < 1 or tile_w < 1:
        raise GeometryError(f"tile extents must be >= 1, got {tile_h}x{tile_w}")
    rects = []
    for h0 in range(0, o_h, tile_h):
        for w0 in range(0, o_w, tile_w):
            rects.append((h0, min(h0 + tile_h, o_h), w0, min(w0 + tile_w, o_w)))
    return rects


def deconv_revd2(
    input: Tensor,
    kernels: Tensor,
    params: DeconvParams,
    counter: MacCounter | None = None,
    tiles: Iterable[tuple[int, int, int, int]] | None = None,
) -> Tensor:
    """Improved reverse-looping deconvolution with per-pixel independence.

    ``tiles`` optionally lists disjoint (h0, h1, w0, w1) rectangles covering
    the output; they may be executed in any order (or concurrently) and the
    result is bitwise identical to the monolithic run.
    """
    return Tensor(_revd2_float64(input, kernels, params, counter, tiles).astype(np.float32))


def _revd2_float64(
    input: Tensor, kernels: Tensor, params: DeconvParams, counter: MacCounter | None, tiles
) -> np.ndarray:
    """deconv_revd2 before its final rounding to float32."""
    o_c, o_h, o_w = _check_deconv_args(input, kernels, params)
    i_c, i_h, i_w = input.dims
    k, s = params.kernel_size, params.stride
    kt, pairs = -(-k // s), -(-i_c // 2)
    # an odd channel count gets a zero channel so that channels pair up
    x64 = np.zeros((2 * pairs, i_h + 2 * kt, i_w + 2 * kt), dtype=np.float64)
    x64[:i_c, kt : kt + i_h, kt : kt + i_w] = input.data
    w64 = np.zeros((2 * pairs, o_c, k, k), dtype=np.float64)
    w64[:i_c] = kernels.data
    phases = []  # (ph_h, ph_w, taps_w, kernels as (pairs, taps, O_C, 2))
    for ph_h in range(min(s, k)):
        for ph_w in range(min(s, k)):
            w_phase = w64[:, :, ph_h::s, ph_w::s]
            w_phase = w_phase.reshape(pairs, 2, o_c, -1).transpose(0, 3, 2, 1)
            phases.append((ph_h, ph_w, -(-(k - ph_w) // s), np.ascontiguousarray(w_phase)))
    xp = x64.reshape(pairs, 2, *x64.shape[1:])
    out = np.zeros((o_c, o_h, o_w), dtype=np.float64)
    for h0, h1, w0, w1 in [(0, o_h, 0, o_w)] if tiles is None else list(tiles):
        if not (0 <= h0 <= h1 <= o_h and 0 <= w0 <= w1 <= o_w):
            raise GeometryError(f"tile ({h0},{h1},{w0},{w1}) outside output {o_h}x{o_w}")
        if counter is not None:
            counter.add((h1 - h0) * (w1 - w0) * i_c * o_c * kt * kt)
        _revd2_block(xp, phases, params, out, (h0, h1, w0, w1))
    return out


def zero_insert(input: Tensor, stride: int) -> Tensor:
    """Place in[i_h, i_w] at (S*i_h, S*i_w) in a map of extent S*(I-1)+1."""
    if stride < 1:
        raise GeometryError(f"stride must be >= 1, got {stride}")
    c, h, w = input.dims
    z = np.zeros((c, stride * (h - 1) + 1, stride * (w - 1) + 1), dtype=np.float32)
    z[:, ::stride, ::stride] = input.data
    return Tensor(z)


def deconv_strd(
    input: Tensor,
    kernels: Tensor,
    params: DeconvParams,
    counter: MacCounter | None = None,
) -> Tensor:
    """Fractionally strided deconvolution: zero insertion + flipped-kernel conv.

    The convolution runs at stride 1 with padding K-1-P; when P > K-1 that
    padding is negative and crops the zero-inserted map instead.
    """
    _check_deconv_args(input, kernels, params)
    k, s, p = params.kernel_size, params.stride, params.padding
    flipped = transforms.flip_kernels(kernels.data)
    out = _conv_accumulate(zero_insert(input, s).data, flipped, 1, k - 1 - p, counter)
    return Tensor(out.astype(np.float32))


def deconv_tdc(
    input: Tensor,
    kernels: Tensor,
    params: DeconvParams,
    counter: MacCounter | None = None,
) -> Tensor:
    """Deconvolution as S^2 phase convolutions with transformed kernels.

    ``transforms.tdc_transform_kernels`` slices the kernels into S^2 phase
    kernels of extent K_T = ceil(K/S).  Phase (ph_h, ph_w) owns the output
    pixels with (o+P) mod S equal to the phase on each axis; its tile is a
    stride-1 convolution of the input with kernel slice n = S*ph_h + ph_w,
    written straight into the strided output locations (stitching happens
    during computation, not as a second pass).
    """
    o_c, o_h, o_w = _check_deconv_args(input, kernels, params)
    i_c = input.dims[0]
    k, s, p = params.kernel_size, params.stride, params.padding
    k_t = -(-k // s)
    tdc_kernels = transforms.tdc_transform_kernels(kernels, s)
    out = np.zeros((o_c, o_h, o_w), dtype=np.float64)
    x = input.data

    for ph_h in range(s):
        oh0, n_h, q0_h = _phase_span(0, o_h, ph_h, p, s)
        for ph_w in range(s):
            ow0, n_w, q0_w = _phase_span(0, o_w, ph_w, p, s)
            if counter is not None:
                counter.add(o_c * n_h * n_w * i_c * k_t * k_t)
            if n_h == 0 or n_w == 0:
                continue
            w_slice = tdc_kernels.data[:, :, s * ph_h + ph_w]
            conv = _conv_accumulate(x, w_slice, 1, k_t - 1, None)
            # the last read, q0 + n - 1 <= I - 1 + (K-1)//S = I + K_T - 2, is the
            # conv's last index (were the slice short, numpy would raise, not write)
            out[:, oh0::s, ow0::s] = conv[:, q0_h : q0_h + n_h, q0_w : q0_w + n_w]
    return Tensor(out.astype(np.float32))


def run(
    name: str,
    input: Tensor,
    kernels: Tensor,
    params: DeconvParams,
    tile: tuple[int, int] | None = None,
) -> Tensor:
    """Run variant ``name`` on (I_C, O_C, K, K) deconvolution kernels.

    Only revd2 takes a ``tile`` (H, W); ``grid_tiles`` splits its output into
    rectangles of that size.  The variant functions are looked up at call
    time, so a caller that replaces a module attribute (a tracer, a test)
    sees every call.
    """
    if name not in VARIANTS:
        raise ValueError(f"unknown variant {name!r}, expected one of {VARIANTS}")
    if tile is not None and name != "revd2":
        raise LegalityError(
            f"tiled dispatch is only supported for revd2 (variant {name} "
            f"does not guarantee data-independent output tiles)"
        )
    fn = globals()[f"deconv_{name}"]
    if name == "revd2":
        tiles = None
        if tile is not None:
            _, o_h, o_w = _check_deconv_args(input, kernels, params)
            tiles = grid_tiles(o_h, o_w, *tile)
        return fn(input, kernels, params, tiles=tiles)
    return fn(input, kernels, params)
