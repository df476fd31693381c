"""Five functionally equivalent deconvolution (transposed convolution) variants.

All variants compute the same upsampled output for kernels stored as
(in_channels, out_channels, K, K) and geometry O = S*(I-1) + K - 2P:

* ``deconv_standard`` computes the input pixels' (O_C, K, K) contribution
  blocks with one GEMM per band of input rows and scatters each band with
  one strided add per S x S tap block, sliced to the block's taps,
  producing overlapping sums when K > S.  The bands run in ascending and
  the tap blocks in descending order, so each output pixel sums its terms
  in input raster order.  This is the oracle the other variants are tested
  against.
* ``deconv_revd`` traverses the output space in S x S tiles, one tap-count
  group of stride phases at a time: the outputs of one phase share one tap
  set, and the phases with as many taps on each axis read their windows
  from one corner, so a group is a GEMM of its phases' stacked
  (phases*O_C, I_C*taps) kernels, a corner of tdc's phase slices, with the
  same corner of tdc's input windows, one GEMM per band.  When P mod S is
  not 0 each phase is its own stack (see ``_phase_map``).
* ``deconv_revd2`` is revd with one fixed GEMM shape: it computes each
  output rectangle on its own, group by group, in GEMMs of exactly
  ``_REVD2_COLS`` columns.  Any rectangular tiling (including edges not
  divisible by S) is bitwise identical, because every GEMM has one shape
  whatever the tiling.  That is a property of the BLAS, not of the
  arithmetic, and the tests check it on each host.
* ``deconv_strd`` inserts S-1 zeros between input pixels and runs a plain
  convolution with index-reversed, channel-swapped kernels.
* ``deconv_tdc`` stacks all S^2 phase kernels of
  ``transforms.tdc_transform_kernels`` into one matrix: every phase of a
  super-pixel reads the same input window, so one GEMM per band of
  super-pixels yields all S^2 phases, zero taps included.

tdc, revd and revd2 are one phase engine, ``_phase_map``: they differ only
in which phases share a GEMM (its ``stacks``) and in the GEMM's ``block``.
When S divides K and P mod S = 0, every phase has K_T^2 taps, so revd and
revd2 run tdc's one stacked matrix: revd is then tdc, and revd2 is tdc in
fixed blocks.
That engine, strd and the trained convolution of ``ops`` share one GEMM
engine: the banded float64 im2col GEMM of ``ops._gemm_bands``, which writes
each band's products straight into its float32 output, one column phase of
the stack at a time.  standard runs on BLAS too, but calls ``np.matmul``
itself: its window is one input pixel, so it needs no unfold, and ``out=``
writes each band's products straight into the float64 buffer that the
scatter reads, with no second copy (14 MB per call on a 3x128x128
sub-pixel layer).

Every variant takes the same (input, kernels, params, counter) arguments
(revd2 also takes ``tiles``) and checks them with ``ops._check_layer``,
the one check the trained convolution runs too.  ``VARIANTS`` names the
five and ``run`` dispatches to them by name.

Padding P crops: the output is the full (P = 0) deconvolution, of extent
S*(I-1) + K, less P on each side.  The variants that work in output space
compute a map that starts before output 0 and crop it once.  standard
scatters every tap into the full map, padded to whole S x S super-pixels,
without clipping, and crops it by P.
tdc, revd and revd2 fill ``_phase_map``'s grid of S x S super-pixels,
which starts P mod S outputs before output 0, and crop that.  strd crops
through its convolution's padding K-1-P.
"""
from __future__ import annotations

from typing import Iterable

import numpy as np

from . import transforms
from .ops import DeconvParams, GeometryError, MacCounter, _check_layer, _conv_accumulate
from .ops import _gemm_bands, _windows
from .tensor import Tensor
from .tiling import LegalityError

VARIANTS = ("standard", "revd", "revd2", "strd", "tdc")

# columns per revd2 GEMM: every block has this width whatever the tiling
_REVD2_COLS = 64

# float64 elements of standard's contribution block per band of input rows
# (3 MiB).  Swept from 2^16 to 2^21 with the GEMM, one BLAS thread: the NN
# 32x32x32 layer took 1.4-1.8 ms and the sub-pixel 3x16x16 layer
# 0.08-0.09 ms at every budget; the sub-pixel 3x128x128 layer took
# 3.3-4.1 ms except at 2^18 (16-row bands), 4.9-5.2 ms, and its time moves
# erratically with the band height below about 20 rows.  This budget gives
# it 26-row bands.
_SCATTER_ELEMS = 3 << 17


def deconv_standard(
    input: Tensor,
    kernels: Tensor,
    params: DeconvParams,
    counter: MacCounter | None = None,
) -> Tensor:
    """Input-space deconvolution with overlapping output sums (the oracle).

    One GEMM per band of input rows computes their (O_C, K, K)
    contribution blocks; one strided add per S x S tap block then scatters
    the band (see ``_standard_float64``).
    """
    return Tensor(_standard_float64(input, kernels, params, counter).astype(np.float32))


def _standard_float64(
    input: Tensor, kernels: Tensor, params: DeconvParams, counter: MacCounter | None
) -> np.ndarray:
    """deconv_standard before its final rounding to float32.

    The contribution blocks are computed per band of whole input rows, at
    most ``_SCATTER_ELEMS`` block elements (or one row) at a time, as one
    GEMM of the (O_C*K*K, I_C) kernel matrix with the band's (I_C, n*I_W)
    input, written with ``out=`` into one reused buffer; the bands are as
    even as that budget allows, so the blocks no longer grow with the map.
    Products of float32 values are exact in float64, so the GEMM can differ
    from another channel sum only in the order in which it adds the
    channels, which is the BLAS's; with I_C <= 2 every order gives the same
    bits.  The band is scattered into the uncropped map, the full (P = 0)
    deconvolution, padded to whole S x S super-pixels
    (S*(I-1+K_T) >= S*(I-1)+K per axis) and cropped by P once at the end.

    Taps (j*S + a, m*S + b), a, b < S, form tap block (j, m).  A pixel's
    taps of one block land on the S x S phases of one super-pixel, j rows
    and m columns past its own, so the block's taps of all the band's
    pixels land on disjoint outputs and the block is one strided add.  One
    overlapping view of the map per band, ``taps``, shaped (K_T, K_T, O_C,
    S, S, n, I_W), holds every block's slice, and each block is sliced to
    its taps: min(S, K - j*S) rows and min(S, K - m*S) columns.  So when S
    does not divide K the last block on each axis adds only its
    K - (K_T-1)*S taps, with no zero taps (an inf input would make them
    NaN).  The bands run in ascending and the blocks in descending order on
    both axes: an output pixel reached from a higher input row is reached
    through a lower block row, so each pixel sums its terms in (ih, iw)
    raster order onto +0.0, as a scatter of whole blocks input pixel by
    input pixel would.
    """
    o_c, o_h, o_w = _check_layer(input, kernels, params, in_axis=0)
    i_c, i_h, i_w = input.dims
    k, s, p = params.kernel_size, params.stride, params.padding
    k_t = -(-k // s)
    full = np.zeros((o_c, s * (i_h - 1 + k_t), s * (i_w - 1 + k_t)), dtype=np.float64)
    # (O_C*K*K, I_C), its rows in the buffer's (o, k, l) order
    w_mat = kernels.data.reshape(i_c, o_c * k * k).T.astype(np.float64, order="C")
    if counter is not None:
        counter.add(i_c * i_h * i_w * o_c * k * k)
    row = o_c * k * k * i_w  # block elements per input row
    n_bands = -(-i_h // max(1, _SCATTER_ELEMS // row))
    rows = -(-i_h // n_bands)
    buf = np.empty(rows * row, dtype=np.float64)
    s_c, s_h, s_w = full.strides
    for h0 in range(0, i_h, rows):
        n = min(rows, i_h - h0)
        x64 = input.data[:, h0 : h0 + n].astype(np.float64).reshape(i_c, n * i_w)
        np.matmul(w_mat, x64, out=buf[: n * row].reshape(o_c * k * k, n * i_w))
        contrib = buf[: n * row].reshape(o_c, k, k, n, i_w)
        # taps[j, m] is the band's landing slice for tap block (j, m), as
        # (O_C, a, b, n, I_W); the blocks overlap one another, so the view is
        # only ever added into
        taps = np.ndarray(
            (k_t, k_t, o_c, s, s, n, i_w), np.float64, full, s * h0 * s_h,
            (s * s_h, s * s_w, s_c, s_h, s_w, s * s_h, s * s_w),
        )
        for j in range(k_t - 1, -1, -1):
            for m in range(k_t - 1, -1, -1):
                block = contrib[:, j * s : j * s + s, m * s : m * s + s]
                taps[j, m, :, : k - j * s, : k - m * s] += block
    return full[:, p : p + o_h, p : p + o_w]


def deconv_revd(
    input: Tensor,
    kernels: Tensor,
    params: DeconvParams,
    counter: MacCounter | None = None,
) -> Tensor:
    """Reverse-looping deconvolution: output traversal in S x S tiles.

    Each stride phase of a tile has its own tap set, and the phases with
    equal tap counts read one window corner, so each tap-count group of
    phases is one GEMM per band of its super-pixels (``_phase_map`` with
    its default stacks, without fixed blocks).  When S divides K and
    P mod S = 0 that is tdc's GEMM.
    """
    return Tensor(_phase_map(input, kernels, params, counter, None, np.float32, block=None))


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

    ``tiles`` optionally lists (h0, h1, w0, w1) output rectangles, each
    inside the output.  Exactly the listed rectangles are computed and every
    other output is left 0.0; the MAC counter counts each listed rectangle's
    outputs, so overlapping rectangles are counted once per listing and an
    empty list gives an all-zero map.  The rectangles may be executed in any
    order (or concurrently, one call each, merging the results), and every
    computed output is bitwise that of the monolithic run, since every pixel
    goes through a GEMM of the same shape wherever its rectangle lies: a
    tiling that covers the output gives the monolithic map.  The stack
    list depends on (K, S, P) only, never on the tiles, so a phase always
    sits in one row of one fixed matrix.  A stack of several phases fills
    whole super-pixels: where a rectangle edge cuts a super-pixel, both
    neighbouring rectangles write it, from the same row of the same GEMM
    shape, so the bits agree.
    """
    return Tensor(_phase_map(input, kernels, params, counter, tiles, np.float32, _REVD2_COLS))


def _phase_map(
    input: Tensor, kernels: Tensor, params: DeconvParams, counter: MacCounter | None, tiles, dtype,
    block: int | None = _REVD2_COLS, stacks=None, sliced: Tensor | None = None,
) -> np.ndarray:
    """The output of tdc, revd or revd2 as a cropped map of ``dtype``: each
    variant is this engine with its own ``stacks`` and ``block``.

    Every output is one float64 GEMM column, rounded once as it is written:
    the variants pass float32, and the tile-identity tests pass float64 to
    compare the GEMM products themselves.

    Output o on each axis is phase (o+P) mod S of super-pixel u = (o+P) // S,
    and every phase of u reads the input window u-K_T+1 .. u with its slice
    of ``transforms.tdc_transform_kernels``.  The map holds the n_u x n_v
    super-pixels from u0 = P // S on, as (O_C, n_u, S, n_v, S);
    ``windows[:, a, b]`` is the window of super-pixel (u0+a, u0+b).  The
    map's phases start off = P mod S outputs before output 0, so it is
    cropped once to [off, off+O) on each axis.

    A stack (lo_h, hi_h, lo_w, hi_w, c_h, c_w) is the rectangle of phases
    [lo_h, hi_h) x [lo_w, hi_w) that all read their windows from corner
    (c_h, c_w) on.  Its matrix is those phases' slices from that corner,
    stacked in (ph_h, ph_w, o_c) row order.  Each output rectangle, stack by
    stack, fills the union of the stack's phases' super-pixel ranges through
    ``_gemm_bands`` with ``block``, into the map viewed as (S, S, O_C, n_u,
    n_v).  tdc passes one stack of all S^2 phases at corner (0, 0), and its
    ``sliced`` kernels from ``transforms.tdc_transform_kernels``; the other
    variants copy the same slices straight from ``transforms._phase_taps``.

    The default stacks are the tap-count groups, revd's and revd2's.  Phase
    ph uses taps ph + S*t for t < ceil((K-ph)/S), which fill its slice from
    c = K_T - ceil((K-ph)/S) on: on each axis, with r0 = K - (K_T-1)*S,
    phases [0, r0) have K_T taps from corner 0 and phases [r0, min(S, K))
    K_T - 1 taps from corner 1.  Their products give at most four stacks,
    one when S divides K (tdc's matrix), so revd and revd2 multiply only
    each phase's own taps.  A stack of several phases fills whole
    super-pixels, so it needs a grid that starts at output 0: when
    P mod S = 0 the last super-pixel holds exactly the phases [0, r0) and
    no stack computes an output outside the map.  Otherwise the grid
    starts off outputs early, a stack of several phases would compute that
    overhang and cut super-pixels at every tile edge, and each phase is its
    own stack.  The stacks depend on (K, S, P) only, never on the tiles.
    In revd2's fixed blocks every GEMM has one shape whatever the tiling,
    so any tiling is bitwise identical to the monolithic run; revd and tdc
    run one GEMM per band, untiled.  Each variant counts O_C*I_C*K_T^2 MACs
    per output kept, whatever the stacks compute on the grid's overhang.
    """
    o_c, o_h, o_w = _check_layer(input, kernels, params, in_axis=0)
    i_c = input.dims[0]
    k, s, p = params.kernel_size, params.stride, params.padding
    k_t = -(-k // s)
    u0, off = p // s, p % s
    n_u, n_v = (o_h - 1 + off) // s + 1, (o_w - 1 + off) // s + 1
    # the last super-pixel is at most I - 1 + (K-1)//S = I + K_T - 2, the last
    # window the input padded by K_T - 1 holds
    windows = _windows(input.data, k_t - 1, k_t)[:, u0 : u0 + n_u, u0 : u0 + n_v]
    # (S, S, O_C, I_C, K_T, K_T) float64 in one copy: a stack at corner (0, 0)
    # is a contiguous view of it, any other corner one contiguous copy (the
    # GEMM may round a strided operand differently)
    if sliced is None:
        phases = np.ascontiguousarray(transforms._phase_taps(kernels.data, s), dtype=np.float64)
    else:
        phases = np.ascontiguousarray(sliced.data.transpose(2, 0, 1, 3, 4), dtype=np.float64)
        phases = phases.reshape(s, s, o_c, i_c, k_t, k_t)
    if stacks is None:
        # per axis, phases [0, r0) have K_T taps and [r0, min(S, K)) K_T - 1,
        # from window corner 0 and 1
        r0 = k - (k_t - 1) * s
        axis = [(lo, hi, c) for lo, hi, c in ((0, r0, 0), (r0, min(s, k), 1)) if lo < hi]
        if off:  # the grid starts before output 0: one stack per phase
            axis = [(ph, ph + 1, c) for lo, hi, c in axis for ph in range(lo, hi)]
        stacks = [
            (lo_h, hi_h, lo_w, hi_w, c_h, c_w)
            for lo_h, hi_h, c_h in axis for lo_w, hi_w, c_w in axis
        ]
    mats = [
        phases[lo_h:hi_h, lo_w:hi_w, ..., c_h:, c_w:].reshape(-1, i_c * (k_t - c_h) * (k_t - c_w))
        for lo_h, hi_h, lo_w, hi_w, c_h, c_w in stacks
    ]
    out = np.zeros((o_c, n_u, s, n_v, s), dtype=dtype)
    by_phase = out.transpose(2, 4, 0, 1, 3)
    for h0, h1, w0, w1 in [(0, o_h, 0, o_w)] if tiles is None else list(tiles):
        if not (0 <= h0 <= h1 <= o_h and 0 <= w0 <= w1 <= o_w):
            raise GeometryError(f"tile ({h0},{h1},{w0},{w1}) outside output {o_h}x{o_w}")
        if counter is not None:
            counter.add((h1 - h0) * (w1 - w0) * i_c * o_c * k_t * k_t)
        for (lo_h, hi_h, lo_w, hi_w, c_h, c_w), w2 in zip(stacks, mats):
            # the super-pixels with a phase of [lo, hi) in [h0, h1): phase ph
            # lies there from ceil((h0+off-ph)/S) to ceil((h1+off-ph)/S)
            a0, a1 = -((hi_h - 1 - off - h0) // s), -((lo_h - off - h1) // s)
            b0, b1 = -((hi_w - 1 - off - w0) // s), -((lo_w - off - w1) // s)
            dst = by_phase[lo_h:hi_h, lo_w:hi_w, :, a0:a1, b0:b1]
            _gemm_bands(windows[:, a0:a1, b0:b1, c_h:, c_w:], w2, dst, block)
    out = out.reshape(o_c, n_u * s, n_v * s)
    return out[:, off : off + o_h, off : off + o_w]


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
    _check_layer(input, kernels, params, in_axis=0)
    k, s, p = params.kernel_size, params.stride, params.padding
    flipped = transforms.flip_kernels(kernels.data)
    return Tensor(_conv_accumulate(zero_insert(input, s).data, flipped, 1, k - 1 - p, counter))


def deconv_tdc(
    input: Tensor,
    kernels: Tensor,
    params: DeconvParams,
    counter: MacCounter | None = None,
) -> Tensor:
    """Deconvolution as one phase-stacked GEMM per band of super-pixels.

    ``_phase_map`` with one stack of all S^2 phases at window corner (0, 0):
    every phase runs all K_T^2 taps of its slice, the zero taps that pad K
    to S*K_T included, so one (S^2*O_C, I_C*K_T^2) matrix yields a band's
    S x S output blocks at once.  Its slices come from the public
    transform, looked up at call time, so a tracer that replaces it (as
    the benchmark's does) times it inside every tdc call.
    """
    s = params.stride
    sliced = transforms.tdc_transform_kernels(kernels, s)
    return Tensor(_phase_map(
        input, kernels, params, counter, None, np.float32, None, [(0, s, 0, s, 0, 0)], sliced
    ))


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
            _, o_h, o_w = _check_layer(input, kernels, params, in_axis=0)
            tiles = grid_tiles(o_h, o_w, *tile)
        return fn(input, kernels, params, tiles=tiles)
    return fn(input, kernels, params)
