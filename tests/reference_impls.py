"""Independent loop-nest oracles used to check the vectorized implementations.

Deliberately written as literal nested loops over the algorithm definitions,
sharing no code with the package, so every comparison is a genuine
second-implementation check.
"""
from __future__ import annotations

import math

import numpy as np


def ref_conv2d(x: np.ndarray, w: np.ndarray, stride: int, padding: int) -> np.ndarray:
    i_c, i_h, i_w = x.shape
    o_c, _, k, _ = w.shape
    o_h = (i_h - k + 2 * padding) // stride + 1
    o_w = (i_w - k + 2 * padding) // stride + 1
    out = np.zeros((o_c, o_h, o_w), dtype=np.float64)
    for oc in range(o_c):
        for oh in range(o_h):
            for ow in range(o_w):
                acc = 0.0
                for ic in range(i_c):
                    for kh in range(k):
                        for kw in range(k):
                            ih = stride * oh + kh - padding
                            iw = stride * ow + kw - padding
                            if 0 <= ih < i_h and 0 <= iw < i_w:
                                acc += float(x[ic, ih, iw]) * float(w[oc, ic, kh, kw])
                out[oc, oh, ow] = acc
    return out.astype(np.float32)


def ref_deconv(x: np.ndarray, w: np.ndarray, stride: int, padding: int) -> np.ndarray:
    i_c, i_h, i_w = x.shape
    _, o_c, k, _ = w.shape
    o_h = stride * (i_h - 1) + k - 2 * padding
    o_w = stride * (i_w - 1) + k - 2 * padding
    out = np.zeros((o_c, o_h, o_w), dtype=np.float64)
    for oc in range(o_c):
        for ih in range(i_h):
            for iw in range(i_w):
                for ic in range(i_c):
                    for kh in range(k):
                        for kw in range(k):
                            oh = stride * ih + kh - padding
                            ow = stride * iw + kw - padding
                            if 0 <= oh < o_h and 0 <= ow < o_w:
                                out[oc, oh, ow] += float(x[ic, ih, iw]) * float(
                                    w[ic, oc, kh, kw]
                                )
    return out.astype(np.float32)


def ref_deconv_scatter(x: np.ndarray, w: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """Float64 accumulator of a block-by-block scatter, before rounding to float32.

    One einsum gives each input pixel's (O_C, K, K) contribution block; the
    blocks are added, clipped to the output, one input pixel at a time in
    (ih, iw) raster order.  Fixes the order in which each output pixel sums
    its terms, so a faster scatter can be compared with it bitwise.  The
    einsum stays although the package's scatter computes its blocks with a
    BLAS GEMM: an oracle never routes through package code or rests on a
    BLAS's summation order, and at I_C <= 2 the two contractions agree bit
    for bit whatever that order.
    """
    _, i_h, i_w = x.shape
    _, o_c, k, _ = w.shape
    o_h = stride * (i_h - 1) + k - 2 * padding
    o_w = stride * (i_w - 1) + k - 2 * padding
    out = np.zeros((o_c, o_h, o_w), dtype=np.float64)
    contrib = np.einsum("chw,cokl->hwokl", x.astype(np.float64), w.astype(np.float64))
    for ih in range(i_h):
        for iw in range(i_w):
            oh, ow = stride * ih - padding, stride * iw - padding
            kh0, kh1 = max(0, -oh), min(k, o_h - oh)
            kw0, kw1 = max(0, -ow), min(k, o_w - ow)
            if kh0 < kh1 and kw0 < kw1:
                out[:, oh + kh0 : oh + kh1, ow + kw0 : ow + kw1] += contrib[
                    ih, iw, :, kh0:kh1, kw0:kw1
                ]
    return out


def ref_pixel_shuffle(x: np.ndarray, r: int) -> np.ndarray:
    c_in, h, w = x.shape
    o_c = c_in // (r * r)
    out = np.zeros((o_c, r * h, r * w), dtype=x.dtype)
    for oc in range(o_c):
        for oh in range(r * h):
            for ow in range(r * w):
                ic = r * r * oc + r * (oh % r) + (ow % r)
                out[oc, oh, ow] = x[ic, oh // r, ow // r]
    return out


def ref_nn_interpolate(x: np.ndarray, r: int) -> np.ndarray:
    c, h, w = x.shape
    out = np.zeros((c, r * h, r * w), dtype=x.dtype)
    for ic in range(c):
        for oh in range(r * h):
            for ow in range(r * w):
                out[ic, oh, ow] = x[ic, oh // r, ow // r]
    return out


def ref_weight_shuffle(conv: np.ndarray, r: int) -> np.ndarray:
    c_out, i_c, k, _ = conv.shape
    o_c = c_out // (r * r)
    kd = r * k
    out = np.zeros((i_c, o_c, kd, kd), dtype=conv.dtype)
    for ic in range(i_c):
        for od in range(o_c):
            for khd in range(kd):
                for kwd in range(kd):
                    khc = k - khd // r - 1
                    kwc = k - kwd // r - 1
                    occ = r * r * od + r * (khd % r) + (kwd % r)
                    out[ic, od, khd, kwd] = conv[occ, ic, khc, kwc]
    return out


def ref_tdc_transform(deconv_k: np.ndarray, stride: int) -> np.ndarray:
    i_c, o_c, k, _ = deconv_k.shape
    k_t = math.ceil(k / stride)
    p_k = stride * k_t - k
    out = np.zeros((o_c, i_c, stride * stride, k_t, k_t), dtype=deconv_k.dtype)
    for oc in range(o_c):
        for ic in range(i_c):
            for kh in range(k + p_k):
                for kw in range(k + p_k):
                    n = stride * (kh % stride) + (kw % stride)
                    rh = k_t - math.ceil((kh + 1) / stride)
                    rw = k_t - math.ceil((kw + 1) / stride)
                    if kh < k and kw < k:
                        out[oc, ic, n, rh, rw] = deconv_k[ic, oc, kh, kw]
    return out


def table_requirements(algo: str, h: int, c: int, k: int, r: int) -> tuple[int, int, int]:
    """Independent integer evaluation of the requirement tables: (macs, W, A)."""
    p_h = (h - 1) * (r - 1)
    kd = k + r - 1
    k_t = -(-kd // r)  # ceil(kd / r)
    forms = {
        "C-SP": (r**2 * k**2 * h**2 * c**2, r**2 * k**2 * c**2, (1 + 3 * r**2) * h**2 * c),
        "C-NN": (r**2 * k**2 * h**2 * c**2, k**2 * c**2, (1 + 3 * r**2) * h**2 * c),
        "D-SP/REVD2": (
            r**2 * k**2 * h**2 * c**2,
            r**2 * k**2 * c**2,
            (1 + r**2) * h**2 * c,
        ),
        "D-SP/STRD": (
            r**4 * k**2 * h**2 * c**2,
            r**2 * k**2 * c**2,
            (r**2 * h**2 + (h + p_h) ** 2) * c,
        ),
        "D-SP/TDC": (
            r**2 * k**2 * h**2 * c**2,
            r**2 * k**2 * c**2,
            (1 + r**2) * h**2 * c,
        ),
        "D-NN/REVD2": (
            r**2 * k_t**2 * h**2 * c**2,
            kd**2 * c**2,
            (1 + r**2) * h**2 * c,
        ),
        "D-NN/STRD": (
            r**2 * kd**2 * h**2 * c**2,
            kd**2 * c**2,
            (r**2 * h**2 + (h + p_h) ** 2) * c,
        ),
        "D-NN/TDC": (
            r**2 * k_t**2 * h**2 * c**2,
            r**2 * k_t**2 * c**2,
            (1 + r**2) * h**2 * c,
        ),
    }
    return forms[algo]
