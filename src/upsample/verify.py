"""Randomized functional-equivalence suite.

Draws random geometries and values, executes every deconvolution variant on
the same arguments, and checks all pairwise max-abs differences against a
tolerance; also exercises both kernel transformations end-to-end against
their convolution-side references.  Seeded, so any failure is reproducible
from the printed parameter tuple.

The variant map is injectable so the harness itself can be tested by
substituting a deliberately broken implementation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations
from typing import Callable, Mapping

import numpy as np

from . import deconv, ops, transforms
from .tensor import Tensor, max_abs_diff

VariantFn = Callable[[Tensor, Tensor, deconv.DeconvParams], Tensor]


DEFAULT_VARIANTS: dict[str, VariantFn] = {v: partial(deconv.run, v) for v in deconv.VARIANTS}

# largest input extent a case may draw: standard's (O_C, K, K, I_H, I_W)
# float64 block then stays under 4*36*256^2*8 B, about 75 MB
MAX_EXTENT = 256


@dataclass(frozen=True)
class CaseResult:
    label: str
    max_abs_error: float
    detail: str = ""


@dataclass
class SuiteResult:
    tolerance: float
    cases: list[CaseResult] = field(default_factory=list)

    @property
    def worst(self) -> float:
        return max((c.max_abs_error for c in self.cases), default=0.0)

    @property
    def failures(self) -> list[CaseResult]:
        # written so that a NaN error or tolerance fails rather than passes
        return [c for c in self.cases if not c.max_abs_error <= self.tolerance]

    @property
    def passed(self) -> bool:
        return not self.failures


def _error(a: Tensor, b: Tensor) -> float:
    """max-abs difference, or infinity if either output is not finite."""
    if not (np.isfinite(a.data).all() and np.isfinite(b.data).all()):
        return math.inf
    return max_abs_diff(a, b)


def _draw_deconv_geometry(rng: np.random.Generator, max_extent: int):
    while True:
        i_c, o_c = (int(v) for v in rng.integers(1, 5, 2))
        i_h, i_w = (int(v) for v in rng.integers(2, max_extent + 1, 2))
        k = int(rng.integers(2, 7))
        s = int(rng.integers(1, 4))
        p = int(rng.integers(0, 3))
        if s * (i_h - 1) + k - 2 * p >= 1 and s * (i_w - 1) + k - 2 * p >= 1:
            return i_c, o_c, i_h, i_w, k, s, p


def run_equivalence_suite(
    seed: int = 42,
    trials: int = 50,
    max_extent: int = 16,
    tolerance: float = 1e-4,
    variants: Mapping[str, VariantFn] | None = None,
) -> SuiteResult:
    """Run `trials` five-way deconvolution cases plus transformation cases.

    ``trials`` must be >= 0 (0 passes vacuously) and ``max_extent`` between
    2, the smallest input extent drawn, and ``MAX_EXTENT``.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if not 2 <= max_extent <= MAX_EXTENT:
        raise ValueError(f"max_extent must be >= 2 and <= {MAX_EXTENT}, got {max_extent}")
    variants = dict(DEFAULT_VARIANTS if variants is None else variants)
    rng = np.random.default_rng(seed)
    result = SuiteResult(tolerance=tolerance)

    for _ in range(trials):
        i_c, o_c, i_h, i_w, k, s, p = _draw_deconv_geometry(rng, max_extent)
        x = Tensor(rng.uniform(-1.0, 1.0, (i_c, i_h, i_w)).astype(np.float32))
        w = Tensor(rng.uniform(-1.0, 1.0, (i_c, o_c, k, k)).astype(np.float32))
        params = deconv.DeconvParams(k, s, p)
        outputs = {name: fn(x, w, params) for name, fn in variants.items()}
        worst, worst_pair = 0.0, ""
        nonfinite = [name for name in sorted(outputs) if not np.isfinite(outputs[name].data).all()]
        if nonfinite:
            worst, worst_pair = math.inf, "non-finite output from " + ", ".join(nonfinite)
        else:
            for a, b in combinations(sorted(outputs), 2):
                d = max_abs_diff(outputs[a], outputs[b])
                if d > worst:
                    worst, worst_pair = d, f"{a} vs {b}"
        result.cases.append(
            CaseResult(
                label=f"deconv K={k} S={s} P={p} IC={i_c} OC={o_c} in={i_h}x{i_w}",
                max_abs_error=worst,
                detail=worst_pair,
            )
        )

    if trials > 0:
        for _ in range(max(1, trials // 2)):
            k = int(rng.choice([3, 5]))
            r = int(rng.integers(1, 4))
            p = (k - 1) // 2
            i_c = int(rng.integers(1, 4))
            o_c = int(rng.integers(1, 4))
            h = int(rng.integers(2, 9))
            x = Tensor(rng.uniform(-1.0, 1.0, (i_c, h, h)).astype(np.float32))

            # conv out-channels, conv-side reference, kernel rewrite, its derivation
            for c_out, conv, rewrite, derive in (
                (r * r * o_c, ops.subpixel_conv, transforms.weight_shuffle,
                 transforms.derive_params_subpixel),
                (o_c, ops.resize_conv, transforms.weight_convolution, transforms.derive_params_nn),
            ):
                w = Tensor(rng.uniform(-1.0, 1.0, (c_out, i_c, k, k)).astype(np.float32))
                ref = conv(x, w, ops.ConvParams(k, 1, p), r)
                got = variants["standard"](x, rewrite(w, r), derive(k, p, r))
                name = rewrite.__name__
                result.cases.append(
                    CaseResult(
                        label=f"{name.replace('_', '-')} K={k} r={r} IC={i_c} OC={o_c} in={h}x{h}",
                        max_abs_error=_error(ref, got),
                        detail=f"{conv.__name__} vs deconv({name})",
                    )
                )

    return result
