"""The benchmark's workloads: one trained upsampler each, deployed as a deconvolution.

Every workload runs the same closed loop: ``infer`` with each of the five
variants, the trained convolution the deconvolution replaces, and one
``verify`` run.  They differ in the input, so each stresses another layer.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

KERNEL = 3  # trained conv kernel size K (same-padded, P = 1)
FACTOR = 2  # upsampling factor r


@dataclass(frozen=True)
class Workload:
    name: str
    source: str  # trained layer: "subpixel" or "nn-resize" (the transform's --from)
    channels: int  # C in = C out
    extent: int  # input is C x extent x extent
    tiles: str | None  # --tiles of the measured revd2 calls
    check_tiles: str  # tiling compared bitwise against the untiled revd2 run
    why: str
    verify_trials: int = 50  # --trials of each verify call (the CLI default)

    @property
    def family(self) -> str:
        """Cost-model family suffix: C-SP/D-SP or C-NN/D-NN."""
        return "SP" if self.source == "subpixel" else "NN"

    def smoke(self) -> "Workload":
        """The same workload at a size that runs in a second."""
        return replace(
            self,
            channels=min(self.channels, 4),
            extent=8,
            tiles="4x4" if self.tiles else None,
            check_tiles="4x4",
            verify_trials=1,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "deploy-sp-hires", "subpixel", 3, 128, None, "16x16",
            "few channels, 65536 output pixels: per-pixel Python loops of revd2 and standard dominate",
        ),
        Workload(
            "deploy-nn-wide", "nn-resize", 32, 32, "16x16", "16x16",
            "C=32 NN-resize (44% of the conv MACs): einsum channel contraction and tiled revd2 dispatch",
        ),
        Workload(
            "verify-small", "subpixel", 3, 16, None, "8x8",
            "tiny verify cases and 3x16x16 infers: fixed per-call cost dominates",
        ),
    )
}
