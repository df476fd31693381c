"""SIMD tiling legality and load-balance analysis for deconvolution workloads.

REVD and TDC traverse the output space in S x S phase tiles, so an output
tiling is only functionally correct for them when the tile edge is divisible
by the stride.  REVD2 computes every output pixel independently and accepts
any tile; so does STRD executed as a plain convolution.  Given a scenario
(lane count, square output extent, stride, tile edge) the analyzer reports
how many workloads the tiling creates, how many SIMD passes they need, lane
utilization, and the data-movement overhead of padded tiles versus an exact
cover of the output.

The analyzer reports the paper's SIMD legality rule; it does not say what
``deconv`` runs.  ``upsample infer --tiles`` runs revd2 only, whose fixed
GEMM shape makes any tiling bitwise identical to the untiled run.  revd and
tdc run one GEMM per band, whose shape would change with the tile, so the
package rejects tiles for them even where the rule calls a tiling legal.
"""
from __future__ import annotations

from dataclasses import dataclass

# the standard deconvolution scatters from input space and has no output tiling
ALGORITHMS = ("REVD2", "REVD", "TDC", "STRD-as-conv")
_PHASE_TILED = ("REVD", "TDC")  # the algorithms that need tile % stride == 0


class LegalityError(ValueError):
    """Requested tiling breaks functional correctness for the algorithm."""


@dataclass(frozen=True)
class TilingScenario:
    lanes: int
    out_extent: int
    stride: int
    tile: int

    def __post_init__(self):
        for name in ("lanes", "out_extent", "stride", "tile"):
            if getattr(self, name) < 1:
                raise LegalityError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.tile > self.out_extent:
            raise LegalityError(
                f"tile {self.tile} exceeds output extent {self.out_extent}"
            )


@dataclass(frozen=True)
class TilingReport:
    scenario: TilingScenario
    legal_for: tuple[str, ...]
    workloads: int
    passes: int
    utilization: float
    data_movement_overhead: float


def tile_legality(stride: int, tile: int) -> dict[str, bool]:
    """Per-algorithm legality of a square output tiling of edge ``tile``."""
    if stride < 1 or tile < 1:
        raise LegalityError("stride and tile must be >= 1")
    return {a: a not in _PHASE_TILED or tile % stride == 0 for a in ALGORITHMS}


def analyze(sc: TilingScenario, algorithm: str | None = None) -> TilingReport:
    """Workload count, SIMD passes, utilization, and padded-tile overhead.

    Edge tiles occupy a full lane slot regardless of partial fill, so
    utilization is workloads / (passes * lanes); overhead compares the
    padded-tile data volume against the exact output size.  The counts are
    exact integers at any extent.  If ``algorithm`` is given and the tiling
    is illegal for it, raises LegalityError.
    """
    legality = tile_legality(sc.stride, sc.tile)
    if algorithm is not None:
        if algorithm not in legality:
            raise LegalityError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
        if not legality[algorithm]:
            raise LegalityError(
                f"tile {sc.tile} is illegal for {algorithm} with stride "
                f"{sc.stride}: output tiling must be divisible by the stride"
            )
    per_axis = -(-sc.out_extent // sc.tile)
    workloads = per_axis * per_axis
    passes = -(-workloads // sc.lanes)
    utilization = workloads / (passes * sc.lanes)
    overhead = (workloads * sc.tile * sc.tile) / (sc.out_extent * sc.out_extent)
    return TilingReport(
        scenario=sc,
        legal_for=tuple(a for a in ALGORITHMS if legality[a]),
        workloads=workloads,
        passes=passes,
        utilization=utilization,
        data_movement_overhead=overhead,
    )
