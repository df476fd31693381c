import math

import pytest

from upsample.tiling import LegalityError, TilingScenario, analyze, tile_legality


def test_legality_stride2_tile7():
    legal = tile_legality(2, 7)
    assert legal == {"REVD2": True, "REVD": False, "TDC": False, "STRD-as-conv": True}


def test_legality_stride1_everything_legal():
    for tile in (1, 3, 7, 28):
        assert all(tile_legality(1, tile).values())


def test_legality_divisible_tile():
    assert all(tile_legality(3, 9).values())


def test_analyze_perfect_16_lane_example():
    rep = analyze(TilingScenario(lanes=16, out_extent=28, stride=2, tile=7))
    assert rep.workloads == 16
    assert rep.passes == 1
    assert rep.utilization == 1.0
    assert rep.data_movement_overhead == 1.0
    assert "REVD" not in rep.legal_for and "REVD2" in rep.legal_for


def test_analyze_tile8_data_movement_overhead():
    rep = analyze(TilingScenario(lanes=16, out_extent=28, stride=2, tile=8))
    assert rep.workloads == 16
    assert rep.data_movement_overhead == pytest.approx(1024 / 784, abs=1e-12)


def test_analyze_tile6_two_passes_78_percent():
    rep = analyze(TilingScenario(lanes=16, out_extent=28, stride=2, tile=6))
    assert rep.workloads == 25
    assert rep.passes == 2
    assert rep.utilization == 25 / 32


def test_analyze_rejects_illegal_algorithm_request():
    sc = TilingScenario(lanes=16, out_extent=28, stride=2, tile=7)
    with pytest.raises(LegalityError, match="divisible"):
        analyze(sc, algorithm="TDC")
    with pytest.raises(LegalityError, match="divisible"):
        analyze(sc, algorithm="REVD")
    assert analyze(sc, algorithm="REVD2").workloads == 16
    with pytest.raises(LegalityError):
        analyze(sc, algorithm="NOT-AN-ALGO")


def test_scenario_validation():
    with pytest.raises(LegalityError):
        TilingScenario(lanes=0, out_extent=28, stride=2, tile=7)
    with pytest.raises(LegalityError):
        TilingScenario(lanes=16, out_extent=28, stride=2, tile=29)  # tile > extent


def test_utilization_one_iff_lanes_divide_workloads():
    for lanes in (2, 3, 4, 8, 16):
        for extent in (12, 18, 28):
            for tile in range(1, extent + 1):
                rep = analyze(TilingScenario(lanes=lanes, out_extent=extent, stride=1, tile=tile))
                assert (rep.utilization == 1.0) == (rep.workloads % lanes == 0)


def test_overhead_one_iff_tile_divides_extent():
    for extent in (12, 28):
        for tile in range(1, extent + 1):
            rep = analyze(TilingScenario(lanes=16, out_extent=extent, stride=1, tile=tile))
            assert (rep.data_movement_overhead == 1.0) == (extent % tile == 0)
            assert rep.data_movement_overhead >= 1.0
            assert rep.workloads == math.ceil(extent / tile) ** 2


@pytest.mark.parametrize(
    "out_extent, tile, per_axis",
    [(2**53 + 1, 1, 2**53 + 1), (2**60 + 3, 2**59, 3), (10**400, 3, 10**400 // 3 + 1)],
    ids=["2^53+1", "2^60+3", "10^400"],
)
def test_analyze_counts_are_exact_beyond_float_range(out_extent, tile, per_axis):
    # a float ceiling rounds above 2^53 and overflows above about 1e308
    rep = analyze(TilingScenario(lanes=7, out_extent=out_extent, stride=1, tile=tile))
    assert rep.workloads == per_axis**2
    assert rep.passes == -(-(per_axis**2) // 7)
    assert 0 < rep.utilization <= 1.0
    assert rep.data_movement_overhead >= 1.0
