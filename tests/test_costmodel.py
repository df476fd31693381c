import math
import os
from dataclasses import replace

import numpy as np
import pytest
from reference_impls import table_requirements

from upsample import costmodel
from upsample.costmodel import (
    COMPUTE_BOUND,
    MEMORY_BOUND,
    Algorithm,
    DomainError,
    HardwareProfile,
    ProfileError,
    Requirements,
    WorkloadSpec,
    activation_reuse,
    arithmetic_intensity,
    energy_cost,
    list_profiles,
    load_profile,
    parse_algorithm,
    parse_profile,
    requirements,
    roofline_point,
    strd_zero_fraction,
    sweep,
    tdc_zero_fraction,
    time_cost,
)
from upsample.deconv import DeconvParams, deconv_revd2, deconv_strd, deconv_tdc, zero_insert
from upsample.ops import ConvParams, MacCounter, resize_conv, subpixel_conv
from upsample.tensor import Tensor
from upsample.transforms import tdc_transform_kernels

ALL_ALGOS = [
    "C-SP",
    "C-NN",
    "D-SP/REVD2",
    "D-SP/STRD",
    "D-SP/TDC",
    "D-NN/REVD2",
    "D-NN/STRD",
    "D-NN/TDC",
]


def test_parse_algorithm_defaults_and_errors():
    assert parse_algorithm("D-SP").id == "D-SP/REVD2"
    assert parse_algorithm("d-nn/strd").id == "D-NN/STRD"
    assert parse_algorithm("C-SP").id == "C-SP"
    with pytest.raises(DomainError):
        parse_algorithm("C-SP/STRD")  # variants only apply to deconvolution
    with pytest.raises(DomainError):
        parse_algorithm("D-SP/FOO")
    with pytest.raises(DomainError):
        Algorithm("X-YZ")


def test_requirements_match_independent_table_evaluation(rng):
    for _ in range(40):
        h = int(rng.integers(1, 64))
        c = int(rng.integers(1, 8))
        k = int(rng.choice([1, 3, 5, 7, 9]))
        r = int(rng.integers(1, 6))
        w = WorkloadSpec(H=h, C=c, K=k, r=r)
        for algo in ALL_ALGOS:
            req = requirements(algo, w)
            macs, weights, acts = table_requirements(algo, h, c, k, r)
            assert (req.macs, req.weight_elems, req.activation_elems) == (macs, weights, acts)
            assert req.memory_elems == weights + acts


def test_dnn_vs_cnn_mac_ratio_is_044():
    w = WorkloadSpec(H=128, C=3, K=3, r=2)
    ratio = requirements("D-NN", w).macs / requirements("C-NN", w).macs
    assert ratio == pytest.approx(0.444, abs=5e-4)


def test_r1_csp_and_dsp_coincide_except_activations():
    w = WorkloadSpec(H=32, C=2, K=3, r=1)
    csp = requirements("C-SP", w)
    dsp = requirements("D-SP", w)
    assert csp.macs == dsp.macs
    assert csp.weight_elems == dsp.weight_elems
    assert csp.activation_elems == 4 * 32 * 32 * 2  # (1+3r^2) H^2 C
    assert dsp.activation_elems == 2 * 32 * 32 * 2  # (1+r^2) H^2 C


def test_csp_dsp_activation_ratio_13_over_5():
    w = WorkloadSpec(H=256, C=3, K=3, r=2)
    csp = requirements("C-SP", w)
    dsp = requirements("D-SP", w)
    assert csp.activation_elems / dsp.activation_elems == pytest.approx(13 / 5, abs=0)
    assert csp.macs == dsp.macs  # equivalence corollary: identical MAC counts


def test_time_cost_branches():
    hw = HardwareProfile("unit", tau_comp=1.0, tau_mem=1.0, eps_comp=1.0, eps_mem=1.0, pi0=0.0)
    pure_mem = Requirements(macs=0, weight_elems=2, activation_elems=3, useful_macs=0)
    t = time_cost(pure_mem, hw)
    assert t.seconds == 20.0 and t.bound == MEMORY_BOUND  # M*bytes*tau_mem
    balanced = Requirements(macs=20, weight_elems=2, activation_elems=3, useful_macs=20)
    t = time_cost(balanced, hw)
    assert t.seconds == 20.0 and t.bound == COMPUTE_BOUND  # tie goes to compute
    assert time_cost(Requirements(40, 2, 3, 40), hw).seconds == 40.0


def test_eq3_lower_bound_property(rng):
    hw = load_profile("gtx680")
    for algo in ALL_ALGOS:
        req = requirements(algo, WorkloadSpec(H=64, C=3, K=3, r=2))
        t = time_cost(req, hw).seconds
        assert t >= req.macs * hw.tau_comp - 1e-30
        assert t >= req.memory_bytes * hw.tau_mem - 1e-30


def test_energy_cost_examples():
    hw = HardwareProfile("unit", tau_comp=1.0, tau_mem=1.0, eps_comp=1.0, eps_mem=2.0, pi0=0.0)
    pure_mem = Requirements(macs=0, weight_elems=1, activation_elems=4, useful_macs=0)
    assert energy_cost(pure_mem, hw) == 5 * 4 * 2.0  # M*bytes*eps_mem
    # with pi0 = 0, doubling (C, M) doubles E
    a = Requirements(macs=10, weight_elems=3, activation_elems=7, useful_macs=10)
    b = Requirements(macs=20, weight_elems=6, activation_elems=14, useful_macs=20)
    assert energy_cost(b, hw) == pytest.approx(2 * energy_cost(a, hw), rel=1e-12)


def test_arithmetic_intensity_trivials():
    req = Requirements(macs=40, weight_elems=4, activation_elems=6, useful_macs=40)
    assert arithmetic_intensity(req) == 1.0  # C == M*bytes
    req2 = Requirements(macs=80, weight_elems=4, activation_elems=6, useful_macs=80)
    assert arithmetic_intensity(req2) == 2.0


def test_activation_reuse_uses_nonzero_macs():
    req = Requirements(macs=40, weight_elems=9, activation_elems=10, useful_macs=40)
    assert activation_reuse(req) == 1.0  # useful == A*bytes
    # STRD counts zero MACs in macs but not in useful_macs
    w = WorkloadSpec(H=64, C=2, K=3, r=2)
    strd = requirements("D-SP/STRD", w)
    revd2 = requirements("D-SP/REVD2", w)
    assert strd.macs == 4 * revd2.macs
    assert strd.useful_macs == revd2.macs
    # D-NN numerator uses the ceil((r+K-1)/r)^2 form
    dnn = requirements("D-NN/STRD", WorkloadSpec(H=64, C=2, K=3, r=3))
    kt = math.ceil((3 + 3 - 1) / 3)
    assert dnn.useful_macs == 9 * kt * kt * 64 * 64 * 4


def test_roofline_knee_and_linear_region():
    hw = HardwareProfile("unit", tau_comp=1.0, tau_mem=8.0, eps_comp=1.0, eps_mem=8.0, pi0=0.0)
    # AI == B_tau: attainable exactly 1 at the knee
    knee = Requirements(macs=64, weight_elems=1, activation_elems=1, useful_macs=64)
    point = roofline_point(knee, hw)
    assert point.time.attainable == 1.0 and point.time.bound == COMPUTE_BOUND
    # AI == B_tau/2: attainable 0.5 in the bandwidth-limited region
    half = Requirements(macs=32, weight_elems=1, activation_elems=1, useful_macs=32)
    point = roofline_point(half, hw)
    assert point.time.attainable == 0.5 and point.time.bound == MEMORY_BOUND


def test_bundled_profile_regimes_at_r2():
    hw = load_profile("gtx680")
    w = WorkloadSpec(H=1024, C=3, K=3, r=2)
    for algo in ("C-SP", "C-NN"):
        req = requirements(algo, w)
        assert time_cost(req, hw).bound == MEMORY_BOUND
        assert roofline_point(req, hw).energy.bound == MEMORY_BOUND
    dsp = requirements("D-SP", w)
    assert time_cost(dsp, hw).bound == COMPUTE_BOUND
    dnn = requirements("D-NN", w)
    assert time_cost(dnn, hw).bound == MEMORY_BOUND


def test_strd_zero_fraction_values():
    assert strd_zero_fraction(64, 1) == 0.0
    assert 0.749 <= strd_zero_fraction(1024, 2) <= 0.750
    assert strd_zero_fraction(1024, 3) == pytest.approx(8 / 9, abs=1e-3)


def test_strd_zero_fraction_matches_actual_map(rng):
    x = Tensor(rng.uniform(0.5, 1.0, (1, 64, 64)).astype(np.float32))
    z = zero_insert(x, 2)
    zeros = int((z.data == 0).sum())
    assert zeros == 127 * 127 - 64 * 64
    assert zeros / z.size == pytest.approx(strd_zero_fraction(64, 2), abs=1e-12)


def test_tdc_zero_fraction_values(rng):
    assert tdc_zero_fraction(4, 2) == 0.0  # K divisible by S
    assert tdc_zero_fraction(6, 2) == 0.0  # r=2 sub-pixel K^D
    assert tdc_zero_fraction(3, 2) == pytest.approx(1 - 9 / 16)
    # cross-check by counting zeros emitted by the transformation
    w = Tensor(rng.uniform(0.1, 1.0, (2, 3, 3, 3)).astype(np.float32))
    sliced = tdc_transform_kernels(w, 2)
    assert float((sliced.data == 0).mean()) == pytest.approx(tdc_zero_fraction(3, 2))


def test_monotonicity_in_r_h_c():
    hw = load_profile("gtx680")
    for algo in ALL_ALGOS:
        for base, grow in [
            (WorkloadSpec(H=64, C=3, K=3, r=1), lambda w, v: replace(w, r=v)),
            (WorkloadSpec(H=16, C=3, K=3, r=2), lambda w, v: replace(w, H=16 * v)),
            (WorkloadSpec(H=64, C=1, K=3, r=2), lambda w, v: replace(w, C=v)),
        ]:
            prev_t, prev_e = 0.0, 0.0
            for v in (1, 2, 3, 4):
                req = requirements(algo, grow(base, v))
                t = time_cost(req, hw).seconds
                e = energy_cost(req, hw)
                assert t >= prev_t and e >= prev_e
                prev_t, prev_e = t, e


def _mac_instrumented(algo: str, w: WorkloadSpec, rng) -> int:
    """Execute the algorithm at workload scale and return the counted MACs."""
    x = Tensor(rng.uniform(-1, 1, (w.C, w.H, w.H)).astype(np.float32))
    counter = MacCounter()
    p = (w.K - 1) // 2
    if algo == "C-SP":
        kern = Tensor(rng.uniform(-1, 1, (w.r**2 * w.C, w.C, w.K, w.K)).astype(np.float32))
        subpixel_conv(x, kern, ConvParams(w.K, 1, p), w.r, counter)
    elif algo == "C-NN":
        kern = Tensor(rng.uniform(-1, 1, (w.C, w.C, w.K, w.K)).astype(np.float32))
        resize_conv(x, kern, ConvParams(w.K, 1, p), w.r, counter)
    else:
        family, variant = algo.split("/")
        if family == "D-SP":
            kd, pd = w.r * w.K, w.r * p
        else:
            kd, pd = w.K + w.r - 1, p
        params = DeconvParams(kd, w.r, pd)
        kern = Tensor(rng.uniform(-1, 1, (w.C, w.C, kd, kd)).astype(np.float32))
        if variant == "REVD2":
            deconv_revd2(x, kern, params, counter=counter)
        elif variant == "STRD":
            deconv_strd(x, kern, params, counter=counter)
        else:
            deconv_tdc(x, tdc_transform_kernels(kern, w.r), params, counter=counter)
    return counter.macs


def test_requirements_match_instrumented_mac_counters(rng):
    for h, c, k, r in [(4, 1, 3, 2), (6, 2, 3, 2), (8, 3, 3, 3), (5, 2, 5, 2), (4, 3, 3, 4)]:
        w = WorkloadSpec(H=h, C=c, K=k, r=r)
        for algo in ALL_ALGOS:
            assert _mac_instrumented(algo, w, rng) == requirements(algo, w).macs, (algo, h, c, k, r)


def test_sweep_normalization_baseline_is_one():
    hw = load_profile("gtx680")
    reports = sweep(["D-SP"], [1], WorkloadSpec(H=128, C=3, K=3, r=1), hw)
    assert len(reports) == 1
    assert reports[0].T_normalized == 1.0
    assert reports[0].E_normalized == 1.0


def test_sweep_rejects_empty_inputs():
    hw = load_profile("gtx680")
    with pytest.raises(DomainError):
        sweep([], [2], WorkloadSpec(H=16, C=3), hw)
    with pytest.raises(DomainError):
        sweep(["C-SP"], [], WorkloadSpec(H=16, C=3), hw)


def test_workload_spec_validation():
    with pytest.raises(DomainError):
        WorkloadSpec(H=0, C=3)
    with pytest.raises(DomainError):
        WorkloadSpec(H=4, C=3, K=4)  # even kernel


def test_profile_parser_rejects_bad_input():
    good = (
        "name = x\ntau_comp_s_per_mac = 1e-12\ntau_mem_s_per_byte = 5e-12\n"
        "eps_comp_j_per_mac = 1e-11\neps_mem_j_per_byte = 5e-10\npi0_w = 1.0\n"
    )
    assert parse_profile(good).name == "x"
    with pytest.raises(ProfileError):
        parse_profile(good.replace("pi0_w = 1.0\n", ""))  # missing field
    with pytest.raises(ProfileError):
        parse_profile(good.replace("1e-12", "-1e-12"))  # non-positive
    with pytest.raises(ProfileError):
        parse_profile(good.replace("1e-12", "fast"))  # non-numeric
    for value in ("nan", "inf", "-inf"):
        with pytest.raises(ProfileError, match="tau_comp_s_per_mac"):
            parse_profile(good.replace("1e-12", value))  # non-finite
        with pytest.raises(ProfileError, match="pi0"):
            HardwareProfile("x", 1.0, 1.0, 1.0, 1.0, pi0=float(value))
    with pytest.raises(ProfileError):
        parse_profile("name: x\n")  # wrong separator


def test_profile_env_dir_and_listing(tmp_path, monkeypatch):
    text = (
        "name = custom\ntau_comp_s_per_mac = 2e-12\ntau_mem_s_per_byte = 5e-12\n"
        "eps_comp_j_per_mac = 1e-11\neps_mem_j_per_byte = 5e-10\npi0_w = 3.0\n"
    )
    (tmp_path / "custom.profile").write_text(text)
    monkeypatch.setenv("UPSAMPLE_PROFILE_DIR", str(tmp_path))
    assert "custom" in list_profiles()
    assert load_profile("custom").pi0 == 3.0
    for bundled in ("gtx680", "memory-bound-extreme", "compute-bound-extreme"):
        assert bundled in list_profiles()
    with pytest.raises(ProfileError):
        load_profile("does-not-exist")


def test_non_utf8_profile_is_profile_error(tmp_path, monkeypatch):
    (tmp_path / "latin.profile").write_bytes(b"\xff\xfe")
    with pytest.raises(ProfileError, match="latin.profile"):
        load_profile(str(tmp_path / "latin.profile"))
    monkeypatch.setenv("UPSAMPLE_PROFILE_DIR", str(tmp_path))
    with pytest.raises(ProfileError, match="latin.profile"):
        load_profile("latin")


def test_profile_balance_must_be_finite_and_positive():
    # each field is finite and > 0, but tau_mem / tau_comp or eps_mem / eps_comp is not
    for taus, epss in [((1e-308, 1e308), (1e-11, 5e-10)), ((1e-12, 5e-12), (1e-308, 1e308)),
                       ((1e200, 1e-200), (1e-11, 5e-10))]:
        with pytest.raises(ProfileError, match="balance"):
            HardwareProfile("x", *taus, *epss, pi0=1.0)


def test_sweep_rejects_costs_that_overflow():
    w = WorkloadSpec(H=1024, C=3, K=3, r=1)
    # balances are 1, yet E of the r=1 baseline overflows
    hw = HardwareProfile("huge", 1e300, 1e300, 1e300, 1e300, pi0=1.0)
    with pytest.raises(ProfileError, match=r"'huge'.*D-SP/REVD2 at r=1"):
        sweep(["C-SP"], [1], w, hw)
    # the baseline's T is finite (8.5e307 s); C-SP at r=2 has 4x its MACs
    hw = HardwareProfile("slow", 1e300, 1e300, 1e-11, 5e-10, pi0=1.0)
    assert len(sweep(["C-SP"], [1], w, hw)) == 1
    with pytest.raises(ProfileError, match=r"'slow'.*C-SP at r=2"):
        sweep(["C-SP"], [1, 2], w, hw)


def test_unsupported_combination_is_domain_error():
    with pytest.raises(DomainError):
        requirements("C-NN/TDC", WorkloadSpec(H=8, C=1))
