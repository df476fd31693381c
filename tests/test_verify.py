import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from upsample import deconv, verify
from upsample.tensor import Tensor, max_abs_diff


def test_suite_passes_with_real_variants():
    result = verify.run_equivalence_suite(seed=123, trials=8, max_extent=8)
    assert result.passed
    assert result.worst <= 1e-4
    assert len(result.cases) == 8 + 2 * 4  # deconv cases + two transforms per slot


def test_suite_zero_trials_is_vacuous_pass():
    result = verify.run_equivalence_suite(seed=1, trials=0)
    assert result.passed
    assert result.cases == []


@pytest.mark.parametrize(
    "name, kwargs",
    [
        ("trials", {"trials": -2}),
        ("max_extent", {"trials": 1, "max_extent": 1}),
        ("max_extent", {"trials": 1, "max_extent": 257}),
        ("tolerance", {"trials": 1, "tolerance": -1.0}),
    ],
    ids=["trials", "max_extent", "max_extent_above_bound", "tolerance"],
)
def test_suite_rejects_out_of_range_counts(name, kwargs):
    with pytest.raises(ValueError, match=f"{name} must be >= "):
        verify.run_equivalence_suite(seed=1, **kwargs)


def test_suite_is_seed_deterministic():
    a = verify.run_equivalence_suite(seed=7, trials=5, max_extent=6)
    b = verify.run_equivalence_suite(seed=7, trials=5, max_extent=6)
    assert [(c.label, c.max_abs_error) for c in a.cases] == [
        (c.label, c.max_abs_error) for c in b.cases
    ]


def _strd_without_kernel_flip(x, w, params):
    # fault injection: skip the index reversal STRD requires
    from upsample.ops import _conv_accumulate

    z = deconv.zero_insert(x, params.stride)
    unflipped = np.ascontiguousarray(w.data.transpose(1, 0, 2, 3))
    conv_pad = params.kernel_size - 1 - params.padding
    zz = z.data
    if conv_pad < 0:
        crop = -conv_pad
        zz = zz[:, crop:-crop, crop:-crop]
        conv_pad = 0
    return Tensor(_conv_accumulate(zz, unflipped, 1, conv_pad).astype(np.float32))


def test_suite_catches_injected_fault():
    variants = dict(verify.DEFAULT_VARIANTS)
    variants["strd"] = _strd_without_kernel_flip
    result = verify.run_equivalence_suite(seed=42, trials=10, max_extent=8, variants=variants)
    assert not result.passed
    failing = result.failures
    assert failing and all("strd" in c.detail for c in failing)


def test_suite_fails_all_nan_variant():
    def all_nan(x, w, params):
        out = deconv.deconv_standard(x, w, params)
        return Tensor(np.full(out.dims, np.nan, dtype=np.float32))

    variants = dict(verify.DEFAULT_VARIANTS, revd2=all_nan)
    result = verify.run_equivalence_suite(seed=3, trials=3, max_extent=6, variants=variants)
    assert not result.passed
    assert len(result.failures) == 3
    assert all("revd2" in c.detail for c in result.failures)


def test_suite_without_standard_fails_before_any_case():
    # the transformation cases run `standard`; a map without it must fail up
    # front, not after every deconvolution case has run
    calls = []

    def recording(x, w, params):
        calls.append(params)
        return deconv.deconv_revd(x, w, params)

    with pytest.raises(ValueError, match="'standard'"):
        verify.run_equivalence_suite(seed=1, trials=3, variants={"revd": recording, "tdc": recording})
    assert calls == []
    # with no trials nothing runs, so no variant is needed
    assert verify.run_equivalence_suite(seed=1, trials=0, variants={"revd": recording}).passed


def test_suite_fails_nan_error_even_without_pairs():
    # a lone variant has no pairs to compare; its non-finite output must still fail
    def one_inf(x, w, params):
        out = deconv.deconv_standard(x, w, params).data.copy()
        out.flat[0] = np.inf
        return Tensor(out)

    result = verify.run_equivalence_suite(
        seed=3, trials=2, max_extent=6, variants={"standard": one_inf}
    )
    assert not result.passed


def _pairwise(outputs):
    # the definition the suite must keep: every sorted pair's max_abs_diff, the
    # first pair to exceed the running worst (strict >), non-finite outputs first
    names = sorted(outputs)
    nonfinite = [n for n in names if not np.isfinite(outputs[n].data).all()]
    if nonfinite:
        return math.inf, "non-finite output from " + ", ".join(nonfinite)
    worst, pair = 0.0, ""
    for a, b in combinations(names, 2):
        d = max_abs_diff(outputs[a], outputs[b])
        if d > worst:
            worst, pair = d, f"{a} vs {b}"
    return worst, pair


def _deconv_cases(variants, trials=4):
    # run the suite on an injected map and record each deconv case's outputs
    seen = []

    def recording(name, fn):
        def run(x, w, params):
            out = fn(x, w, params)
            if len(seen) < trials * len(variants):
                seen.append((name, out))
            return out

        return run

    result = verify.run_equivalence_suite(
        seed=11, trials=trials, max_extent=7,
        variants={name: recording(name, fn) for name, fn in variants.items()},
    )
    n = len(variants)
    outputs = [dict(seen[i : i + n]) for i in range(0, len(seen), n)]
    return result.cases[:trials], outputs


def _shifted(delta):
    def run(x, w, params):
        return Tensor(deconv.deconv_standard(x, w, params).data + np.float32(delta))

    return run


def _filled(value):
    def run(x, w, params):
        out = deconv.deconv_standard(x, w, params)
        return Tensor(np.full(out.dims, value, dtype=np.float32))

    return run


def _assert_pairwise(cases, outputs):
    for case, outs in zip(cases, outputs):
        want = _pairwise(outs)
        assert (case.max_abs_error, case.detail) == want, case.label
        assert math.copysign(1.0, case.max_abs_error) == math.copysign(1.0, want[0])


def test_tied_pairs_name_the_first_sorted_pair():
    # revd and tdc agree and both differ from standard by the same amount, so
    # "revd vs standard" and "standard vs tdc" tie; a third pair differs less
    variants = {
        "tdc": _shifted(0.5), "standard": deconv.deconv_standard,
        "revd": _shifted(0.5), "strd": _shifted(0.25),
    }
    cases, outputs = _deconv_cases(variants)
    _assert_pairwise(cases, outputs)
    for case in cases:
        assert case.detail == "revd vs standard"
        assert 0.49 < case.max_abs_error < 0.51


def test_signed_zeros_do_not_differ():
    # hi holds -0.0 over lo's +0.0 whichever variant sorts first
    for variants in (
        {"revd": _filled(-0.0), "standard": _filled(0.0)},
        {"standard": _filled(-0.0), "tdc": _filled(0.0), "revd": _filled(-0.0)},
    ):
        cases, outputs = _deconv_cases(variants)
        _assert_pairwise(cases, outputs)
        for case in cases:
            assert (case.max_abs_error, case.detail) == (0.0, "")
            assert math.copysign(1.0, case.max_abs_error) == 1.0


def test_nan_and_inf_outputs_are_named_in_sorted_order():
    def with_value(value):
        def run(x, w, params):
            out = deconv.deconv_standard(x, w, params).data.copy()
            out.flat[-1] = value
            return Tensor(out)

        return run

    variants = {
        "tdc": with_value(np.inf), "standard": deconv.deconv_standard,
        "revd2": with_value(np.nan), "strd": _shifted(0.5),
    }
    cases, outputs = _deconv_cases(variants)
    _assert_pairwise(cases, outputs)
    for case in cases:
        assert case.max_abs_error == math.inf
        assert case.detail == "non-finite output from revd2, tdc"


def test_one_variant_map_has_no_pair():
    cases, outputs = _deconv_cases({"standard": deconv.deconv_standard})
    _assert_pairwise(cases, outputs)
    assert [(c.max_abs_error, c.detail) for c in cases] == [(0.0, "")] * len(cases)


def test_comparison_never_stacks_the_outputs():
    # Seed 3's fourth case is K=2 S=2 P=2 IC=2 OC=3 in=191x212: five outputs of
    # 3*378*420 float32, 1.82 MiB each, 9.1 MiB together.  The running max and
    # min add two outputs and their float64 difference two more, 7.3 MiB, and
    # the peak is 17.4 MiB.  A pairwise comparison peaks the same, at two
    # float64 copies.  Stacking the five outputs adds 9.1 MiB, about 22.8.
    tracemalloc.start()
    try:
        result = verify.run_equivalence_suite(seed=3, trials=6, max_extent=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed
    assert peak < 20 * 2**20
