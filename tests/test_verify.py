import numpy as np
import pytest

from upsample import deconv, verify
from upsample.tensor import Tensor


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
    [("trials", {"trials": -2}), ("max_extent", {"trials": 1, "max_extent": 1})],
    ids=["trials", "max_extent"],
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
