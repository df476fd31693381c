"""Convolution-based image upsampling algorithms and their cost analysis.

Core pieces: a minimal float32 tensor, forward upsamplers (sub-pixel and NN
resize convolution), five equivalent deconvolution variants, the one-time
kernel transformations linking them, an analytical time/energy cost model
with roofline analysis, a SIMD tiling analyzer, and bit-exact tensor/package
serialization.  See the ``upsample`` CLI for the executable surface.
"""
from .costmodel import (
    Algorithm,
    CostReport,
    HardwareProfile,
    Requirements,
    WorkloadSpec,
    activation_reuse,
    arithmetic_intensity,
    energy_cost,
    list_profiles,
    load_profile,
    requirements,
    roofline_point,
    strd_zero_fraction,
    sweep,
    tdc_zero_fraction,
    time_cost,
)
from .deconv import (
    deconv_revd,
    deconv_revd2,
    deconv_standard,
    deconv_strd,
    deconv_tdc,
    grid_tiles,
    zero_insert,
)
from .ops import (
    ConvParams,
    DeconvParams,
    MacCounter,
    conv2d,
    nn_interpolate,
    pixel_shuffle,
    resize_conv,
    subpixel_conv,
)
from .tensor import Tensor, max_abs_diff, zeros
from .tensorfile import (
    ProvenanceRecord,
    provenance_for,
    read_package,
    read_tensor,
    write_package,
    write_tensor,
)
from .tiling import TilingReport, TilingScenario, analyze, tile_legality
from .transforms import (
    derive_params_nn,
    derive_params_subpixel,
    mac_reduction_ratio_nn,
    tdc_transform_kernels,
    weight_convolution,
    weight_shuffle,
)

__version__ = "0.1.0"
