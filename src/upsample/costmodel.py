"""Analytical time/energy cost engine for convolution-based upsampling.

Closed-form compute and memory requirements per algorithm (in MACs and
elements), an optimistic machine model

    T = max(C * tau_comp, M_bytes * tau_mem)
    E = C * eps_comp + M_bytes * eps_mem + pi0 * T

plus the derived efficiency metrics: arithmetic intensity (MACs per byte of
total data), activation reuse (useful MACs per byte of activation data),
roofline attainable-performance points, energy per generated pixel, and
performance per energy.

Algorithms are identified by family/variant ids:

    C-SP, C-NN                        convolution-based upsamplers
    D-SP/REVD2, D-SP/STRD, D-SP/TDC   deconv translated from sub-pixel conv
    D-NN/REVD2, D-NN/STRD, D-NN/TDC   deconv translated from NN resize conv

A bare "D-SP"/"D-NN" defaults to the REVD2 execution variant.  Workloads are
square H x H images with equal input/output channel counts C and odd
conv-equivalent kernel size K, upsampled by integer factor r.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

FAMILIES = ("C-SP", "C-NN", "D-SP", "D-NN")
VARIANTS = ("REVD2", "STRD", "TDC")
COMPUTE_BOUND = "compute-bound"
MEMORY_BOUND = "memory-bound"
BYTES_PER_ELEMENT = 4  # the float32 element of the tensor file format


class DomainError(ValueError):
    """Unsupported algorithm family/variant combination."""


class ProfileError(ValueError):
    """Hardware profile file is missing, malformed, non-finite or non-positive."""


@dataclass(frozen=True)
class Algorithm:
    family: str
    variant: str | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown algorithm family {self.family!r}")
        if self.family.startswith("C-"):
            if self.variant is not None:
                raise DomainError(
                    f"{self.family} is a direct convolution algorithm; "
                    f"variant {self.variant!r} does not apply"
                )
        else:
            object.__setattr__(self, "variant", self.variant or "REVD2")
            if self.variant not in VARIANTS:
                raise DomainError(f"unknown deconvolution variant {self.variant!r}")

    @property
    def id(self) -> str:
        return self.family if self.variant is None else f"{self.family}/{self.variant}"

    def __str__(self) -> str:
        return self.id


def parse_algorithm(text: str | Algorithm) -> Algorithm:
    if isinstance(text, Algorithm):
        return text
    family, sep, variant = text.strip().partition("/")
    return Algorithm(family.upper(), variant.upper() if sep else None)


@dataclass(frozen=True)
class WorkloadSpec:
    """Square H x H input, C channels in and out, odd kernel size K, factor r."""

    H: int
    C: int
    K: int = 3
    r: int = 2

    def __post_init__(self):
        for name in ("H", "C", "K", "r"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.K % 2 == 0:
            raise DomainError(f"K must be odd, got {self.K}")

    @property
    def output_pixels(self) -> int:
        return self.r * self.r * self.H * self.H * self.C


@dataclass(frozen=True)
class Requirements:
    """Compute (MACs) and memory (elements) requirements of one algorithm.

    ``macs`` counts every loop slot the variant executes, including the
    zero-valued ones STRD and TDC introduce; ``useful_macs`` excludes the
    zero-insertion redundancy and feeds activation reuse and PPE.
    """

    macs: int
    weight_elems: int
    activation_elems: int
    useful_macs: int

    def __post_init__(self):
        for name in ("macs", "weight_elems", "activation_elems", "useful_macs"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be >= 0")

    @property
    def memory_elems(self) -> int:
        return self.weight_elems + self.activation_elems

    @property
    def weight_bytes(self) -> int:
        return self.weight_elems * BYTES_PER_ELEMENT

    @property
    def activation_bytes(self) -> int:
        return self.activation_elems * BYTES_PER_ELEMENT

    @property
    def memory_bytes(self) -> int:
        return self.memory_elems * BYTES_PER_ELEMENT


def requirements(algo: str | Algorithm, w: WorkloadSpec) -> Requirements:
    """Closed-form requirement table entry for one algorithm at workload ``w``."""
    a = parse_algorithm(algo)
    h2 = w.H * w.H
    c2 = w.C * w.C
    k2 = w.K * w.K
    r2 = w.r * w.r
    conv_macs = r2 * k2 * h2 * c2
    act_conv = (1 + 3 * r2) * h2 * w.C
    act_deconv = (1 + r2) * h2 * w.C
    p_h = (w.H - 1) * (w.r - 1)  # zeros inserted per axis by STRD
    act_strd = (r2 * h2 + (w.H + p_h) ** 2) * w.C

    if a.family == "C-SP":
        return Requirements(conv_macs, r2 * k2 * c2, act_conv, conv_macs)
    if a.family == "C-NN":
        return Requirements(conv_macs, k2 * c2, act_conv, conv_macs)

    if a.family == "D-SP":
        # K^D = rK, S = r: tiles are exactly K x K, no kernel padding
        weight = r2 * k2 * c2
        if a.variant == "STRD":
            return Requirements(r2 * conv_macs, weight, act_strd, conv_macs)
        return Requirements(conv_macs, weight, act_deconv, conv_macs)  # REVD2, TDC

    # D-NN: K^D = K + r - 1, S = r
    kd = w.K + w.r - 1
    k_t = math.ceil(kd / w.r)
    tile_macs = r2 * k_t * k_t * h2 * c2
    if a.variant == "REVD2":
        return Requirements(tile_macs, kd * kd * c2, act_deconv, tile_macs)
    if a.variant == "STRD":
        return Requirements(r2 * kd * kd * h2 * c2, kd * kd * c2, act_strd, tile_macs)
    return Requirements(tile_macs, r2 * k_t * k_t * c2, act_deconv, tile_macs)  # TDC


@dataclass(frozen=True)
class HardwareProfile:
    """Per-operation machine costs defining time and energy balance points.

    ``tau_comp``/``eps_comp`` are per MAC, ``tau_mem``/``eps_mem`` per byte,
    ``pi0`` is constant power in watts.  ``pi0`` may be zero for analyses
    that ignore constant power; the file parser is stricter.
    """

    name: str
    tau_comp: float
    tau_mem: float
    eps_comp: float
    eps_mem: float
    pi0: float

    def __post_init__(self):
        for field in ("tau_comp", "tau_mem", "eps_comp", "eps_mem", "pi0"):
            if not math.isfinite(getattr(self, field)):
                raise ProfileError(f"{field} must be finite, got {getattr(self, field)}")
        for field in ("tau_comp", "tau_mem", "eps_comp", "eps_mem"):
            if getattr(self, field) <= 0:
                raise ProfileError(f"{field} must be > 0, got {getattr(self, field)}")
        if self.pi0 < 0:
            raise ProfileError(f"pi0 must be >= 0, got {self.pi0}")
        for field in ("time_balance", "energy_balance"):  # ratios can overflow or underflow
            if not 0 < getattr(self, field) < math.inf:
                raise ProfileError(
                    f"profile {self.name!r}: {field} must be finite and > 0, "
                    f"got {getattr(self, field)}"
                )

    @property
    def time_balance(self) -> float:
        """B_tau = tau_mem / tau_comp in MACs per byte."""
        return self.tau_mem / self.tau_comp

    @property
    def energy_balance(self) -> float:
        """B_eps = eps_mem / eps_comp in MACs per byte."""
        return self.eps_mem / self.eps_comp


class TimeCost(NamedTuple):
    seconds: float
    bound: str


def time_cost(req: Requirements, hw: HardwareProfile) -> TimeCost:
    """T = max(C*tau_comp, M_bytes*tau_mem), tagged with the dominating branch."""
    t_comp = req.macs * hw.tau_comp
    t_mem = req.memory_bytes * hw.tau_mem
    if t_comp >= t_mem:
        return TimeCost(t_comp, COMPUTE_BOUND)
    return TimeCost(t_mem, MEMORY_BOUND)


def energy_cost(req: Requirements, hw: HardwareProfile) -> float:
    """E = C*eps_comp + M_bytes*eps_mem + pi0*T."""
    t = time_cost(req, hw).seconds
    return req.macs * hw.eps_comp + req.memory_bytes * hw.eps_mem + hw.pi0 * t


def arithmetic_intensity(req: Requirements) -> float:
    """MACs per byte of total (weight + activation) data accessed."""
    return req.macs / req.memory_bytes


def activation_reuse(req: Requirements) -> float:
    """Useful (non-zero) MACs per byte of activation data accessed."""
    return req.useful_macs / req.activation_bytes


class RooflinePoint(NamedTuple):
    reuse: float
    attainable: float
    bound: str


class RooflineAnalysis(NamedTuple):
    time: RooflinePoint
    energy: RooflinePoint


def roofline_point(req: Requirements, hw: HardwareProfile) -> RooflineAnalysis:
    """Attainable normalized performance under the time and energy rooflines.

    The time roofline positions the algorithm by arithmetic intensity against
    B_tau; the energy roofline by activation reuse against B_eps.  Attainable
    performance is min(1, reuse/balance) of the normalized peak.
    """
    ai = arithmetic_intensity(req)
    reuse = activation_reuse(req)
    t_att = min(1.0, ai / hw.time_balance)
    e_att = min(1.0, reuse / hw.energy_balance)
    t_bound = COMPUTE_BOUND if ai >= hw.time_balance else MEMORY_BOUND
    e_bound = COMPUTE_BOUND if reuse >= hw.energy_balance else MEMORY_BOUND
    return RooflineAnalysis(
        RooflinePoint(ai, t_att, t_bound), RooflinePoint(reuse, e_att, e_bound)
    )


def strd_zero_fraction(h: int, s: int) -> float:
    """Fraction of zeros in the STRD zero-inserted map for an H x H input."""
    if h < 1 or s < 1:
        raise DomainError("H and S must be >= 1")
    z = s * (h - 1) + 1
    return 1.0 - (h * h) / (z * z)


def tdc_zero_fraction(k: int, s: int) -> float:
    """Fraction of zeros in TDC-transformed kernels: 1 - K^2/(S*K_T)^2."""
    if k < 1 or s < 1:
        raise DomainError("K and S must be >= 1")
    k_t = math.ceil(k / s)
    return 1.0 - (k * k) / (s * s * k_t * k_t)


@dataclass(frozen=True)
class CostReport:
    """Full cost/efficiency summary for one (algorithm, r) sweep point."""

    algorithm: str
    r: int
    requirements: Requirements
    T: float
    E: float
    arithmetic_intensity: float
    activation_reuse: float
    energy_per_pixel: float
    perf_per_energy: float
    bound_time: str
    bound_energy: str
    T_normalized: float
    E_normalized: float


BASELINE_ALGORITHM = "D-SP/REVD2"  # both figure conventions reduce to this at r=1


def _finite_costs(algo: str | Algorithm, w: WorkloadSpec, hw: HardwareProfile):
    """Requirements, time and energy of one sweep point, which must not overflow."""
    req = requirements(algo, w)
    try:
        t, e = time_cost(req, hw), energy_cost(req, hw)
    except OverflowError:  # a requirement count beyond the float range
        raise DomainError(
            f"workload H={w.H} C={w.C} K={w.K} r={w.r} is too large to cost: "
            f"{algo} needs more MACs or bytes than a float holds"
        ) from None
    if not (math.isfinite(t.seconds) and math.isfinite(e)):
        raise ProfileError(f"profile {hw.name!r}: T or E overflows for {algo} at r={w.r}")
    return req, t, e


def sweep(
    algorithms: Iterable[str | Algorithm],
    r_values: Sequence[int],
    w: WorkloadSpec,
    hw: HardwareProfile,
) -> list[CostReport]:
    """Cost reports for every (algorithm, r), normalized by the deconvolution
    baseline (D-SP/REVD2) at r=1 on the same workload and profile."""
    algos = [parse_algorithm(a) for a in algorithms]
    if not algos or not r_values:
        raise DomainError("sweep needs at least one algorithm and one r value")
    _, t_base, e_base = _finite_costs(BASELINE_ALGORITHM, replace(w, r=1), hw)
    reports = []
    for a in algos:
        for r in r_values:
            wr = replace(w, r=int(r))
            req, t, e = _finite_costs(a, wr, hw)
            roof = roofline_point(req, hw)
            reports.append(
                CostReport(
                    algorithm=a.id,
                    r=wr.r,
                    requirements=req,
                    T=t.seconds,
                    E=e,
                    arithmetic_intensity=arithmetic_intensity(req),
                    activation_reuse=activation_reuse(req),
                    energy_per_pixel=e / wr.output_pixels,
                    perf_per_energy=req.useful_macs / e,
                    bound_time=t.bound,
                    bound_energy=roof.energy.bound,
                    T_normalized=t.seconds / t_base.seconds,
                    E_normalized=e / e_base,
                )
            )
    return reports


# --- hardware profile files -------------------------------------------------

PROFILE_SUFFIX = ".profile"
PROFILE_ENV_VAR = "UPSAMPLE_PROFILE_DIR"
_REQUIRED_KEYS = (
    "name",
    "tau_comp_s_per_mac",
    "tau_mem_s_per_byte",
    "eps_comp_j_per_mac",
    "eps_mem_j_per_byte",
    "pi0_w",
)


def parse_profile(text: str, origin: str = "<string>") -> HardwareProfile:
    """Parse the key-value profile format; rejects missing, non-finite or
    non-positive fields."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ProfileError(f"{origin}:{lineno}: expected 'key = value', got {raw!r}")
        values[key.strip()] = value.strip()
    missing = [k for k in _REQUIRED_KEYS if k not in values]
    if missing:
        raise ProfileError(f"{origin}: missing fields {missing}")
    numeric = {}
    for key in _REQUIRED_KEYS[1:]:
        try:
            numeric[key] = float(values[key])
        except ValueError as exc:
            raise ProfileError(f"{origin}: field {key} is not a number: {values[key]!r}") from exc
        if not (math.isfinite(numeric[key]) and numeric[key] > 0):
            raise ProfileError(
                f"{origin}: field {key} must be finite and > 0, got {numeric[key]}"
            )
    return HardwareProfile(
        name=values["name"],
        tau_comp=numeric["tau_comp_s_per_mac"],
        tau_mem=numeric["tau_mem_s_per_byte"],
        eps_comp=numeric["eps_comp_j_per_mac"],
        eps_mem=numeric["eps_mem_j_per_byte"],
        pi0=numeric["pi0_w"],
    )


def _bundled_profiles():
    return resources.files(__package__).joinpath("profiles")


def list_profiles() -> list[str]:
    """Names of bundled profiles plus any found in $UPSAMPLE_PROFILE_DIR."""
    names = set()
    for entry in _bundled_profiles().iterdir():
        if entry.name.endswith(PROFILE_SUFFIX):
            names.add(entry.name[: -len(PROFILE_SUFFIX)])
    env_dir = os.environ.get(PROFILE_ENV_VAR)
    if env_dir and os.path.isdir(env_dir):
        for fname in os.listdir(env_dir):
            if fname.endswith(PROFILE_SUFFIX):
                names.add(fname[: -len(PROFILE_SUFFIX)])
    return sorted(names)


def _read_profile(path, origin: str) -> HardwareProfile:
    """Parse the profile file at ``path``, a ``pathlib.Path`` or bundled resource."""
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ProfileError(f"{origin}: not UTF-8 text: {exc}") from exc
    return parse_profile(text, origin=origin)


def load_profile(name_or_path: str) -> HardwareProfile:
    """Load a profile by file path, from $UPSAMPLE_PROFILE_DIR, or bundled."""
    if os.path.isfile(name_or_path):
        return _read_profile(Path(name_or_path), name_or_path)
    env_dir = os.environ.get(PROFILE_ENV_VAR)
    if env_dir:
        candidate = os.path.join(env_dir, name_or_path + PROFILE_SUFFIX)
        if os.path.isfile(candidate):
            return _read_profile(Path(candidate), candidate)
    bundled = _bundled_profiles().joinpath(name_or_path + PROFILE_SUFFIX)
    if bundled.is_file():
        return _read_profile(bundled, bundled.name)
    raise ProfileError(
        f"profile {name_or_path!r} not found (searched path, "
        f"${PROFILE_ENV_VAR}, bundled: {', '.join(list_profiles())})"
    )
