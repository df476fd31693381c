"""Run facts and host calibration for the benchmark.

``facts`` records what a result depends on: CPU model, cores, last-level
cache, Python and numpy versions and the BLAS thread setting.  ``calibrate``
times a float64 matmul for the peak MAC rate and a large copy for bandwidth,
and ``host_profile`` turns both into a ``costmodel.HardwareProfile``.
``SpeedProbe`` times a fixed piece of work next to every measured call.
"""
from __future__ import annotations

import glob
import os
import platform
import sys
from time import perf_counter

import numpy as np

MATMUL_N = 512
COPY_BYTES = 64 << 20
REPEATS = 7


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def llc_bytes() -> int:
    """Size of the highest cache level the OS reports for CPU 0, or 0."""
    best_level, best_size = 0, 0
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(index, "level"), encoding="ascii") as fh:
                level = int(fh.read())
            with open(os.path.join(index, "size"), encoding="ascii") as fh:
                text = fh.read().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        size = int(text.rstrip("KMG")) * scale
        if level > best_level:
            best_level, best_size = level, size
    return best_size


def facts(workload: str, seed: int, smoke: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "smoke": smoke,
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "llc_bytes": llc_bytes(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def _best(fn, repeats: int) -> float:
    fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return best


def calibrate(smoke: bool = False) -> dict:
    """Peak float64 matmul rate (GMAC/s) and copy bandwidth (GB/s), best of N."""
    n = 64 if smoke else MATMUL_N
    copy_bytes = (1 << 20) if smoke else COPY_BYTES
    rng = np.random.default_rng(0)
    a, b = rng.random((n, n)), rng.random((n, n))
    src = np.ones(copy_bytes // 8)
    dst = np.empty_like(src)
    t_mm = _best(lambda: a @ b, REPEATS)
    t_copy = _best(lambda: np.copyto(dst, src), REPEATS)
    llc = llc_bytes()
    return {
        "peak_gmacs": n**3 / t_mm / 1e9,
        "copy_gbps": 2 * copy_bytes / t_copy / 1e9,  # read + write
        "matmul_n": n,
        "copy_array_bytes": copy_bytes,
        "llc_bytes": llc,
        # Arrays of 4x the LLC would not be a small footprint on a shared
        # host, so the copy may hit cache and no roofline fraction is derived.
        "copy_exceeds_4x_llc": bool(llc) and copy_bytes >= 4 * llc,
    }


class SpeedProbe:
    """A fixed mix of interpreter, small-numpy and copy work (about 1 ms).

    The benchmark times it before every call.  Scaling a call's time by the
    probe times around it cancels the drift in host speed that a shared
    machine shows over seconds.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._x, self._w = rng.random((3, 2, 2)), rng.random((3, 3, 2, 2))
        self._src = rng.random(1 << 17)
        self._dst = np.empty_like(self._src)

    def __call__(self) -> float:
        t0 = perf_counter()
        acc = 0
        for i in range(4000):
            acc += i * i
        for _ in range(150):
            np.einsum("ihw,iohw->o", self._x, self._w)
        for _ in range(4):
            np.copyto(self._dst, self._src)
        return perf_counter() - t0


def host_profile(costmodel, calibration: dict):
    """A HardwareProfile whose time terms come from the calibration.

    Only ``tau_comp`` and ``tau_mem`` enter time predictions; the energy
    terms are copied from the bundled gtx680 profile to satisfy validation.
    """
    ref = costmodel.load_profile("gtx680")
    return costmodel.HardwareProfile(
        name="host",
        tau_comp=1.0 / (calibration["peak_gmacs"] * 1e9),
        tau_mem=1.0 / (calibration["copy_gbps"] * 1e9),
        eps_comp=ref.eps_comp,
        eps_mem=ref.eps_mem,
        pi0=ref.pi0,
    )
