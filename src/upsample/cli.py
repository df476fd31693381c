"""Command-line interface.

Subcommands:

* ``verify``    randomized equivalence suite over all deconvolution variants
                and both kernel transformations
* ``transform`` rewrite trained conv kernels as deconvolution kernel packages
* ``infer``     run a deconvolution variant on a tensor file using a package
* ``analyze``   cost-model sweep to CSV
* ``tiling``    SIMD tiling legality / load-balance report
* ``profiles``  list available hardware profiles

Exit status: 0 success, 1 verification failure, 2 usage error (a layer
too large for memory included), 3 I/O or parse error.  Outputs carry no
timestamps, so identical flags (and seed) produce identical bytes.
"""
from __future__ import annotations

import argparse
import functools
import io
import math
import sys

from . import costmodel, deconv, tensorfile, tiling, transforms, verify
from .ops import GeometryError
from .tensor import DimensionError, ShapeError
from .transforms import InvalidKernelError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

_USAGE_ERRORS = (
    GeometryError,
    ShapeError,
    DimensionError,
    InvalidKernelError,
    tiling.LegalityError,
    costmodel.DomainError,
)
_IO_ERRORS = (tensorfile.FormatError, costmodel.ProfileError, OSError)

DEFAULT_ALGOS = "C-SP,C-NN,D-SP/REVD2,D-SP/STRD,D-SP/TDC,D-NN/REVD2,D-NN/STRD,D-NN/TDC"


def _parse_r_range(text: str) -> list[int]:
    lo, sep, hi = text.partition("..")
    try:
        lo = int(lo)
        hi = int(hi) if sep else lo
    except ValueError:
        raise costmodel.DomainError(f"bad r range {text!r}, expected A..B or N") from None
    if hi > transforms.MAX_FACTOR:
        raise costmodel.DomainError(
            f"r range {text!r} goes above the largest factor r={transforms.MAX_FACTOR}"
        )
    if hi < lo or lo < 1:
        raise costmodel.DomainError(f"empty or non-positive r range {text!r}")
    return list(range(lo, hi + 1))


def _parse_tiles(text: str) -> tuple[int, int]:
    h, sep, w = text.lower().partition("x")
    try:
        if not sep:
            raise ValueError
        th, tw = int(h), int(w)
    except ValueError:
        raise GeometryError(f"bad tile spec {text!r}, expected HxW") from None
    return th, tw


def _finite_non_negative(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _int_at_least(minimum: int, maximum: float = math.inf):
    """argparse type: an integer >= ``minimum`` and <= ``maximum``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        if value > maximum:
            raise argparse.ArgumentTypeError(f"must be <= {maximum}, got {value}")
        return value

    return integer


def _cmd_verify(args) -> int:
    result = verify.run_equivalence_suite(
        seed=args.seed,
        trials=args.trials,
        max_extent=args.max_extent,
        tolerance=args.tolerance,
    )
    for case in result.cases:
        status = "ok" if case.max_abs_error <= result.tolerance else "FAIL"
        print(f"{status:4s} {case.label}: max-abs {case.max_abs_error:.3e} ({case.detail})")
    if result.passed:
        print(
            f"VERIFY PASS: {len(result.cases)} cases, worst max-abs "
            f"{result.worst:.3e} <= {result.tolerance:g} (seed {args.seed})"
        )
        return EXIT_OK
    print(
        f"VERIFY FAIL: {len(result.failures)} of {len(result.cases)} cases exceed "
        f"{result.tolerance:g} (reproduce with --seed {args.seed})"
    )
    return EXIT_VERIFY_FAILED


# --from choice -> (provenance source_algorithm, name of the transforms function)
_SOURCES = {
    "subpixel": ("sub-pixel", "weight_shuffle"),
    "nn-resize": ("nn-resize", "weight_convolution"),
}


def _cmd_transform(args) -> int:
    kernels = tensorfile.read_tensor(args.kernels)
    source_algorithm, transform = _SOURCES[args.source]
    # looked up at call time, so a replaced module attribute sees the call
    out_kernels = getattr(transforms, transform)(kernels, args.r)
    k = kernels.dims[2]
    p = (k - 1) // 2  # same-padded geometry is implied by the training setup
    prov = tensorfile.provenance_for(source_algorithm, k, p, args.r, out_kernels)
    tensorfile.write_package(out_kernels, prov, args.out)
    print(
        f"{args.source}: K={k} P={p} r={args.r} -> S={prov.stride} "
        f"K^D={prov.deconv_kernel_size} P^D={prov.deconv_padding}"
    )
    if args.source == "nn-resize":
        ratio = transforms.mac_reduction_ratio_nn(k, args.r)
        print(f"MAC reduction ratio (deconv/resize-conv): {ratio:.3f}")
    print(f"wrote package: {args.out} kernels {out_kernels.dims}")
    return EXIT_OK


def _cmd_infer(args) -> int:
    x = tensorfile.read_tensor(args.input)
    kernels, prov = tensorfile.read_package(args.package)
    params = prov.params
    tile = None if args.tiles is None else _parse_tiles(args.tiles)
    out = deconv.run(args.variant, x, kernels, params, tile=tile)
    tensorfile.write_tensor(out, args.out)
    tiled = ""
    if tile is not None:
        tiled = f" tiles={args.tiles} ({len(deconv.grid_tiles(*out.dims[1:], *tile))} workloads)"
    print(
        f"{args.variant}: {x.dims} -> {out.dims} "
        f"(S={params.stride} K^D={params.kernel_size} P^D={params.padding}){tiled}"
    )
    print(f"wrote tensor: {args.out}")
    return EXIT_OK


CSV_COLUMNS = (
    "algorithm,r,macs,weight_bytes,activation_bytes,T_s,E_j,AI,act_reuse,"
    "E_per_pixel,PPE,T_normalized,E_normalized,bound_time,bound_energy"
)


def _f(x: float) -> str:
    return f"{x:.9e}"


def sweep_csv(
    reports: list[costmodel.CostReport], w: costmodel.WorkloadSpec, hw: costmodel.HardwareProfile
) -> str:
    """Render sweep reports as CSV with a commented metadata header."""
    buf = io.StringIO()
    buf.write("# upsample cost sweep\n")
    buf.write(
        f"# workload: H={w.H} C={w.C} K={w.K} "
        f"bytes_per_element={costmodel.BYTES_PER_ELEMENT}\n"
    )
    buf.write(
        f"# profile: {hw.name} tau_comp={_f(hw.tau_comp)} tau_mem={_f(hw.tau_mem)} "
        f"eps_comp={_f(hw.eps_comp)} eps_mem={_f(hw.eps_mem)} pi0={_f(hw.pi0)}\n"
    )
    buf.write(f"# normalization baseline: {costmodel.BASELINE_ALGORITHM} at r=1\n")
    buf.write(CSV_COLUMNS + "\n")
    for rep in reports:
        req = rep.requirements
        buf.write(
            f"{rep.algorithm},{rep.r},{req.macs},{req.weight_bytes},{req.activation_bytes},"
            f"{_f(rep.T)},{_f(rep.E)},{_f(rep.arithmetic_intensity)},{_f(rep.activation_reuse)},"
            f"{_f(rep.energy_per_pixel)},{_f(rep.perf_per_energy)},"
            f"{_f(rep.T_normalized)},{_f(rep.E_normalized)},{rep.bound_time},{rep.bound_energy}\n"
        )
    return buf.getvalue()


def _cmd_analyze(args) -> int:
    hw = costmodel.load_profile(args.profile)
    w = costmodel.WorkloadSpec(H=args.H, C=args.C, K=args.K, r=1)
    algos = [a for a in (s.strip() for s in args.algos.split(",")) if a]
    r_values = _parse_r_range(args.r_range)
    reports = costmodel.sweep(algos, r_values, w, hw)
    csv_text = sweep_csv(reports, w, hw)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        print(f"wrote CSV: {args.csv} ({len(reports)} rows)")
    else:
        print(csv_text, end="")
    return EXIT_OK


def _cmd_tiling(args) -> int:
    sc = tiling.TilingScenario(
        lanes=args.lanes, out_extent=args.out_extent, stride=args.stride, tile=args.tile
    )
    rep = tiling.analyze(sc, algorithm=args.algorithm)
    legal = ", ".join(
        f"{name}={'yes' if name in rep.legal_for else 'no'}" for name in tiling.ALGORITHMS
    )
    print(f"scenario: lanes={sc.lanes} output={sc.out_extent}x{sc.out_extent} "
          f"stride={sc.stride} tile={sc.tile}")
    print(f"legality: {legal}")
    print(f"workloads: {rep.workloads}  passes: {rep.passes}  "
          f"utilization: {rep.utilization:.4f}  overhead: {rep.data_movement_overhead:.5f}")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("lanes,out_extent,stride,tile,workloads,passes,utilization,"
                     "data_movement_overhead,legal_for\n")
            fh.write(
                f"{sc.lanes},{sc.out_extent},{sc.stride},{sc.tile},{rep.workloads},"
                f"{rep.passes},{rep.utilization:.9e},{rep.data_movement_overhead:.9e},"
                f"{'|'.join(rep.legal_for)}\n"
            )
        print(f"wrote CSV: {args.csv}")
    return EXIT_OK


def _cmd_profiles(args) -> int:
    for name in costmodel.list_profiles():
        hw = costmodel.load_profile(name)
        print(
            f"{name}: tau_comp={hw.tau_comp:.4e} s/MAC tau_mem={hw.tau_mem:.4e} s/B "
            f"eps_comp={hw.eps_comp:.4e} J/MAC eps_mem={hw.eps_mem:.4e} J/B "
            f"pi0={hw.pi0:.4e} W B_tau={hw.time_balance:.3f} B_eps={hw.energy_balance:.3f}"
        )
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``upsample`` parser, built once per process.

    Parsing leaves it unchanged, and the handlers it binds look up the
    package's module attributes at call time, so every ``main`` call can
    share it.
    """
    parser = argparse.ArgumentParser(
        prog="upsample",
        description="Convolution-based upsampling algorithms, kernel transformations, "
        "and the analytical time/energy cost model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the randomized equivalence suite")
    p.add_argument("--seed", type=_int_at_least(0), default=42)
    p.add_argument("--trials", type=_int_at_least(0), default=50)
    # extents are drawn from [2, max-extent]
    p.add_argument("--max-extent", type=_int_at_least(2, verify.MAX_EXTENT), default=16)
    p.add_argument("--tolerance", type=_finite_non_negative, default=1e-4)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("transform", help="convert trained conv kernels to a deconv package")
    p.add_argument("--from", dest="source", required=True, choices=list(_SOURCES))
    p.add_argument("--kernels", required=True, help="input conv kernel tensor file")
    p.add_argument(
        "--r", type=_int_at_least(1, transforms.MAX_FACTOR), required=True,
        help="upsampling factor",
    )
    p.add_argument("--out", required=True, help="output package file")
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("infer", help="run a deconvolution variant on a tensor file")
    p.add_argument("--input", required=True)
    p.add_argument("--package", required=True)
    p.add_argument("--variant", default="revd2", choices=deconv.VARIANTS)
    p.add_argument("--tiles", help="tile edge lengths HxW (revd2 only)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_infer)

    p = sub.add_parser("analyze", help="cost-model sweep to CSV")
    p.add_argument("--profile", default="gtx680")
    p.add_argument("--algos", default=DEFAULT_ALGOS)
    p.add_argument("--r-range", default="1..4")
    p.add_argument("--H", type=int, default=1024)
    p.add_argument("--C", type=int, default=3)
    p.add_argument("--K", type=int, default=3)
    p.add_argument("--csv")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("tiling", help="SIMD tiling legality and load-balance report")
    p.add_argument("--lanes", type=int, required=True)
    p.add_argument("--out-extent", type=int, required=True)
    p.add_argument("--stride", type=int, required=True)
    p.add_argument("--tile", type=int, required=True)
    p.add_argument("--algorithm", choices=list(tiling.ALGORITHMS))
    p.add_argument("--csv")
    p.set_defaults(fn=_cmd_tiling)

    p = sub.add_parser("profiles", help="list available hardware profiles")
    p.set_defaults(fn=_cmd_profiles)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _IO_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        # valid files can still ask for more memory than the host has
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
