#!/usr/bin/env python3
"""Benchmark entry point: deploy-time inference and verify throughput of upsample.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload deploy-sp-hires --seed 1 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  ``--smoke`` shrinks every workload so a run takes
seconds.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md in
this directory for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "upsample" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'upsample'}", file=sys.stderr)
        return 2
    # The package never calls BLAS; pinning it keeps the calibration matmul
    # single-threaded like the code it is set against.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    import bench

    return bench.run(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.smoke, ROOT
    )


if __name__ == "__main__":
    sys.exit(main())
