"""Closed-loop benchmark run: set-up, measured calls, checks and metrics.

One process, one client, no threads: each call starts when the previous one
has returned.  Calls go in-process through ``upsample.cli.main`` for
``transform``, ``infer`` and ``verify``, and through ``upsample.ops`` for the
trained convolution that the deconvolution replaces.

The benchmark checks every output itself and never relies on ``verify``'s
comparison:

* an ``infer`` output decodes to the trained conv's shape, is finite and lies
  within 1e-4 max-abs of the conv output;
* every later call of a variant writes a byte-identical file;
* tiled revd2 is bitwise equal to untiled revd2;
* the conv call repeats its set-up output exactly;
* ``verify`` exits 0 and prints PASS.

A call that raises or fails a check counts in ``failed``.
"""
from __future__ import annotations

import io
import json
import os
import re
import resource
import shutil
import statistics
import sys
import traceback
from collections import defaultdict
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import hostinfo
import spans
from spans import VARIANTS
from upsample import cli, costmodel, ops, tensorfile
from upsample.tensor import Tensor
from workloads import FACTOR, KERNEL, Workload

TOLERANCE = 1e-4
SETUPS = 3  # setup_s is the median of this many set-ups
REP_TARGET_S = 0.05  # fast calls repeat within a round until about this long
MAX_REPS = 20
PROBE_REF_S = 1.2e-3  # reported times are scaled to a host where the probe takes this long
PROBE_WINDOW = 2  # probes on each side of a call that set its scale
KINDS = tuple(f"infer.{v}" for v in VARIANTS) + ("conv", "verify")
PREDICTED = ("revd2", "strd", "tdc")  # variants the cost model has tables for

END_TO_END_UNITS = {
    **{f"infer_s.{v}": "s" for v in VARIANTS},
    "conv_s": "s",
    "verify_cases_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    **{f"deconv.{v}_s": "s" for v in VARIANTS},
    **{f"deconv.{v}.gmacs_per_s": "GMAC/s" for v in VARIANTS},
    **{f"deconv.{v}.macs_per_byte": "MAC/B" for v in VARIANTS},
    **{f"deconv.{v}.macs": "MAC" for v in VARIANTS},
    **{f"deconv.{v}.macs_over_predicted": "ratio" for v in PREDICTED},
    "deconv.revd2.tiles": "count",
    "cli.self_s": "s",
    "tensorfile.read_tensor_s": "s",
    "tensorfile.read_package_s": "s",
    "tensorfile.write_tensor_s": "s",
    "tensorfile.bytes_read": "B",
    "tensorfile.bytes_written": "B",
    "transforms.weight_shuffle_s": "s",
    "transforms.weight_convolution_s": "s",
    "transforms.tdc_transform_kernels_s": "s",
    "ops.conv_s": "s",
    "ops.conv.macs": "MAC",
    "ops.conv.macs_over_predicted": "ratio",
    "ops.mac_ratio": "ratio",
    **{f"verify.{v}_s": "s" for v in VARIANTS},
    "verify.max_abs_diff_s": "s",
    "verify.reference_s": "s",
    "verify.transforms_s": "s",
    "verify.self_s": "s",
    "verify.cases": "count",
    "verify.variant_calls": "count",
    "host.peak_gmacs": "GMAC/s",
    "host.copy_gbps": "GB/s",
    "trace.overhead_frac": "ratio",
    **{
        f"costmodel.speedup_vs_conv.{v}.{basis}": "ratio"
        for v in PREDICTED
        for basis in ("gtx680", "host", "measured")
    },
}


def parse_upst(data: bytes) -> np.ndarray:
    """Decode a ``.upst`` tensor file without the package's reader."""
    if data[:4] != b"UPST":
        raise ValueError("bad magic")
    rank = data[6]
    dims = tuple(int(d) for d in np.frombuffer(data, "<u4", rank, 7))
    return np.frombuffer(data, "<f4", offset=7 + 4 * rank).reshape(dims)


def check_output(data: bytes, reference: np.ndarray) -> str | None:
    """Why an infer output is wrong, or None if it matches the trained conv."""
    try:
        out = parse_upst(data)
    except (ValueError, IndexError) as exc:
        return f"unreadable output: {exc}"
    if out.shape != reference.shape:
        return f"output dims {out.shape} != conv dims {reference.shape}"
    if not np.isfinite(out).all():
        return "non-finite output"
    err = float(np.max(np.abs(out.astype(np.float64) - reference)))
    if not err <= TOLERANCE:
        return f"max-abs error {err:.3e} > {TOLERANCE:g}"
    return None


def median(values) -> float:
    return statistics.median(list(values))


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


@dataclass
class Entry:
    """One logged call: its phase, kind, wall time (None if it raised), the
    probe time taken just before it, and the cases a verify call checked."""

    phase: str
    kind: str
    seconds: float | None
    probe: float
    cases: int = 0


@dataclass
class Measurement:
    """Scaled per-call times of one phase, by kind."""

    times: dict[str, list[float]] = field(default_factory=lambda: {k: [] for k in KINDS})
    raw: dict[str, list[float]] = field(default_factory=lambda: {k: [] for k in KINDS})
    verify_cases: int = 0
    verify_seconds: float = 0.0

    def round_seconds(self) -> float:
        """One call of each kind, from the medians."""
        return sum(median(t) for t in self.times.values())


def scale_factors(log: list[Entry]) -> list[float]:
    """PROBE_REF_S over the median probe time around each call."""
    probes = [e.probe for e in log]
    w = PROBE_WINDOW
    return [PROBE_REF_S / median(probes[max(0, i - w): i + w + 1]) for i in range(len(probes))]


def collect(log: list[Entry], factors: list[float], phase: str) -> Measurement:
    m = Measurement()
    for e, f in zip(log, factors):
        if e.phase != phase or e.seconds is None:
            continue
        m.times[e.kind].append(e.seconds * f)
        m.raw[e.kind].append(e.seconds)
        if e.kind == "verify":
            m.verify_cases += e.cases
            m.verify_seconds += e.seconds * f
    return m


class Harness:
    """Files, reference output, call log and tallies of one workload in one process."""

    def __init__(self, wl: Workload, seed: int, workdir: Path):
        self.wl, self.seed, self.dir = wl, seed, workdir
        self.kernels_path = workdir / "conv_kernels.upst"
        self.input_path = workdir / "input.upst"
        self.package_path = workdir / "deconv.upkg"
        self.tracer: spans.Tracer | None = None
        self.probe = hostinfo.SpeedProbe()
        self.log: list[Entry] = []
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.first: dict[str, bytes] = {}  # first checked output per infer kind
        self.warm: dict[str, float | None] = {}
        self.verify_runs = 0
        self.last_cases = 0

    # --- calls ---------------------------------------------------------------

    def _request(self, kind: str):
        return self.tracer.request(kind) if self.tracer else nullcontext()

    def _cli(self, args: list[str]) -> tuple[int, str]:
        sink = io.StringIO()
        with redirect_stdout(sink):
            rc = cli.main(args)
        return rc, sink.getvalue()

    def _conv(self) -> Tensor:
        fn = ops.subpixel_conv if self.wl.source == "subpixel" else ops.resize_conv
        return fn(self.x, self.w, ops.ConvParams(KERNEL, 1, KERNEL // 2), FACTOR)

    def _infer_args(self, variant: str, out: Path, tiles: str | None) -> list[str]:
        args = ["infer", "--input", str(self.input_path), "--package", str(self.package_path),
                "--variant", variant, "--out", str(out)]
        return args + ["--tiles", tiles] if tiles else args

    def _run(self, kind: str):
        if kind == "conv":
            return self._conv()
        if kind == "verify":
            seed = self.seed * 1_000_003 + self.verify_runs
            self.verify_runs += 1
            return self._cli(["verify", "--seed", str(seed), "--trials", str(self.wl.verify_trials)])
        if kind == "tiling":
            outs = []
            for i, tiles in enumerate((None, self.wl.check_tiles)):
                path = self.dir / f"tiling{i}.upst"
                rc, _ = self._cli(self._infer_args("revd2", path, tiles))
                outs.append(path.read_bytes() if rc == 0 else None)
            return outs
        variant = kind.split(".", 1)[1]
        out = self.dir / f"out_{variant}.upst"
        tiles = self.wl.tiles if variant == "revd2" else None
        rc, _ = self._cli(self._infer_args(variant, out, tiles))
        return rc, out

    def _check(self, kind: str, result) -> str | None:
        if kind == "conv":
            return None if np.array_equal(result.data, self.reference) else "conv output changed"
        if kind == "verify":
            rc, text = result
            found = re.search(r"^VERIFY PASS: (\d+) cases", text, re.M)
            if rc != 0 or not found:
                return f"verify exited {rc} without PASS"
            self.last_cases = int(found.group(1))
            return None
        if kind == "tiling":
            untiled, tiled = result
            if untiled is None or untiled != tiled or untiled != self.first.get("infer.revd2"):
                return f"revd2 with --tiles {self.wl.check_tiles} is not bitwise equal to untiled"
            return None
        rc, out = result
        if rc != 0:
            return f"infer exited {rc}"
        data = out.read_bytes()
        if kind not in self.first:
            problem = check_output(data, self.reference)
            if problem is None:
                self.first[kind] = data
            return problem
        return None if data == self.first[kind] else "output differs from the first call's bytes"

    def call(self, kind: str, phase: str, request: str | None = None) -> float | None:
        """Probe, then one checked call of ``kind``; its wall time, or None if it raised."""
        self.attempted += 1
        self.last_cases = 0
        probe = self.probe()
        try:
            with self._request(request or kind):
                t0 = perf_counter()
                result = self._run(kind)
                elapsed = perf_counter() - t0
            problem = self._check(kind, result)
        except Exception as exc:  # a failed call is counted and the loop goes on
            elapsed, problem = None, f"{type(exc).__name__}: {exc}"
        if problem:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{kind}: {problem}")
        self.log.append(Entry(phase, kind, elapsed, probe, self.last_cases))
        return elapsed

    # --- phases --------------------------------------------------------------

    def setup(self, phase: str) -> float:
        """Make inputs, transform, compute the conv reference, warm every call.

        Returns the wall time those steps took; the checks are not timed.
        The warm-up calls are logged under ``phase``.
        """
        wl = self.wl
        rng = np.random.default_rng(self.seed)
        c, e = wl.channels, wl.extent
        conv_out = FACTOR * FACTOR * c if wl.source == "subpixel" else c
        self.attempted += 2
        with self._request("setup"):
            t0 = perf_counter()
            self.w = Tensor(rng.uniform(-1.0, 1.0, (conv_out, c, KERNEL, KERNEL)).astype(np.float32))
            self.x = Tensor(rng.uniform(-1.0, 1.0, (c, e, e)).astype(np.float32))
            tensorfile.write_tensor(self.w, self.kernels_path)
            tensorfile.write_tensor(self.x, self.input_path)
            rc, _ = self._cli(["transform", "--from", wl.source, "--kernels", str(self.kernels_path),
                               "--r", str(FACTOR), "--out", str(self.package_path)])
            self.reference = self._conv().data.astype(np.float64)
            elapsed = perf_counter() - t0
        for ok, problem in ((rc == 0, f"transform exited {rc}"),
                            (np.isfinite(self.reference).all(), "non-finite conv reference")):
            if not ok:
                self.failed += 1
                self.problems.append(f"setup: {problem}")
        self.first.clear()
        for kind in KINDS:
            self.warm[kind] = self.call(kind, phase, request="warmup")
            elapsed += self.warm[kind] or 0.0
        return elapsed

    def measure(self, seconds: float, phase: str) -> None:
        """Round-robin over every kind until ``seconds`` have passed (at least one round)."""
        reps = {
            k: max(1, min(MAX_REPS, int(REP_TARGET_S / w))) if w else 1
            for k, w in self.warm.items()
        }
        deadline = perf_counter() + seconds
        while True:
            for kind in KINDS:
                for _ in range(reps[kind]):
                    self.call(kind, phase)
            if perf_counter() >= deadline:
                return


# --- metrics -----------------------------------------------------------------


def end_to_end(m: Measurement, setup_times: list[float]) -> dict[str, float]:
    out = {}
    for v in VARIANTS:
        out[f"infer_s.{v}"] = median(m.times[f"infer.{v}"])
    out["conv_s"] = median(m.times["conv"])
    out["verify_cases_per_s"] = m.verify_cases / m.verify_seconds
    out["setup_s"] = median(setup_times)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def predicted_speedups(wl: Workload, hw) -> dict[str, float]:
    """Cost-model conv time over deconv time, per variant the model covers."""
    spec = costmodel.WorkloadSpec(H=wl.extent, C=wl.channels, K=KERNEL, r=FACTOR)

    def seconds(algo: str) -> float:
        return costmodel.time_cost(costmodel.requirements(algo, spec), hw).seconds

    conv_t = seconds(f"C-{wl.family}")
    return {v: conv_t / seconds(f"D-{wl.family}/{v.upper()}") for v in PREDICTED}


def per_layer(tracer: spans.Tracer, wl: Workload, plain: Measurement,
              traced: Measurement, calibration: dict) -> dict[str, float]:
    all_spans = tracer.spans
    own = tracer.self_times()
    groups: dict[tuple[str, str], list[int]] = defaultdict(list)
    for i, s in enumerate(all_spans):
        groups[(s.name, tracer.kinds[s.request])].append(i)
    infer_kinds = [f"infer.{v}" for v in VARIANTS]

    def durations(name: str, *kinds: str) -> list[float]:
        return [all_spans[i].duration for k in kinds for i in groups[(name, k)]]

    def attr(name: str, kind: str, key: str) -> float:
        return float(median(all_spans[i].attrs[key] for i in groups[(name, kind)]))

    def attr_total(names, key: str) -> float:
        return sum(
            (all_spans[i].attrs or {}).get(key, 0)
            for name in names for k in infer_kinds for i in groups[(name, k)]
        )

    spec = costmodel.WorkloadSpec(H=wl.extent, C=wl.channels, K=KERNEL, r=FACTOR)
    conv_req = costmodel.requirements(f"C-{wl.family}", spec)
    deconv_req = {v: costmodel.requirements(f"D-{wl.family}/{v.upper()}", spec) for v in PREDICTED}
    m: dict[str, float] = {}

    for v in VARIANTS:
        name, kind = f"deconv.{v}", f"infer.{v}"
        secs, macs = median(durations(name, kind)), attr(name, kind, "macs")
        m[f"deconv.{v}_s"] = secs
        m[f"deconv.{v}.gmacs_per_s"] = macs / secs / 1e9
        m[f"deconv.{v}.macs_per_byte"] = macs / attr(name, kind, "bytes")
        m[f"deconv.{v}.macs"] = macs
    for v in PREDICTED:
        m[f"deconv.{v}.macs_over_predicted"] = m[f"deconv.{v}.macs"] / deconv_req[v].macs
    m["deconv.revd2.tiles"] = attr("deconv.revd2", "infer.revd2", "tiles")

    m["cli.self_s"] = median(own[i] for k in infer_kinds for i in groups[("cli.main", k)])
    for fn in ("read_tensor", "read_package", "write_tensor"):
        m[f"tensorfile.{fn}_s"] = median(durations(f"tensorfile.{fn}", *infer_kinds))
    n_infer = sum(len(groups[("cli.main", k)]) for k in infer_kinds)
    m["tensorfile.bytes_read"] = attr_total(
        ("tensorfile.read_tensor", "tensorfile.read_package"), "bytes_read") / n_infer
    m["tensorfile.bytes_written"] = attr_total(("tensorfile.write_tensor",), "bytes_written") / n_infer

    # The set-up's transform calls one rewrite; the other is timed inside verify.
    for fn in ("weight_shuffle", "weight_convolution"):
        name = f"transforms.{fn}"
        m[f"{name}_s"] = median(durations(name, "setup") or durations(name, "verify"))
    m["transforms.tdc_transform_kernels_s"] = median(
        durations("transforms.tdc_transform_kernels", "infer.tdc"))

    conv_name = "ops.subpixel_conv" if wl.source == "subpixel" else "ops.resize_conv"
    m["ops.conv_s"] = median(durations(conv_name, "conv"))
    m["ops.conv.macs"] = attr(conv_name, "conv", "macs")
    m["ops.conv.macs_over_predicted"] = m["ops.conv.macs"] / conv_req.macs
    m["ops.mac_ratio"] = m["deconv.revd2.macs"] / m["ops.conv.macs"]

    # verify.*_s are seconds per equivalence case; they sum to the suite's time.
    cases, n_verify = traced.verify_cases, len(traced.times["verify"])
    for v in VARIANTS:
        m[f"verify.{v}_s"] = sum(durations(f"verify.{v}", "verify")) / cases
    m["verify.max_abs_diff_s"] = sum(durations("verify.max_abs_diff", "verify")) / cases
    m["verify.reference_s"] = sum(
        durations("ops.subpixel_conv", "verify") + durations("ops.resize_conv", "verify")) / cases
    m["verify.transforms_s"] = sum(
        durations("transforms.weight_shuffle", "verify")
        + durations("transforms.weight_convolution", "verify")) / cases
    m["verify.self_s"] = sum(
        own[i] for i in groups[("verify.run_equivalence_suite", "verify")]) / cases
    m["verify.cases"] = cases / n_verify
    m["verify.variant_calls"] = sum(
        len(groups[(f"verify.{v}", "verify")]) for v in VARIANTS) / n_verify

    m["host.peak_gmacs"] = calibration["peak_gmacs"]
    m["host.copy_gbps"] = calibration["copy_gbps"]
    m["trace.overhead_frac"] = traced.round_seconds() / plain.round_seconds() - 1.0

    predicted = {
        "gtx680": predicted_speedups(wl, costmodel.load_profile("gtx680")),
        "host": predicted_speedups(wl, hostinfo.host_profile(costmodel, calibration)),
    }
    for v in PREDICTED:
        for basis, speedups in predicted.items():
            m[f"costmodel.speedup_vs_conv.{v}.{basis}"] = speedups[v]
        m[f"costmodel.speedup_vs_conv.{v}.measured"] = m["ops.conv_s"] / m[f"deconv.{v}_s"]
    return m


# --- run ---------------------------------------------------------------------


def _headline_rows(wl: Workload, metrics: dict[str, float]) -> list[str]:
    """The paper's C-vs-D latency ratios: predicted (gtx680, host) and measured."""
    gtx680 = predicted_speedups(wl, costmodel.load_profile("gtx680"))
    rows = []
    for v in PREDICTED:
        key = f"costmodel.speedup_vs_conv.{v}"
        pred = gtx680[v]
        if f"{key}.measured" in metrics:
            host = f"{metrics[f'{key}.host']:.3f}x"
            measured = f"{metrics[f'{key}.measured']:.3f}x (ops.conv_s / deconv.{v}_s)"
        else:
            host = "n/a (calibrated with --trace 1)"
            measured = f"{metrics['conv_s'] / metrics[f'infer_s.{v}']:.3f}x (conv_s / infer_s.{v})"
        rows.append(f"headline C-{wl.family} vs D-{wl.family}/{v.upper()} speedup: "
                    f"predicted gtx680 {pred:.3f}x, predicted host {host}, measured {measured}")
    return rows


def run(wl: Workload, seed: int, seconds: float, traced: bool, smoke: bool, root: Path) -> int:
    if smoke:
        wl = wl.smoke()
    facts = hostinfo.facts(wl.name, seed, smoke)
    out_dir = root / ".perfbench-out"
    work = root / ".perfbench-work" / f"{wl.name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(exist_ok=True)
    harness = Harness(wl, seed, work)
    tracer = spans.Tracer() if traced else None
    metrics: dict[str, float] = {}
    measured = Measurement()
    try:
        raw_setups = [harness.setup(f"setup{i}") for i in range(SETUPS)]
        harness.call("tiling", "check")
        if traced:
            harness.measure(seconds / 2, "plain")
            with spans.instrument(tracer):
                harness.tracer = tracer
                harness.setup("traced-setup")
                harness.measure(seconds / 2, "traced")
                harness.tracer = None
            facts["calibration"] = hostinfo.calibrate(smoke)
        else:
            harness.measure(seconds, "measure")
        factors = scale_factors(harness.log)
        if traced:
            plain = collect(harness.log, factors, "plain")
            measured = collect(harness.log, factors, "traced")
            metrics = per_layer(tracer, wl, plain, measured, facts["calibration"])
        else:
            measured = collect(harness.log, factors, "measure")
            setups = [
                raw * median(f for e, f in zip(harness.log, factors) if e.phase == f"setup{i}")
                for i, raw in enumerate(raw_setups)
            ]
            metrics = end_to_end(measured, setups)
    except Exception:  # report what broke; the result line says not correct
        traceback.print_exc()
        harness.failed += 1
        harness.problems.append("benchmark aborted")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    units = PER_LAYER_UNITS if traced else END_TO_END_UNITS
    correct = harness.failed == 0 and set(metrics) == set(units)
    print(f"facts {json.dumps(facts, sort_keys=True)}")
    for kind in KINDS:
        raw, scaled = measured.raw[kind], measured.times[kind]
        if raw:
            print(f"calls {kind:16s} n={len(raw):4d} median {median(raw):.6g} s as timed, "
                  f"{median(scaled):.6g} s scaled; p90 {p90(scaled):.6g} s scaled (not gated)")
    for name, unit in units.items():
        if name in metrics:
            print(f"metric {name:44s} {metrics[name]:.6g} {unit}")
    if correct:
        for row in _headline_rows(wl, metrics):
            print(row)
    print(f"failed_ratio {harness.failed / max(1, harness.attempted):.6g} "
          f"({harness.failed} of {harness.attempted} calls)")
    for problem in harness.problems:
        print(f"problem {problem}")

    tag = f"{wl.name}{'-smoke' if smoke else ''}-seed{seed}"
    record = {"facts": facts, "problems": harness.problems,
              "metrics": {k: [v, units[k]] for k, v in metrics.items()},
              "log_fields": ["phase", "kind", "seconds", "probe_s", "cases"],
              "log": [[e.phase, e.kind, e.seconds, e.probe, e.cases] for e in harness.log]}
    (out_dir / f"{tag}-trace{int(traced)}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        (out_dir / f"{tag}-spans.json").write_text(json.dumps(tracer.dump()))

    result = {
        "correct": correct,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
    }
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if correct else 1
