import json
import os
import struct

import numpy as np
import pytest

from upsample import cli, deconv, transforms, verify
from upsample.ops import ConvParams, subpixel_conv
from upsample.tensor import Tensor, max_abs_diff
from upsample.tensorfile import (
    ProvenanceRecord,
    payload_checksum,
    read_package,
    read_tensor,
    write_tensor,
)
from upsample.transforms import mac_reduction_ratio_nn


def run(argv):
    return cli.main(argv)


def test_verify_zero_trials_vacuous_pass(capsys):
    assert run(["verify", "--trials", "0"]) == 0
    assert "VERIFY PASS" in capsys.readouterr().out


def test_verify_default_seed_passes(capsys):
    assert run(["verify", "--trials", "6", "--max-extent", "8"]) == 0
    out = capsys.readouterr().out
    assert "max-abs" in out and "VERIFY PASS" in out


def test_verify_injected_fault_fails(capsys, monkeypatch):
    def broken_revd(x, w, params):
        out = verify.DEFAULT_VARIANTS["standard"](x, w, params)
        return Tensor(out.data + np.float32(0.01))

    monkeypatch.setitem(verify.DEFAULT_VARIANTS, "revd", broken_revd)
    assert run(["verify", "--trials", "4", "--max-extent", "6"]) == 1
    assert "VERIFY FAIL" in capsys.readouterr().out


def test_transform_subpixel_and_infer_roundtrip(tmp_path, rng, capsys):
    conv = Tensor(rng.uniform(-1, 1, (12, 3, 3, 3)).astype(np.float32))
    x = Tensor(rng.uniform(-1, 1, (3, 8, 8)).astype(np.float32))
    kfile = tmp_path / "conv.upst"
    write_tensor(conv, kfile)
    pkg = tmp_path / "kernels.upkg"
    assert run(["transform", "--from", "subpixel", "--kernels", str(kfile),
                "--r", "2", "--out", str(pkg)]) == 0
    out = capsys.readouterr().out
    assert "S=2 K^D=6 P^D=2" in out

    kernels, prov = read_package(pkg)
    assert prov.source_algorithm == "sub-pixel"
    assert kernels.dims == (3, 3, 6, 6)

    xfile = tmp_path / "x.upst"
    write_tensor(x, xfile)
    yfile = tmp_path / "y.upst"
    assert run(["infer", "--input", str(xfile), "--package", str(pkg),
                "--variant", "revd2", "--out", str(yfile)]) == 0
    got = read_tensor(yfile)
    direct = subpixel_conv(x, conv, ConvParams(3, 1, 1), 2)
    assert got.dims == (3, 16, 16)
    assert max_abs_diff(got, direct) <= 1e-4


@pytest.mark.parametrize("r", ["0", str(transforms.MAX_FACTOR + 1), "1000000"])
def test_transform_factor_out_of_range_is_usage_error(r, tmp_path, capsys):
    kfile = tmp_path / "k.upst"
    write_tensor(Tensor(np.ones((1, 1, 3, 3), dtype=np.float32)), kfile)
    with pytest.raises(SystemExit) as exc:
        run(["transform", "--from", "nn-resize", "--kernels", str(kfile), "--r", r,
             "--out", str(tmp_path / "p.upkg")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"upsample transform: error: argument --r: must be "
        f"{'>= 1' if r == '0' else f'<= {transforms.MAX_FACTOR}'}, got {r}"
    ]
    assert not (tmp_path / "p.upkg").exists()


def test_transform_nn_resize_prints_mac_ratio(tmp_path, rng, capsys):
    conv = Tensor(rng.uniform(-1, 1, (3, 3, 3, 3)).astype(np.float32))
    kfile = tmp_path / "conv.upst"
    write_tensor(conv, kfile)
    pkg = tmp_path / "nn.upkg"
    assert run(["transform", "--from", "nn-resize", "--kernels", str(kfile),
                "--r", "2", "--out", str(pkg)]) == 0
    out = capsys.readouterr().out
    assert "0.444" in out
    assert f"{mac_reduction_ratio_nn(3, 2):.3f}" in out


def test_infer_all_variants_agree(tmp_path, rng):
    conv = Tensor(rng.uniform(-1, 1, (4, 2, 3, 3)).astype(np.float32))
    x = Tensor(rng.uniform(-1, 1, (2, 6, 6)).astype(np.float32))
    kfile, xfile, pkg = tmp_path / "c.upst", tmp_path / "x.upst", tmp_path / "p.upkg"
    write_tensor(conv, kfile)
    write_tensor(x, xfile)
    assert run(["transform", "--from", "subpixel", "--kernels", str(kfile),
                "--r", "2", "--out", str(pkg)]) == 0
    outputs = []
    for variant in ("standard", "revd", "revd2", "strd", "tdc"):
        yfile = tmp_path / f"y-{variant}.upst"
        assert run(["infer", "--input", str(xfile), "--package", str(pkg),
                    "--variant", variant, "--out", str(yfile)]) == 0
        outputs.append(read_tensor(yfile))
    for other in outputs[1:]:
        assert max_abs_diff(outputs[0], other) <= 1e-4


@pytest.mark.parametrize("tiles", ["7x7", "8x8"])
def test_infer_tile_legality_error_for_tdc(tiles, tmp_path, rng, capsys):
    conv = Tensor(rng.uniform(-1, 1, (4, 2, 3, 3)).astype(np.float32))
    x = Tensor(rng.uniform(-1, 1, (2, 14, 14)).astype(np.float32))
    kfile, xfile, pkg = tmp_path / "c.upst", tmp_path / "x.upst", tmp_path / "p.upkg"
    write_tensor(conv, kfile)
    write_tensor(x, xfile)
    run(["transform", "--from", "subpixel", "--kernels", str(kfile), "--r", "2",
         "--out", str(pkg)])
    code = run(["infer", "--input", str(xfile), "--package", str(pkg),
                "--variant", "tdc", "--tiles", tiles, "--out", str(tmp_path / "y.upst")])
    assert code == 2
    assert "only supported for revd2" in capsys.readouterr().err


def test_infer_revd2_tiled_equals_untiled(tmp_path, rng):
    conv = Tensor(rng.uniform(-1, 1, (4, 2, 3, 3)).astype(np.float32))
    x = Tensor(rng.uniform(-1, 1, (2, 14, 14)).astype(np.float32))
    kfile, xfile, pkg = tmp_path / "c.upst", tmp_path / "x.upst", tmp_path / "p.upkg"
    write_tensor(conv, kfile)
    write_tensor(x, xfile)
    run(["transform", "--from", "subpixel", "--kernels", str(kfile), "--r", "2",
         "--out", str(pkg)])
    y1, y2 = tmp_path / "y1.upst", tmp_path / "y2.upst"
    assert run(["infer", "--input", str(xfile), "--package", str(pkg),
                "--variant", "revd2", "--tiles", "7x7", "--out", str(y1)]) == 0
    assert run(["infer", "--input", str(xfile), "--package", str(pkg),
                "--variant", "revd2", "--out", str(y2)]) == 0
    assert y1.read_bytes() == y2.read_bytes()


def test_infer_replaces_its_output_and_writes_through_a_symlinked_out(tmp_path, rng):
    pkg = _subpixel_package(tmp_path, rng)
    xfile, out = tmp_path / "x.upst", tmp_path / "y.upst"
    write_tensor(Tensor(rng.uniform(-1, 1, (1, 5, 5)).astype(np.float32)), xfile)
    infer = ["infer", "--input", str(xfile), "--package", str(pkg), "--out"]
    assert run(infer + [str(out)]) == 0
    first = out.read_bytes()
    with open(out, "rb"):  # holds the first inode, so its number is not reused
        ino = os.stat(out).st_ino
        assert run(infer + [str(out)]) == 0
    assert os.stat(out).st_ino != ino
    assert out.read_bytes() == first
    link = tmp_path / "link.upst"
    link.symlink_to(out)
    assert run(infer + [str(link)]) == 0
    assert link.is_symlink()
    assert out.read_bytes() == first


def test_infer_tiles_on_wrong_rank_input_is_usage_error(tmp_path, rng, capsys):
    pkg = _subpixel_package(tmp_path, rng)
    xfile = tmp_path / "x.upst"
    write_tensor(Tensor(rng.uniform(-1, 1, (1, 4)).astype(np.float32)), xfile)
    assert run(["infer", "--input", str(xfile), "--package", str(pkg), "--tiles", "2x2",
                "--out", str(tmp_path / "y.upst")]) == 2
    assert "rank 3" in capsys.readouterr().err


def test_cli_calls_through_module_attributes(tmp_path, rng, monkeypatch):
    # The benchmark's tracer replaces these module attributes; the CLI must
    # look them up at call time, pass revd2 its tiles by keyword and pass no
    # positional MAC counter, or the traced runs lose their spans.
    calls = []

    def record(module, attr):
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            calls.append((attr, len(args), kwargs))
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, wrapper)

    for v in deconv.VARIANTS:
        record(deconv, f"deconv_{v}")
    for attr in ("tdc_transform_kernels", "weight_shuffle", "weight_convolution"):
        record(transforms, attr)

    pkgs = {}
    for source, dims in (("subpixel", (4, 2, 3, 3)), ("nn-resize", (2, 2, 3, 3))):
        kfile, pkgs[source] = tmp_path / f"{source}.upst", tmp_path / f"{source}.upkg"
        write_tensor(Tensor(rng.uniform(-1, 1, dims).astype(np.float32)), kfile)
        assert run(["transform", "--from", source, "--kernels", str(kfile), "--r", "2",
                    "--out", str(pkgs[source])]) == 0
    xfile = tmp_path / "x.upst"
    write_tensor(Tensor(rng.uniform(-1, 1, (2, 6, 6)).astype(np.float32)), xfile)
    infer = ["infer", "--input", str(xfile), "--package", str(pkgs["subpixel"]),
             "--out", str(tmp_path / "y.upst")]
    for v in deconv.VARIANTS:
        assert run(infer + ["--variant", v]) == 0
    assert run(infer + ["--variant", "revd2", "--tiles", "4x4"]) == 0

    assert {attr for attr, _, _ in calls} == {
        *(f"deconv_{v}" for v in deconv.VARIANTS),
        "tdc_transform_kernels", "weight_shuffle", "weight_convolution",
    }
    variant_calls = [c for c in calls if c[0].startswith("deconv_")]
    assert len(variant_calls) == len(deconv.VARIANTS) + 1
    assert all(n_args == 3 and "counter" not in kw for _, n_args, kw in variant_calls)
    revd2_tiles = [kw["tiles"] for attr, _, kw in variant_calls if attr == "deconv_revd2"]
    assert revd2_tiles[0] is None and len(revd2_tiles[1]) == 9


def test_analyze_csv_deterministic(tmp_path):
    args = ["analyze", "--algos", "C-SP,D-SP", "--r-range", "1..3", "--H", "64",
            "--csv", str(tmp_path / "a.csv")]
    assert run(args) == 0
    first_csv = (tmp_path / "a.csv").read_bytes()
    assert run(args) == 0
    assert (tmp_path / "a.csv").read_bytes() == first_csv
    text = first_csv.decode()
    assert text.splitlines()[4].startswith("algorithm,r,macs,")
    assert "D-SP/REVD2,2," in text


def test_analyze_default_workload_headline_ratio(tmp_path):
    # D-SP/C-SP normalized-latency ratio at r=2 on the bundled profile ~ 2.2
    csv = tmp_path / "full.csv"
    assert run(["analyze", "--algos", "C-SP,D-SP", "--r-range", "1..2",
                "--csv", str(csv)]) == 0
    rows = {}
    for line in csv.read_text().splitlines():
        if line.startswith("#") or line.startswith("algorithm"):
            continue
        fields = line.split(",")
        rows[(fields[0], int(fields[1]))] = fields
    ratio = float(rows[("C-SP", 2)][11]) / float(rows[("D-SP/REVD2", 2)][11])
    assert ratio == pytest.approx(2.2, rel=0.02)


def test_analyze_single_point_normalization(tmp_path, capsys):
    assert run(["analyze", "--algos", "D-SP", "--r-range", "1..1", "--H", "32"]) == 0
    out = capsys.readouterr().out
    row = [l for l in out.splitlines() if l.startswith("D-SP/REVD2,1,")][0]
    fields = row.split(",")
    assert float(fields[11]) == 1.0  # T_normalized
    assert float(fields[12]) == 1.0  # E_normalized


def test_analyze_unknown_profile_is_io_error(capsys):
    assert run(["analyze", "--profile", "nope"]) == 3
    assert "profile" in capsys.readouterr().err


def test_analyze_non_finite_profile_is_io_error(tmp_path, capsys):
    profile = tmp_path / "broken.profile"
    profile.write_text(
        "name = broken\ntau_comp_s_per_mac = nan\ntau_mem_s_per_byte = inf\n"
        "eps_comp_j_per_mac = 1e-11\neps_mem_j_per_byte = 5e-10\npi0_w = 1.0\n"
    )
    err = _assert_one_line_io_error(["analyze", "--profile", str(profile)], capsys)
    assert "tau_comp_s_per_mac" in err


def test_non_utf8_profile_is_io_error(tmp_path, monkeypatch, capsys):
    profile = tmp_path / "latin.profile"
    profile.write_bytes(b"\xff\xfe")
    err = _assert_one_line_io_error(["analyze", "--profile", str(profile)], capsys)
    assert "latin.profile" in err
    monkeypatch.setenv("UPSAMPLE_PROFILE_DIR", str(tmp_path))
    err = _assert_one_line_io_error(["profiles"], capsys)
    assert "latin.profile" in err


@pytest.mark.parametrize(
    "costs",
    [
        # tau_comp, tau_mem, eps_comp, eps_mem: T overflows through tau_mem / tau_comp
        ("1e-308", "1e308", "1e-11", "5e-10"),
        # finite balances, but E overflows
        ("1e300", "1e300", "1e300", "1e300"),
    ],
)
def test_analyze_profile_whose_costs_overflow_is_io_error(tmp_path, capsys, costs):
    profile = tmp_path / "huge.profile"
    keys = ("tau_comp_s_per_mac", "tau_mem_s_per_byte", "eps_comp_j_per_mac",
            "eps_mem_j_per_byte")
    profile.write_text("name = huge\npi0_w = 1.0\n" + "".join(
        f"{key} = {value}\n" for key, value in zip(keys, costs)))
    capsys.readouterr()
    assert run(["analyze", "--profile", str(profile)]) == 3
    out, err = capsys.readouterr()
    assert "inf" not in out and "nan" not in out
    assert err.startswith("error: ") and err.count("\n") == 1 and "huge" in err


@pytest.mark.parametrize(
    "flag, value", [("--H", 10**400), ("--C", 10**160)], ids=["H=1e400", "C=1e160"]
)
def test_analyze_workload_too_large_to_cost_is_usage_error(capsys, flag, value):
    # its MAC count does not fit in a float, whatever the profile
    capsys.readouterr()
    assert run(["analyze", flag, str(value)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: workload H=") and err.count("\n") == 1
    assert "Traceback" not in err


def test_analyze_bad_r_range_is_usage_error(capsys):
    assert run(["analyze", "--r-range", "2..x"]) == 2
    # the range is checked against transforms.MAX_FACTOR before it is built
    assert run(["analyze", "--r-range", "1..17"]) == 2
    assert "r=16" in capsys.readouterr().err
    assert run(["analyze", "--r-range", "16..16"]) == 0


def test_tiling_command_reports(capsys):
    assert run(["tiling", "--lanes", "16", "--out-extent", "28", "--stride", "2",
                "--tile", "7"]) == 0
    out = capsys.readouterr().out
    assert "workloads: 16" in out and "utilization: 1.0000" in out
    assert "REVD=no" in out and "REVD2=yes" in out

    assert run(["tiling", "--lanes", "16", "--out-extent", "28", "--stride", "2",
                "--tile", "8"]) == 0
    assert "overhead: 1.30612" in capsys.readouterr().out

    assert run(["tiling", "--lanes", "16", "--out-extent", "28", "--stride", "2",
                "--tile", "6"]) == 0
    assert "utilization: 0.7812" in capsys.readouterr().out


def test_tiling_csv_row(tmp_path):
    csv = tmp_path / "t.csv"
    assert run(["tiling", "--lanes", "16", "--out-extent", "28", "--stride", "2",
                "--tile", "7", "--csv", str(csv)]) == 0
    lines = csv.read_text().splitlines()
    assert lines[0].startswith("lanes,")
    assert lines[1].startswith("16,28,2,7,16,1,")


def test_tiling_illegal_algorithm_is_usage_error(capsys):
    code = run(["tiling", "--lanes", "16", "--out-extent", "28", "--stride", "2",
                "--tile", "7", "--algorithm", "TDC"])
    assert code == 2


def test_missing_input_file_is_io_error(tmp_path, capsys):
    code = run(["infer", "--input", str(tmp_path / "missing.upst"),
                "--package", str(tmp_path / "missing.upkg"), "--out", str(tmp_path / "y.upst")])
    assert code == 3


def test_corrupt_package_is_io_error(tmp_path, rng, capsys):
    x = Tensor(rng.uniform(-1, 1, (2, 4, 4)).astype(np.float32))
    xfile = tmp_path / "x.upst"
    write_tensor(x, xfile)
    bad = tmp_path / "bad.upkg"
    bad.write_bytes(b"JUNKJUNKJUNK")
    assert run(["infer", "--input", str(xfile), "--package", str(bad),
                "--out", str(tmp_path / "y.upst")]) == 3


def test_usage_error_exit_code_from_argparse():
    with pytest.raises(SystemExit) as exc:
        cli.main(["transform", "--from", "bogus", "--kernels", "x", "--r", "2", "--out", "y"])
    assert exc.value.code == 2


def test_profiles_listing(capsys):
    assert run(["profiles"]) == 0
    out = capsys.readouterr().out
    for name in ("gtx680", "memory-bound-extreme", "compute-bound-extreme"):
        assert name in out
    assert "B_tau" in out


def test_infer_output_matches_package_geometry(tmp_path, rng):
    # geometry mismatch between input and package -> usage error (shape)
    conv = Tensor(rng.uniform(-1, 1, (4, 2, 3, 3)).astype(np.float32))
    kfile, pkg = tmp_path / "c.upst", tmp_path / "p.upkg"
    write_tensor(conv, kfile)
    run(["transform", "--from", "subpixel", "--kernels", str(kfile), "--r", "2",
         "--out", str(pkg)])
    wrong_channels = Tensor(rng.uniform(-1, 1, (3, 6, 6)).astype(np.float32))
    xfile = tmp_path / "x.upst"
    write_tensor(wrong_channels, xfile)
    assert run(["infer", "--input", str(xfile), "--package", str(pkg),
                "--out", str(tmp_path / "y.upst")]) == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
def test_verify_non_finite_tolerance_is_usage_error(value, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--trials", "1", f"--tolerance={value}"])
    assert exc.value.code == 2
    assert "VERIFY PASS" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "flag", ["--max-extent=1", "--max-extent=0", "--max-extent=257", "--trials=-3", "--seed=-1"]
)
def test_verify_out_of_range_count_is_usage_error(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify", flag])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "VERIFY PASS" not in captured.out and "usage:" in captured.err


def _subpixel_package(tmp_path, rng):
    conv = Tensor(rng.uniform(-1, 1, (4, 1, 3, 3)).astype(np.float32))
    kfile, pkg = tmp_path / "c.upst", tmp_path / "p.upkg"
    write_tensor(conv, kfile)
    assert run(["transform", "--from", "subpixel", "--kernels", str(kfile),
                "--r", "2", "--out", str(pkg)]) == 0
    return pkg


def test_main_shares_one_parser_across_calls(tmp_path, rng, capsys):
    # main reuses one parser: a usage error must leave nothing behind that
    # changes the next call
    assert cli.build_parser() is cli.build_parser()
    pkg = _subpixel_package(tmp_path, rng)
    x = Tensor(rng.uniform(-1, 1, (1, 5, 5)).astype(np.float32))
    xfile, yfile = tmp_path / "x.upst", tmp_path / "y.upst"
    write_tensor(x, xfile)
    infer = ["infer", "--input", str(xfile), "--package", str(pkg), "--out", str(yfile)]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(infer + ["--variant", "bogus", "--tiles", "2x2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == [
        "upsample infer: error: argument --variant: invalid choice: 'bogus' "
        "(choose from 'standard', 'revd', 'revd2', 'strd', 'tdc')"
    ]
    assert not yfile.exists()
    assert run(infer) == 0
    assert capsys.readouterr().out.startswith("revd2: (1, 5, 5) -> (1, 10, 10) ")
    kernels, prov = read_package(pkg)
    want = deconv.deconv_revd2(x, kernels, prov.params)
    assert read_tensor(yfile).data.tobytes() == want.data.tobytes()


def _assert_one_line_io_error(argv, capsys):
    capsys.readouterr()
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    return err


def test_infer_huge_header_extents_is_io_error(tmp_path, rng, capsys):
    pkg = _subpixel_package(tmp_path, rng)
    xfile = tmp_path / "x.upst"
    xfile.write_bytes(b"UPST" + struct.pack("<HB", 1, 3) + struct.pack("<3I", *[0xFFFFFFFF] * 3))
    _assert_one_line_io_error(["infer", "--input", str(xfile), "--package", str(pkg),
                               "--out", str(tmp_path / "y.upst")], capsys)


def _rewrite_provenance(pkg, blob: bytes):
    data = pkg.read_bytes()
    tensor_end = 4 + 3 + 4 * 4 + 4 * int(np.prod(read_package(pkg)[0].dims))
    pkg.write_bytes(data[:tensor_end] + struct.pack("<I", len(blob)) + blob)


def test_infer_provenance_field_of_wrong_type_is_io_error(tmp_path, rng, capsys):
    pkg = _subpixel_package(tmp_path, rng)
    fields = json.loads(read_package(pkg)[1].to_json())
    fields["kernel_size"] = "3"
    _rewrite_provenance(pkg, json.dumps(fields).encode())
    xfile = tmp_path / "x.upst"
    write_tensor(Tensor(rng.uniform(-1, 1, (1, 4, 4)).astype(np.float32)), xfile)
    _assert_one_line_io_error(["infer", "--input", str(xfile), "--package", str(pkg),
                               "--out", str(tmp_path / "y.upst")], capsys)


@pytest.mark.parametrize(
    "changes",
    [
        {"kernel_size": 4, "deconv_kernel_size": 8},
        {"padding": 0, "deconv_padding": 0},
        # K+r-1 = 6 and P^D = P hold; only K = 2P+1 (odd K) is broken
        {"source_algorithm": "nn-resize", "transformation": "weight-convolution",
         "kernel_size": 4, "padding": 2, "factor": 3, "stride": 3, "deconv_padding": 2},
    ],
)
def test_infer_provenance_breaking_the_derivation_is_io_error(tmp_path, rng, capsys, changes):
    pkg = _subpixel_package(tmp_path, rng)
    fields = {**json.loads(read_package(pkg)[1].to_json()), **changes}
    _rewrite_provenance(pkg, json.dumps(fields).encode())
    xfile = tmp_path / "x.upst"
    write_tensor(Tensor(rng.uniform(-1, 1, (1, 4, 4)).astype(np.float32)), xfile)
    _assert_one_line_io_error(["infer", "--input", str(xfile), "--package", str(pkg),
                               "--out", str(tmp_path / "y.upst")], capsys)


def test_infer_non_utf8_provenance_is_io_error(tmp_path, rng, capsys):
    pkg = _subpixel_package(tmp_path, rng)
    _rewrite_provenance(pkg, b"\xff\xfe{not utf-8}")
    xfile = tmp_path / "x.upst"
    write_tensor(Tensor(rng.uniform(-1, 1, (1, 4, 4)).astype(np.float32)), xfile)
    _assert_one_line_io_error(["infer", "--input", str(xfile), "--package", str(pkg),
                               "--out", str(tmp_path / "y.upst")], capsys)


def test_infer_native_deconv_stride_above_kernel_extent_is_io_error(tmp_path, rng, capsys):
    # a stride beyond K^D would size the output from the provenance alone
    kernels = Tensor(np.ones((3, 3, 1, 1), dtype=np.float32))
    prov = ProvenanceRecord(
        source_algorithm="native-deconv", transformation="none", kernel_size=1, padding=0,
        factor=10**6, stride=10**6, deconv_kernel_size=1, deconv_padding=0,
        checksum_crc32=payload_checksum(kernels),
    )
    pkg, xfile = tmp_path / "p.upkg", tmp_path / "x.upst"
    write_tensor(kernels, pkg)
    blob = prov.to_json().encode()
    with open(pkg, "ab") as f:
        f.write(struct.pack("<I", len(blob)) + blob)
    write_tensor(Tensor(rng.uniform(-1, 1, (3, 8, 8)).astype(np.float32)), xfile)
    err = _assert_one_line_io_error(["infer", "--input", str(xfile), "--package", str(pkg),
                                     "--out", str(tmp_path / "y.upst")], capsys)
    assert "stride" in err


def test_infer_out_of_memory_is_one_line_usage_error(tmp_path, rng, capsys, monkeypatch):
    # valid files can describe a layer too large for the host (a native
    # deconvolution with K=1000 on a 1000x1000 map asks standard for TiBs);
    # the variant is replaced so that nothing large is really allocated
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(deconv, "deconv_standard", out_of_memory)
    pkg, xfile = _subpixel_package(tmp_path, rng), tmp_path / "x.upst"
    write_tensor(Tensor(rng.uniform(-1, 1, (1, 4, 4)).astype(np.float32)), xfile)
    capsys.readouterr()
    assert run(["infer", "--input", str(xfile), "--package", str(pkg),
                "--variant", "standard", "--out", str(tmp_path / "y.upst")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and not (tmp_path / "y.upst").exists()
    assert err == "error: Unable to allocate 7.28 TiB for an array\n"
