import json

import numpy as np
import pytest

from evholo import EventStream, read_tensor, write_events_binary
from evholo.cli import main
from evholo.gsg import LN_EPS, GsgParams, params_to_archive
from evholo.tensorio import write_tensor


def gen(tmp_path, name="a.hevs", f0="3.21", duration="10", seed="42", extra=()):
    out = tmp_path / name
    rc = main(["gen", "--f0", f0, "--duration", duration, "--seed", seed,
               "--out", str(out), *extra])
    assert rc == 0
    return out


def test_gen_deterministic_bytes(tmp_path, capsys):
    a = gen(tmp_path, "a.hevs")
    b = gen(tmp_path, "b.hevs")
    assert a.read_bytes() == b.read_bytes()
    out = capsys.readouterr().out
    assert "events=" in out and "duration_us=" in out


def test_gen_rejects_zero_f0(tmp_path, capsys):
    rc = main(["gen", "--f0", "0", "--duration", "1",
               "--out", str(tmp_path / "x.hevs")])
    assert rc == 1
    assert "--f0" in capsys.readouterr().err
    assert not (tmp_path / "x.hevs").exists()


def test_gen_rejects_non_finite_and_negative_flags(tmp_path, capsys):
    out = tmp_path / "x.hevs"
    for flag, value in (("--seed", "-1"), ("--duration", "inf"), ("--rate-peak", "inf"),
                        ("--rate-base", "nan"), ("--f0", "inf"), ("--f0", "nan")):
        flags = {"--f0": "1", "--duration": "1", flag: value}
        rc = main(["gen", *(a for kv in flags.items() for a in kv), "--out", str(out)])
        assert rc == 1, (flag, value)
        assert flag in capsys.readouterr().err
        assert not out.exists()


def test_gen_default_geometry(tmp_path):
    path = gen(tmp_path, duration="1")
    blob = path.read_bytes()
    w = int.from_bytes(blob[8:10], "little")
    h = int.from_bytes(blob[10:12], "little")
    assert (w, h) == (346, 260)


def test_gen_bad_geometry_flag(tmp_path, capsys):
    # 70000 does not fit the u16 width field of the HEVS header
    for geometry in ("346by260", "70000x10"):
        rc = main(["gen", "--f0", "1", "--duration", "1", "--geometry", geometry,
                   "--out", str(tmp_path / "x.hevs")])
        assert rc == 1
        assert "--geometry" in capsys.readouterr().err
        assert not (tmp_path / "x.hevs").exists()


def test_validate_csv_field_outside_int64_exits_2(tmp_path, capsys):
    path = tmp_path / "big.csv"
    path.write_text("# geometry 4x4\nx,y,t,p\n0,0,0,1\n1,1,9223372036854775813,1\n")
    assert main(["validate", "--in", str(path)]) == 2
    assert "line 4" in capsys.readouterr().err


def test_validate_zero_geometry_side_exits_2(tmp_path, capsys):
    csv = tmp_path / "zero.csv"
    csv.write_text("# geometry 0x5\nx,y,t,p\n0,0,0,1\n")
    assert main(["validate", "--in", str(csv)]) == 2
    assert "line 1" in capsys.readouterr().err
    hevs = tmp_path / "zero.hevs"
    hevs.write_bytes(b"HEVS\x01" + bytes(3) + (0).to_bytes(2, "little")
                     + (5).to_bytes(2, "little") + bytes(8))
    assert main(["validate", "--in", str(hevs)]) == 2
    assert "zero side" in capsys.readouterr().err


def test_validate_reports_counters(tmp_path, capsys):
    path = gen(tmp_path, duration="1")
    assert main(["validate", "--in", str(path)]) == 0
    out = capsys.readouterr().out
    assert "out_of_bounds=0" in out and "valid=yes" in out
    # one event beyond the sensor width makes the stream defective
    bad = tmp_path / "oob.hevs"
    bad.write_bytes(write_events_binary(EventStream.from_arrays(
        (8, 8), [1, 9, 2], [1, 1, 1], [0, 1, 2], [1, 1, -1])))
    assert main(["validate", "--in", str(bad)]) == 0
    out = capsys.readouterr().out.split()
    assert "out_of_bounds=1" in out and "valid=no" in out


def test_encode_chsr_dims(tmp_path, capsys):
    path = gen(tmp_path, duration="2")
    out = tmp_path / "a.hten"
    assert main(["encode", "--in", str(path), "--view", "chsr",
                 "--t-bins", "224", "--out", str(out)]) == 0
    assert "dropped=0" in capsys.readouterr().out
    tensor = read_tensor(out.read_bytes())
    assert tensor.shape == (3, 224, 260)


def test_encode_hw_dims(tmp_path):
    path = gen(tmp_path, duration="2")
    out = tmp_path / "hw.hten"
    assert main(["encode", "--in", str(path), "--view", "hw", "--out", str(out)]) == 0
    assert read_tensor(out.read_bytes()).shape == (2, 260, 346)


def test_encode_is_deterministic(tmp_path):
    path = gen(tmp_path, duration="2")
    out1, out2 = tmp_path / "o1.hten", tmp_path / "o2.hten"
    main(["encode", "--in", str(path), "--out", str(out1)])
    main(["encode", "--in", str(path), "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_encode_threads_agree(tmp_path):
    path = gen(tmp_path, duration="3")
    tensors = {}
    for n in (1, 2, 8):
        out = tmp_path / f"t{n}.hten"
        assert main(["encode", "--in", str(path), "--threads", str(n),
                     "--out", str(out)]) == 0
        tensors[n] = read_tensor(out.read_bytes())
    for n in (2, 8):
        assert tensors[n][:2].tobytes() == tensors[1][:2].tobytes()
        denom = np.maximum(np.abs(tensors[1][2]), 1e-30)
        assert (np.abs(tensors[n][2] - tensors[1][2]) / denom).max() < 1e-9
        assert tensors[n].tobytes() == tensors[1].tobytes()


def test_encode_pgm_dump(tmp_path):
    path = gen(tmp_path, duration="1")
    out = tmp_path / "a.hten"
    pgm_dir = tmp_path / "imgs"
    assert main(["encode", "--in", str(path), "--out", str(out),
                 "--pgm-dir", str(pgm_dir)]) == 0
    files = sorted(p.name for p in pgm_dir.iterdir())
    assert files == ["a_ch0.pgm", "a_ch1.pgm", "a_ch2.pgm"]
    blob = (pgm_dir / "a_ch0.pgm").read_bytes()
    assert blob.startswith(b"P5\n260 224\n255\n")


def test_encode_usage_errors(tmp_path, capsys):
    path = gen(tmp_path, duration="1")
    assert main(["encode", "--in", str(path), "--t-bins", "0",
                 "--out", str(tmp_path / "x.hten")]) == 1
    assert main(["encode", "--in", str(path), "--threads", "0",
                 "--out", str(tmp_path / "x.hten")]) == 1
    assert main(["encode", "--in", str(tmp_path / "ghost.hevs"),
                 "--out", str(tmp_path / "x.hten")]) == 1
    capsys.readouterr()


def test_encode_data_error_leaves_no_output(tmp_path):
    bad = tmp_path / "bad.hevs"
    bad.write_bytes(b"HEVS" + bytes(4) + (346).to_bytes(2, "little")
                    + (260).to_bytes(2, "little") + (5).to_bytes(8, "little")
                    + bytes(17))
    out = tmp_path / "x.hten"
    assert main(["encode", "--in", str(bad), "--out", str(out)]) == 2
    assert not out.exists()
    # a duration whose temporal binning overflows int64
    long = tmp_path / "long.hevs"
    long.write_bytes(write_events_binary(EventStream.from_arrays(
        (8, 8), [1, 2], [1, 1], [0, 2 ** 60], [1, 1])))
    assert main(["encode", "--in", str(long), "--out", str(out)]) == 2
    assert not out.exists()


def test_spectrum_csvs_and_dominant_line(tmp_path, capsys):
    path = gen(tmp_path, duration="10")
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--in", str(path), "--out-csv", str(out)]) == 0
    printed = capsys.readouterr().out.strip().splitlines()[-1]
    assert printed.startswith("dominant_hz=")
    value = float(printed.split("=", 1)[1])
    assert abs(value - 3.21) <= 0.1

    spec_lines = out.read_text().splitlines()
    rate_lines = (tmp_path / "spec.rate.csv").read_text().splitlines()
    assert spec_lines[0] == "freq_hz,magnitude"
    assert rate_lines[0] == "t_s,count"
    assert len(rate_lines) == 1 + 1000  # 10 s / 0.01 s bins
    counts = [int(r.split(",")[1]) for r in rate_lines[1:]]
    blob = path.read_bytes()
    assert sum(counts) == int.from_bytes(blob[12:20], "little")


def test_spectrum_constant_stream_has_no_dominant(tmp_path, capsys):
    # perfectly regular events: every bin holds exactly 10, none on an edge
    # (bin width 1/64 s is exactly representable, so binning is exact)
    lines = ["# geometry 16x16", "x,y,t,p"]
    for b in range(100):
        lines += [f"1,1,{b * 15625 + i * 1500},1" for i in range(10)]
    src = tmp_path / "flat.csv"
    src.write_text("\n".join(lines) + "\n")
    assert main(["spectrum", "--in", str(src), "--bin-dt", "0.015625",
                 "--out-csv", str(tmp_path / "s.csv")]) == 0
    assert "dominant_hz=none" in capsys.readouterr().out


def test_spectrum_short_series_exits_2(tmp_path, capsys):
    src = tmp_path / "tiny.csv"
    src.write_text("# geometry 4x4\nx,y,t,p\n1,1,0,1\n1,1,5,1\n")
    out = tmp_path / "s.csv"
    assert main(["spectrum", "--in", str(src), "--out-csv", str(out)]) == 2
    assert not out.exists()
    capsys.readouterr()


def test_spectrum_bad_bin_dt(tmp_path, capsys):
    path = gen(tmp_path, duration="1")
    assert main(["spectrum", "--in", str(path), "--bin-dt", "0",
                 "--out-csv", str(tmp_path / "s.csv")]) == 1
    capsys.readouterr()


def test_gsg_demo_identity_init(tmp_path, capsys):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 8, 8))
    src = tmp_path / "x.hten"
    src.write_bytes(write_tensor(x))
    out = tmp_path / "y.hten"
    assert main(["gsg-demo", "--in", str(src), "--identity-init",
                 "--out", str(out)]) == 0
    y = read_tensor(out.read_bytes())
    mu = x.mean(axis=0)
    zhat = (x - mu) / np.sqrt(x.var(axis=0) + LN_EPS)
    expected = x + zhat / (1.0 + np.exp(-zhat))
    assert np.abs(y - expected).max() < 1e-6
    capsys.readouterr()


def test_gsg_demo_with_params_archive(tmp_path, capsys):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 6, 6))
    src = tmp_path / "x.hten"
    src.write_bytes(write_tensor(x))
    params = GsgParams.random(2, 6, 6, seed=9)
    archive = tmp_path / "p.harc"
    archive.write_bytes(params_to_archive(params))
    out = tmp_path / "y.hten"
    assert main(["gsg-demo", "--in", str(src), "--params", str(archive),
                 "--out", str(out)]) == 0
    assert read_tensor(out.read_bytes()).shape == (2, 6, 6)
    capsys.readouterr()


def test_gsg_demo_check_grads(tmp_path, capsys):
    rng = np.random.default_rng(2)
    src = tmp_path / "x.hten"
    src.write_bytes(write_tensor(rng.standard_normal((3, 24, 24))))
    out = tmp_path / "y.hten"
    assert main(["gsg-demo", "--in", str(src), "--identity-init",
                 "--out", str(out), "--check-grads"]) == 0
    printed = capsys.readouterr().out
    assert "grad_check_max_rel_err=" in printed
    err = float(printed.split("grad_check_max_rel_err=")[1].split()[0])
    assert err < 1e-4
    assert out.exists()


def test_gsg_demo_missing_params_file(tmp_path, capsys):
    src = tmp_path / "x.hten"
    src.write_bytes(write_tensor(np.zeros((1, 4, 4))))
    assert main(["gsg-demo", "--in", str(src), "--params",
                 str(tmp_path / "ghost.harc"), "--out", str(tmp_path / "y.hten")]) == 1
    capsys.readouterr()


def test_gsg_demo_shape_mismatch_exits_2(tmp_path, capsys):
    src = tmp_path / "x.hten"
    src.write_bytes(write_tensor(np.zeros((2, 6, 6))))
    archive = tmp_path / "p.harc"
    archive.write_bytes(params_to_archive(GsgParams.random(3, 6, 6)))
    assert main(["gsg-demo", "--in", str(src), "--params", str(archive),
                 "--out", str(tmp_path / "y.hten")]) == 2
    capsys.readouterr()


def test_gsg_demo_params_name_not_utf8_exits_2(tmp_path, capsys):
    src = tmp_path / "x.hten"
    src.write_bytes(write_tensor(np.zeros((2, 6, 6))))
    blob = bytearray(params_to_archive(GsgParams.random(2, 6, 6)))
    blob[9] = 0xFF  # first byte of the first section name
    archive = tmp_path / "bad.harc"
    archive.write_bytes(bytes(blob))
    out = tmp_path / "y.hten"
    assert main(["gsg-demo", "--in", str(src), "--params", str(archive),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "UTF-8" in err and "Traceback" not in err
    assert not out.exists()


def test_gsg_demo_rejects_2d_tensor(tmp_path, capsys):
    src = tmp_path / "x.hten"
    src.write_bytes(write_tensor(np.zeros((6, 6))))
    assert main(["gsg-demo", "--in", str(src), "--identity-init",
                 "--out", str(tmp_path / "y.hten")]) == 2
    capsys.readouterr()


def test_bench_synthetic_report(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert main(["bench", "--synthetic", "100000", "--repeat", "3",
                 "--out-json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["events"] == 100000
    assert report["repeats"] == 3
    mean_s = report["encode_chsr_mean_ms"] / 1e3
    assert abs(report["events_per_sec"] - report["events"] / mean_s) < 1e-6
    capsys.readouterr()


def test_bench_zero_repeat_exits_1(tmp_path, capsys):
    assert main(["bench", "--synthetic", "10", "--repeat", "0",
                 "--out-json", str(tmp_path / "b.json")]) == 1
    capsys.readouterr()


def test_sizes_beyond_the_address_space_exit_2(tmp_path, capsys):
    # each size is 700 PiB or more (or overflows int64), beyond what any machine
    # can map, so nothing is allocated
    one_s = gen(tmp_path, duration="1")
    big = tmp_path / "big.csv"
    big.write_text("# geometry 4000000000x4000000000\nx,y,t,p\n0,0,0,1\n1,1,5,1\n")
    out = tmp_path / "x.out"
    for argv in (
        ["spectrum", "--in", str(one_s), "--bin-dt", "1e-17", "--out-csv", str(out)],
        ["spectrum", "--in", str(one_s), "--bin-dt", "1e-300", "--out-csv", str(out)],
        ["encode", "--in", str(big), "--t-bins", "100000000", "--out", str(out)],
        ["encode", "--in", str(big), "--view", "hw", "--out", str(out)],
        ["bench", "--synthetic", "100000000000000000", "--out-json", str(out)],
        ["gen", "--f0", "1", "--duration", "1e300", "--out", str(out)],
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()


def test_unknown_flag_exits_1(tmp_path, capsys):
    assert main(["encode", "--bogus"]) == 1
    assert main(["nonsense"]) == 1
    assert main([]) == 1
    capsys.readouterr()
