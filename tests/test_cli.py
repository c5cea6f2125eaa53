import json

import numpy as np
import pytest

from evholo import (
    EncodeConfig,
    EventStream,
    encode_chsr,
    parse_events_binary,
    parse_events_csv,
    read_tensor,
    write_events_binary,
    write_events_csv,
)
from evholo.events import synthetic_uniform_stream
from evholo.cli import main
from evholo.gsg import LN_EPS, GsgParams, params_to_archive
from evholo.tensorio import write_tensor
from test_events import CSV_NOT_ASCII


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
    assert "--f0" in capsys.readouterr().err.splitlines()[-1]
    assert not (tmp_path / "x.hevs").exists()


def test_gen_rejects_non_finite_and_negative_flags(tmp_path, capsys):
    out = tmp_path / "x.hevs"
    for flag, value in (("--seed", "-1"), ("--duration", "inf"), ("--rate-peak", "inf"),
                        ("--rate-base", "nan"), ("--f0", "inf"), ("--f0", "nan")):
        flags = {"--f0": "1", "--duration": "1", flag: value}
        rc = main(["gen", *(a for kv in flags.items() for a in kv), "--out", str(out)])
        assert rc == 1, (flag, value)
        assert flag in capsys.readouterr().err.splitlines()[-1]
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
        assert "--geometry" in capsys.readouterr().err.splitlines()[-1]
        assert not (tmp_path / "x.hevs").exists()


def test_validate_csv_field_outside_int64_exits_2(tmp_path, capsys):
    path = tmp_path / "big.csv"
    path.write_text("# geometry 4x4\nx,y,t,p\n0,0,0,1\n1,1,9223372036854775813,1\n")
    assert main(["validate", "--in", str(path)]) == 2
    assert "line 4" in capsys.readouterr().err


def test_validate_csv_field_without_a_digit_exits_2(tmp_path, capsys):
    # an empty y used to read as 0, and validate exited 0
    path = tmp_path / "empty.csv"
    path.write_text("# geometry 4x4\nx,y,t,p\n0,0,0,1\n1,,3,1\n")
    assert main(["validate", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "line 4" in err and "non-numeric" in err


@pytest.mark.parametrize("name", CSV_NOT_ASCII)
def test_validate_csv_read_as_ascii_exits_2(tmp_path, capsys, name):
    # a U+3000 around the header or alone on a line passed as blank, and
    # Arabic-Indic digits made a geometry; validate exited 0
    text, _, line_no = CSV_NOT_ASCII[name]
    path = tmp_path / "u.csv"
    path.write_bytes(text.encode())
    assert main(["validate", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert f"line {line_no}" in err if line_no else "geometry" in err


def test_validate_timestamp_span_beyond_int64_exits_2(tmp_path, capsys):
    path = tmp_path / "span.csv"
    path.write_text("# geometry 4x4\nx,y,t,p\n"
                    "0,0,-9223372036854775808,1\n0,0,9223372036854775807,1\n")
    assert main(["validate", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "int64" in err


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
    # parsing sorts by t, so rows out of order are no defect of the stream
    unsorted = tmp_path / "unsorted.csv"
    unsorted.write_text("# geometry 8x8\nx,y,t,p\n1,1,50,1\n2,2,10,1\n3,3,30,-1\n")
    assert main(["validate", "--in", str(unsorted)]) == 0
    out = capsys.readouterr().out.split()
    assert "non_monotonic=0" in out and "valid=yes" in out


def test_encode_chsr_dims(tmp_path, capsys):
    path = gen(tmp_path, duration="2")
    out = tmp_path / "a.hten"
    assert main(["encode", "--in", str(path), "--view", "chsr",
                 "--t-bins", "224", "--out", str(out)]) == 0
    assert "dropped=0" in capsys.readouterr().out
    tensor = read_tensor(out.read_bytes())
    assert tensor.shape == (3, 224, 260)


def test_gen_and_encode_past_a_2_32_us_span(tmp_path, capsys):
    """A stream spanning 2**32 us or more (about 71.6 min) keeps an int64 t
    when normalized: in `gen`, and in `encode` of a CSV copy whose t starts
    at 11 us, which both encode like the written stream."""
    path = gen(tmp_path, f0="0.01", duration="5000",
               extra=("--rate-base", "1", "--rate-peak", "1"))
    fields = dict(f.split("=") for f in capsys.readouterr().out.split())
    assert int(fields["duration_us"]) >= 2 ** 32
    stream = parse_events_binary(path.read_bytes())
    ev = stream.events
    late = tmp_path / "late.csv"
    late.write_bytes(write_events_csv(EventStream.from_arrays(
        stream.geometry, ev.x, ev.y, ev.t + 11, ev.p)))
    assert parse_events_csv(late.read_bytes()).events.t.dtype == np.int64
    want = write_tensor(encode_chsr(stream).data)
    for src in (path, late):
        out = tmp_path / f"{src.stem}.hten"
        assert main(["encode", "--in", str(src), "--out", str(out)]) == 0
        assert "dropped=0" in capsys.readouterr().out
        assert out.read_bytes() == want


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


def test_failed_rename_leaves_no_output_or_temp_file(tmp_path, capsys, monkeypatch):
    def refuse(src, dst):
        raise OSError(f"cannot rename {src} to {dst}")

    monkeypatch.setattr("evholo.cli.os.replace", refuse)
    out = tmp_path / "a.hevs"
    assert main(["gen", "--f0", "3", "--duration", "1", "--out", str(out)]) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


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


def test_spectrum_bin_dt_must_be_finite(tmp_path, capsys):
    # an infinite bin is a bad flag (exit 1), a finite one too wide for the
    # stream is a data error (exit 2)
    path = gen(tmp_path, duration="1")
    out = tmp_path / "s.csv"
    assert main(["spectrum", "--in", str(path), "--bin-dt", "inf", "--out-csv", str(out)]) == 1
    assert "argument --bin-dt: must be finite and > 0" in capsys.readouterr().err
    assert main(["spectrum", "--in", str(path), "--bin-dt", "1e300", "--out-csv", str(out)]) == 2
    assert "bins" in capsys.readouterr().err
    assert not out.exists()


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


def test_gsg_demo_check_grads_passes_on_a_nearly_shut_gate(tmp_path, capsys):
    """The t_bins 16 encode of 1M uniform events: on its check crop the gate
    is nearly shut, max |dL/dW| is 6.8e-5 against a loss near 400, and a
    quotient of the whole loss read 6.6e-2 from rounding alone."""
    src = tmp_path / "u.hevs"
    src.write_bytes(write_events_binary(synthetic_uniform_stream(1_000_000)))
    feat = tmp_path / "u.hten"
    assert main(["encode", "--in", str(src), "--t-bins", "16", "--out", str(feat)]) == 0
    assert main(["gsg-demo", "--in", str(feat), "--identity-init", "--check-grads",
                 "--out", str(tmp_path / "y.hten")]) == 0
    err = float(capsys.readouterr().out.split("grad_check_max_rel_err=")[1].split()[0])
    assert err < 1e-4


@pytest.fixture(scope="module")
def uniform_1m():
    return synthetic_uniform_stream(1_000_000)


@pytest.mark.parametrize("t_bins", [1, 2, 8])
def test_gsg_demo_check_grads_passes_on_a_chsr_encode(tmp_path, capsys, uniform_1m, t_bins):
    """The check crop keeps the holographic channel. Without it, LayerNorm
    over the two count channels maps each location to about +-1, so the
    loss hardly depends on W (max |dL/dW| 3.1e-11 at t_bins 8), and the
    check read 9.8e-2, 1.14 and 1.00 at t_bins 1, 2 and 8."""
    feat = tmp_path / "u.hten"
    feat.write_bytes(write_tensor(encode_chsr(uniform_1m, EncodeConfig(t_bins=t_bins)).data))
    assert main(["gsg-demo", "--in", str(feat), "--identity-init", "--check-grads",
                 "--out", str(tmp_path / "y.hten")]) == 0
    err = float(capsys.readouterr().out.split("grad_check_max_rel_err=")[1].split()[0])
    assert err < 1e-4


def test_gsg_demo_failed_grad_check_exits_2_without_output(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("evholo.cli.check_spectral_weight_gradients", lambda *args: 1.0)
    src = tmp_path / "x.hten"
    src.write_bytes(write_tensor(np.ones((2, 6, 6))))
    out = tmp_path / "y.hten"
    assert main(["gsg-demo", "--in", str(src), "--identity-init", "--check-grads",
                 "--out", str(out)]) == 2
    printed = capsys.readouterr()
    assert printed.out == "grad_check_max_rel_err=1.000e+00\n"
    assert printed.err == "error: gradient check failed gate 0.0001\n"
    assert not out.exists()


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


#: Every checked flag with a bad value: (the flag the error line must name,
#: argv, split at single spaces, with the output flag where it is the bad one).
#: {d} holds a valid stream, tensor and params; {nl} is a newline.
BAD_FLAGS = [
    ("--f0", "gen --f0 0 --duration 1"),
    ("--f0", "gen --f0 nan --duration 1"),
    ("--f0", "gen --f0 x --duration 1"),
    ("--duration", "gen --f0 1 --duration -1"),
    ("--duration", "gen --f0 1 --duration inf"),
    ("--rate-base", "gen --f0 1 --duration 1 --rate-base -1"),
    ("--rate-base", "gen --f0 1 --duration 1 --rate-base inf"),
    ("--rate-peak", "gen --f0 1 --duration 1 --rate-peak nan"),
    ("--rate-peak", "gen --f0 1 --duration 1 --rate-base 5 --rate-peak 4"),
    ("--rate-peak", "gen --f0 1 --duration 1 --rate-base 20000"),  # above the default peak
    ("--seed", "gen --f0 1 --duration 1 --seed -1"),
    ("--seed", "gen --f0 1 --duration 1 --seed 1.5"),
    ("--geometry", "gen --f0 1 --duration 1 --geometry 0x5"),
    ("--geometry", "gen --f0 1 --duration 1 --geometry 5x65536"),
    ("--geometry", "gen --f0 1 --duration 1 --geometry 5x"),
    pytest.param("--geometry", "gen --f0 1 --duration 1 --geometry 1" + "0" * 5000 + "x1",
                 id="--geometry-beyond-the-int-digit-limit"),
    pytest.param("--geometry", "gen --f0 1 --duration 1 --geometry 8x8{nl}",
                 id="--geometry-trailing-newline"),
    ("--t-bins", "encode --in {d}/ev.hevs --t-bins 0"),
    ("--t-bins", "encode --in {d}/ev.hevs --t-bins 2.5"),
    ("--threads", "encode --in {d}/ev.hevs --threads 0"),
    ("--in", "encode --in {d}/ghost.hevs"),
    ("--in", "encode --in {d}"),
    ("--bin-dt", "spectrum --in {d}/ev.hevs --bin-dt 0"),
    ("--bin-dt", "spectrum --in {d}/ev.hevs --bin-dt -inf"),
    ("--bin-dt", "spectrum --in {d}/ev.hevs --bin-dt nan"),
    ("--in", "spectrum --in {d}/ghost.hevs"),
    ("--in", "gsg-demo --in {d}/ghost.hten --params {d}/p.harc"),
    ("--params", "gsg-demo --in {d}/x.hten --params {d}/ghost.harc"),
    ("--repeat", "bench --in {d}/ev.hevs --repeat 0"),
    ("--repeat", "bench --synthetic 10 --repeat 0"),
    ("--synthetic", "bench --synthetic -1"),
    ("--in", "bench --in {d}/ghost.hevs"),
    ("--out", "gen --f0 1 --duration 1 --out {d}/ghost/g.hevs"),
    ("--out", "encode --in {d}/ev.hevs --out {d}/ghost/x.hten"),
    ("--out-csv", "spectrum --in {d}/ev.hevs --out-csv {d}/ghost/s.csv"),
    ("--out", "gsg-demo --in {d}/x.hten --params {d}/p.harc --out {d}/ghost/y.hten"),
    ("--out-json", "bench --synthetic 10 --out-json {d}/ghost/b.json"),
    ("--out", "gen --f0 1 --duration 1 --out {d}"),  # an existing directory
    ("--out-csv", "spectrum --in {d}/ev.hevs --out-csv {d}"),
    ("--out-json", "bench --synthetic 10 --out-json {d}"),
    ("--pgm-dir", "encode --in {d}/ev.hevs --pgm-dir {d}/x.hten"),
    ("--pgm-dir", "encode --in {d}/ev.hevs --pgm-dir {d}/x.hten/sub"),
    ("--pgm-dir", "encode --in {d}/ev.hevs --pgm-dir {d}/ghost/img"),
]
OUT_FLAG = {"gen": "--out", "encode": "--out", "spectrum": "--out-csv",
            "gsg-demo": "--out", "bench": "--out-json"}


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    assert main(["gen", "--f0", "3", "--duration", "2", "--out", str(d / "ev.hevs")]) == 0
    (d / "x.hten").write_bytes(write_tensor(np.ones((2, 6, 6))))
    (d / "p.harc").write_bytes(params_to_archive(GsgParams.random(2, 6, 6)))
    return d


def run_with_out_dir(tmp_path, valid_inputs, argv):
    """`main` on `argv` with {d}, {nl} and {o}, an empty directory, filled in
    and, unless `argv` names it, the output flag pointing into {o}; returns
    the exit code and what is in {o}."""
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    args = [a.format(d=valid_inputs, nl="\n", o=out_dir) for a in argv.split(" ")]
    if OUT_FLAG[args[0]] not in args:
        args += [OUT_FLAG[args[0]], str(out_dir / "result")]
    return main(args), sorted(p.name for p in out_dir.iterdir())


@pytest.mark.parametrize("argv", ["gen --f0 1 --duration 1", "encode --in {d}/ev.hevs",
                                  "encode --in {d}/ev.hevs --pgm-dir {o}/img",
                                  "spectrum --in {d}/ev.hevs",
                                  "gsg-demo --in {d}/x.hten --params {d}/p.harc",
                                  "bench --in {d}/ev.hevs --repeat 1", "bench --synthetic 10"])
def test_flag_table_valid_argvs_succeed(tmp_path, valid_inputs, capsys, argv):
    rc, written = run_with_out_dir(tmp_path, valid_inputs, argv)
    assert rc == 0 and written
    capsys.readouterr()


# a derived output path that is an existing directory: its flag is valid, so
# main checks every output path before it writes the first
DERIVED_DIRS = [
    ("encode --in {d}/ev.hevs --out {o}/o.hten --pgm-dir {o}/pg", "pg/o_ch1.pgm"),
    ("encode --in {d}/ev.hevs --view tw --out {o}/o.hten --pgm-dir {o}", "o_ch0.pgm"),
    ("spectrum --in {d}/ev.hevs --out-csv {o}/s.csv", "s.rate.csv"),
]


@pytest.mark.parametrize("argv,taken", DERIVED_DIRS)
def test_derived_output_dir_exits_1_naming_it_and_writes_nothing(tmp_path, valid_inputs, capsys,
                                                                  argv, taken):
    (tmp_path / taken).mkdir(parents=True)
    before = sorted(tmp_path.rglob("*"))
    assert main([a.format(d=valid_inputs, o=tmp_path) for a in argv.split(" ")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and str(tmp_path / taken) in err[0]
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("flag,argv", BAD_FLAGS)
def test_bad_flag_exits_1_naming_it(tmp_path, valid_inputs, capsys, flag, argv):
    rc, written = run_with_out_dir(tmp_path, valid_inputs, argv)
    assert rc == 1
    last = capsys.readouterr().err.splitlines()[-1]
    assert "error:" in last and flag in last, last
    assert written == []


def test_unknown_flag_exits_1(tmp_path, capsys):
    assert main(["encode", "--bogus"]) == 1
    assert main(["nonsense"]) == 1
    assert main([]) == 1
    capsys.readouterr()
