"""Command-line pipeline: gen, validate, encode, spectrum, gsg-demo, bench.

Exit codes: 0 success, 1 usage error (bad flags, missing input files),
2 data error (unparseable or inconsistent input, or a size that cannot be
allocated). Output files are written to a temp file and atomically renamed,
so no partial files survive errors.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import tensorio
from .bench import encode_throughput, synthetic_uniform_stream
from .encode import EncodeConfig, encode_chsr, encode_view, export_channel_image
from .errors import EvholoError, ShapeMismatch
from .events import (
    HEVS_MAGIC,
    PeriodicGenSpec,
    generate_periodic_stream,
    parse_events_binary,
    parse_events_csv,
    validate_stream,
    write_events_binary,
)
from .gsg import (
    GsgParams,
    check_spectral_weight_gradients,
    gsg_forward,
    params_from_archive,
)
from .spectral import dominant_frequency, event_rate_series, rate_spectrum

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

GRAD_CHECK_GATE = 1e-4

_GEOMETRY_FLAG_RE = re.compile(r"^(\d+)[xX](\d+)$")


class UsageError(Exception):
    """Bad flag values or missing input files; mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors by default; remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _atomic_write(path, data: bytes) -> None:
    target = Path(path)
    fd, tmp = tempfile.mkstemp(dir=str(target.parent) or ".",
                               prefix=target.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, target)
        tmp = None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _require_file(path: str, flag: str) -> None:
    if not os.path.isfile(path):
        raise UsageError(f"{flag}: no such file: {path}")


def _load_stream(path: str):
    data = Path(path).read_bytes()
    if data[:4] == HEVS_MAGIC:
        return parse_events_binary(data)
    return parse_events_csv(data)


def _parse_geometry_flag(text: str) -> tuple[int, int]:
    m = _GEOMETRY_FLAG_RE.match(text)
    if not m:
        raise UsageError(f"--geometry: expected WxH (e.g. 346x260), got {text!r}")
    w, h = int(m.group(1)), int(m.group(2))
    if not (1 <= w <= 0xFFFF and 1 <= h <= 0xFFFF):  # HEVS stores u16 sides
        raise UsageError(f"--geometry: dimensions must be in 1..65535, got {text!r}")
    return w, h


def _fmt(v: float) -> str:
    return f"{v:.10g}"


def cmd_gen(args) -> int:
    if not 0 < args.f0 < np.inf:
        raise UsageError(f"--f0 must be finite and > 0, got {args.f0}")
    if not 0 < args.duration < np.inf:
        raise UsageError(f"--duration must be finite and > 0, got {args.duration}")
    if not 0 <= args.rate_base < np.inf:
        raise UsageError(f"--rate-base must be finite and >= 0, got {args.rate_base}")
    if not args.rate_base <= args.rate_peak < np.inf:
        raise UsageError(
            f"--rate-peak must be finite and >= --rate-base ({args.rate_base}), "
            f"got {args.rate_peak}"
        )
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    geometry = _parse_geometry_flag(args.geometry)
    spec = PeriodicGenSpec(
        f0=args.f0,
        duration_s=args.duration,
        base_rate=args.rate_base,
        peak_rate=args.rate_peak,
        geometry=geometry,
        motion_amplitude=geometry[0] / 8.0,
        seed=args.seed,
    )
    stream = generate_periodic_stream(spec)
    _atomic_write(args.out, write_events_binary(stream))
    print(f"events={len(stream)} duration_us={stream.duration}")
    return EXIT_OK


def cmd_validate(args) -> int:
    _require_file(args.infile, "--in")
    report = validate_stream(_load_stream(args.infile))
    print(
        f"total={report.total} out_of_bounds={report.out_of_bounds} "
        f"non_monotonic={report.non_monotonic} bad_polarity={report.bad_polarity} "
        f"valid={'yes' if report.clean else 'no'}"
    )
    return EXIT_OK


def cmd_encode(args) -> int:
    if args.t_bins < 1:
        raise UsageError(f"--t-bins must be >= 1, got {args.t_bins}")
    if args.threads < 1:
        raise UsageError(f"--threads must be >= 1, got {args.threads}")
    _require_file(args.infile, "--in")
    stream = _load_stream(args.infile)
    cfg = EncodeConfig(t_bins=args.t_bins, normalize=args.normalize)
    if args.view == "chsr":
        tensor = encode_chsr(stream, cfg, workers=args.threads)
    else:
        tensor = encode_view(stream, args.view, cfg, workers=args.threads)
    _atomic_write(args.out, tensorio.write_tensor(tensor.data))
    if args.pgm_dir is not None:
        os.makedirs(args.pgm_dir, exist_ok=True)
        stem = Path(args.out).stem
        for ch in range(tensor.data.shape[0]):
            _atomic_write(Path(args.pgm_dir) / f"{stem}_ch{ch}.pgm",
                          export_channel_image(tensor, ch))
    print(f"dropped={tensor.dropped}")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    if not args.bin_dt > 0:
        raise UsageError(f"--bin-dt must be > 0, got {args.bin_dt}")
    _require_file(args.infile, "--in")
    stream = _load_stream(args.infile)
    series = event_rate_series(stream, args.bin_dt)
    spectrum = rate_spectrum(series)  # raises TooShort (exit 2) before any write
    dominant = dominant_frequency(series)

    rate_lines = ["t_s,count"]
    rate_lines += [f"{_fmt(t)},{v}" for t, v in zip(series.times(), series.values)]
    spec_lines = ["freq_hz,magnitude"]
    spec_lines += [
        f"{_fmt(f)},{_fmt(m)}"
        for f, m in zip(spectrum.frequencies(), spectrum.magnitudes)
    ]

    out = Path(args.out_csv)
    rate_path = out.with_name(out.stem + ".rate" + out.suffix)
    _atomic_write(rate_path, ("\n".join(rate_lines) + "\n").encode("ascii"))
    _atomic_write(out, ("\n".join(spec_lines) + "\n").encode("ascii"))
    print(f"dominant_hz={_fmt(dominant.f_peak) if dominant else 'none'}")
    return EXIT_OK


def _grad_check_crop(x: np.ndarray) -> np.ndarray:
    """Down-sample a feature tensor to at most 2x6x6 for the gradient suite."""
    c = min(2, x.shape[0])
    step_r = max(1, x.shape[1] // 6)
    step_c = max(1, x.shape[2] // 6)
    return np.ascontiguousarray(
        x[:c, ::step_r, ::step_c][:, :6, :6].astype(np.float64)
    )


def cmd_gsg_demo(args) -> int:
    _require_file(args.infile, "--in")
    if args.params is not None:
        _require_file(args.params, "--params")
    data = tensorio.read_tensor(Path(args.infile).read_bytes())
    if data.ndim != 3:
        raise ShapeMismatch(f"expected a 3D feature tensor, got shape {data.shape}")
    x = data if data.dtype in (np.float32, np.float64) else data.astype(np.float64)
    if args.identity_init:
        params = GsgParams.identity(x.shape[0], x.shape[1], x.shape[2])
    else:
        params = params_from_archive(Path(args.params).read_bytes())

    if args.check_grads:
        crop = _grad_check_crop(x)
        check_params = GsgParams.random(*crop.shape, seed=0)
        upstream = np.random.default_rng(1).standard_normal(crop.shape)
        err = check_spectral_weight_gradients(crop, check_params, upstream)
        print(f"grad_check_max_rel_err={err:.3e}")
        if err >= GRAD_CHECK_GATE:
            print(f"error: gradient check failed gate {GRAD_CHECK_GATE}",
                  file=sys.stderr)
            return EXIT_DATA

    out = gsg_forward(x, params)
    _atomic_write(args.out, tensorio.write_tensor(out))
    print(f"wrote={args.out} shape={'x'.join(str(d) for d in out.shape)}")
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.repeat < 1:
        raise UsageError(f"--repeat must be >= 1, got {args.repeat}")
    if args.infile is not None:
        _require_file(args.infile, "--in")
        stream = _load_stream(args.infile)
    else:
        if args.synthetic < 0:
            raise UsageError(f"--synthetic must be >= 0, got {args.synthetic}")
        stream = synthetic_uniform_stream(args.synthetic)
    report = encode_throughput(stream, args.repeat)
    _atomic_write(args.out_json, (json.dumps(report, indent=2) + "\n").encode("ascii"))
    print(
        f"events={report['events']} mean_ms={report['encode_chsr_mean_ms']:.3f} "
        f"events_per_sec={report['events_per_sec']:.6g}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="evholo",
                     description="Event-stream encoding and spectral gating tools.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen", help="generate a synthetic periodic event stream")
    p.add_argument("--f0", type=float, required=True, help="oscillation frequency, Hz")
    p.add_argument("--duration", type=float, required=True, help="stream length, seconds")
    p.add_argument("--rate-base", type=float, default=1000.0,
                   help="minimum event rate, events/s (default 1000)")
    p.add_argument("--rate-peak", type=float, default=10000.0,
                   help="maximum event rate, events/s (default 10000)")
    p.add_argument("--geometry", default="346x260", help="sensor WxH (default 346x260)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output HEVS path")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("validate", help="report stream integrity counters")
    p.add_argument("--in", dest="infile", required=True, help="HEVS or CSV stream")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("encode", help="encode a stream into a dense tensor")
    p.add_argument("--in", dest="infile", required=True, help="HEVS or CSV stream")
    p.add_argument("--view", choices=("chsr", "hw", "tw", "th"), default="chsr")
    p.add_argument("--t-bins", type=int, default=224)
    p.add_argument("--normalize", choices=("none", "per_channel_max", "log1p"),
                   default="none")
    p.add_argument("--out", required=True, help="output HTEN path")
    p.add_argument("--pgm-dir", default=None,
                   help="also dump each channel as a PGM image into this directory")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility (must be >= 1); the encoder "
                        "runs one vectorized pass and the output is the same "
                        "for any value")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("spectrum", help="rate series, spectrum, and dominant tone")
    p.add_argument("--in", dest="infile", required=True, help="HEVS or CSV stream")
    p.add_argument("--bin-dt", type=float, default=0.01,
                   help="rate bin width, seconds (default 0.01)")
    p.add_argument("--out-csv", required=True,
                   help="spectrum CSV path; the rate series lands next to it "
                        "with a .rate suffix before the extension")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("gsg-demo", help="run the gating operator on a tensor")
    p.add_argument("--in", dest="infile", required=True, help="input HTEN tensor")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--params", default=None, help="HARC params archive")
    src.add_argument("--identity-init", action="store_true",
                     help="identity kernels, unit spectral weights, open gate")
    p.add_argument("--out", required=True, help="output HTEN path")
    p.add_argument("--check-grads", action="store_true",
                   help="verify analytic spectral-weight gradients on a "
                        "down-sampled crop before writing output")
    p.set_defaults(func=cmd_gsg_demo)

    p = sub.add_parser("bench", help="measure encoder throughput")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--in", dest="infile", default=None, help="HEVS or CSV stream")
    src.add_argument("--synthetic", type=int, default=None,
                     help="generate this many synthetic events instead")
    p.add_argument("--repeat", type=int, default=5)
    p.add_argument("--out-json", required=True)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except EvholoError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as e:
        print(f"error: out of memory: {str(e) or 'allocation failed'}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
