"""Command-line pipeline: gen, validate, encode, spectrum, gsg-demo, bench.

Exit codes: 0 success, 1 usage error (bad flags, missing input files or
output directories, an output path that is a directory), 2 data error
(unparseable or inconsistent input, or a size that cannot be allocated).
Each command returns its files' bytes and its summary line; `main` writes
them once all exist and no output path is a directory, each to a temp file
then renamed, so an I/O error on a later file can still leave earlier ones.
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
from .encode import EncodeConfig, encode_chsr, encode_throughput, encode_view, export_channel_image
from .errors import EvholoError, ShapeMismatch
from .events import (
    HEVS_MAGIC,
    PeriodicGenSpec,
    generate_periodic_stream,
    parse_events_binary,
    parse_events_csv,
    synthetic_uniform_stream,
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

_GEOMETRY_FLAG_RE = re.compile(r"(\d+)[xX](\d+)")


class UsageError(Exception):
    """Flags that are each valid but do not fit together; mapped to exit code 1."""


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


def _load_stream(path: str):
    data = Path(path).read_bytes()
    if data[:4] == HEVS_MAGIC:
        return parse_events_binary(data)
    return parse_events_csv(data)


def _flag(cast, ok, want: str):
    """An argparse `type=` that returns `cast(text)` if `ok` holds for it; text
    that `cast` cannot read keeps argparse's "invalid <cast> value" message."""
    def convert(text: str):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {want}, got {text!r}")
        return value

    convert.__name__ = cast.__name__
    return convert


_AT_LEAST_1 = _flag(int, lambda v: v >= 1, ">= 1")
_AT_LEAST_0 = _flag(int, lambda v: v >= 0, ">= 0")
_POSITIVE = _flag(float, lambda v: 0 < v < np.inf, "finite and > 0")
_NON_NEGATIVE = _flag(float, lambda v: 0 <= v < np.inf, "finite and >= 0")
_FILE = _flag(str, os.path.isfile, "an existing file")
_OUT = _flag(str, lambda path: os.path.isdir(os.path.dirname(path) or ".")
             and not os.path.isdir(path), "a path in an existing directory, not a directory")
_DIR = _flag(str, lambda path: os.path.isdir(path) or (
    not os.path.exists(path) and os.path.isdir(Path(path).parent)),
             "an existing directory or a new one in an existing directory")


def _geometry(text: str) -> tuple[int, int]:
    m = _GEOMETRY_FLAG_RE.fullmatch(text)
    if not m or not all(1 <= int(side) <= 0xFFFF for side in m.groups()):  # HEVS: u16 sides
        raise argparse.ArgumentTypeError(f"must be WxH with sides in 1..65535, got {text!r}")
    return int(m.group(1)), int(m.group(2))


def _fmt(v: float) -> str:
    return f"{v:.10g}"


def cmd_gen(args) -> tuple[dict, str]:
    if args.rate_peak < args.rate_base:
        raise UsageError(
            f"--rate-peak must be >= --rate-base ({args.rate_base}), got {args.rate_peak}"
        )
    spec = PeriodicGenSpec(
        f0=args.f0,
        duration_s=args.duration,
        base_rate=args.rate_base,
        peak_rate=args.rate_peak,
        geometry=args.geometry,
        motion_amplitude=args.geometry[0] / 8.0,
        seed=args.seed,
    )
    stream = generate_periodic_stream(spec)
    return ({args.out: write_events_binary(stream)},
            f"events={len(stream)} duration_us={stream.duration}")


def cmd_validate(args) -> tuple[dict, str]:
    report = validate_stream(_load_stream(args.infile))
    return {}, (
        f"total={report.total} out_of_bounds={report.out_of_bounds} "
        f"non_monotonic={report.non_monotonic} bad_polarity={report.bad_polarity} "
        f"valid={'yes' if report.clean else 'no'}"
    )


def cmd_encode(args) -> tuple[dict, str]:
    stream = _load_stream(args.infile)
    cfg = EncodeConfig(t_bins=args.t_bins, normalize=args.normalize)
    if args.view == "chsr":
        tensor = encode_chsr(stream, cfg, workers=args.threads)
    else:
        tensor = encode_view(stream, args.view, cfg)
    outputs = {args.out: tensorio.write_tensor(tensor.data)}
    if args.pgm_dir is not None:
        stem = Path(args.out).stem
        for ch in range(tensor.data.shape[0]):
            outputs[Path(args.pgm_dir) / f"{stem}_ch{ch}.pgm"] = export_channel_image(tensor, ch)
        os.makedirs(args.pgm_dir, exist_ok=True)
    return outputs, f"dropped={tensor.dropped}"


def cmd_spectrum(args) -> tuple[dict, str]:
    stream = _load_stream(args.infile)
    series = event_rate_series(stream, args.bin_dt)
    spectrum = rate_spectrum(series)  # raises TooShort (exit 2)
    dominant = dominant_frequency(series)
    rate_csv = "t_s,count\n" + "".join(
        [f"{_fmt(t)},{v}\n" for t, v in zip(series.times(), series.values)])
    spec_csv = "freq_hz,magnitude\n" + "".join(
        [f"{_fmt(f)},{_fmt(m)}\n" for f, m in zip(spectrum.frequencies(), spectrum.magnitudes)])
    out = Path(args.out_csv)
    return ({out.with_name(out.stem + ".rate" + out.suffix): rate_csv.encode("ascii"),
             out: spec_csv.encode("ascii")},
            f"dominant_hz={_fmt(dominant.f_peak) if dominant else 'none'}")


def _grad_check_crop(x: np.ndarray) -> np.ndarray:
    """Down-sample a feature tensor to at most 3x6x6 for the gradient suite."""
    c = min(3, x.shape[0])
    step_r = max(1, x.shape[1] // 6)
    step_c = max(1, x.shape[2] // 6)
    return x[:c, ::step_r, ::step_c][:, :6, :6].astype(np.float64)  # a C-contiguous copy


def cmd_gsg_demo(args) -> tuple[dict, str]:
    data = tensorio.read_tensor(Path(args.infile).read_bytes())
    if data.ndim != 3:
        raise ShapeMismatch(f"expected a 3D feature tensor, got shape {data.shape}")
    if args.identity_init:
        params = GsgParams.identity(*data.shape)
    else:
        params = params_from_archive(Path(args.params).read_bytes())

    if args.check_grads:
        crop = _grad_check_crop(data)
        check_params = GsgParams.random(*crop.shape, seed=0)
        upstream = np.random.default_rng(1).standard_normal(crop.shape)
        err = check_spectral_weight_gradients(crop, check_params, upstream)
        print(f"grad_check_max_rel_err={err:.3e}")
        if err >= GRAD_CHECK_GATE:
            raise EvholoError(f"gradient check failed gate {GRAD_CHECK_GATE}")

    out = gsg_forward(data, params)
    return ({args.out: tensorio.write_tensor(out)},
            f"wrote={args.out} shape={'x'.join(str(d) for d in out.shape)}")


def cmd_bench(args) -> tuple[dict, str]:
    if args.infile is not None:
        stream = _load_stream(args.infile)
    else:
        stream = synthetic_uniform_stream(args.synthetic)
    report = encode_throughput(stream, args.repeat)
    return {args.out_json: (json.dumps(report, indent=2) + "\n").encode("ascii")}, (
        f"events={report['events']} mean_ms={report['encode_chsr_mean_ms']:.3f} "
        f"events_per_sec={report['events_per_sec']:.6g}"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="evholo",
                     description="Event-stream encoding and spectral gating tools.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen", help="generate a synthetic periodic event stream")
    p.add_argument("--f0", type=_POSITIVE, required=True, help="oscillation frequency, Hz")
    p.add_argument("--duration", type=_POSITIVE, required=True, help="stream length, seconds")
    p.add_argument("--rate-base", type=_NON_NEGATIVE, default=1000.0,
                   help="minimum event rate, events/s (default 1000)")
    p.add_argument("--rate-peak", type=_NON_NEGATIVE, default=10000.0,
                   help="maximum event rate, events/s (default 10000)")
    p.add_argument("--geometry", type=_geometry, default="346x260",
                   help="sensor WxH (default 346x260)")
    p.add_argument("--seed", type=_AT_LEAST_0, default=0)
    p.add_argument("--out", type=_OUT, required=True, help="output HEVS path")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("validate", help="count out-of-bounds events of the parsed, t-sorted stream")
    p.add_argument("--in", dest="infile", type=_FILE, required=True, help="HEVS or CSV stream")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("encode", help="encode a stream into a dense tensor")
    p.add_argument("--in", dest="infile", type=_FILE, required=True, help="HEVS or CSV stream")
    p.add_argument("--view", choices=("chsr", "hw", "tw", "th"), default="chsr")
    p.add_argument("--t-bins", type=_AT_LEAST_1, default=224)
    p.add_argument("--normalize", choices=("none", "per_channel_max", "log1p"),
                   default="none")
    p.add_argument("--out", type=_OUT, required=True, help="output HTEN path")
    p.add_argument("--pgm-dir", type=_DIR, default=None,
                   help="also dump each channel as a PGM image into this directory")
    p.add_argument("--threads", type=_AT_LEAST_1, default=1,
                   help="accepted for compatibility (must be >= 1); the encoder "
                        "runs in one thread and the output is the same for any "
                        "value")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("spectrum", help="rate series, spectrum, and dominant tone")
    p.add_argument("--in", dest="infile", type=_FILE, required=True, help="HEVS or CSV stream")
    p.add_argument("--bin-dt", type=_POSITIVE, default=0.01,
                   help="rate bin width, seconds (default 0.01)")
    p.add_argument("--out-csv", type=_OUT, required=True,
                   help="spectrum CSV path; the rate series lands next to it "
                        "with a .rate suffix before the extension")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("gsg-demo", help="run the gating operator on a tensor")
    p.add_argument("--in", dest="infile", type=_FILE, required=True, help="input HTEN tensor")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--params", type=_FILE, default=None, help="HARC params archive")
    src.add_argument("--identity-init", action="store_true",
                     help="identity kernels, unit spectral weights, open gate")
    p.add_argument("--out", type=_OUT, required=True, help="output HTEN path")
    p.add_argument("--check-grads", action="store_true",
                   help="verify analytic spectral-weight gradients on a "
                        "down-sampled crop before writing output")
    p.set_defaults(func=cmd_gsg_demo)

    p = sub.add_parser("bench", help="measure encoder throughput")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--in", dest="infile", type=_FILE, help="HEVS or CSV stream")
    src.add_argument("--synthetic", type=_AT_LEAST_0, default=None,
                     help="generate this many synthetic events instead")
    p.add_argument("--repeat", type=_AT_LEAST_1, default=5)
    p.add_argument("--out-json", type=_OUT, required=True)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        outputs, line = args.func(args)
        for path in outputs:  # a derived path too: a PGM, the .rate CSV
            if os.path.isdir(path):
                raise UsageError(f"output path {path} is an existing directory")
        for path, data in outputs.items():
            _atomic_write(path, data)
        print(line)
        return EXIT_OK
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (EvholoError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as e:
        print(f"error: out of memory: {str(e) or 'allocation failed'}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
