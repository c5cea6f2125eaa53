"""The three workloads: their inputs, one operation, its check, and the CLI command.

Each workload builds its inputs from the seed with the benchmark's own code
(`inputs`), runs one operation through the public API of evholo's layers
with a span around every layer call, and checks the result against
`reference` outside the timed region. Every size here is part of the
workload's definition; ``tiny`` shrinks them only for the self-tests.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from evholo import encode, events, gsg, spectral, tensorio

import inputs
import reference
from reference import require
from spans import NULL

T_BINS = 224
GRAD_GATE = 1e-4
CSV_F0 = 3.21
CSV_BIN_DT = 0.01


class Workload:
    """Inputs and operation of one workload; subclasses fill in the rest."""

    name: str

    def __init__(self, workdir: Path, files: dict[str, bytes]):
        self.paths = {}
        self.digests = {}
        for fname, data in files.items():
            path = workdir / fname
            path.write_bytes(data)
            self.paths[fname] = str(path)
            self.digests[fname] = hashlib.sha256(data).hexdigest()
        self.cli_out = str(workdir / "cli_out")
        self._cli_want = None

    def op(self, i: int, tr):
        raise NotImplementedError

    def check(self, i: int, result) -> None:
        raise NotImplementedError

    def extras(self, i: int, result, tr) -> None:
        """Traced-run-only layer calls made after the operation, outside its span."""

    def events_in(self, i: int) -> int:
        raise NotImplementedError

    def cli_argv(self) -> list[str]:
        raise NotImplementedError

    def check_cli(self, stdout: str) -> None:
        raise NotImplementedError


class HevsEncode(Workload):
    """1M uniform, time-sorted events as HEVS: parse -> encode -> write tensor."""

    name = "hevs_encode_1m"

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        self.events = inputs.uniform_events(rng, 20_000 if tiny else 1_000_000, 10_000_000)
        self.data = inputs.hevs_bytes(self.events)
        self.config = encode.EncodeConfig(t_bins=T_BINS)
        self._ref = None
        super().__init__(workdir, {"events.hevs": self.data})

    def op(self, i, tr):
        with tr.span("op"):
            with tr.span("events.parse_binary"):
                stream = events.parse_events_binary(self.data)
            with tr.span("encode.encode_chsr"):
                tensor = encode.encode_chsr(stream, self.config, workers=1)
            with tr.span("tensorio.write_tensor"):
                out = tensorio.write_tensor(tensor.data)
        tr.count("events.events_in", len(stream))
        tr.count("events.bytes_in", len(self.data))
        tr.count("tensorio.bytes_out", len(out))
        return stream, tensor, out

    def _check_tensor(self, tensor) -> None:
        if self._ref is None:
            self._ref = reference.chsr(self.events, T_BINS)
        require(tensor.dropped == 0, f"dropped={tensor.dropped}, expected 0")
        reference.check_chsr(tensor.data, self._ref)

    def check(self, i, result):
        stream, tensor, out = result
        require(len(stream) == len(self.events), "event count differs from the input")
        self._check_tensor(tensor)
        require(out == inputs.hten_bytes(tensor.data), "HTEN bytes differ from the layout")

    def extras(self, i, result, tr):
        with tr.span("encode.encode_chsr_2w"):
            tensor = encode.encode_chsr(result[0], self.config, workers=2)
        self._check_tensor(tensor)

    def events_in(self, i):
        return len(self.events)

    def cli_argv(self):
        return ["encode", "--in", self.paths["events.hevs"], "--out", self.cli_out]

    def check_cli(self, stdout):
        if self._cli_want is None:
            result = self.op(0, NULL)
            self.check(0, result)
            self._cli_want = result[2]
        require("dropped=0" in stdout.split(), f"encode printed {stdout!r}")
        require(Path(self.cli_out).read_bytes() == self._cli_want,
                "CLI tensor differs from the in-process result")


class GsgStep(Workload):
    """Periodic 2-s windows: parse -> encode(log1p) -> GSG forward -> grad -> write."""

    name = "gsg_step_224"

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        n_windows, duration = (2, 0.25) if tiny else (8, 2.0)
        self.f0 = rng.uniform(2.0, 9.0, n_windows)
        self.windows = [inputs.periodic_events(rng, f, duration, 5_000.0, 40_000.0)
                        for f in self.f0]
        self.data = [inputs.hevs_bytes(w) for w in self.windows]
        h = inputs.GEOMETRY[1]
        self.param_arrays = inputs.gsg_param_arrays(rng, 3, T_BINS, h)
        self.params = gsg.GsgParams(**self.param_arrays)
        self.upstream = rng.standard_normal((3, T_BINS, h))
        self.grad_seed = int(rng.integers(1 << 31))
        self.config = encode.EncodeConfig(t_bins=T_BINS, normalize="log1p")
        self.x0 = reference.chsr(self.windows[0], T_BINS, log1p=True)
        self._refs = {}
        self._grads = {}
        files = {f"window{k}.hevs": d for k, d in enumerate(self.data)}
        files["window0.hten"] = inputs.hten_bytes(self.x0)
        files["params.harc"] = inputs.gsg_params_harc(self.param_arrays)
        super().__init__(workdir, files)

    def op(self, i, tr):
        data = self.data[i % len(self.data)]
        with tr.span("op"):
            with tr.span("events.parse_binary"):
                stream = events.parse_events_binary(data)
            with tr.span("encode.encode_chsr"):
                x = encode.encode_chsr(stream, self.config, workers=1).data
            with tr.span("gsg.forward"):
                y = gsg.gsg_forward(x, self.params)
            with tr.span("gsg.grad_spectral_weight"):
                grad = gsg.grad_spectral_weight(x, self.params, self.upstream)
            with tr.span("tensorio.write_tensor"):
                out = tensorio.write_tensor(y)
        tr.count("events.events_in", len(stream))
        tr.count("events.bytes_in", len(data))
        tr.count("tensorio.bytes_out", len(out))
        return x, y, grad, out

    def _ref(self, k):
        """(encoded window, forward output) from the reference code, once per window."""
        if k not in self._refs:
            xr = reference.chsr(self.windows[k], T_BINS, log1p=True)
            self._refs[k] = xr, reference.gsg_forward(xr, self.param_arrays)
        return self._refs[k]

    def check(self, i, result):
        k = i % len(self.data)
        x, y, grad, out = result
        xr, yr = self._ref(k)
        reference.check_chsr(x, xr)
        err = reference.rel_err(y, yr)
        require(err <= 1e-9, f"forward relative error {err:.3g} > 1e-9")
        require(out == inputs.hten_bytes(y), "HTEN bytes differ from the layout")
        if k in self._grads:
            require(np.array_equal(grad, self._grads[k]), "gradient differs from the verified one")
        else:
            err = reference.directional_grad_error(x, self.param_arrays, self.upstream,
                                                   grad, self.grad_seed + k)
            require(err < GRAD_GATE, f"directional gradient error {err:.3g} >= {GRAD_GATE}")
            self._grads[k] = grad.copy()

    def extras(self, i, result, tr):
        x, y = result[0], result[1]
        with tr.span("gsg.depthwise_conv"):
            x_local = gsg.depthwise_conv3x3(x, self.params.dw_kernel)
        with tr.span("gsg.spectral_filter"):
            z = gsg.spectral_filter(x_local, self.params.spectral_weight)
        with tr.span("gsg.gated_reconstruction"):
            g = gsg.gated_reconstruction(z, self.params)
        require(np.array_equal(x + g, y), "stage functions disagree with gsg_forward")

    def events_in(self, i):
        return len(self.windows[i % len(self.windows)])

    def cli_argv(self):
        return ["gsg-demo", "--in", self.paths["window0.hten"],
                "--params", self.paths["params.harc"], "--out", self.cli_out]

    def check_cli(self, stdout):
        if self._cli_want is None:
            y = gsg.gsg_forward(self.x0, self.params)
            err = reference.rel_err(y, reference.gsg_forward(self.x0, self.param_arrays))
            require(err <= 1e-9, f"forward relative error {err:.3g} > 1e-9")
            self._cli_want = tensorio.write_tensor(y)
        require(Path(self.cli_out).read_bytes() == self._cli_want,
                "CLI tensor differs from the in-process result")


class CsvIngest(Workload):
    """~100k locally shuffled periodic events as CSV, 1% out of bounds:
    parse -> validate -> rate series -> dominant frequency -> write HEVS."""

    name = "csv_ingest_100k"

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        base, peak = (200.0, 1_800.0) if tiny else (2_000.0, 18_000.0)
        ev = inputs.periodic_events(rng, CSV_F0, 10.0, base, peak)
        n = len(ev)
        oob = rng.uniform(0.0, 1.0, n) < 0.01
        ev.x[oob] = inputs.GEOMETRY[0] + rng.integers(0, 64, int(oob.sum()))
        self.n_oob = int(oob.sum())
        # jitter the order by up to +-32 ranks: each event moves at most 64 places
        ev = ev.take(np.argsort(np.arange(n) + rng.uniform(-32.0, 32.0, n), kind="stable"))
        self.n = n
        self.data = inputs.csv_bytes(ev)
        # what a stable sort on t with t shifted to 0 must give
        self.want = ev.take(np.argsort(ev.t, kind="stable"))
        self.want.t = self.want.t - self.want.t[0]
        super().__init__(workdir, {"events.csv": self.data})

    def op(self, i, tr):
        with tr.span("op"):
            with tr.span("events.parse_csv"):
                stream = events.parse_events_csv(self.data)
            with tr.span("events.validate"):
                report = events.validate_stream(stream)
            with tr.span("spectral.rate_series"):
                series = spectral.event_rate_series(stream, CSV_BIN_DT)
            with tr.span("spectral.dominant_frequency"):
                dom = spectral.dominant_frequency(series)
            with tr.span("events.write_binary"):
                out = events.write_events_binary(stream)
        tr.count("events.events_in", len(stream))
        tr.count("events.bytes_in", len(self.data))
        tr.count("events.bytes_out", len(out))
        return stream, report, dom, out

    def _same_events(self, got, what: str) -> None:
        want = self.want
        require(tuple(got.geometry) == want.geometry, f"{what}: geometry {got.geometry}")
        for field in ("x", "y", "t", "p"):
            require(np.array_equal(getattr(got, field), getattr(want, field)),
                    f"{what}: field {field} differs from the stable sort of the input")

    def check(self, i, result):
        stream, report, dom, out = result
        require(len(stream) == self.n, f"{len(stream)} events parsed, {self.n} generated")
        require(report.total == self.n and report.out_of_bounds == self.n_oob,
                f"validate: total={report.total} out_of_bounds={report.out_of_bounds}, "
                f"expected {self.n} and {self.n_oob}")
        require(report.non_monotonic == 0 and report.bad_polarity == 0,
                f"validate: non_monotonic={report.non_monotonic} "
                f"bad_polarity={report.bad_polarity}")
        require(dom is not None and abs(dom.f_peak - CSV_F0) <= 0.1,
                f"dominant frequency {dom} not within 0.1 Hz of {CSV_F0}")
        ev = stream.events
        self._same_events(inputs.Events(stream.geometry, ev["x"], ev["y"], ev["t"], ev["p"]),
                          "parsed stream")
        self._same_events(inputs.read_hevs(out), "HEVS output")

    def events_in(self, i):
        return self.n

    def cli_argv(self):
        return ["spectrum", "--in", self.paths["events.csv"],
                "--bin-dt", str(CSV_BIN_DT), "--out-csv", self.cli_out + ".csv"]

    def check_cli(self, stdout):
        if self._cli_want is None:
            result = self.op(0, NULL)
            self.check(0, result)
            self._cli_want = result[2].f_peak
        fields = dict(f.split("=", 1) for f in stdout.split() if "=" in f)
        got = float(fields.get("dominant_hz", "nan"))
        require(abs(got - self._cli_want) <= 1e-9 * self._cli_want,
                f"CLI dominant_hz={fields.get('dominant_hz')}, in-process {self._cli_want!r}")


WORKLOADS = {w.name: w for w in (HevsEncode, GsgStep, CsvIngest)}
