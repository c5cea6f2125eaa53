"""Acceptance gate: one test per criterion, pinned tolerances.

Each test prints a single `criterion <n>: PASS` line on success (visible
with pytest -s); pytest -v additionally reports one PASSED/FAILED line per
criterion through the test names. Runtime budgets are asserted inline.
"""

import json
import time

import numpy as np

from evholo import (
    EventStream,
    GsgParams,
    PeriodicGenSpec,
    check_spectral_weight_gradients,
    dft2_oracle,
    dominant_frequency,
    encode_chsr,
    encode_throughput,
    event_rate_series,
    generate_periodic_stream,
    gsg_forward,
    irfft2,
    parse_events_binary,
    phi,
    read_archive,
    read_tensor,
    rfft2,
    spectral_filter,
    synthetic_uniform_stream,
    write_archive,
    write_events_binary,
    write_tensor,
)
from evholo.cli import main
from evholo.spectral import half_cols


def _report(n, label, t0, budget):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {n} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"criterion {n}: PASS ({label}, {elapsed:.2f}s)")


def _random_stream(n, geometry, seed):
    rng = np.random.default_rng(seed)
    w, h = geometry
    t = np.sort(rng.integers(0, 5_000_000, n))
    return EventStream.from_arrays(
        geometry, rng.integers(0, w, n), rng.integers(0, h, n), t - t[0],
        rng.choice([-1, 1], n),
    )


def test_criterion_01_chsr_shape_contract():
    t0 = time.perf_counter()
    for geometry, n, seed in [((346, 260), 5000, 0), ((128, 96), 1200, 1),
                              ((640, 480), 300, 2)]:
        tensor = encode_chsr(_random_stream(n, geometry, seed))
        assert tensor.data.shape == (3, 224, geometry[1])
    _report(1, "3 x 224 x H_sensor default shape", t0, 1.0)


def test_criterion_02_conservation_and_permutation_invariance():
    t0 = time.perf_counter()
    size_rng = np.random.default_rng(2024)
    for seed in range(100):
        n = int(np.round(10 ** size_rng.uniform(3, 5)))
        s = _random_stream(n, (160, 120), seed)
        base = encode_chsr(s)
        assert base.data[0].sum() + base.data[1].sum() + base.dropped == n
        perm = np.random.default_rng(seed + 7000).permutation(n)
        shuffled = encode_chsr(EventStream(s.geometry, s.events[perm]))
        assert shuffled.data[:2].tobytes() == base.data[:2].tobytes()
        denom = np.maximum(np.abs(base.data[2]), 1e-30)
        assert (np.abs(shuffled.data[2] - base.data[2]) / denom).max() < 1e-9
    _report(2, "count conservation + permutation invariance, 100 streams", t0, 30.0)


def test_criterion_03_phi_contract():
    t0 = time.perf_counter()
    w = 346
    assert phi(0, w) == 0.0
    assert abs(phi(w / 2, w) - 1.0) <= 1e-12
    xs = np.arange(w)
    assert np.abs(phi(xs, w) - phi(w - xs, w)).max() <= 1e-12
    _report(3, "phi endpoint/midpoint/symmetry over 346-wide sweep", t0, 1.0)


def test_criterion_04_fft_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    sizes = [(r, c) for r in range(1, 9) for c in range(1, 9)]
    sizes += [(5, 7), (7, 7), (8, 8), (16, 16)]
    for rows, cols in sizes:
        x = rng.standard_normal((rows, cols))
        z = rfft2(x)
        assert np.abs(z - dft2_oracle(x)).max() < 1e-10, (rows, cols)
        back = irfft2(z, cols)
        assert np.abs(back - x).max() / max(np.abs(x).max(), 1e-30) < 1e-10
        weights = np.full(half_cols(cols), 2.0)
        weights[0] = 1.0
        if cols % 2 == 0:
            weights[-1] = 1.0
        spectral = (weights * np.abs(z) ** 2).sum() / (rows * cols)
        direct = (x ** 2).sum()
        assert abs(spectral - direct) / direct < 1e-10
    _report(4, "rfft2 vs direct-sum oracle + round trip + Parseval", t0, 10.0)


def test_criterion_05_dominant_frequency_recovery():
    t0 = time.perf_counter()
    for f0 in (3.21, 1.32):
        spec = PeriodicGenSpec(f0=f0, duration_s=10.0, base_rate=1000.0,
                               peak_rate=10000.0, geometry=(346, 260),
                               motion_amplitude=40.0, seed=42)
        series = event_rate_series(generate_periodic_stream(spec), 0.01)
        dom = dominant_frequency(series)
        assert dom is not None
        assert abs(dom.f_peak - f0) <= 0.1, (f0, dom.f_peak)
    _report(5, "3.21 Hz and 1.32 Hz recovered within 0.1 Hz", t0, 5.0)


def test_criterion_06_gsg_identity_and_closure():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    # unit spectral weights act as the identity filter
    for rows, cols in [(8, 8), (7, 7), (64, 64)]:
        x = rng.standard_normal((2, rows, cols)).astype(np.float32)
        w = np.ones((2, rows, cols // 2 + 1), dtype=np.complex128)
        assert np.abs(spectral_filter(x, w) - x).max() < 1e-6
    # closed gate reduces the block to the residual path
    for c, rows, cols in [(1, 1, 1), (2, 7, 8), (8, 2, 7), (7, 8, 1)]:
        x = rng.standard_normal((c, rows, cols))
        p = GsgParams.random(c, rows, cols, seed=c + 60)
        closed = GsgParams(
            dw_kernel=p.dw_kernel, spectral_weight=p.spectral_weight,
            ln_gamma=p.ln_gamma, ln_beta=p.ln_beta,
            gate_weight=np.zeros((c, c)), gate_bias=np.full(c, -20.0),
        )
        out = gsg_forward(x, closed)
        assert out.shape == x.shape
        assert np.abs(out - x).max() < 1e-6 * (1.0 + np.abs(x).max())
    # shape preservation across the full {1,2,7,8} cube
    for c in (1, 2, 7, 8):
        for rows in (1, 2, 7, 8):
            for cols in (1, 2, 7, 8):
                x = rng.standard_normal((c, rows, cols))
                out = gsg_forward(x, GsgParams.random(c, rows, cols, seed=1))
                assert out.shape == x.shape and np.isfinite(out).all()
    _report(6, "identity filter, closed-gate residual floor, shape cube", t0, 5.0)


def test_criterion_07_gradient_fidelity():
    t0 = time.perf_counter()
    for c, rows, cols in [(1, 4, 4), (2, 6, 6)]:
        rng = np.random.default_rng(c * 100 + rows)
        x = rng.standard_normal((c, rows, cols))
        u = rng.standard_normal((c, rows, cols))
        p = GsgParams.random(c, rows, cols, seed=c)
        worst = check_spectral_weight_gradients(x, p, u)
        assert worst < 1e-4, (c, rows, cols, worst)
    _report(7, "analytic dL/dW vs central differences, every component", t0, 60.0)


def test_criterion_08_thread_determinism(tmp_path):
    t0 = time.perf_counter()
    src = tmp_path / "s.hevs"
    assert main(["gen", "--f0", "2.5", "--duration", "5", "--seed", "11",
                 "--out", str(src)]) == 0
    tensors = {}
    for n in (1, 2, 8):
        out = tmp_path / f"enc{n}.hten"
        assert main(["encode", "--in", str(src), "--threads", str(n),
                     "--out", str(out)]) == 0
        tensors[n] = read_tensor(out.read_bytes())
    for n in (2, 8):
        assert tensors[n][:2].tobytes() == tensors[1][:2].tobytes()
        denom = np.maximum(np.abs(tensors[1][2]), 1e-30)
        assert (np.abs(tensors[n][2] - tensors[1][2]) / denom).max() < 1e-9
    _report(8, "encode identical for threads 1/2/8", t0, 30.0)


def test_criterion_09_throughput_floor(tmp_path):
    t0 = time.perf_counter()
    stream = synthetic_uniform_stream(1_000_000)
    report = encode_throughput(stream, repeats=3, workers=1)
    artifact = tmp_path / "bench_report.json"
    artifact.write_text(json.dumps(report, indent=2) + "\n")
    assert report["events_per_sec"] >= 5e6, report
    _report(9, f"{report['events_per_sec'] / 1e6:.1f}M events/s single-threaded",
            t0, 30.0)


def test_criterion_10_format_round_trips():
    t0 = time.perf_counter()
    for seed in range(20):
        rng = np.random.default_rng(900 + seed)
        # HEVS
        stream = _random_stream(int(rng.integers(1, 3000)), (346, 260), seed)
        blob = write_events_binary(stream)
        assert write_events_binary(parse_events_binary(blob)) == blob
        # HTEN, one tensor per dtype
        for dtype in (np.float32, np.float64, np.uint32):
            shape = tuple(rng.integers(1, 6, size=rng.integers(1, 5)))
            arr = (rng.standard_normal(shape) * 100).astype(dtype)
            tb = write_tensor(arr)
            assert write_tensor(read_tensor(tb)) == tb
        # HARC
        entries = [(f"s{k}", rng.standard_normal(int(rng.integers(1, 9))))
                   for k in range(int(rng.integers(0, 5)))]
        ab = write_archive(entries)
        assert write_archive(list(read_archive(ab).items())) == ab
    _report(10, "HEVS/HTEN/HARC byte-exact round trips, 20 fixtures", t0, 5.0)
