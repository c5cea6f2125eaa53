import numpy as np
import pytest

from evholo import (
    BadBin,
    EventStream,
    NonFinite,
    PeriodicGenSpec,
    RateSeries,
    ShapeMismatch,
    TooLarge,
    TooShort,
    dft2_oracle,
    dominant_frequency,
    event_rate_series,
    generate_periodic_stream,
    irfft2,
    parse_events_binary,
    rate_spectrum,
    rfft2,
    write_events_binary,
)
from evholo.spectral import half_cols, half_spectrum_weights


def test_zeros_transform_to_zeros():
    z = rfft2(np.zeros((4, 4)))
    assert z.shape == (4, 3)
    assert not z.any()


def test_impulse_gives_flat_spectrum():
    x = np.zeros((4, 4))
    x[0, 0] = 1.0
    assert np.allclose(rfft2(x), np.ones((4, 3)), atol=1e-12)
    assert np.allclose(dft2_oracle(x), np.ones((4, 3)), atol=1e-12)


def test_matches_oracle_all_small_sizes():
    rng = np.random.default_rng(0)
    sizes = [(r, c) for r in range(1, 9) for c in range(1, 9)]
    sizes += [(5, 7), (7, 7), (8, 8), (16, 16)]
    for rows, cols in sizes:
        x = rng.standard_normal((rows, cols))
        assert np.abs(rfft2(x) - dft2_oracle(x)).max() < 1e-10, (rows, cols)


def test_round_trip_including_odd_sizes():
    rng = np.random.default_rng(1)
    for rows, cols in [(1, 1), (2, 3), (5, 7), (6, 6), (31, 17), (64, 64), (63, 64)]:
        x = rng.standard_normal((rows, cols))
        back = irfft2(rfft2(x), cols)
        assert np.abs(back - x).max() < 1e-10


def test_parseval_with_half_spectrum_double_counting():
    rng = np.random.default_rng(2)
    for rows, cols in [(4, 4), (5, 7), (8, 9), (16, 16)]:
        x = rng.standard_normal((rows, cols))
        z = rfft2(x)
        weights = half_spectrum_weights(cols)
        assert weights.shape == (half_cols(cols),)
        spec_energy = (weights * np.abs(z) ** 2).sum() / (rows * cols)
        time_energy = (x ** 2).sum()
        assert abs(spec_energy - time_energy) / time_energy < 1e-10


def test_dc_inversion_gives_ones():
    z = np.zeros((3, 3), dtype=complex)
    z[0, 0] = 3 * 5
    assert np.allclose(irfft2(z, 5), np.ones((3, 5)), atol=1e-12)


def test_irfft2_zeros():
    assert not irfft2(np.zeros((4, 3), dtype=complex), 4).any()


def test_oracle_linearity():
    rng = np.random.default_rng(3)
    x, y = rng.standard_normal((2, 5, 6))
    lhs = dft2_oracle(2.5 * x - 1.25 * y)
    rhs = 2.5 * dft2_oracle(x) - 1.25 * dft2_oracle(y)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_oracle_size_guard():
    dft2_oracle(np.zeros((64, 64)))  # exactly at the cap
    with pytest.raises(TooLarge):
        dft2_oracle(np.zeros((64, 65)))


def test_shape_validation():
    with pytest.raises(ShapeMismatch):
        rfft2(np.zeros(4))
    with pytest.raises(ShapeMismatch):
        irfft2(np.zeros((4, 4), dtype=complex), 4)  # needs 3 columns for cols=4
    with pytest.raises(NonFinite):
        rfft2(np.array([[1.0, np.nan]]))


def test_rate_series_empty_stream():
    rs = event_rate_series(EventStream.empty((4, 4)), 0.01)
    assert list(rs.values) == [0]


def test_rate_series_all_events_at_t0():
    s = EventStream.from_arrays((4, 4), [0] * 7, [0] * 7, [0] * 7, [1] * 7)
    rs = event_rate_series(s, 0.5)
    assert list(rs.values) == [7]


def test_rate_series_conserves_count():
    rng = np.random.default_rng(4)
    for seed in range(5):
        n = int(rng.integers(10, 5000))
        t = np.sort(np.random.default_rng(seed).integers(0, 2_000_000, n))
        s = EventStream.from_arrays((4, 4), [0] * n, [0] * n, t - t[0], [1] * n)
        rs = event_rate_series(s, 0.013)
        assert rs.values.sum() == n


def test_rate_series_bin_edges():
    # events at 0ms, 9.999ms, 10ms, 30ms with 10ms bins: duration is an
    # exact bin multiple, so the final event clamps into the last bin
    t = [0, 9_999, 10_000, 30_000]
    s = EventStream.from_arrays((4, 4), [0] * 4, [0] * 4, t, [1] * 4)
    rs = event_rate_series(s, 0.01)
    assert list(rs.values) == [2, 1, 1]


def test_rate_series_bin_count_overflow_is_rejected():
    s = EventStream.from_arrays((4, 4), [0, 0], [0, 0], [0, 1_000_000], [1, 1])
    for bin_dt in (1e-300, 2.0 ** -60):
        with pytest.raises(TooLarge):
            event_rate_series(s, bin_dt)


def test_rate_series_counts_from_the_first_timestamp():
    # a raw stream starting at 1 s used to fill bins from t = 0: all four
    # events clamped into the last of 10 bins
    t = [1_000_000, 1_250_000, 1_500_000, 2_000_000]
    raw = EventStream.from_arrays((4, 4), [0] * 4, [0] * 4, t, [1] * 4)
    want = [1, 0, 1, 0, 0, 1, 0, 0, 0, 1]
    assert list(event_rate_series(raw.normalized(), 0.1).values) == want
    assert list(event_rate_series(raw, 0.1).values) == want
    shuffled = EventStream.from_arrays((4, 4), [0] * 4, [0] * 4, t[::-1], [1] * 4)
    assert list(event_rate_series(shuffled, 0.1).values) == want


@pytest.mark.parametrize("offset", [2 ** 62, 2 ** 53 + 1, -2 ** 62, 2 ** 63 - 10])
def test_rate_series_of_a_raw_stream_far_from_0_matches_its_normalized_twin(offset):
    # t - t_min taken in float64 rounded 2**62 + 3 - 2**62 to 0 and gave [2, 0, 0]
    raw = EventStream.from_arrays((4, 4), [0, 1], [0, 1], [offset, offset + 3], [1, -1])
    want = event_rate_series(raw.normalized(), 1e-6).values.tolist()
    assert want == [1, 0, 1]
    assert event_rate_series(raw, 1e-6).values.tolist() == want


def _parsed_twin(cols):
    """A parsed HEVS stream of `cols`, and `cols` as they were."""
    return parse_events_binary(write_events_binary(EventStream.from_arrays((300, 200), *cols))), cols


def _shuffled_twin(cols):
    perm = np.random.default_rng(8).permutation(len(cols[0]))
    shuffled = [c[perm] for c in cols]
    return EventStream.from_arrays((300, 200), *shuffled), shuffled


@pytest.mark.parametrize("make", [
    pytest.param(_parsed_twin, id="parsed-shift-pending"),
    pytest.param(lambda cols: _parsed_twin([*cols[:2], cols[2] - cols[2][0], cols[3]]),
                 id="parsed-from-0"),
    pytest.param(_shuffled_twin, id="shuffled"),
])
def test_rate_series_matches_the_normalized_from_arrays_twin(make):
    rng = np.random.default_rng(7)
    n = 20_000
    cols = [rng.integers(0, 300, n), rng.integers(0, 200, n),
            np.sort(rng.integers(1_000, 3_000_000, n)), rng.choice([-1, 1], n)]
    stream, twin_cols = make(cols)
    twin = EventStream.from_arrays((300, 200), *twin_cols).normalized()
    for bin_dt in (0.01, 5e-4, 3e-6):
        got, want = event_rate_series(stream, bin_dt).values, event_rate_series(twin, bin_dt).values
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), bin_dt


def test_rate_series_span_beyond_int64_is_too_large():
    # a bin this wide is at most 2 bins, so only the span guard can stop it
    raw = EventStream.from_arrays((4, 4), [0, 0], [0, 0], [-2 ** 63, 2 ** 63 - 1], [1, 1])
    with pytest.raises(TooLarge, match="beyond int64"):
        raw.normalized()
    with pytest.raises(TooLarge, match="beyond int64"):
        event_rate_series(raw, 1e13)


def test_rate_series_bins_are_bounded_by_the_event_count():
    # two events 1000 s apart at 10 us bins would be 1e8 bins (800 MB)
    s = EventStream.from_arrays((4, 4), [0, 0], [0, 0], [0, 1_000_000_000], [1, 1])
    with pytest.raises(TooLarge):
        event_rate_series(s, 1e-5)
    # at most 2**16 bins for few events: 2**16 * 15625 us is 2**16 bins of 2**-6 s
    s = EventStream.from_arrays((4, 4), [0, 0], [0, 0], [0, 2 ** 16 * 15_625], [1, 1])
    assert len(event_rate_series(s, 2.0 ** -6)) == 2 ** 16
    s = EventStream.from_arrays((4, 4), [0, 0], [0, 0], [0, 2 ** 16 * 15_625 + 1], [1, 1])
    with pytest.raises(TooLarge):
        event_rate_series(s, 2.0 ** -6)
    # and at most 64 bins per event for many
    n = 2000
    t = np.linspace(0, 64 * n * 15_625, n).astype(np.int64)
    s = EventStream.from_arrays((4, 4), [0] * n, [0] * n, t, [1] * n)
    assert len(event_rate_series(s, 2.0 ** -6)) == 64 * n
    t[-1] += 1
    s = EventStream.from_arrays((4, 4), [0] * n, [0] * n, t, [1] * n)
    with pytest.raises(TooLarge):
        event_rate_series(s, 2.0 ** -6)


def test_rate_series_bad_bin():
    s = EventStream.empty((4, 4))
    with pytest.raises(BadBin):
        event_rate_series(s, 0.0)
    with pytest.raises(BadBin):
        RateSeries(bin_dt=-1.0, values=np.zeros(1, dtype=np.int64))


def test_spectrum_resolution():
    rs = RateSeries(bin_dt=0.01, values=np.arange(100, dtype=np.int64))
    spec = rate_spectrum(rs)
    assert abs(spec.df - 1.0) < 1e-12
    assert len(spec.magnitudes) == 51


def test_dominant_none_for_constant_series():
    rs = RateSeries(bin_dt=0.01, values=np.full(128, 9, dtype=np.int64))
    assert dominant_frequency(rs) is None


def test_dominant_too_short():
    rs = RateSeries(bin_dt=0.01, values=np.array([1, 2, 3], dtype=np.int64))
    with pytest.raises(TooShort):
        dominant_frequency(rs)


def test_dominant_pure_sinusoid_1_32_hz():
    """100 Hz sampling for 10 s; Fig.-3-style nodding tone."""
    t = np.arange(1000) * 0.01
    vals = np.rint(50 + 30 * np.sin(2 * np.pi * 1.32 * t)).astype(np.int64)
    dom = dominant_frequency(RateSeries(bin_dt=0.01, values=vals))
    assert dom is not None
    assert abs(dom.f_peak - 1.32) <= 0.02
    assert dom.magnitude > 0


def test_dominant_error_below_1p5_df():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(64, 512))
        bin_dt = float(rng.uniform(0.005, 0.05))
        df = 1.0 / (bin_dt * n)
        nyquist = 0.5 / bin_dt
        f0 = float(rng.uniform(3 * df, nyquist - 3 * df))
        t = np.arange(n) * bin_dt
        vals = np.rint(1000 + 400 * np.sin(2 * np.pi * f0 * t)).astype(np.int64)
        dom = dominant_frequency(RateSeries(bin_dt=bin_dt, values=vals))
        assert dom is not None
        assert abs(dom.f_peak - f0) <= 1.5 * df


def test_generated_stream_recovers_f0():
    spec = PeriodicGenSpec(f0=3.21, duration_s=10.0, base_rate=1000.0,
                           peak_rate=10000.0, geometry=(346, 260),
                           motion_amplitude=40.0, seed=42)
    series = event_rate_series(generate_periodic_stream(spec), 0.01)
    dom = dominant_frequency(series)
    assert dom is not None
    assert abs(dom.f_peak - 3.21) <= 0.1
