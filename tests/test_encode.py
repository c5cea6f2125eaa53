import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evholo import (
    ChannelOutOfRange,
    ConfigInvalid,
    EncodeConfig,
    EventStream,
    TooLarge,
    encode_chsr,
    encode_view,
    export_channel_image,
    event_rate_series,
    parse_events_binary,
    phi,
    synthetic_uniform_stream,
    validate_stream,
    write_events_binary,
    write_events_csv,
    write_tensor,
)
from evholo import encode as encode_module
from evholo import events as events_module
from evholo.events import _HEVS_RECORD_DTYPE, HEVS_HEADER


def chsr_reference(stream, t_bins, h_bins):
    """Naive single-loop encoder: one event at a time, scalar math only.

    Deliberately shares no vectorized machinery with the implementation.
    Works on raw streams too: bins count from the smallest timestamp, and
    a polarity outside {-1, +1} adds to channel 2 only.
    """
    w, h = stream.geometry
    ts = [int(t) for t in stream.events["t"]]
    t0 = min(ts) if ts else 0
    dur = (max(ts) - t0) if ts else 0
    out = np.zeros((3, t_bins, h_bins))
    dropped = 0
    for e in stream:
        if not (0 <= e.x < w and 0 <= e.y < h):
            dropped += 1
            continue
        tb = ((e.t - t0) * t_bins) // (dur + 1)
        yb = (e.y * h_bins) // h
        if e.p in (1, -1):
            out[0 if e.p == 1 else 1, tb, yb] += 1
        out[2, tb, yb] += math.sin(math.pi * e.x / w)
    return out, dropped


def random_stream(n, geometry=(64, 48), t_max=100_000, seed=0, oob_fraction=0.0):
    rng = np.random.default_rng(seed)
    w, h = geometry
    x = rng.integers(0, w, n)
    y = rng.integers(0, h, n)
    if oob_fraction:
        k = int(n * oob_fraction)
        idx = rng.choice(n, k, replace=False)
        x[idx[: k // 2]] = rng.integers(w, w + 10, len(idx[: k // 2]))
        y[idx[k // 2:]] = rng.integers(h, h + 10, len(idx[k // 2:]))
    t = np.sort(rng.integers(0, t_max, n))
    t -= t[0]
    p = rng.choice([-1, 1], n)
    return EventStream.from_arrays(geometry, x, y, t, p)


def test_phi_contract():
    w = 346
    assert phi(0, w) == 0.0
    assert abs(phi(w / 2, w) - 1.0) <= 1e-12
    xs = np.arange(w)
    assert np.abs(phi(xs, w) - phi(w - xs, w)).max() <= 1e-12


def test_default_shape_is_3x224xH():
    s = random_stream(1000, geometry=(346, 260))
    t = encode_chsr(s)
    assert t.data.shape == (3, 224, 260)
    assert t.config.t_bins == 224
    assert t.config.h_bins == 260
    assert t.config.w_bins == 346


def test_single_event_at_midwidth():
    s = EventStream.from_arrays((346, 260), [173], [3], [0], [1])
    t = encode_chsr(s)
    yb = (3 * 260) // 260
    assert t.data[0, 0, yb] == 1.0
    assert t.data[1].sum() == 0.0
    assert abs(t.data[2, 0, yb] - 1.0) <= 1e-12  # sin(pi/2)


def test_phi_endpoints_accumulate_in_one_cell():
    w = 346
    s = EventStream.from_arrays((w, 260), [0, w - 1], [3, 3], [0, 0], [1, -1])
    t = encode_chsr(s)
    yb = (3 * 260) // 260
    expected = math.sin(0.0) + math.sin(math.pi * (w - 1) / w)
    assert abs(t.data[2, 0, yb] - expected) <= 1e-12
    assert t.data[0, 0, yb] == 1.0 and t.data[1, 0, yb] == 1.0


def raw_stream(n, geometry=(100, 80), seed=0):
    """Unsorted stream with t_min > 0, out-of-bounds events on every side
    and some polarity-7 events, as a directly constructed stream may be."""
    s = random_stream(n, geometry=geometry, seed=seed, oob_fraction=0.05)
    rng = np.random.default_rng(seed + 1)
    ev = s.events[rng.permutation(n)]
    x, p = ev["x"].copy(), ev["p"].copy()
    x[:20] = -rng.integers(1, 5, 20)
    p[20:20 + n // 50] = 7
    return EventStream.from_arrays(geometry, x, ev["y"], ev["t"] + 12_345, p)


def test_matches_naive_reference_on_large_random_stream():
    for s in (random_stream(100_000, geometry=(100, 80), seed=2, oob_fraction=0.03),
              raw_stream(20_000, seed=14)):
        for h_bins in (None, 33, 7, 1):  # None: the sensor's 80 rows
            ref, ref_dropped = chsr_reference(s, 224, h_bins or 80)
            t = encode_chsr(s, EncodeConfig(h_bins=h_bins))
            assert t.dropped == ref_dropped
            assert np.array_equal(t.data[:2], ref[:2])
            assert np.allclose(t.data[2], ref[2], rtol=1e-12, atol=1e-12)


def test_count_conservation_with_dropped():
    s = random_stream(5000, seed=3, oob_fraction=0.1)
    t = encode_chsr(s)
    assert t.data[0].sum() + t.data[1].sum() + t.dropped == len(s)
    assert t.dropped > 0


def test_polarity_split():
    s = random_stream(2000, seed=4)
    pos = EventStream(s.geometry, s.events[s.events["p"] == 1])
    neg = EventStream(s.geometry, s.events[s.events["p"] == -1])
    assert encode_chsr(pos).data[1].sum() == 0.0
    assert encode_chsr(neg).data[0].sum() == 0.0


def test_holographic_bound_per_cell():
    s = random_stream(20_000, seed=5)
    t = encode_chsr(s)
    assert (np.abs(t.data[2]) <= t.data[0] + t.data[1] + 1e-9).all()


def test_permutation_invariance():
    s = random_stream(30_000, seed=6)
    rng = np.random.default_rng(7)
    shuffled = EventStream(s.geometry, s.events[rng.permutation(len(s))])
    a = encode_chsr(s)
    b = encode_chsr(shuffled)
    assert a.data[:2].tobytes() == b.data[:2].tobytes()
    denom = np.maximum(np.abs(a.data[2]), 1e-30)
    assert (np.abs(a.data[2] - b.data[2]) / denom).max() < 1e-9


def test_empty_stream_gives_zero_tensor():
    t = encode_chsr(EventStream.empty((32, 32)))
    assert t.data.shape == (3, 224, 32)
    assert not t.data.any()
    assert t.dropped == 0


@pytest.mark.parametrize("view, shape", [
    ("hw", (2, 32, 48)), ("tw", (2, 224, 48)), ("th", (2, 224, 32))])
def test_empty_stream_gives_zero_view(view, shape):
    # an empty stream plans no chunk with events: HW none, time rows empty ones
    t = encode_view(EventStream.empty((48, 32)), view)
    assert t.data.shape == shape
    assert not t.data.any()
    assert t.dropped == 0


def test_final_event_lands_in_last_bin():
    s = EventStream.from_arrays((8, 8), [0, 0], [0, 0], [0, 999], [1, 1])
    t = encode_chsr(s, EncodeConfig(t_bins=10))
    assert t.data[0, 0, 0] == 1.0
    assert t.data[0, 9, 0] == 1.0


def test_worker_counts_agree():
    s = random_stream(50_000, seed=8)
    base = encode_chsr(s, workers=1)
    for workers in (2, 3, 8):
        alt = encode_chsr(s, workers=workers)
        assert alt.data[:2].tobytes() == base.data[:2].tobytes()
        assert alt.dropped == base.dropped
        denom = np.maximum(np.abs(base.data[2]), 1e-30)
        assert (np.abs(alt.data[2] - base.data[2]) / denom).max() < 1e-9
    # fixed worker count is bit-reproducible
    assert encode_chsr(s, workers=3).data.tobytes() == \
        encode_chsr(s, workers=3).data.tobytes()
    # all three channels, the holographic one included, are bit-identical
    # for any worker count
    for workers in (2, 8):
        assert encode_chsr(s, workers=workers).data.tobytes() == base.data.tobytes()


def test_th_view_equals_chsr_density_channels():
    s = random_stream(10_000, seed=9)
    v = encode_view(s, "th")
    t = encode_chsr(s)
    assert np.array_equal(v.data, t.data[:2])


def test_hw_view_single_event():
    s = EventStream.from_arrays((16, 12), [5], [7], [0], [1])
    v = encode_view(s, "hw")
    assert v.data.shape == (2, 12, 16)
    assert v.data[0, 7, 5] == 1.0
    assert v.data.sum() == 1.0


def test_hw_view_down_bins_both_axes():
    s = random_stream(20_000, geometry=(100, 80), seed=21, oob_fraction=0.02)
    v = encode_view(s, "hw", EncodeConfig(h_bins=9, w_bins=13))
    x, y, p = s.events["x"], s.events["y"], s.events["p"]
    inb = (x < 100) & (y < 80)
    want = np.zeros((2, 9, 13))
    np.add.at(want, ((p[inb] == -1).astype(int), y[inb] * 9 // 80, x[inb] * 13 // 100), 1)
    assert v.dropped == len(s) - np.count_nonzero(inb) > 0
    assert np.array_equal(v.data, want)


def test_view_shapes():
    s = random_stream(100, geometry=(346, 260))
    assert encode_view(s, "hw").data.shape == (2, 260, 346)
    assert encode_view(s, "tw").data.shape == (2, 224, 346)
    assert encode_view(s, "th").data.shape == (2, 224, 260)


def test_tw_and_th_share_per_timebin_totals():
    s = random_stream(15_000, seed=10)
    tw = encode_view(s, "tw").data
    th = encode_view(s, "th").data
    assert np.array_equal(tw.sum(axis=2), th.sum(axis=2))


def test_view_is_nonnegative_integers():
    s = random_stream(3000, seed=11)
    v = encode_view(s, "tw")
    assert (v.data >= 0).all()
    assert np.array_equal(v.data, np.rint(v.data))


def test_unknown_view_rejected():
    for view in ("tx", "HW"):
        with pytest.raises(ConfigInvalid):
            encode_view(random_stream(10), view)


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        EncodeConfig(t_bins=0)
    with pytest.raises(ConfigInvalid):
        EncodeConfig(h_bins=-1)
    for field, value in (("t_bins", 2.5), ("h_bins", 2.5), ("w_bins", 2.5),
                         ("t_bins", "3"), ("t_bins", np.float64(3)), ("h_bins", np.inf)):
        with pytest.raises(ConfigInvalid, match=f"{field} must be an integer >= 1"):
            EncodeConfig(**{field: value})
    with pytest.raises(ConfigInvalid):
        EncodeConfig(normalize="sqrt")
    with pytest.raises(ConfigInvalid):
        encode_chsr(random_stream(10), workers=0)
    stream = random_stream(50)
    numpy_sizes = EncodeConfig(t_bins=np.int64(6), h_bins=np.uint16(5), w_bins=np.int32(7))
    int_sizes = EncodeConfig(t_bins=6, h_bins=5, w_bins=7)
    for encode in (encode_chsr, lambda s, cfg: encode_view(s, "hw", cfg)):
        assert (encode(stream, numpy_sizes).data.tobytes()
                == encode(stream, int_sizes).data.tobytes())


def test_temporal_binning_overflow_is_rejected():
    # (duration + 1) * t_bins overflows int64: both events used to land in row 0
    s = EventStream.from_arrays((8, 8), [0, 0], [0, 0], [0, 2 ** 60], [1, 1])
    with pytest.raises(TooLarge):
        encode_chsr(s)
    with pytest.raises(TooLarge):
        encode_view(s, "tw")
    assert encode_view(s, "hw").data.sum() == 2.0  # no temporal axis
    # the longest duration that still fits bins exactly
    dur = (2 ** 63 - 1) // 224 - 1
    s = EventStream.from_arrays((8, 8), [0, 0], [0, 0], [0, dur], [1, 1])
    t = encode_chsr(s)
    assert t.data[0, 0, 0] == 1.0 and t.data[0, 223, 0] == 1.0
    s = EventStream.from_arrays((8, 8), [0, 0], [0, 0], [0, dur + 1], [1, 1])
    with pytest.raises(TooLarge):
        encode_chsr(s)


def test_plane_size_overflow_is_rejected():
    # 2 * 4e9 * 4e9 (cell, polarity) counts: neither the keys nor their bytes fit int64
    s = EventStream.from_arrays((4_000_000_000, 4_000_000_000), [0, 1], [0, 1], [0, 5], [1, 1])
    with pytest.raises(TooLarge):
        encode_view(s, "hw")
    with pytest.raises(TooLarge):
        encode_chsr(s, EncodeConfig(t_bins=2 ** 40))
    # a plane just under the guard gets past it and fails to allocate its
    # 2**63 - 128 bytes of counts instead, far beyond any address space
    with pytest.raises(MemoryError):
        encode_view(EventStream.from_arrays((8, 2 ** 56 - 1), [0], [0], [0], [1]), "hw")


def test_hevs_parse_encode_write_peak():
    """The `hevs_encode_1m` operation: parse, encode, write the tensor. The
    shifted t is a 4 MB uint32 column (it was 8 MB of int64) and the tensor
    is copied once into the HTEN bytes (it was twice): 7.55 MB measured
    against 12.2 MB before, and 6.80 MB with encoder chunks of 2**16 events.
    The parse now leaves t unshifted and the encoder bins the raw record
    view, so the shifted column is made only by the dtype read after the
    peak: 2.80 MB, the encode call's own peak. Its chunks gather phi with an
    intp x, freed before the row offsets are built: an intp x alive beside
    them took the op to 3.13-3.17 MB."""
    data = hevs_encode_1m_bytes(11)
    config = EncodeConfig(t_bins=224)
    tracemalloc.start()
    try:
        stream = parse_events_binary(data)
        tensor = encode_chsr(stream, config)
        out = write_tensor(tensor.data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stream.events.t.dtype == np.uint32
    assert out[8 + 3 * 8:] == tensor.data.tobytes()  # after the header and dims
    assert peak < 2_900_000


@pytest.mark.parametrize("span", [10_000, 2 ** 32 - 1])
def test_uint32_t_encodes_and_writes_like_its_int64_twin(span):
    """normalized() stores t - t_min as uint32 below a 2**32 us span: every
    encoder, validate_stream, the rate series and both writers give what
    the same stream with an int64 t gives."""
    rng = np.random.default_rng(41)
    n = 5000
    t = np.concatenate(([7, 7 + span], rng.integers(7, 8 + span, n - 2)))
    s = EventStream.from_arrays((100, 80), rng.integers(0, 106, n), rng.integers(0, 84, n),
                                t, rng.choice([-1, 1], n)).normalized()
    ev = s.events
    twin = EventStream.from_arrays(s.geometry, ev.x, ev.y, ev.t.astype(np.int64), ev.p)
    assert (ev.t.dtype, twin.events.t.dtype) == (np.uint32, np.int64)
    _assert_same_encodings(s, twin, EncodeConfig(t_bins=224, h_bins=17, w_bins=23))
    assert validate_stream(s).out_of_bounds > 0
    bin_dt = span / 1e6 / 500
    assert np.array_equal(event_rate_series(s, bin_dt).values,
                          event_rate_series(twin, bin_dt).values)
    assert write_events_binary(s) == write_events_binary(twin)
    assert write_events_csv(s) == write_events_csv(twin)


def _deferred_case(name):
    """x, y, t, p of one case of the deferred-shift test: 60 events on a
    40x30 sensor, some out of bounds, polarity -1/+1."""
    rng = np.random.default_rng(43)
    n = 1 if name == "one event" else 60
    t = {"t0 > 0": lambda: np.sort(rng.integers(7, 10_007, n)),
         "span 2**32": lambda: np.sort(np.r_[5, 2 ** 32 + 8, rng.integers(5, 2 ** 32, n - 2)]),
         "near 2**63": lambda: np.sort(rng.integers(2 ** 63 - 10_000, 2 ** 63 - 1, n)),
         "t0 = 0": lambda: np.r_[0, np.sort(rng.integers(0, 900, n - 1))],
         "one event": lambda: np.array([9]),
         "all equal": lambda: np.full(n, 123),
         "unsorted": lambda: np.r_[9_000, 7, rng.integers(7, 10_007, n - 2)]}[name]()
    return rng.integers(0, 45, n), rng.integers(0, 34, n), t, rng.choice([-1, 1], n)


def _columns(ev):
    """Every column's values, and t's dtype."""
    return ev.t.dtype, [getattr(ev, f).tolist() for f in "xytp"]


@pytest.mark.parametrize("case", ["t0 > 0", "span 2**32", "near 2**63", "t0 = 0",
                                  "one event", "all equal", "unsorted"])
def test_deferred_t_shift_reads_like_the_eager_twin(case):
    """A parsed HEVS stream found sorted shifts t on its first read. Every
    reader, each on a freshly parsed stream, gives what it gives on the
    stream normalized eagerly from int64 columns; the encoders run first
    and, with duration, repr, one-event reads and selections, leave the
    shift pending."""
    geom, (x, y, t, p) = (40, 30), _deferred_case(case)
    data = write_events_binary(EventStream.from_arrays(geom, x, y, t, p))
    twin = EventStream.from_arrays(geom, x, y, t.astype(np.int64), p).normalized()
    n = len(t)
    bin_dt = max(twin.duration, 1) / 1e6 / 500
    config = EncodeConfig(t_bins=50, h_bins=17, w_bins=23)
    readers = {
        "encoders": lambda s: _encodings(s, config),
        "==": lambda s: (s == twin, twin == s),
        "duration": lambda s: s.duration,
        "repr": repr,
        "iter": list,
        "index": lambda s: [s[i] for i in (0, n // 2, n - 1, -1, -n)],
        "slice": lambda s: _columns(s.events[1::2]),
        "mask": lambda s: _columns(s.events[np.arange(n) % 3 != 1]),
        "columns": lambda s: _columns(s.events),
        "normalized": lambda s: _columns(s.normalized().events),
        "validate": validate_stream,
        "hevs": write_events_binary,
        "csv": write_events_csv,
        "rate": lambda s: event_rate_series(s, bin_dt).values.tolist(),
        "time_bins": lambda s: s.time_bins(50)[1].tolist(),
    }
    pending = int(t[0]) if case not in ("t0 = 0", "unsorted") else 0
    stream = parse_events_binary(data)
    for name, read in readers.items():  # the encoders first, on one stream too
        fresh = parse_events_binary(data)
        assert fresh.events._t[1] == pending
        assert read(fresh) == read(stream) == read(twin), name
        keeps = name in ("encoders", "duration", "repr", "index", "slice", "mask", "time_bins")
        assert fresh.events._t[1] == (pending if keeps else 0), name


def test_few_events_on_a_wide_sensor_skip_the_phi_table():
    # a W-entry phi table for 2 events on a 2e6-wide sensor peaked at 48 MB
    w = 2_000_000
    s = EventStream.from_arrays((w, 1), [0, w - 1], [0, 0], [0, 5], [1, -1])
    tracemalloc.start()
    try:
        t = encode_chsr(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert t.data[2].sum() == phi(np.arange(w), w)[w - 1]  # bit-identical to the table


def _encodings(stream, config=EncodeConfig(t_bins=50, h_bins=17, w_bins=23)):
    """The CHSR tensor and the hw, tw and th views, as (bytes, dropped) each."""
    out = [encode_chsr(stream, config)]
    out += [encode_view(stream, view, config) for view in ("hw", "tw", "th")]
    return [(o.data.tobytes(), o.dropped) for o in out]


def _assert_same_encodings(a, b, config):
    assert _encodings(a, config) == _encodings(b, config)
    assert validate_stream(a) == validate_stream(b)


@pytest.mark.parametrize("bins", [300, 250])
def test_uint16_hevs_columns_do_not_wrap(monkeypatch, bins):
    """Under NEP 50 a uint16 column times an int stays uint16: y * h_bins,
    x * w_bins and the row bins times the column count all pass 65535
    here, so the encoder must widen before any arithmetic."""
    rng = np.random.default_rng(21)
    n = 3000
    wide = EventStream.from_arrays(
        (300, 300), rng.integers(0, 300, n), rng.integers(0, 300, n),
        np.sort(rng.integers(0, 50_000, n)), rng.choice([-1, 1], n)).normalized()
    wide.events.y[:2] = 299
    parsed = parse_events_binary(write_events_binary(wide))
    assert parsed.events.x.dtype == parsed.events.y.dtype == np.uint16
    assert parsed == wide
    config = EncodeConfig(t_bins=300, h_bins=bins, w_bins=bins)
    _assert_same_encodings(parsed, wide, config)
    want = _encodings(wide, config)
    monkeypatch.setattr(encode_module, "_CHUNK", 97)  # the parsed u16/i8 columns, chunked
    assert _encodings(parsed, config) == want


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint32])
def test_narrow_columns_encode_like_int64(dtype):
    """Out-of-geometry events, negative ones included for signed dtypes,
    are dropped alike whatever the column dtype, and the HW view counts
    what a per-event reference counts, with bins of the sensor's size (x
    and y binned as they are) or not."""
    s = random_stream(2000, geometry=(90, 70), t_max=120, seed=4, oob_fraction=0.1)
    if np.dtype(dtype).kind == "i":
        s.events.x[::97] = -3
        s.events.y[5::89] = -2
    ev = s.events
    narrow = EventStream.from_arrays(s.geometry, *(ev[f].astype(dtype) for f in "xyt"),
                                     ev.p.astype(np.int8))
    assert narrow.events.x.dtype == dtype
    x, y, p = ev.x, ev.y, ev.p
    inb = (x >= 0) & (x < 90) & (y >= 0) & (y < 70)
    for config in (EncodeConfig(t_bins=40, h_bins=33, w_bins=51), EncodeConfig(t_bins=40)):
        _assert_same_encodings(narrow, s, config)
        cfg = config.resolved(s.geometry)
        want = np.zeros((2, cfg.h_bins, cfg.w_bins))
        np.add.at(want, ((p[inb] == -1).astype(int), y[inb] * cfg.h_bins // 70,
                         x[inb] * cfg.w_bins // 90), 1)
        hw = encode_view(narrow, "hw", config)
        assert hw.dropped == len(s) - np.count_nonzero(inb) > 0
        assert np.array_equal(hw.data, want)


@pytest.mark.parametrize("chunk", [64, 2 ** 16])
def test_parsed_uint16_columns_drop_events_past_the_geometry(monkeypatch, chunk):
    """A parsed stream's x and y are uint16, which no bound check needs to
    test below 0: events with x >= W or y >= H are still dropped and counted
    in every chunk, as in the stream's int64 twin and a per-event reference."""
    monkeypatch.setattr(encode_module, "_CHUNK", chunk)
    s = random_stream(3000, geometry=(90, 70), t_max=5000, seed=12, oob_fraction=0.1)
    parsed = parse_events_binary(write_events_binary(s))
    assert parsed.events.x.dtype == parsed.events.y.dtype == np.uint16
    for config in (EncodeConfig(t_bins=40, h_bins=33, w_bins=51), EncodeConfig(t_bins=40)):
        _assert_same_encodings(parsed, s, config)
    ref, ref_dropped = chsr_reference(s, 40, 70)
    t = encode_chsr(parsed, EncodeConfig(t_bins=40))
    assert t.dropped == ref_dropped == 300
    assert np.array_equal(t.data[:2], ref[:2])
    assert np.allclose(t.data[2], ref[2], rtol=1e-12, atol=1e-12)


# lengths about the bisection's steps: 0, 1 and 2**k - 1, 2**k, 2**k + 1
ROW_EDGE_LENGTHS = sorted({0, 1} | {2 ** k + d for k in range(1, 13) for d in (-1, 0, 1)})


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.sampled_from(ROW_EDGE_LENGTHS), row_bins=st.integers(1, 300),
       span=st.one_of(st.integers(1, 64), st.integers(1, 2 ** 32), st.integers(1, 2 ** 62)),
       t0=st.one_of(st.just(0), st.integers(1, 2 ** 63)), dtype=st.sampled_from(["<u4", "<i8"]),
       strided=st.booleans(), near=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_row_edges_equal_searchsorted(n, row_bins, span, t0, dtype, strided, near, seed):
    """`EventStream.time_bins` bisects every bin start over t at once; its
    edges equal `searchsorted(t, thr + t0)`, on a uint32 or int64 t, a
    contiguous one or a strided record view with its shift pending (as
    parsed), with ties, empty rows and events at a threshold, -1 or +1."""
    top = 2 ** 32 - 1 if dtype == "<u4" else 2 ** 63 - 2  # t_max + 1 fits int64
    span = min(span, top + 1) if n > 1 else 1  # t[0] = t0, t[-1] = t0 + span - 1
    t0 = min(t0, top + 1 - span) if n else 0
    thr = np.array([-(-r * span // row_bins) for r in range(1, row_bins)], dtype=np.int64)
    rng = np.random.default_rng(seed)
    pool = np.clip(np.r_[thr - 1, thr, thr + 1], 0, span - 1)  # at or next to a threshold
    mid = rng.choice(pool, n) if near and len(pool) else rng.integers(0, span, n)
    rel = np.sort(np.r_[0, span - 1, mid][:n])
    if strided:  # t at offset 4 of 13-byte records, as `parse_events_binary` views it
        rec = np.zeros(n, np.dtype({"names": ["t"], "formats": [dtype], "offsets": [4],
                                    "itemsize": 13}))
        t = rec["t"]
    else:
        t = np.zeros(n, dtype)
    t[:] = rel.astype(np.uint64) + np.uint64(t0)
    assert t.flags.c_contiguous != strided or n <= 1
    want = np.r_[0, np.searchsorted(t, thr + t0), n]
    stream = EventStream.from_arrays((1, 1), np.zeros(n, "u2"), np.zeros(n, "u2"), t,
                                     np.ones(n, "i1"))
    if n and dtype == "<i8":  # t - t[0] waits for the first read, as `parse_events_binary` sets it
        stream.events._t = (t, int(t[0]), True)
    if span * row_bins > 2 ** 63 - 1:  # (duration + 1) * t_bins past int64
        with pytest.raises(TooLarge):
            stream.time_bins(row_bins)
        return
    normalized, edges = stream.time_bins(row_bins)
    assert edges.tolist() == want.tolist()
    assert normalized.events._t[1] == stream.events._t[1]  # a pending shift stays pending


def test_per_channel_max_normalization():
    s = random_stream(5000, seed=12)
    t = encode_chsr(s, EncodeConfig(normalize="per_channel_max"))
    for ch in t.data:
        assert np.abs(ch).max() <= 1.0 + 1e-12
    raw = encode_chsr(s)
    for ch in range(3):
        m = np.abs(raw.data[ch]).max()
        assert np.allclose(t.data[ch] * m, raw.data[ch])


def test_log1p_normalization_keeps_argmax():
    s = random_stream(5000, seed=13)
    raw = encode_chsr(s)
    logt = encode_chsr(s, EncodeConfig(normalize="log1p"))
    for ch in range(3):
        assert np.argmax(raw.data[ch]) == np.argmax(logt.data[ch])
    assert np.allclose(logt.data, np.log1p(raw.data))


def test_pgm_header_and_minmax_map():
    s = EventStream.from_arrays((16, 12), [5] * 5, [7] * 5, [0] * 5, [1] * 5)
    v = encode_view(s, "hw")
    img = export_channel_image(v, 0)
    header = f"P5\n16 12\n255\n".encode()
    assert img.startswith(header)
    pixels = np.frombuffer(img[len(header):], dtype=np.uint8).reshape(12, 16)
    assert pixels[7, 5] == 255  # value 5 maps to full white
    assert pixels.sum() == 255  # everything else is the 0 floor


def test_pgm_zero_range_channel_is_black():
    s = EventStream.from_arrays((16, 12), [5], [7], [0], [1])
    v = encode_view(s, "hw")
    img = export_channel_image(v, 1)  # no negative events anywhere
    header = f"P5\n16 12\n255\n".encode()
    assert img == header + bytes(12 * 16)


def test_pgm_channel_out_of_range():
    s = EventStream.from_arrays((16, 12), [5], [7], [0], [1])
    with pytest.raises(ChannelOutOfRange):
        export_channel_image(encode_chsr(s), 3)
    with pytest.raises(ChannelOutOfRange):
        export_channel_image(encode_view(s, "hw"), -1)


@pytest.mark.parametrize("chunk", [1, 1000])
def test_chunk_size_leaves_every_output_bit_identical(monkeypatch, chunk):
    """Chunks of whole time bins sum every cell over the same events in the
    same order, so even the holographic channel cannot tell them apart."""
    s = random_stream(30_000, geometry=(100, 80), seed=31, oob_fraction=0.04)
    s.events.p[::13] = 7
    want = _encodings(s)
    monkeypatch.setattr(encode_module, "_CHUNK", chunk)  # 1: every bin its own chunk
    assert _encodings(s) == want


def test_time_bin_beyond_the_chunk_size_is_one_chunk(monkeypatch):
    # 900 events share one timestamp, so one time bin holds 9x the chunk size
    rng = np.random.default_rng(32)
    t = np.sort(np.concatenate([rng.integers(0, 10_000, 2000), np.full(900, 4321)]))
    n = len(t)
    s = EventStream.from_arrays((60, 40), rng.integers(0, 60, n), rng.integers(0, 40, n),
                                t, rng.choice([-1, 1], n))
    want = _encodings(s)
    monkeypatch.setattr(encode_module, "_CHUNK", 100)
    assert _encodings(s) == want
    ref, _ = chsr_reference(s, 50, 40)
    t_enc = encode_chsr(s, EncodeConfig(t_bins=50))
    assert np.array_equal(t_enc.data[:2], ref[:2])
    big_bin = (4321 - t[0]) * 50 // (t[-1] - t[0] + 1)
    assert t_enc.data[:2, big_bin].sum() >= 900
    assert np.allclose(t_enc.data[2], ref[2], rtol=1e-12, atol=1e-12)


def test_unsorted_raw_stream_equals_its_sorted_twin(monkeypatch):
    """Time rows are binned from the normalized stream, so an unsorted
    stream encodes byte for byte like its stable sort: all three CHSR
    channels, the holographic one included, and every view."""
    monkeypatch.setattr(encode_module, "_CHUNK", 500)
    raw = raw_stream(20_000, seed=33)
    ev = raw.events
    twin = EventStream(raw.geometry, ev[np.argsort(ev.t, kind="stable")])
    for config in (EncodeConfig(), EncodeConfig(t_bins=9, h_bins=5)):
        got = _encodings(raw, config)
        assert got == _encodings(twin, config)
        assert all(dropped > 0 for _, dropped in got)


@pytest.mark.parametrize("chunk", [64, 2 ** 17])
def test_dropped_events_and_odd_polarities_inside_chunks(monkeypatch, chunk):
    """Out-of-geometry events on every side and polarities 0 and 7 sit in
    the same chunks as good events: a sorted stream, as normalized() gives."""
    monkeypatch.setattr(encode_module, "_CHUNK", chunk)
    raw = raw_stream(5000, seed=34)
    s = EventStream(raw.geometry, raw.events[np.argsort(raw.events.t, kind="stable")])
    s.events.p[1::50] = 0
    ref, ref_dropped = chsr_reference(s, 224, 80)
    t = encode_chsr(s)
    x, y, p = s.events.x, s.events.y, s.events.p
    inb = (x >= 0) & (x < 100) & (y >= 0) & (y < 80)
    assert t.dropped == ref_dropped == len(s) - np.count_nonzero(inb) > 0
    assert np.array_equal(t.data[:2], ref[:2])
    assert t.data[0].sum() == np.count_nonzero(inb & (p == 1))
    assert t.data[1].sum() == np.count_nonzero(inb & (p == -1))
    assert np.count_nonzero(inb & np.isin(p, (0, 7))) > 0
    assert np.allclose(t.data[2], ref[2], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("t_bins,span", [(7, 5), (224, 5), (7, 1000)])
def test_sorted_stream_ending_at_int64_max(t_bins, span):
    # with fewer microseconds than bins the last rows start past t_max, at
    # t_max + 1, which does not fit int64: they must not be searched for
    t_max = 2 ** 63 - 1
    t = np.array([t_max - span + 1, t_max - span // 2, t_max - 1, t_max, t_max], dtype=np.int64)
    s = EventStream.from_arrays((8, 8), [0, 1, 2, 3, 9], [1, 2, 3, 4, 5], t, [1, -1, 7, 1, 1])
    ref, ref_dropped = chsr_reference(s, t_bins, 8)
    enc = encode_chsr(s, EncodeConfig(t_bins=t_bins))
    assert enc.dropped == ref_dropped == 1
    assert np.array_equal(enc.data[:2], ref[:2])
    assert np.allclose(enc.data[2], ref[2], rtol=1e-12, atol=1e-12)
    assert enc.data[0, (span - 1) * t_bins // span, 4] == 1.0  # the in-geometry event at t_max


def hevs_encode_1m_bytes(seed):
    """The benchmark's `hevs_encode_1m` input for `seed` as HEVS bytes:
    1M events uniform over 346x260 and 10 s, sorted by t."""
    rng = np.random.default_rng([seed, 1])
    n = 1_000_000
    cols = (rng.integers(0, 346, n), rng.integers(0, 260, n),
            np.sort(rng.integers(0, 10_000_000, n)), rng.choice(np.array([-1, 1]), n))
    return write_events_binary(EventStream.from_arrays((346, 260), *cols))


def hevs_encode_1m_stream(seed):
    """`hevs_encode_1m_bytes(seed)` as parsed."""
    return parse_events_binary(hevs_encode_1m_bytes(seed))


def test_a_parsed_stream_from_t_0_has_its_order_checked_once(monkeypatch):
    """`parse_events_binary` marks the sorted stream it has checked, so
    `normalized` and the encoder take it as it is, also when its t starts at
    0 and no shift is pending (as in every HEVS file of a normalized stream):
    checking its order again cost 1.6 ms of an 11 ms 1M-event encode."""
    twin = synthetic_uniform_stream(100_000)
    data = write_events_binary(twin)
    want = encode_chsr(twin).data.tobytes()
    stream = parse_events_binary(data)
    assert stream.events._t[1] == 0

    def check_again(v):
        raise AssertionError("the order of a parsed sorted stream was checked again")
    monkeypatch.setattr(events_module, "_ascending", check_again)
    assert write_events_binary(stream.normalized()) == data
    assert encode_chsr(stream).data.tobytes() == want
    assert stream.duration == twin.duration


#: sha256 of the CHSR tensor bytes and of the hw, tw and th view bytes, one
#: after another, at t_bins=224, as the one-pass encoder made them.
ENCODING_PINS = {
    11: ("5a9789323de05d272a35bcccf7573ccabff00f7950a353eade61b255d2f565b2",
         "22cd23470d40d06e773b4deae747f20516774d9329eb2a08f0f01baf03dde323"),
    201: ("262675fdaf33a9b66848a3e1e8b614922ebacfa9f82eaf7fc73dec7e303a5b24",
          "0c6a343a0eaf40f18bb29a9e07eaef4e82ae89f1227d2d7110cfe5d7b7dcada8"),
    307: ("6da6f54ebe22e65800bc6605e51aecc629b53a7e1fa4f64b23df9a68bdc47b3e",
          "f896d0582dc61d4b916d25a86611cf6a8e41775b9fc88d5c76c08998238b343d"),
}


@pytest.mark.parametrize("seed", sorted(ENCODING_PINS))
def test_benchmark_inputs_encode_to_pinned_bytes(seed):
    s = hevs_encode_1m_stream(seed)
    config = EncodeConfig(t_bins=224)
    chsr = encode_chsr(s, config)
    views = b"".join(encode_view(s, view, config).data.tobytes() for view in ("hw", "tw", "th"))
    assert chsr.dropped == 0
    assert (hashlib.sha256(chsr.data.tobytes()).hexdigest(),
            hashlib.sha256(views).hexdigest()) == ENCODING_PINS[seed]


def test_sorted_1m_encode_peak_stays_chunk_sized():
    # one pass over all events peaked at 16.5 MB of int64 and float64
    # temporaries, chunks of 2**17 events at 3.55 MB, and chunks of 2**16
    # with contiguous x, y and p measure 2.80 MB: a chunk's temporaries kept
    # alive into the next, or a chunk twice as large, would pass 3.2 MB.
    # Shifted to start at t = 0, the parsed stream keeps t as the strided
    # view of its records, which one searchsorted over all of t copied (9.4 MB).
    s = hevs_encode_1m_stream(11)
    ev = s.events
    from_zero = parse_events_binary(write_events_binary(
        EventStream.from_arrays(s.geometry, ev.x, ev.y, ev.t - ev.t[0], ev.p)))
    assert not from_zero.normalized().events.t.flags.c_contiguous
    for stream in (s, from_zero):
        tracemalloc.start()
        try:
            encode_chsr(stream, EncodeConfig(t_bins=224))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_200_000


def test_1m_hw_view_peak_stays_chunk_sized():
    # one chunk of all events peaked at 12.88 MB; chunks of 2**16 events that
    # add their counts into the planes measure 3.02 MB, of which the planes
    # are 1.44 MB
    s = hevs_encode_1m_stream(11)
    tracemalloc.start()
    try:
        encode_view(s, "hw")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_200_000


def test_one_value_of_a_1m_parse_leaves_its_t_unshifted():
    """duration, repr and one event read the raw view and t0 of a pending
    shift: each read built the whole uint32 t column, 4.13 MB at its peak."""
    s = hevs_encode_1m_stream(11)
    raw = np.frombuffer(hevs_encode_1m_bytes(11), _HEVS_RECORD_DTYPE, offset=HEVS_HEADER)["t"]
    want = (int(raw[-1] - raw[0]), int(raw[400_000] - raw[0]), int(raw[-1] - raw[0]))
    for read in (lambda: s.duration, lambda: repr(s), lambda: (s[400_000].t, s[-1].t)):
        tracemalloc.start()
        try:
            read()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200_000
    assert s.events._t[1] == raw[0]
    assert (s.duration, s[400_000].t, s[-1].t) == want
    assert f"duration={want[0]} us" in repr(s)


def test_a_selection_of_a_1m_parse_shifts_only_its_events():
    """A slice, mask or permutation of a pending shift selects from the raw
    view, then shifts the selection into the whole column's dtype: selecting
    first built the whole uint32 t column, 4.13 MB at its peak."""
    s = hevs_encode_1m_stream(11)
    raw = np.frombuffer(hevs_encode_1m_bytes(11), _HEVS_RECORD_DTYPE, offset=HEVS_HEADER)["t"]
    mask = np.zeros(len(raw), dtype=bool)
    mask[[3, 500_000, -1]] = True
    for key in (slice(None, 10), slice(-5, None), mask, np.array([999_999, 0, 400_000])):
        tracemalloc.start()
        try:
            sel = s.events[key]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200_000
        assert sel.t.dtype == np.uint32
        assert sel.t.tolist() == (raw[key] - raw[0]).tolist()
    assert s.events._t[1] == raw[0]


@pytest.mark.parametrize("span", [2 ** 32 - 1, 2 ** 32])
def test_a_selection_takes_the_dtype_of_the_whole_shifted_t(span):
    """Selected events of a pending shift get the dtype the whole column
    gets, int64 from a 2**32 us span on, whatever their own span."""
    s = parse_events_binary(write_events_binary(EventStream.from_arrays(
        (4, 4), [0, 1, 2], [0, 1, 2], [7, 9, 7 + span], [1, -1, 1])))
    keys = (slice(0, 2), np.array([True, True, False]), np.array([1, 0]))
    selections = [s.events[key] for key in keys]
    assert s.events._t[1] == 7
    for key, sel in zip(keys, selections):
        assert sel.t.dtype == s.events.t.dtype == (np.uint32 if span < 2 ** 32 else np.int64)
        assert sel.t.tolist() == s.events.t[key].tolist()


def test_1m_hevs_parse_peak_is_its_t_column():
    """Beyond the 4 MB uint32 t, a step of the parse holds 64 KB of int64 t
    and a few KB more: 4.08 MB measured, against 4.13 MB for whole-array
    checks and 4.17 MB for steps of 2**14 records. The parse no longer
    writes the shifted t (it is made on the first read of `t`, here the
    dtype check after the peak), so only a step's buffers are left: 0.084 MB."""
    data = hevs_encode_1m_bytes(11)
    tracemalloc.start()
    try:
        stream = parse_events_binary(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stream.events.t.dtype == np.uint32
    assert peak <= 150_000
