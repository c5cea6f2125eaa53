import math
import tracemalloc

import numpy as np
import pytest

from evholo import (
    ChannelOutOfRange,
    ConfigInvalid,
    EncodeConfig,
    EventStream,
    TooLarge,
    encode_chsr,
    encode_view,
    export_channel_image,
    parse_events_binary,
    phi,
    validate_stream,
    write_events_binary,
)


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


def _assert_same_encodings(a, b, config):
    ta, tb = encode_chsr(a, config), encode_chsr(b, config)
    assert ta.dropped == tb.dropped and np.array_equal(ta.data, tb.data)
    for view in ("hw", "tw", "th"):
        va, vb = encode_view(a, view, config), encode_view(b, view, config)
        assert va.dropped == vb.dropped and np.array_equal(va.data, vb.data), view
    assert validate_stream(a) == validate_stream(b)


@pytest.mark.parametrize("bins", [300, 250])
def test_uint16_hevs_columns_do_not_wrap(bins):
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
    _assert_same_encodings(parsed, wide, EncodeConfig(t_bins=300, h_bins=bins, w_bins=bins))


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.uint8, np.uint32])
def test_narrow_columns_encode_like_int64(dtype):
    """Out-of-geometry events, negative ones included for signed dtypes,
    are dropped alike whatever the column dtype."""
    s = random_stream(2000, geometry=(90, 70), t_max=120, seed=4, oob_fraction=0.1)
    if np.dtype(dtype).kind == "i":
        s.events.x[::97] = -3
    ev = s.events
    narrow = EventStream.from_arrays(s.geometry, *(ev[f].astype(dtype) for f in "xyt"),
                                     ev.p.astype(np.int8))
    assert narrow.events.x.dtype == dtype
    _assert_same_encodings(narrow, s, EncodeConfig(t_bins=40, h_bins=33, w_bins=51))


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
