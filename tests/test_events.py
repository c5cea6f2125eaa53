import numpy as np
import pytest

from evholo import (
    EventStream,
    PeriodicGenSpec,
    SpecInvalid,
    generate_periodic_stream,
    parse_events_binary,
    parse_events_csv,
    validate_stream,
    write_events_binary,
    write_events_csv,
)
from evholo.errors import (
    BadMagic,
    BadPolarity,
    BadTimestamp,
    EmptyInput,
    GeometryMissing,
    MalformedLine,
    ParseError,
    TruncatedRecord,
)
from evholo.events import HEVS_HEADER, HEVS_RECORD


def _csv(lines):
    return ("\n".join(lines) + "\n").encode()


def test_csv_single_event_normalizes_to_t0():
    s = parse_events_csv(_csv(["x,y,t,p", "3,5,1000,1"]), geometry=(346, 260))
    assert len(s) == 1
    assert s[0] == (3, 5, 0, 1)
    assert s.geometry == (346, 260)


def test_csv_sorts_then_shifts():
    s = parse_events_csv(
        _csv(["# geometry 10x10", "x,y,t,p", "1,1,2000,1", "2,2,1000,-1"])
    )
    assert [e.t for e in s] == [0, 1000]
    assert s[0].x == 2  # the t=1000 event comes first after sorting


def test_csv_stable_sort_preserves_tie_order():
    s = parse_events_csv(
        _csv(["# geometry 10x10", "x,y,t,p", "1,0,50,1", "2,0,50,1", "3,0,40,1"])
    )
    assert [(e.x, e.t) for e in s] == [(3, 0), (1, 10), (2, 10)]
    # an unsorted HEVS file with tied timestamps takes the same stable sort
    raw = EventStream.from_arrays((10, 10), [1, 2, 3, 4, 5, 6], [0] * 6,
                                  [50, 50, 40, 50, 40, 60], [1] * 6)
    s = parse_events_binary(write_events_binary(raw))
    assert [(e.x, e.t) for e in s] == [(3, 0), (5, 0), (1, 10), (2, 10),
                                       (4, 10), (6, 20)]


def test_csv_zero_polarity_maps_to_negative():
    s = parse_events_csv(_csv(["# geometry 4x4", "x,y,t,p", "0,0,0,0"]))
    assert s[0].p == -1


def test_csv_bad_polarity_is_malformed_line_with_number():
    with pytest.raises(MalformedLine) as exc:
        parse_events_csv(_csv(["x,y,t,p", "3,5,1000,7"]), geometry=(346, 260))
    assert exc.value.line_no == 2


def test_csv_non_numeric_field():
    with pytest.raises(MalformedLine) as exc:
        parse_events_csv(_csv(["# geometry 4x4", "x,y,t,p", "a,0,0,1"]))
    assert exc.value.line_no == 3


def test_csv_field_outside_int64_is_malformed_line_with_number():
    lines = ["# geometry 4x4", "", "x,y,t,p", "0,0,5,1", "# note", "1,1,9223372036854775813,1"]
    with pytest.raises(MalformedLine) as exc:
        parse_events_csv(_csv(lines))
    assert exc.value.line_no == 6
    with pytest.raises(MalformedLine) as exc:
        parse_events_csv(_csv(["x,y,t,p", "-9223372036854775809,0,0,1"]), geometry=(4, 4))
    assert exc.value.line_no == 2
    # the int64 extremes themselves still parse
    lines[-1] = "1,1,9223372036854775807,1"
    assert parse_events_csv(_csv(lines))[1].t == 2 ** 63 - 6


def test_csv_first_defective_line_wins():
    # a field outside int64 on line 3 comes before the bad polarity on line 5
    lines = ["# geometry 4x4", "x,y,t,p", "0,0,9223372036854775808,1", "1,1,1,1", "2,2,2,7"]
    with pytest.raises(MalformedLine) as exc:
        parse_events_csv(_csv(lines))
    assert exc.value.line_no == 3
    assert "int64" in str(exc.value)


def test_csv_zero_geometry_side_is_malformed_line():
    for geometry in ("0x5", "5x0"):
        with pytest.raises(MalformedLine) as exc:
            parse_events_csv(_csv(["x,y,t,p", "0,0,0,1", f"# geometry {geometry}"]))
        assert exc.value.line_no == 3


def test_csv_wrong_field_count():
    with pytest.raises(MalformedLine):
        parse_events_csv(_csv(["x,y,t,p", "1,2,3"]), geometry=(4, 4))


def test_csv_missing_header():
    with pytest.raises(MalformedLine) as exc:
        parse_events_csv(_csv(["1,2,3,1"]), geometry=(4, 4))
    assert exc.value.line_no == 1


def test_csv_empty_input():
    with pytest.raises(EmptyInput):
        parse_events_csv(_csv(["x,y,t,p"]), geometry=(4, 4))


def test_csv_geometry_missing():
    with pytest.raises(GeometryMissing):
        parse_events_csv(_csv(["x,y,t,p", "1,1,1,1"]))


def test_csv_explicit_geometry_wins_over_comment():
    s = parse_events_csv(
        _csv(["# geometry 10x10", "x,y,t,p", "1,1,1,1"]), geometry=(20, 30)
    )
    assert s.geometry == (20, 30)


def test_csv_round_trip():
    src = parse_events_csv(
        _csv(["# geometry 12x9", "x,y,t,p", "1,2,30,1", "4,5,10,-1", "6,7,20,1"])
    )
    again = parse_events_csv(write_events_csv(src))
    assert again == src


def test_hevs_round_trip_field_identical():
    rng = np.random.default_rng(5)
    n = 500
    s = EventStream.from_arrays(
        (346, 260),
        rng.integers(0, 346, n),
        rng.integers(0, 260, n),
        np.sort(rng.integers(0, 10_000, n)),
        rng.choice([-1, 1], n),
    ).normalized()
    parsed = parse_events_binary(write_events_binary(s))
    assert parsed == s
    # bit-exact on the wire too
    assert write_events_binary(parsed) == write_events_binary(s)
    # a column-wise selection is a stream of its own and round-trips too
    mask = s.events["p"] == 1
    kept = EventStream(s.geometry, s.events[mask])
    assert len(kept) == mask.sum()
    assert kept[0] == s[int(np.argmax(mask))]
    assert parse_events_binary(write_events_binary(kept)) == kept.normalized()


def test_normalized_shifts_without_mutating_input():
    sorted_raw = EventStream.from_arrays((8, 8), [1, 2, 3], [0, 0, 0],
                                         [5, 7, 7], [1, -1, 1])
    unsorted_raw = EventStream.from_arrays((8, 8), [1, 2, 3], [0, 0, 0],
                                           [7, 5, 7], [1, -1, 1])
    for raw, want in ((sorted_raw, [(1, 0), (2, 2), (3, 2)]),
                      (unsorted_raw, [(2, 0), (1, 2), (3, 2)])):
        before = [tuple(e) for e in raw]
        n = raw.normalized()
        assert [(e.x, e.t) for e in n] == want
        assert [tuple(e) for e in raw] == before


def test_hevs_header_only_is_empty_stream():
    blob = write_events_binary(EventStream.empty((64, 48)))
    assert len(blob) == HEVS_HEADER
    s = parse_events_binary(blob)
    assert len(s) == 0 and s.duration == 0
    assert s.geometry == (64, 48)


def test_hevs_truncated_tail():
    s = EventStream.from_arrays((8, 8), [1, 2], [3, 4], [0, 10], [1, -1])
    blob = write_events_binary(s)
    with pytest.raises(TruncatedRecord) as exc:
        parse_events_binary(blob[:HEVS_HEADER + HEVS_RECORD + 4])
    # offset points at the start of the first incomplete record
    assert exc.value.offset == HEVS_HEADER + HEVS_RECORD


def test_hevs_bad_magic():
    with pytest.raises(BadMagic):
        parse_events_binary(b"NOPE" + bytes(20))


def test_hevs_bad_polarity_offset():
    s = EventStream.from_arrays((8, 8), [1, 2], [3, 4], [0, 10], [1, 1])
    blob = bytearray(write_events_binary(s))
    blob[HEVS_HEADER + HEVS_RECORD + 12] = 5  # corrupt second record's p byte
    with pytest.raises(BadPolarity) as exc:
        parse_events_binary(bytes(blob))
    assert exc.value.offset == HEVS_HEADER + HEVS_RECORD + 12


def test_hevs_timestamp_beyond_int64_is_rejected():
    s = EventStream.from_arrays((8, 8), [1, 2, 3], [1, 1, 1], [0, 4, 9], [1, 1, 1])
    blob = bytearray(write_events_binary(s))
    off = HEVS_HEADER + 2 * HEVS_RECORD + 4  # third record's t field
    blob[off:off + 8] = (2 ** 63 + 5).to_bytes(8, "little")
    with pytest.raises(BadTimestamp) as exc:
        parse_events_binary(bytes(blob))
    assert isinstance(exc.value, ParseError)
    assert exc.value.offset == off
    assert exc.value.value == 2 ** 63 + 5
    assert str(off) in str(exc.value)
    # the largest int64 timestamp still parses
    blob[off:off + 8] = (2 ** 63 - 1).to_bytes(8, "little")
    assert parse_events_binary(bytes(blob))[2].t == 2 ** 63 - 1


def test_hevs_zero_geometry_side_is_parse_error():
    blob = write_events_binary(EventStream.from_arrays((8, 8), [1], [1], [0], [1]))
    for off in (8, 10):  # the W and H fields of the header
        zeroed = blob[:off] + bytes(2) + blob[off + 2:]
        with pytest.raises(ParseError, match="zero side"):
            parse_events_binary(zeroed)
        with pytest.raises(ParseError, match="zero side"):
            parse_events_binary(zeroed[:HEVS_HEADER - 8] + bytes(8))  # count 0


def test_hevs_write_rejects_geometry_beyond_u16():
    with pytest.raises(ValueError, match="u16"):
        write_events_binary(EventStream.empty((70000, 10)))
    with pytest.raises(ValueError, match="u16"):
        write_events_binary(EventStream.from_arrays((10, 1 << 16), [1], [1], [0], [1]))
    assert len(write_events_binary(EventStream.empty((65535, 65535)))) == HEVS_HEADER


def test_hevs_zero_polarity_maps_to_negative():
    s = EventStream.from_arrays((8, 8), [1], [1], [0], [1])
    blob = bytearray(write_events_binary(s))
    blob[HEVS_HEADER + 12] = 0
    assert parse_events_binary(bytes(blob))[0].p == -1


def test_validate_clean_stream():
    s = EventStream.from_arrays((10, 10), [1, 2], [3, 4], [0, 5], [1, -1])
    rep = validate_stream(s)
    assert (rep.total, rep.out_of_bounds, rep.non_monotonic, rep.bad_polarity) == (2, 0, 0, 0)
    assert rep.clean


def test_validate_boundary_x_is_out_of_bounds():
    s = EventStream.from_arrays((10, 10), [10], [0], [0], [1])
    assert validate_stream(s).out_of_bounds == 1


def test_validate_timestamp_regression():
    s = EventStream.from_arrays((10, 10), [0, 0], [0, 0], [5, 3], [1, 1])
    rep = validate_stream(s)
    assert rep.non_monotonic == 1 and rep.out_of_bounds == 0


def test_validate_buckets_are_exclusive():
    """One event that is simultaneously OOB, regressive, and bad-polarity
    counts only in the first bucket."""
    s = EventStream.from_arrays((10, 10), [0, 99], [0, 0], [5, 3], [1, 7])
    rep = validate_stream(s)
    assert rep.out_of_bounds == 1
    assert rep.non_monotonic == 0
    assert rep.bad_polarity == 0
    assert rep.valid == 1


def test_validate_bad_polarity_bucket():
    s = EventStream.from_arrays((10, 10), [0, 1], [0, 0], [0, 5], [1, 3])
    assert validate_stream(s).bad_polarity == 1


def test_generator_is_deterministic():
    spec = PeriodicGenSpec(f0=3.21, duration_s=10.0, base_rate=1000.0,
                           peak_rate=10000.0, geometry=(346, 260),
                           motion_amplitude=40.0, seed=42)
    a = generate_periodic_stream(spec)
    b = generate_periodic_stream(spec)
    assert a == b
    assert write_events_binary(a) == write_events_binary(b)


def test_generator_constant_rate_within_5_percent():
    spec = PeriodicGenSpec(f0=2.0, duration_s=10.0, base_rate=5000.0,
                           peak_rate=5000.0, geometry=(128, 128),
                           motion_amplitude=10.0, seed=3)
    s = generate_periodic_stream(spec)
    empirical = len(s) / spec.duration_s
    assert abs(empirical - 5000.0) / 5000.0 < 0.05


def test_generator_events_inside_geometry_sorted_t0():
    spec = PeriodicGenSpec(f0=1.32, duration_s=3.0, base_rate=100.0,
                           peak_rate=4000.0, geometry=(64, 48),
                           motion_amplitude=20.0, seed=11)
    s = generate_periodic_stream(spec)
    ev = s.events
    assert len(s) > 0
    assert ev["x"].min() >= 0 and ev["x"].max() < 64
    assert ev["y"].min() >= 0 and ev["y"].max() < 48
    assert ev["t"][0] == 0
    assert (np.diff(ev["t"]) >= 0).all()
    assert set(np.unique(ev["p"])) <= {-1, 1}
    assert validate_stream(s).clean


def test_generator_spec_invariants():
    good = dict(f0=1.0, duration_s=1.0, base_rate=0.0, peak_rate=10.0,
                geometry=(4, 4), motion_amplitude=1.0, seed=0)
    PeriodicGenSpec(**good)
    for field, value in (("f0", 0.0), ("duration_s", -1.0), ("base_rate", 20.0),
                         ("f0", np.inf), ("f0", np.nan), ("duration_s", np.inf),
                         ("duration_s", np.nan), ("base_rate", np.nan),
                         ("peak_rate", np.inf), ("peak_rate", np.nan),
                         ("motion_amplitude", np.inf), ("motion_amplitude", np.nan),
                         ("seed", -1),
                         ("duration_s", 1e300)):  # peak_rate * duration_s beyond 2**62
        with pytest.raises(SpecInvalid):
            PeriodicGenSpec(**{**good, field: value})


def test_parse_then_validate_reports_zero_defects():
    spec = PeriodicGenSpec(f0=2.5, duration_s=1.0, base_rate=500.0,
                           peak_rate=2000.0, geometry=(32, 32),
                           motion_amplitude=4.0, seed=9)
    s = generate_periodic_stream(spec)
    for blob, parse in ((write_events_binary(s), parse_events_binary),
                        (write_events_csv(s), parse_events_csv)):
        assert validate_stream(parse(blob)).clean
