import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evholo import (
    EventColumns,
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
    EvholoError,
    ParseError,
    TooLarge,
    TruncatedRecord,
)
from evholo.events import (
    _CSV_CHUNK,
    _HEVS_RECORD_DTYPE,
    HEVS_HEADER,
    HEVS_RECORD,
    _csv_body_columns,
    _parse_csv_lines,
)


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


@pytest.mark.parametrize("blank", ["", "-", "+", " ", "\t"])
@pytest.mark.parametrize("field", range(4))
def test_csv_field_without_a_digit_is_non_numeric(field, blank):
    # such a field used to read as 0: "1,,3,1" gave y = 0, "1,2,3," p = -1
    row = ["1", "2", "3", "1"]
    row[field] = blank
    data = _csv(["# geometry 4x4", "x,y,t,p", "0,0,0,1", ",".join(row)])
    with pytest.raises(MalformedLine, match="non-numeric field") as exc:
        parse_events_csv(data)
    assert exc.value.line_no == 4
    assert_same_as_line_walk(data)


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


def test_csv_field_past_the_digit_limit():
    """Python's `int` refuses more than 4300 digits; leading zeros never
    change a field's value, so they alone never make it malformed."""
    def t_of(field):
        return parse_events_csv(_csv(["# geometry 4x4", "x,y,t,p", "0,0,0,1",
                                      f"1,1,{field},1"])).events.t.tolist()

    assert t_of("0" * 4200 + "5") == t_of("0" * 4400 + "5") == [0, 5]
    assert t_of(" -" + "0" * 4400 + "5 ") == [0, 5]  # -5 sorts first
    assert t_of("0" * 4400 + "9223372036854775807")[1] == 2 ** 63 - 1
    for field, reason in (("0" * 4400 + "9223372036854775808", "int64"),
                          ("0" * 4400 + "1" * 20, "int64"),
                          ("1" * 4400, "int64"),
                          ("0" * 4400 + "5x", "non-numeric"),
                          ("--" + "0" * 4400, "non-numeric")):
        with pytest.raises(MalformedLine, match=reason) as exc:
            t_of(field)
        assert exc.value.line_no == 4


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


def assert_same_as_line_walk(data, geometry=None):
    """`parse_events_csv` gives what the line walk alone gives: the same
    geometry and x, y, t, p values and dtypes, or the same error."""
    try:
        want = _parse_csv_lines(data, geometry)
    except EvholoError as e:
        with pytest.raises(EvholoError) as got:
            parse_events_csv(data, geometry)
        assert (type(got.value), str(got.value)) == (type(e), str(e))
        return
    got = parse_events_csv(data, geometry)
    assert got.geometry == want.geometry
    for f in ("x", "y", "t", "p"):
        a, b = got.events[f], want.events[f]
        assert a.dtype == b.dtype and np.array_equal(a, b), f


_HEAD = "# geometry 16x12\nx,y,t,p\n"
# rows of 8 bytes: the chunk's last row is the one that ends on its last byte
_BOUNDARY_ROWS = ["1,2,3,1"] * (_CSV_CHUNK // 8 + 5)
_BOUNDARY_ROWS[_CSV_CHUNK // 8 - 1] = "1,2,3,2"
# line boundaries to str.splitlines, not to the CSV format
_NON_LF_BREAKS = "\x0b\x1c\u2028"


@pytest.mark.parametrize("text", [
    pytest.param(_HEAD + " 5,1,2,1\n", id="leading-space"),
    pytest.param(_HEAD + "+5,1,2,1\n", id="plus"),
    pytest.param(_HEAD + "1_0,1,2,1\n", id="underscore"),
    pytest.param(_HEAD + "\u0663,1,2,1\n", id="arabic-indic-digit"),
    pytest.param(_HEAD + "-0,1,2,1\n", id="minus-zero"),
    pytest.param(_HEAD + "--1,1,2,1\n", id="double-minus"),
    pytest.param(_HEAD + "-,1,2,1\n", id="bare-minus"),
    pytest.param(_HEAD + "1-2,1,2,1\n", id="inner-minus"),
    pytest.param(_HEAD + "1,1,2,00\n", id="polarity-00"),
    pytest.param(_HEAD + "1,2\n3,1\n", id="two-fields-per-row"),
    pytest.param(_HEAD + "10,20,30\n" * 4, id="three-fields-per-row"),
    pytest.param(_HEAD + " " * _CSV_CHUNK + "1,1,2,1\n", id="row-longer-than-a-chunk"),
    pytest.param(_HEAD.replace("\n", "\r\n") + "1,1,2,1\r\n3,3,4,0\r\n", id="crlf"),
    pytest.param("# geometry 16x12\n# a\x0bb\nx,y,t,p\n1,1,2,1\n", id="vt-in-preamble"),
    pytest.param("# geometry 16x12\n# \u2028 \x85\nx,y,t,p\n1,1,2,1\n", id="unicode-breaks-in-preamble"),
    pytest.param(_HEAD + "1,1,1234567890123456789,1\n", id="19-digit-t"),
    pytest.param(_HEAD + "1,1,2,1\n# geometry 20x20\n3,3,4,-1\n", id="body-geometry"),
    pytest.param(_HEAD + "1,1,2,1\n\n3,3,4,-1\n", id="body-blank-line"),
    pytest.param(_HEAD + "1,1,2,1\n3,3,4,-1", id="no-final-newline"),
    *(pytest.param(_HEAD + f"# note{c}1,1,5,1\n3,3,4,1\n", id=f"break-{ord(c):x}-in-comment")
      for c in _NON_LF_BREAKS),
    pytest.param(_HEAD + "\n".join(_BOUNDARY_ROWS) + "\n", id="p2-ends-chunk"),
])
def test_csv_edge_cases_match_the_line_walk(text):
    assert_same_as_line_walk(text.encode())
    assert_same_as_line_walk(text.encode(), geometry=(5, 7))


_MUTATED_BODY = b"12,-3,456,1\n7,0,-89,0\n-1,22,333,-1\n"


@pytest.mark.parametrize("pos", range(len(_MUTATED_BODY)))
def test_csv_single_byte_mutations_match_the_line_walk(pos):
    """Every byte 0-255 at every position of a three-row body: a byte below
    ',' counts as a field end in the bulk path, so every stray one (a space,
    tab, CR, '+' or '*') must still fail its separator check there."""
    for value in range(256):
        body = bytearray(_MUTATED_BODY)
        body[pos] = value
        assert_same_as_line_walk(_HEAD.encode() + bytes(body))


def test_csv_only_lf_ends_a_line():
    for c in _NON_LF_BREAKS:
        s = parse_events_csv((_HEAD + f"# note{c}1,1,5,1\n3,3,4,1\n").encode())
        assert [tuple(e) for e in s] == [(3, 3, 0, 1)], repr(c)


def test_csv_rows_parse_in_bulk():
    data = _csv(["# geometry 16x12", "x,y,t,p", "3,-4,-17,0",
                 "0,11,999999999999999999,1", "15,0,-999999999999999999,-1"])
    cols = _csv_body_columns(data, data.index(b"x,y,t,p") + 8)
    assert cols.tolist() == [[3, 0, 15], [-4, 11, 0],
                             [-17, 10 ** 18 - 1, 1 - 10 ** 18], [-1, 1, -1]]
    # several chunks of rows, every field width from 1 to 18 digits
    rng = np.random.default_rng(9)
    n = 60_000
    vals = rng.integers(-10 ** 18 + 1, 10 ** 18, (3, n)) // 10 ** rng.integers(0, 18, (3, n))
    rows = [f"{x},{y},{t},{p}" for x, y, t, p in
            zip(*vals.tolist(), rng.choice([-1, 0, 1], n).tolist())]
    data = _csv(["# geometry 16x12", "x,y,t,p", *rows])
    assert len(data) > 3 * _CSV_CHUNK
    assert _csv_body_columns(data, data.index(b"x,y,t,p") + 8) is not None
    assert_same_as_line_walk(data)


def test_csv_digit_layers_sum_in_int64(monkeypatch):
    # Python-int powers of ten promote weakly, as every scalar did under
    # NumPy 1.x, where a uint8 digit times 10**j kept a narrow type and wrapped
    monkeypatch.setattr("evholo.events._POW10", [10 ** j for j in range(18)])
    data = _csv(["# geometry 16x12", "x,y,t,p", "399,-7,999999999999999999,0",
                 "12345678901,0,-123456789012345678,1"])
    cols = _csv_body_columns(data, data.index(b"x,y,t,p") + 8)
    assert cols.tolist() == [[399, 12345678901], [-7, 0],
                             [10 ** 18 - 1, -123456789012345678], [-1, 1]]


def test_csv_blank_lines_do_not_size_the_columns():
    # newlines that cannot all be rows must not size the bulk columns
    # (32 bytes each): this input peaked at 35 MB, the line walk alone at 9.5
    data = _csv(["# geometry 4x4", "x,y,t,p", "1,1,2,1"]) + b"\n" * 1_000_000
    tracemalloc.start()
    try:
        assert len(parse_events_csv(data)) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16_000_000


def _shuffled_csv(n, seed):
    """n events shaped like the benchmark's CSV ingest: t sorted over 10 s
    on a 346x260 sensor, a few x out of bounds, then each row moved at most
    64 places."""
    rng = np.random.default_rng(seed)
    cols = np.stack([rng.integers(0, 350, n), rng.integers(0, 260, n),
                     np.sort(rng.integers(0, 10_000_000, n)), rng.choice([-1, 1], n)], axis=1)
    order = np.argsort(np.arange(n) + rng.uniform(-32.0, 32.0, n), kind="stable")
    return _csv(["# geometry 346x260", "x,y,t,p", *(f"{x},{y},{t},{p}" for x, y, t, p in
                                                  cols[order].tolist())])


def test_csv_parse_peak_of_a_shuffled_100k():
    """The stable argsort's int64 permutation and its gathered int64 t
    peaked at 7.20 MB; the packed key sort, whose key also becomes the
    uint32 t and the gather index of x, y and p, measures 6.80 MB."""
    data = _shuffled_csv(100_000, 17)
    parse_events_csv(data)
    tracemalloc.start()
    try:
        s = parse_events_csv(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(s) == 100_000 and s.events.t.dtype == np.uint32
    assert peak < 7_075_000


_KEPT = ("i1", "i2", "i4", "i8", "u1", "u2", "u4")
_LENGTHS = (0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129)
_SPANS = {"span 2**32 - 1": lambda bits: 2 ** 32 - 1, "span 2**32": lambda bits: 2 ** 32,
          "packing edge - 1": lambda bits: 2 ** (63 - bits) - 1,
          "packing edge": lambda bits: 2 ** (63 - bits)}


@st.composite
def t_columns(draw):
    """A t column of a kept dtype and a length about a power of two: values
    over the whole dtype (its extremes too, so int64 spans past int64), ties, a minimum
    of 0, or int64 spans about 2**32 and about the packing limit
    2**(63 - bits), where the sort falls back to the stable argsort."""
    kind = draw(st.sampled_from(["whole dtype", "ties", "from 0", *_SPANS]))
    dtype = np.dtype("i8" if kind in _SPANS else draw(st.sampled_from(_KEPT)))
    n = draw(st.sampled_from(_LENGTHS))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lo, hi = int(np.iinfo(dtype).min), int(np.iinfo(dtype).max)
    if kind == "whole dtype":
        t = rng.integers(lo, hi, n, dtype=dtype, endpoint=True)
        if draw(st.booleans()):  # both extremes: an int64 t then spans past int64
            t[:2] = [hi, lo][:n]
        return rng.permutation(t)
    if kind == "ties":
        base = draw(st.integers(lo, hi - 3))
        return rng.integers(base, base + 3, n, dtype=dtype, endpoint=True)
    if kind == "from 0":
        t = rng.integers(0, min(hi, 1000), n, dtype=dtype, endpoint=True)
        t[:1] = 0
        return rng.permutation(t)
    span = min(_SPANS[kind]((n - 1).bit_length()), 2 ** 62)  # 2**63 at n = 1
    t0 = draw(st.integers(-(2 ** 62), 2 ** 62 - 1))
    t = t0 + rng.integers(0, span, n, endpoint=True)
    t[:2] = [t0 + span, t0][:n]  # both ends, the maximum first
    return rng.permutation(t)


def _normalized_by_argsort(ev):
    """x, y, t, p after a stable argsort of t, t then shifted by the rule of
    `normalized`: kept when its minimum is 0, else uint32 below a 2**32 span
    and int64 from there on, exact; `TooLarge` past int64."""
    order = np.argsort(ev.t, kind="stable")
    t = ev.t[order]
    if len(t) and t[0] != 0:
        t0, span = int(t[0]), int(t[-1]) - int(t[0])
        if span > 2 ** 63 - 1:
            raise TooLarge(f"timestamps span {span} us, beyond int64")
        t = np.array([v - t0 for v in t.tolist()], np.uint32 if span < 2 ** 32 else np.int64)
    return ev.x[order], ev.y[order], t, ev.p[order]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(t_columns())
def test_normalized_equals_the_stable_argsort(t):
    n = len(t)
    cols = (np.arange(n) * 7 - 5, np.arange(n, dtype=np.uint16)[::-1], t,
            np.where(np.arange(n) % 3, 1, -1).astype(np.int8))
    before = [c.copy() for c in cols]
    raw = EventStream.from_arrays((8, 8), *cols)
    try:
        want = _normalized_by_argsort(raw.events)
    except TooLarge as e:
        with pytest.raises(TooLarge, match=str(e)):
            raw.normalized()
    else:
        got = raw.normalized().events
        for f, w in zip("xytp", want):
            g = getattr(got, f)
            assert g.dtype == w.dtype and np.array_equal(g, w), f
    for c, b in zip(cols, before):
        assert c.dtype == b.dtype and np.array_equal(c, b)


def test_normalized_rejects_a_timestamp_span_beyond_int64():
    data = _csv(["# geometry 4x4", "x,y,t,p",
                 "0,0,-9223372036854775808,1", "0,0,9223372036854775807,1"])
    with pytest.raises(TooLarge):
        parse_events_csv(data)  # t used to wrap to [0, -1], duration 1
    # the widest span that fits shifts exactly
    s = EventStream.from_arrays((4, 4), [0, 0], [0, 0], [-1, 2 ** 63 - 2], [1, 1])
    assert s.normalized().events.t.tolist() == [0, 2 ** 63 - 1]


@pytest.mark.parametrize("order", [slice(None), [2, 0, 1]])
def test_normalized_t_is_uint32_below_a_2_32_span(order):
    """t - t_min is uint32 for a span up to 2**32 - 1 us and int64 from
    2**32 on, for sorted and unsorted input, and equals the int64 shift."""
    for span, dtype in ((2 ** 32 - 1, np.uint32), (2 ** 32, np.int64)):
        for t0 in (3, -(2 ** 40)):
            t = np.array([t0, t0 + span // 3, t0 + span])[order]
            s = EventStream.from_arrays((4, 4), [0, 1, 2], [0, 0, 0], t, [1, -1, 1])
            got = s.normalized().events.t
            assert got.dtype == dtype, (span, t0)
            assert got.tolist() == sorted(v - t0 for v in t.tolist())


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16, np.int8])
def test_normalized_narrow_t_columns_shift_like_int64(dtype):
    """The shift is computed in int64 for every kept column dtype: in its
    own dtype an int8 t spanning its range wraps, and the wrapped difference
    cast to uint32 is wrong."""
    info = np.iinfo(dtype)
    lo, hi = max(info.min, -(2 ** 31)) + 1, min(info.max, 2 ** 31 - 1)
    t = np.array([hi, lo, 1, lo + 1, hi - 1], dtype=dtype)
    for cols in (np.sort(t), t):  # sorted, then unsorted
        s = EventStream.from_arrays((4, 4), [0] * 5, [0] * 5, cols, [1] * 5)
        got = s.normalized().events.t
        want = np.sort(cols.astype(np.int64))
        assert got.dtype == np.uint32
        assert got.tolist() == (want - want[0]).tolist()


def test_normalized_keeps_a_t_that_starts_at_zero():
    t = np.array([0, 4, 4, 9], dtype=np.int32)
    s = EventStream.from_arrays((4, 4), [0, 1, 2, 3], [0] * 4, t, [1] * 4)
    assert s.normalized().events.t is t
    # a parsed stream keeps t as the int64 view of its records
    data = write_events_binary(s)
    got = parse_events_binary(data).events.t
    assert got.dtype == np.int64 and got.tolist() == t.tolist()
    assert np.shares_memory(got, np.frombuffer(data, np.uint8))


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


def test_event_stream_takes_only_event_columns():
    s = EventStream.from_arrays((4, 4), [1], [2], [3], [1])
    rec = np.zeros(1, dtype=[(f, np.int64) for f in "xytp"])
    for events in (rec, {f: s.events[f] for f in "xytp"}):
        with pytest.raises(TypeError, match="EventColumns"):
            EventStream((4, 4), events)


def test_event_stream_geometry_sides_are_integers():
    for geometry in ((2.5, 4), (4, 2.5), (np.inf, 4), (0, 4), ("4", 4), (np.float64(4), 4)):
        with pytest.raises(ValueError, match="integers >= 1"):
            EventStream.from_arrays(geometry, [2], [1], [0], [1])
    s = EventStream.from_arrays((np.int64(4), np.uint16(3)), [2], [1], [0], [1])
    assert s.geometry == (4, 3) and all(type(side) is int for side in s.geometry)
    assert validate_stream(s).clean


def test_hevs_header_bytes():
    blob = write_events_binary(EventStream.from_arrays((346, 260), [1], [2], [3], [-1]))
    assert blob[:HEVS_HEADER] == (b"HEVS\x01\x00\x00\x00" + (346).to_bytes(2, "little")
                                  + (260).to_bytes(2, "little") + (1).to_bytes(8, "little"))
    assert HEVS_HEADER == 20


def test_hevs_header_errors_in_order():
    head = write_events_binary(EventStream.empty((8, 8)))
    bad_version_zero_side = head[:4] + b"\x02" + head[5:8] + bytes(2) + head[10:]
    # magic first, then length, then version, then the zero side
    with pytest.raises(BadMagic, match="magic"):
        parse_events_binary(b"NOPE" + bad_version_zero_side[4:12])
    with pytest.raises(TruncatedRecord):
        parse_events_binary(bad_version_zero_side[:12])
    with pytest.raises(BadMagic, match="version 2"):
        parse_events_binary(bad_version_zero_side)
    with pytest.raises(ParseError, match="zero side"):
        parse_events_binary(head[:8] + bytes(2) + head[10:])


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
    assert exc.value.value == 5


@pytest.mark.parametrize("bad", [(3, -2), (4, 2), (0, -128), (47, 127)])
def test_hevs_bad_polarity_names_the_first_bad_record(bad):
    """Later bad records, either side of {-1, 0, 1}, do not move the
    reported offset or value off the first one."""
    first, value = bad
    blob = bytearray(_hevs_blob())
    for i, v in ((first, value), (49, -3), (48, 9)):
        if i >= first:
            blob[HEVS_HEADER + i * HEVS_RECORD + 12] = v & 0xFF
    with pytest.raises(BadPolarity) as exc:
        parse_events_binary(bytes(blob))
    assert (exc.value.offset, exc.value.value) == (HEVS_HEADER + first * HEVS_RECORD + 12, value)


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


def test_hevs_bad_polarity_anywhere_beats_a_bad_timestamp():
    """Across 20k records, more than one step of the parse: a bad polarity
    late in the blob wins over a bad timestamp early in it, and of two bad
    timestamps the first is named."""
    blob = bytearray(_hevs_blob(n=20_000))

    def t_off(i):
        return HEVS_HEADER + i * HEVS_RECORD + 4

    for i in (3, 15_000):
        blob[t_off(i):t_off(i) + 8] = (2 ** 64 - 1 - i).to_bytes(8, "little")
    with pytest.raises(BadTimestamp) as exc:
        parse_events_binary(bytes(blob))
    assert (exc.value.offset, exc.value.value) == (t_off(3), 2 ** 64 - 4)
    blob[t_off(19_000) + 8] = 2  # the p byte after record 19000's t
    with pytest.raises(BadPolarity) as exc:
        parse_events_binary(bytes(blob))
    assert (exc.value.offset, exc.value.value) == (t_off(19_000) + 8, 2)


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


def _hevs_blob(n=50, seed=3):
    rng = np.random.default_rng(seed)
    return write_events_binary(EventStream.from_arrays(
        (300, 200), rng.integers(0, 300, n), rng.integers(0, 200, n),
        np.sort(rng.integers(5, 10_000, n)), rng.choice([-1, 1], n)))


def test_hevs_columns_are_read_only_views_of_bytes():
    data = _hevs_blob()
    ev = parse_events_binary(data).events
    # not copied: a change that brings the copy back fails here
    for f in ("x", "y", "p"):
        assert np.shares_memory(ev[f], np.frombuffer(data, np.uint8)), f
        assert not ev[f].flags.writeable, f
    # t spans less than 2**32 us, so its shifted copy is uint32
    assert (ev.x.dtype, ev.y.dtype, ev.t.dtype, ev.p.dtype) == (
        np.uint16, np.uint16, np.uint32, np.int8)
    # t starts at 5, so normalizing made the one shifted copy
    assert not np.shares_memory(ev.t, np.frombuffer(data, np.uint8))


def test_hevs_mutable_buffers_are_copied_once():
    data = _hevs_blob()
    want = parse_events_binary(data)
    for make in (bytearray, lambda b: memoryview(bytearray(b))):
        buf = make(data)
        got = parse_events_binary(buf)
        assert not np.shares_memory(got.events.x, np.frombuffer(buf, np.uint8))
        buf[HEVS_HEADER:] = bytes(len(buf) - HEVS_HEADER)
        assert got == want


def test_first_reads_of_a_deferred_t_race_to_the_same_column():
    """Four threads read t of one freshly parsed stream at once: each gets
    the eager shift, whichever of them makes the column; then none is pending."""
    data = _hevs_blob(n=1 << 17)
    t = np.frombuffer(data, _HEVS_RECORD_DTYPE, offset=HEVS_HEADER)["t"].astype(np.int64)
    zeros = np.zeros_like(t)
    want = EventStream.from_arrays((300, 200), zeros, zeros, t, zeros + 1).normalized().events.t
    assert want.dtype == np.uint32
    for _ in range(50):
        ev = parse_events_binary(data).events
        assert ev._t[1] == 5
        barrier, got = threading.Barrier(4), []

        def read():
            barrier.wait()
            got.append(ev.t)

        threads = [threading.Thread(target=read) for _ in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert len(got) == 4 and ev._t[1] == 0
        assert all(g.dtype == np.uint32 and np.array_equal(g, want) for g in got)


def test_hevs_zero_polarity_remap_never_writes_into_the_input():
    blob = bytearray(_hevs_blob())
    for i in (0, 7, 49):
        blob[HEVS_HEADER + i * HEVS_RECORD + 12] = 0
    data = bytes(blob)
    ev = parse_events_binary(data).events
    assert ev.p.dtype == np.int8 and ev.p[[0, 7, 49]].tolist() == [-1, -1, -1]
    assert not np.shares_memory(ev.p, np.frombuffer(data, np.uint8))
    assert data == bytes(blob)
    assert all(data[HEVS_HEADER + i * HEVS_RECORD + 12] == 0 for i in (0, 7, 49))


def test_event_columns_keep_narrow_integer_dtypes_only():
    kept = ("i1", "i2", "i4", "i8", "u1", "u2", "u4")
    for dt in kept:
        a = np.arange(3, dtype=dt)
        assert EventColumns(a, a, a, a).x is a, dt
    for a in (np.arange(3, dtype=np.uint64), np.arange(3, dtype=">i4"),
              np.arange(3.0), [0, 1, 2], np.arange(3) > 0):
        c = EventColumns(a, a, a, a).x
        assert c.dtype == np.int64 and c.flags.c_contiguous


def test_validate_narrow_columns_count_every_defect():
    """np.diff on an int8 column wraps 101 -> -100 into +55; the ordering
    check must not."""
    cols = [np.array(v, dtype=np.int8) for v in
            ([0, 1, -1, 2, 3], [0] * 5, [5, 100, 101, -100, -99], [1, 1, 1, 1, 0])]
    rep = validate_stream(EventStream.from_arrays((4, 4), *cols))
    assert (rep.out_of_bounds, rep.non_monotonic, rep.bad_polarity) == (1, 1, 1)
    wide = EventStream.from_arrays((4, 4), *(c.astype(np.int64) for c in cols))
    assert validate_stream(wide) == rep


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
                         ("geometry", (2.5, 4)), ("geometry", (4, 2.5)),
                         ("geometry", (np.inf, 4)), ("geometry", (0, 4)),
                         ("duration_s", 1e300)):  # peak_rate * duration_s beyond 2**62
        with pytest.raises(SpecInvalid):
            PeriodicGenSpec(**{**good, field: value})
    spec = PeriodicGenSpec(**{**good, "geometry": (np.int64(4), np.uint16(4))})
    assert generate_periodic_stream(spec).geometry == (4, 4)


def test_generator_spec_keeps_timestamps_and_phases_finite():
    """A phase 2*pi*f0*t past float64 made sin warn "invalid value", and a t
    past int64 us made the cast to int64 warn (`evholo gen --f0 1e308` and
    `--duration 1e300 --rate-peak 1e-299`); both are now `SpecInvalid`."""
    good = dict(f0=1.0, duration_s=0.5, base_rate=0.0, peak_rate=100.0,
                geometry=(8, 8), motion_amplitude=1.0, seed=0)
    for field, value in (("f0", 1e308), ("f0", 2.25e307), ("duration_s", 1e300),
                         ("duration_s", 2.0 ** 62 / 1e6 * 1.0001)):
        with pytest.raises(SpecInvalid):
            PeriodicGenSpec(**{**good, field: value, "peak_rate": 1e-299})
    for spec in ({**good, "f0": 2.2e307}, {**good, "f0": 1e300, "duration_s": 1000.0},
                 {**good, "duration_s": 2.0 ** 62 / 1e6, "peak_rate": 1e-12}):
        s = generate_periodic_stream(PeriodicGenSpec(**spec))
        assert validate_stream(s).clean and s.duration < 2 ** 62


def test_generator_sides_stop_where_float64_stops_holding_every_pixel():
    """Positions are clipped to the sensor in float64 and cast to int64: past
    2**53 the clip bound rounds (W = 2**60 + 200 put an event at x = W + 56),
    and near 2**63 the cast overflowed."""
    spec = dict(f0=1.0, duration_s=0.01, base_rate=100.0, peak_rate=200.0,
                motion_amplitude=1e300, seed=0)
    for geometry in ((2 ** 70, 8), (8, 2 ** 53 + 1), (2 ** 60 + 200, 8),
                     (2 ** 63 - 1, 2 ** 63 - 1)):
        with pytest.raises(SpecInvalid):
            PeriodicGenSpec(**spec, geometry=geometry)
    side = 2 ** 53
    s = generate_periodic_stream(PeriodicGenSpec(**spec, geometry=(side, side)))
    assert len(s) > 0 and validate_stream(s).clean
    # the amplitude pins each event to an edge, here the last pixel among them
    assert set(s.events["x"].tolist()) <= {0, side - 1} and s.events["x"].max() == side - 1


def test_parse_then_validate_reports_zero_defects():
    spec = PeriodicGenSpec(f0=2.5, duration_s=1.0, base_rate=500.0,
                           peak_rate=2000.0, geometry=(32, 32),
                           motion_amplitude=4.0, seed=9)
    s = generate_periodic_stream(spec)
    for blob, parse in ((write_events_binary(s), parse_events_binary),
                        (write_events_csv(s), parse_events_csv)):
        assert validate_stream(parse(blob)).clean
