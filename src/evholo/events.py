"""Event data model, file ingestion, validation, and synthetic stream generation.

An event is the asynchronous sensor record (x, y, t, p): pixel coordinates,
a timestamp in integer microseconds, and a brightness-change polarity in
{-1, +1}. Streams are normalized at ingestion: events sorted by timestamp,
ties in input order (one sort of packed (t, index) keys), and shifted so the
earliest timestamp is 0. A stream that is already sorted, as HEVS files
written by this package are, skips the sort.

In memory a stream stores its events column-wise (`EventColumns`): four
integer arrays x, y, t and p, one value per event. ``events["t"]`` is the
timestamp column and ``events[mask]`` selects events from all four columns
at once. The column dtypes follow the source, so that nothing is widened
before it has to be:

    HEVS        read-only views of the record fields in the input bytes,
                the idiom of `tensorio.read_tensor`: x and y uint16, t
                int64, p int8. p is copied (1 byte per event) only when a
                polarity 0 must become -1. A sorted t stays the int64
                view until it is first read, when it is shifted (see below)
    CSV         the HEVS dtypes where the values fit: x and y uint16 when
                every value is in 0..65535, else int64, which holds any
                negative or out-of-bounds coordinate that `validate_stream`
                must count; p int8, since the grammar leaves -1 and 1
    from_arrays the dtype of an ndarray of a kept integer dtype (see
                `EventColumns`), else an exact int64 copy or `SpecInvalid`

Normalizing shifts t so it starts at 0. The shifted copy is uint32 (4 bytes
per event) when t_max - t_min < 2**32 us, about 71.6 minutes, and int64
otherwise; a t starting at 0 is kept. A sorted HEVS t is shifted on the
first read of ``events.t``, never by the encoders, which bin against t_min.

Code that does arithmetic on a column widens it to int64 first: under
NumPy 2 (NEP 50) a uint16 column times a Python int stays uint16 and wraps,
and a uint32 t minus a larger value wraps the same way.

Two interchange formats are supported:

    CSV   header ``x,y,t,p``, optional ``# geometry WxH`` comment line,
          LF line endings, polarity -1/+1 (0/1 accepted, 0 mapped to -1),
          each field ASCII: an optional sign, digits, surrounding whitespace
    HEVS  binary: magic ``HEVS``, version u8=1, reserved u8*3, W u16 LE,
          H u16 LE, count u64 LE, then 13-byte records
          {x u16 LE, y u16 LE, t u64 LE, p i8}

Parsers are lossless: out-of-bounds coordinates are retained and only
flagged by `validate_stream`; encoders decide their own domain. An HEVS
timestamp of 2**63 or more does not fit the int64 column and is rejected
with `BadTimestamp`; a stream whose timestamps span more than int64 is
rejected with `TooLarge` when normalized. The HEVS pass checks polarity and
order in steps of 8192 records, t and p copied contiguous; a bad polarity
in any record beats a bad timestamp in an earlier one.

Arguments and columns from outside go through the intake checks of
`errors`; the checks here are the event model's own (geometry, order).
"""

from __future__ import annotations

__all__ = [
    "Event",
    "EventColumns",
    "EventStream",
    "PeriodicGenSpec",
    "ValidationReport",
    "generate_periodic_stream",
    "parse_events_binary",
    "parse_events_csv",
    "synthetic_uniform_stream",
    "validate_stream",
    "write_events_binary",
    "write_events_csv",
]

import io
import re
import struct
from array import array
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .errors import (
    _HUGE,
    _INT64_MAX,
    _TINY,
    BadMagic,
    BadPolarity,
    BadTimestamp,
    ConfigInvalid,
    EmptyInput,
    GeometryMissing,
    MalformedLine,
    ParseError,
    ShapeMismatch,
    SpecInvalid,
    TooLarge,
    TruncatedRecord,
    _bytes,
    _int64_column,
    _integer,
    _positive,
)

_FIELDS = ("x", "y", "t", "p")
# Column dtypes kept as given; any other input becomes int64. uint64 is left
# out: mixed with int64 it promotes to float64 and loses precision.
_KEPT_DTYPES = frozenset(map(np.dtype, ("i1", "i2", "i4", "i8", "u1", "u2", "u4")))

HEVS_MAGIC = b"HEVS"
_HEVS_HEAD = struct.Struct("<4sB3xHHQ")  # magic, version, reserved, W, H, count
HEVS_HEADER = _HEVS_HEAD.size
HEVS_RECORD = 13  # x2 + y2 + t8 + p1
_HEVS_RECORD_DTYPE = np.dtype(
    {
        "names": ["x", "y", "t", "p"],
        "formats": ["<u2", "<u2", "<u8", "i1"],
        "offsets": [0, 2, 4, 12],
        "itemsize": HEVS_RECORD,
    }
)

# the whitespace around a line or a field: ASCII's, which `bytes.strip` removes
_ASCII_SPACE = " \t\n\r\x0b\x0c"
# what `int` reads in an ASCII field but the CSV grammar does not: 1_0, and
# \x1c-\x1f, which `str` counts as whitespace
_INT_ONLY_RE = re.compile("[_\x1c-\x1f]")
_GEOMETRY_RE = re.compile(r"^#\s*geometry\s+(\d+)\s*x\s*(\d+)\s*$", re.ASCII)
_CSV_HEADER = "x,y,t,p"
# the header line, where the bulk CSV path starts
_CSV_HEADER_RE = re.compile(rb"^x,y,t,p\n", re.M)
_CSV_ROW_SEPS = np.frombuffer(b",,,\n", dtype=np.uint8)
_CSV_CHUNK = 1 << 17  # bytes of rows per bulk pass, cut at a newline
_POW10 = [np.int64(10) ** j for j in range(18)]
_HEVS_CHUNK = 1 << 13  # records per step of the HEVS pass; its int64 t is 64 KB
# field -> (min, max) that `parse_events_binary` accepts, in `_FIELDS` order
_HEVS_RANGES = {"x": (0, 0xFFFF), "y": (0, 0xFFFF), "t": (0, _INT64_MAX), "p": (-1, 1)}


def _ascending(v: np.ndarray) -> bool:
    """Whether v never decreases: one O(n) neighbour compare."""
    return bool(np.all(v[:-1] <= v[1:]))


def _geometry(geometry, error: type) -> tuple[int, int]:
    """A (W, H) pair of integers >= 1 as Python ints, else `error`."""
    try:
        w, h = geometry
        return _integer("W", w, error), _integer("H", h, error)
    except (TypeError, ValueError):  # not a pair, or `error` for a side
        raise error(f"geometry must be two integers >= 1, got {geometry!r}") from None


def _shifted(t: np.ndarray, t0: int, t_max: int) -> np.ndarray:
    """t - t0 (exact in int64) in a fresh column: uint32 when the whole
    column's t_max - t0 is below 2**32, else int64."""
    out = np.empty(len(t), dtype=np.uint32 if t_max - t0 < 1 << 32 else np.int64)
    return np.subtract(t, t0, out=out, dtype=np.int64, casting="unsafe")


class Event(NamedTuple):
    """A single sensor event."""

    x: int
    y: int
    t: int
    p: int


class EventColumns:
    """Four equal-length integer columns x, y, t, p.

    A column that is an ndarray of a native-order int8/16/32/64 or
    uint8/16/32 dtype is kept as given, strided or read-only views
    included; anything else becomes an exact contiguous int64 copy. Both
    parsers give x and y uint16 and p int8, as HEVS stores them, except that
    a CSV x or y with a value outside 0..65535 stays int64. A stream
    that `parse_events_binary` found sorted keeps its int64 t view and t[0]
    in `_t`, one (column, t0, sorted) triple whose mark tells `normalized`
    that t is known to be sorted; `t` shifts it on first read and caches the
    shifted column read-only, like the x, y and p views, so no write can undo
    the mark. A selection shifts only its own events, into the whole
    column's dtype.

    Indexed like a structured array with those fields: ``cols["x"]`` is a
    column, ``cols[i]`` with an integer is one `Event`, and any other index
    (slice, boolean mask, permutation) selects the same events from every
    column and returns new `EventColumns`.
    """

    __slots__ = ("x", "y", "_t", "p")

    def __init__(self, x, y, t, p):
        cols = [c if isinstance(c, np.ndarray) and c.dtype in _KEPT_DTYPES
                else _int64_column(f, c) for f, c in zip(_FIELDS, (x, y, t, p))]
        n = cols[0].size
        if any(c.shape != (n,) for c in cols):
            raise ShapeMismatch(
                f"columns must be 1-D of one length, got shapes "
                f"{[c.shape for c in cols]}"
            )
        self.x, self.y, t, self.p = cols
        self._t = (t, 0, False)

    @property
    def t(self) -> np.ndarray:
        t, t0, known = self._t
        if t0:  # one assignment: no reader sees a shifted t with t0 pending
            t = _shifted(t, t0, int(t[-1]))
            t.flags.writeable = False  # as read-only as the view it replaces: `known` holds
            self._t = (t, 0, known)
        return self._t[0]

    def __len__(self) -> int:
        return len(self.x)

    def __getitem__(self, key):
        if isinstance(key, str):
            if key not in _FIELDS:
                raise KeyError(key)
            return getattr(self, key)
        t, t0, _ = self._t  # a pending shift: read raw, shift only what is read
        if isinstance(key, (int, np.integer)):
            return Event(int(self.x[key]), int(self.y[key]), int(t[key]) - t0, int(self.p[key]))
        return EventColumns(self.x[key], self.y[key],
                            _shifted(t[key], t0, int(t[-1])) if t0 else t[key], self.p[key])

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventColumns):
            return NotImplemented
        return all(np.array_equal(getattr(self, f), getattr(other, f)) for f in _FIELDS)


@dataclass(frozen=True, eq=False)
class EventStream:
    """An ordered event collection with its sensor geometry.

    `events` holds the events as `EventColumns`: one integer array per
    field, so ``events["t"]`` is a plain array and
    ``events[mask]`` a column-wise selection. Any other `events` raises
    `TypeError`, not an `EvholoError`, as it is a caller's programming
    error; `from_arrays` builds the columns from four sequences.
    Normalized streams are timestamp-sorted with t starting at 0; raw
    (directly constructed) streams may violate that, which is what
    `validate_stream` reports on.
    """

    geometry: tuple[int, int]
    events: EventColumns

    def __post_init__(self):
        if not isinstance(self.events, EventColumns):
            raise TypeError(
                f"events must be EventColumns, got {type(self.events).__name__}"
            )
        object.__setattr__(self, "geometry", _geometry(self.geometry, ConfigInvalid))

    @classmethod
    def from_arrays(cls, geometry, x, y, t, p) -> "EventStream":
        return cls(geometry=geometry, events=EventColumns(x, y, t, p))

    @classmethod
    def empty(cls, geometry) -> "EventStream":
        return cls.from_arrays(geometry, [], [], [], [])

    @property
    def duration(self) -> int:
        """t_max - t_min in microseconds; 0 for an empty stream."""
        t, _, known = self.events._t  # with a pending shift, the raw view
        if len(t) == 0:
            return 0
        return int(t[-1]) - int(t[0]) if known else int(t.max()) - int(t.min())

    def normalized(self) -> "EventStream":
        """Stable-sort by timestamp and shift so t_min = 0.

        An unsorted stream sorts one int64 key per event, (t - t_min) << bits
        | index with bits = (n - 1).bit_length(). The keys are distinct, so
        any sort is stable: key >> bits is the shifted t, and key & mask
        gathers x, y and p. A span of 2**(63 - bits) us or more leaves no room
        for the index and takes a stable argsort instead. An already sorted
        stream skips the sort and shares its x, y and p columns with the
        result; a parsed one that `parse_events_binary` found sorted is the
        result, with no second order check, its shift waiting for the first
        read of t (`EventColumns`), and one it found unsorted is sorted with
        no second check either. A t whose minimum is 0 keeps its dtype
        (sorted, it is kept); any other is shifted into a fresh uint32 column
        when t_max - t_min < 2**32 us, else int64; arithmetic on t widens it
        first. The input is never modified. Raises `TooLarge` when the span
        passes int64.
        """
        ev = self.events
        if ev._t[2]:  # parsed and found sorted: t is shifted on first read
            return self
        t = ev.t
        if not _ascending(t):
            return self._sort()
        if len(t) and t[0] != 0:
            span = int(t[-1]) - int(t[0])
            if span > _INT64_MAX:
                raise TooLarge(f"timestamps span {span} us, beyond int64")
            t = _shifted(t, int(t[0]), int(t[-1]))
        return EventStream(self.geometry, EventColumns(ev.x, ev.y, t, ev.p))

    def _sort(self) -> "EventStream":
        """`normalized` of a stream whose t is known to be unsorted."""
        ev = self.events
        t = ev.t
        t0, bits = int(t.min()), (len(t) - 1).bit_length()
        span = int(t.max()) - t0
        if span >= 1 << (63 - bits):
            return EventStream(self.geometry, ev[np.argsort(t, kind="stable")]).normalized()
        key = np.subtract(t, t0, dtype=np.int64)
        key <<= bits
        key |= np.arange(len(t))
        key.sort()
        t = np.empty(len(t), t.dtype if t0 == 0 else np.uint32 if span < 1 << 32 else np.int64)
        np.right_shift(key, bits, out=t, dtype=np.int64, casting="unsafe")
        key &= (1 << bits) - 1
        return EventStream(self.geometry, EventColumns(ev.x[key], ev.y[key], t, ev.p[key]))

    def time_bins(self, t_bins) -> tuple["EventStream", np.ndarray]:
        """The stream normalized, and the t_bins + 1 edges of its time bins.

        Bin k holds the events with (t - t_min) * t_bins // (duration + 1) == k,
        events edges[k]:edges[k + 1] of the normalized stream; the +1 lets the
        last event land in the last bin. Every bin start is bisected at once
        over t as stored, t_min subtracted per probe, so each step reads one
        value per bin of a strided view (`searchsorted` would copy it whole)
        and a parsed stream's shift stays pending. A t_bins not an integer >= 1
        is `ConfigInvalid`; (duration + 1) * t_bins past int64 is `TooLarge`.
        """
        t_bins = _integer("t_bins", t_bins, ConfigInvalid)
        stream = self.normalized()
        t, t0, _ = stream.events._t  # t - t0 starts at 0; t0 is 0 once t is shifted
        n = len(t)
        span = int(t[-1]) - t0 + 1 if n else 1  # duration + 1
        _integer("(duration + 1) * t_bins", span * t_bins, TooLarge, 1, _INT64_MAX)
        k = np.arange(1, t_bins)
        below = np.zeros(t_bins - 1, dtype=np.int64)  # events known to lie below bin k
        for b in reversed(range(n.bit_length())):
            step = np.minimum(below + (1 << b), n)
            below = np.where((t[step - 1].astype(np.int64) - t0) * t_bins // span < k, step, below)
        return stream, np.r_[0, below, n]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        ev = self.events
        for rec in zip(*(getattr(ev, f).tolist() for f in _FIELDS)):
            yield Event(*rec)

    def __getitem__(self, i: int) -> Event:
        return self.events[int(i)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventStream):
            return NotImplemented
        return self.geometry == other.geometry and self.events == other.events

    def __repr__(self) -> str:
        w, h = self.geometry
        return (
            f"EventStream({len(self.events)} events, {w}x{h}, "
            f"duration={self.duration} us)"
        )


@dataclass(frozen=True)
class ValidationReport:
    """Defect counts for a stream; an event lands in at most one bucket
    (bounds checked first, then ordering, then polarity)."""

    total: int
    out_of_bounds: int
    non_monotonic: int
    bad_polarity: int

    @property
    def valid(self) -> int:
        return self.total - self.out_of_bounds - self.non_monotonic - self.bad_polarity

    @property
    def clean(self) -> bool:
        return self.valid == self.total


@dataclass(frozen=True)
class PeriodicGenSpec:
    """Parameters of the synthetic periodic stream generator.

    The event arrival rate follows
    ``r(t) = base_rate + (peak_rate - base_rate) * (1 + sin(2*pi*f0*t)) / 2``
    and event positions oscillate horizontally around the sensor center
    with the given pixel amplitude at the same frequency. Positions are
    drawn in float64, so each geometry side is at most 2**53, up to which
    float64 holds every pixel index. Timestamps are int64 microseconds, so
    duration_s is at most 2**62 us, and f0 * max(1, duration_s) is at most
    the float64 maximum / 8, so every phase 2*pi*f0*t is finite.
    """

    f0: float
    duration_s: float
    base_rate: float
    peak_rate: float
    geometry: tuple[int, int]
    motion_amplitude: float
    seed: int

    def __post_init__(self):
        # every t in int64 us, and every phase 2 * pi * f0 * t finite
        object.__setattr__(self, "duration_s", _positive(
            "duration_s", self.duration_s, SpecInvalid, _TINY, 2.0 ** 62 / 1e6))
        for name, lo, hi in (("f0", _TINY, _HUGE / 8 / max(1.0, float(self.duration_s))),
                             ("base_rate", 0.0, _HUGE), ("motion_amplitude", -_HUGE, _HUGE)):
            value = _positive(name, getattr(self, name), SpecInvalid, lo, hi)
            object.__setattr__(self, name, value)
        cap = 2.0 ** 62 / float(self.duration_s)  # at most 2**62 candidate events
        object.__setattr__(self, "peak_rate",
                           _positive("peak_rate", self.peak_rate, SpecInvalid, self.base_rate, cap))
        object.__setattr__(self, "seed", _integer("seed", self.seed, SpecInvalid, 0))
        w, h = _geometry(self.geometry, SpecInvalid)
        object.__setattr__(self, "geometry", (_integer("W", w, SpecInvalid, 1, 2 ** 53),
                                              _integer("H", h, SpecInvalid, 1, 2 ** 53)))


def parse_events_csv(data: bytes, geometry: tuple[int, int] | None = None) -> EventStream:
    """Parse CSV event bytes into a normalized stream.

    Geometry comes from a ``# geometry WxH`` comment line or the explicit
    argument (the argument wins). The first defective line, a field outside
    int64 included, raises `MalformedLine` with its 1-based line number.

    Rows after an ASCII preamble that ends in the line ``x,y,t,p`` are
    parsed in bulk when every one of them is ``-?[0-9]{1,18}`` four times,
    joined by ``,`` and ended by ``\n``, with a polarity in {-1, 0, 1}.
    Any other input goes through the line walk, which alone raises.

    Either way the columns take the HEVS dtypes before the sort: x and y
    uint16 when every value is in 0..65535, else int64; p int8. t is
    shifted to its uint32 column before the sort too, when it does not start
    at 0 and spans less than 2**32 us, so t takes the dtype `normalized`
    gives it.
    """
    data = _bytes(data)
    header = _CSV_HEADER_RE.search(data)
    start = header.end() if header else 0
    cols = _csv_body_columns(data, start) if header and data[:start].isascii() else None
    if cols is None:
        return _parse_csv_lines(data, geometry)
    # The preamble alone through the line walk: the same geometry, and the
    # same first error, since the rows after it are clean.
    _, file_geometry = _walk_csv_lines(data[:start].decode("ascii"))
    return _csv_stream(geometry, file_geometry, cols)


def _parse_csv_lines(data: bytes, geometry: tuple[int, int] | None) -> EventStream:
    """`parse_events_csv` by the line walk alone: the fallback and the oracle."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise MalformedLine(0, f"not UTF-8: {e}") from None
    values, file_geometry = _walk_csv_lines(text)
    if not values:
        raise EmptyInput("no event data lines")
    cols = list(np.frombuffer(values, dtype=np.int64).reshape(-1, 4).T)
    return _csv_stream(geometry, file_geometry, cols)


def _csv_stream(geometry, file_geometry, cols: list) -> EventStream:
    """The normalized stream of the integer columns x, y, t, p in `cols`;
    `geometry` wins. x, y and p are first replaced in `cols` by their HEVS
    dtypes where the values fit. The bulk path's columns already have them,
    so they are not copied; the line walk's are int64 views of one 4 x n
    block. Then t, when its minimum is not 0 and its span below 2**32 us, is
    replaced by the uint32 t - t_min that `normalized` would make, so the
    parser's int64 t is freed before the sort builds its key; any other t
    stays int64, for `normalized` to keep or shift, or to reject as
    `TooLarge` past int64."""
    geom = geometry if geometry is not None else file_geometry
    if geom is None:
        raise GeometryMissing("no '# geometry WxH' line and no explicit geometry")
    for i in (0, 1):  # a negative or huge coordinate stays int64 for `validate_stream`
        if 0 <= cols[i].min() and cols[i].max() <= 0xFFFF:
            cols[i] = cols[i].astype(np.uint16, copy=False)
    cols[3] = cols[3].astype(np.int8, copy=False)  # the grammar leaves -1 and 1
    t0, t_max = int(cols[2].min()), int(cols[2].max())
    if t0 and t_max - t0 < 1 << 32:  # the uint32 t `normalized` makes, before its sort
        cols[2] = _shifted(cols[2], t0, t_max)
    return EventStream.from_arrays(geom, *cols).normalized()


def _walk_csv_lines(text: str) -> tuple[array, tuple[int, int] | None]:
    """Walk the lines once: x, y, t, p of each row back to back (polarity 0
    mapped to -1) and the last geometry comment's sides."""
    file_geometry: tuple[int, int] | None = None
    header_seen = False
    values = array("q")
    # only LF ends a line: splitlines() would also break a comment at \x0b or U+2028
    for line_no, line in enumerate(_lf_lines(text), start=1):
        stripped = line.strip(_ASCII_SPACE)
        if not stripped:
            continue
        if stripped.startswith("#"):
            m = _GEOMETRY_RE.match(stripped)
            if m:
                file_geometry = (int(m.group(1)), int(m.group(2)))
                if 0 in file_geometry:
                    raise MalformedLine(line_no, "geometry side must be >= 1")
            continue
        if not header_seen:
            if stripped != _CSV_HEADER:
                raise MalformedLine(line_no, f"expected header {_CSV_HEADER!r}")
            header_seen = True
            continue
        fields = stripped.split(",")
        if len(fields) != 4:
            raise MalformedLine(line_no, f"expected 4 fields, got {len(fields)}")
        if not line.isascii() or _INT_ONLY_RE.search(line):
            raise MalformedLine(line_no, "non-numeric field")
        try:
            values.extend(map(int, fields))
        except ValueError:  # non-numeric, or past Python's limit on digits
            del values[len(values) - len(values) % 4:]
            values.extend(_long_csv_field(f, line_no) for f in fields)
        except OverflowError:
            raise MalformedLine(line_no, "field outside the int64 range") from None
        p = values[-1]
        if p == 0:
            values[-1] = -1
        elif p not in (-1, 1):
            raise MalformedLine(line_no, f"polarity {p} not in {{-1, 0, 1}}")
    return values, file_geometry


def _lf_lines(text: str) -> Iterator[str]:
    """What splitting `text` at every LF gives, split from pieces of about
    `_CSV_CHUNK` characters cut at an LF, so that no list holds every line."""
    start = 0
    while (cut := text.find("\n", start + _CSV_CHUNK)) >= 0:
        yield from text[start:cut].split("\n")
        start = cut + 1
    yield from text[start:].split("\n")


def _long_csv_field(field: str, line_no: int) -> int:
    """A field that `int` refused: non-numeric, or longer than Python's
    limit on digits, which leading zeros alone can reach without changing
    the value; more significant digits than int64 holds are out of range."""
    text = field.strip()
    body = text.lstrip("+-")
    sign, digits = text[:len(text) - len(body)], body.lstrip("0") or "0"
    if len(sign) > 1 or not body.isdecimal():  # a field of no digit too
        raise MalformedLine(line_no, "non-numeric field") from None
    value = int(sign + digits) if len(digits) <= 19 else _INT64_MAX + 1
    if not -_INT64_MAX - 1 <= value <= _INT64_MAX:
        raise MalformedLine(line_no, "field outside the int64 range") from None
    return value


def _csv_body_columns(data: bytes, start: int) -> list[np.ndarray] | None:
    """The rows of ``data[start:]`` as columns x, y, t, p (polarity 0 mapped
    to -1) at HEVS width, x or y widened to int64 at the first chunk with a
    value outside 0..65535, or None when any row is outside the fast grammar.
    Works in chunks of whole rows to bound the temporaries."""
    if not data.endswith(b"\n"):  # declines before any bulk work
        return None
    body = memoryview(data)[start:]  # NumPy counts ~5x faster than bytes.count's byte loop
    n = sum(np.count_nonzero(np.frombuffer(body[i:i + _CSV_CHUNK], np.uint8) == 10)
            for i in range(0, len(body), _CSV_CHUNK))
    if not n or 8 * n > len(data) - start:  # a row takes at least 8 bytes, "0,0,0,0\n"
        return None
    cols = [np.empty(n, dtype=d) for d in ("u2", "u2", "i8", "i1")]
    xy = np.empty((2, min(n, _CSV_CHUNK // 8)), dtype=np.int64)  # a chunk's x and y
    row = 0
    while start < len(data):
        stop = data.rfind(b"\n", start, start + _CSV_CHUNK) + 1
        if stop <= start:  # no final newline, or a row longer than a chunk
            return None
        rows = _csv_chunk(np.frombuffer(data, np.uint8, stop - start, start),
                          [*xy, cols[2][row:], cols[3][row:]])
        if rows is None:
            return None
        for c in (0, 1):  # viewed as uint64, a negative value is above 0xFFFF too
            if cols[c].dtype == np.uint16 and xy[c, :rows].view(np.uint64).max() > 0xFFFF:
                wide = np.empty(n, dtype=np.int64)
                wide[:row] = cols[c][:row]
                cols[c] = wide
            cols[c][row:row + rows] = xy[c, :rows]
        row += rows
        start = stop
    return cols


def _csv_chunk(b: np.ndarray, out: list[np.ndarray]) -> int | None:
    """Parse whole rows ``b`` (ending in ``\n``) into ``out[c][:rows]``:
    int64 x, y and t, and p of any signed integer dtype.

    Every byte is classified first: digit, ``-``, or a separator (any byte
    below ``-``). Each row's separators must read ``,,,\n``, each field one
    optional leading ``-`` and 1 to 18 digits, the polarity one digit of
    at most 1. A field's value is summed from its digits right to left,
    one digit position per pass; polarity 0 then becomes -1.
    """
    ends = np.flatnonzero(b < 45)  # ',' and '\n' end a field, and fail any other
    d = b - np.uint8(48)
    n_minus = np.count_nonzero(b == 45)
    if len(ends) % 4 or np.count_nonzero(d <= 9) + n_minus + len(ends) != len(b):
        return None
    if not (b[ends].reshape(-1, 4) == _CSV_ROW_SEPS).all():
        return None
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    neg = b[starts] == 45
    ndig = ends - starts - neg
    if np.count_nonzero(neg) != n_minus or ndig.min() < 1 or ndig.max() > 18:
        return None
    ends, ndig, neg = ends.reshape(-1, 4), ndig.reshape(-1, 4), neg.reshape(-1, 4)
    if ndig[:, 3].max() > 1 or d[ends[:, 3] - 1].max() > 1:
        return None
    for c in range(4):
        last = ends[:, c] - 1
        nd = ndig[:, c]
        v = out[c][:len(last)]
        v[:] = d[last]
        for j in range(1, int(nd.max())):
            # int64 by dtype, not by promotion: under NEP 50 a uint8 digit
            # times a Python-int power of ten stays uint8 and wraps
            v += np.multiply(d[last - j] * (nd > j), _POW10[j], dtype=np.int64)
        np.negative(v, out=v, where=neg[:, c])
    p = out[3][:len(ends)]
    p[p == 0] = -1
    return len(ends)


def write_events_csv(stream: EventStream) -> bytes:
    """Serialize a stream to CSV bytes with a geometry comment line; what the
    parser refuses, a p outside -1..1 or a t span beyond int64, is `SpecInvalid`."""
    ev = stream.events
    if len(ev) and (ev.p.min() < -1 or ev.p.max() > 1 or stream.duration > _INT64_MAX):
        raise SpecInvalid("p outside -1..1, or a t span beyond int64, is not readable as CSV")
    w, h = stream.geometry
    lines = [f"# geometry {w}x{h}", _CSV_HEADER]
    # Python ints from `tolist()` format about twice as fast as NumPy scalars
    cols = (getattr(ev, f).tolist() for f in _FIELDS)
    lines.extend(f"{x},{y},{t},{p}" for x, y, t, p in zip(*cols))
    return ("\n".join(lines) + "\n").encode("utf-8")


def parse_events_binary(data: bytes) -> EventStream:
    """Parse HEVS bytes into a normalized stream.

    Same semantics as the CSV path; round-trips with `write_events_binary`
    bit-exactly for normalized streams. The x, y and p columns of the
    result are read-only views of `data` (p is a copy when some polarity
    is 0), so any other buffer than `bytes`, which may change later, is
    copied once first. One pass in steps of `_HEVS_CHUNK` records checks
    every polarity and whether t is sorted; a sorted t is shifted on its
    first read (`EventColumns`), an unsorted one sign-checked, then sorted
    as `normalized` sorts it, without checking its order again.
    """
    data = _bytes(data)
    if data[:4] != HEVS_MAGIC:
        raise BadMagic(f"expected {HEVS_MAGIC!r} magic")
    if len(data) < HEVS_HEADER:
        raise TruncatedRecord(len(data))
    _, version, w, h, count = _HEVS_HEAD.unpack_from(data)
    if version != 1:
        raise BadMagic(f"unsupported HEVS version {version}")
    if 0 in (w, h):
        raise ParseError(f"HEVS geometry {w}x{h} has a zero side")
    need = HEVS_HEADER + count * HEVS_RECORD
    if len(data) < need:
        full = (len(data) - HEVS_HEADER) // HEVS_RECORD
        raise TruncatedRecord(HEVS_HEADER + full * HEVS_RECORD)
    if count == 0:
        return EventStream.empty((w, h))
    recs = np.frombuffer(data, dtype=_HEVS_RECORD_DTYPE, count=count, offset=HEVS_HEADER)
    # u64 viewed as i64 maps exactly the timestamps >= 2**63 onto negative values
    p, t = recs["p"], recs["t"].view(np.int64)
    # t counts as sorted until a step shows otherwise; sorted from a t[0] >= 0,
    # no t is at or above 2**63, so only an unsorted t is sign-checked
    zero, ascending, last = False, int(t[0]) >= 0, t[0]
    d = np.empty(min(count, _HEVS_CHUNK), dtype=np.int64)
    for lo in range(0, count, _HEVS_CHUNK):
        pc = p[lo:lo + _HEVS_CHUNK].copy()
        if pc.min() < -1 or pc.max() > 1:  # beats a bad t in any record
            i = int(((pc < -1) | (pc > 1)).argmax())
            raise BadPolarity(HEVS_HEADER + (lo + i) * HEVS_RECORD + 12, int(pc[i]))
        zero = zero or not pc.all()
        if ascending:
            tc = d[:len(pc)]
            np.copyto(tc, t[lo:lo + _HEVS_CHUNK])
            ascending = last <= tc[0] and _ascending(tc)
            last = tc[-1]
    if not ascending and t.min() < 0:
        i = int((t < 0).argmax())
        raise BadTimestamp(HEVS_HEADER + i * HEVS_RECORD + 4, int(recs["t"][i]))
    if zero:  # polarity 0 becomes -1 in a copy, never in the input
        p = p.copy()
        p[p == 0] = -1
    stream = EventStream.from_arrays((w, h), recs["x"], recs["y"], t, p)
    if ascending:  # marked sorted; t - t[0] waits for the first read of t
        stream.events._t = (t, int(t[0]), True)
    return stream if ascending else stream._sort()


def write_events_binary(stream: EventStream) -> bytes:
    """Serialize a stream to HEVS bytes; a side or field value outside what
    `parse_events_binary` accepts (`_HEVS_RANGES`) is `SpecInvalid`.

    The records are packed `_HEVS_CHUNK` at a time into one reused block and
    written into a buffer of the output's final size, which CPython's
    `BytesIO.getvalue` hands back without a copy: the call peaks at the
    output plus one block, not two copies of the records.
    """
    w, h = stream.geometry
    _integer("u16 geometry side", max(w, h), SpecInvalid, 1, 0xFFFF)
    cols = [stream.events[field] for field in _FIELDS]
    for (field, (lo, hi)), v in zip(_HEVS_RANGES.items(), cols):
        if len(v) and (v.min() < lo or v.max() > hi):
            raise SpecInvalid(f"{field} values outside {lo}..{hi} are not representable in HEVS")
    n = len(stream)
    out = io.BytesIO(bytes(HEVS_HEADER + n * HEVS_RECORD))  # its only owner: written in place
    out.write(_HEVS_HEAD.pack(HEVS_MAGIC, 1, w, h, n))
    block = np.empty(min(n, _HEVS_CHUNK), dtype=_HEVS_RECORD_DTYPE)
    for lo in range(0, n, _HEVS_CHUNK):
        recs = block[:n - lo]
        for field, v in zip(_FIELDS, cols):
            recs[field] = v[lo:lo + _HEVS_CHUNK]
        out.write(recs.data)
    return out.getvalue()


def validate_stream(stream: EventStream) -> ValidationReport:
    """Count defects without mutating the stream.

    Buckets are exclusive and checked in order: out-of-bounds coordinates,
    then timestamp regressions, then polarity outside {-1, +1}.
    """
    ev = stream.events
    w, h = stream.geometry
    oob = (ev["x"] < 0) | (ev["x"] >= w) | (ev["y"] < 0) | (ev["y"] >= h)
    nonmono = np.zeros(len(ev), dtype=bool)
    # a comparison, not np.diff, which wraps for narrow or unsigned columns
    nonmono[1:] = ev["t"][1:] < ev["t"][:-1]
    badp = (ev["p"] != -1) & (ev["p"] != 1)
    nonmono &= ~oob
    badp &= ~oob & ~nonmono
    return ValidationReport(
        total=len(ev),
        out_of_bounds=int(oob.sum()),
        non_monotonic=int(nonmono.sum()),
        bad_polarity=int(badp.sum()),
    )


def generate_periodic_stream(spec: PeriodicGenSpec) -> EventStream:
    """Generate a deterministic periodic stream by thinning a seeded
    uniform point process.

    Candidate arrivals are drawn at the peak rate and kept with probability
    r(t)/peak_rate, which realizes the sinusoidal rate profile exactly.
    Positions oscillate horizontally around the sensor center; polarity is
    +1 while the oscillation moves right and -1 while it moves left.
    Output is timestamp-sorted with t_min = 0, and every event lies inside
    the declared geometry.
    """
    w, h = spec.geometry
    rng = np.random.default_rng(spec.seed)
    n_cand = rng.poisson(spec.peak_rate * spec.duration_s)
    t_cand = np.sort(rng.uniform(0.0, spec.duration_s, n_cand))
    phase = 2.0 * np.pi * spec.f0 * t_cand
    rate = spec.base_rate + (spec.peak_rate - spec.base_rate) * (1.0 + np.sin(phase)) / 2.0
    keep = rng.uniform(0.0, 1.0, n_cand) * spec.peak_rate < rate
    t_s = t_cand[keep]
    phase = phase[keep]
    n = len(t_s)

    # Gaussian blob around the oscillating center, clipped to the sensor.
    sigma = max(1.0, min(w, h) / 12.0)
    cx = (w - 1) / 2.0 + spec.motion_amplitude * np.sin(phase)
    cy = (h - 1) / 2.0
    x = np.clip(np.rint(cx + rng.normal(0.0, sigma, n)), 0, w - 1).astype(np.int64)
    y = np.clip(np.rint(cy + rng.normal(0.0, sigma, n)), 0, h - 1).astype(np.int64)
    p = np.where(np.cos(phase) >= 0.0, 1, -1).astype(np.int64)
    t_us = np.floor(t_s * 1e6).astype(np.int64)
    stream = EventStream.from_arrays(spec.geometry, x, y, t_us, p)
    return stream.normalized()


def synthetic_uniform_stream(n_events: int) -> EventStream:
    """Seeded stream with exactly n_events uniform events over 10 s on a
    346x260 sensor, for benchmarking."""
    n_events = _integer("n_events", n_events, SpecInvalid, 0, _INT64_MAX)
    w, h = 346, 260
    rng = np.random.default_rng(0)
    x = rng.integers(0, w, n_events)
    y = rng.integers(0, h, n_events)
    t = np.sort(rng.integers(0, 10_000_000, n_events))
    p = rng.choice(np.array([-1, 1], dtype=np.int64), n_events)
    return EventStream.from_arrays((w, h), x, y, t, p).normalized()
