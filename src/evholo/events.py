"""Event data model, file ingestion, validation, and synthetic stream generation.

An event is the asynchronous sensor record (x, y, t, p): pixel coordinates,
a timestamp in integer microseconds, and a brightness-change polarity in
{-1, +1}. Streams are normalized at ingestion: events sorted by timestamp
(stable) and shifted so the earliest timestamp is 0. A stream that is
already sorted, as HEVS files written by this package are, skips the sort.

In memory a stream stores its events column-wise (`EventColumns`): four
contiguous int64 arrays x, y, t and p, one value per event, rather than
one 32-byte record per event. ``events["t"]`` is the timestamp column and
``events[mask]`` selects events from all four columns at once.

Two interchange formats are supported:

    CSV   header ``x,y,t,p``, optional ``# geometry WxH`` comment line,
          LF line endings, polarity -1/+1 (0/1 accepted, 0 mapped to -1)
    HEVS  binary: magic ``HEVS``, version u8=1, reserved u8*3, W u16 LE,
          H u16 LE, count u64 LE, then 13-byte records
          {x u16 LE, y u16 LE, t u64 LE, p i8}

Parsers are lossless: out-of-bounds coordinates are retained and only
flagged by `validate_stream`; encoders decide their own domain. An HEVS
timestamp of 2**63 or more does not fit the int64 column and is rejected
with `BadTimestamp`.
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .errors import (
    BadMagic,
    BadPolarity,
    BadTimestamp,
    EmptyInput,
    GeometryMissing,
    MalformedLine,
    ParseError,
    SpecInvalid,
    TruncatedRecord,
)

_FIELDS = ("x", "y", "t", "p")

HEVS_MAGIC = b"HEVS"
HEVS_HEADER = 20  # magic4 + version1 + reserved3 + W2 + H2 + count8
HEVS_RECORD = 13  # x2 + y2 + t8 + p1
_HEVS_RECORD_DTYPE = np.dtype(
    {
        "names": ["x", "y", "t", "p"],
        "formats": ["<u2", "<u2", "<u8", "i1"],
        "offsets": [0, 2, 4, 12],
        "itemsize": HEVS_RECORD,
    }
)

_GEOMETRY_RE = re.compile(r"^#\s*geometry\s+(\d+)\s*x\s*(\d+)\s*$")
_CSV_HEADER = "x,y,t,p"


class Event(NamedTuple):
    """A single sensor event."""

    x: int
    y: int
    t: int
    p: int


class EventColumns:
    """Four equal-length, contiguous int64 columns x, y, t, p.

    Indexed like a structured array with those fields: ``cols["x"]`` is a
    column, ``cols[i]`` with an integer is one `Event`, and any other index
    (slice, boolean mask, permutation) selects the same events from every
    column and returns new `EventColumns`.
    """

    __slots__ = _FIELDS

    def __init__(self, x, y, t, p):
        cols = [np.ascontiguousarray(c, dtype=np.int64) for c in (x, y, t, p)]
        n = len(cols[0])
        if any(c.ndim != 1 or len(c) != n for c in cols):
            raise ValueError(
                f"columns must be 1-D of one length, got shapes "
                f"{[c.shape for c in cols]}"
            )
        self.x, self.y, self.t, self.p = cols

    def __len__(self) -> int:
        return len(self.x)

    def __getitem__(self, key):
        if isinstance(key, str):
            if key not in _FIELDS:
                raise KeyError(key)
            return getattr(self, key)
        if isinstance(key, (int, np.integer)):
            return Event(int(self.x[key]), int(self.y[key]), int(self.t[key]),
                         int(self.p[key]))
        return EventColumns(self.x[key], self.y[key], self.t[key], self.p[key])

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventColumns):
            return NotImplemented
        return all(np.array_equal(getattr(self, f), getattr(other, f)) for f in _FIELDS)


@dataclass(frozen=True, eq=False)
class EventStream:
    """An ordered event collection with its sensor geometry.

    `events` holds the events as `EventColumns`: one contiguous int64
    array per field, so ``events["t"]`` is a plain array and
    ``events[mask]`` a column-wise selection. A structured array or any
    other mapping with x, y, t, p fields is converted on construction.
    Normalized streams are timestamp-sorted with t starting at 0; raw
    (directly constructed) streams may violate that, which is what
    `validate_stream` reports on.
    """

    geometry: tuple[int, int]
    events: EventColumns

    def __post_init__(self):
        if not isinstance(self.events, EventColumns):
            object.__setattr__(
                self, "events", EventColumns(*(self.events[f] for f in _FIELDS))
            )
        w, h = self.geometry
        if w < 1 or h < 1:
            raise ValueError(f"geometry must be positive, got {self.geometry}")
        object.__setattr__(self, "geometry", (int(w), int(h)))

    @classmethod
    def from_arrays(cls, geometry, x, y, t, p) -> "EventStream":
        return cls(geometry=tuple(geometry), events=EventColumns(x, y, t, p))

    @classmethod
    def empty(cls, geometry) -> "EventStream":
        return cls.from_arrays(geometry, [], [], [], [])

    @property
    def duration(self) -> int:
        """t_max - t_min in microseconds; 0 for an empty stream."""
        t = self.events.t
        if len(t) == 0:
            return 0
        return int(t.max()) - int(t.min())

    def normalized(self) -> "EventStream":
        """Stable-sort by timestamp and shift so t_min = 0.

        An already sorted stream skips the sort: the result shares its x, y
        and p columns with this stream and gets a shifted copy of t. The
        input is never modified.
        """
        ev = self.events
        if len(ev) and not np.all(ev.t[:-1] <= ev.t[1:]):
            ev = ev[np.argsort(ev.t, kind="stable")]
        t = ev.t
        if len(t) and t[0] != 0:
            t = t - t[0]
        return EventStream(self.geometry, EventColumns(ev.x, ev.y, t, ev.p))

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
    with the given pixel amplitude at the same frequency.
    """

    f0: float
    duration_s: float
    base_rate: float
    peak_rate: float
    geometry: tuple[int, int]
    motion_amplitude: float
    seed: int

    def __post_init__(self):
        if not 0 < self.f0 < np.inf:
            raise SpecInvalid(f"f0 must be finite and > 0, got {self.f0}")
        if not 0 < self.duration_s < np.inf:
            raise SpecInvalid(f"duration_s must be finite and > 0, got {self.duration_s}")
        if not 0 <= self.base_rate <= self.peak_rate < 2.0 ** 62 / self.duration_s:
            raise SpecInvalid(
                f"need peak_rate >= base_rate >= 0 and peak_rate * duration_s < 2**62, "
                f"got base={self.base_rate} peak={self.peak_rate} duration={self.duration_s}"
            )
        if not np.isfinite(self.motion_amplitude):
            raise SpecInvalid(f"motion_amplitude {self.motion_amplitude} is not finite")
        if self.seed < 0:
            raise SpecInvalid(f"seed must be >= 0, got {self.seed}")
        w, h = self.geometry
        if w < 1 or h < 1:
            raise SpecInvalid(f"geometry must be positive, got {self.geometry}")


def parse_events_csv(data: bytes, geometry: tuple[int, int] | None = None) -> EventStream:
    """Parse CSV event bytes into a normalized stream.

    Geometry comes from a ``# geometry WxH`` comment line or the explicit
    argument (the argument wins). The first defective line, a field outside
    int64 included, raises `MalformedLine` with its 1-based line number.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise MalformedLine(0, f"not UTF-8: {e}") from None

    file_geometry: tuple[int, int] | None = None
    header_seen = False
    values = array("q")  # x, y, t, p of each row, back to back
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
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
        try:
            values.extend(map(int, fields))
        except ValueError:
            raise MalformedLine(line_no, "non-numeric field") from None
        except OverflowError:
            raise MalformedLine(line_no, "field outside the int64 range") from None
        p = values[-1]
        if p == 0:
            values[-1] = -1
        elif p not in (-1, 1):
            raise MalformedLine(line_no, f"polarity {p} not in {{-1, 0, 1}}")

    if not values:
        raise EmptyInput("no event data lines")
    geom = geometry if geometry is not None else file_geometry
    if geom is None:
        raise GeometryMissing("no '# geometry WxH' line and no explicit geometry")
    x, y, t, p = np.frombuffer(values, dtype=np.int64).reshape(-1, 4).T
    return EventStream.from_arrays(geom, x, y, t, p).normalized()


def write_events_csv(stream: EventStream) -> bytes:
    """Serialize a stream to CSV bytes with a geometry comment line."""
    w, h = stream.geometry
    lines = [f"# geometry {w}x{h}", _CSV_HEADER]
    ev = stream.events
    lines.extend(
        f"{x},{y},{t},{p}" for x, y, t, p in zip(ev["x"], ev["y"], ev["t"], ev["p"])
    )
    return ("\n".join(lines) + "\n").encode("utf-8")


def parse_events_binary(data: bytes) -> EventStream:
    """Parse HEVS bytes into a normalized stream.

    Same semantics as the CSV path; round-trips with `write_events_binary`
    bit-exactly for normalized streams.
    """
    if data[:4] != HEVS_MAGIC:
        raise BadMagic(f"expected {HEVS_MAGIC!r} magic")
    if len(data) < HEVS_HEADER:
        raise TruncatedRecord(len(data))
    version = data[4]
    if version != 1:
        raise BadMagic(f"unsupported HEVS version {version}")
    w = int.from_bytes(data[8:10], "little")
    h = int.from_bytes(data[10:12], "little")
    if 0 in (w, h):
        raise ParseError(f"HEVS geometry {w}x{h} has a zero side")
    count = int.from_bytes(data[12:20], "little")
    need = HEVS_HEADER + count * HEVS_RECORD
    if len(data) < need:
        full = (len(data) - HEVS_HEADER) // HEVS_RECORD
        raise TruncatedRecord(HEVS_HEADER + full * HEVS_RECORD)
    if count == 0:
        return EventStream.empty((w, h))
    recs = np.frombuffer(data, dtype=_HEVS_RECORD_DTYPE, count=count, offset=HEVS_HEADER)
    p = recs["p"]
    bad = (p < -1) | (p > 1)
    if bad.any():
        i = int(bad.argmax())
        raise BadPolarity(HEVS_HEADER + i * HEVS_RECORD + 12, int(p[i]))
    # u64 -> i64 maps exactly the timestamps >= 2**63 onto negative values
    t = recs["t"].astype(np.int64)
    if t.min() < 0:
        i = int((t < 0).argmax())
        raise BadTimestamp(HEVS_HEADER + i * HEVS_RECORD + 4, int(recs["t"][i]))
    p = p.astype(np.int64)
    p[p == 0] = -1
    return EventStream.from_arrays((w, h), recs["x"], recs["y"], t, p).normalized()


def write_events_binary(stream: EventStream) -> bytes:
    """Serialize a stream to HEVS bytes."""
    ev = stream.events
    w, h = stream.geometry
    if max(w, h) >= 1 << 16:
        raise ValueError(f"geometry {w}x{h} outside u16 range")
    if len(ev):
        for field, limit in (("x", 1 << 16), ("y", 1 << 16)):
            vals = ev[field]
            if vals.min() < 0 or vals.max() >= limit:
                raise ValueError(f"{field} values outside u16 range")
        if ev["t"].min() < 0:
            raise ValueError("negative timestamps are not representable")
    header = (
        HEVS_MAGIC
        + bytes([1, 0, 0, 0])
        + int(w).to_bytes(2, "little")
        + int(h).to_bytes(2, "little")
        + len(ev).to_bytes(8, "little")
    )
    recs = np.empty(len(ev), dtype=_HEVS_RECORD_DTYPE)
    recs["x"] = ev["x"]
    recs["y"] = ev["y"]
    recs["t"] = ev["t"]
    recs["p"] = ev["p"]
    return header + recs.tobytes()


def validate_stream(stream: EventStream) -> ValidationReport:
    """Count defects without mutating the stream.

    Buckets are exclusive and checked in order: out-of-bounds coordinates,
    then timestamp regressions, then polarity outside {-1, +1}.
    """
    ev = stream.events
    n = len(ev)
    if n == 0:
        return ValidationReport(0, 0, 0, 0)
    w, h = stream.geometry
    oob = (ev["x"] < 0) | (ev["x"] >= w) | (ev["y"] < 0) | (ev["y"] >= h)
    nonmono = np.zeros(n, dtype=bool)
    nonmono[1:] = np.diff(ev["t"]) < 0
    badp = (ev["p"] != -1) & (ev["p"] != 1)
    nonmono &= ~oob
    badp &= ~oob & ~nonmono
    return ValidationReport(
        total=n,
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
    if spec.peak_rate <= 0:
        return EventStream.empty(spec.geometry)

    n_cand = rng.poisson(spec.peak_rate * spec.duration_s)
    t_cand = np.sort(rng.uniform(0.0, spec.duration_s, n_cand))
    phase = 2.0 * np.pi * spec.f0 * t_cand
    rate = spec.base_rate + (spec.peak_rate - spec.base_rate) * (1.0 + np.sin(phase)) / 2.0
    keep = rng.uniform(0.0, 1.0, n_cand) * spec.peak_rate < rate
    t_s = t_cand[keep]
    phase = phase[keep]
    n = len(t_s)
    if n == 0:
        return EventStream.empty(spec.geometry)

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
