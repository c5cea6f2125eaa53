"""Encoders from event streams to dense spatiotemporal tensors.

The primary encoding is a 3-channel time-height tensor: per-polarity event
density maps plus a holographic map that folds the horizontal coordinate in
through the transverse embedding phi(x) = sin(pi * x / W). Single-plane
2-channel density projections (HW, TW, TH) are provided for comparison,
and `encode_throughput` times `encode_chsr` in memory.

Binning rules (shared by all encoders):

    temporal bin = floor((t - t_min) * t_bins / (duration + 1))
    height bin   = floor(y * h_bins / H_sensor)
    width bin    = floor(x * w_bins / W_sensor)

One rule for time rows: the CHSR, TW and TH encoders take the normalized
stream (stable sort by t and shift to t_min = 0, which a parsed HEVS t defers)
and the slice of it each time row holds from `EventStream.time_bins`, then bin
it in chunks, so any event order encodes like its stable sort. The +1 on
duration lets the final event land in the last bin without a special case.
Out-of-geometry events are dropped and counted, never clamped. A stream whose
(duration + 1) * t_bins, or a tensor whose float64 planes in bytes, does not
fit int64 raises `TooLarge`. Every bin is widened to int64 before any
arithmetic (under NEP 50 a uint16 column times an int stays uint16 and wraps).

Chunks (a, b, lo, hi), events lo:hi filling rows a:b, are planned up front:
whole time rows grouped up to 2**16 events (a row with more is a chunk of its
own), or for the HW view, which has no time axis, 2**16 events of the stream
as it is over all rows. One loop bins every chunk: it copies x, y and p
contiguous (a parsed stream's are strided views of its records), drops
out-of-geometry events, gathers phi, takes the column bins, frees x, and only
then builds the row offsets and fills the chunk's rows, so temporaries are
sized by the chunk. The CHSR copies x into intp, as the phi gather runs 3x
faster on an intp index than on uint16; freeing it before the row offsets
keeps the call peak where the uint16 copy had it. The views, with no phi,
keep x's own dtype. No time-row cell spans two chunks, so the holographic
channel (a weighted `bincount` in event order, phi from a W-entry table, or
per event when events are fewer than W) sums each cell as one pass would,
bit-identically.
Counts keep two accumulates, each faster and smaller for its rows: time rows
one `bincount` over (cell, polarity) keys made in place on the cell index,
the polarity mask added as int8 (1.6x faster than `np.add.at`); HW
`np.add.at` into the whole planes (a full-plane `bincount` per chunk took 1M
events 10.2 -> 13.2 ms, 3.0 -> 5.7 MB).
"""

from __future__ import annotations

__all__ = [
    "ChsrTensor",
    "EncodeConfig",
    "ViewTensor",
    "encode_chsr",
    "encode_throughput",
    "encode_view",
    "export_channel_image",
    "phi",
]

import time
from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

from .errors import (_INT64_MAX, ChannelOutOfRange, ConfigInvalid, SpecInvalid, TooLarge, _checked,
                     _integer, _no_overflow)
from .events import EventStream

NormalizeMode = Literal["none", "per_channel_max", "log1p"]
ViewKind = Literal["hw", "tw", "th"]

_NORMALIZE_MODES = ("none", "per_channel_max", "log1p")
_VIEW_KINDS = ("hw", "tw", "th")
_CHUNK = 2 ** 16  # events per chunk of whole time rows


@_no_overflow
def phi(x, w_sensor: int):
    """Transverse spatial embedding sin(pi * x / w_sensor).

    Takes real scalars or arrays, empty ones too: 0 at the left sensor edge,
    1 at midwidth. A w_sensor not an integer >= 1 is `ConfigInvalid`; x is
    checked as `errors._checked` does, and an x overflowing pi * x `NonFinite`.
    """
    w_sensor = _integer("w_sensor", w_sensor, ConfigInvalid)
    return np.sin(np.pi * _checked("x", x, np.float64, None) / w_sensor)


@dataclass(frozen=True)
class EncodeConfig:
    """Binning and normalization settings.

    h_bins / w_bins of None resolve to the sensor extents at encode time.
    """

    t_bins: int = 224
    h_bins: int | None = None
    w_bins: int | None = None
    normalize: NormalizeMode = "none"

    def __post_init__(self):
        for name in ("t_bins", "h_bins", "w_bins"):
            value = getattr(self, name)
            if value is not None or name == "t_bins":  # only h_bins, w_bins may be None
                object.__setattr__(self, name, _integer(name, value, ConfigInvalid))
        if self.normalize not in _NORMALIZE_MODES:
            raise ConfigInvalid(
                f"normalize must be one of {_NORMALIZE_MODES}, got {self.normalize!r}"
            )

    def resolved(self, geometry: tuple[int, int]) -> "EncodeConfig":
        """Replace None bin counts with the sensor extents."""
        w, h = geometry
        return replace(self, h_bins=self.h_bins or h, w_bins=self.w_bins or w)


@dataclass(frozen=True)
class ChsrTensor:
    """3 x t_bins x h_bins tensor (positive density, negative density,
    holographic map), the count of dropped out-of-geometry events, and the
    resolved config it was produced with."""

    data: np.ndarray
    dropped: int
    config: EncodeConfig


@dataclass(frozen=True)
class ViewTensor:
    """2-channel (positive, negative) density projection onto one plane."""

    view: ViewKind
    data: np.ndarray
    dropped: int
    config: EncodeConfig


def _normalize(data: np.ndarray, mode: str) -> np.ndarray:
    """Normalize freshly binned planes in place; returns them."""
    if mode == "per_channel_max":
        for ch in data:
            m = np.abs(ch).max()
            if m > 0:
                ch /= m
    elif mode == "log1p":  # channels are non-negative counts / phi sums
        np.log1p(data, out=data)
    return data


def _outside(v: np.ndarray, extent: int, source: np.ndarray) -> bool:
    """Whether some value of v, a copy of values of `source`, lies outside
    [0, extent); only a signed source can hold one below 0."""
    return bool(v.max() >= extent) or (source.dtype.kind == "i" and bool(v.min() < 0))


def _scaled(v: np.ndarray, bins: int, extent: int) -> np.ndarray:
    """floor(v * bins / extent): v itself when bins equal extent, else a new
    int64 array, widened before any arithmetic."""
    if bins == extent:
        return v
    b = v.astype(np.int64)
    b *= bins
    b //= extent
    return b


def _histograms(stream, rows_of, row_bins, cols_of, col_bins, with_phi):
    """Bin the stream into a (pos, neg[, phi]) x row_bins x col_bins array;
    returns it and the count of dropped out-of-geometry events."""
    w, h = stream.geometry
    planes = 3 if with_phi else 2
    # the planes' bytes must fit int64, and so the 2 * rows * cols polarity keys
    _integer(f"bytes of {planes} x {row_bins} x {col_bins} float64 planes",
             planes * 8 * row_bins * col_bins, TooLarge, 1, _INT64_MAX)
    if rows_of == "t":  # the sorted stream, and where each time row starts in it
        stream, edges = stream.time_bins(row_bins)
    ev = stream.events
    x, y, p = ev.x, ev.y, ev.p
    n = len(ev)
    out = np.zeros((planes, row_bins, col_bins))
    # a W-entry table when events outnumber columns; bit-identical either way
    phi_table = phi(np.arange(w), w) if with_phi and n >= w else None
    # chunks (a, b, lo, hi): events lo:hi fill rows a:b
    if rows_of == "y":  # every chunk of _CHUNK events adds into all rows
        chunks = [(0, row_bins, lo, min(lo + _CHUNK, n)) for lo in range(0, n, _CHUNK)]
    else:  # whole time rows, at most _CHUNK events unless one row holds more
        chunks, a = [], 0
        while a < row_bins:
            b = max(a + 1, int(np.searchsorted(edges, edges[a] + _CHUNK, side="right")) - 1)
            chunks.append((a, b, int(edges[a]), int(edges[b])))
            a = b

    def add(a, b, lo, hi):
        """Bin events lo:hi into out's rows a:b; returns how many it dropped."""
        # phi_table[xs] gathers 3x faster with an intp xs than with u16; the
        # views keep x's own dtype, as an intp one would raise their peaks
        xs = np.empty(hi - lo, dtype=np.intp if with_phi else x.dtype)
        np.copyto(xs, x[lo:hi])
        ys, ps = np.ascontiguousarray(y[lo:hi]), np.ascontiguousarray(p[lo:hi])
        inb = slice(None)  # every event, until some fall outside the geometry
        if _outside(xs, w, x) or _outside(ys, h, y):
            inb = (xs >= 0) & (xs < w) & (ys >= 0) & (ys < h)
            xs, ys, ps = xs[inb], ys[inb], ps[inb]
        if with_phi:
            phi_x = phi(xs, w) if phi_table is None else phi_table[xs]
        cols = _scaled(ys, col_bins, h) if cols_of == "y" else _scaled(xs, col_bins, w)
        del xs  # freed before the row offsets, so its 8 bytes per event never meet theirs
        cells = (b - a) * col_bins
        if rows_of == "y":  # row * col_bins of each event, as a fresh int64 array
            cell = np.multiply(_scaled(ys, row_bins, h), col_bins, dtype=np.int64)
        else:
            cell = np.repeat(np.arange(0, cells, col_bins), np.diff(edges[a:b + 1]))[inb]
        cell += cols
        if with_phi:
            out[2, a:b] = np.bincount(cell, weights=phi_x, minlength=cells).reshape(b - a, -1)
            del phi_x  # freed before the polarity masks, so they never add to its 8 bytes per event
        neg = ps == -1
        signed = neg | (ps == 1)
        if rows_of == "y":  # a chunk of the HW view adds its counts into the planes
            cell += neg * cells
            np.add.at(out.reshape(-1), cell if signed.all() else cell[signed], 1.0)
            return hi - lo - len(ps)
        # One count over (cell, polarity) keys, made in place from the cells:
        # even = positive, odd = negative.
        key = cell
        key *= 2
        key += neg.view(np.int8)
        if not signed.all():
            key = key[signed]
        counts = np.bincount(key, minlength=2 * cells).reshape(b - a, col_bins, 2)
        out[0, a:b] = counts[..., 0]
        out[1, a:b] = counts[..., 1]
        return hi - lo - len(ps)

    return out, sum(add(*c) for c in chunks if c[3] > c[2])


def encode_chsr(stream: EventStream, config: EncodeConfig | None = None,
                workers: int = 1) -> ChsrTensor:
    """Encode a stream into the 3-channel time-height tensor.

    The stream is normalized, then binned in chunks of whole time rows.
    Channel 0/1 count positive/negative events per (time bin, height bin)
    cell; channel 2 accumulates phi(x) over all in-geometry events
    regardless of polarity. An empty stream yields the all-zero tensor
    with dropped = 0. `workers` must be an integer >= 1 and leaves the result
    unchanged: the encoder runs in one thread, as splitting the stream
    across threads is not faster.
    Raises `TooLarge` when (duration + 1) * t_bins, or the byte size of
    the 3 * t_bins * h_bins float64 tensor, overflows int64.
    """
    _integer("workers", workers, ConfigInvalid)
    cfg = (config or EncodeConfig()).resolved(stream.geometry)
    planes, dropped = _histograms(stream, "t", cfg.t_bins, "y", cfg.h_bins, True)
    data = _normalize(planes, cfg.normalize)
    return ChsrTensor(data=data, dropped=dropped, config=cfg)


def encode_throughput(stream: EventStream, repeats: int, workers: int = 1) -> dict:
    """Time encode_chsr (default config) over `repeats` runs and summarize.

    events_per_sec is derived from the mean wall time, so the two timing
    fields and the rate are mutually consistent. `workers` must be an
    integer >= 1 and leaves the result unchanged.
    """
    repeats = _integer("repeats", repeats, SpecInvalid)
    samples_ms = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        encode_chsr(stream, workers=workers)
        samples_ms.append((time.perf_counter() - t0) * 1e3)
    mean_ms = float(np.mean(samples_ms))
    return {
        "events": len(stream),
        "repeats": repeats,
        "encode_chsr_mean_ms": mean_ms,
        "encode_chsr_p95_ms": float(np.percentile(samples_ms, 95)),
        "events_per_sec": len(stream) / (mean_ms / 1e3) if mean_ms > 0 else 0.0,
    }


def encode_view(stream: EventStream, view: ViewKind,
                config: EncodeConfig | None = None) -> ViewTensor:
    """Encode the 2-channel polarity density projection onto one plane.

    TW and TH normalize the stream, then bin it in chunks, as `encode_chsr`
    does; TH equals its channels 0-1 under the same config. HW bins the
    stream as it is.
    """
    if view not in _VIEW_KINDS:
        raise ConfigInvalid(f"view must be one of {_VIEW_KINDS}, got {view!r}")
    cfg = (config or EncodeConfig()).resolved(stream.geometry)
    axes = {
        "hw": ("y", cfg.h_bins, "x", cfg.w_bins),
        "tw": ("t", cfg.t_bins, "x", cfg.w_bins),
        "th": ("t", cfg.t_bins, "y", cfg.h_bins),
    }[view]
    planes, dropped = _histograms(stream, *axes, False)
    data = _normalize(planes, cfg.normalize)
    return ViewTensor(view=view, data=data, dropped=dropped, config=cfg)


@_no_overflow
def export_channel_image(tensor: ChsrTensor | ViewTensor, channel: int) -> bytes:
    """Render one channel as an 8-bit binary PGM (P5), min-max normalized.

    A zero-range channel exports an all-zero image of the same dimensions. A
    channel holding NaN or Inf, or whose range overflows float64, is
    `NonFinite`.
    """
    data = tensor.data
    ch = data[_integer("channel", channel, ChannelOutOfRange, 0, data.shape[0] - 1)]
    ch = _checked(f"channel {channel}", ch, None, None)
    rows, cols = ch.shape
    lo, hi = float(ch.min()), float(ch.max())
    img = np.rint((ch - lo) / ((hi - lo) or 1.0) * 255.0).astype(np.uint8)  # zero range: all 0
    header = f"P5\n{cols} {rows}\n255\n".encode("ascii")
    return header + img.tobytes()
