"""Encoders from event streams to dense spatiotemporal tensors.

The primary encoding is a 3-channel time-height tensor: per-polarity event
density maps plus a holographic map that folds the horizontal coordinate in
through the transverse embedding phi(x) = sin(pi * x / W). Single-plane
2-channel density projections (HW, TW, TH) are provided for comparison.

Binning rules (shared by all encoders):

    temporal bin = floor((t - t_min) * t_bins / (duration + 1))
    height bin   = floor(y * h_bins / H_sensor)
    width bin    = floor(x * w_bins / W_sensor)

One rule for time rows: the CHSR, TW and TH encoders normalize the stream
(stable sort by t and shift to t_min = 0, which a parsed HEVS t defers), then
bin it in chunks, so any event order encodes like its stable sort. The +1 on
duration lets the final event land in the last bin without a special case.
Out-of-geometry events are dropped and counted, never clamped. A stream whose
(duration + 1) * t_bins, or a tensor whose float64 planes in bytes, does not
fit int64 raises `TooLarge`. Every bin is widened to int64 before any
arithmetic (under NEP 50 a uint16 column times an int stays uint16 and wraps).

In the sorted stream each time row is a contiguous slice; all row thresholds
plus t_min are bisected at once over the raw t, which reads a few values per
row where `searchsorted` would copy a parsed stream's strided t whole. Chunks
(a, b, lo, hi), events lo:hi filling rows a:b, are planned up front: whole time
rows grouped up to 2**16 events (a row with more is a chunk of its own), or for
the HW view, which has no time axis, 2**16 events of the stream as it is over
all rows. One loop bins every chunk: it copies x, y and p contiguous (a parsed
stream's are strided views of its records), drops out-of-geometry events,
gathers phi, takes the column bins, frees x, and only then builds the row
offsets and fills the chunk's rows, so temporaries are sized by the chunk.
The CHSR copies x into intp, as the phi gather runs 3x faster on an intp
index than on uint16; freeing it before the row offsets keeps the call peak
where the uint16 copy had it. The views, with no phi, keep x's own dtype.
No time-row cell spans two chunks, so the holographic channel (a weighted
`bincount` in event order, phi from a W-entry table, or per event when
events are fewer than W) sums each cell as one pass would, bit-identically.
Counts keep two accumulates, each faster and smaller for its rows: time rows
one `bincount` over (cell, polarity) keys made in place on the cell index,
the polarity mask added as int8 (1.6x faster than `np.add.at`); HW
`np.add.at` into the whole planes (a full-plane `bincount` per chunk took 1M
events 10.2 -> 13.2 ms, 3.0 -> 5.7 MB).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

from .errors import ChannelOutOfRange, ConfigInvalid, TooLarge
from .events import _INT64_MAX, EventStream, _integer
from .spectral import _checked, _no_overflow

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
    checked as `spectral._checked` does, and an x overflowing pi * x `NonFinite`.
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


def _outside(v: np.ndarray, extent: int) -> bool:
    """Whether some value of v lies outside [0, extent)."""
    return bool(v.max() >= extent) or (v.dtype.kind == "i" and bool(v.min() < 0))


def _scaled(v: np.ndarray, bins: int, extent: int) -> np.ndarray:
    """floor(v * bins / extent): v itself when bins equal extent, else a new
    int64 array, widened before any arithmetic."""
    if bins == extent:
        return v
    b = v.astype(np.int64)
    b *= bins
    b //= extent
    return b


def _row_edges(t: np.ndarray, t0: int, span: int, row_bins: int) -> np.ndarray:
    """Where each temporal row starts in sorted t, plus len(t) at the end.

    Row r starts at the first event with t - t0 >= ceil(r * span / row_bins).
    Only rows 1..row_bins-1 are searched, and only those whose threshold is
    at most t_max - t0: the others start at len(t). All thresholds + t0 are
    bisected at once over the raw t, so each step reads one value per row of
    a strided view (searchsorted would copy it whole): the edges equal
    ``searchsorted(t, thr + t0, side="left")``.
    """
    thr = np.arange(1, row_bins, dtype=np.int64)
    thr *= span
    thr = -(-thr // row_bins)
    thr = thr[:np.searchsorted(thr, span - 1, side="right")]
    thr += t0  # every threshold is at most t_max, so it fits
    n = len(t)
    below = np.zeros(len(thr), dtype=np.int64)  # events known to lie below each threshold
    for k in reversed(range(n.bit_length())):
        step = np.minimum(below + (1 << k), n)
        below = np.where(t[step - 1] < thr, step, below)
    edges = np.full(row_bins + 1, n, dtype=np.int64)
    edges[0] = 0
    edges[1:1 + len(thr)] = below
    return edges


def _histograms(stream, rows_of, row_bins, cols_of, col_bins, with_phi):
    """Bin the stream into a (pos, neg[, phi]) x row_bins x col_bins array;
    returns it and the count of dropped out-of-geometry events."""
    w, h = stream.geometry
    planes = 3 if with_phi else 2
    # the planes' bytes must fit int64, and so the 2 * rows * cols polarity keys
    _integer(f"bytes of {planes} x {row_bins} x {col_bins} float64 planes",
             planes * 8 * row_bins * col_bins, TooLarge, 1, _INT64_MAX)
    if rows_of == "t":
        stream = stream.normalized()
        t, t0 = stream.events._t  # t - t0 starts at 0; t0 is 0 once t is shifted
        span = int(t[-1]) - t0 + 1 if len(t) else 1  # duration + 1
        _integer("(duration + 1) * t_bins", span * row_bins, TooLarge, 1, _INT64_MAX)
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
        edges = _row_edges(t, t0, span, row_bins)
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
        if _outside(xs, w) or _outside(ys, h):
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


def export_channel_image(tensor: ChsrTensor | ViewTensor, channel: int) -> bytes:
    """Render one channel as an 8-bit binary PGM (P5), min-max normalized.

    A zero-range channel exports an all-zero image of the same dimensions.
    """
    data = tensor.data
    ch = data[_integer("channel", channel, ChannelOutOfRange, 0, data.shape[0] - 1)]
    rows, cols = ch.shape
    lo, hi = float(ch.min()), float(ch.max())
    img = np.rint((ch - lo) / ((hi - lo) or 1.0) * 255.0).astype(np.uint8)  # zero range: all 0
    header = f"P5\n{cols} {rows}\n255\n".encode("ascii")
    return header + img.tobytes()
