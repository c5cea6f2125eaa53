"""Encoders from event streams to dense spatiotemporal tensors.

The primary encoding is a 3-channel time-height tensor: per-polarity event
density maps plus a holographic map that folds the horizontal coordinate in
through the transverse embedding phi(x) = sin(pi * x / W). Single-plane
2-channel density projections (HW, TW, TH) are provided for comparison.

Binning rules (shared by all encoders):

    temporal bin = floor((t - t_min) * t_bins / (duration + 1))
    height bin   = floor(y * h_bins / H_sensor)
    width bin    = floor(x * w_bins / W_sensor)

For normalized streams t_min is 0 and the temporal rule reduces to
floor(t * t_bins / (duration + 1)); subtracting t_min makes encoding
shift-invariant for sub-streams extracted from a larger one. The +1 on
duration lets the final event land in the last bin without a special
case. Out-of-geometry events are dropped and counted, never clamped.
Temporal bins are computed exactly in int64; a stream whose
(duration + 1) * t_bins does not fit raises `TooLarge`, and so does a
plane whose 2 * rows * cols int64 counts do not fit int64 in bytes.

Each encoder makes one vectorized pass over the stream's columns, of
whatever integer dtype: every bin is computed in one int64 array, widened
before any arithmetic (under NEP 50 a uint16 column times an int stays
uint16 and wraps), and the cell index is built in place. phi is looked up
in a W-entry table (computed per event when there are fewer events than
W), the holographic channel comes from one weighted `bincount` in event
order, and both polarity counts from one more `bincount` over keys built in
place on the cell index.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

from .errors import ChannelOutOfRange, ConfigInvalid, TooLarge
from .events import _INT64_MAX, EventStream, _positive_ints

NormalizeMode = Literal["none", "per_channel_max", "log1p"]
ViewKind = Literal["hw", "tw", "th"]

_NORMALIZE_MODES = ("none", "per_channel_max", "log1p")
_VIEW_KINDS = ("hw", "tw", "th")


def phi(x, w_sensor: int):
    """Transverse spatial embedding sin(pi * x / w_sensor).

    Accepts scalars or arrays; 0 at the left sensor edge, 1 at midwidth,
    symmetric about it.
    """
    return np.sin(np.pi * np.asarray(x, dtype=np.float64) / w_sensor)


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
        for name, value in (("t_bins", self.t_bins), ("h_bins", self.h_bins),
                            ("w_bins", self.w_bins)):
            if value is not None and not _positive_ints(value):
                raise ConfigInvalid(f"{name} must be an integer >= 1, got {value!r}")
        if self.normalize not in _NORMALIZE_MODES:
            raise ConfigInvalid(
                f"normalize must be one of {_NORMALIZE_MODES}, got {self.normalize!r}"
            )

    def resolved(self, geometry: tuple[int, int]) -> "EncodeConfig":
        """Replace None bin counts with the sensor extents."""
        w, h = geometry
        return replace(
            self,
            h_bins=self.h_bins if self.h_bins is not None else h,
            w_bins=self.w_bins if self.w_bins is not None else w,
        )


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
    if mode == "none":
        return data
    if mode == "per_channel_max":
        out = data.copy()
        for ch in out:
            m = np.abs(ch).max()
            if m > 0:
                ch /= m
        return out
    # log1p: channels are non-negative counts / phi sums
    return np.log1p(data)


def _outside(v: np.ndarray, extent: int) -> bool:
    """Whether some value of v lies outside [0, extent)."""
    return bool(v.max() >= extent) or (v.dtype.kind == "i" and bool(v.min() < 0))


def _histograms(stream, rows_of, row_bins, cols_of, col_bins, with_phi):
    """Bin the stream once into (pos, neg[, phi]) planes of row_bins x col_bins."""
    w, h = stream.geometry
    ev = stream.events
    x, y, t, p = ev.x, ev.y, ev.t, ev.p
    t_min = int(t.min()) if len(t) else 0
    duration = int(t.max()) - t_min if len(t) else 0
    dropped = 0
    if len(x) and (_outside(x, w) or _outside(y, h)):
        inb = (x >= 0) & (x < w) & (y >= 0) & (y < h)
        dropped = len(x) - int(np.count_nonzero(inb))
        x, y, t, p = x[inb], y[inb], t[inb], p[inb]

    def axis_bin(which, bins, fresh=False):
        """The bins of one axis: the column itself when they equal it and
        not `fresh`, else a new int64 array, widened before any arithmetic."""
        if which == "t":
            if (duration + 1) * bins > _INT64_MAX:
                raise TooLarge(
                    f"(duration + 1) * t_bins = {(duration + 1) * bins} "
                    f"overflows int64 temporal binning"
                )
            b = t.astype(np.int64)
            if t_min:
                b -= t_min
            b *= bins
            b //= duration + 1
            return b
        v, extent = (y, h) if which == "y" else (x, w)
        if bins == extent and not fresh:
            return v
        b = v.astype(np.int64)
        if bins != extent:
            b *= bins
            b //= extent
        return b

    size = row_bins * col_bins
    # 2 * size (cell, polarity) int64 counts: keys and byte size must fit int64
    if 16 * size > _INT64_MAX:
        raise TooLarge(
            f"{row_bins} x {col_bins} bins: {16 * size} bytes of counts overflow int64"
        )
    flat = axis_bin(rows_of, row_bins, fresh=True)
    flat *= col_bins
    flat += axis_bin(cols_of, col_bins)
    if with_phi:
        # a W-entry table when events outnumber columns; bit-identical either way
        phi_x = phi(x, w) if len(x) < w else phi(np.arange(w), w)[x]
        phi_plane = np.bincount(flat, weights=phi_x, minlength=size)
        del phi_x  # freed before the polarity masks, so they never add to its 8 bytes per event
    # One count over (cell, polarity) keys, made in place from the cells:
    # even = positive, odd = negative.
    neg = p == -1
    signed = neg | (p == 1)
    key = flat
    key *= 2
    key += neg
    if not signed.all():
        key = key[signed]
    counts = np.bincount(key, minlength=2 * size).reshape(size, 2).T
    planes = [counts[0].astype(np.float64), counts[1].astype(np.float64)]
    if with_phi:
        planes.append(phi_plane)
    return [plane.reshape(row_bins, col_bins) for plane in planes], dropped


def encode_chsr(stream: EventStream, config: EncodeConfig | None = None,
                workers: int = 1) -> ChsrTensor:
    """Encode a normalized stream into the 3-channel time-height tensor.

    Channel 0/1 count positive/negative events per (time bin, height bin)
    cell; channel 2 accumulates phi(x) over all in-geometry events
    regardless of polarity. An empty stream yields the all-zero tensor
    with dropped = 0. `workers` must be >= 1 and leaves the result
    unchanged: one vectorized pass is faster than splitting the stream.
    Raises `TooLarge` when (duration + 1) * t_bins, or the byte size of
    2 * t_bins * h_bins int64 counts, overflows int64.
    """
    if workers < 1:
        raise ConfigInvalid(f"workers must be >= 1, got {workers}")
    cfg = (config or EncodeConfig()).resolved(stream.geometry)
    planes, dropped = _histograms(stream, "t", cfg.t_bins, "y", cfg.h_bins, True)
    data = _normalize(np.stack(planes), cfg.normalize)
    return ChsrTensor(data=data, dropped=dropped, config=cfg)


def encode_view(stream: EventStream, view: ViewKind,
                config: EncodeConfig | None = None) -> ViewTensor:
    """Encode the 2-channel polarity density projection onto one plane.

    The TH view equals channels 0-1 of `encode_chsr` under the same config.
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
    data = _normalize(np.stack(planes), cfg.normalize)
    return ViewTensor(view=view, data=data, dropped=dropped, config=cfg)


def export_channel_image(tensor: ChsrTensor | ViewTensor, channel: int) -> bytes:
    """Render one channel as an 8-bit binary PGM (P5), min-max normalized.

    A zero-range channel exports an all-zero image of the same dimensions.
    """
    data = tensor.data
    if not 0 <= channel < data.shape[0]:
        raise ChannelOutOfRange(
            f"channel {channel} outside 0..{data.shape[0] - 1}"
        )
    ch = data[channel]
    rows, cols = ch.shape
    lo, hi = float(ch.min()), float(ch.max())
    if hi > lo:
        img = np.rint((ch - lo) / (hi - lo) * 255.0).astype(np.uint8)
    else:
        img = np.zeros((rows, cols), dtype=np.uint8)
    header = f"P5\n{cols} {rows}\n255\n".encode("ascii")
    return header + img.tobytes()
