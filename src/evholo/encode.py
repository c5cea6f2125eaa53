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

Each encoder makes one vectorized pass over the stream's int64 columns:
phi is looked up in a W-entry table, both polarity counts come from one
`bincount`, and the holographic channel from one weighted `bincount` in
event order, so the output does not depend on the worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

from .errors import ChannelOutOfRange, ConfigInvalid, TooLarge
from .events import EventStream

NormalizeMode = Literal["none", "per_channel_max", "log1p"]
ViewKind = Literal["hw", "tw", "th"]

_NORMALIZE_MODES = ("none", "per_channel_max", "log1p")
_VIEW_KINDS = ("hw", "tw", "th")
_INT64_MAX = int(np.iinfo(np.int64).max)


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
            if value is not None and value < 1:
                raise ConfigInvalid(f"{name} must be >= 1, got {value}")
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


def _histograms(stream, rows_of, row_bins, cols_of, col_bins, with_phi,
                workers):
    """Bin the stream once into (pos, neg[, phi]) planes of row_bins x col_bins.

    `workers` is validated and otherwise ignored: one vectorized pass is
    faster than splitting the stream, and every channel is bit-identical
    for any worker count.
    """
    if workers < 1:
        raise ConfigInvalid(f"workers must be >= 1, got {workers}")
    w, h = stream.geometry
    ev = stream.events
    x, y, t, p = ev.x, ev.y, ev.t, ev.p
    t_min = int(t.min()) if len(t) else 0
    duration = int(t.max()) - t_min if len(t) else 0
    # Viewed as uint64, negative coordinates exceed any bound, so one
    # comparison per axis covers both ends.
    ux, uy = x.view(np.uint64), y.view(np.uint64)
    dropped = 0
    if len(x) and (ux.max() >= w or uy.max() >= h):
        inb = (ux < w) & (uy < h)
        dropped = len(x) - int(np.count_nonzero(inb))
        x, y, t, p = x[inb], y[inb], t[inb], p[inb]

    def axis_bin(which, bins):
        if which == "t":
            if (duration + 1) * bins > _INT64_MAX:
                raise TooLarge(
                    f"(duration + 1) * t_bins = {(duration + 1) * bins} "
                    f"overflows int64 temporal binning"
                )
            shifted = t - t_min if t_min else t
            return (shifted * bins) // (duration + 1)
        v, extent = (y, h) if which == "y" else (x, w)
        return v if bins == extent else (v * bins) // extent

    size = row_bins * col_bins
    # 2 * size (cell, polarity) int64 counts: keys and byte size must fit int64
    if 16 * size > _INT64_MAX:
        raise TooLarge(
            f"{row_bins} x {col_bins} bins: {16 * size} bytes of counts overflow int64"
        )
    flat = axis_bin(rows_of, row_bins) * col_bins + axis_bin(cols_of, col_bins)
    # One count over (cell, polarity) keys: even = positive, odd = negative.
    neg = p == -1
    key = flat * 2 + neg
    signed = neg | (p == 1)
    if not signed.all():
        key = key[signed]
    counts = np.bincount(key, minlength=2 * size).reshape(size, 2).T
    planes = [counts[0].astype(np.float64), counts[1].astype(np.float64)]
    if with_phi:
        phi_x = phi(np.arange(w), w)[x]  # W-entry table, bit-identical to phi(x, w)
        planes.append(np.bincount(flat, weights=phi_x, minlength=size))
    return [plane.reshape(row_bins, col_bins) for plane in planes], dropped


def encode_chsr(stream: EventStream, config: EncodeConfig | None = None,
                workers: int = 1) -> ChsrTensor:
    """Encode a normalized stream into the 3-channel time-height tensor.

    Channel 0/1 count positive/negative events per (time bin, height bin)
    cell; channel 2 accumulates phi(x) over all in-geometry events
    regardless of polarity. An empty stream yields the all-zero tensor
    with dropped = 0. `workers` must be >= 1 and leaves the result
    unchanged. Raises `TooLarge` when (duration + 1) * t_bins, or the byte
    size of 2 * t_bins * h_bins int64 counts, overflows int64.
    """
    cfg = (config or EncodeConfig()).resolved(stream.geometry)
    planes, dropped = _histograms(
        stream, "t", cfg.t_bins, "y", cfg.h_bins, True, workers
    )
    data = _normalize(np.stack(planes), cfg.normalize)
    return ChsrTensor(data=data, dropped=dropped, config=cfg)


def encode_view(stream: EventStream, view: ViewKind,
                config: EncodeConfig | None = None,
                workers: int = 1) -> ViewTensor:
    """Encode the 2-channel polarity density projection onto one plane.

    The TH view equals channels 0-1 of `encode_chsr` under the same config.
    """
    view = view.lower()
    if view not in _VIEW_KINDS:
        raise ConfigInvalid(f"view must be one of {_VIEW_KINDS}, got {view!r}")
    cfg = (config or EncodeConfig()).resolved(stream.geometry)
    axes = {
        "hw": ("y", cfg.h_bins, "x", cfg.w_bins),
        "tw": ("t", cfg.t_bins, "x", cfg.w_bins),
        "th": ("t", cfg.t_bins, "y", cfg.h_bins),
    }[view]
    planes, dropped = _histograms(stream, *axes, False, workers)
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
