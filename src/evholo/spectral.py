"""Real-input 2D spectra and dominant-frequency estimation.

`rfft2` / `irfft2` wrap the standard FFT with the shape bookkeeping this
package relies on (half-spectrum column count = cols // 2 + 1, and the
inverse always told the true column count so odd widths round-trip).
`dft2_oracle` is an independent direct evaluation of the same transform,
kept deliberately slow and size-capped; it exists so the fast path can be
checked against something that shares no code with it. Arrays come in
through `errors._checked`, and each entry runs under `errors._no_overflow`.
"""

from __future__ import annotations

__all__ = [
    "DominantFrequency",
    "RateSeries",
    "Spectrum",
    "dft2_oracle",
    "dominant_frequency",
    "event_rate_series",
    "irfft2",
    "rate_spectrum",
    "rfft2",
]

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (BadBin, ShapeMismatch, SpecInvalid, TooLarge, TooShort, _checked,
                     _int64_column, _integer, _no_overflow, _positive)
from .events import EventStream

#: dft2_oracle refuses inputs with more elements than this.
ORACLE_MAX_ELEMENTS = 4096

#: dominant_frequency needs at least this many rate bins.
MIN_SPECTRUM_BINS = 4

#: Peaks below this post-window magnitude are reported as "no dominant tone".
FLAT_SPECTRUM_FLOOR = 1e-9


def half_cols(cols: int) -> int:
    """Number of retained columns in a real-input half spectrum."""
    return cols // 2 + 1


def half_spectrum_weights(cols: int) -> np.ndarray:
    """Half-spectrum column multiplicities: 1 for column 0 (and cols // 2
    if cols is even), 2 for columns that also stand for a discarded mirror.

    Parseval: sum(weights * |rfft2(x)|**2) / (rows * cols) == sum(x**2).
    """
    weights = np.full(half_cols(cols), 2.0)
    weights[0] = 1.0
    if cols % 2 == 0:
        weights[-1] = 1.0
    return weights


@_no_overflow
def rfft2(x) -> np.ndarray:
    """Half-spectrum 2D DFT of a real array: shape (rows, cols // 2 + 1)."""
    return np.fft.rfft2(_checked("input", x, np.float64, (None, None)))


@_no_overflow
def irfft2(z, cols: int) -> np.ndarray:
    """Invert a half spectrum back to a real (rows, cols) array.

    `cols` is the true width of the original array; it cannot be inferred
    from the half spectrum when the width parity is unknown.
    """
    cols = _integer("cols", cols, ShapeMismatch)
    a = _checked(f"half spectrum for cols={cols}", z, np.complex128, (None, half_cols(cols)))
    return np.fft.irfft2(a, s=(a.shape[0], cols))


@_no_overflow
def dft2_oracle(x) -> np.ndarray:
    """Direct double-sum DFT, truncated to the half spectrum.

    X[k1, k2] = sum_{n1, n2} x[n1, n2] * exp(-2j*pi*(k1*n1/R + k2*n2/C))
    for k2 = 0 .. C // 2. Quadratic cost, so inputs are capped at
    ORACLE_MAX_ELEMENTS elements.
    """
    a = _checked("input", x, np.float64, (None, None))
    rows, cols = a.shape
    _integer("oracle input elements", a.size, TooLarge, 1, ORACLE_MAX_ELEMENTS)
    n1 = np.arange(rows)[:, None]
    n2 = np.arange(cols)[None, :]
    out = np.empty((rows, half_cols(cols)), dtype=np.complex128)
    for k1 in range(rows):
        for k2 in range(half_cols(cols)):
            phase = -2j * np.pi * (k1 * n1 / rows + k2 * n2 / cols)
            out[k1, k2] = (a * np.exp(phase)).sum()
    return out


@dataclass(frozen=True)
class RateSeries:
    """Event counts per fixed-width time bin."""

    bin_dt: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bin_dt", _positive("bin_dt", self.bin_dt, BadBin))
        v = _int64_column("values", self.values)
        if v.ndim != 1:
            raise ShapeMismatch(f"values must be 1D, got shape {v.shape}")
        if v.size and v.min() < 0:
            raise SpecInvalid("rate series values must be non-negative")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return len(self.values)

    @_no_overflow
    def times(self) -> np.ndarray:
        """Left edge of each bin, in seconds."""
        return np.arange(len(self.values)) * self.bin_dt


@dataclass(frozen=True)
class Spectrum:
    """Magnitude spectrum with uniform frequency resolution df (Hz/bin)."""

    df: float
    magnitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "df", _positive("df", self.df, BadBin))
        object.__setattr__(self, "magnitudes",
                           _checked("magnitudes", self.magnitudes, np.float64, (None,)))

    @_no_overflow
    def frequencies(self) -> np.ndarray:
        return np.arange(len(self.magnitudes)) * self.df


class DominantFrequency(NamedTuple):
    f_peak: float
    magnitude: float


@_no_overflow
def event_rate_series(stream: EventStream, bin_dt: float) -> RateSeries:
    """Histogram a stream's timestamps into bins of bin_dt seconds.

    The stream is normalized first, so an unsorted one is sorted (as by
    `encode_chsr`) and a span beyond int64 is `TooLarge`. The bin index is
    floor(t / bin_dt) of the normalized t, in seconds, and the final event
    (exactly at the duration boundary) is clamped into the last bin so the
    series always sums to the event count. Empty streams give a single
    zero bin. Raises `TooLarge` beyond max(2**16, 64 * events) bins.
    """
    bin_dt = _positive("bin_dt", bin_dt, BadBin)
    if len(stream) == 0:
        return RateSeries(bin_dt=bin_dt, values=np.zeros(1, dtype=np.int64))
    t = stream.normalized().events.t  # sorted, from 0
    bins = int(t[-1]) / 1e6 / bin_dt
    if not bins <= max(2 ** 16, 64 * len(t)):  # beyond it, mostly empty bins
        raise TooLarge(f"{bins:.3g} rate bins for {len(t)} events, beyond max(2**16, 64 per event)")
    n = max(1, int(np.ceil(bins)))
    idx = np.floor(t / 1e6 / bin_dt).astype(np.int64)
    np.clip(idx, 0, n - 1, out=idx)
    return RateSeries(bin_dt=bin_dt, values=np.bincount(idx, minlength=n))


@_no_overflow
def rate_spectrum(series: RateSeries) -> Spectrum:
    """Hann-windowed magnitude spectrum of the mean-subtracted rate series."""
    n = len(series)
    _integer("rate bins", n, TooShort, MIN_SPECTRUM_BINS)
    x = series.values.astype(np.float64)
    x -= x.mean()
    mags = np.abs(np.fft.rfft(x * np.hanning(n)))
    return Spectrum(df=1.0 / (series.bin_dt * n), magnitudes=mags)


@_no_overflow
def dominant_frequency(series: RateSeries) -> DominantFrequency | None:
    """Strongest positive-frequency tone in a rate series, or None if flat.

    The peak bin is refined by parabolic interpolation on the magnitude
    triple around it: delta = (alpha - gamma) / (2 * (alpha - 2*beta + gamma)),
    clamped to [-1/2, 1/2]. Bins at the spectrum edge are not refined.
    """
    spec = rate_spectrum(series)
    m = spec.magnitudes
    k = 1 + int(np.argmax(m[1:]))
    beta = m[k]
    if beta < FLAT_SPECTRUM_FLOOR:
        return None
    delta = 0.0
    mag = float(beta)
    if 1 <= k < len(m) - 1:
        alpha, gamma = m[k - 1], m[k + 1]
        denom = alpha - 2.0 * beta + gamma
        if denom != 0.0:
            delta = float(np.clip((alpha - gamma) / (2.0 * denom), -0.5, 0.5))
            mag = float(beta - 0.25 * (alpha - gamma) * delta)
    return DominantFrequency(f_peak=(k + delta) * spec.df, magnitude=mag)
