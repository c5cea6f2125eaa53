"""Real-input 2D spectra and dominant-frequency estimation.

`rfft2` / `irfft2` wrap the standard FFT with the shape bookkeeping this
package relies on (half-spectrum column count = cols // 2 + 1, and the
inverse always told the true column count so odd widths round-trip).
`dft2_oracle` is an independent direct evaluation of the same transform,
kept deliberately slow and size-capped; it exists so the fast path can be
checked against something that shares no code with it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BadBin, NonFinite, ShapeMismatch, SpecInvalid, TooLarge, TooShort
from .events import _INT64_MAX, EventStream, _int64_column

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


def _checked(name: str, value, dtype, shape: tuple | None) -> np.ndarray:
    """`value` as a non-empty `dtype` array of `shape` (None: any extent; a None
    shape: any array, empty too), else `ShapeMismatch`, as is a ragged sequence; a
    None dtype keeps f32/f64 and makes bool and ints f64. Text, bytes, objects,
    complex into a real dtype: `SpecInvalid`; NaN, Inf: `NonFinite`."""
    try:
        a = np.asarray(value)
    except ValueError:  # NumPy's "inhomogeneous shape"
        raise ShapeMismatch(f"{name} is a ragged nested sequence, not an array") from None
    want = np.dtype(dtype or (a.dtype if a.dtype in (np.float32, np.float64) else np.float64))
    if a.dtype.kind not in ("biufc" if want.kind == "c" else "biuf"):
        raise SpecInvalid(f"{name} must convert to {want}, got dtype {a.dtype}")
    a = a.astype(want, copy=False)
    if shape is not None and (a.size == 0 or a.ndim != len(shape) or any(
            n is not None and n != m for n, m in zip(shape, a.shape))):
        dims = ", ".join("*" if n is None else str(n) for n in shape)
        raise ShapeMismatch(f"{name} must have non-empty shape ({dims}), got {a.shape}")
    if not np.isfinite(a).all():
        raise NonFinite(f"{name} contains NaN or Inf")
    return a


def _no_overflow(entry):
    """Make a float overflow or invalid operation inside `entry` a
    `NonFinite`, instead of an Inf, a NaN or a saturated value in its result."""
    @functools.wraps(entry)
    def run(*args, **kwargs):
        try:
            with np.errstate(over="raise", invalid="raise"):
                return entry(*args, **kwargs)
        except FloatingPointError as e:
            raise NonFinite(f"{entry.__name__}: {e}, input too large") from None
    return run


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
    if a.size > ORACLE_MAX_ELEMENTS:
        raise TooLarge(
            f"oracle input has {a.size} elements, cap is {ORACLE_MAX_ELEMENTS}"
        )
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
        if not self.bin_dt > 0:
            raise BadBin(f"bin_dt must be > 0, got {self.bin_dt}")
        v = _int64_column("values", self.values)
        if v.ndim != 1:
            raise ShapeMismatch(f"values must be 1D, got shape {v.shape}")
        if v.size and v.min() < 0:
            raise SpecInvalid("rate series values must be non-negative")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return len(self.values)

    def times(self) -> np.ndarray:
        """Left edge of each bin, in seconds."""
        return np.arange(len(self.values)) * self.bin_dt


@dataclass(frozen=True)
class Spectrum:
    """Magnitude spectrum with uniform frequency resolution df (Hz/bin)."""

    df: float
    magnitudes: np.ndarray

    def __post_init__(self):
        if not self.df > 0:
            raise BadBin(f"df must be > 0, got {self.df}")
        object.__setattr__(self, "magnitudes",
                           _checked("magnitudes", self.magnitudes, np.float64, (None,)))

    def frequencies(self) -> np.ndarray:
        return np.arange(len(self.magnitudes)) * self.df


class DominantFrequency(NamedTuple):
    f_peak: float
    magnitude: float


def event_rate_series(stream: EventStream, bin_dt: float) -> RateSeries:
    """Histogram a stream's timestamps into bins of bin_dt seconds.

    Bins count from the first timestamp, raw stream or normalized: the bin
    index is floor((t - t_min) / bin_dt), in seconds, with t - t_min exact
    in int64 (a span beyond it is `TooLarge`), and the final event
    (exactly at the duration boundary) is clamped into the last bin so the
    series always sums to the event count. Empty streams give a single
    zero bin. Raises `TooLarge` beyond max(2**16, 64 * events) bins.
    """
    if not bin_dt > 0:
        raise BadBin(f"bin_dt must be > 0, got {bin_dt}")
    if len(stream) == 0:
        return RateSeries(bin_dt=bin_dt, values=np.zeros(1, dtype=np.int64))
    t = stream.events.t
    t_min = int(t.min())
    span = int(t.max()) - t_min
    if span > _INT64_MAX:
        raise TooLarge(f"timestamps span {span} us, beyond int64")
    bins = span / 1e6 / bin_dt
    if not bins <= max(2 ** 16, 64 * len(t)):  # beyond it, mostly empty bins
        raise TooLarge(f"{bins:.3g} rate bins for {len(t)} events, beyond max(2**16, 64 per event)")
    n = max(1, int(np.ceil(bins)))
    idx = np.floor(np.subtract(t, t_min, dtype=np.int64) / 1e6 / bin_dt).astype(np.int64)
    np.clip(idx, 0, n - 1, out=idx)
    return RateSeries(bin_dt=bin_dt, values=np.bincount(idx, minlength=n))


def rate_spectrum(series: RateSeries) -> Spectrum:
    """Hann-windowed magnitude spectrum of the mean-subtracted rate series."""
    n = len(series)
    if n < MIN_SPECTRUM_BINS:
        raise TooShort(f"need at least {MIN_SPECTRUM_BINS} bins, got {n}")
    x = series.values.astype(np.float64)
    x -= x.mean()
    mags = np.abs(np.fft.rfft(x * np.hanning(n)))
    return Spectrum(df=1.0 / (series.bin_dt * n), magnitudes=mags)


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
