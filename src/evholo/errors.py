"""Exception types shared across the package, and the intake checks that raise them.

ParseError subclasses signal defective input data (the CLI maps them to
exit code 2); the remaining classes signal contract violations at API
boundaries, and those about a bad value also subclass ValueError. Two
library raises stay outside `EvholoError`: the `TypeError` of an
`EventStream` built from anything but `EventColumns`, and the `KeyError` of
`EventColumns` indexed by a name that is not a field. Each is a caller's
programming error, as in the mapping protocol, never malformed input.

The package's intake checks live here, beside the errors they raise, and
every layer takes outside values through them: `_integer` and `_positive`
for every scalar argument, `_asarray` for nested sequences, `_bytes` for
byte input, `_int64_column` for integer columns, `_checked` for real and
complex arrays, and `_no_overflow` around an entry's float math.
"""

from __future__ import annotations

__all__ = [
    "BadBin",
    "BadMagic",
    "BadPolarity",
    "BadTimestamp",
    "ChannelOutOfRange",
    "ConfigInvalid",
    "DtypeUnknown",
    "DuplicateName",
    "EmptyInput",
    "EvholoError",
    "GeometryMissing",
    "LengthMismatch",
    "MalformedLine",
    "NonFinite",
    "ParseError",
    "SelectorOutOfRange",
    "ShapeMismatch",
    "SpecInvalid",
    "TooLarge",
    "TooShort",
    "TruncatedRecord",
]

import functools
import numbers

import numpy as np


class EvholoError(Exception):
    """Base class for all package-specific errors."""


class ParseError(EvholoError):
    """Defective input bytes: event files, tensor files, archives."""


class MalformedLine(ParseError):
    """A CSV line that is not a well-formed event record."""

    def __init__(self, line_no: int, reason: str = ""):
        self.line_no = line_no
        msg = f"malformed line {line_no}"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)


class EmptyInput(ParseError):
    """CSV input with zero data lines."""


class GeometryMissing(ParseError):
    """No geometry comment in the file and no explicit geometry given."""


class BadMagic(ParseError):
    """Leading magic bytes do not identify a known format."""


class TruncatedRecord(ParseError):
    """Binary event payload ends inside a record."""

    def __init__(self, offset: int):
        self.offset = offset
        super().__init__(f"truncated record at byte offset {offset}")


class BadPolarity(ParseError):
    """Binary event record with a polarity byte outside {-1, 0, +1}."""

    def __init__(self, offset: int, value: int):
        self.offset = offset
        self.value = value
        super().__init__(f"bad polarity {value} at byte offset {offset}")


class BadTimestamp(ParseError):
    """Binary event record with a u64 timestamp outside the int64 range."""

    def __init__(self, offset: int, value: int):
        self.offset = offset
        self.value = value
        super().__init__(f"timestamp {value} >= 2**63 at byte offset {offset}")


class DtypeUnknown(ParseError):
    """Tensor file header carries an unknown dtype code."""


class LengthMismatch(ParseError):
    """Tensor payload length disagrees with the header dims."""


class DuplicateName(ParseError):
    """Archive contains two sections with the same name."""


class SpecInvalid(EvholoError, ValueError):
    """A spec, or data held to one, violates its invariants: a synthetic
    stream spec (a rate, duration, frequency or amplitude not a finite real
    in range, a seed or geometry side not an integer in range) or benchmark
    count (`n_events`, `repeats`); a stream that HEVS cannot hold (a side, x
    or y outside u16, a t < 0, a p outside -1..1) or CSV (that p); a HARC of
    over 65535 sections or a name over 65535 bytes; integers not exact in
    int64; text, bytes, objects, or complex where floats are due; input to a
    byte reader that is not a buffer."""


class ConfigInvalid(EvholoError, ValueError):
    """A setting violates its invariants: an encoder configuration (a bin or
    worker count not an integer >= 1), a stream's sensor geometry or `phi`'s
    sensor width (not integers >= 1), a random-parameter seed (not an
    integer >= 0), a finite-difference step (not a finite real > 0, and for
    the oracle in [1e-8, 1e-4])."""


class ChannelOutOfRange(EvholoError, IndexError):
    """Requested channel index not an integer in the tensor's channel extent."""


class ShapeMismatch(EvholoError, ValueError):
    """Operand shapes are inconsistent, or a size that sets one (GSG channels,
    rows and cols, `irfft2`'s cols) is not an integer >= 1."""


class NonFinite(EvholoError, ValueError):
    """NaN or Inf encountered at a module boundary."""


class TooLarge(EvholoError, ValueError):
    """Operand above a size guard: a brute-force oracle input too big, a
    stream or plane whose binning would overflow int64, or GSG sizes whose
    weights' bytes would."""


class BadBin(EvholoError, ValueError):
    """A rate-series bin width or spectrum resolution that is not a Python or
    NumPy real number, finite and > 0."""


class TooShort(EvholoError, ValueError):
    """Rate series too short for spectral peak estimation."""


class SelectorOutOfRange(EvholoError, IndexError):
    """A finite-difference parameter selector or index that is not an integer
    in 0..n-1, for the n flattened parameters."""


_INT64_MAX = int(np.iinfo(np.int64).max)
_TINY = float(np.finfo(np.float64).smallest_subnormal)  # the least positive float64
_HUGE = float(np.finfo(np.float64).max)
_TWO_63 = np.float64(2.0 ** 63)  # a float64 scalar, so a float16 column does not cast it


def _integer(name: str, value, error: type, lo: int = 1, hi: float = np.inf) -> int:
    """`value` as a Python int if it is a Python or NumPy integer (bool too) in
    lo..hi, else `error`; so no size guard computes in a NumPy scalar."""
    if not (isinstance(value, numbers.Integral) and lo <= int(value) <= hi):
        within = f">= {lo}" if hi == np.inf else f"in {lo}..{hi}"
        raise error(f"{name} must be an integer {within}, got {value!r}")
    return int(value)


def _positive(name: str, value, error: type, lo: float = _TINY, hi: float = _HUGE):
    """`value` if it is a Python or NumPy real number (bool too) in [lo, hi],
    by default finite and > 0 in float64, else `error`; an integer comes back
    as a Python int, so that no NumPy integer wraps, a float as given."""
    # compared as Python floats: a NumPy float would cast a bound to its dtype
    x = float(value) if isinstance(value, np.floating) else value
    if not (isinstance(value, numbers.Real) and float(lo) <= x <= float(hi)):
        within = "finite and > 0" if (lo, hi) == (_TINY, _HUGE) else f"in [{lo:g}, {hi:g}]"
        raise error(f"{name} must be {within}, got {value!r}")
    return int(value) if isinstance(value, numbers.Integral) else value


def _asarray(name: str, value) -> np.ndarray:
    """`np.asarray(value)`; a ragged nested sequence is `ShapeMismatch`."""
    try:
        return np.asarray(value)
    except ValueError:  # NumPy's "inhomogeneous shape"
        raise ShapeMismatch(f"{name} is a ragged nested sequence, not an array") from None


def _bytes(data) -> bytes:
    """`data` itself if it is `bytes`, else a copy of any other buffer, which
    may change later; anything else, text or an int, is `SpecInvalid`."""
    if isinstance(data, bytes):
        return data
    try:
        return bytes(memoryview(data))
    except TypeError:  # not a buffer
        raise SpecInvalid(f"input must be bytes or a buffer, got {type(data).__name__}") from None


def _int64_column(name: str, value) -> np.ndarray:
    """`value` as a C-contiguous int64 array. Bool, integers and whole-number
    floats in the int64 range convert exactly; anything else is `SpecInvalid`,
    and a ragged nested sequence `ShapeMismatch`."""
    a = _asarray(name, value)
    if a.dtype.kind == "f":
        exact = np.all((a == np.trunc(a)) & (a >= -_TWO_63) & (a < _TWO_63))
    else:
        exact = a.dtype.kind in "bi" or a.dtype.kind == "u" and a.max(initial=0) <= _INT64_MAX
    if not exact:
        raise SpecInvalid(f"{name} must hold integers in the int64 range, got {a.dtype} values")
    return a.astype(np.int64, order="C", copy=False)


def _checked(name: str, value, dtype, shape: tuple | None) -> np.ndarray:
    """`value` as a non-empty `dtype` array of `shape` (None: any extent; a None
    shape: any array, empty too), else `ShapeMismatch`, as is a ragged sequence; a
    None dtype keeps f32/f64 and makes bool and ints f64. Text, bytes, objects,
    complex into a real dtype: `SpecInvalid`; NaN, Inf: `NonFinite`."""
    a = _asarray(name, value)
    want = np.dtype(dtype or (a.dtype if a.dtype in (np.float32, np.float64) else np.float64))
    if a.dtype.kind not in ("biufc" if want.kind == "c" else "biuf"):
        raise SpecInvalid(f"{name} must convert to {want}, got dtype {a.dtype}")
    a = a.astype(want, copy=False)
    if shape is not None and (a.size == 0 or a.ndim != len(shape) or any(
            n is not None and n != m for n, m in zip(shape, a.shape))):
        dims = ", ".join("*" if n is None else str(n) for n in shape)
        raise ShapeMismatch(f"{name} must have non-empty shape ({dims}), got {a.shape}")
    # a complex array with a contiguous last axis is tested as its float64 parts,
    # twice as fast as isfinite on the complex values
    parts = a.view(np.float64) if a.dtype == np.complex128 and a.ndim and a.strides[-1] == 16 else a
    if not np.isfinite(parts).all():
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
