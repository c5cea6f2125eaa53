"""Exception types shared across the package.

ParseError subclasses signal defective input data (the CLI maps them to
exit code 2); the remaining classes signal contract violations at API
boundaries, and those about a bad value also subclass ValueError. The one
library raise outside `EvholoError` is the `TypeError` of an `EventStream`
built from anything but `EventColumns`: a wrong argument type is a
caller's programming error, never malformed input.
"""

from __future__ import annotations


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
