"""The library's error contract, fuzzed with hypothesis.

Arrays of any dtype (bool, integers, uint64, floats, complex, text, bytes,
objects), with NaN, Inf, extreme values, empty and wrong-rank shapes, go
into every public entry that takes an array; Python and NumPy integers,
bools, floats, complex, text, bytes, None and tuples go into every scalar
parameter. Each entry returns or raises
an `EvholoError`; the one documented exception is the `TypeError` of an
`EventStream` built from anything but `EventColumns`. No warning escapes.
What the event writers write, their readers read back. Runs are
derandomized and bounded so the suite stays fast and reproducible.

The tests at the end reach the raises that the rest of the suite does not.
"""

import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from evholo import (
    BadBin,
    BadMagic,
    DuplicateName,
    EncodeConfig,
    EventColumns,
    EventStream,
    EvholoError,
    GsgParams,
    LengthMismatch,
    PeriodicGenSpec,
    RateSeries,
    ShapeMismatch,
    SpecInvalid,
    Spectrum,
    central_difference,
    depthwise_conv3x3,
    dft2_oracle,
    dominant_frequency,
    encode_chsr,
    encode_throughput,
    encode_view,
    event_rate_series,
    export_channel_image,
    finite_difference_oracle,
    gated_reconstruction,
    grad_spectral_weight,
    gsg_forward,
    gsg_loss,
    gsg_value_and_grad,
    irfft2,
    params_from_archive,
    parse_events_binary,
    parse_events_csv,
    phi,
    rate_spectrum,
    read_archive,
    read_tensor,
    rfft2,
    spectral_filter,
    synthetic_uniform_stream,
    validate_stream,
    write_archive,
    write_events_binary,
    write_events_csv,
    write_tensor,
)
from evholo.gsg import _sections, flatten_params, unflatten_params
from evholo.tensorio import ARCHIVE_MAGIC

FUZZ = settings(max_examples=120, deadline=None, derandomize=True)

_X = np.random.default_rng(5).standard_normal((2, 4, 6))
_P = GsgParams.random(2, 4, 6, seed=6)
_FIELDS = {name: getattr(_P, name) for name in
           ("dw_kernel", "spectral_weight", "ln_gamma", "ln_beta", "gate_weight", "gate_bias")}

# the shapes every entry takes, near misses of them, and empty ones
SHAPES = st.sampled_from([(), (0,), (2,), (4,), (2, 2), (4, 4), (4, 6), (3, 0), (2, 3, 3),
                          (2, 4, 4), (2, 4, 6), (1, 4, 6), (2, 0, 6), (1, 2, 4, 6)])
NUMBERS = hnp.arrays(st.sampled_from(["?", "i1", "i8", "u1", "u8", "f2", "f4", "f8", "c8", "c16"]),
                     SHAPES)
NOT_NUMBERS = st.one_of(
    hnp.arrays(st.sampled_from(["U2", "S2"]), SHAPES),
    hnp.arrays(object, SHAPES, elements=st.one_of(st.integers(), st.floats(), st.text(max_size=2))),
)
ARRAYS = st.one_of(NUMBERS, NUMBERS, NOT_NUMBERS)  # numbers twice as often: they reach the math


def assert_contract(call, *args, allowed=EvholoError):
    """`call(*args)` returns or raises `allowed`; a warning is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(*args)
        except allowed:
            pass


ARRAY_ENTRIES = {
    "depthwise_conv3x3 x": lambda a: depthwise_conv3x3(a, _P.dw_kernel),
    "depthwise_conv3x3 kernels": lambda a: depthwise_conv3x3(_X, a),
    "spectral_filter x_local": lambda a: spectral_filter(a, _P.spectral_weight),
    "spectral_filter w": lambda a: spectral_filter(_X, a),
    "gated_reconstruction": lambda a: gated_reconstruction(a, _P),
    "gsg_forward": lambda a: gsg_forward(a, _P),
    "gsg_loss x_in": lambda a: gsg_loss(a, _P, _X),
    "gsg_loss upstream": lambda a: gsg_loss(_X, _P, a),
    "grad_spectral_weight x_in": lambda a: grad_spectral_weight(a, _P, _X),
    "grad_spectral_weight upstream": lambda a: grad_spectral_weight(_X, _P, a),
    "gsg_value_and_grad x_in": lambda a: gsg_value_and_grad(a, _P, _X),
    "gsg_value_and_grad upstream": lambda a: gsg_value_and_grad(_X, _P, a),
    "rfft2": rfft2,
    "irfft2": lambda a: irfft2(a, 6),
    "dft2_oracle": dft2_oracle,
    "RateSeries": lambda a: RateSeries(0.01, a),
    "Spectrum": lambda a: Spectrum(1.0, a),
    **{f"GsgParams {name}": lambda a, name=name: GsgParams(**{**_FIELDS, name: a})
       for name in _FIELDS},
    **{f"EventStream.from_arrays {f}": lambda a, i=i: EventStream.from_arrays(
        (8, 4), *[a if j == i else np.zeros(np.shape(a)[:1], dtype=np.int64) for j in range(4)])
       for i, f in enumerate("xytp")},
}


@pytest.mark.parametrize("entry", ARRAY_ENTRIES)
@FUZZ
@given(a=ARRAYS)
def test_array_entries_raise_only_evholo_errors(entry, a):
    assert_contract(ARRAY_ENTRIES[entry], a)


# Scalars. Valid ints that size an allocation or a loop (event counts, bins,
# repeats, GSG sizes) are drawn at most 64; ints from 2**63 to 2**70 go only
# where a guard refuses them before anything is allocated.
_INT_DTYPES = (np.int8, np.int16, np.int32, np.int64,
               np.uint8, np.uint16, np.uint32, np.uint64)
NOT_INTEGERS = st.one_of(
    st.floats(),  # whole and fractional, NaN and +-Inf
    st.integers(-64, 64).map(float),
    st.floats(width=32).map(np.float32),
    st.complex_numbers(),
    st.text(max_size=3),
    st.binary(max_size=3),
    st.none(),
    st.lists(st.integers(-1, 4), max_size=3).map(tuple),
)


def integers(hi: int, past_int64: bool = False):
    """Python ints, NumPy ints of every width and bools from -2**70 up to hi,
    and from 2**63 to 2**70 with `past_int64`; then everything else."""
    spans = [(-2 ** 70, hi)] + [(2 ** 63, 2 ** 70)] * past_int64
    clipped = [(t, max(lo, int(np.iinfo(t).min)), min(up, int(np.iinfo(t).max)))
               for t in _INT_DTYPES for lo, up in spans]
    numpy_ints = [st.integers(lo, up).map(t) for t, lo, up in clipped if lo <= up]
    return st.one_of(*(st.integers(lo, up) for lo, up in spans), st.booleans(), *numpy_ints,
                     NOT_INTEGERS)


ANY_INT = integers(2 ** 70)
SIZE = integers(64, past_int64=True)
COUNT = integers(64)
REALS = ANY_INT  # every strategy above also draws floats, NumPy floats and the rest

_S = EventStream.from_arrays((4, 3), [0, 3, 1], [0, 2, 1], [0, 5, 9], [1, -1, 1])
_SPEC = dict(f0=1.0, duration_s=0.01, base_rate=0.0, peak_rate=100.0, geometry=(8, 8),
             motion_amplitude=1.0, seed=0)
_Z = np.fft.rfft2(_X[0])


def _bins(**bins):
    cfg = EncodeConfig(**{"t_bins": 2, **bins})
    return [encode_chsr(_S, cfg)] + [encode_view(_S, view, cfg) for view in ("hw", "tw", "th")]


def _rates(series):
    return series.times(), rate_spectrum(series).frequencies(), dominant_frequency(series)


SCALAR_ENTRIES = {
    "encode_chsr workers": (ANY_INT, lambda v: encode_chsr(
        _S, EncodeConfig(t_bins=2), workers=v)),
    "EncodeConfig t_bins": (SIZE, lambda v: _bins(t_bins=v)),
    "EncodeConfig h_bins": (SIZE, lambda v: _bins(h_bins=v)),
    "EncodeConfig w_bins": (SIZE, lambda v: _bins(w_bins=v)),
    "export_channel_image channel": (ANY_INT, lambda v: export_channel_image(_bins()[0], v)),
    "phi w_sensor": (ANY_INT, lambda v: phi(np.arange(3), v)),
    "encode_throughput repeats": (COUNT, lambda v: encode_throughput(_S, v)),
    "encode_throughput workers": (ANY_INT, lambda v: encode_throughput(_S, 1, v)),
    "synthetic_uniform_stream n_events": (SIZE, synthetic_uniform_stream),
    "EventStream geometry W": (ANY_INT, lambda v: validate_stream(
        EventStream.from_arrays((v, 3), _S.events.x, _S.events.y, _S.events.t, _S.events.p))),
    "EventStream geometry H": (SIZE, lambda v: encode_chsr(EventStream.from_arrays(
        (4, v), _S.events.x, _S.events.y, _S.events.t, _S.events.p), EncodeConfig(t_bins=2))),
    "EventStream geometry": (NOT_INTEGERS, lambda v: EventStream.empty(v)),
    **{f"PeriodicGenSpec {name}": (REALS, lambda v, name=name: PeriodicGenSpec(
        **{**_SPEC, name: v}))
       for name in ("f0", "duration_s", "base_rate", "peak_rate", "motion_amplitude", "seed")},
    "PeriodicGenSpec geometry W": (ANY_INT, lambda v: PeriodicGenSpec(
        **{**_SPEC, "geometry": (v, 8)})),
    "PeriodicGenSpec geometry": (NOT_INTEGERS, lambda v: PeriodicGenSpec(
        **{**_SPEC, "geometry": v})),
    **{f"GsgParams.{make.__name__} {name}": (COUNT, lambda v, make=make, i=i: make(
        *[v if j == i else 2 for j in range(3)])) for make in (GsgParams.identity, GsgParams.random)
       for i, name in enumerate(("channels", "rows", "cols"))},
    "GsgParams.random seed": (ANY_INT, lambda v: GsgParams.random(1, 2, 2, seed=v)),
    "irfft2 cols": (ANY_INT, lambda v: irfft2(_Z, v)),
    "finite_difference_oracle param_selector": (ANY_INT, lambda v: finite_difference_oracle(
        _X, _P, _X, v)),
    "finite_difference_oracle h": (REALS, lambda v: finite_difference_oracle(_X, _P, _X, 9, v)),
    "central_difference index": (ANY_INT, lambda v: central_difference(
        lambda t: float(t.sum()), np.zeros(3), v, 1e-4)),
    "central_difference h": (REALS, lambda v: central_difference(
        lambda t: float(t.sum()), np.zeros(3), 1, v)),
    "RateSeries bin_dt": (REALS, lambda v: _rates(RateSeries(v, [1, 2, 3, 4]))),
    "Spectrum df": (REALS, lambda v: Spectrum(v, [1.0, 2.0, 3.0]).frequencies()),
    "event_rate_series bin_dt": (REALS, lambda v: _rates(event_rate_series(_S, v))),
    **{f"{read.__name__} data": (COUNT, read) for read in
       (parse_events_csv, parse_events_binary, read_tensor, read_archive)},
}


@pytest.mark.parametrize("entry", SCALAR_ENTRIES)
@FUZZ
@given(data=st.data())
def test_scalar_entries_raise_only_evholo_errors(entry, data):
    values, call = SCALAR_ENTRIES[entry]
    assert_contract(call, data.draw(values))


@pytest.mark.parametrize("buffer", [bytearray, memoryview, lambda b: np.frombuffer(b, np.uint8)])
def test_byte_readers_take_any_buffer(buffer):
    stream = EventStream.from_arrays((4, 3), [0, 3], [0, 2], [0, 5], [1, -1])
    for read, data in ((parse_events_csv, write_events_csv(stream)),
                       (parse_events_binary, write_events_binary(stream))):
        assert read(buffer(data)) == read(data)
    tensor = write_tensor(np.arange(6.0).reshape(2, 3))
    assert np.array_equal(read_tensor(buffer(tensor)), read_tensor(tensor))
    archive = write_archive({"a": np.ones(2)})
    assert np.array_equal(read_archive(buffer(archive))["a"], np.ones(2))


def test_integer_fields_are_python_ints_and_real_fields_are_kept():
    cfg = EncodeConfig(t_bins=np.int64(6), h_bins=np.uint16(5), w_bins=True)
    assert [type(v) for v in (cfg.t_bins, cfg.h_bins, cfg.w_bins)] == [int] * 3
    f0 = np.float32(2.5)
    spec = PeriodicGenSpec(**{**_SPEC, "f0": f0, "seed": np.uint8(3),
                              "geometry": (np.int16(8), np.uint64(8))})
    assert spec.f0 is f0 and type(spec.seed) is int
    assert spec.geometry == (8, 8) and all(type(side) is int for side in spec.geometry)


@FUZZ
@given(a=ARRAYS)
def test_events_that_are_not_event_columns_stay_a_type_error(a):
    assert_contract(EventStream, (8, 4), a, allowed=(EvholoError, TypeError))


@FUZZ
@given(cols=st.lists(st.sampled_from([-2 ** 63, -2, -1, 0, 1, 2, 300, 0xFFFF, 1 << 16,
                                      2 ** 63 - 1]), min_size=4, max_size=4 * 6),
       geometry=st.sampled_from([(8, 4), (0xFFFF, 1), (1 << 16, 2)]))
def test_what_the_event_writers_write_their_readers_read(cols, geometry):
    n = len(cols) // 4
    stream = EventStream.from_arrays(geometry, *np.array(cols[:4 * n]).reshape(4, n))
    for write, parse in ((write_events_binary, parse_events_binary),
                         (write_events_csv, parse_events_csv)):
        try:
            data = write(stream)
        except SpecInvalid:
            continue
        parsed = parse(data)
        assert len(parsed) == n


def test_whole_number_floats_and_bools_convert_exactly():
    cols = EventColumns([1.0, -2.0 ** 63], np.array([3.0, 0.0], dtype=np.float32),
                        np.array([0, 2 ** 63 - 1], dtype=np.uint64), [True, False])
    assert [c.tolist() for c in (cols.x, cols.y, cols.t, cols.p)] == [
        [1, -2 ** 63], [3, 0], [0, 2 ** 63 - 1], [1, 0]]
    assert all(c.dtype == np.int64 and c.flags.c_contiguous for c in (cols.x, cols.y, cols.t, cols.p))
    assert RateSeries(0.01, [2.0, 0.0]).values.tolist() == [2, 0]


@pytest.mark.parametrize("dtype,want", [("?", "f8"), ("i2", "f8"), ("u8", "f8"), ("f2", "f8"),
                                        ("f4", "f4"), ("f8", "f8")])
def test_a_feature_tensor_keeps_f32_and_f64_and_makes_the_rest_f64(dtype, want):
    x = np.ones((2, 4, 6), dtype=dtype)
    for out in (depthwise_conv3x3(x, _P.dw_kernel), spectral_filter(x, _P.spectral_weight),
                gated_reconstruction(x, _P), gsg_forward(x, _P)):
        assert out.dtype == want


# ---------------------------------------------------------------- raises reached nowhere else


def test_read_tensor_rejects_an_unsupported_version():
    data = bytearray(write_tensor(np.zeros(2)))
    data[4] = 2
    with pytest.raises(BadMagic, match="unsupported tensor version 2"):
        read_tensor(bytes(data))


def test_read_archive_rejects_a_duplicate_name():
    # write_archive refuses one, so the bytes are put together here
    section = struct.pack("<H", 1) + b"a" + write_tensor(np.zeros(1))
    with pytest.raises(DuplicateName, match="'a'"):
        read_archive(ARCHIVE_MAGIC + struct.pack("<BH", 1, 2) + section + section)


def test_read_archive_rejects_trailing_bytes():
    with pytest.raises(LengthMismatch, match="1 trailing bytes"):
        read_archive(write_archive({"a": np.zeros(1)}) + b"\0")


def test_unflatten_params_rejects_the_wrong_length():
    theta = flatten_params(_P)
    with pytest.raises(ShapeMismatch):
        unflatten_params(_P, np.append(theta, 0.0))
    with pytest.raises(ShapeMismatch):
        unflatten_params(_P, theta[:-1])


def test_params_archive_with_weight_halves_of_different_shapes():
    sections = _sections(_P)
    sections["spectral_weight_im"] = sections["spectral_weight_im"][:, :, :3]
    with pytest.raises(ShapeMismatch, match="halves disagree"):
        params_from_archive(write_archive(sections))


@pytest.mark.parametrize("df", [0.0, -1.0, float("nan")])
def test_spectrum_needs_a_positive_df(df):
    with pytest.raises(BadBin):
        Spectrum(df, np.ones(3))


def test_rate_series_values_must_be_1d():
    with pytest.raises(ShapeMismatch, match="1D"):
        RateSeries(0.01, np.ones((2, 2), dtype=np.int64))
