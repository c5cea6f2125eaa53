import numpy as np
import pytest

from evholo import read_archive, read_tensor, write_archive, write_tensor
from evholo.errors import (
    BadMagic,
    DtypeUnknown,
    DuplicateName,
    LengthMismatch,
    ParseError,
    ShapeMismatch,
)


def test_round_trip_every_dtype():
    rng = np.random.default_rng(0)
    for arr in (
        rng.standard_normal((3, 224, 260)).astype(np.float32),
        rng.standard_normal((5, 7)).astype(np.float64),
        rng.integers(0, 1 << 31, (4, 4)).astype(np.uint32),
    ):
        back = read_tensor(write_tensor(arr))
        assert back.dtype == arr.dtype
        assert back.shape == arr.shape
        assert back.tobytes() == arr.tobytes()


def test_round_trip_is_byte_stable():
    arr = np.arange(12, dtype=np.float64).reshape(3, 4)
    blob = write_tensor(arr)
    assert write_tensor(read_tensor(blob)) == blob


def test_dims_with_ones_and_max_ndim():
    arr = np.arange(8, dtype=np.float32).reshape(1, 2, 1, 2, 1, 2, 1, 1)
    back = read_tensor(write_tensor(arr))
    assert back.shape == arr.shape
    assert np.array_equal(back, arr)


def test_zero_dim_rejected():
    with pytest.raises(ShapeMismatch):
        write_tensor(np.float64(3.0))


def test_too_many_dims_rejected():
    with pytest.raises(ShapeMismatch):
        write_tensor(np.zeros((1,) * 9, dtype=np.float32))


def test_unsupported_dtype():
    with pytest.raises(DtypeUnknown):
        write_tensor(np.zeros(3, dtype=np.int64))


def test_unknown_dtype_code_on_read():
    blob = bytearray(write_tensor(np.zeros(2, dtype=np.float32)))
    blob[5] = 9
    with pytest.raises(DtypeUnknown):
        read_tensor(bytes(blob))


def test_bad_magic():
    with pytest.raises(BadMagic):
        read_tensor(b"XXXX" + bytes(16))


def test_truncated_payload_reports_byte_counts():
    blob = write_tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
    with pytest.raises(LengthMismatch) as exc:
        read_tensor(blob[:-8])
    msg = str(exc.value)
    assert "48" in msg and "40" in msg


def test_trailing_bytes_rejected():
    blob = write_tensor(np.zeros(2, dtype=np.float32))
    with pytest.raises(LengthMismatch):
        read_tensor(blob + b"\x00")


def test_archive_round_trip_preserves_order_and_values():
    rng = np.random.default_rng(1)
    entries = [
        ("alpha", rng.standard_normal((2, 3))),
        ("beta", rng.standard_normal(4).astype(np.float32)),
        ("gamma", rng.integers(0, 99, 5).astype(np.uint32)),
    ]
    out = read_archive(write_archive(entries))
    assert list(out) == ["alpha", "beta", "gamma"]
    for name, arr in entries:
        assert np.array_equal(out[name], arr)
        assert out[name].dtype == arr.dtype


def test_archive_accepts_mapping():
    out = read_archive(write_archive({"only": np.ones(3)}))
    assert np.array_equal(out["only"], np.ones(3))


def test_empty_archive_valid():
    assert read_archive(write_archive([])) == {}


def test_archive_duplicate_name():
    with pytest.raises(DuplicateName):
        write_archive([("a", np.ones(1)), ("a", np.ones(1))])


def test_archive_unicode_names():
    out = read_archive(write_archive([("sección", np.ones(2, dtype=np.float32))]))
    assert "sección" in out


def test_archive_bad_magic():
    with pytest.raises(BadMagic):
        read_archive(b"HTEN" + bytes(10))


def test_archive_truncated_entry():
    blob = write_archive([("a", np.ones(4))])
    with pytest.raises(LengthMismatch):
        read_archive(blob[:-4])


def test_archive_name_not_utf8_is_parse_error_with_offset():
    blob = bytearray(write_archive([("abc", np.ones(2))]))
    blob[9] = 0xFF  # first name byte, after magic, version, count, name_len
    with pytest.raises(ParseError) as exc:
        read_archive(bytes(blob))
    assert "offset 9" in str(exc.value)


def test_zero_dim_with_unaddressable_dims_rejected():
    header = b"HTEN" + bytes([1, 2, 2, 0])
    blob = header + (0).to_bytes(8, "little") + (1 << 63).to_bytes(8, "little")
    with pytest.raises(LengthMismatch):
        read_tensor(blob)
