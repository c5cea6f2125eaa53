"""Fuzz the HTEN, HARC and parameter-archive readers with hypothesis.

Whatever the bytes, each reader returns or raises an `EvholoError`; any
other exception, or a NumPy RuntimeWarning (an error under this suite's
warning filter), fails the test. Runs are derandomized and bounded so the
suite stays fast and reproducible.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from evholo import read_archive, read_tensor
from evholo.errors import EvholoError
from evholo.gsg import GsgParams, params_from_archive, params_to_archive

VALID = params_to_archive(GsgParams.random(2, 3, 4, seed=3))
READERS = (read_tensor, read_archive, params_from_archive)
FUZZ = settings(max_examples=200, deadline=None, derandomize=True)


def read_all(blob: bytes) -> None:
    for read in READERS:
        try:
            read(blob)
        except EvholoError:
            pass


@FUZZ
@given(st.one_of(
    st.binary(max_size=64),
    st.tuples(st.sampled_from([b"HTEN\x01", b"HARC\x01", VALID[:9]]),
              st.binary(max_size=96)).map(b"".join),
))
def test_arbitrary_bytes(blob):
    read_all(blob)


@FUZZ
@given(st.integers(0, len(VALID) - 1), st.integers(0, 255))
def test_single_byte_mutation_of_params_archive(pos, value):
    blob = bytearray(VALID)
    blob[pos] = value
    read_all(bytes(blob))


@FUZZ
@given(st.integers(0, len(VALID)))
def test_truncated_params_archive(n):
    read_all(VALID[:n])
