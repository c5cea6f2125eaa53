"""Fuzz the HTEN, HARC and parameter-archive readers and the HEVS and CSV
event parsers with hypothesis.

Whatever the bytes, each reader returns or raises an `EvholoError`; any
other exception, or a NumPy RuntimeWarning (an error under this suite's
warning filter), fails the test. `evholo validate` on a fuzzed event file
exits 0 or 2. Runs are derandomized and bounded so the suite stays fast
and reproducible.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from evholo import (
    EventStream,
    parse_events_binary,
    parse_events_csv,
    read_archive,
    read_tensor,
    write_events_binary,
    write_events_csv,
)
from evholo.cli import main
from evholo.errors import EvholoError
from evholo.gsg import GsgParams, params_from_archive, params_to_archive

VALID = params_to_archive(GsgParams.random(2, 3, 4, seed=3))
READERS = (read_tensor, read_archive, params_from_archive)
FUZZ = settings(max_examples=200, deadline=None, derandomize=True)

STREAM = EventStream.from_arrays((16, 12), [1, 5, 15, 3], [0, 11, 2, 7],
                                 [0, 40, 40, 95], [1, -1, 1, -1])
EVENT_FILES = (write_events_binary(STREAM), write_events_csv(STREAM))
EVENT_PARSERS = (parse_events_binary, parse_events_csv)
CSV_LINES = st.lists(st.one_of(
    st.sampled_from(["x,y,t,p", "# geometry 16x12", "# geometry 0x3", "", "1,2,3,1",
                     "1,2,3,0", "1,2,9223372036854775808,1", "1,2,3,7"]),
    st.text(alphabet="0123456789-,x# \t", max_size=24),
), max_size=8).map(lambda lines: "\n".join(lines).encode())
BYTE = st.one_of(st.sampled_from(b"\x00\xff,-9\n"), st.integers(0, 255))
# a valid event file with one byte replaced, or cut short
MUTATED = st.sampled_from(EVENT_FILES).flatmap(lambda f: st.tuples(
    st.just(f), st.integers(0, len(f) - 1), BYTE
)).map(lambda m: m[0][:m[1]] + bytes([m[2]]) + m[0][m[1] + 1:])
TRUNCATED = st.sampled_from(EVENT_FILES).flatmap(
    lambda f: st.integers(0, len(f)).map(lambda n: f[:n]))


def read_all(blob: bytes, readers=READERS) -> None:
    for read in readers:
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


@FUZZ
@given(st.one_of(
    st.binary(max_size=96),
    st.tuples(st.just(EVENT_FILES[0][:8]), st.binary(max_size=96)).map(b"".join),
    CSV_LINES,
))
def test_event_parsers_on_arbitrary_bytes(blob):
    read_all(blob, EVENT_PARSERS)


@FUZZ
@given(MUTATED)
def test_event_parsers_on_single_byte_mutations(blob):
    read_all(blob, EVENT_PARSERS)


@FUZZ
@given(TRUNCATED)
def test_event_parsers_on_truncations(blob):
    read_all(blob, EVENT_PARSERS)


@FUZZ
@given(st.one_of(CSV_LINES, MUTATED))
def test_validate_exit_code_on_fuzzed_event_files(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "fuzzed_events"
    path.write_bytes(blob)
    assert main(["validate", "--in", str(path)]) in (0, 2)
