"""Fuzz the HTEN, HARC and parameter-archive readers and the HEVS and CSV
event parsers with hypothesis.

Whatever the bytes, each reader returns or raises an `EvholoError`; any
other exception, or a NumPy RuntimeWarning (an error under this suite's
warning filter), fails the test. On any CSV bytes, `parse_events_csv`
gives what its line walk alone gives, and on HEVS records drawn about the
edges of its steps, `parse_events_binary` gives what whole-array checks
give, and so do the encoders of the parsed stream before its t is read.
`evholo validate` on a fuzzed event file exits 0 or 2; `encode`,
`spectrum` and `bench --in` on fuzzed CSV and HEVS inputs (unsorted HEVS
too), `gsg-demo` on fuzzed tensors and `gen` on fuzzed flags exit 0, 1 or 2
with one line of error and write no output on failure. A failing fuzz test
of this suite reports its falsifying example.
Runs are derandomized and bounded so the suite stays fast and reproducible.
"""

import contextlib
import io
import shutil
import struct
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_events import assert_same_as_line_walk

from evholo import (
    EncodeConfig,
    EventStream,
    encode_chsr,
    encode_view,
    parse_events_binary,
    parse_events_csv,
    read_archive,
    read_tensor,
    write_events_binary,
    write_events_csv,
)
from evholo.cli import main
from evholo.errors import BadPolarity, BadTimestamp, EvholoError
from evholo.events import (
    _CSV_CHUNK,
    _HEVS_RECORD_DTYPE,
    HEVS_HEADER,
    HEVS_RECORD,
    _csv_body_columns,
)
from evholo.gsg import GsgParams, params_from_archive, params_to_archive
from evholo.tensorio import write_tensor

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


def mutated(blob: bytes):
    """`blob` with one byte replaced."""
    return st.tuples(st.integers(0, len(blob) - 1), BYTE).map(
        lambda m: blob[:m[0]] + bytes([m[1]]) + blob[m[0] + 1:])


def truncated(blob: bytes):
    return st.integers(0, len(blob)).map(lambda n: blob[:n])


def fuzzed(blob: bytes):
    return st.one_of(mutated(blob), truncated(blob))


# a valid event file with one byte replaced, or cut short
MUTATED = st.sampled_from(EVENT_FILES).flatmap(mutated)
TRUNCATED = st.sampled_from(EVENT_FILES).flatmap(truncated)


# CSV documents near the bulk path's grammar: a preamble, then rows with
# values of 1 to 20 digits (int64 edges included); near-clean documents add
# one odd line, noisy ones odd preambles, line ends and lines as well
INT = st.one_of(st.integers(-999, 99_999), st.integers(-10 ** 18 + 1, 10 ** 18 - 1)).map(str)
EDGE = st.sampled_from(["-0", "00", "999999999999999999", "0000000000000000001",
                        "9223372036854775807", "-9223372036854775808",
                        "9223372036854775808", "-99999999999999999999"])
POLARITY = st.sampled_from(["1", "-1", "0", "00", "-0", "1", "-1", "2"])
ROW = st.one_of(st.tuples(INT, INT, INT, POLARITY),
                st.tuples(INT, EDGE, INT, POLARITY)).map(",".join)
ODD = st.one_of(
    st.sampled_from(["", " ", "# geometry 20x20", "# note", "x,y,t,p", "1,2,3",
                     "1,2,3,1,5", "+5,1,2,1", "1_0,1,2,1", " 5,1,2,1", "\u0663,1,2,1",
                     "--1,1,2,1", "-,1,2,1", "1-2,1,2,1", "1,2,3,1\x0b", "1,2,3,1\r",
                     "1,2,3,-2", "1,2,3,12", "1,,3,1", "1,2,3,1,"]),
    st.text(alphabet="0123456789-+_ ,\t\r\x0b\u0663#", max_size=12),
)
PREAMBLE = st.lists(st.sampled_from(
    ["# geometry 16x12", "# geometry 7x5", "# geometry 0x3", "", " ", "# a\x0bb",
     "# \u2028", "x,y,t,p", " x,y,t,p", "1,2,3,1"]), max_size=3)
CLEAN_PREAMBLE = st.sampled_from([[], ["# geometry 16x12"], ["", "# c", "# geometry 7x5"]])


def csv_doc(preamble, rows, odd=(), eol="\n", final_eol=True):
    lines = preamble + ["x,y,t,p"] + rows
    for i, line in odd:
        lines.insert(len(preamble) + 1 + i, line)
    return (eol.join(lines) + eol * final_eol).encode()


CLEAN_DOCS = st.builds(csv_doc, CLEAN_PREAMBLE, st.lists(ROW, min_size=1, max_size=4))
NEAR_CLEAN_DOCS = st.builds(csv_doc, CLEAN_PREAMBLE, st.lists(ROW, max_size=3),
                            st.lists(st.tuples(st.integers(0, 3), ODD), min_size=1, max_size=1))
NOISY_DOCS = st.builds(csv_doc, PREAMBLE, st.lists(ROW, max_size=6),
                       st.lists(st.tuples(st.integers(0, 6), ODD), max_size=2),
                       st.sampled_from(["\n", "\n", "\r\n"]), st.booleans())
CSV_DOCS = st.one_of(CLEAN_DOCS, NEAR_CLEAN_DOCS, NOISY_DOCS)


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


@FUZZ
@given(st.one_of(CLEAN_DOCS, NEAR_CLEAN_DOCS, CLEAN_DOCS.flatmap(fuzzed), NOISY_DOCS,
                 CSV_LINES, MUTATED), st.sampled_from([None, (5, 7)]))
def test_csv_parser_equals_its_line_walk(blob, geometry):
    assert_same_as_line_walk(blob, geometry)


def multi_chunk_csv(size, seed, row, col, value, odd):
    """A CSV whose body, of at most `size` bytes, holds seeded rows on a
    346x260 sensor, with x (col 0) or y (col 1) of row ``row % rows`` set to
    `value` and the (position, line) pairs `odd` inserted among the rows."""
    rng = np.random.default_rng(seed)
    n = size // 12
    cols = (rng.integers(0, 346, n), rng.integers(0, 260, n),
            rng.integers(0, 10_000_000, n), rng.integers(-1, 2, n))
    rows = [f"{a},{b},{c},{d}" for a, b, c, d in zip(*(c.tolist() for c in cols))]
    rows = rows[:int(np.searchsorted(np.cumsum([len(r) + 1 for r in rows]), size, "right"))]
    i = row % len(rows)
    fields = rows[i].split(",")
    fields[col] = str(value)
    rows[i] = ",".join(fields)
    return csv_doc(["# geometry 346x260"], rows, [(i % (len(rows) + 1), line) for i, line in odd])


@settings(FUZZ, max_examples=15)
@given(st.integers(_CSV_CHUNK + 64, 4 * _CSV_CHUNK - 64), st.integers(0, 2 ** 32 - 1),
       st.integers(0, 2 ** 16), st.integers(0, 1), st.integers(-70_000, 70_000),
       st.lists(st.tuples(st.integers(0, 2 ** 16), ODD), max_size=1),
       st.sampled_from([None, (5, 7)]))
def test_multi_chunk_csv_bulk_equals_line_walk(size, seed, row, col, value, odd, geometry):
    """Over a body of 2 to 4 bulk chunks, the values, dtypes and errors of
    the bulk path are the line walk's wherever a coordinate from -70000 to
    70000 lands; the bulk path takes every body without an odd line."""
    blob = multi_chunk_csv(size, seed, row, col, value, odd)
    start = blob.index(b"x,y,t,p") + 8
    assert len(blob) - start > _CSV_CHUNK
    assert odd or _csv_body_columns(blob, start) is not None
    assert_same_as_line_walk(blob, geometry)


HEVS_STEP = 7  # records per step of the HEVS parse in the test below
HEVS_EDITS = ["span 2**32", "from 0", "bad t", "descent at a step edge", "shuffle", "bad p"]


@st.composite
def hevs_blobs(draw):
    """HEVS bytes of 1 to 30 records, t sorted near 0, 2**32, 2**63 or
    2**64 and polarities in {-1, 0, 1}, then up to three edits: the last t
    2**32 or so after the first; t shifted to start at 0; a t at or above
    2**63 at the end of a step but the last; a polarity in {-3..3}; one
    descent across a step edge; t shuffled."""
    n = draw(st.integers(1, 30))
    base = draw(st.sampled_from([0, 7, 2 ** 32 - 30, 2 ** 63 - 50, 2 ** 64 - 70]))
    t = sorted(base + v for v in draw(st.lists(st.integers(0, 60), min_size=n, max_size=n)))
    p = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n))
    step_end = st.sampled_from(range(HEVS_STEP - 1, n - 1, HEVS_STEP) or [0])  # not the last
    for edit in draw(st.lists(st.sampled_from(HEVS_EDITS), max_size=3)):
        if edit == "span 2**32":
            t[-1] = (t[0] + 2 ** 32 + draw(st.integers(-1, 1))) % 2 ** 64
        elif edit == "from 0":
            t = [v - min(t) for v in t]
        elif edit == "bad t":
            t[draw(step_end)] = draw(st.sampled_from([2 ** 63, 2 ** 63 + 9, 2 ** 64 - 1]))
        elif edit == "descent at a step edge" and n > HEVS_STEP:
            k = draw(st.sampled_from(range(HEVS_STEP, n, HEVS_STEP)))
            t[k] = max(t[k - 1] - 1, 0)
        elif edit == "shuffle":
            t = draw(st.permutations(t))
        elif edit == "bad p":
            p[draw(st.integers(0, n - 1))] = draw(st.sampled_from([-3, -2, 2, 3]))
    recs = np.zeros(n, _HEVS_RECORD_DTYPE)
    recs["x"], recs["y"], recs["t"], recs["p"] = np.arange(n), n - np.arange(n), t, p
    return struct.pack("<4sB3xHHQ", b"HEVS", 1, 16, 12, n) + recs.tobytes()


@st.composite
def unsorted_hevs_blobs(draw):
    """HEVS bytes of 2 to 40 records in drawn order, t within 200 us of 0,
    2**40 or 2**63 - 300 with ties, some x and y off the 16x12 sensor,
    polarities in {-1, 0, 1}: streams that `normalized` sorts."""
    n = draw(st.integers(2, 40))
    base = draw(st.sampled_from([0, 7, 2 ** 40, 2 ** 63 - 300]))
    recs = np.zeros(n, _HEVS_RECORD_DTYPE)
    recs["t"] = [base + v for v in draw(st.lists(st.integers(0, 200), min_size=n, max_size=n))]
    recs["x"], recs["y"] = np.arange(n) % 20, np.arange(n)[::-1] % 15
    recs["p"] = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n))
    return struct.pack("<4sB3xHHQ", b"HEVS", 1, 16, 12, n) + recs.tobytes()


def parse_hevs_whole(data: bytes) -> EventStream:
    """The HEVS records checked over whole arrays, bad polarity first, then
    normalized: the oracle of the parser's one pass in steps."""
    w, h, n = struct.unpack_from("<HHQ", data, 8)
    recs = np.frombuffer(data, _HEVS_RECORD_DTYPE, n, HEVS_HEADER)
    p = recs["p"]
    if p.min() < -1 or p.max() > 1:
        i = int(((p < -1) | (p > 1)).argmax())
        raise BadPolarity(HEVS_HEADER + i * HEVS_RECORD + 12, int(p[i]))
    t = recs["t"].view(np.int64)
    if t.min() < 0:
        i = int((t < 0).argmax())
        raise BadTimestamp(HEVS_HEADER + i * HEVS_RECORD + 4, int(recs["t"][i]))
    if not p.all():
        p = p.copy()
        p[p == 0] = -1
    return EventStream.from_arrays((w, h), recs["x"], recs["y"], t, p).normalized()


def parse_outcome(parse, blob):
    """The stream's geometry and columns with their dtypes, or the error's
    class, offset and value."""
    try:
        s = parse(blob)
    except (BadPolarity, BadTimestamp) as e:
        return type(e), e.offset, e.value
    return s.geometry, [(c.dtype, c.tolist()) for c in (getattr(s.events, f) for f in "xytp")]


@settings(FUZZ, max_examples=300)
@given(hevs_blobs())
def test_hevs_parser_equals_its_whole_array_checks(blob):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("evholo.events._HEVS_CHUNK", HEVS_STEP)
        got = parse_outcome(parse_events_binary, blob)
    assert got == parse_outcome(parse_hevs_whole, blob)


def encode_outcome(parse, blob):
    """The CHSR tensor at 8 temporal bins and the TW view of the parsed
    stream, encoded before anything reads its t, or the error's class and args."""
    config = EncodeConfig(t_bins=8)
    try:
        s = parse(blob)
        tensors = (encode_chsr(s, config), encode_view(s, "tw", config))
    except EvholoError as e:
        return type(e), e.args
    return [(e.data.tobytes(), e.dropped) for e in tensors]


@settings(FUZZ, max_examples=300)
@given(hevs_blobs())
def test_hevs_encode_of_the_deferred_t_equals_the_eager_one(blob):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("evholo.events._HEVS_CHUNK", HEVS_STEP)
        mp.setattr("evholo.encode._CHUNK", 5)  # row search and bins in chunks of the raw t
        got = encode_outcome(parse_events_binary, blob)
    assert got == encode_outcome(parse_hevs_whole, blob)


HTEN = write_tensor(np.random.default_rng(0).standard_normal((2, 4, 6)))
HARC = params_to_archive(GsgParams.random(2, 4, 6, seed=1))


def run_fuzzed(tmp_path_factory, argv, files):
    """`main(argv)` with {d} in argv the directory of `files`: it exits 0, 1
    or 2, says why in one line when it fails (after the usage for a flag
    argparse refuses), and then leaves no output."""
    d = tmp_path_factory.getbasetemp() / "fuzzed_cli"
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir()
    for name, blob in files.items():
        (d / name).write_bytes(blob)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main([a.format(d=d) for a in argv])
    assert rc in (0, 1, 2)
    if rc:
        lines = err.getvalue().splitlines()
        if rc == 1 and lines[0].startswith("usage: evholo"):  # argparse's usage, then its error
            lines = [line for line in lines if "error:" in line]
            assert err.getvalue().endswith(lines[-1] + "\n")
        assert len(lines) == 1, err.getvalue()
        assert sorted(p.name for p in d.iterdir()) == sorted(files)


@FUZZ
@given(st.one_of(CSV_LINES, CSV_DOCS, fuzzed(EVENT_FILES[1])))
def test_encode_on_fuzzed_csv(tmp_path_factory, blob):
    run_fuzzed(tmp_path_factory, ["encode", "--in", "{d}/ev.csv", "--t-bins", "8",
                                  "--out", "{d}/out.hten", "--pgm-dir", "{d}/img"],
               {"ev.csv": blob})


@FUZZ
@given(st.one_of(hevs_blobs(), fuzzed(EVENT_FILES[0])))
def test_encode_on_fuzzed_hevs(tmp_path_factory, blob):
    run_fuzzed(tmp_path_factory, ["encode", "--in", "{d}/ev.hevs", "--t-bins", "8",
                                  "--out", "{d}/out.hten"], {"ev.hevs": blob})


@FUZZ
@given(fuzzed(EVENT_FILES[1]))
def test_spectrum_on_fuzzed_csv(tmp_path_factory, blob):
    # one changed byte keeps every timestamp below 100 us, so the rate
    # series stays a few bins long
    run_fuzzed(tmp_path_factory, ["spectrum", "--in", "{d}/ev.csv", "--bin-dt", "1e-5",
                                  "--out-csv", "{d}/spec.csv"], {"ev.csv": blob})


@FUZZ
@given(st.one_of(hevs_blobs(), unsorted_hevs_blobs()))
def test_spectrum_on_fuzzed_hevs(tmp_path_factory, blob):
    # a span of 2**32 us or more is past the rate-bin bound at 10 us bins
    run_fuzzed(tmp_path_factory, ["spectrum", "--in", "{d}/ev.hevs", "--bin-dt", "1e-5",
                                  "--out-csv", "{d}/spec.csv"], {"ev.hevs": blob})


# timestamps anywhere in int64, or within 1000 s of 0, where some series
# are short enough to compute and others are beyond the rate-bin bound
STAMP = st.one_of(st.integers(-2 ** 63, 2 ** 63 - 1), st.integers(0, 10 ** 9))
FREE_TIMESTAMP_DOCS = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 11), STAMP, st.sampled_from([1, -1])),
    max_size=8,
).map(lambda rows: csv_doc(["# geometry 16x12"], [",".join(map(str, r)) for r in rows]))


@FUZZ
@given(FREE_TIMESTAMP_DOCS, st.sampled_from(["1e-5", "0.01", "1", "1e-300", "1e300"]))
def test_spectrum_on_free_timestamps(tmp_path_factory, blob, bin_dt):
    run_fuzzed(tmp_path_factory, ["spectrum", "--in", "{d}/ev.csv", "--bin-dt", bin_dt,
                                  "--out-csv", "{d}/spec.csv"], {"ev.csv": blob})


@FUZZ
@given(fuzzed(EVENT_FILES[1]))
def test_bench_on_fuzzed_csv(tmp_path_factory, blob):
    # one changed byte keeps the geometry and the timestamps small, so the
    # default 224 temporal bins and the sensor rows stay cheap to encode
    run_fuzzed(tmp_path_factory, ["bench", "--in", "{d}/ev.csv", "--repeat", "1",
                                  "--out-json", "{d}/b.json"], {"ev.csv": blob})


@FUZZ
@given(st.one_of(hevs_blobs(), unsorted_hevs_blobs()))
def test_bench_on_fuzzed_hevs(tmp_path_factory, blob):
    run_fuzzed(tmp_path_factory, ["bench", "--in", "{d}/ev.hevs", "--repeat", "1",
                                  "--out-json", "{d}/b.json"], {"ev.hevs": blob})


@FUZZ
@given(st.one_of(st.tuples(fuzzed(HTEN), st.just(HARC)), st.tuples(st.just(HTEN), fuzzed(HARC))))
def test_gsg_demo_on_fuzzed_tensor_and_params(tmp_path_factory, blobs):
    run_fuzzed(tmp_path_factory, ["gsg-demo", "--in", "{d}/x.hten", "--params", "{d}/p.harc",
                                  "--out", "{d}/out.hten"], dict(zip(["x.hten", "p.harc"], blobs)))


# text argparse or the generator refuses, or None to leave the flag out
ODD_NUMBER = st.one_of(st.floats().map(repr), st.text("0123456789.-+einfa", max_size=5),
                       st.sampled_from([None, "0", "-0", "-1", "-1e-9", "5", "nan", "inf", "-inf",
                                        "1e300", "1e308", "1e-320", "", " ", "x", "1,5", "0x10"]))


def number(lo, hi):
    """A float in [lo, hi] as text, written as a user may write it."""
    return st.tuples(st.floats(lo, hi), st.sampled_from(["{!r}", "{:g}", " {:.3e}"])).map(
        lambda v: v[1].format(v[0]))


GEN_FLAGS = {  # flag -> (a value gen takes, one it may refuse); None leaves the flag out
    # an f0 near the float64 maximum passes argparse; the generator refuses most (exit 2)
    "--f0": (number(1e-3, 1e4), st.one_of(ODD_NUMBER, st.floats(1e307, 1.7e308).map(repr))),
    "--duration": (number(1e-6, 10.0), ODD_NUMBER),
    # an odd rate-base or rate-peak may also pass, and leave the peak below the base
    "--rate-base": (st.one_of(st.none(), number(0.0, 1e3)), ODD_NUMBER),
    "--rate-peak": (st.one_of(st.none(), number(1e3, 1e4)), ODD_NUMBER),
    "--geometry": (
        st.one_of(st.none(), st.tuples(st.integers(1, 65535), st.integers(1, 65535)).map(
            "{0[0]}x{0[1]}".format)),
        st.sampled_from([None, "0x5", "5x0", "65536x2", "8x8\n", "-1x3", "4x", "", "1e3x2"])),
    "--seed": (st.one_of(st.none(), st.integers(0, 2 ** 70).map(str)),
               st.sampled_from([None, "-1", "1.5", "x", ""])),
}


@st.composite
def gen_argv(draw):
    """gen's flags, none, one or two of them odd."""
    odd = draw(st.one_of(st.just(()), *(st.sampled_from(list(combinations(GEN_FLAGS, k)))
                                        for k in (1, 2))))
    values = {flag: draw(GEN_FLAGS[flag][flag in odd]) for flag in GEN_FLAGS}
    return {flag: value for flag, value in values.items() if value is not None}


def gen_events(flags) -> float:
    """duration x rate-peak as `gen` reads them (rate-peak 10000 when left
    out), or 0 when argparse refuses either."""
    try:
        duration = float(flags["--duration"])
        peak = float(flags.get("--rate-peak", "10000"))
    except (KeyError, ValueError):  # left out, or not a number
        return 0.0
    return duration * peak if duration > 0 and peak >= 0 else 0.0


@settings(FUZZ, max_examples=400)
@given(gen_argv())
def test_gen_on_fuzzed_flags(tmp_path_factory, flags):
    # about 1e5 candidate events at most, so that no example makes large arrays
    assume(not gen_events(flags) > 1e5)
    argv = [a for flag, value in flags.items() for a in (flag, value.replace("{", "{{"))]
    run_fuzzed(tmp_path_factory, ["gen", *argv, "--out", "{d}/g.hevs"], {})

FAILING_FUZZ = '''
import warnings
from hypothesis import given, settings, strategies as st

@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails_by_example(n):
    assert n < 5

def test_any_other_deprecation_warning_is_an_error():
    warnings.warn("some other API is deprecated", DeprecationWarning)
'''


def test_a_failing_fuzz_test_reports_its_falsifying_example(tmp_path):
    """Under this suite's warning filter a failing `@given` test is a plain
    failure with its falsifying example (it was an INTERNALERROR, since
    hypothesis's report touches a deprecated `mypy_extensions.TypedDict`),
    and any other warning still fails its test."""
    (tmp_path / "test_failing.py").write_text(FAILING_FUZZ)
    config = Path(__file__).resolve().parent.parent / "pyproject.toml"
    run = subprocess.run([sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c",
                          str(config), "--rootdir", str(tmp_path), "test_failing.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example: test_fails_by_example(" in out
    assert "INTERNALERROR" not in out
    assert "2 failed" in out
