"""Properties of profile parsing: the one-pass np.loadtxt parse gives the
line scan's arrays bit for bit, or the same exception, on any text; the
line scan runs only for rows loadtxt rejects."""

import contextlib
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fchybrid import profile
from fchybrid.errors import ProfileParseError
from fchybrid.profile import CSV_HEADER, load_profile

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=300)

NUMBERS = st.one_of(
    st.floats().map(repr),
    st.floats(min_value=0.0, max_value=3e-308).map(repr),  # subnormals
    st.floats(min_value=0.0, max_value=1e7).map(lambda x: "%.6g" % x),
    st.integers(min_value=-10**20, max_value=10**20).map(str),
    st.sampled_from(["-0.0", "0", "5e-324", "2.225073858507201e-308", "1e+06",
                     "1E6", "1_0", "١٢", "+.5", "5.", "nan", "-inf",
                     "Infinity", "0x10", "1e", "1.2.3", "", "2j", "1 # x",
                     '"1"', "1\x00"]),
)
SPACE = st.sampled_from(["", " ", "\t", "\x0c", " ", "　", "\x85"])
ROWS = st.one_of(
    st.tuples(SPACE, NUMBERS, SPACE, NUMBERS, SPACE).map(
        lambda r: f"{r[0]}{r[1]}{r[2]},{r[2]}{r[3]}{r[4]}"),
    st.sampled_from(["", " ", "  \t", "\x0c", "1", "1,2,3", "1;2", ",", "1,2,"]),
)
LINE_END = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def csv_bytes(draw):
    lines = [*draw(st.lists(st.sampled_from(["", " "]), max_size=2)), CSV_HEADER,
             *draw(st.lists(ROWS, max_size=12))]
    text = "".join(line + draw(LINE_END) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    data = text.encode()
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        cut = draw(st.integers(min_value=0, max_value=len(data)))
        data = data[:cut] + b"\xff" + data[cut:]
    return data


def outcome(make, *, scan_only=False):
    """load_profile's arrays as bytes, or its exception's type and message;
    PowerProfile's own checks are left out, so any row values compare."""
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(
            profile, "PowerProfile", lambda times, power: (times, power)))
        if scan_only:
            stack.enter_context(mock.patch.object(
                profile, "_bulk_rows", side_effect=ValueError("scan only")))
        try:
            times, power = load_profile(make())
        except ValueError as exc:
            return type(exc), str(exc)
    assert times.dtype == power.dtype == np.float64
    return times.tobytes(), power.tobytes()


@PROPERTY
@given(csv_bytes())
@example(f"{CSV_HEADER}\n0,1\n \n1_0,2\n".encode())
@example(f"{CSV_HEADER}\r\n-0.0,5e-324\r\n1e+06,١\r\n".encode())
@example(f"{CSV_HEADER}\r0,1\r1,2\r".encode())
@example(f"{CSV_HEADER}\n0,1\n1,2 # x\n".encode())
@example(f"{CSV_HEADER}\n5\n6\n".encode())
@example(f"{CSV_HEADER}\n".encode())
@example(b"\xef\xbb\xbf" + f"{CSV_HEADER}\n0,1\n1,\xff\n".encode("latin-1"))
def test_bulk_parse_matches_the_line_scan(data):
    fd, path = tempfile.mkstemp(suffix=".csv")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        for make in (lambda: data, lambda: path):
            assert outcome(make) == outcome(make, scan_only=True), make()
    finally:
        os.unlink(path)


def test_clean_rows_skip_the_line_scan():
    text = f"{CSV_HEADER}\n0,5\n\n1,6\r\n2,-0.0\n3,1e+06\n"
    with mock.patch.object(profile, "_scan_rows", side_effect=AssertionError):
        p = load_profile(text.encode())
    assert p.times.tolist() == [0.0, 1.0, 2.0, 3.0]
    assert p.power.tobytes() == np.array([5.0, 6.0, -0.0, 1e6]).tobytes()


@pytest.mark.parametrize("text, power", [
    (f"{CSV_HEADER}\n0,5\n \n1,6\n", [5.0, 6.0]),
    (f"{CSV_HEADER}\n0,5\n1,1_0\n", [5.0, 10.0]),
    (f"{CSV_HEADER}\n0,5\n1,\u0666\n", [5.0, 6.0]),
], ids=["space-only-line", "digit-separator", "non-ascii-digit"])
def test_forms_only_float_accepts_still_load(text, power):
    assert load_profile(text.encode()).power.tolist() == power


@pytest.mark.parametrize("text, line", [
    (f"\n{CSV_HEADER}\n0,5\n1,2 # x\n", 4),
    (f"{CSV_HEADER}\n0,5\n \n2,7,8\n", 4),
    (f"{CSV_HEADER}\n0\n1\n", 2),
], ids=["comment", "three-fields", "one-column"])
def test_bad_rows_keep_their_line(text, line):
    with pytest.raises(ProfileParseError) as err:
        load_profile(text.encode())
    assert err.value.line == line


def test_text_that_is_not_utf8_is_read_once(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(f"{CSV_HEADER}\n0,5\n1,6\xff\n".encode("latin-1"))
    with mock.patch.object(profile, "_scan_rows", side_effect=AssertionError):
        with pytest.raises(ProfileParseError, match="is not UTF-8 text") as err:
            load_profile(path)
    assert str(path) in str(err.value)
