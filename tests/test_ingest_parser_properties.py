"""Property test: the event-file parser equals the reference parser on
random files built from valid, padded, quoted and malformed fields."""
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from .test_ingest_parser import assert_same_parse, write_files

STATIONS = ["A", "B", " A", "C "]
DATES = ["2001-01-01", "2001-01-02", "2001-01-03", "20010103", "2001-12-31", "2000-02-29",
         "2001-02-29", "2001-1-5", "1969-12-31", " 2001-01-02", "x", ""]
VALUES = ["0.0", "1.5", "12.25", "-0.0", "", "NA", "NaN", "nan", "NAN", "-nan", "inf",
          "-inf", "Infinity", "1e999", "-2.0", "oops", " 3.0 ", "7"]
FLAGS = ["", "", "Q", " X"]


@st.composite
def rows(draw):
    kind = draw(st.integers(0, 9))
    if kind == 0:
        fields = draw(st.lists(st.sampled_from(["", " ", "\t"]), min_size=0, max_size=5))
    elif kind == 1:
        fields = draw(st.lists(st.sampled_from(STATIONS + DATES + VALUES), min_size=1, max_size=6))
    else:
        fields = [draw(st.sampled_from(pool)) for pool in (STATIONS, DATES, VALUES, FLAGS)]
    quote = draw(st.booleans())
    return ",".join(f'"{f}"' if quote else f for f in fields)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(rows(), max_size=30), min_size=1, max_size=3))
def test_matches_reference_on_random_files(tmp_path_factory, files):
    tmp_path = tmp_path_factory.mktemp("fuzz")
    assert_same_parse(write_files(tmp_path, ["".join(row + "\n" for row in rows_) for rows_ in files]))
