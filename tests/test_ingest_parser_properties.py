"""Property tests: the event-file parser equals the reference parser on
random files built from valid, padded, quoted and malformed fields, with
every line ending, read by either of its tokenizers."""
from collections import Counter

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

import shmev.ingest

from .test_ingest_parser import assert_same_parse, write_files

STATIONS = ["A", "B", " A", "C "]
DATES = ["2001-01-01", "2001-01-02", "2001-01-03", "20010103", "2001-12-31", "2000-02-29",
         "2001-02-29", "2001-1-5", "1969-12-31", " 2001-01-02", "2001-W01-2", "x", ""]
VALUES = ["0.0", "1.5", "12.25", "-0.0", "", "NA", "NaN", "nan", "NAN", "-nan", "inf",
          "-inf", "Infinity", "1e999", "-2.0", "oops", " 3.0 ", "7"]
FLAGS = ["", "", "Q", " X", " ", "\t", "\u00a0"]


@st.composite
def fields(draw, stations=STATIONS, values=VALUES):
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(st.lists(st.sampled_from(["", " ", "\t"]), min_size=0, max_size=5))
    if kind == 1:
        return draw(st.lists(st.sampled_from(stations + DATES + values), min_size=1, max_size=6))
    return [draw(st.sampled_from(pool)) for pool in (stations, DATES, values, FLAGS)]


@st.composite
def rows(draw):
    row = draw(fields())
    quote = draw(st.booleans())
    return ",".join(f'"{f}"' if quote else f for f in row)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(rows(), max_size=30), min_size=1, max_size=3))
def test_matches_reference_on_random_files(tmp_path_factory, files):
    tmp_path = tmp_path_factory.mktemp("fuzz")
    assert_same_parse(write_files(tmp_path, ["".join(row + "\n" for row in rows_) for rows_ in files]))


# texts that only str.strip or float on a decoded str reads as the plain ones
UNICODE_STATIONS = ["\u00a0A", "Zürich", "A\u2003"]
UNICODE_VALUES = ["\u00a01.5", "\x1c2.0", "\u0663", "1.5\u2028"]
ENDINGS = {"lf": ["\n"], "crlf": ["\r\n"], "mixed": ["\n", "\r\n"], "cr": ["\r"]}


@st.composite
def event_files(draw):
    """One file's body: quoted or quote-free rows, each ended by a line end
    drawn from one of ``ENDINGS``, with or without a final line end."""
    quote = draw(st.booleans())
    endings = ENDINGS[draw(st.sampled_from(sorted(ENDINGS)))]
    values = draw(st.sampled_from([VALUES, VALUES + UNICODE_VALUES]))
    pools = {"stations": STATIONS + UNICODE_STATIONS, "values": values}
    blank_rows = st.lists(st.sampled_from(["", " ", "\t", "\u00a0", "\x1c"]), min_size=4, max_size=4)
    lines = [
        ",".join(f'"{f}"' if quote else f for f in row) + draw(st.sampled_from(endings))
        for row in draw(st.lists(st.one_of(fields(**pools), blank_rows), max_size=30))
    ]
    if lines and not draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    return "".join(lines)


def test_both_tokenizers_match_reference(tmp_path_factory, monkeypatch):
    tokenizer = Counter()
    split = shmev.ingest._split

    def counted_split(path):
        read = split(path)
        tokenizer["csv" if read is None else "bytes"] += 1
        return read

    monkeypatch.setattr(shmev.ingest, "_split", counted_split)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(event_files(), min_size=1, max_size=3))
    def check(bodies):
        tmp_path = tmp_path_factory.mktemp("tokenizers")
        paths = []
        for i, body in enumerate(bodies):
            path = tmp_path / f"events{i}.csv"
            # the header ends as the file's first row does
            ending = "\r\n" if "\r\n" in body else "\r" if "\r" in body else "\n"
            path.write_bytes(("station,date,prcp_mm,qflag" + ending + body).encode())
            paths.append(path)
        assert_same_parse(paths)

    check()
    assert tokenizer["bytes"] and tokenizer["csv"], tokenizer
