"""The event-file parser equals the row-by-row reference parser in
``tests/oracles.py``: dates and values bit for bit, which rows are flagged,
rejects, and the ``DataError`` text."""
import csv
import datetime as dt
import math

import numpy as np
import pytest

import shmev.ingest
from shmev.cli import _read_grid_file, _read_test_maxima
from shmev.data import StandardizationSnapshot
from shmev.errors import DataError
from shmev.ingest import (
    QcPolicy,
    load_and_qc,
    read_covariate_file,
    read_event_file,
    write_event_file,
)

from .oracles import naive_read_event_file

HEADER = "station,date,prcp_mm,qflag\n"


def parse(reader, paths):
    try:
        return reader(paths)
    except DataError as exc:
        return f"{type(exc).__name__}: {exc}"


def assert_same_parse(paths):
    ours, ref = parse(read_event_file, paths), parse(naive_read_event_file, paths)
    if isinstance(ref, str) or isinstance(ours, str):
        assert ours == ref
        return
    (series, ledger), (ref_series, ref_ledger) = ours, ref
    assert list(series) == list(ref_series)
    for station, (dates, values, flags) in ref_series.items():
        got_dates, got_values, got_flagged = series[station]
        assert got_dates.dtype == dates.dtype == np.dtype("datetime64[D]")
        assert got_dates.tobytes() == dates.tobytes()
        assert got_values.dtype == values.dtype
        assert got_values.tobytes() == values.tobytes()
        assert got_flagged.dtype == np.dtype(bool)
        assert got_flagged.tolist() == [flag != "" for flag in flags]
    assert ledger.rejects == ref_ledger.rejects


def write_files(tmp_path, bodies):
    paths = []
    for i, body in enumerate(bodies):
        path = tmp_path / f"events{i}.csv"
        path.write_text(HEADER + body, encoding="utf-8")
        paths.append(path)
    return paths


CASES = {
    "clean": "A,2001-01-01,0.0,\nA,2001-01-02,1.5,\nA,2001-01-03,,Q\n",
    "blank rows": "\nA,2001-01-01,1.0,\n,,,\n  , ,\t,\n\nA,2001-01-02,2.0,\n",
    "field counts": "A,2001-01-01,1.0\nA,2001-01-02,1.0,,\n,,\nA,2001-01-03,1.0,\nA\n",
    "quoted and padded": '"A","2001-01-01","1.5",""\n A , 2001-01-02 , 2.5 , Q \n"A, B",2001-01-03,1.0,\n',
    "compact and invalid dates": (
        "A,20010110,1.0,\nA,2001-02-30,1.0,\nA,not-a-date,1.0,\nA,,1.0,\nA,2001-W02-3,1.0,\n"
    ),
    "calendar dates": (
        "A,2001-02-29,1.0,\nA,2000-02-29,1.0,\nA,1900-02-29,1.0,\nA,2001-04-31,1.0,\nA,2001-13-01,1.0,\n"
        "A,2001-00-10,1.0,\nA,2001-12-00,1.0,\nA,0000-01-01,1.0,\nA,0001-01-01,1.0,\nA,9999-12-31,1.0,\n"
        "A,1969-12-31,1.0,\nA,2001-1a-01,1.0,\nA,2001/01/02,1.0,\nA,2001-01-0\u0663,1.0,\n"
    ),
    "missing markers": "A,2001-01-01,NA,\nA,2001-01-02,NaN,\nA,2001-01-03,nan,\nA,2001-01-04,,\n",
    "nan and zero spellings": "A,2001-01-01,NAN,\nA,2001-01-02,-nan,\nA,2001-01-03,-0.0,\nA,2001-01-04,0,\n",
    "bad values": (
        "A,2001-01-01,-3.0,\nA,2001-01-02,oops,\nA,2001-01-03,inf,\nA,2001-01-04,-inf,\n"
        "A,2001-01-05,Infinity,\nA,2001-01-06,1e999,\nA,2001-01-07,-1e999,\nA,2001-01-08,1_0,\n"
    ),
    "signed and special values": (
        "A,2001-01-01,-3.0,\nA,2001-01-02,-0.0,\nA,2001-01-03,inf,\nA,2001-01-04,-nan,\n"
        "A,2001-01-05,1e999,\nA,2001-01-06, 3.0 ,\nA,2001-01-07,NaN,\nA,2001-01-08,-inf,\nA,2001-01-09,1_0,\n"
    ),
    "unsorted and interleaved": (
        "B,2001-01-03,3.0,\nA,2001-01-02,2.0,\nB,2001-01-01,1.0,\nA,2001-01-01,1.0,X\n"
        "B,2001-01-02,2.0,\n"
    ),
    "duplicate date": "A,2001-01-02,1.0,\nB,2001-01-01,1.0,\nA,2001-01-01,1.0,\nA,20010102,2.0,\n",
    "duplicate after a reject": "A,2001-01-01,1.0,\nA,2001-01-01,oops,\nA,2001-01-02,1.0,\n",
    "empty": "",
    "only rejects": "A,bad,1.0,\n",
    "nul byte": "A,2001-01-01,1.0,\nA,2001-01-02,1\x00.0,\nA,2001-01-03,2.0,\x00\n",
    "non-ascii station": "Zürich,2001-01-01,1.5,\n Zürich ,2001-01-02,0.0,\n\u00a0Zürich,2001-01-03,,Q\n",
    "blank and whitespace lines": (
        "\n   \n\t\n,,,\n , ,\t, \n,\x1c,\u00a0,\u2003\nA,2001-01-01,1.0,\n\n  ,\n"
    ),
    "crlf line ends": "A,2001-01-01,1.0,\r\nA,bad,1.0,\r\n\r\nA,2001-01-02,x,Q\r\nA,2001-01-03,2.0,Q",
    "lone cr line ends": "A,2001-01-01,1.0,\rA,bad,1.0,\r\rA,2001-01-02,2.0,\r",
    "one station in two runs": "A,2001-01-01,1.0,\nB,2001-01-01,2.0,\nA,2001-01-02,3.0,Q\nB,2001-01-02,0.0,\n",
    "no final newline": "A,2001-01-01,1.0,\nA,2001-01-02,2.0,Q",
}


@pytest.mark.parametrize("body", CASES.values(), ids=CASES.keys())
def test_matches_reference_on_one_file(tmp_path, body):
    assert_same_parse(write_files(tmp_path, [body]))


@pytest.mark.parametrize("body", CASES.values(), ids=CASES.keys())
def test_matches_reference_in_small_blocks(tmp_path, monkeypatch, body):
    # blocks of a few lines put line ends and CRLF pairs at block edges,
    # and batches of two rows put csv.reader's rows at batch edges
    monkeypatch.setattr(shmev.ingest, "_BLOCK_BYTES", 16)
    monkeypatch.setattr(shmev.ingest, "_CSV_ROWS", 2)
    assert_same_parse(write_files(tmp_path, [body]))


def test_rejects_give_the_physical_line_of_a_crlf_file(tmp_path):
    path = tmp_path / "events.csv"
    path.write_bytes(b"station,date,prcp_mm,qflag\r\nA,2001-01-01,1.0,\r\nA,bad,1.0,\r\n\r\nA,2001-01-02,x,\r\n")
    series, ledger = read_event_file(path)
    assert [(r["line"], r["reason"], r["row"]) for r in ledger.rejects] == [
        (3, "unparseable date", "A,bad,1.0,"),
        (5, "unparseable precipitation", "A,2001-01-02,x,"),
    ]
    assert_same_parse(path)


def test_a_byte_order_mark_is_part_of_the_header(tmp_path):
    path = tmp_path / "events.csv"
    path.write_bytes(b"\xef\xbb\xbf" + HEADER.encode() + b"A,2001-01-01,1.0,\n")
    with pytest.raises(DataError, match="expected header"):
        read_event_file(path)
    assert_same_parse(path)


def test_a_line_over_the_csv_field_limit_raises_as_csv_does(tmp_path):
    paths = write_files(tmp_path, ["A,2001-01-01,1.0,\n" + "B" * 40 + ",2001-01-01,1.0,\n"])
    limit = csv.field_size_limit(30)
    try:
        with pytest.raises(DataError) as info:
            read_event_file(paths)
        assert str(info.value) == f"{paths[0]}:3: field larger than field limit (30)"
        assert_same_parse(paths)
    finally:
        csv.field_size_limit(limit)


def test_iso_dates_count_days_as_toordinal():
    days = [dt.date(1600, 1, 1) + dt.timedelta(days=i) for i in range(800 * 366)]
    days += [dt.date(y, m, d) for y in range(1, 10000) for m, d in ((1, 1), (2, 28), (3, 1), (12, 31))]
    text = "".join(d.isoformat() for d in days).encode()
    iso, valid, day = shmev.ingest._iso_days(text, np.arange(0, len(text), 10))
    assert iso.all() and valid.all()
    assert day.tolist() == [d.toordinal() - dt.date(1970, 1, 1).toordinal() for d in days]


@pytest.mark.parametrize("quote", ["", '"'])
def test_only_iso_calendar_dates_parse(tmp_path, quote):
    # from Python 3.11 on date.fromisoformat also reads the compact and week
    # forms; both tokenizers reject them on every version
    dates = ["2001-01-01", "20010103", "2001-W01-2", " 2001-01-04 "]
    path = write_files(tmp_path, ["".join(f"{quote}A{quote},{d},1.0,\n" for d in dates)])[0]
    series, ledger = read_event_file(path)
    assert [(r["line"], r["reason"]) for r in ledger.rejects] == [(3, "unparseable date"), (4, "unparseable date")]
    assert series["A"][0].tolist() == [dt.date(2001, 1, 1), dt.date(2001, 1, 4)]
    assert_same_parse(path)


def test_matches_reference_across_files(tmp_path):
    bodies = [
        "B,2001-01-02,1.0,\nA,2001-01-05,2.0,\nA,2001-01-01,bad,\n",
        "A,2001-01-03,1.0,\nB,2001-01-01,inf,\nB,2001-01-01,0.5,\n",
        "C,2001-01-01,0.0,\n",
    ]
    paths = write_files(tmp_path, bodies)
    assert_same_parse(paths)
    assert_same_parse(paths[::-1])
    assert_same_parse([paths[0], paths[1], paths[0]])  # a file read twice repeats every date


def test_one_station_across_files_and_runs(tmp_path):
    bodies = [
        "A,2001-01-03,1.0,\nB,2001-01-01,2.0,\nA,2001-01-01,3.0,Q\n",
        'B,2001-01-02,1.0,\nA,2001-01-02,0.0,\n"C",2001-01-01,1.0,\n',  # read by csv.reader
    ]
    paths = write_files(tmp_path, bodies)
    series, _ = read_event_file(paths)
    dates, values, flagged = series["A"]
    assert dates.astype(str).tolist() == ["2001-01-01", "2001-01-02", "2001-01-03"]
    assert values.tolist() == [3.0, 0.0, 1.0]
    assert flagged.tolist() == [True, False, False]
    assert list(series) == ["A", "B", "C"]
    assert_same_parse(paths)
    assert_same_parse(paths[::-1])


def test_matches_reference_on_a_daily_series(tmp_path):
    rng = np.random.default_rng(5)
    start = dt.date(2000, 1, 1)
    rows = [
        (
            station,
            start + dt.timedelta(days=i),
            float(rng.weibull(0.8) * 10.0) if rng.random() < 0.3 else 0.0,
            "Q" if rng.random() < 0.01 else "",
        )
        for station in ("S01", "S02", "S03")
        for i in range(3 * 365)
    ]
    path = write_event_file(tmp_path / "daily.csv", rows)
    assert_same_parse(path)


@pytest.mark.parametrize("text", ["inf", "Infinity", "+inf", "1e999", " INF "])
def test_infinite_precipitation_is_rejected(tmp_path, text):
    path = write_files(tmp_path, [f"A,2001-01-01,1.0,\nA,2001-01-02,{text},\nA,2001-01-03,2.0,\n"])[0]
    series, ledger = read_event_file(path)
    assert ledger.rejects == [
        {"file": str(path), "line": 3, "reason": "non-finite precipitation", "row": f"A,2001-01-02,{text},"}
    ]
    assert series["A"][1].tolist() == [1.0, 2.0]
    records, _ = load_and_qc(path, QcPolicy(max_missing_days=366, min_retained_years=0))
    assert np.all(np.isfinite(records[0].values))


def test_negative_infinity_stays_negative_and_nan_stays_missing(tmp_path):
    path = write_files(tmp_path, ["A,2001-01-01,-inf,\nA,2001-01-02,NAN,\nA,2001-01-03,nan,\n"])[0]
    series, ledger = read_event_file(path)
    assert [r["reason"] for r in ledger.rejects] == ["negative precipitation"]
    assert all(math.isnan(v) for v in series["A"][1])


def test_rejects_give_the_physical_line(tmp_path):
    # the quoted flag spans lines 2-3, so the malformed rows are on lines 4 and 5
    path = write_files(tmp_path, ['A,2001-01-01,1.0,"multi\nline"\noops\nA,2001-01-02,bad,\n'])[0]
    series, ledger = read_event_file(path)
    assert [(r["line"], r["reason"], r["row"]) for r in ledger.rejects] == [
        (4, "wrong field count", "oops"),
        (5, "unparseable precipitation", "A,2001-01-02,bad,"),
    ]
    assert series["A"][2].tolist() == [True]
    assert_same_parse(path)


@pytest.mark.parametrize("quote", ["", '"'])
def test_a_byte_that_is_not_utf8_is_a_data_error(tmp_path, monkeypatch, quote):
    monkeypatch.setattr(shmev.ingest, "_BLOCK_BYTES", 64)  # the bad byte is some blocks in
    rows = "".join(f"{quote}A{quote},2001-01-{d:02d},1.0,\n" for d in range(1, 29))
    data = (HEADER + rows).encode()
    offset = data.rindex(b"1.0")
    path = tmp_path / "events.csv"
    path.write_bytes(data[:offset] + b"\xff" + data[offset + 1 :])
    with pytest.raises(DataError) as excinfo:
        read_event_file(path)
    assert str(excinfo.value) == f"{path}: invalid UTF-8 at byte {offset}"


SNAPSHOT = StandardizationSnapshot(("lat", "alt_m"), np.zeros(2), np.ones(2))
LINE_ERRORS = {
    "covariates": (
        read_covariate_file,
        'station,lat\n"A\nB",1.0\n\nC,oops\n',
        ":5: non-numeric covariate",
    ),
    "grid": (
        lambda path: _read_grid_file(path, SNAPSHOT),
        'lat,alt_m\n1.0,"2.0\n"\n1.0\n',
        ":4: wrong field count",
    ),
    "test maxima": (
        _read_test_maxima,
        'station,block,max_mm\n"A\n",1,3.0\nA,2,inf\n',
        ":4: non-finite maximum",
    ),
    "repeated covariate station": (
        read_covariate_file,
        "station,z1,z2\nA,1,2\nB,3,4\n\nA,5,6\n",
        ":5: repeated station 'A'",
    ),
    "repeated covariate column": (
        read_covariate_file,
        "station,z1, z1\nA,1,2\n",
        ":1: repeated column 'z1'",
    ),
}


@pytest.mark.parametrize("read, body, message", LINE_ERRORS.values(), ids=LINE_ERRORS.keys())
def test_data_errors_give_the_physical_line(tmp_path, read, body, message):
    path = tmp_path / "table.csv"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(DataError) as excinfo:
        read(path)
    assert str(excinfo.value) == f"{path}{message}"


@pytest.mark.parametrize("read, body, message", LINE_ERRORS.values(), ids=LINE_ERRORS.keys())
def test_tables_name_a_byte_that_is_not_utf8(tmp_path, read, body, message):
    data = body.encode()
    offset = data.index(b"\n") + 1
    path = tmp_path / "table.csv"
    path.write_bytes(data[:offset] + b"\xc3(" + data[offset:])
    with pytest.raises(DataError) as excinfo:
        read(path)
    assert str(excinfo.value) == f"{path}: invalid UTF-8 at byte {offset}"
