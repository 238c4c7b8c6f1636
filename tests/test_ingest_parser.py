"""The event-file parser equals the row-by-row reference parser in
``tests/oracles.py``: dates and values bit for bit, flags, rejects, and the
``DataError`` text."""
import datetime as dt
import math

import numpy as np
import pytest

from shmev.errors import DataError
from shmev.ingest import QcPolicy, load_and_qc, read_event_file, write_event_file

from .oracles import naive_read_event_file

HEADER = "station,date,prcp_mm,qflag\n"


def parse(reader, paths):
    try:
        return reader(paths)
    except DataError as exc:
        return str(exc)


def assert_same_parse(paths):
    ours, ref = parse(read_event_file, paths), parse(naive_read_event_file, paths)
    if isinstance(ref, str) or isinstance(ours, str):
        assert ours == ref
        return
    (series, ledger), (ref_series, ref_ledger) = ours, ref
    assert list(series) == list(ref_series)
    for station, (dates, values, flags) in ref_series.items():
        got_dates, got_values, got_flags = series[station]
        assert got_dates.dtype == dates.dtype == np.dtype("datetime64[D]")
        assert got_dates.tobytes() == dates.tobytes()
        assert got_values.dtype == values.dtype
        assert got_values.tobytes() == values.tobytes()
        assert got_flags == flags
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
    "missing markers": "A,2001-01-01,NA,\nA,2001-01-02,NaN,\nA,2001-01-03,nan,\nA,2001-01-04,,\n",
    "nan and zero spellings": "A,2001-01-01,NAN,\nA,2001-01-02,-nan,\nA,2001-01-03,-0.0,\nA,2001-01-04,0,\n",
    "bad values": (
        "A,2001-01-01,-3.0,\nA,2001-01-02,oops,\nA,2001-01-03,inf,\nA,2001-01-04,-inf,\n"
        "A,2001-01-05,Infinity,\nA,2001-01-06,1e999,\nA,2001-01-07,-1e999,\nA,2001-01-08,1_0,\n"
    ),
    "unsorted and interleaved": (
        "B,2001-01-03,3.0,\nA,2001-01-02,2.0,\nB,2001-01-01,1.0,\nA,2001-01-01,1.0,X\n"
        "B,2001-01-02,2.0,\n"
    ),
    "duplicate date": "A,2001-01-02,1.0,\nB,2001-01-01,1.0,\nA,2001-01-01,1.0,\nA,20010102,2.0,\n",
    "duplicate after a reject": "A,2001-01-01,1.0,\nA,2001-01-01,oops,\nA,2001-01-02,1.0,\n",
    "empty": "",
    "only rejects": "A,bad,1.0,\n",
}


@pytest.mark.parametrize("body", CASES.values(), ids=CASES.keys())
def test_matches_reference_on_one_file(tmp_path, body):
    assert_same_parse(write_files(tmp_path, [body]))


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
