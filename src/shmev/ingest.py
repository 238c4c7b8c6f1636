"""Daily precipitation ingestion, quality control, and prior elicitation.

Canonical event file: UTF-8 comma-separated with header
``station,date,prcp_mm,qflag`` (ISO dates; empty or ``NA`` precipitation
means a missing day; the quality flag is blank for clean records).
Covariate file: ``station`` plus one numeric column per covariate; the
reader is header-driven, with ``station,lat,lon,alt_m,dist_coast_km`` the
canonical layout.  A converter for the fixed-width GHCN daily archive
format is provided, but the columnar form is canonical.

Quality control removes flagged values, drops whole years over the
missing-day budget, and drops stations that do not exceed the minimum
retained-year count; every exclusion lands in a ledger with a reason code
and malformed rows are collected into a rejects report, never skipped
silently.
"""
from __future__ import annotations

import calendar
import csv
import datetime as dt
import io
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .data import Dataset, SiteCovariates, StandardizationSnapshot
from .distributions import WeibullParams
from .errors import ConvergenceError, DataError
from .model import (
    BetaPrior,
    HmevPriorSpec,
    InverseGammaPrior,
    NormalPrior,
    ShmevPriorSpec,
)
from .special import gammaln, logit

__all__ = [
    "QcPolicy",
    "StationRecord",
    "QcLedger",
    "read_event_file",
    "read_covariate_file",
    "write_event_file",
    "write_covariate_file",
    "load_and_qc",
    "build_dataset",
    "dataset_to_rows",
    "weibull_mom",
    "ElicitationRules",
    "elicit_priors",
    "elicit_hmev_priors",
    "convert_ghcn_dly",
]

logger = logging.getLogger(__name__)

EVENT_HEADER = ["station", "date", "prcp_mm", "qflag"]
_MISSING = {"", "NA", "NaN", "nan"}
_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()
# the one date form; from Python 3.11 on, date.fromisoformat also reads
# YYYYMMDD and week dates, so it would parse a file differently by version
_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")

# normal 95% central interval half-width in standard deviations
_Z95 = 1.96

_MOM_BRACKET = (0.05, 20.0)


@dataclass(frozen=True)
class QcPolicy:
    """Quality-control thresholds.

    A year is retained when it has at most ``max_missing_days`` missing daily
    observations; a station is retained when it keeps strictly more than
    ``min_retained_years`` years.
    """

    max_missing_days: int = 30
    min_retained_years: int = 73
    drop_flagged: bool = True

    def __post_init__(self):
        if self.max_missing_days < 0 or self.min_retained_years < 0:
            raise ValueError("QC thresholds must be >= 0")


@dataclass(eq=False)
class StationRecord:
    """Daily series for one station after parsing (and optionally QC)."""

    station: str
    dates: np.ndarray   # datetime64[D], strictly increasing
    values: np.ndarray  # mm, NaN for missing
    covariates: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if np.any(np.diff(self.dates.astype("int64")) <= 0):
            raise DataError(f"station {self.station}: dates are not strictly increasing")

    def years(self) -> np.ndarray:
        return self.dates.astype("datetime64[Y]").astype(int) + 1970


@dataclass
class QcLedger:
    """Every exclusion performed by QC, with machine-readable reason codes."""

    entries: list[dict] = field(default_factory=list)
    rejects: list[dict] = field(default_factory=list)

    def add(self, station: str, code: str, detail: str, year: int | None = None):
        self.entries.append({"station": station, "code": code, "detail": detail, "year": year})

    def reject(self, path: str, line: int, reason: str, row: str):
        self.rejects.append({"file": path, "line": line, "reason": reason, "row": row})


# ---------------------------------------------------------------------------
# File IO
# ---------------------------------------------------------------------------

def _parse_prcp(text: str) -> float | str:
    """Precipitation in mm (NaN for a missing day), or the reject reason."""
    if text in _MISSING:
        return np.nan
    try:
        value = float(text)
    except ValueError:
        return "unparseable precipitation"
    if value < 0.0:
        return "negative precipitation"
    if value == np.inf:
        return "non-finite precipitation"
    return value


def _utf8(path: Path, data: bytes, offset: int = 0) -> str:
    """``data``, which starts at byte ``offset`` of ``path``, as text; a byte
    that is not UTF-8 is a ``DataError`` naming its offset in the file."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: invalid UTF-8 at byte {offset + exc.start}") from exc


def _table_rows(path: Path, what: str) -> Iterator[tuple[int, list[str]]]:
    """The ``(line, fields)`` of a small table: the header first, stripped
    (``[]`` for an empty file), then each row that is not blank.  A missing
    file is a ``DataError`` naming ``what``; a row whose field count is not
    the header's and a ``csv.Error`` are ``DataError``s as ``path:line: reason``,
    and a byte that is not UTF-8 is one naming its offset."""
    if not path.exists():
        raise DataError(f"{what} not found: {path}")
    reader = csv.reader(io.StringIO(_utf8(path, path.read_bytes()), newline=""))
    rows = _csv_rows(path, reader)
    header = [h.strip() for h in next(rows, [])]
    yield reader.line_num, header
    for row in rows:
        if any(c.strip() for c in row):
            if len(row) != len(header):
                raise DataError(f"{path}:{reader.line_num}: wrong field count")
            yield reader.line_num, row


def _csv_rows(path: Path, reader) -> Iterator[list[str]]:
    """The rows of ``reader``, a ``csv.reader`` over ``path``; a ``csv.Error``
    is a ``DataError`` as ``path:line: reason``."""
    try:
        yield from reader
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from exc


_NL, _CR, _COMMA, _DASH, _ZERO, _DOT = b"\n\r,-0."  # byte values
_BLOCK_BYTES = 1 << 18  # whole lines split per pass, to bound the transient arrays
_CSV_ROWS = 1 << 13  # csv.reader rows parsed per pass, likewise
_DATE_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9]  # the digit bytes of YYYY-MM-DD
# by month number; month 13 stands for any number over 12, which no date has
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31, 0], np.int32)
_DAYS_BEFORE_MONTH = np.concatenate(([0], np.cumsum(_MONTH_DAYS[:-1]))).astype(np.int32)


def _blocks(path: Path) -> Iterator[bytes]:
    """A file's bytes in blocks of whole lines (the last block's last line
    may lack its newline); a byte that is not UTF-8 is a ``DataError``
    naming its offset.  No character and no CRLF spans two blocks."""
    offset = 0
    with open(path, "rb") as fh:
        while block := fh.read(_BLOCK_BYTES):
            if block[-1] != _NL:
                block += fh.readline()
            if not block.isascii():
                _utf8(path, block, offset)
            offset += len(block)
            yield block


def _iso_days(data: bytes, at: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For the 10-byte fields starting at ``at``: whether each is ``YYYY-MM-DD``
    in ASCII digits, whether that is a calendar date, and its day since
    1970-01-01 as ``date.toordinal`` counts them."""
    # 10 bytes per field, gathered through a view of data at a 1-byte stride
    text = np.ndarray((len(data) - 9,), "S10", data, 0, (1,))[at].view(np.uint8).reshape(-1, 10)
    digit = text - np.uint8(_ZERO)  # bytes below '0' wrap past 9
    iso = (digit[:, _DATE_DIGITS].max(axis=1) <= 9) & (text[:, 4] == _DASH) & (text[:, 7] == _DASH)
    digit = digit.astype(np.int32)
    year = digit[:, 0] * 1000 + digit[:, 1] * 100 + digit[:, 2] * 10 + digit[:, 3]
    month = np.minimum(digit[:, 5] * 10 + digit[:, 6], 13)
    mday = digit[:, 8] * 10 + digit[:, 9]
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _MONTH_DAYS[month] + ((month == 2) & leap)
    valid = iso & (year >= 1) & (month >= 1) & (mday >= 1) & (mday <= month_days)
    before = year - 1
    ordinal = (
        before * 365 + before // 4 - before // 100 + before // 400
        + _DAYS_BEFORE_MONTH[month] + ((month > 2) & leap) + mday
    )
    return iso, valid, ordinal.astype(np.int64) - _EPOCH_ORDINAL


def _texts(data: bytes, start: np.ndarray, end: np.ndarray) -> list[str]:
    return [data[a:b].decode() for a, b in zip(start.tolist(), end.tolist())]


def _days(data: bytes, start: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each date field's day since 1970-01-01 and whether it parses: an
    ASCII ``YYYY-MM-DD`` calendar date, optionally padded with whitespace.
    Unpadded fields go by digit arithmetic, the rest one at a time."""
    day = np.zeros(start.size, np.int64)
    dated = np.zeros(start.size, bool)
    ten = np.flatnonzero(end - start == 10)
    if ten.size:
        iso, dated[ten], day[ten] = _iso_days(data, start[ten])
        ten = ten[iso]
    other = np.ones(start.size, bool)
    other[ten] = False
    other = np.flatnonzero(other)
    for k, text in zip(other.tolist(), _texts(data, start[other], end[other])):
        text = text.strip()
        if _ISO_DATE.fullmatch(text):
            try:
                day[k], dated[k] = dt.date(*map(int, text.split("-"))).toordinal() - _EPOCH_ORDINAL, True
            except ValueError:
                pass
    return day, dated


def _values(data: bytes, arr: np.ndarray, start: np.ndarray, end: np.ndarray):
    """Each value field in mm, and the reject reason of each rejected one
    by index: the empty field is missing, ``0.0`` is zero, and every
    other text goes through ``_parse_prcp``."""
    value = np.full(start.size, np.nan)
    three = np.flatnonzero(end - start == 3)
    at = start[three]
    value[three[(arr[at] == _ZERO) & (arr[at + 1] == _DOT) & (arr[at + 2] == _ZERO)]] = 0.0
    other = np.flatnonzero((end > start) & (value != 0.0))
    parsed = [_parse_prcp(text.strip()) for text in _texts(data, start[other], end[other])]
    reasons = {k: p for k, p in zip(other.tolist(), parsed) if isinstance(p, str)}
    if reasons:
        parsed = [np.nan if isinstance(p, str) else p for p in parsed]
    value[other] = parsed
    return value, reasons


def _runs(arr: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """The first row of each run of consecutive rows with the same
    ``arr[start:end]`` bytes."""
    length = end - start
    repeats = np.zeros(start.size, bool)  # row k has row k-1's bytes
    pending = np.flatnonzero(length[1:] == length[:-1]) + 1
    offset = 0
    while pending.size:
        done = length[pending] == offset
        repeats[pending[done]] = True
        pending = pending[~done]
        pending = pending[arr[start[pending] + offset] == arr[start[pending - 1] + offset]]
        offset += 1
    return np.flatnonzero(~repeats)


def _rows(data: bytes, line: np.ndarray, start, c1, c2, c3, end):
    """Parse 4-field rows: row k is ``data[start[k]:end[k]]``, ends on
    ``line[k]``, and has its fields cut at the separator bytes ``c1[k]``,
    ``c2[k]`` and ``c3[k]``.  Returns the accepted rows as ``(names, run
    lengths, days, values, flagged)``, with one station name per run of
    rows that share its bytes, and the rejects as ``(line, reason, row)``.
    A row whose fields all strip to empty is blank, and a row is flagged
    when its stripped flag is not empty."""
    arr = np.frombuffer(data, np.uint8)
    day, dated = _days(data, c1 + 1, c2)
    rejects = []
    undated = np.flatnonzero(~dated)
    for k, a, b, c, d, e in zip(*(x[undated].tolist() for x in (line, start, c1, c2, c3, end))):
        if any(f.decode().strip() for f in (data[a:b], data[b + 1 : c], data[c + 1 : d], data[d + 1 : e])):
            rejects.append((k, "unparseable date", data[a:e].decode()))
    value, reasons = _values(data, arr, c2 + 1, c3)
    bad = np.array([k for k in reasons if dated[k]], dtype=np.int64)
    for k, text in zip(bad.tolist(), _texts(data, start[bad], end[bad])):
        rejects.append((int(line[k]), reasons[k], text))

    dated[bad] = False
    accepted = np.flatnonzero(dated)
    flag_start, flag_end = c3[accepted] + 1, end[accepted]
    flagged = flag_end > flag_start
    some = np.flatnonzero(flagged)
    flagged[some] = [bool(text.strip()) for text in _texts(data, flag_start[some], flag_end[some])]
    start, c1 = start[accepted], c1[accepted]
    runs = _runs(arr, start, c1)
    names = [text.strip() for text in _texts(data, start[runs], c1[runs])]
    return (names, np.diff(runs, append=start.size), day[accepted], value[accepted], flagged), rejects


def _series(ids: Mapping[str, int], parts: list[tuple[np.ndarray, ...]]):
    """Each station's ``(dates, values, flagged)`` from ``parts``, the
    ``(ids, days, values, flagged)`` columns of the accepted rows in file
    and line order, with ``ids`` numbering the stations in order of first
    sight.  A station's rows are sorted by day (stably, and only where the
    days do not already increase), and a repeated day is a ``DataError``.
    The columns of a station whose rows need no sort are views."""
    if not ids:
        return {}
    columns = [np.concatenate(column) for column in zip(*parts)]
    parts.clear()
    if np.any(np.diff(columns[0]) < 0):  # ids follow first sight, so a sorted file needs no sort
        order = np.argsort(columns[0], kind="stable")
        columns = [column[order] for column in columns]
    first = np.concatenate(([0], np.cumsum(np.bincount(columns[0]))))
    out = {}
    for station in sorted(ids):
        k = ids[station]
        days, values, flagged = (column[first[k] : first[k + 1]] for column in columns[1:])
        if np.any(np.diff(days) <= 0):
            by_day = np.argsort(days, kind="stable")
            days, values, flagged = days[by_day], values[by_day], flagged[by_day]
        dates = days.view("datetime64[D]")
        repeated = np.flatnonzero(np.diff(days) == 0)
        if repeated.size:
            raise DataError(f"station {station}: duplicate date {dates[repeated[0]]}")
        out[station] = (dates, values, flagged)
    return out


def _split(path: Path):
    """A file's ``(pieces, rejects)``: its lines cut at their newline and
    comma bytes block by block, each block's 4-field rows parsed by
    ``_rows`` into one piece.  None, before any row is kept, where that
    would not read the file as ``csv.reader`` does: a quote (a quoted field
    may hold commas and newlines), a NUL (Python 3.10's ``csv`` rejects
    it), a carriage return outside a CRLF line end, a line longer than
    ``csv.field_size_limit()``, or no header (which ``_csv`` reports)."""
    limit = csv.field_size_limit()
    pieces, rejects, line = [], [], 1
    for data in _blocks(path):
        if b'"' in data or b"\0" in data or (b"\r" in data and data.count(b"\r") != data.count(b"\r\n")):
            return None
        start = 0
        if line == 1:
            start = data.find(b"\n") + 1 or len(data)
            header = data[:start].removesuffix(b"\n").removesuffix(b"\r")
            if len(header) > limit:
                return None
            if [h.strip() for h in header.decode().split(",")] != EVENT_HEADER:
                raise DataError(f"{path}: expected header {','.join(EVENT_HEADER)}")
            line = 2
            if start == len(data):
                continue
        arr = np.frombuffer(data, np.uint8)
        ends = np.flatnonzero(arr[start:] == _NL) + start
        if data[-1] != _NL:
            ends = np.append(ends, len(data))
        starts = np.concatenate(([start], ends[:-1] + 1))
        crlf = np.flatnonzero(ends > starts)
        crlf = crlf[arr[ends[crlf] - 1] == _CR]
        ends[crlf] -= 1
        if np.max(ends - starts) > limit:
            return None
        commas = np.flatnonzero(arr[start:] == _COMMA) + start
        through = np.searchsorted(commas, ends)  # commas up to each line's end
        first = np.concatenate(([0], through[:-1]))
        four = through - first == 3
        other = np.flatnonzero(~four & (ends > starts))  # an empty line is no row
        for k, text in zip(other.tolist(), _texts(data, starts[other], ends[other])):
            if any(c.strip() for c in text.split(",")):
                rejects.append((line + k, "wrong field count", text))
        four = np.flatnonzero(four)
        comma = first[four]
        piece, four_rejects = _rows(
            data, line + four, starts[four], commas[comma], commas[comma + 1], commas[comma + 2], ends[four]
        )
        pieces.append(piece)
        rejects += four_rejects
        line += ends.size
    return (pieces, rejects) if line > 1 else None


def _csv(path: Path):
    """A file's ``(pieces, rejects)`` as ``csv.reader`` reads it, its 4-field
    rows parsed by ``_joined_rows`` ``_CSV_ROWS`` at a time."""
    for _ in _blocks(path):  # a byte that is not UTF-8 raises with its offset
        pass
    pieces, rejects, texts, lengths, lines = [], [], [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = _csv_rows(path, reader)
        header = next(rows, None)
        if header is None or [h.strip() for h in header] != EVENT_HEADER:
            raise DataError(f"{path}: expected header {','.join(EVENT_HEADER)}")
        for row in rows:
            if len(row) == 4:
                texts.append(",".join(row))
                lengths += map(len, row)
                lines.append(reader.line_num)
                if len(lines) == _CSV_ROWS:
                    pieces.append(_joined_rows(texts, lengths, lines, rejects))
                    texts, lengths, lines = [], [], []
            elif any(c.strip() for c in row):
                rejects.append((reader.line_num, "wrong field count", ",".join(row)))
    pieces.append(_joined_rows(texts, lengths, lines, rejects))
    return pieces, rejects


def _joined_rows(texts: list[str], lengths: list[int], lines: list[int], rejects: list) -> tuple:
    """``_rows`` of the 4-field rows with comma-joined ``texts``, four field
    lengths each, that end on ``lines``: the texts are joined by newlines
    into one buffer, whose field bounds follow from the lengths.  Adds the
    rows' rejects to ``rejects`` and returns their piece."""
    text = "\n".join(texts)
    data = text.encode()
    # each field ends where its separator, a comma or the newline, starts
    ends = np.cumsum(np.array(lengths, np.int64) + 1) - 1
    if len(data) != len(text):  # character offsets to byte offsets
        code = np.frombuffer(text.encode("utf-32-le"), np.uint32)
        width = 1 + (code >= 0x80) + (code >= 0x800) + (code >= 0x10000)
        ends = np.concatenate(([0], np.cumsum(width)))[ends]
    c1, c2, c3, end = ends.reshape(-1, 4).T
    start = np.concatenate(([0], end + 1))[:-1]
    piece, row_rejects = _rows(data, np.array(lines, np.int64), start, c1, c2, c3, end)
    rejects += row_rejects
    return piece


def read_event_file(paths: str | Path | Sequence[str | Path], ledger: QcLedger | None = None):
    """Parse canonical event files into per-station day series.

    Returns ``{station: (dates, values, flagged)}`` with missing values as
    NaN; ``flagged`` is a boolean mask of the rows whose quality flag is not
    blank (the flag's text is not kept).  Malformed rows go to the ledger's
    rejects report in line order, each with the physical line on which its
    record ends (a quoted field may span lines).  A byte that is not UTF-8
    is a ``DataError`` naming its offset.

    A file without quotes (see ``_split``) is cut into fields at its newline
    and comma bytes with numpy, block by block; any other file is read by
    ``csv.reader`` (see ``_csv``).  Both hand their rows to one parser,
    ``_rows``: a date is an ASCII ``YYYY-MM-DD``, optionally padded with
    whitespace.  Unpadded dates, ``0.0`` and empty values are parsed by
    array arithmetic, padded dates one at a time, and every other value by
    ``_parse_prcp``.  Each station's rows are sorted by day only where the
    days do not already increase.
    """
    if isinstance(paths, (str, Path)):
        paths = [paths]
    ledger = ledger if ledger is not None else QcLedger()
    ids: dict[str, int] = {}  # station -> id, in order of first sight
    parts = []
    for path in paths:
        path = Path(path)
        if not path.exists():
            raise DataError(f"event file not found: {path}")
        pieces, rejects = _split(path) or _csv(path)
        for names, run_lengths, *columns in pieces:
            run_ids = [ids.setdefault(name, len(ids)) for name in names]
            parts.append((np.repeat(np.array(run_ids, np.int32), run_lengths), *columns))
        for line, reason, row in sorted(rejects):
            ledger.reject(str(path), line, reason, row)
    return _series(ids, parts), ledger


def read_covariate_file(path: str | Path) -> tuple[list[str], dict[str, dict[str, float]]]:
    """Header-driven covariate table: ``station`` plus numeric columns; a
    repeated column or station is a ``DataError``."""
    path = Path(path)
    rows = _table_rows(path, "covariate file")
    line, header = next(rows)
    if not header or header[0] != "station":
        raise DataError(f"{path}: first covariate column must be 'station'")
    repeated = [h for i, h in enumerate(header) if h in header[:i]]
    if repeated:
        raise DataError(f"{path}:{line}: repeated column {repeated[0]!r}")
    names = header[1:]
    table: dict[str, dict[str, float]] = {}
    for line, row in rows:
        try:
            values = {n: float(v) for n, v in zip(names, row[1:])}
        except ValueError as exc:
            raise DataError(f"{path}:{line}: non-numeric covariate") from exc
        if not all(np.isfinite(v) for v in values.values()):
            raise DataError(f"{path}:{line}: non-finite covariate")
        station = row[0].strip()
        if station in table:
            raise DataError(f"{path}:{line}: repeated station {station!r}")
        table[station] = values
    return names, table


def write_event_file(path: str | Path, rows: Iterable[tuple[str, dt.date, float | None, str]]) -> Path:
    """Write rows in the canonical event format, a ``None`` value as a missing day."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(EVENT_HEADER)
        for station, date, value, qflag in rows:
            writer.writerow([station, date.isoformat(), "" if value is None else repr(float(value)), qflag])
    return path


def write_covariate_file(path: str | Path, names: Sequence[str], table: Mapping[str, Mapping[str, float]]) -> Path:
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["station", *names])
        for station in table:
            writer.writerow([station, *(repr(float(table[station][n])) for n in names)])
    return path


# ---------------------------------------------------------------------------
# Quality control
# ---------------------------------------------------------------------------

def _days_in_year(year: int) -> int:
    return 366 if calendar.isleap(year) else 365


def load_and_qc(
    event_paths,
    policy: QcPolicy = QcPolicy(),
    covariates: Mapping[str, Mapping[str, float]] | None = None,
) -> tuple[list[StationRecord], QcLedger]:
    """Parse, flag-filter, and year/station-filter the raw daily records.

    Returns retained stations (only their retained years) plus the ledger.
    """
    series, ledger = read_event_file(event_paths)
    records: list[StationRecord] = []
    for station in sorted(series):
        dates, values, flagged = series[station]
        if policy.drop_flagged and flagged.any():
            ledger.add(station, "FLAGGED_VALUE", f"{int(flagged.sum())} flagged values removed")
            values = np.where(flagged, np.nan, values)
        observed = ~np.isnan(values)
        # dates increase, so year offsets from the first date's year are >= 0
        year_index = dates.astype("datetime64[Y]").astype(np.int64)
        first_year = int(year_index[0]) + 1970
        year_index -= year_index[0]
        present = np.flatnonzero(np.bincount(year_index))
        n_observed = np.bincount(year_index[observed], minlength=present[-1] + 1)
        retained = np.zeros(present[-1] + 1, bool)
        retained_years: list[int] = []
        for offset, n_obs in zip(present.tolist(), n_observed[present].tolist()):
            year = first_year + offset
            missing = _days_in_year(year) - n_obs
            if missing > policy.max_missing_days:
                ledger.add(station, "YEAR_MISSING_BUDGET", f"{missing} missing days", year)
            else:
                retained[offset] = True
                retained_years.append(year)
        if len(retained_years) <= policy.min_retained_years:
            ledger.add(
                station,
                "STATION_TOO_SHORT",
                f"{len(retained_years)} retained years <= {policy.min_retained_years}",
            )
            continue
        keep = observed & retained[year_index]
        record = StationRecord(
            station=station,
            dates=dates[keep],
            values=values[keep],
            covariates=dict(covariates.get(station, {})) if covariates else {},
        )
        ledger.add(station, "RETAINED_YEARS", " ".join(str(y) for y in retained_years))
        records.append(record)
    return records, ledger


def build_dataset(
    records: Sequence[StationRecord],
    train_blocks: int,
    covariate_names: Sequence[str],
    wet_day_threshold: float = 0.0,
    trials_per_block: int = 366,
    events: Sequence[list[np.ndarray]] | None = None,
) -> Dataset:
    """Assemble the training dataset from each station's first K retained years.

    Ordinary events are the strictly positive daily values (above the wet-day
    threshold); counts are per calendar year; covariates are standardized
    over the training stations and the snapshot is attached to the dataset.
    ``events`` takes each record's ``training_events`` when the caller has
    already computed them.
    """
    if not records:
        raise DataError("no stations to build a dataset from")
    raw_rows = []
    for rec in records:
        missing = [n for n in covariate_names if n not in rec.covariates]
        if missing:
            raise DataError(f"station {rec.station} lacks covariates {missing}")
        raw_rows.append([rec.covariates[n] for n in covariate_names])
    raw = np.asarray(raw_rows, dtype=float)
    means = raw.mean(axis=0)
    sds = raw.std(axis=0)
    if np.any(sds <= 0.0):
        bad = [covariate_names[i] for i in np.nonzero(sds <= 0.0)[0]]
        raise DataError(f"covariates {bad} are constant across training stations")
    snapshot = StandardizationSnapshot(tuple(covariate_names), means, sds)
    z_rows = snapshot.standardize(raw)

    # training years are each station's first K retained years; a common
    # block axis is required, so block labels are per-station year indices
    if events is None:
        events = [training_events(rec, train_blocks, wet_day_threshold) for rec in records]
    sites = [
        SiteCovariates(rec.station, z_rows[idx], dict(rec.covariates))
        for idx, rec in enumerate(records)
    ]
    return Dataset(
        sites=sites,
        blocks=list(range(train_blocks)),
        events=events,
        trials_per_block=trials_per_block,
        snapshot=snapshot,
    )


def dataset_to_rows(dataset: Dataset, start_year: int = 2001):
    """Canonical-format rows for a dataset (used by the simulate exporter).

    Events within a block are written on consecutive days from January 1 of
    the block's synthetic year, preserving order, so re-ingestion is the
    identity on magnitudes and counts.
    """
    rows = []
    for s, site in enumerate(dataset.sites):
        for j, label in enumerate(dataset.blocks):
            year = start_year + j if label < start_year else label
            mags = dataset.events[s][j]
            if mags.size > _days_in_year(year):
                raise DataError(
                    f"block {label} at {site.station} has more events than days in {year}"
                )
            for i, value in enumerate(mags):
                rows.append((site.station, dt.date(year, 1, 1) + dt.timedelta(days=i), float(value), ""))
    return rows


def training_events(
    record: StationRecord, train_blocks: int, wet_day_threshold: float = 0.0
) -> list[np.ndarray]:
    """Per-block ordinary events from the station's first K retained years."""
    year_arr = record.years()
    years = np.unique(year_arr).tolist()
    if len(years) < train_blocks:
        raise DataError(
            f"station {record.station}: {len(years)} retained years < train window {train_blocks}"
        )
    out = []
    for year in years[:train_blocks]:
        vals = record.values[year_arr == year]
        out.append(np.sort(vals[vals > wet_day_threshold]))
    return out


# ---------------------------------------------------------------------------
# Method of moments and prior elicitation
# ---------------------------------------------------------------------------

def _log_cv2_plus_one(shape: float) -> float:
    # log(Gamma(1 + 2/g)) - 2 log(Gamma(1 + 1/g)) = log(1 + CV^2)
    return float(gammaln(1.0 + 2.0 / shape) - 2.0 * gammaln(1.0 + 1.0 / shape))


_BISECT_RTOL = 4.0 * float(np.finfo(float).eps)


def _bisect(f, xa: float, xb: float, xtol: float) -> float:
    """Root of ``f`` on a sign-changing bracket ``[xa, xb]``, halving for
    halving as ``scipy.optimize.bisect`` (relative tolerance 4 eps, at most
    100 halvings)."""
    fa, fb = f(xa), f(xb)
    if fa == 0.0:
        return xa
    if fb == 0.0:
        return xb
    dm = xb - xa
    for _ in range(100):
        dm *= 0.5
        xm = xa + dm
        fm = f(xm)
        if fm * fa >= 0.0:
            xa = xm
        if fm == 0.0 or abs(dm) < xtol + _BISECT_RTOL * abs(xm):
            return xm
    raise ConvergenceError("bisection did not converge in 100 halvings")


def weibull_mom(sample) -> WeibullParams:
    """Weibull parameters matching the sample mean and coefficient of variation.

    Solves the CV equation for the shape by safeguarded bisection on
    [0.05, 20], then sets the scale from the mean; the log-moment residual
    is verified below 1e-10.
    """
    sample = np.asarray(sample, dtype=float)
    if sample.size < 2:
        raise ValueError("need at least 2 observations")
    mean = float(sample.mean())
    sd = float(sample.std(ddof=1))
    if sd <= 0.0 or mean <= 0.0:
        raise ValueError("sample must be positive with positive variance")
    target = float(np.log1p((sd / mean) ** 2))
    lo, hi = _MOM_BRACKET
    f_lo = _log_cv2_plus_one(lo) - target
    f_hi = _log_cv2_plus_one(hi) - target
    if f_lo < 0.0 or f_hi > 0.0:
        raise ConvergenceError(
            f"sample CV {sd / mean:.4f} outside the Weibull range bracketed by "
            f"shape in [{lo}, {hi}]"
        )
    shape = _bisect(lambda g: _log_cv2_plus_one(g) - target, lo, hi, xtol=1e-13)
    residual = abs(_log_cv2_plus_one(shape) - target)
    if residual >= 1e-10:
        raise ConvergenceError(f"moment equation residual {residual:.2e} >= 1e-10")
    scale = mean / float(np.exp(gammaln(1.0 + 1.0 / shape)))
    return WeibullParams(shape=shape, scale=scale)


@dataclass(frozen=True)
class ElicitationRules:
    """How prior centers and spreads are derived from the training stations.

    Centers: intercepts at the cross-station mean of the per-station
    method-of-moments estimates (the magnitude-shape intercept defaults to
    the geophysical value 2/3 instead); slopes at single-covariate
    least-squares fits.  Spreads: a "reasonable interval" around each center
    receives at least 0.95 prior mass; by default the interval is the center
    +- max(interval_fraction * |center|, cross-station spread of the
    response).  Explicit intervals may be supplied per coefficient name.
    """

    gamma_intercept_center: float | None = 2.0 / 3.0
    interval_fraction: float = 0.5
    intervals: Mapping[str, tuple[float, float]] | None = None

    def __post_init__(self):
        if self.interval_fraction <= 0.0:
            raise ValueError("interval_fraction must be positive")
        if self.gamma_intercept_center is not None and not self.gamma_intercept_center > 0.0:
            raise ValueError("gamma_intercept_center must be positive")


# the latent Gumbel scales' prior means as fractions of the location
# centers (the scale layer varies across years more than the shape layer),
# with an inverse-gamma shape that keeps their variance finite
_SIGMA_GAMMA_MEAN_FRACTION = 0.05
_SIGMA_DELTA_MEAN_FRACTION = 0.25
_IG_SHAPE = 3.0
# a collinear slope's prior sd, in units of the response's spread
_WIDE_SD_FACTOR = 10.0
# the beta prior's a + b on a station's wet-day rate
_RATE_CONCENTRATION = 20.0


def _sd_from_interval(center: float, lo: float, hi: float) -> float:
    if not lo < hi:
        raise ValueError("interval must satisfy lo < hi")
    return max(abs(hi - center), abs(center - lo)) / _Z95


def _ls_slope(z: np.ndarray, response: np.ndarray) -> float | None:
    var = float(np.var(z))
    if var < 1e-12:
        return None
    return float(np.cov(z, response, ddof=0)[0, 1] / var)


def _coefficient_priors(
    tag: str,
    Z: np.ndarray,
    response: np.ndarray,
    intercept_center: float,
    rules: ElicitationRules,
) -> tuple[NormalPrior, ...]:
    spread = float(np.std(response, ddof=1)) if response.size > 1 else abs(intercept_center)
    spread = max(spread, 1e-6)
    priors = []
    p1 = Z.shape[1]
    for k in range(p1):
        name = f"{tag}[{k}]"
        if k == 0:
            center = intercept_center
        else:
            slope = _ls_slope(Z[:, k], response)
            if slope is None:
                logger.warning(
                    "%s: covariate column %d is collinear/constant; slope prior falls back "
                    "to mean 0 with a wide sd",
                    name,
                    k,
                )
                priors.append(NormalPrior(0.0, _WIDE_SD_FACTOR * spread / _Z95))
                continue
            center = slope
        if rules.intervals and name in rules.intervals:
            lo, hi = rules.intervals[name]
            sd = _sd_from_interval(center, lo, hi)
        else:
            half = max(rules.interval_fraction * abs(center), spread)
            sd = half / _Z95
        priors.append(NormalPrior(center, sd))
    return tuple(priors)


def elicit_priors(dataset: Dataset, rules: ElicitationRules = ElicitationRules()) -> ShmevPriorSpec:
    """Empirical-Bayes priors for the spatial model from the training stations.

    Per-station Weibull method-of-moments fits (events pooled over training
    blocks) give the magnitude responses; wet-day rates give the occurrence
    response on the logit scale.  The latent-scale priors are inverse gamma
    with means set to fixed fractions of the respective location-intercept
    centers (the scale layer is allowed to vary across years more than the
    shape layer).
    """
    if dataset.n_sites < 2:
        raise ValueError("need at least 2 stations for elicitation")
    gam_hat, dlt_hat, rate_hat = [], [], []
    counts = dataset.counts()
    n_days = dataset.n_blocks * dataset.trials_per_block
    for s in range(dataset.n_sites):
        station = dataset.sites[s].station
        pooled = np.concatenate([m for m in dataset.events[s] if m.size]) if counts[s].sum() else np.zeros(0)
        if pooled.size < 2:
            raise ValueError(f"station {station} has too few events to elicit from")
        try:
            mom = weibull_mom(pooled)
        except ValueError as exc:
            raise ValueError(f"station {station}: {exc}") from exc
        gam_hat.append(float(mom.shape))
        dlt_hat.append(float(mom.scale))
        rate = counts[s].sum() / n_days
        rate_hat.append(float(logit(np.clip(rate, 1e-6, 1.0 - 1e-6))))
    gam_hat = np.asarray(gam_hat)
    dlt_hat = np.asarray(dlt_hat)
    rate_hat = np.asarray(rate_hat)
    Z = dataset.design_matrix()

    gamma_center = (
        rules.gamma_intercept_center
        if rules.gamma_intercept_center is not None
        else float(gam_hat.mean())
    )
    beta_gamma = _coefficient_priors("beta_gamma", Z, gam_hat, gamma_center, rules)
    beta_delta = _coefficient_priors("beta_delta", Z, dlt_hat, float(dlt_hat.mean()), rules)
    beta_lambda = _coefficient_priors("beta_lambda", Z, rate_hat, float(rate_hat.mean()), rules)
    return ShmevPriorSpec(
        beta_gamma=beta_gamma,
        beta_delta=beta_delta,
        beta_lambda=beta_lambda,
        sigma_gamma=InverseGammaPrior.from_mean(_SIGMA_GAMMA_MEAN_FRACTION * beta_gamma[0].mean, _IG_SHAPE),
        sigma_delta=InverseGammaPrior.from_mean(_SIGMA_DELTA_MEAN_FRACTION * beta_delta[0].mean, _IG_SHAPE),
    )


def elicit_hmev_priors(
    events: Sequence[np.ndarray],
    trials_per_block: int,
    rules: ElicitationRules = ElicitationRules(),
) -> HmevPriorSpec:
    """Single-site priors: inverse gamma mean-matched to the station's
    method-of-moments fit, beta prior centered on its wet-day rate."""
    pooled = np.concatenate([np.asarray(m, dtype=float) for m in events if np.asarray(m).size])
    if pooled.size < 2:
        raise ValueError("too few events to elicit single-site priors")
    mom = weibull_mom(pooled)
    gamma_center = (
        rules.gamma_intercept_center if rules.gamma_intercept_center is not None else float(mom.shape)
    )
    rate = sum(np.asarray(m).size for m in events) / (len(events) * trials_per_block)
    rate = float(np.clip(rate, 1e-4, 1.0 - 1e-4))
    return HmevPriorSpec(
        mu_gamma=InverseGammaPrior.from_mean(gamma_center, _IG_SHAPE),
        sigma_gamma=InverseGammaPrior.from_mean(_SIGMA_GAMMA_MEAN_FRACTION * gamma_center, _IG_SHAPE),
        mu_delta=InverseGammaPrior.from_mean(float(mom.scale), _IG_SHAPE),
        sigma_delta=InverseGammaPrior.from_mean(_SIGMA_DELTA_MEAN_FRACTION * float(mom.scale), _IG_SHAPE),
        event_rate=BetaPrior(_RATE_CONCENTRATION * rate, _RATE_CONCENTRATION * (1.0 - rate)),
    )


# ---------------------------------------------------------------------------
# GHCN daily converter
# ---------------------------------------------------------------------------

def convert_ghcn_dly(in_path: str | Path, out_path: str | Path, element: str = "PRCP") -> Path:
    """Convert a fixed-width GHCN daily archive file to the canonical format.

    Values are tenths of mm in the archive; -9999 means missing.  The
    archive quality flag is carried through unchanged.
    """
    in_path = Path(in_path)
    rows = []
    with open(in_path, encoding="utf-8") as fh:
        for line in fh:
            if len(line) < 269 or line[17:21] != element:
                continue
            station = line[0:11].strip()
            year = int(line[11:15])
            month = int(line[15:17])
            _, month_days = calendar.monthrange(year, month)
            for day in range(month_days):
                offset = 21 + day * 8
                value = int(line[offset : offset + 5])
                qflag = line[offset + 6 : offset + 7].strip()
                date = dt.date(year, month, day + 1)
                if value == -9999:
                    rows.append((station, date, None, qflag))
                else:
                    rows.append((station, date, value / 10.0, qflag))
    rows.sort(key=lambda r: (r[0], r[1]))
    return write_event_file(out_path, rows)
