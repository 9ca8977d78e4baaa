"""Data ingestion and the quarterly transformation pipeline.

Raw series (CSV files or the FRED observations API) are turned into the
estimation columns: per-capita real investment growth ``delta_i``, the
ex-post real interest rate ``r_p``, log capacity utilization ``u``, and
optional external-instrument columns, aligned into a single `Dataset`.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Optional

import numpy as np

from .quarters import QuarterIndex, Series, common_span

FRED_URL = "https://api.stlouisfed.org/fred/series/observations"

#: Columns every estimation dataset must provide.
CORE_COLUMNS = ("delta_i", "r_p", "u")

#: Raw series behind each recognized external-instrument column.
EXTERNAL_SOURCES = {"mp_shock": "MP_SHOCK", "mil_news": "MIL_NEWS", "oil": "OIL", "vxo": "VXO"}

#: Recognized external-instrument columns (enter contemporaneously).
EXTERNAL_COLUMNS = tuple(EXTERNAL_SOURCES)


class InvestmentMeasure(str, Enum):
    SW = "SW"  # real fixed private investment
    JPT = "JPT"  # real gross private domestic investment + durables


#: Raw series behind each investment measure.
INVESTMENT_SOURCES = {
    InvestmentMeasure.SW: ("FPI", "P_FPI", "POP"),
    InvestmentMeasure.JPT: ("GPDI", "P_GPDI", "PCDG", "P_PCDG", "POP"),
}


class PipelineError(ValueError):
    """Raised for ingestion or transformation failures."""


@dataclass
class TransformSpec:
    investment_measure: InvestmentMeasure = InvestmentMeasure.SW
    rate_scale: float = 400.0  # annual percent -> quarterly decimal
    #: (first, last) quarter to keep; either end may be None for the data's own
    sample: Optional[tuple[Optional[QuarterIndex], Optional[QuarterIndex]]] = None

    def __post_init__(self):
        self.investment_measure = InvestmentMeasure(self.investment_measure)
        if self.rate_scale <= 0:
            raise PipelineError(f"rate_scale must be > 0, got {self.rate_scale}")


@dataclass
class Dataset:
    """Aligned, equal-length estimation columns starting at `start`."""

    start: QuarterIndex
    columns: dict[str, np.ndarray] = field(repr=False)

    def __post_init__(self):
        lengths = {k: len(v) for k, v in self.columns.items()}
        if len(set(lengths.values())) > 1:
            raise PipelineError(f"unequal column lengths: {lengths}")
        for k in self.columns:
            self.columns[k] = np.asarray(self.columns[k], dtype=float)

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))

    @property
    def end(self) -> QuarterIndex:
        return self.start + (len(self) - 1)

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise PipelineError(
                f"dataset has no column {name!r}; available: {sorted(self.columns)}"
            ) from None


def load_series_csv(path: str | os.PathLike, name: str | None = None) -> Series:
    """Read a `date,value` CSV (header case-insensitive) by `_read_dated`'s rules:
    a series file is a panel with one `value` column."""
    path = os.fspath(path)
    _, start, data = _read_dated(path, ("date", "value"))
    return Series(name or os.path.splitext(os.path.basename(path))[0], start, data[0])


def load_series_dir(directory: str | os.PathLike) -> dict[str, Series]:
    """Every `NAME.csv` in `directory`, read by `load_series_csv` and keyed by NAME."""
    files = [fn for fn in sorted(os.listdir(directory)) if os.path.splitext(fn)[1] == ".csv"]
    series = [load_series_csv(os.path.join(directory, fn)) for fn in files]
    return {s.name: s for s in series}


def _csv_rows(path: str) -> list[list[str]]:
    """Every row of a CSV file; a missing or malformed file is a PipelineError."""
    if not os.path.exists(path):
        raise PipelineError(f"no such file: {path}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))
    except (csv.Error, UnicodeDecodeError) as exc:
        raise PipelineError(f"{path}: unreadable CSV: {exc}") from None


def _data_rows(path: str, rows: list[list[str]]):
    """(row number, row) of each non-blank row after the header `rows[0]`, row 1
    first; a row whose field count is not the header's is a PipelineError."""
    width = len(rows[0])
    for row_no, row in enumerate(rows[1:], start=1):
        if row and len(row) != width:
            raise PipelineError(f"{path}: row {row_no}: {len(row)} fields, expected {width}")
        if row:
            yield row_no, row


def _check_step(prev: QuarterIndex, cur: QuarterIndex, where: str) -> None:
    """The contiguity rule: `cur` directly follows `prev`, or a PipelineError at `where`."""
    gap = cur - prev
    if gap == 0:
        raise PipelineError(f"{where}: duplicate quarter {cur}")
    if gap < 0:
        raise PipelineError(f"{where}: dates not increasing")
    if gap != 1:
        raise PipelineError(f"{where}: gap in quarters, missing {prev + 1}")


def _read_dated(
    path: str, expect: Optional[tuple[str, ...]] = None
) -> tuple[list[str], QuarterIndex, np.ndarray]:
    """(column names, first quarter, columns x rows values) of a CSV file with
    header `date,<distinct names>` (`expect`, if given, is the only header
    accepted; case-insensitive) and dates formatted YYYYQn, blank rows skipped.

    The dates are checked in one pass against the labels of the quarters that
    follow the first one, and the cells converted in one. Only a file that
    fails is walked row by row, to name its first faulty row (1 = first row
    after the header): a ragged row, a bad date, a duplicate quarter, dates not
    increasing, a gap, or a non-numeric or non-finite cell.
    """
    rows = _csv_rows(path)
    header = rows[0] if rows else []
    if expect is not None and [h.strip().lower() for h in header] != list(expect):
        raise PipelineError(f"{path}: expected header {','.join(expect)!r}, got {header}")
    if not header or header[0].strip().lower() != "date":
        raise PipelineError(f"{path}: first panel column must be 'date'")
    names = header[1:]
    if not names or len(set(names)) != len(names):
        raise PipelineError(f"{path}: header needs distinct column names after 'date': {header}")
    body = [row for row in rows[1:] if row]
    if not body:
        raise PipelineError(f"{path}: no observations")
    try:
        first = QuarterIndex.ordinal(body[0][0])
        dates, *cells = zip(*body, strict=True)
        data = np.array([list(map(float, column)) for column in cells])
        labels = [f"{k // 4:04d}Q{k % 4 + 1}" for k in range(first, first + len(body))]
        clean = (len(cells) == len(names) and np.isfinite(data).all()
                 and list(map(str.strip, dates)) == labels)
    except ValueError:
        clean = False
    # A file the walk passes has only valid dates that are not canonical labels,
    # so `first` and `data` were set above.
    if not clean:
        quarters = []
        for row_no, row in _data_rows(path, rows):
            where = f"{path}: row {row_no}"
            try:
                quarters.append(QuarterIndex.parse(row[0]))
            except ValueError as exc:
                raise PipelineError(f"{where}: {exc}") from None
            if len(quarters) > 1:
                _check_step(*quarters[-2:], where)
            for cell in row[1:]:
                try:
                    finite = math.isfinite(float(cell))
                except ValueError:
                    finite = False
                if not finite:
                    raise PipelineError(f"{where}: non-numeric or non-finite value {cell!r}")
    return names, QuarterIndex.of_ordinal(first), data


def fetch_fred_series(
    series_id: str,
    api_key: str | None = None,
    base_url: str = FRED_URL,
    timeout: float = 30.0,
) -> Series:
    """Fetch a series from the FRED observations API as quarterly data.

    Monthly series are averaged to quarters (partial trailing quarters are
    dropped). The key defaults to the ``FRED_API_KEY`` environment variable;
    a missing key is an error instructing the caller to use the CSV snapshot.
    """
    try:
        import requests
    except ImportError:
        raise PipelineError(
            "fetching from FRED needs the requests package: pip install eulergmm[fred]"
        ) from None

    api_key = api_key or os.environ.get("FRED_API_KEY", "")
    if not api_key:
        raise PipelineError(
            f"no FRED API key for {series_id!r}: set FRED_API_KEY or load the "
            "packaged CSV snapshot instead"
        )
    resp = requests.get(
        base_url,
        params={"series_id": series_id, "api_key": api_key, "file_type": "json"},
        timeout=timeout,
    )
    if resp.status_code != 200:
        raise PipelineError(
            f"FRED request for {series_id!r} failed with HTTP {resp.status_code}"
        )
    body = resp.json()
    obs = body.get("observations", [])
    if not obs:
        raise PipelineError(f"FRED returned no observations for {series_id!r}")
    dates, values = [], []
    for o in obs:
        if o.get("value", ".") == ".":
            continue
        y, m, _ = o["date"].split("-")
        dates.append((int(y), int(m)))
        values.append(float(o["value"]))
    if not dates:
        raise PipelineError(f"FRED series {series_id!r} has no numeric observations")

    months = {m for _, m in dates}
    if months <= {1, 4, 7, 10}:  # already quarterly
        quarters = [QuarterIndex(y, (m - 1) // 3 + 1) for y, m in dates]
        vals = np.array(values)
    else:  # monthly: average complete quarters
        by_quarter: dict[tuple[int, int], list[float]] = {}
        for (y, m), v in zip(dates, values):
            by_quarter.setdefault((y, (m - 1) // 3 + 1), []).append(v)
        keys = sorted(by_quarter)
        keys = [k for k in keys if len(by_quarter[k]) == 3]
        if not keys:
            raise PipelineError(f"FRED series {series_id!r} has no complete quarters")
        quarters = [QuarterIndex(y, q) for y, q in keys]
        vals = np.array([np.mean(by_quarter[k]) for k in keys])

    for prev, cur in zip(quarters, quarters[1:]):
        _check_step(prev, cur, f"FRED series {series_id!r}")
    return Series(series_id, quarters[0], vals)


def _align(raw: Mapping[str, Series], names: list[str]) -> dict[str, Series]:
    missing = [n for n in names if n not in raw]
    if missing:
        raise PipelineError(f"missing input series: {missing}")
    try:
        start, end = common_span([raw[n] for n in names])
    except ValueError as exc:
        raise PipelineError(str(exc)) from None
    return {n: raw[n].window(start, end) for n in names}


def _log_diff(values: np.ndarray, what: str) -> np.ndarray:
    if np.any(values <= 0):
        bad = int(np.argmax(values <= 0))
        raise PipelineError(f"nonpositive level in {what} at index {bad}")
    return np.diff(np.log(values))


def build_investment_measure(spec: TransformSpec, raw: Mapping[str, Series]) -> Series:
    """Per-capita real investment growth.

    SW: FPI / POP / P_FPI.  JPT: GPDI / POP / P_GPDI + PCDG / POP / P_PCDG.
    The aligned real per-capita level is then log-differenced, so the output
    is one quarter shorter than the aligned inputs.
    """
    s = _align(raw, list(INVESTMENT_SOURCES[spec.investment_measure]))
    if spec.investment_measure is InvestmentMeasure.SW:
        level = s["FPI"].values / s["POP"].values / s["P_FPI"].values
        start = s["FPI"].start
    else:
        level = (
            s["GPDI"].values / s["POP"].values / s["P_GPDI"].values
            + s["PCDG"].values / s["POP"].values / s["P_PCDG"].values
        )
        start = s["GPDI"].start
    return Series("delta_i", start + 1, _log_diff(level, "investment level"))


def compute_inflation(deflator: Series) -> Series:
    """Quarterly log first difference of the price deflator."""
    return Series("pi", deflator.start + 1, _log_diff(deflator.values, deflator.name))


def compute_real_rate(ffr: Series, inflation: Series, rate_scale: float = 400.0) -> Series:
    """Ex-post real rate r_t = ffr_t / rate_scale - pi_{t+1}.

    The nominal rate is annualized percent; dividing by `rate_scale`
    (default 400) makes it commensurate with quarterly log inflation.
    The last nominal-rate quarter is dropped (no following inflation).
    """
    if rate_scale <= 0:
        raise PipelineError(f"rate_scale must be > 0, got {rate_scale}")
    # quarter t needs inflation at t+1
    start = max(ffr.start, inflation.start + (-1))
    end = min(ffr.end, inflation.end + (-1))
    if end - start < 0:
        raise PipelineError("ffr and inflation have no usable overlap for r_p")
    r = ffr.window(start, end).values / rate_scale
    pi_next = inflation.window(start + 1, end + 1).values
    return Series("r_p", start, r - pi_next)


def compute_log_utilization(tcu: Series) -> Series:
    """Log of the capacity utilization index (index kept in percent)."""
    if np.any(tcu.values <= 0):
        raise PipelineError("capacity utilization index must be positive")
    return Series("u", tcu.start, np.log(tcu.values))


def transform_external(kind: str, raw: Series) -> Series:
    """Transform one external instrument.

    oil: log difference of the real oil price; vxo: demeaned and divided by
    the population standard deviation; mp_shock and mil_news: passthrough
    (monthly monetary-policy shocks are averaged upstream by the fetcher).
    """
    if kind == "oil":
        return Series("oil", raw.start + 1, _log_diff(raw.values, "oil price"))
    if kind == "vxo":
        sd = float(np.std(raw.values))
        if sd == 0.0:
            raise PipelineError("vxo series has zero variance")
        return Series("vxo", raw.start, (raw.values - raw.values.mean()) / sd)
    if kind in ("mp_shock", "mil_news"):
        return Series(kind, raw.start, raw.values.copy())
    raise PipelineError(f"unknown external instrument kind {kind!r}")


def assemble_dataset(spec: TransformSpec, transformed: Mapping[str, Series]) -> Dataset:
    """Trim transformed columns to their common span (then to spec.sample)."""
    names = list(transformed)
    missing = [c for c in CORE_COLUMNS if c not in names]
    if missing:
        raise PipelineError(f"assemble_dataset requires columns {missing}")
    try:
        start, end = common_span([transformed[n] for n in names])
    except ValueError as exc:
        raise PipelineError(str(exc)) from None
    if spec.sample is not None:
        lo, hi = spec.sample
        start = start if lo is None else max(start, lo)
        end = end if hi is None else min(end, hi)
        if end - start < 0:
            raise PipelineError(
                f"requested sample {lo or 'start'}..{hi or 'end'} is outside the data"
            )
    cols = {n: transformed[n].window(start, end).values for n in names}
    return Dataset(start=start, columns=cols)


def transform_raw(
    raw: Mapping[str, Series], spec: TransformSpec, external: tuple[str, ...] = ()
) -> Dataset:
    """The estimation panel from raw series keyed by name.

    The only place that knows which raw series feed which column: the
    investment measure's inputs, GDPDEF (inflation), FEDFUNDS (the real
    rate), TCU (utilization), and `EXTERNAL_SOURCES` for each external kind.
    Every missing raw series is named in one error.
    """
    unknown = [k for k in external if k not in EXTERNAL_SOURCES]
    if unknown:
        raise PipelineError(
            f"unknown external instrument {unknown}; known: {list(EXTERNAL_COLUMNS)}"
        )
    needed = (
        *INVESTMENT_SOURCES[spec.investment_measure], "GDPDEF", "FEDFUNDS", "TCU",
        *(EXTERNAL_SOURCES[k] for k in external),
    )
    missing = [n for n in needed if n not in raw]
    if missing:
        raise PipelineError(f"missing raw series: {', '.join(missing)}")
    inflation = compute_inflation(raw["GDPDEF"])
    cols = {
        "delta_i": build_investment_measure(spec, raw),
        "r_p": compute_real_rate(raw["FEDFUNDS"], inflation, spec.rate_scale),
        "u": compute_log_utilization(raw["TCU"]),
    }
    for kind in external:
        cols[kind] = transform_external(kind, raw[EXTERNAL_SOURCES[kind]])
    return assemble_dataset(spec, cols)


def write_panel_csv(dataset: Dataset, path: str | os.PathLike) -> None:
    """Write `date,<col>,...` with full-precision floats (lossless round trip)."""
    names = list(dataset.columns)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date"] + names)
        for i in range(len(dataset)):
            row = [str(dataset.start + i)] + [repr(float(dataset.columns[n][i])) for n in names]
            writer.writerow(row)


def read_panel_csv(path: str | os.PathLike) -> Dataset:
    """Inverse of `write_panel_csv`, by `_read_dated`'s rules."""
    names, start, data = _read_dated(os.fspath(path))
    return Dataset(start=start, columns=dict(zip(names, data)))
