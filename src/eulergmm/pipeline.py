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
    """Read a `date,value` CSV with dates formatted YYYYQn.

    Quarters must be strictly increasing and contiguous; every value must
    parse as a finite float. Errors report the offending data row number
    (1 = first row after the header). The dates are checked in one pass
    against the labels of the quarters that follow the first one, and the
    values converted in one; only a file that fails is walked row by row,
    to name its first fault.
    """
    path = os.fspath(path)
    rows = _csv_rows(path)
    if not rows:
        raise PipelineError(f"{path}: empty file")
    header = rows[0]
    if [h.strip().lower() for h in header[:2]] != ["date", "value"]:
        raise PipelineError(f"{path}: expected header 'date,value', got {header}")
    body = [(row_no, row) for row_no, row in enumerate(rows[1:], start=1) if row]
    if not body:
        raise PipelineError(f"{path}: no observations")
    try:
        first = QuarterIndex.ordinal(body[0][1][0])
        values = np.array(list(map(float, (row[1] if len(row) > 1 else "" for _, row in body))))
        labels = [f"{k // 4:04d}Q{k % 4 + 1}" for k in range(first, first + len(body))]
        clean = [row[0].strip() for _, row in body] == labels and np.isfinite(values).all()
    except ValueError:
        clean = False
    if clean:
        start = QuarterIndex.of_ordinal(first)
    else:
        start, values = _parse_rows(path, body)
    return Series(name or os.path.splitext(os.path.basename(path))[0], start, values)


def _parse_rows(path: str, body: list) -> tuple[QuarterIndex, list[float]]:
    """(first quarter, values) of a series file's (row number, row) pairs, row by
    row; the first faulty row raises a PipelineError that names it."""
    quarters: list[QuarterIndex] = []
    values: list[float] = []
    for row_no, row in body:
        try:
            q = QuarterIndex.parse(row[0])
        except ValueError as exc:
            raise PipelineError(f"{path}: row {row_no}: {exc}") from None
        if quarters:
            gap = q - quarters[-1]
            if gap == 0:
                raise PipelineError(f"{path}: row {row_no}: duplicate quarter {q}")
            if gap < 0:
                raise PipelineError(f"{path}: row {row_no}: dates not increasing")
            if gap != 1:
                missing = quarters[-1] + 1
                raise PipelineError(
                    f"{path}: row {row_no}: gap in quarters, missing {missing}"
                )
        quarters.append(q)
        values.append(_finite(row[1] if len(row) > 1 else "", path, row_no))
    return quarters[0], values


def load_series_dir(directory: str | os.PathLike) -> dict[str, Series]:
    """Every `NAME.csv` in `directory`, read by `load_series_csv` and keyed by NAME."""
    out = {}
    for fn in sorted(os.listdir(directory)):
        name, ext = os.path.splitext(fn)
        if ext == ".csv":
            out[name] = load_series_csv(os.path.join(directory, fn), name=name)
    return out


def _csv_rows(path: str) -> list[list[str]]:
    """Every row of a CSV file; a missing or malformed file is a PipelineError."""
    if not os.path.exists(path):
        raise PipelineError(f"no such file: {path}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))
    except (csv.Error, UnicodeDecodeError) as exc:
        raise PipelineError(f"{path}: unreadable CSV: {exc}") from None


def _finite(cell: str, path: str, row_no: int) -> float:
    """One cell as a finite float; anything else is an error naming the row."""
    try:
        value = float(cell)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise PipelineError(f"{path}: row {row_no}: non-numeric or non-finite value {cell!r}")
    return value


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
        if cur - prev != 1:
            raise PipelineError(
                f"FRED series {series_id!r} is not contiguous around {prev}"
            )
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
    """Inverse of `write_panel_csv`."""
    path = os.fspath(path)
    lines = _csv_rows(path)
    header = lines[0] if lines else []
    if not header or header[0].strip().lower() != "date":
        raise PipelineError(f"{path}: first panel column must be 'date'")
    names = header[1:]
    if not names:
        raise PipelineError(f"{path}: no data columns")
    if len(set(names)) != len(names):
        raise PipelineError(f"{path}: duplicate column names")
    quarters, rows = [], []
    for row_no, row in enumerate(lines[1:], start=1):
        if not row:
            continue
        if len(row) != len(header):
            raise PipelineError(
                f"{path}: row {row_no}: {len(row)} fields, expected {len(header)}"
            )
        try:
            quarters.append(QuarterIndex.parse(row[0]))
        except ValueError as exc:
            raise PipelineError(f"{path}: row {row_no}: {exc}") from None
        rows.append([_finite(cell, path, row_no) for cell in row[1:]])
    if not quarters:
        raise PipelineError(f"{path}: empty panel")
    for prev, cur in zip(quarters, quarters[1:]):
        if cur - prev != 1:
            raise PipelineError(f"{path}: panel quarters not contiguous around {prev}")
    data = np.array(rows)
    return Dataset(start=quarters[0], columns={n: data[:, j] for j, n in enumerate(names)})
