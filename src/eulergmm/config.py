"""INI run configuration: parsing, validation, and defaults."""

from __future__ import annotations

import configparser
import difflib
import os
from dataclasses import dataclass, field
from typing import Optional

from .models import ModelKind
from .pipeline import EXTERNAL_COLUMNS, InvestmentMeasure
from .quarters import QuarterIndex


class ConfigError(ValueError):
    pass


#: Recognized keys per section; anything else is rejected with a suggestion.
KNOWN_KEYS = {
    "data": {
        "panel", "series_dir", "snapshot", "investment_measure", "rate_scale",
        "sample_start", "sample_end",
    },
    "model": {"kind", "beta", "delta", "rho"},
    "instruments": {"lags", "external"},
    "inference": {
        "statistic", "level", "bandwidth", "split_fraction", "split_gap",
        "theta0",
    },
    "grid": {"points", "extra_points"},
    "output": {"dir"},
}


@dataclass
class RunConfig:
    # data
    panel: Optional[str] = None
    series_dir: Optional[str] = None
    snapshot: bool = False
    investment_measure: InvestmentMeasure = InvestmentMeasure.SW
    rate_scale: float = 400.0
    sample_start: Optional[QuarterIndex] = None
    sample_end: Optional[QuarterIndex] = None
    # model
    model: ModelKind = ModelKind.IAC
    beta: float = 0.99
    delta: float = 0.025
    rho: float = 0.0  # fixed rho for the SEMI variant
    # instruments
    instrument_lags: tuple[tuple[str, int], ...] = (
        ("delta_i", 1), ("r_p", 2), ("u", 1),
    )
    external: tuple[str, ...] = ()
    # inference
    statistic: str = "S"
    level: float = 0.90
    bandwidth: object = "auto"
    split_fraction: float = 0.45
    split_gap: int = 3
    theta0: Optional[tuple[float, ...]] = None
    # grid
    grid_points: Optional[tuple[int, ...]] = None
    extra_points: tuple[tuple[float, ...], ...] = ()
    # output
    out_dir: str = "."

    def effective(self) -> dict:
        """Fully-resolved key/value view for embedding in outputs."""
        return {
            "data": {
                "panel": self.panel,
                "series_dir": self.series_dir,
                "snapshot": self.snapshot,
                "investment_measure": self.investment_measure.value,
                "rate_scale": self.rate_scale,
                "sample_start": str(self.sample_start) if self.sample_start else None,
                "sample_end": str(self.sample_end) if self.sample_end else None,
            },
            "model": {
                "kind": self.model.value,
                "beta": self.beta,
                "delta": self.delta,
                "rho": self.rho,
            },
            "instruments": {
                "lags": [[n, l] for n, l in self.instrument_lags],
                "external": list(self.external),
            },
            "inference": {
                "statistic": self.statistic,
                "level": self.level,
                "bandwidth": self.bandwidth,
                "split_fraction": self.split_fraction,
                "split_gap": self.split_gap,
                "theta0": list(self.theta0) if self.theta0 else None,
            },
            "grid": {
                "points": list(self.grid_points) if self.grid_points else None,
                "extra_points": [list(p) for p in self.extra_points],
            },
            "output": {"dir": self.out_dir},
        }


def _err(path: str, section: str, key: str, msg: str) -> ConfigError:
    return ConfigError(f"{path}: [{section}] {key}: {msg}")


def _get(path: str, section: configparser.SectionProxy, key: str, convert, expected: str):
    """`convert` of one value; a ValueError from it names the file, section and key."""
    try:
        return convert(section[key])
    except ValueError:
        raise _err(path, section.name, key, f"{expected}, got {section[key]!r}") from None


def _boolean(text: str) -> bool:
    if text.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ValueError(text)
    return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]


def _numbers(kind):
    return lambda text: tuple(kind(x) for x in text.split(","))


def _parse_lags(text: str) -> tuple[tuple[str, int], ...]:
    out = []
    for part in text.split(","):
        if part.strip():
            name, _, lag = part.partition(":")
            out.append((name.strip(), int(lag)))
    return tuple(out)


def _parse_extra_points(text: str) -> tuple[tuple[float, ...], ...]:
    points = []
    for group in text.split(";"):
        group = group.strip()
        if not group:
            continue
        points.append(tuple(float(x) for x in group.split(",")))
    return tuple(points)


def parse_config(path: str | os.PathLike) -> RunConfig:
    """Parse and validate an INI run configuration, filling documented defaults."""
    path = os.fspath(path)
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh, source=path)
    except FileNotFoundError:
        raise ConfigError(f"no such config file: {path}") from None
    except OSError as exc:  # a directory, or a file that cannot be opened
        raise ConfigError(f"{path}: cannot read config file: {exc.strerror}") from None
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None

    for section in parser.sections():
        if section not in KNOWN_KEYS:
            hint = difflib.get_close_matches(section, KNOWN_KEYS, n=1)
            extra = f" (did you mean [{hint[0]}]?)" if hint else ""
            raise ConfigError(f"{path}: unknown section [{section}]{extra}")
        for key in parser[section]:
            if key not in KNOWN_KEYS[section]:
                hint = difflib.get_close_matches(key, KNOWN_KEYS[section], n=1)
                extra = f" (did you mean {hint[0]!r}?)" if hint else ""
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]{extra}")

    cfg = RunConfig()

    if parser.has_section("data"):
        d = parser["data"]
        cfg.panel = d.get("panel", cfg.panel)
        cfg.series_dir = d.get("series_dir", cfg.series_dir)
        if "snapshot" in d:
            cfg.snapshot = _get(path, d, "snapshot", _boolean, "must be true or false")
        if "investment_measure" in d:
            cfg.investment_measure = _get(
                path, d, "investment_measure", InvestmentMeasure, "must be SW or JPT"
            )
        if "rate_scale" in d:
            cfg.rate_scale = _get(path, d, "rate_scale", float, "not a number")
            if not cfg.rate_scale > 0:
                raise _err(path, "data", "rate_scale", "must be > 0")
        for key in ("sample_start", "sample_end"):
            if key in d:
                setattr(cfg, key, _get(path, d, key, QuarterIndex.parse, "must be YYYYQn"))
        if cfg.panel and not os.path.exists(cfg.panel):
            raise _err(path, "data", "panel", f"file not found: {cfg.panel}")

    if parser.has_section("model"):
        m = parser["model"]
        if "kind" in m:
            cfg.model = _get(path, m, "kind", ModelKind, "must be IAC, CAC, or SEMI")
        for key in ("beta", "delta", "rho"):
            if key in m:
                setattr(cfg, key, _get(path, m, key, float, "not a number"))
        if not 0 < cfg.beta < 1:
            raise _err(path, "model", "beta", f"must be in (0,1), got {cfg.beta}")
        if not 0 < cfg.delta < 1:
            raise _err(path, "model", "delta", f"must be in (0,1), got {cfg.delta}")
        if not 0 <= cfg.rho < 1:
            raise _err(path, "model", "rho", f"must be in [0,1), got {cfg.rho}")

    if parser.has_section("instruments"):
        i = parser["instruments"]
        if "lags" in i:
            cfg.instrument_lags = _get(
                path, i, "lags", _parse_lags, "must be comma-separated 'column:lag' pairs"
            )
        if "external" in i:
            cfg.external = tuple(
                s.strip() for s in i["external"].split(",") if s.strip()
            )
            unknown = [s for s in cfg.external if s not in EXTERNAL_COLUMNS]
            if unknown:
                raise _err(path, "instruments", "external",
                           f"unknown {unknown}; known: {', '.join(EXTERNAL_COLUMNS)}")

    if parser.has_section("inference"):
        f = parser["inference"]
        if "statistic" in f:
            stat = f["statistic"].strip()
            if stat not in ("S", "qll", "split"):
                raise _err(path, "inference", "statistic",
                           f"must be S, qll, or split, got {stat!r}")
            cfg.statistic = stat
        if "level" in f:
            cfg.level = _get(path, f, "level", float, "not a number")
            if not 0 < cfg.level < 1:
                raise _err(path, "inference", "level",
                           f"must be in (0,1), got {cfg.level}")
        if "bandwidth" in f:
            cfg.bandwidth = _get(
                path, f, "bandwidth", lambda v: v if v == "auto" else int(v),
                "must be 'auto' or an integer",
            )
            if cfg.bandwidth != "auto" and cfg.bandwidth < 0:
                raise _err(path, "inference", "bandwidth", "must be >= 0")
        if "split_fraction" in f:
            cfg.split_fraction = _get(path, f, "split_fraction", float, "not a number")
            if not 0 < cfg.split_fraction < 1:
                raise _err(path, "inference", "split_fraction", "must be in (0,1)")
        if "split_gap" in f:
            cfg.split_gap = _get(path, f, "split_gap", int, "not an integer")
            if cfg.split_gap < 0:
                raise _err(path, "inference", "split_gap", "must be >= 0")
        if "theta0" in f:
            cfg.theta0 = _get(
                path, f, "theta0", _numbers(float), "must be comma-separated numbers"
            )

    if parser.has_section("grid"):
        g = parser["grid"]
        if "points" in g:
            cfg.grid_points = _get(
                path, g, "points", _numbers(int), "must be comma-separated integers"
            )
            if any(p < 2 for p in cfg.grid_points):
                raise _err(path, "grid", "points", "each axis needs >= 2 points")
        if "extra_points" in g:
            cfg.extra_points = _get(
                path, g, "extra_points", _parse_extra_points,
                "must be ';'-separated points of comma-separated numbers",
            )

    if parser.has_section("output"):
        cfg.out_dir = parser["output"].get("dir", cfg.out_dir)

    return cfg
