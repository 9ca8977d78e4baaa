"""INI run configuration: one table of keys drives parsing, validation and output."""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .design import MODELS
from .hac import HACConfig
from .inference import STATISTICS, SplitSpec
from .models import ModelKind
from .pipeline import EXTERNAL_COLUMNS, InvestmentMeasure, TransformSpec
from .quarters import QuarterIndex


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    # data
    panel: Optional[str] = None
    series_dir: Optional[str] = None
    snapshot: bool = False
    investment_measure: InvestmentMeasure = TransformSpec.investment_measure
    rate_scale: float = TransformSpec.rate_scale
    sample_start: Optional[QuarterIndex] = None
    sample_end: Optional[QuarterIndex] = None
    # model
    model: ModelKind = ModelKind.IAC
    beta: float = 0.99
    delta: float = 0.025
    rho: float = 0.0  # fixed rho for the SEMI variant
    # instruments; None means the model's own lags (`lags`)
    instrument_lags: Optional[tuple[tuple[str, int], ...]] = None
    external: tuple[str, ...] = ()
    # inference
    statistic: str = "S"
    level: float = 0.90
    bandwidth: object = HACConfig.bandwidth
    split_fraction: float = SplitSpec.first_fraction
    split_gap: int = SplitSpec.gap
    theta0: Optional[tuple[float, ...]] = None
    # grid
    grid_points: Optional[tuple[int, ...]] = None
    extra_points: tuple[tuple[float, ...], ...] = ()
    # output
    out_dir: str = "."

    def lags(self) -> tuple[tuple[str, int], ...]:
        """The instrument lags in use: those given, else the model's own."""
        if self.instrument_lags is None:
            return MODELS[self.model].instruments.lags
        return self.instrument_lags

    def effective(self) -> dict:
        """Fully-resolved key/value view for embedding in outputs."""
        out: dict = {}
        for (section, key), (attr, *_) in _KEYS.items():
            value = self.lags() if attr == "instrument_lags" else getattr(self, attr)
            out.setdefault(section, {})[key] = _plain(value)
        return out


def _plain(value):
    """A JSON-friendly copy: Enum -> value, QuarterIndex -> str, tuple -> list."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, QuarterIndex):
        return str(value)
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def _boolean(text: str) -> bool:
    if text.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ValueError(text)
    return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _numbers(kind):
    return lambda text: tuple(kind(x) for x in text.split(","))


def _parse_lags(text: str) -> tuple[tuple[str, int], ...]:
    pairs = (part.partition(":") for part in text.split(",") if part.strip())
    return tuple((name.strip(), int(lag)) for name, _, lag in pairs)


def _in_unit(value: float) -> Optional[str]:
    return None if 0 < value < 1 else f"must be in (0,1), got {value}"


def _non_negative(value) -> Optional[str]:
    return None if value == "auto" or value >= 0 else "must be >= 0"


def _known_external(names: tuple[str, ...]) -> Optional[str]:
    unknown = [s for s in names if s not in EXTERNAL_COLUMNS]
    return f"unknown {unknown}; known: {', '.join(EXTERNAL_COLUMNS)}" if unknown else None


_NUMBER = "not a finite number"

#: (section, key) -> (RunConfig attribute, parser, expected form, check). The
#: parser raises ValueError on text it cannot read; the check returns the
#: message for a parsed value it rejects, or None.
_KEYS = {
    ("data", "panel"): (
        "panel", str, "",
        lambda v: f"file not found: {v}" if v and not os.path.exists(v) else None),
    ("data", "series_dir"): ("series_dir", str, "", None),
    ("data", "snapshot"): ("snapshot", _boolean, "must be true or false", None),
    ("data", "investment_measure"): (
        "investment_measure", InvestmentMeasure, "must be SW or JPT", None),
    ("data", "rate_scale"): (
        "rate_scale", _finite, _NUMBER, lambda v: None if v > 0 else "must be > 0"),
    ("data", "sample_start"): ("sample_start", QuarterIndex.parse, "must be YYYYQn", None),
    ("data", "sample_end"): ("sample_end", QuarterIndex.parse, "must be YYYYQn", None),
    ("model", "kind"): ("model", ModelKind, "must be IAC, CAC, or SEMI", None),
    ("model", "beta"): ("beta", _finite, _NUMBER, _in_unit),
    ("model", "delta"): ("delta", _finite, _NUMBER, _in_unit),
    ("model", "rho"): (
        "rho", _finite, _NUMBER,
        lambda v: None if 0 <= v < 1 else f"must be in [0,1), got {v}"),
    ("instruments", "lags"): (
        "instrument_lags", _parse_lags, "must be comma-separated 'column:lag' pairs", None),
    ("instruments", "external"): (
        "external", lambda text: tuple(s.strip() for s in text.split(",") if s.strip()), "",
        _known_external),
    ("inference", "statistic"): (
        "statistic", str.strip, "",
        lambda v: None if v in STATISTICS
        else f"must be one of {', '.join(STATISTICS)}, got {v!r}"),
    ("inference", "level"): ("level", _finite, _NUMBER, _in_unit),
    ("inference", "bandwidth"): (
        "bandwidth", lambda v: v if v == "auto" else int(v),
        "must be 'auto' or an integer", _non_negative),
    ("inference", "split_fraction"): ("split_fraction", _finite, _NUMBER, _in_unit),
    ("inference", "split_gap"): ("split_gap", int, "not an integer", _non_negative),
    ("inference", "theta0"): (
        "theta0", _numbers(_finite), "must be comma-separated finite numbers", None),
    ("grid", "points"): (
        "grid_points", _numbers(int), "must be comma-separated integers",
        lambda v: None if min(v) >= 2 else "each axis needs >= 2 points"),
    ("grid", "extra_points"): (
        "extra_points",
        lambda text: tuple(_numbers(_finite)(g) for g in text.split(";") if g.strip()),
        "must be ';'-separated points of comma-separated finite numbers", None),
    ("output", "dir"): ("out_dir", str, "", None),
}

#: Recognized keys per section; anything else is rejected with a suggestion.
KNOWN_KEYS = {section: {k for s, k in _KEYS if s == section} for section, _ in _KEYS}


def _close_match(word: str, choices) -> list[str]:
    """The "did you mean" hint for an unknown name: at most one close choice."""
    import difflib  # only on this error path: the import costs every `import eulergmm.cli`

    return difflib.get_close_matches(word, choices, n=1)


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
            hint = _close_match(section, KNOWN_KEYS)
            extra = f" (did you mean [{hint[0]}]?)" if hint else ""
            raise ConfigError(f"{path}: unknown section [{section}]{extra}")
        for key in parser[section]:
            if key not in KNOWN_KEYS[section]:
                hint = _close_match(key, KNOWN_KEYS[section])
                extra = f" (did you mean {hint[0]!r}?)" if hint else ""
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]{extra}")

    cfg = RunConfig()
    for (section, key), (attr, convert, expected, check) in _KEYS.items():
        if not parser.has_option(section, key):
            continue
        text = parser[section][key]
        try:
            value = convert(text)
        except ValueError:
            raise ConfigError(f"{path}: [{section}] {key}: {expected}, got {text!r}") from None
        message = check(value) if check else None
        if message:
            raise ConfigError(f"{path}: [{section}] {key}: {message}")
        setattr(cfg, attr, value)
    cfg.instrument_lags = cfg.lags()

    sources = [key for key in ("panel", "series_dir", "snapshot") if getattr(cfg, key)]
    if len(sources) > 1:
        raise ConfigError(f"{path}: [data] {' and '.join(sources)}: set only one data source")
    return cfg
