import re
from pathlib import Path

import pytest

from eulergmm.config import KNOWN_KEYS, ConfigError, RunConfig, parse_config
from eulergmm.models import ModelKind
from eulergmm.pipeline import InvestmentMeasure
from eulergmm.quarters import QuarterIndex


def write(tmp_path, text, name="run.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestDefaults:
    def test_empty_file(self, tmp_path):
        cfg = parse_config(write(tmp_path, ""))
        assert cfg.model is ModelKind.IAC
        assert cfg.investment_measure is InvestmentMeasure.SW
        assert cfg.beta == 0.99 and cfg.delta == 0.025
        assert cfg.level == 0.90 and cfg.bandwidth == "auto"
        assert cfg.statistic == "S"
        assert cfg.instrument_lags == (("delta_i", 1), ("r_p", 2), ("u", 1))
        assert cfg.split_fraction == 0.45 and cfg.split_gap == 3
        assert cfg.rate_scale == 400.0

    @pytest.mark.parametrize("kind, lags", [
        ("IAC", [["delta_i", 1], ["r_p", 2], ["u", 1]]),
        ("SEMI", [["delta_i", 1], ["r_p", 2], ["u", 1]]),
        ("CAC", [["delta_i", 2], ["r_p", 3], ["u", 2]]),
    ])
    def test_instrument_lags_default_to_the_models(self, tmp_path, kind, lags):
        cfg = parse_config(write(tmp_path, f"[model]\nkind = {kind}\n"))
        assert cfg.effective()["instruments"]["lags"] == lags
        given = parse_config(write(tmp_path, f"[model]\nkind = {kind}\n[instruments]\nlags = u:3\n"))
        assert given.instrument_lags == (("u", 3),)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="no such config"):
            parse_config(tmp_path / "absent.ini")

    def test_effective_is_json_friendly(self):
        import json

        json.dumps(RunConfig().effective())


FULL = """
[data]
snapshot = true
investment_measure = JPT
rate_scale = 100
sample_start = 1967Q1
sample_end = 2019Q4

[model]
kind = SEMI
rho = 0.9

[instruments]
lags = delta_i:1, delta_i:2, u:1
external = mp_shock

[inference]
statistic = split
level = 0.95
bandwidth = 4
theta0 = 0.1, 0.2

[grid]
points = 10, 12
extra_points = 0.0,0.0; 1.5,2.5

[output]
dir = out
"""


class TestParsing:
    def test_full_round_trip(self, tmp_path):
        path = write(tmp_path, FULL)
        cfg = parse_config(path)
        assert cfg.snapshot is True
        assert cfg.investment_measure is InvestmentMeasure.JPT
        assert cfg.rate_scale == 100.0
        assert cfg.sample_start == QuarterIndex(1967, 1)
        assert cfg.model is ModelKind.SEMI and cfg.rho == 0.9
        assert cfg.instrument_lags == (("delta_i", 1), ("delta_i", 2), ("u", 1))
        assert cfg.external == ("mp_shock",)
        assert cfg.statistic == "split" and cfg.level == 0.95 and cfg.bandwidth == 4
        assert cfg.theta0 == (0.1, 0.2)
        assert cfg.grid_points == (10, 12)
        assert cfg.extra_points == ((0.0, 0.0), (1.5, 2.5))
        assert cfg.out_dir == "out"

    def test_bandwidth_auto(self, tmp_path):
        cfg = parse_config(write(tmp_path, "[inference]\nbandwidth = auto\n"))
        assert cfg.bandwidth == "auto"

    def test_full_effective(self, tmp_path):
        cfg = parse_config(write(tmp_path, FULL))
        assert cfg.effective() == {
            "data": {"panel": None, "series_dir": None, "snapshot": True,
                     "investment_measure": "JPT", "rate_scale": 100.0,
                     "sample_start": "1967Q1", "sample_end": "2019Q4"},
            "model": {"kind": "SEMI", "beta": 0.99, "delta": 0.025, "rho": 0.9},
            "instruments": {"lags": [["delta_i", 1], ["delta_i", 2], ["u", 1]],
                            "external": ["mp_shock"]},
            "inference": {"statistic": "split", "level": 0.95, "bandwidth": 4,
                          "split_fraction": 0.45, "split_gap": 3, "theta0": [0.1, 0.2]},
            "grid": {"points": [10, 12], "extra_points": [[0.0, 0.0], [1.5, 2.5]]},
            "output": {"dir": "out"},
        }

    def test_empty_panel_is_no_source(self, tmp_path):
        cfg = parse_config(write(tmp_path, "[data]\npanel =\nsnapshot = true\n"))
        assert cfg.panel == "" and cfg.snapshot is True


class TestRejections:
    def test_level_out_of_range(self, tmp_path):
        with pytest.raises(ConfigError, match="level"):
            parse_config(write(tmp_path, "[inference]\nlevel = 1.5\n"))

    def test_misspelled_key_suggestion(self, tmp_path):
        with pytest.raises(ConfigError, match="did you mean 'bandwidth'"):
            parse_config(write(tmp_path, "[inference]\nbandwith = 4\n"))

    def test_unknown_section_suggestion(self, tmp_path):
        with pytest.raises(ConfigError, match=r"did you mean \[inference\]"):
            parse_config(write(tmp_path, "[inferense]\nlevel = 0.9\n"))

    def test_unknown_section_no_hint(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(write(tmp_path, "[zzz]\na = 1\n"))

    def test_bad_model_kind(self, tmp_path):
        with pytest.raises(ConfigError, match="IAC, CAC, or SEMI"):
            parse_config(write(tmp_path, "[model]\nkind = VAR\n"))

    def test_beta_out_of_range(self, tmp_path):
        with pytest.raises(ConfigError, match="beta"):
            parse_config(write(tmp_path, "[model]\nbeta = 1.1\n"))

    def test_rho_out_of_range(self, tmp_path):
        with pytest.raises(ConfigError, match="rho"):
            parse_config(write(tmp_path, "[model]\nrho = 1.0\n"))

    def test_bad_statistic(self, tmp_path):
        with pytest.raises(ConfigError, match="statistic"):
            parse_config(write(tmp_path, "[inference]\nstatistic = wald\n"))

    def test_negative_bandwidth(self, tmp_path):
        with pytest.raises(ConfigError, match="bandwidth"):
            parse_config(write(tmp_path, "[inference]\nbandwidth = -3\n"))

    def test_bad_lag_syntax(self, tmp_path):
        with pytest.raises(ConfigError, match="column:lag"):
            parse_config(write(tmp_path, "[instruments]\nlags = delta_i\n"))

    def test_bad_theta0(self, tmp_path):
        with pytest.raises(ConfigError, match="theta0"):
            parse_config(write(tmp_path, "[inference]\ntheta0 = a,b\n"))

    def test_unknown_qll_fallback(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key 'qll_fallback'"):
            parse_config(write(tmp_path, "[inference]\nqll_fallback = sup_split\n"))

    def test_missing_panel_file(self, tmp_path):
        with pytest.raises(ConfigError, match="file not found"):
            parse_config(write(tmp_path, "[data]\npanel = /nope/panel.csv\n"))

    def test_grid_points_too_few(self, tmp_path):
        with pytest.raises(ConfigError, match="points"):
            parse_config(write(tmp_path, "[grid]\npoints = 1, 5, 5\n"))

    @pytest.mark.parametrize("section,key,value", [
        ("inference", "level", "abc"),
        ("data", "rate_scale", "x"),
        ("data", "snapshot", "maybe"),
        ("inference", "split_gap", "1.5"),
        ("inference", "split_fraction", "half"),
        ("model", "beta", "b"),
        ("data", "rate_scale", "inf"),
        ("inference", "theta0", "nan,1,1"),
        ("grid", "extra_points", "inf,1"),
    ])
    def test_unparsable_value_names_file_and_key(self, tmp_path, section, key, value):
        path = write(tmp_path, f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(path)
        assert str(exc.value).startswith(f"{path}: [{section}] {key}: ")
        assert repr(value) in str(exc.value)

    def test_unknown_external_lists_known(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[instruments\] external: unknown \['foo'\]; "
                           "known: mp_shock, mil_news, oil, vxo"):
            parse_config(write(tmp_path, "[instruments]\nexternal = oil, foo\n"))

    def test_percent_sign_is_literal(self, tmp_path):
        cfg = parse_config(write(tmp_path, "[output]\ndir = out%1\n"))
        assert cfg.out_dir == "out%1"

    def test_directory_is_rejected(self, tmp_path):
        # ConfigParser.read skips what it cannot open, which would apply every default
        with pytest.raises(ConfigError, match=f"{tmp_path}: cannot read config file"):
            parse_config(tmp_path)

    @pytest.mark.parametrize("sources,named", [
        ("snapshot = true\nseries_dir = raw\n", "series_dir and snapshot"),
        ("panel = {panel}\nsnapshot = yes\n", "panel and snapshot"),
        ("panel = {panel}\nseries_dir = raw\n", "panel and series_dir"),
    ])
    def test_two_data_sources(self, tmp_path, sources, named):
        panel = write(tmp_path, "", name="panel.csv")
        path = write(tmp_path, "[data]\n" + sources.format(panel=panel))
        with pytest.raises(ConfigError) as exc:
            parse_config(path)
        assert str(exc.value) == f"{path}: [data] {named}: set only one data source"

    def test_bad_sample_quarter(self, tmp_path):
        with pytest.raises(ConfigError, match="sample_start"):
            parse_config(write(tmp_path, "[data]\nsample_start = 1967M1\n"))


def test_readme_example_parses_and_names_every_key(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    [block] = re.findall(r"```ini\n(.*?)```", readme, re.S)
    cfg = parse_config(write(tmp_path, block))
    assert cfg.snapshot is True and cfg.external == ("mp_shock",)
    # keys set or shown in a comment line (`; key = value`), per section
    named, section = {}, None
    for line in block.splitlines():
        if m := re.fullmatch(r"\[(\w+)\]", line):
            section = m.group(1)
        elif m := re.match(r";?\s*(\w+) =", line):
            named.setdefault(section, set()).add(m.group(1))
    assert named == KNOWN_KEYS

