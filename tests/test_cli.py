import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import eulergmm
from eulergmm import snapshot
from eulergmm.cli import _DEFAULT_GRIDS, _build_system, _dataset, build_parser, main
from eulergmm.config import RunConfig, parse_config
from eulergmm.design import MODELS
from eulergmm.models import ModelKind
from eulergmm.pipeline import read_panel_csv


def write_config(tmp_path, text, name="run.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def copy_snapshot(dest, skip=()):
    """The packaged raw CSVs, copied to `dest` (less the names in `skip`)."""
    src = os.path.dirname(snapshot.__file__)
    os.makedirs(dest)
    for fn in os.listdir(src):
        if fn.endswith(".csv") and fn[:-4] not in skip:
            shutil.copy(os.path.join(src, fn), dest)
    return str(dest)


SNAPSHOT_IAC = """
[data]
snapshot = true

[inference]
theta0 = 0.3, 5.0, 1.0
"""


class TestTransform:
    def test_writes_panel(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[data]\nsnapshot = true\n")
        rc = main(["transform", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 0
        data = read_panel_csv(tmp_path / "o" / "panel.csv")
        assert {"delta_i", "r_p", "u"} <= set(data.columns)
        assert len(data) > 200
        eff = json.loads((tmp_path / "o" / "effective_config.json").read_text())
        assert eff["data"]["snapshot"] is True
        assert "quarters" in capsys.readouterr().out

    @pytest.mark.parametrize("bound,first,last", [
        ("sample_start = 1990Q1", "1990Q1", "2019Q3"),
        ("sample_end = 2000Q4", "1967Q2", "2000Q4"),
    ])
    def test_one_sided_sample(self, tmp_path, bound, first, last):
        cfg = write_config(tmp_path, f"[data]\nsnapshot = true\n{bound}\n")
        assert main(["transform", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        data = read_panel_csv(tmp_path / "o" / "panel.csv")
        assert (str(data.start), str(data.end)) == (first, last)

    def test_no_source_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "")
        rc = main(["transform", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "no data source" in capsys.readouterr().err

    @pytest.mark.parametrize("settings", [
        "investment_measure = SW\n",
        "investment_measure = JPT\n[instruments]\nexternal = oil, vxo\n",
    ])
    def test_series_dir_matches_snapshot(self, tmp_path, settings):
        raw = copy_snapshot(tmp_path / "raw")
        panels = []
        for i, source in enumerate(("snapshot = true", f"series_dir = {raw}")):
            out = tmp_path / f"out{i}"
            cfg = write_config(tmp_path, f"[data]\n{source}\n{settings}")
            assert main(["transform", "--config", cfg, "--out", str(out)]) == 0
            panels.append((out / "panel.csv").read_bytes())
        assert panels[0] == panels[1]

    @pytest.mark.parametrize("text,message", [
        ("[data]\nseries_dir = {raw}\n", "missing raw series: GDPDEF, FEDFUNDS"),
        ("[data]\nsnapshot = true\n[instruments]\nexternal = foo\n",
         "unknown ['foo']; known: mp_shock, mil_news, oil, vxo"),
    ])
    def test_bad_input_is_a_named_error(self, tmp_path, capsys, text, message):
        raw = copy_snapshot(tmp_path / "raw", skip=("GDPDEF", "FEDFUNDS"))
        cfg = write_config(tmp_path, text.format(raw=raw))
        assert main(["transform", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert err.startswith("error: ") and "Traceback" not in err


class TestPanelSource:
    def test_transformed_panel_matches_snapshot(self, tmp_path):
        # `[data] panel` reads back the transform's panel.csv: same result, same grid bytes
        snap = write_config(tmp_path, "[data]\nsnapshot = true\n", name="snap.ini")
        assert main(["transform", "--config", snap, "--out", str(tmp_path / "t")]) == 0
        outputs = []
        for source in ("snapshot = true", f"panel = {tmp_path / 't' / 'panel.csv'}"):
            cfg = write_config(tmp_path, f"[data]\n{source}\n[inference]\ntheta0 = 0.3, 5.0, 1.0\n"
                               "[grid]\npoints = 2, 2, 2\n")
            out = tmp_path / f"out{len(outputs)}"
            assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
            assert main(["grid", "--config", cfg, "--out", str(out)]) == 0
            result = json.loads((out / "test_result.json").read_text())["result"]
            outputs.append((result, (out / "grid.csv").read_bytes()))
        assert outputs[0] == outputs[1]


class TestEstimate:
    def test_iac_result_json(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SNAPSHOT_IAC)
        rc = main(["estimate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 0
        payload = json.loads((tmp_path / "o" / "test_result.json").read_text())
        r = payload["result"]
        assert r["df"] == 3
        assert r["critical_value"] == pytest.approx(6.25139, abs=1e-4)
        assert r["variant"] == "S"
        assert isinstance(r["accept"], bool)
        assert payload["config"]["model"]["kind"] == "IAC"
        out = capsys.readouterr().out
        assert "statistic" in out and ("accepted" in out or "rejected" in out)

    def test_rejection_is_exit_zero(self, tmp_path, capsys):
        # a far-off semi-structural point is rejected, but the run succeeded
        cfg = write_config(
            tmp_path,
            "[data]\nsnapshot = true\n"
            "[model]\nkind = SEMI\nrho = 0.0\n"
            "[inference]\ntheta0 = 8.0, 15.0\n",
        )
        rc = main(["estimate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 0
        payload = json.loads((tmp_path / "o" / "test_result.json").read_text())
        assert payload["result"]["accept"] is False
        assert "rejected" in capsys.readouterr().out

    def test_requires_theta0(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[data]\nsnapshot = true\n")
        rc = main(["estimate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "theta0" in capsys.readouterr().err

    def test_wrong_theta0_arity(self, tmp_path, capsys):
        for kind, lags, theta0, message in (
            ("IAC", "delta_i:1, r_p:2, u:1", "0.3, 5.0",
             "IAC needs theta0 = rho,kappa,zeta; got (0.3, 5.0)"),
            ("SEMI", "delta_i:1, r_p:2, u:1", "0.3, 5.0, 1.0",
             "SEMI needs theta0 = varphi,phi; got (0.3, 5.0, 1.0)"),
            ("CAC", "delta_i:2, r_p:3, u:2", "0.3, 5.0",
             "CAC needs theta0 = rho,sigma,zeta; got (0.3, 5.0)"),
        ):
            cfg = write_config(
                tmp_path, f"[data]\nsnapshot = true\n[model]\nkind = {kind}\n"
                f"[instruments]\nlags = {lags}\n[inference]\ntheta0 = {theta0}\n"
            )
            rc = main(["estimate", "--config", cfg, "--out", str(tmp_path / "o")])
            assert rc == 1
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["estimate", "--config", str(tmp_path / "nope.ini")])
        assert rc == 1
        assert "nope.ini" in capsys.readouterr().err


class TestGrid:
    def test_small_lattice(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "[data]\nsnapshot = true\n"
            "[grid]\npoints = 2, 3, 2\nextra_points = 0.3,5.0,1.0\n",
        )
        rc = main(["grid", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 0
        sidecar = json.loads((tmp_path / "o" / "grid.json").read_text())
        assert sidecar["summary"]["total_points"] == 2 * 3 * 2 + 1
        assert sidecar["level"] == 0.90
        lines = (tmp_path / "o" / "grid.csv").read_text().splitlines()
        assert lines[0] == "rho,kappa,zeta,stat,df,crit,accept,error"
        assert len(lines) == 14
        assert "accepted" in capsys.readouterr().out

    def test_grid_extra_point_matches_estimate(self, tmp_path):
        theta = "0.3, 5.0, 1.0"
        est_cfg = write_config(
            tmp_path, f"[data]\nsnapshot = true\n[inference]\ntheta0 = {theta}\n",
            name="est.ini",
        )
        grid_cfg = write_config(
            tmp_path,
            "[data]\nsnapshot = true\n"
            f"[grid]\npoints = 2, 2, 2\nextra_points = {theta.replace(' ', '')}\n",
            name="grid.ini",
        )
        assert main(["estimate", "--config", est_cfg, "--out", str(tmp_path / "e")]) == 0
        assert main(["grid", "--config", grid_cfg, "--out", str(tmp_path / "g")]) == 0
        est = json.loads((tmp_path / "e" / "test_result.json").read_text())["result"]
        rows = (tmp_path / "g" / "grid.csv").read_text().splitlines()
        last = rows[-1].split(",")
        assert float(last[3]) == pytest.approx(est["statistic"], rel=1e-5)
        assert int(last[6]) == int(est["accept"])


    def test_cac_lattice_names_sigma(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[data]\nsnapshot = true\n[model]\nkind = CAC\n"
            "[instruments]\nlags = delta_i:2, r_p:3, u:2\n[grid]\npoints = 2, 2, 2\n",
        )
        assert main(["grid", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        header = (tmp_path / "o" / "grid.csv").read_text().splitlines()[0]
        assert header == "rho,sigma,zeta,stat,df,crit,accept,error"

    def test_cac_runs_on_its_default_instruments(self, tmp_path):
        # with no [instruments] lags, CAC takes its own: the lags it takes by hand
        for name, lags in (("default", ""),
                           ("given", "[instruments]\nlags = delta_i:2, r_p:3, u:2\n")):
            cfg = write_config(
                tmp_path, "[data]\nsnapshot = true\n[model]\nkind = CAC\n" + lags
                + "[grid]\npoints = 3, 3, 3\n", name=f"{name}.ini")
            assert main(["grid", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        default, given = ((tmp_path / n / "grid.csv").read_text() for n in ("default", "given"))
        assert default == given and len(default.splitlines()) == 1 + 27
        sidecar = json.loads((tmp_path / "default" / "grid.json").read_text())
        assert sidecar["metadata"]["config"]["instruments"]["lags"] == [
            ["delta_i", 2], ["r_p", 3], ["u", 2]]

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_config_built_in_code_takes_the_models_lags(self, tmp_path, kind):
        # a RunConfig made in code builds the system the parsed default config
        # builds, and names the lags it used
        built = RunConfig(model=kind, snapshot=True)
        parsed = parse_config(write_config(
            tmp_path, f"[data]\nsnapshot = true\n[model]\nkind = {kind.value}\n"))
        data = _dataset(parsed)
        a, b = _build_system(built, data), _build_system(parsed, data)
        assert np.array_equal(a.Y, b.Y) and np.array_equal(a.Z, b.Z)
        assert (a.y_labels, a.z_labels) == (b.y_labels, b.z_labels)
        lags = [list(lag) for lag in MODELS[kind].instruments.lags]
        assert built.effective() == parsed.effective()
        assert built.effective()["instruments"]["lags"] == lags

    def test_default_lattice_axes_are_model_parameters(self):
        # a lattice axis names the parameter a point's coordinate is read into
        for kind in ModelKind:
            assert _DEFAULT_GRIDS[kind]().names == list(MODELS[kind].free)

    def test_point_count_must_match_axes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[data]\nsnapshot = true\n[grid]\npoints = 2, 2\n")
        assert main(["grid", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "IAC grid needs 3 point counts (rho, kappa, zeta)" in capsys.readouterr().err

    def test_threads_default_serial(self, capsys):
        # the attribute stays for the benchmark harness; no flag sets it
        assert build_parser().parse_args(["grid", "--config", "run.ini"]).threads == 1
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["grid", "--config", "run.ini", "--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


class TestMisspec:
    def test_report_written(self, tmp_path, capsys):
        rc = main(["misspec", "--gamma", "0.4", "--T", "2000", "--reps", "3",
                   "--seed", "1", "--out", str(tmp_path / "o")])
        assert rc == 0
        report = json.loads((tmp_path / "o" / "misspec_report.json").read_text())
        assert report["pseudo_true"]["theta_star"] == pytest.approx(0.5, abs=1e-12)
        assert report["config"]["T"] == 2000
        assert "theta*" in capsys.readouterr().out

    def test_invalid_gamma(self, tmp_path, capsys):
        rc = main(["misspec", "--gamma", "0.6", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "gamma" in capsys.readouterr().err


class TestReport:
    def test_summarizes_grid(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "[data]\nsnapshot = true\n[grid]\npoints = 2, 2, 2\n"
        )
        assert main(["grid", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        capsys.readouterr()
        rc = main(["report", "--grid", str(tmp_path / "o" / "grid.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "confidence set at level 0.9" in out
        assert "rho" in out and "kappa" in out

    def test_missing_sidecar(self, tmp_path, capsys):
        rc = main(["report", "--grid", str(tmp_path / "missing.json")])
        assert rc == 1
        assert "missing.json" in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", [
        ("{}", "not a grid sidecar: KeyError 'summary'"),
        ("not json", "not a grid sidecar: JSONDecodeError Expecting value"),
        ('{"summary": {}}', "not a grid sidecar: KeyError 'level'"),
    ])
    def test_not_a_sidecar_is_a_named_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "other.json"
        path.write_text(text)
        assert main(["report", "--grid", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {message}")
        assert "Traceback" not in err


class TestParser:
    def test_version_flag(self, capsys):
        # the package's own version, also from a source checkout that was never installed
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"eulergmm {eulergmm.__version__}\n"
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as fh:
            declared = re.search(r'^version = "([^"]+)"$', fh.read(), re.MULTILINE)
        assert declared.group(1) == eulergmm.__version__

    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main([])


def test_runs_without_scipy(tmp_path):
    # numpy is the only runtime dependency: with scipy unimportable, grid,
    # transform and misspec still run
    cfg = write_config(tmp_path, "[data]\nsnapshot = true\n[grid]\npoints = 2, 2, 2\n")
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from eulergmm.cli import main\n"
        f"assert main(['grid', '--config', {cfg!r}, '--out', 'g']) == 0\n"
        f"assert main(['transform', '--config', {cfg!r}, '--out', 't']) == 0\n"
        "assert main(['misspec', '--gamma', '0.4', '--T', '500', '--reps', '2', '--out', 'm']) == 0\n"
    )
    package_root = os.path.dirname(os.path.dirname(snapshot.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.dirname(package_root), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "g" / "grid.csv").exists()
    assert (tmp_path / "t" / "panel.csv").exists()
    assert (tmp_path / "m" / "misspec_report.json").exists()
