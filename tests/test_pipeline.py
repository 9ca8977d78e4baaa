import http.server
import json
import math
import re
import sys
import threading

import numpy as np
import pytest

from eulergmm.pipeline import (
    Dataset,
    InvestmentMeasure,
    PipelineError,
    TransformSpec,
    assemble_dataset,
    build_investment_measure,
    compute_inflation,
    compute_real_rate,
    fetch_fred_series,
    load_series_csv,
    read_panel_csv,
    transform_external,
    transform_raw,
    write_panel_csv,
)
from eulergmm.quarters import QuarterIndex, Series


def _write(tmp_path, name, rows):
    path = tmp_path / name
    path.write_text("date,value\n" + "\n".join(rows) + "\n")
    return path


class TestLoadSeriesCsv:
    def test_basic_parse(self, tmp_path):
        p = _write(tmp_path, "a.csv", ["1967Q1,100.0", "1967Q2,101.0"])
        s = load_series_csv(p)
        assert s.start == QuarterIndex(1967, 1)
        assert list(s.values) == [100.0, 101.0]

    def test_gap_names_missing_quarter(self, tmp_path):
        p = _write(tmp_path, "a.csv", ["1967Q1,1", "1967Q3,2"])
        with pytest.raises(PipelineError, match="1967Q2"):
            load_series_csv(p)

    def test_duplicate_quarter(self, tmp_path):
        p = _write(tmp_path, "a.csv", ["1967Q1,1", "1967Q1,2"])
        with pytest.raises(PipelineError, match="duplicate"):
            load_series_csv(p)

    def test_non_numeric_reports_row(self, tmp_path):
        rows = [f"19{67 + i // 4}Q{i % 4 + 1},1.0" for i in range(4)] + ["1968Q1,n/a"]
        p = _write(tmp_path, "a.csv", rows)
        with pytest.raises(PipelineError, match="row 5"):
            load_series_csv(p)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_reports_row(self, tmp_path, value):
        p = _write(tmp_path, "a.csv", ["1967Q1,1.0", f"1967Q2,{value}"])
        with pytest.raises(PipelineError, match="row 2: non-numeric or non-finite"):
            load_series_csv(p)

    @pytest.mark.parametrize("tail", [b"\xff\xfe\n", b'"' + b"x" * 200_000],
                             ids=["not-utf8", "field-limit"])
    def test_unreadable_csv(self, tmp_path, tail):
        # bytes that are not UTF-8, and an unclosed quote over the csv field limit
        p = tmp_path / "a.csv"
        p.write_bytes(b"date,value\n1967Q1," + tail)
        with pytest.raises(PipelineError, match="unreadable CSV"):
            load_series_csv(p)

    def test_dates_going_backwards(self, tmp_path):
        # a step back is not a gap: the message must say so, naming the row
        p = _write(tmp_path, "a.csv", ["1967Q2,1", "1967Q3,2", "1967Q1,3"])
        with pytest.raises(PipelineError, match="row 3: dates not increasing"):
            load_series_csv(p)

    def test_dates_that_are_not_canonical_labels(self, tmp_path):
        # padding, a blank row, a year below 1000 and non-ASCII digits are valid
        # dates that differ from the canonical labels; the row walk reads them
        p = _write(tmp_path, "a.csv", [" 0999Q4 ,1.5", "", "1000Q1,2.5"])
        s = load_series_csv(p)
        assert s.start == QuarterIndex(999, 4) and list(s.values) == [1.5, 2.5]
        p = _write(tmp_path, "b.csv", ["\u0661\u0669\u0666\u0667Q4,1", "1968Q1,2"])
        s = load_series_csv(p)
        assert s.start == QuarterIndex(1967, 4) and list(s.values) == [1.0, 2.0]

    def test_fault_after_blank_rows_names_the_row(self, tmp_path):
        # row numbers count blank rows, as they did before the one-pass check
        p = _write(tmp_path, "a.csv", ["1967Q1,1", "", "1967Q2,x"])
        with pytest.raises(PipelineError, match="row 3: non-numeric"):
            load_series_csv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(PipelineError, match="no such file"):
            load_series_csv(tmp_path / "nope.csv")

    def test_header_is_exactly_date_value(self, tmp_path):
        # any case is read; an extra column is refused, not read past
        p = tmp_path / "a.csv"
        p.write_text("DATE, Value\n1967Q1,1\n")
        assert list(load_series_csv(p).values) == [1.0]
        p.write_text("date,value,note\n1967Q1,1,x\n")
        with pytest.raises(PipelineError, match=re.escape(
            "expected header 'date,value', got ['date', 'value', 'note']"
        )):
            load_series_csv(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("quarter,value\n1967Q1,1\n")
        with pytest.raises(PipelineError, match="header"):
            load_series_csv(p)


class _FredHandler(http.server.BaseHTTPRequestHandler):
    responses = {}

    def do_GET(self):
        from urllib.parse import parse_qs, urlparse

        q = parse_qs(urlparse(self.path).query)
        sid = q.get("series_id", [""])[0]
        if sid not in self.responses:
            self.send_response(400)
            self.end_headers()
            return
        body = json.dumps({"observations": self.responses[sid]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture(scope="module")
def fred_server():
    _FredHandler.responses = {
        "GPDI": [
            {"date": "1967-01-01", "value": "100.0"},
            {"date": "1967-04-01", "value": "101.0"},
        ],
        "FEDFUNDS": [
            {"date": "1967-01-01", "value": "4.0"},
            {"date": "1967-02-01", "value": "5.0"},
            {"date": "1967-03-01", "value": "6.0"},
            {"date": "1967-04-01", "value": "7.0"},
            {"date": "1967-05-01", "value": "8.0"},
            {"date": "1967-06-01", "value": "9.0"},
        ],
        "GAPPY": [
            {"date": "1967-01-01", "value": "1.0"},
            {"date": "1967-07-01", "value": "2.0"},
        ],
    }
    server = http.server.HTTPServer(("127.0.0.1", 0), _FredHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/obs"
    server.shutdown()


class TestFetchFred:
    def test_quarterly_passthrough(self, fred_server):
        s = fetch_fred_series("GPDI", api_key="k", base_url=fred_server)
        assert len(s) == 2
        assert s.start == QuarterIndex(1967, 1)
        assert list(s.values) == [100.0, 101.0]

    def test_monthly_averaged(self, fred_server):
        s = fetch_fred_series("FEDFUNDS", api_key="k", base_url=fred_server)
        assert len(s) == 2
        assert list(s.values) == [5.0, 8.0]

    def test_gap_names_missing_quarter(self, fred_server):
        # the contiguity rule of the CSV readers, with the series in place of a row
        with pytest.raises(PipelineError, match="'GAPPY': gap in quarters, missing 1967Q2"):
            fetch_fred_series("GAPPY", api_key="k", base_url=fred_server)

    def test_unknown_series_carries_status(self, fred_server):
        with pytest.raises(PipelineError, match="400"):
            fetch_fred_series("NOPE", api_key="k", base_url=fred_server)

    def test_missing_key_points_to_snapshot(self, monkeypatch):
        monkeypatch.delenv("FRED_API_KEY", raising=False)
        with pytest.raises(PipelineError, match="snapshot"):
            fetch_fred_series("GPDI")

    def test_missing_requests_names_the_extra(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "requests", None)
        with pytest.raises(PipelineError, match=r"pip install eulergmm\[fred\]"):
            fetch_fred_series("GPDI", api_key="k")


class TestInvestmentMeasure:
    def test_sw_direct(self):
        raw = {
            "FPI": Series("FPI", QuarterIndex(1967, 1), [200.0, 204.0]),
            "POP": Series("POP", QuarterIndex(1967, 1), [2.0, 2.0]),
            "P_FPI": Series("P_FPI", QuarterIndex(1967, 1), [2.0, 2.0]),
        }
        s = build_investment_measure(TransformSpec(), raw)
        assert len(s) == 1
        assert s.start == QuarterIndex(1967, 2)
        assert s.values[0] == pytest.approx(math.log(51.0 / 50.0), abs=1e-12)

    def test_jpt_zero_durables_matches_sw(self):
        q = QuarterIndex(1967, 1)
        raw = {
            "GPDI": Series("GPDI", q, [200.0, 204.0]),
            "PCDG": Series("PCDG", q, [0.0, 0.0]),
            "POP": Series("POP", q, [2.0, 2.0]),
            "P_GPDI": Series("P_GPDI", q, [2.0, 2.0]),
            "P_PCDG": Series("P_PCDG", q, [1.0, 1.0]),
        }
        s = build_investment_measure(
            TransformSpec(investment_measure=InvestmentMeasure.JPT), raw
        )
        assert s.values[0] == pytest.approx(math.log(51.0 / 50.0), abs=1e-12)

    def test_nonpositive_level(self):
        raw = {
            "FPI": Series("FPI", QuarterIndex(1967, 1), [200.0, 0.0001]),
            "POP": Series("POP", QuarterIndex(1967, 1), [2.0, 2.0]),
            "P_FPI": Series("P_FPI", QuarterIndex(1967, 1), [2.0, 2.0]),
        }
        raw["FPI"].values[1] = 0.0
        with pytest.raises(PipelineError, match="nonpositive"):
            build_investment_measure(TransformSpec(), raw)

    def test_missing_input(self):
        with pytest.raises(PipelineError, match="missing"):
            build_investment_measure(TransformSpec(), {})


class TestTransformRaw:
    def test_names_every_missing_series(self):
        spec = TransformSpec(investment_measure=InvestmentMeasure.JPT)
        raw = {"TCU": Series("TCU", QuarterIndex(1967, 1), [80.0, 81.0])}
        with pytest.raises(PipelineError) as exc:
            transform_raw(raw, spec, ("oil", "mil_news"))
        assert str(exc.value) == (
            "missing raw series: GPDI, P_GPDI, PCDG, P_PCDG, POP, GDPDEF, FEDFUNDS, "
            "OIL, MIL_NEWS"
        )

    def test_unknown_external_kind(self):
        with pytest.raises(PipelineError, match=r"'foo'.*mp_shock"):
            transform_raw({}, TransformSpec(), ("oil", "foo"))


class TestInflation:
    def test_direct(self):
        s = compute_inflation(Series("P", QuarterIndex(1967, 1), [100.0, 101.0]))
        assert s.values[0] == pytest.approx(math.log(1.01), abs=1e-12)
        assert len(s) == 1

    def test_constant_is_zero(self):
        s = compute_inflation(Series("P", QuarterIndex(1967, 1), [5.0, 5.0, 5.0]))
        assert np.allclose(s.values, 0.0)

    def test_scale_invariance(self):
        p = np.array([100.0, 103.0, 101.0, 104.0])
        a = compute_inflation(Series("P", QuarterIndex(1967, 1), p))
        b = compute_inflation(Series("P", QuarterIndex(1967, 1), 7.3 * p))
        assert np.allclose(a.values, b.values, atol=1e-14)

    def test_nonpositive(self):
        s = Series("P", QuarterIndex(1967, 1), [100.0, 1.0])
        s.values[1] = 0.0
        with pytest.raises(PipelineError):
            compute_inflation(s)


class TestRealRate:
    def test_direct(self):
        ffr = Series("ffr", QuarterIndex(1967, 1), [4.0, 4.0])
        pi = Series("pi", QuarterIndex(1967, 1), [0.003, 0.005])
        r = compute_real_rate(ffr, pi, 400.0)
        assert r.values[0] == pytest.approx(4.0 / 400.0 - 0.005, abs=1e-12)

    def test_zero_case(self):
        ffr = Series("ffr", QuarterIndex(1967, 1), [0.0, 0.0])
        pi = Series("pi", QuarterIndex(1967, 1), [0.1, 0.0])
        r = compute_real_rate(ffr, pi, 400.0)
        assert r.values[0] == 0.0

    def test_no_following_inflation(self):
        ffr = Series("ffr", QuarterIndex(1967, 2), [4.0])
        pi = Series("pi", QuarterIndex(1967, 2), [0.005])
        with pytest.raises(PipelineError, match="overlap"):
            compute_real_rate(ffr, pi, 400.0)


class TestExternalTransforms:
    def test_oil_log_diff(self):
        s = transform_external("oil", Series("o", QuarterIndex(1967, 1), [50.0, 55.0]))
        assert s.values[0] == pytest.approx(math.log(1.1), abs=1e-12)

    def test_vxo_population_std(self):
        s = transform_external("vxo", Series("v", QuarterIndex(1967, 1), [1.0, 2.0, 3.0]))
        assert np.allclose(s.values, [-1.224745, 0.0, 1.224745], atol=1e-6)
        assert abs(s.values.mean()) < 1e-12
        assert abs(np.std(s.values) - 1.0) < 1e-12

    def test_vxo_constant_rejected(self):
        with pytest.raises(PipelineError, match="variance"):
            transform_external("vxo", Series("v", QuarterIndex(1967, 1), [5.0, 5.0]))

    def test_passthrough_kinds(self):
        raw = Series("m", QuarterIndex(1967, 1), [0.1, -0.2])
        for kind in ("mp_shock", "mil_news"):
            out = transform_external(kind, raw)
            assert list(out.values) == [0.1, -0.2]

    def test_unknown_kind(self):
        with pytest.raises(PipelineError, match="unknown"):
            transform_external("sunspots", Series("s", QuarterIndex(1967, 1), [1.0]))


class TestAssemble:
    def test_common_span(self):
        cols = {
            "delta_i": Series("delta_i", QuarterIndex(1967, 2), np.zeros(211)),
            "r_p": Series("r_p", QuarterIndex(1967, 1), np.zeros(211)),
            "u": Series("u", QuarterIndex(1967, 1), np.zeros(212)),
        }
        d = assemble_dataset(TransformSpec(), cols)
        assert d.start == QuarterIndex(1967, 2)
        assert d.end == QuarterIndex(2019, 3)

    def test_identical_spans_unchanged(self):
        cols = {
            name: Series(name, QuarterIndex(1967, 1), np.arange(5.0))
            for name in ("delta_i", "r_p", "u")
        }
        d = assemble_dataset(TransformSpec(), cols)
        assert len(d) == 5

    def test_disjoint(self):
        cols = {
            "delta_i": Series("delta_i", QuarterIndex(1967, 1), np.zeros(4)),
            "r_p": Series("r_p", QuarterIndex(1970, 1), np.zeros(4)),
            "u": Series("u", QuarterIndex(1967, 1), np.zeros(40)),
        }
        with pytest.raises(PipelineError):
            assemble_dataset(TransformSpec(), cols)


class TestPanelRoundTrip:
    def test_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        d = Dataset(
            start=QuarterIndex(1980, 3),
            columns={
                "delta_i": rng.normal(size=12),
                "r_p": rng.normal(size=12),
                "u": rng.normal(size=12),
            },
        )
        path = tmp_path / "panel.csv"
        write_panel_csv(d, path)
        back = read_panel_csv(path)
        assert back.start == d.start
        for name in d.columns:
            assert np.array_equal(back.columns[name], d.columns[name])

    def test_ragged_row_names_the_row(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("date,delta_i,r_p\n1980Q1,1.0,2.0\n1980Q2,1.5\n1980Q3,1.0,2.0\n")
        with pytest.raises(PipelineError, match="row 2: 2 fields, expected 3"):
            read_panel_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("")
        with pytest.raises(PipelineError, match="first panel column must be 'date'"):
            read_panel_csv(path)

    @pytest.mark.parametrize("dates,message", [
        (("1980Q1", "1980Q2", "1980Q2"), "row 3: duplicate quarter 1980Q2"),
        (("1980Q2", "1980Q3", "1980Q1"), "row 3: dates not increasing"),
        (("1980Q1", "1980Q3", "1980Q4"), "row 2: gap in quarters, missing 1980Q2"),
    ])
    def test_date_fault_names_the_row(self, tmp_path, dates, message):
        path = tmp_path / "panel.csv"
        path.write_text("date,delta_i,r_p\n" + "".join(f"{d},1.0,2.0\n" for d in dates))
        with pytest.raises(PipelineError, match=f"panel.csv: {message}$"):
            read_panel_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_names_the_row(self, tmp_path, cell):
        path = tmp_path / "panel.csv"
        path.write_text(f"date,delta_i,r_p\n1980Q1,1.0,2.0\n1980Q2,1.5,{cell}\n")
        with pytest.raises(PipelineError, match="row 2: non-numeric or non-finite"):
            read_panel_csv(path)
