import dataclasses
import json
import re

import numpy as np
import pytest

from eulergmm.grids import (
    AxisSpec,
    ConfidenceGrid,
    GridSpec,
    collect_results,
    default_semi_grid,
    default_structural_grid,
    export_grid,
    invert_test,
    make_grid,
    read_grid_csv,
    set_summary,
)
from eulergmm.inference import TestResult as Result
from eulergmm.quantiles import chi2_quantile


def ball_evaluator(df=2, center=(0.0, 0.0), scale=1.0, level=0.90):
    """Deterministic evaluator: statistic is the scaled squared distance."""
    crit = chi2_quantile(df, level)
    c = np.asarray(center, float)

    def run(point):
        stat = float(scale * np.sum((np.asarray(point) - c) ** 2))
        return Result(
            statistic=stat, df=df, critical_value=crit, level=level,
            accept=stat <= crit, d_hat=0.0,
        )

    return run


class TestAxisSpec:
    def test_closed_interval(self):
        ax = AxisSpec("a", 0.0, 1.0, 5)
        assert np.allclose(ax.values(), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_excluded_upper(self):
        # [0, 1) with 20 points: step 0.05, last value 0.95
        ax = AxisSpec("rho", 0.0, 1.0, 20, include_upper=False)
        v = ax.values()
        assert v[0] == 0.0 and v[-1] == pytest.approx(0.95)
        assert len(v) == 20

    def test_excluded_lower(self):
        # (0, 20] with 40 points: step 0.5, values 0.5 .. 20
        ax = AxisSpec("kappa", 0.0, 20.0, 40, include_lower=False)
        v = ax.values()
        assert v[0] == pytest.approx(0.5) and v[-1] == pytest.approx(20.0)

    def test_both_excluded(self):
        ax = AxisSpec("x", 0.0, 3.0, 2, include_lower=False, include_upper=False)
        assert np.allclose(ax.values(), [1.0, 2.0])

    def test_validation(self):
        with pytest.raises(ValueError, match="points"):
            AxisSpec("a", 0.0, 1.0, 1)
        with pytest.raises(ValueError, match="upper"):
            AxisSpec("a", 1.0, 1.0, 3)

    @pytest.mark.parametrize("points", [2.5, 3.0, True, "3", None])
    def test_point_count_must_be_an_integer(self, points):
        # 2.5 points would put a lattice point above the upper bound
        with pytest.raises(ValueError, match=f"axis 'x' point count must be an integer, "
                                             f"got {points!r}"):
            AxisSpec("x", 0.0, 1.0, points)

    def test_numpy_integer_point_count(self):
        assert np.allclose(AxisSpec("x", 0.0, 1.0, np.int64(3)).values(), [0.0, 0.5, 1.0])

    @pytest.mark.parametrize("lower, upper, end", [
        (float("nan"), 1.0, "lower"), (0.0, float("nan"), "upper"),
        (-float("inf"), 1.0, "lower"), (0.0, float("inf"), "upper"),
    ])
    def test_non_finite_bound(self, lower, upper, end):
        with pytest.raises(ValueError, match=f"axis 'kappa' {end} bound is not finite"):
            AxisSpec("kappa", lower, upper, 3)


class TestMakeGrid:
    def test_row_major_order(self):
        spec = GridSpec(axes=(AxisSpec("a", 0, 1, 2), AxisSpec("b", 0, 2, 3)))
        pts = make_grid(spec)
        # last axis varies fastest
        expected = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
        assert np.allclose(pts, expected)

    def test_extra_points_appended(self):
        spec = GridSpec(
            axes=(AxisSpec("a", 0, 1, 2), AxisSpec("b", 0, 1, 2)),
            extra_points=((0.123, 0.456),),
        )
        pts = make_grid(spec)
        assert pts.shape == (5, 2)
        assert np.allclose(pts[-1], [0.123, 0.456])

    def test_extra_point_dimension_check(self):
        with pytest.raises(ValueError, match="coordinates"):
            GridSpec(axes=(AxisSpec("a", 0, 1, 2),), extra_points=((1.0, 2.0),))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_extra_point(self, bad):
        with pytest.raises(ValueError, match=r"extra point \(0\.5, .*\) has a non-finite"):
            GridSpec(axes=(AxisSpec("a", 0, 1, 2), AxisSpec("b", 0, 1, 2)),
                     extra_points=((0.5, bad),))

    def test_default_structural_shape(self):
        pts = make_grid(default_structural_grid())
        assert pts.shape == (20 * 40 * 20, 3)
        assert pts[:, 0].max() == pytest.approx(0.95)   # rho < 1
        assert pts[:, 1].min() == pytest.approx(0.5)    # kappa > 0
        assert pts[:, 2].min() == pytest.approx(0.5)    # zeta > 0

    def test_default_semi_shape(self):
        pts = make_grid(default_semi_grid())
        assert pts.shape == (2500, 2)
        assert pts[:, 0].min() == 0.0 and pts[:, 1].max() == pytest.approx(20.0)


SMALL = GridSpec(axes=(AxisSpec("a", -2, 2, 9), AxisSpec("b", -2, 2, 9)))


class TestInvertTest:
    def test_degenerate_accept_all(self):
        g = invert_test(ball_evaluator(scale=0.0), SMALL, 0.90)
        assert g.accepts.all() and not g.errors.any()

    def test_degenerate_reject_all(self):
        g = invert_test(ball_evaluator(scale=1e9, center=(10, 10)), SMALL, 0.90)
        assert not g.accepts.any()
        assert set_summary(g)["projections"]["a"] is None

    def test_nested_across_levels(self):
        sets = []
        for level in (0.90, 0.95, 0.99):
            g = invert_test(ball_evaluator(level=level), SMALL, level)
            sets.append(g.accepts.astype(bool))
        assert (sets[0] <= sets[1]).all() and (sets[1] <= sets[2]).all()
        assert sets[0].sum() < sets[2].sum()

    def test_deterministic_repeat(self):
        ev = ball_evaluator()
        g1 = invert_test(ev, SMALL, 0.90)
        g2 = invert_test(ev, SMALL, 0.90)
        assert np.array_equal(g1.stats, g2.stats)
        assert np.array_equal(g1.accepts, g2.accepts)

    def test_error_rows_flagged(self):
        def flaky(point):
            if point[0] < 0:
                raise RuntimeError("boom")
            return ball_evaluator()(point)

        g = invert_test(flaky, SMALL, 0.90)
        bad = g.points[:, 0] < 0
        assert (g.errors[bad] == 1).all() and (g.accepts[bad] == 0).all()
        assert np.isnan(g.stats[bad]).all()
        assert not g.errors[~bad].any()

    def test_label_is_the_results(self):
        labelled = lambda point: dataclasses.replace(ball_evaluator()(point), variant="split-S")
        assert invert_test(labelled, SMALL, 0.90).variant == "split-S"
        mixed = lambda point: (labelled if point[0] < 0 else ball_evaluator())(point)
        with pytest.raises(ValueError, match="results of more than one test: S, split-S"):
            invert_test(mixed, SMALL, 0.90)

    def test_abort_before_the_label_check(self):
        # most points failing and the rest of two tests: the 50% abort, as a
        # set of one test with the same failures gives it
        labelled = lambda point: dataclasses.replace(ball_evaluator()(point), variant="split-S")

        def mostly_failing(point):
            if point[0] < 0.5:
                raise RuntimeError("nope")
            return (labelled if point[1] < 0 else ball_evaluator())(point)

        with pytest.raises(RuntimeError, match="evaluator failed on 45/81 lattice points"):
            invert_test(mostly_failing, SMALL, 0.90)

    def test_majority_errors_abort(self):
        def always(point):
            raise RuntimeError("nope")

        with pytest.raises(RuntimeError, match="failed on"):
            invert_test(always, SMALL, 0.90)

    @pytest.mark.parametrize("count", [1, 4])
    def test_one_outcome_per_point(self, count):
        points = make_grid(SMALL)[:3]
        outcomes = [ball_evaluator()(p) for p in make_grid(SMALL)[:count]]
        with pytest.raises(ValueError, match=f"{count} outcomes for 3 lattice points"):
            collect_results(SMALL, 0.90, points, outcomes)


class TestSummaryAndExport:
    def test_summary_values(self):
        g = invert_test(ball_evaluator(), SMALL, 0.90)
        s = set_summary(g)
        assert s["total_points"] == 81
        assert s["accepted_points"] == int(g.accepts.sum())
        assert s["accepted_fraction"] == pytest.approx(g.accepts.mean())
        # accepted region is a disc of radius sqrt(crit) around the origin
        r = np.sqrt(chi2_quantile(2, 0.90))
        lo, hi = s["projections"]["a"]
        assert -r <= lo <= 0 <= hi <= r
        # marginal profile at the center row accepts everything within radius
        center = dict((v, f) for v, f in s["marginals"]["a"])
        assert center[0.0] == max(center.values())

    def test_export_schema_and_roundtrip(self, tmp_path):
        g = invert_test(ball_evaluator(), SMALL, 0.90, metadata={"note": "x"})
        csv_path, json_path = export_grid(g, tmp_path / "grid")
        cols = read_grid_csv(csv_path)
        assert list(cols) == ["a", "b", "stat", "df", "crit", "accept", "error"]
        assert np.allclose(cols["a"], g.points[:, 0], atol=5e-6)
        assert np.array_equal(cols["accept"].astype(int), g.accepts)
        sidecar = json.loads(open(json_path).read())
        assert sidecar["level"] == 0.90
        assert sidecar["metadata"] == {"note": "x"}
        assert sidecar["axes"][0]["name"] == "a"
        assert sidecar["summary"]["total_points"] == 81
        # a header-only CSV reads back as empty columns under the same names
        header_only = tmp_path / "empty.csv"
        header_only.write_text(open(csv_path).readline())
        empty = read_grid_csv(header_only)
        assert list(empty) == list(cols)
        assert all(col.shape == (0,) for col in empty.values())
        # a zero-byte file has no header to name the columns
        zero = tmp_path / "zero.csv"
        zero.write_text("")
        with pytest.raises(ValueError, match="zero.csv: empty file"):
            read_grid_csv(zero)

    @pytest.mark.parametrize("content", [b"a,b\n1,\xff\xfe\n", b'a,b\n1,"' + b"x" * 200_000, None],
                             ids=["not-utf8", "field-limit", "missing"])
    def test_unreadable_file_is_a_value_error_naming_it(self, tmp_path, content):
        # bytes that are not UTF-8, an unclosed quote over the csv field limit, no file
        path = tmp_path / "grid.csv"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_grid_csv(path)

    def test_read_ragged_row_names_the_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b,stat\n1,2,3\n\n4,5\n")
        with pytest.raises(ValueError, match=r"ragged.csv: row 3: 2 fields, expected 3"):
            read_grid_csv(path)

    def test_read_non_numeric_cell_names_the_cell(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("a,b,stat\n1,2,nan\n4,5,x6\n")
        with pytest.raises(ValueError, match=r"text.csv: row 2: non-numeric value 'x6'"):
            read_grid_csv(path)

    def test_export_is_strict_json(self, tmp_path):
        # NaN, Infinity and -Infinity are not JSON; json.loads accepts them
        # unless parse_constant says otherwise
        def reject(token):
            raise ValueError(f"non-JSON token {token}")

        spec = GridSpec(axes=(AxisSpec("a", -2, 2, 5), AxisSpec("b", -2, 2, 5)),
                        extra_points=((0.1, 0.2), (3.0, -3.0)))
        g = invert_test(ball_evaluator(), spec, 0.90)
        _, json_path = export_grid(g, tmp_path / "strict")
        sidecar = json.loads(open(json_path).read(), parse_constant=reject)
        assert sidecar["extra_points"] == [[0.1, 0.2], [3.0, -3.0]]
        assert len(sidecar["summary"]["marginals"]["a"]) == 7

    def test_export_six_significant_digits(self, tmp_path):
        spec = GridSpec(axes=(AxisSpec("a", 0, 1, 3),), extra_points=((1 / 3,),))
        g = invert_test(ball_evaluator(df=1, center=(0.0,)), spec, 0.90)
        csv_path, _ = export_grid(g, tmp_path / "g")
        text = open(csv_path).read()
        assert "0.333333" in text and "0.3333333" not in text

    def test_export_cell_formatting(self, tmp_path):
        # every non-finite float is written nan; integer columns as integers
        nan, inf = float("nan"), float("inf")
        g = ConfidenceGrid(
            spec=GridSpec(axes=(AxisSpec("a", 0, 1, 2), AxisSpec("b", 0, 1, 2))),
            level=0.90,
            points=np.array([[-0.0, 1e-05], [1234567.0, 0.25], [0.5, 2.0], [1.0, 3.0]]),
            stats=np.array([nan, inf, -inf, -0.0]),
            dfs=np.array([0, 2, 3, 12]),
            crits=np.array([1e-05, 1234567.0, 4.60517, nan]),
            accepts=np.array([0, 1, 0, 1]),
            errors=np.array([1, 0, 0, 0]),
        )
        csv_path, _ = export_grid(g, tmp_path / "cells")
        with open(csv_path, newline="") as fh:
            assert fh.read().split("\r\n") == [
                "a,b,stat,df,crit,accept,error",
                "-0,1e-05,nan,0,1e-05,0,1",
                "1.23457e+06,0.25,nan,2,1.23457e+06,1,0",
                "0.5,2,nan,3,4.60517,0,0",
                "1,3,-0,12,nan,1,0",
                "",
            ]
