"""The batched S, qLL-S and split-sample S paths against their own batch of one.

`s_statistics`, `qll_s_statistics` and `split_sample_s_statistics` evaluate
many points together, in chunks of `BATCH_CHUNK`; `s_statistic`,
`qll_s_statistic` and `split_sample_s_statistic` are a batch of one of the
same code. A point's numbers must not depend on the rest of its batch, and a
point that fails must not disturb the others. The split-sample batch must
also match its earlier per-point path, `split_reference`.
"""

import json
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

import split_reference
from eulergmm import inference
from eulergmm.cli import main
from eulergmm.design import BASELINE_INSTRUMENTS, build_design
from eulergmm.grids import (
    AxisSpec,
    GridSpec,
    default_cac_grid,
    default_semi_grid,
    default_structural_grid,
    export_grid,
    invert_test,
    make_grid,
)
from eulergmm.hac import HACConfig
from eulergmm.inference import (
    BATCH_CHUNK,
    qll_s_statistic,
    qll_s_statistics,
    s_statistic,
    s_statistics,
    split_sample_s_statistic,
    split_sample_s_statistics,
)
from eulergmm.models import (
    LITERATURE_POINTS,
    CACParams,
    SemiStructuralParams,
    StructuralParams,
)
from eulergmm.pipeline import TransformSpec
from eulergmm.snapshot import transform_snapshot
from test_acceptance import ma2_null_system, weak_iv_system

STATISTICS = {
    "S": (s_statistics, s_statistic),
    "qll": (qll_s_statistics, qll_s_statistic),
    "split": (split_sample_s_statistics, split_sample_s_statistic),
}


def test_every_statistic_is_covered():
    assert {name: batch for name, (batch, _) in STATISTICS.items()} == inference.STATISTICS


@pytest.fixture(scope="module")
def systems():
    data = transform_snapshot(TransformSpec())
    systems = {m: build_design(data, m, BASELINE_INSTRUMENTS) for m in ("IAC", "SEMI")}
    systems["CAC"] = build_design(data, "CAC")  # the model's own, deeper, instruments
    return systems


def box(spec, points):
    return GridSpec(axes=tuple(
        AxisSpec(a.name, a.lower, a.upper, points, a.include_lower, a.include_upper)
        for a in spec.axes
    ))


def iac_points():
    """The 8 x 8 x 8 IAC box plus the published calibrations at each of its rho values."""
    lattice = make_grid(box(default_structural_grid(), 8))
    rhos = np.unique(lattice[:, 0])
    extra = [(rho, kappa, zeta) for kappa, zeta in LITERATURE_POINTS.values() for rho in rhos]
    return [StructuralParams(*p) for p in np.vstack([lattice, extra])]


def semi_points(rho):
    return [SemiStructuralParams(rho, *p) for p in make_grid(box(default_semi_grid(), 20))]


def lattice(systems, case):
    """(system, points) of a case: "IAC", or "SEMI <rho>"."""
    if case == "IAC":
        return systems["IAC"], iac_points()
    return systems["SEMI"], semi_points(float(case.split()[1]))


def assert_same(batch, single, rel=None):
    """Equal outcomes; the statistic bit for bit, or within `rel` if one is given."""
    assert len(batch) == len(single)
    for a, b in zip(batch, single):
        if isinstance(b, Exception):
            assert type(a) is type(b) and str(a) == str(b)
            continue
        if rel is None:
            assert a.statistic == b.statistic
        else:
            assert a.statistic == pytest.approx(b.statistic, rel=rel, abs=0.0)
        assert a.d_hat == b.d_hat
        assert (a.ridge_flagged, a.accept, a.df, a.critical_value, a.variant, a.bandwidth) == (
            b.ridge_flagged, b.accept, b.df, b.critical_value, b.variant, b.bandwidth)


def per_point(fn, thetas, sys_):
    out = []
    for theta in thetas:
        try:
            out.append(fn(theta, sys_))
        except Exception as exc:
            out.append(exc)
    return out


class TestBatchOfOne:
    @pytest.mark.parametrize("statistic", sorted(STATISTICS))
    @pytest.mark.parametrize("case", ["IAC", "SEMI 0", "SEMI 0.9"])
    def test_batch_matches_batch_of_one(self, systems, statistic, case):
        sys_, thetas = lattice(systems, case)
        batch, single = STATISTICS[statistic]
        assert_same(batch(thetas, sys_), per_point(single, thetas, sys_))

    @pytest.mark.parametrize("n", [BATCH_CHUNK + 1, 2 * BATCH_CHUNK + 1])
    def test_across_chunk_boundaries(self, systems, n):
        # 65 and 129 points: a full chunk plus one, two plus one
        thetas = semi_points(0.0)[:n]
        for batch, single in STATISTICS.values():
            assert_same(batch(thetas, systems["SEMI"]), per_point(single, thetas, systems["SEMI"]))

    def test_failed_point_leaves_the_others(self, systems):
        thetas = semi_points(0.9)[:70]
        bad = thetas[:5] + ["not a parameter point"] + thetas[5:]
        for batch, _ in STATISTICS.values():
            clean, mixed = batch(thetas, systems["SEMI"]), batch(bad, systems["SEMI"])
            assert isinstance(mixed[5], AttributeError)
            assert_same(mixed[:5] + mixed[6:], clean)


class TestMonteCarloSystems:
    """Fresh MA(2) null systems at T = 200 with two Bartlett lags, drawn as the
    benchmark's size loops draw them, where every per-point call is a batch of
    one on a new system."""

    @pytest.mark.parametrize("statistic, stream", [("S", 1), ("qll", 2)])
    def test_batch_matches_batch_of_one(self, statistic, stream):
        cfg = HACConfig(bandwidth=2)
        thetas = [np.array([b]) for b in np.linspace(-1.0, 3.0, BATCH_CHUNK)]
        batch, single = STATISTICS[statistic]
        for rep in range(20):
            sys_ = ma2_null_system([stream, rep])
            assert_same(batch(thetas, sys_, cfg),
                        per_point(lambda theta, s: single(theta, s, cfg), thetas, sys_))


class TestRoutes:
    """A batch of at most FLOAT_ROWS rows minimises with its control flow on
    floats, a 64-row chunk on arrays: the lattices above compare the two."""

    def test_batch_of_one_takes_the_float_route(self, systems, monkeypatch):
        calls = {"_bracket_floats": 0, "_polish_floats": 0}

        def spy(name):
            fn = getattr(inference, name)

            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted

        for name in calls:
            monkeypatch.setattr(inference, name, spy(name))
        sys_, thetas = lattice(systems, "SEMI 0")
        s_statistic(thetas[0], sys_)
        assert calls == {"_bracket_floats": 1, "_polish_floats": 1}
        s_statistics(thetas[:BATCH_CHUNK], sys_)
        assert calls == {"_bracket_floats": 1, "_polish_floats": 1}

    def test_both_routes_choose_alike(self):
        # the lowest finite q; a tie goes to the first of ends-then-roots, and
        # a row with no finite q keeps t0
        t = np.linspace(-1.0, 1.0, 65) + np.arange(5.0)[:, None]
        t0 = np.arange(5.0) + 0.25
        q_ends = np.array([[1.0, 1.0], [2.0, np.nan], [np.inf, -np.inf], [3.0, 2.0],
                           [np.nan, np.nan]])
        rows, roots, q = [0, 1, 1, 3, 3], [0.1, 1.2, 1.3, 3.4, 3.5], [1.0, 1.0, 0.5, 2.0, 2.0]
        expected = [t[0, 0], 1.3, t0[2], t[3, -1], t0[4]]
        stacked = inference._best(t0, t, q_ends, np.array(rows), np.array(roots), np.array(q))
        assert stacked.tolist() == expected
        for i in range(len(t)):
            mine = [j for j, row in enumerate(rows) if row == i]
            alone = inference._best(t0[i:i + 1], t[i:i + 1], q_ends[i:i + 1], [0] * len(mine),
                                    [roots[j] for j in mine], [q[j] for j in mine])
            assert alone.tolist() == [expected[i]]


class TestSplitReference:
    """The split-sample batch against the earlier per-point path.

    The batch fits Y on the first subsample once and applies each point's
    Jacobian after, where the reference fits Y J per point: the two agree to
    rounding, not bit for bit.
    """

    @pytest.mark.parametrize("case", ["IAC", "SEMI 0", "SEMI 0.9"])
    def test_lattice_matches_reference(self, systems, case):
        sys_, thetas = lattice(systems, case)
        assert_same(split_sample_s_statistics(thetas, sys_),
                    per_point(split_reference.split_sample_s_statistic, thetas, sys_), rel=1e-7)

    def test_weak_iv_systems_match_reference(self):
        thetas = [-1.0, 0.0, 0.5, 1.0, 1.5, 3.0]
        for seed in range(50):
            sys_ = weak_iv_system(7000 + seed)
            assert_same(split_sample_s_statistics(thetas, sys_),
                        per_point(split_reference.split_sample_s_statistic, thetas, sys_), rel=1e-7)


def write_config(tmp_path, statistic, extra_points, name="run.ini", model="IAC",
                 points="3, 4, 3"):
    path = tmp_path / name
    model = model.split()
    fixed = f"rho = {model[1]}\n" if len(model) > 1 else ""
    path.write_text(
        "[data]\nsnapshot = true\n"
        f"[model]\nkind = {model[0]}\n{fixed}"
        f"[inference]\nstatistic = {statistic}\n"
        f"[grid]\npoints = {points}\nextra_points = {extra_points}\n"
    )
    return str(path)


#: Per case: its default grid, point counts, extra points (the last one out
#: of the box, an error row) and the params of a lattice point.
GRID_CASES = {
    "IAC": (default_structural_grid, (3, 4, 3),
            ((0.3, 5.0, 1.0), (0.6, 2.48, 0.01), (0.5, -1.0, 1.0)),
            lambda p: StructuralParams(*p)),
    "SEMI 0": (default_semi_grid, (4, 5), ((0.1, 0.2), (1e308, 1e308)),
               lambda p: SemiStructuralParams(0.0, *p)),
    "SEMI 0.9": (default_semi_grid, (4, 5), ((0.1, 0.2), (1e308, 1e308)),
                 lambda p: SemiStructuralParams(0.9, *p)),
    "CAC": (default_cac_grid, (3, 4, 3), ((0.3, 5.0, 1.0), (0.5, 0.0, 1.0)),
            lambda p: CACParams(*p)),
}


def assert_grid_equals_per_point_inversion(tmp_path, systems, statistic, case):
    """`eulergmm grid` on a case's lattice writes grid.csv and grid.json byte for
    byte as `invert_test` with the test's per-point function does."""
    default, counts, extra, params = GRID_CASES[case]
    cfg = write_config(tmp_path, statistic, "; ".join(",".join(map(repr, p)) for p in extra),
                       model=case, points=", ".join(map(str, counts)))
    assert main(["grid", "--config", cfg, "--out", str(tmp_path / "batch")]) == 0
    spec = GridSpec(axes=tuple(replace(a, points=n) for a, n in zip(default().axes, counts)),
                    extra_points=extra)
    single = STATISTICS[statistic][1]
    metadata = json.loads((tmp_path / "batch" / "grid.json").read_text())["metadata"]
    grid = invert_test(lambda p: single(params(p), systems[case.split()[0]]), spec, 0.90, metadata)
    export_grid(grid, tmp_path / "per_point")
    batch_rows = (tmp_path / "batch" / "grid.csv").read_text().splitlines()
    assert len(batch_rows) == int(np.prod(counts)) + len(extra) + 1
    assert batch_rows[-1].split(",")[-1] == "1"  # the out-of-box point is an error row
    for name in ("grid.csv", "grid.json"):
        assert (tmp_path / "batch" / name).read_bytes() == \
            (tmp_path / f"per_point{name[4:]}").read_bytes()


class TestLatticeColumns:
    """`lattice_columns` maps a lattice's parameter columns in one call; each row's
    outcome, errors and their text included, equals its point's through the
    per-point front."""

    @pytest.mark.parametrize("statistic", sorted(STATISTICS))
    @pytest.mark.parametrize("case", ["IAC", "SEMI 0.9", "CAC"])
    def test_rows_equal_the_per_point_front(self, systems, statistic, case):
        default, counts, extra, params = GRID_CASES[case]
        model, *rho = case.split()
        odd = {"IAC": [(np.nan, 2.0, 1.0), (0.5, 1e-320, 1.0), (0.5, 1e-156, 1.0)],
               "SEMI": [(np.nan, 1.0), (np.inf, 1.0)],
               "CAC": [(0.5, -2.0, 1.0), (0.5, 1e-320, 1.0), (0.5, 5e-324, 1.0)]}[model]
        spec = GridSpec(axes=tuple(replace(a, points=n) for a, n in zip(default().axes, counts)))
        points = np.vstack([make_grid(spec), extra, odd])
        fixed = {"rho": float(rho[0])} if rho else None
        cols = inference.lattice_columns(statistic, model, points, systems[model], fixed)
        each = []
        for p in points.tolist():  # Python floats, as a parsed point holds them
            try:
                each.append(params(p))
            except ValueError as exc:  # the rule's error, before any statistic
                each.append(exc)
        thetas = [p for p in each if not isinstance(p, Exception)]
        outcomes = iter(STATISTICS[statistic][0](thetas, systems[model]))
        expected = [p if isinstance(p, Exception) else next(outcomes) for p in each]
        for i, r in enumerate(expected):
            # where a float's arithmetic raises (CAC's sigma * delta underflows
            # to 0 at sigma = 5e-324; IAC's kappa^2 at kappa = 1e-320, in the
            # Jacobian), the point's coefficients are NaN and a column's inf or
            # NaN: both the ValueError of a map that is not finite
            if isinstance(r, Exception) and str(r) != str(cols.errors.get(i)):
                assert points[i][1] in (5e-324, 1e-320)
                assert re.fullmatch(rf"coefficients of {re.escape(repr(each[i]))} are not "
                                    r"finite: \[nan(, nan)*\]", str(r))
                assert re.fullmatch(rf"(coefficients|Jacobian entries) of "
                                    rf"{re.escape(repr(each[i]))} are not finite: .*",
                                    str(cols.errors[i]))
                expected[i] = cols.errors[i]
        assert_same(cols.results(), expected)
        assert sorted(cols.errors) == [i for i, r in enumerate(expected)
                                       if isinstance(r, Exception)]


    def test_columns_of_outcomes_give_them_back(self):
        # Columns without bandwidth, d_hat or ridge flags give their
        # TestResults and errors
        ok = inference.TestResult(statistic=1.0, df=2, critical_value=3.0, level=0.9, accept=True)
        cols = inference.Columns(variant="S", stat=np.array([1.0, np.nan]), df=2,
                                 crit=3.0, level=0.9, bandwidth=None,
                                 errors={1: ValueError("x")}, d_hat=None,
                                 flagged=np.zeros(2, bool))
        assert_same(cols.results(), [ok, ValueError("x")])


    @pytest.mark.parametrize("statistic", sorted(STATISTICS))
    @pytest.mark.parametrize("model, point", [("CAC", (0.5, 1e-320, 1.0)),
                                              ("IAC", (0.5, 1e-10, 1e308))])
    def test_numpy_scalar_point_is_the_float_error_row(self, systems, statistic, model, point):
        # invert_test hands its evaluator rows of the lattice array: a point of
        # numpy scalars whose map overflows is, as the same point in Python
        # floats, a map that is not finite, not numpy's warning; raised as an
        # error, the warning leaves its coefficients NaN
        params = {"CAC": CACParams, "IAC": StructuralParams}[model]
        floats, scalars = params(*point), params(*np.array(point))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (expected,), (got,) = (STATISTICS[statistic][0]([p], systems[model])
                                   for p in (floats, scalars))
        assert type(got) is type(expected) is ValueError
        assert str(expected).startswith(f"coefficients of {floats!r} are not finite: ")
        width = systems[model].Y.shape[1]
        assert str(got) == f"coefficients of {scalars!r} are not finite: {[np.nan] * width}"


class TestCliGrid:
    @pytest.mark.parametrize("statistic", sorted(STATISTICS))
    def test_grid_equals_per_point_inversion(self, tmp_path, systems, statistic):
        assert_grid_equals_per_point_inversion(tmp_path, systems, statistic, "IAC")

    @pytest.mark.parametrize("statistic", sorted(STATISTICS))
    @pytest.mark.parametrize("case", ["SEMI 0", "SEMI 0.9", "CAC"])
    def test_model_grid_equals_per_point_inversion(self, tmp_path, systems, statistic, case):
        assert_grid_equals_per_point_inversion(tmp_path, systems, statistic, case)

    @pytest.mark.parametrize("statistic", sorted(STATISTICS))
    def test_grid_builds_no_object_per_point(self, tmp_path, monkeypatch, statistic):
        # no params dataclass, per-point coefficient front or TestResult: the
        # lattice is columns from make_grid to export_grid. `estimate`, a
        # lattice of one that returns its TestResult, shows the spies work.
        made = []
        for cls in (inference.TestResult, StructuralParams):
            def counted(self, *args, cls=cls, init=cls.__init__, **kwargs):
                made.append(cls.__name__)
                init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counted)
        front = inference._coefficients
        monkeypatch.setattr(inference, "_coefficients",
                            lambda *args, **kwargs: made.append("_coefficients")
                            or front(*args, **kwargs))
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[data]\nsnapshot = true\n[inference]\nstatistic = {statistic}\n"
                       "theta0 = 0.3, 5.0, 1.0\n[grid]\npoints = 3, 4, 3\n"
                       "extra_points = 0.5, -1, 1\n")
        assert main(["grid", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert made == []
        assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert made == ["TestResult"]

    @pytest.mark.parametrize("point", [(1e200, 1.0), (1e308, 1e308)])
    def test_split_overflow_is_an_error_row(self, systems, point):
        # a finite coefficient row whose split-sample products overflow: an
        # error row, as S and qLL-S give it, with no warning and no effect on
        # the other rows
        good = SemiStructuralParams(0.5, 1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            huge, right = split_sample_s_statistics(
                [SemiStructuralParams(0.5, *point), good], systems["SEMI"])
            for single in (s_statistic, qll_s_statistic):
                with pytest.raises(inference.SingularCovarianceError):
                    single(SemiStructuralParams(0.5, *point), systems["SEMI"])
        assert isinstance(huge, inference.SingularCovarianceError)
        assert_same([right], [split_sample_s_statistic(good, systems["SEMI"])])

    @pytest.mark.parametrize("statistic", sorted(STATISTICS))
    def test_grid_is_labelled_by_its_results(self, tmp_path, systems, statistic):
        # `grid` and invert_test label the set as `estimate` labels its result
        cfg = tmp_path / "run.ini"
        cfg.write_text("[data]\nsnapshot = true\n[grid]\npoints = 2, 2, 2\n"
                       f"[inference]\nstatistic = {statistic}\ntheta0 = 0.3, 5.0, 1.0\n")
        for command in ("grid", "estimate"):
            assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 0
        label = json.loads((tmp_path / "test_result.json").read_text())["result"]["variant"]
        assert label == {"S": "S", "qll": "qLL-S(sup-split)", "split": "split-S"}[statistic]
        assert json.loads((tmp_path / "grid.json").read_text())["variant"] == label
        single = STATISTICS[statistic][1]
        grid = invert_test(lambda p: single(StructuralParams(*p), systems["IAC"]),
                           box(default_structural_grid(), 2), 0.90)
        export_grid(grid, tmp_path / "per_point")
        assert json.loads((tmp_path / "per_point.json").read_text())["variant"] == label

    def test_invalid_point_is_an_error_row(self, tmp_path):
        good = "0.3,5.0,1.0"
        assert main(["grid", "--config", write_config(tmp_path, "S", good, "a.ini"),
                     "--out", str(tmp_path / "a")]) == 0
        assert main(["grid", "--config", write_config(tmp_path, "S", f"{good}; 0.5,-1,1", "b.ini"),
                     "--out", str(tmp_path / "b")]) == 0
        rows_a = (tmp_path / "a" / "grid.csv").read_text().splitlines()
        rows_b = (tmp_path / "b" / "grid.csv").read_text().splitlines()
        assert rows_b[:-1] == rows_a
        assert rows_b[-1] == "0.5,-1,1,nan,0,nan,0,1"
        summary = json.loads((tmp_path / "b" / "grid.json").read_text())["summary"]
        assert summary["error_points"] == 1
