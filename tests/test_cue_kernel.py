"""Oracle gate of the CUE kernel against the per-point reference path.

`cue_reference` holds the earlier per-point minimisation (HAC rebuilt at every
trial d, bounded Brent) and a dense-scan global search; the kernel path must
agree with both on the paper's designs.
"""

import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

import cue_reference as ref
import spd_reference
from eulergmm import inference
from eulergmm.design import BASELINE_INSTRUMENTS, MomentSystem, build_design
from eulergmm.grids import (
    AxisSpec,
    GridSpec,
    default_semi_grid,
    default_structural_grid,
    make_grid,
)
from eulergmm.hac import HACConfig, hac_variance
from eulergmm.inference import (
    BATCH_CHUNK,
    CUE_SCAN_POINTS,
    CUERows,
    NEWTON_XTOL,
    QLL_BREAK_FRACTIONS,
    _minimize_rows,
    _newton_terms,
    _newton_work,
    cue_kernel,
    cue_objective,
    minimize_cue,
    qll_s_statistic,
    s_statistic,
    s_statistics,
)
from eulergmm.models import (
    SemiStructuralParams,
    StructuralParams,
    constants_from_calibration,
    iac_coefficients,
    semi_coefficients,
)
from eulergmm.pipeline import TransformSpec
from eulergmm.quantiles import chi2_quantile
from eulergmm.snapshot import transform_snapshot
from test_acceptance import ma2_null_system

C = constants_from_calibration(0.99, 0.025)
CFG = HACConfig()


@pytest.fixture(scope="module")
def systems():
    data = transform_snapshot(TransformSpec())
    return {m: build_design(data, m, BASELINE_INSTRUMENTS) for m in ("IAC", "SEMI")}


def semi_box(points):
    return GridSpec(axes=tuple(
        AxisSpec(a.name, a.lower, a.upper, points, a.include_lower, a.include_upper)
        for a in default_semi_grid().axes
    ))


def residual_scan(sys_, b):
    """(center, half width) of the dense scan: the residual's mean +- 5 sd."""
    e = sys_.Y @ b
    return float(e.mean()), 5.0 * float(e.std())


class TestKernelCovariance:
    @pytest.mark.parametrize("bandwidth", [0, "auto"])
    def test_matches_direct_hac(self, systems, bandwidth):
        cfg = HACConfig(bandwidth=bandwidth)
        sys_ = systems["IAC"]
        kern = cue_kernel(sys_, cfg)
        rng = np.random.default_rng(3)
        for _ in range(25):
            b, d, t = rng.normal(size=8), 3.0 * rng.normal(), rng.normal()
            g, V = ref.direct_moments(sys_, b, d + t, cfg)
            g0, g1, V0, V1, V2 = (f[0] for f in kern.forms(b, d))
            scale = np.abs(V).max()
            assert np.abs(V0 + t * V1 + t * t * V2 - V).max() <= 1e-12 * scale
            assert np.abs(g0 + t * g1 - g).max() <= 1e-12 * np.abs(g).max()

    def test_cached_per_bandwidth(self, systems):
        sys_ = systems["IAC"]
        assert cue_kernel(sys_, HACConfig()) is cue_kernel(sys_, HACConfig(bandwidth=4))
        assert cue_kernel(sys_, HACConfig(bandwidth=0)) is not cue_kernel(sys_, HACConfig())


class TestPrecomputed:
    """A system's rows and kernels are made once, held by its identity, and
    dropped with it."""

    def test_second_call_returns_the_same_objects(self):
        sys_, cfg = ma2_null_system(3), HACConfig(bandwidth=2)
        kern = cue_kernel(sys_, cfg)
        assert cue_kernel(sys_, cfg) is kern
        qll_s_statistic(np.array([1.0]), sys_, cfg)
        own = inference._PRECOMPUTED[sys_]
        sides = tuple((s.start, s.stop, 2) for s in breakpoint_samples(sys_))
        assert set(own) == {CUERows, ((0, sys_.T, 2),), sides, ("qLL", cfg)}
        assert own[("qLL", cfg)] is own[sides] and own[sides].rows is kern.rows is own[CUERows]
        values = list(own.values())
        qll_s_statistic(np.array([1.0]), sys_, cfg)
        assert inference._PRECOMPUTED[sys_] is own and list(own.values()) == values
        # a copy is another system, with precomputes of its own
        assert cue_kernel(dataclasses.replace(sys_), cfg) is not kern

    def test_entry_dies_with_its_system(self):
        gc.collect()
        before = len(inference._PRECOMPUTED)
        sys_ = ma2_null_system(4)
        qll_s_statistic(np.array([1.0]), sys_, HACConfig(bandwidth=2))
        assert len(inference._PRECOMPUTED) == before + 1
        alive = weakref.ref(sys_)
        del sys_
        gc.collect()
        assert alive() is None and len(inference._PRECOMPUTED) == before


def breakpoint_samples(sys_):
    """Both sides of every qLL-S breakpoint, as `qll_b_component` lays them out."""
    T = sys_.T
    taus = [int(round(frac * T)) for frac in QLL_BREAK_FRACTIONS]
    return tuple(part for tau in taus if sys_.k_z < tau < T - sys_.k_z
                 for part in (slice(0, tau), slice(tau, T)))


def row_slice(sys_, rows):
    return MomentSystem(Y=sys_.Y[rows], X=sys_.X[rows], Z=sys_.Z[rows], coeff=sys_.coeff,
                        jacobian=None, y_labels=sys_.y_labels, z_labels=sys_.z_labels)


class TestBreakpointKernel:
    """The breakpoint samples' HACs come from one stacked product over
    zero-padded slabs; each must equal the HAC of its own row slice."""

    @pytest.mark.parametrize("bandwidth", [0, 2, "auto"])
    @pytest.mark.parametrize("model", ["IAC", "MA(2)"])
    def test_every_slice_matches_direct_moments(self, systems, model, bandwidth):
        sys_ = systems["IAC"] if model == "IAC" else ma2_null_system(5)
        cfg = HACConfig(bandwidth=bandwidth)
        samples = breakpoint_samples(sys_)
        assert len(samples) == 14
        # auto resolves 3 lags on the short slices and 4 on the long ones,
        # so the slabs go through two stacked products
        lags = {cfg.resolve_bandwidth(s.stop - s.start) for s in samples}
        assert lags == ({3, 4} if bandwidth == "auto" else {bandwidth})
        kern = cue_kernel(sys_, cfg, samples)
        parts = [row_slice(sys_, s) for s in samples]
        m = sys_.Y.shape[1]
        rng = np.random.default_rng(7)
        for _ in range(5):
            b, d, t = rng.normal(size=m), 3.0 * rng.normal(), rng.normal()
            g0, g1, V0, V1, V2 = kern.forms(b, d)
            for i, part in enumerate(parts):
                g, V = ref.direct_moments(part, b, d + t, cfg)
                scale = np.abs(V).max()
                assert np.abs(V0[i] + t * V1[i] + t * t * V2[i] - V).max() <= 1e-12 * scale
                assert np.abs(g0[i] + t * g1[i] - g).max() <= 1e-12 * np.abs(g).max()

    def test_slice_shorter_than_bandwidth(self):
        # T = 30 puts the first breakpoint at 6 rows: 10 lags do not fit, and
        # the error is the one hac_variance gives for those 6 rows
        sys_ = ma2_null_system(1, T=30)
        cfg = HACConfig(bandwidth=10)
        with pytest.raises(ValueError) as direct:
            hac_variance(np.zeros((6, 2)), cfg)
        with pytest.raises(ValueError) as kernel:
            qll_s_statistic(np.array([1.0]), sys_, cfg)
        assert str(kernel.value) == str(direct.value) == "bandwidth 10 must be < T=6"


class TestOldBuildOracle:
    """The per-slice build of `cue_reference.build_kernel` is the oracle of the
    stacked build, on the Monte Carlo size design: fresh T = 200 MA(2) systems."""

    def test_whole_sample_kernel_bits(self, systems):
        # the whole sample's slab is its demeaned rows, scaled by exactly 1
        for sys_ in [ma2_null_system([2, rep]) for rep in range(20)] + list(systems.values()):
            for cfg in (HACConfig(bandwidth=2), HACConfig()):
                new = cue_kernel(sys_, cfg)
                old = ref.build_kernel(sys_, cfg, (slice(0, sys_.T),))
                for name in ("R", "G", "H"):
                    a, b = getattr(new, name), getattr(old, name)
                    assert np.array_equal(a, b) and a.strides == b.strides, name
                assert np.array_equal(new.seed, old.seed)

    @staticmethod
    def outcomes(sys_, cfg):
        """(fast, slow): each a (statistic, accept, ridge, d_hat) or an error's (type, text)."""
        out = []
        for evaluate in (qll_s_statistic, ref.qll_s_statistic):
            try:
                r = evaluate(np.array([1.0]), dataclasses.replace(sys_), cfg, 0.90)
                out.append((r.statistic, r.accept, r.ridge_flagged, r.d_hat))
            except ValueError as exc:
                out.append((type(exc), str(exc)))
        return out

    def assert_same(self, fast, slow):
        if len(fast) == len(slow) == 4:
            assert fast[0] == pytest.approx(slow[0], rel=1e-12, abs=0)
            assert fast[1:] == slow[1:]
        else:
            assert fast == slow

    def test_qll_matches_old_build(self):
        for rep in range(200):
            self.assert_same(*self.outcomes(ma2_null_system([2, rep]), HACConfig(bandwidth=2)))

    def test_ridge_flags_match_old_build(self):
        # a repeated instrument makes every covariance singular: the ridge is
        # applied and flagged on both builds
        for rep in range(5):
            sys_ = ma2_null_system([2, rep])
            sys_ = dataclasses.replace(sys_, Z=np.column_stack([sys_.Z, sys_.Z[:, 1]]),
                                       z_labels=sys_.z_labels + ["z0 again"])
            fast, slow = self.outcomes(sys_, HACConfig(bandwidth=2))
            assert fast[2] is True
            self.assert_same(fast, slow)


def repeated_instrument_system():
    """The system of `test_ridge_flag_at_singular_covariance`: T = 120 rows
    whose last instrument repeats the first excluded one."""
    rng = np.random.default_rng(0)
    T = 120
    z = rng.normal(size=(T, 2))
    return MomentSystem(
        Y=(0.7 + rng.normal(size=T))[:, None], X=np.ones((T, 1)),
        Z=np.column_stack([np.ones(T), z, z[:, 0]]),
        coeff=lambda th: np.asarray(th, float), jacobian=None,
        y_labels=["y"], z_labels=["const", "z1", "z2", "z1 again"],
    )


def sampled_points():
    rng = np.random.default_rng(11)
    iac = make_grid(default_structural_grid())
    semi = make_grid(default_semi_grid())
    out = [("IAC", iac_coefficients(StructuralParams(*p), C)) for p in
           iac[rng.choice(len(iac), 40, replace=False)]]
    for rho in (0.0, 0.9):
        out += [("SEMI", semi_coefficients(SemiStructuralParams(rho, *p), C)) for p in
                semi[rng.choice(len(semi), 30, replace=False)]]
    return out


class TestAgainstReference:
    def test_never_above_reference(self, systems):
        for model, b in sampled_points():
            sys_ = systems[model]
            fast, _, _ = minimize_cue(sys_, b, CFG)
            slow, d_slow, _ = ref.minimize_cue(sys_, b, CFG)
            # both minimisers judged by one evaluator: the two evaluators'
            # rounding differs by up to ~2e-9 relative where V is ill-conditioned
            assert fast <= cue_objective(sys_, b, d_slow, CFG)[0] * (1 + 1e-9)
            if fast < slow * (1 - 1e-7):
                # the reference stopped in a higher local minimum: a dense scan
                # must find the lower value as well
                dense, _ = ref.dense_minimum(sys_, b, CFG, *residual_scan(sys_, b))
                assert fast == pytest.approx(dense, rel=1e-7)
            else:
                assert fast == pytest.approx(slow, rel=1e-7)

    def test_local_minimum_regression(self, systems):
        # point 171 of the 20 x 20 SEMI box at rho = 0: two minima in the
        # bracket, and the bounded Brent search stops at the higher one
        sys_ = systems["SEMI"]
        point = make_grid(semi_box(20))[171]
        assert point == pytest.approx([80 / 19, 220 / 19], rel=1e-12)
        b = semi_coefficients(SemiStructuralParams(0.0, *point), C)
        r = s_statistic(SemiStructuralParams(0.0, *point), sys_)
        assert r.statistic == pytest.approx(30.4562, abs=5e-5)
        assert ref.minimize_cue(sys_, b, CFG)[0] == pytest.approx(30.6507, abs=5e-5)
        dense, d_dense = ref.dense_minimum(sys_, b, CFG, *residual_scan(sys_, b))
        assert r.statistic == pytest.approx(dense, rel=1e-9)
        assert r.d_hat == pytest.approx(d_dense, rel=1e-9)

    def test_qll_matches_dense_reference(self, systems):
        # d_hat is found as a root of the slope, so B, taken at d_hat, is
        # exact; bounded Brent left it ~1e-8 |d| off and B 1e-6 off
        sys_ = systems["SEMI"]
        pts = make_grid(semi_box(20))
        for i in np.round(np.linspace(0, len(pts) - 1, 8)).astype(int):
            theta = SemiStructuralParams(0.0, *pts[i])
            b = semi_coefficients(theta, C)
            s, d = ref.dense_minimum(sys_, b, CFG, *residual_scan(sys_, b))
            expected = ref.qll_s(sys_, b, CFG, d, s)
            assert qll_s_statistic(theta, sys_).statistic == pytest.approx(expected, rel=1e-7)

    def test_ridge_flag_at_singular_covariance(self):
        # a repeated instrument makes V singular at every d: the ridge is
        # applied and flagged at d_hat, as on the reference path
        rng = np.random.default_rng(0)
        T = 120
        z = rng.normal(size=(T, 2))
        sys_ = MomentSystem(
            Y=(0.7 + rng.normal(size=T))[:, None], X=np.ones((T, 1)),
            Z=np.column_stack([np.ones(T), z, z[:, 0]]),
            coeff=lambda th: np.asarray(th, float), jacobian=None,
            y_labels=["y"], z_labels=["const", "z1", "z2", "z1 again"],
        )
        cfg = HACConfig(bandwidth=2)
        stat, _, flagged = minimize_cue(sys_, np.array([1.0]), cfg)
        ref_stat, _, ref_flagged = ref.minimize_cue(sys_, np.array([1.0]), cfg)
        assert flagged and ref_flagged
        assert stat == pytest.approx(ref_stat, rel=1e-7)

    def test_ridge_flagged_by_conditioning(self):
        # V at d_hat is singular in exact arithmetic at every point, whether
        # or not its Cholesky happens to succeed in floating point
        results = s_statistics([np.array([b]) for b in np.linspace(-2.0, 2.0, 70)],
                               repeated_instrument_system(), HACConfig(bandwidth=2))
        assert [getattr(r, "ridge_flagged", r) for r in results] == [True] * 70

    def test_ridge_step_is_stacked(self, monkeypatch):
        # the 70 flagged points of `test_ridge_flagged_by_conditioning` make
        # no more single-matrix LAPACK calls (np.linalg's, or its gufuncs on
        # one matrix) than one of them: the ridge is one step over the stack
        calls = {"n": 0}

        def counted(gufunc):
            def call(a, *args, **kwargs):
                calls["n"] += np.ndim(a) == 2
                return gufunc(a, *args, **kwargs)
            return call

        for name in ("cholesky_lo", "solve", "solve1"):
            monkeypatch.setattr(_umath_linalg, name, counted(getattr(_umath_linalg, name)))
        counts = []
        for points in (np.linspace(-2.0, 2.0, 70)[:1], np.linspace(-2.0, 2.0, 70)):
            calls["n"] = 0
            results = s_statistics([np.array([b]) for b in points],
                                   repeated_instrument_system(), HACConfig(bandwidth=2))
            assert all(r.ridge_flagged for r in results)
            counts.append(calls["n"])
        assert counts[1] <= counts[0]


class TestStackedRidge:
    """`_solve_spd_rows` on a stack that mixes well-conditioned,
    ill-conditioned, exactly singular, zero and indefinite matrices gives, row
    by row, the bits of the per-matrix reference solve (`spd_reference`), and
    a Newton step solves by its rule."""

    @staticmethod
    def stack():
        rng = np.random.default_rng(5)
        out = []
        for _ in range(3):
            A = rng.normal(size=(4, 4))
            well = A @ A.T + np.eye(4)
            # smallest squared pivot 1e-14: Cholesky and LU succeed, below the ridge
            L = np.tril(rng.normal(size=(4, 4)), -1) + np.diag([1.0, 1.5, 2.0, 1e-7])
            ill = L @ L.T
            # the last row and column repeat the first: LU fails, the ridge holds
            rep = well.copy()
            rep[3], rep[:, 3] = rep[0], rep[:, 0]
            rep[3, 3] = rep[0, 0]
            # Cholesky fails with and without the ridge on both; LU solves
            # the indefinite one and fails on zero
            out += [well, ill, rep, np.zeros((4, 4)), np.diag([2.0, 1.0, 1.0, -1.0])]
        order = rng.permutation(len(out))
        return np.array(out)[order], rng.normal(size=(len(out), 4, 2))

    def test_solve_spd_rows(self):
        V, rhs = self.stack()
        x, flagged, singular = inference._solve_spd_rows(V, rhs)
        for i in range(len(V)):
            try:
                ref_x, ref_flagged = spd_reference.solve_spd(V[i], rhs[i], context="")
            except inference.SingularCovarianceError:
                ref_x, ref_flagged = np.full(rhs[i].shape, np.nan), True
            assert singular[i] == np.isnan(ref_x).all()
            assert flagged[i] == ref_flagged
            assert np.array_equal(x[i], ref_x, equal_nan=True)
        # each kind of V is in the stack: plain, ridged, and singular past the ridge
        assert set(zip(flagged.tolist(), singular.tolist())) == \
            {(False, False), (True, False), (True, True)}

    def test_newton_step_takes_the_ridge(self):
        # V(r) = V0 (V1 = V2 = 0, g1 = 0), so q = g0'x. Each V0 has a smallest
        # squared Cholesky pivot of 1e-14, below the floor: a Newton step
        # solves it ridged, as `_solve_spd_rows` does, where plain LU's q is
        # many times larger
        rng = np.random.default_rng(3)
        m, k = 6, 4
        L = np.tril(rng.normal(size=(m, k, k)), -1) + np.diag([1.0, 1.5, 2.0, 1e-7])
        V0, g0 = L @ L.swapaxes(-1, -2), rng.normal(size=(m, k))
        x, flagged, singular = inference._solve_spd_rows(V0, g0[..., None])
        assert flagged.all() and not singular.any()
        q = _newton_terms(g0, V0, np.zeros_like(V0), np.zeros((k, k)), np.zeros(m),
                          _newton_work(np.zeros(k), np.zeros((k, k)), m))[0]
        assert q == pytest.approx((g0 * x[..., 0]).sum(axis=-1), rel=1e-12)
        lu = (g0 * np.linalg.solve(V0, g0[..., None])[..., 0]).sum(axis=-1)
        assert np.all(lu > 10.0 * q)


def lattice_rows(systems, case):
    """(system, coefficient rows) of the 20 x 20 SEMI box at a rho, or the 8 x 8 x 8 IAC box."""
    if case == "IAC":
        box = GridSpec(axes=tuple(
            AxisSpec(a.name, a.lower, a.upper, 8, a.include_lower, a.include_upper)
            for a in default_structural_grid().axes
        ))
        sys_, thetas = systems["IAC"], [StructuralParams(*p) for p in make_grid(box)]
    else:
        rho = float(case.split()[1])
        sys_ = systems["SEMI"]
        thetas = [SemiStructuralParams(rho, *p) for p in make_grid(semi_box(20))]
    return sys_, np.array([sys_.coeff(theta) for theta in thetas])


class TestStepStopOracle:
    """`cue_reference.minimize_rows`, the earlier minimiser that stopped each
    root on its step size and ranked the roots by q at their last iterate, is
    the oracle of the stop on Newton's predicted error."""

    @staticmethod
    def assert_close(sys_, kern, B):
        crit = chi2_quantile(sys_.df, 0.90)
        for lo in range(0, len(B), BATCH_CHUNK):
            part = B[lo:lo + BATCH_CHUNK]
            stat, d_hat, flagged, errors = _minimize_rows(kern, part, sys_.T)
            ref_stat, ref_d, ref_flagged, ref_errors, se = ref.minimize_rows(kern, part, sys_.T)
            assert [e and (type(e), str(e)) for e in errors] == \
                [e and (type(e), str(e)) for e in ref_errors]
            assert np.array_equal(flagged, ref_flagged)
            ok = np.array([e is None for e in errors])
            # twice the polish's tolerance, plus the slope's rounding noise:
            # at SEMI rho = 0 (d near -20, se near 0.008) it alone moves a
            # root by several NEWTON_XTOL se
            tol = 2.0 * NEWTON_XTOL * se + 1e-12 * np.abs(ref_d)
            assert np.all(np.abs(d_hat - ref_d)[ok] <= tol[ok])
            assert np.all(np.abs(stat - ref_stat)[ok] <= 1e-9 * np.abs(ref_stat)[ok])
            assert np.array_equal(stat[ok] <= crit, ref_stat[ok] <= crit)

    @pytest.mark.parametrize("case", ["SEMI 0", "SEMI 0.9", "IAC"])
    def test_lattices(self, systems, case):
        sys_, B = lattice_rows(systems, case)
        self.assert_close(sys_, cue_kernel(sys_, CFG), B)

    def test_ma2_systems(self):
        cfg = HACConfig(bandwidth=2)
        for rep in range(600):
            sys_ = ma2_null_system([3, rep])
            self.assert_close(sys_, cue_kernel(sys_, cfg), np.array([[1.0]]))

    def test_third_derivative_matches_central_differences(self, systems):
        # at d_hat of a point with two minima in its bracket
        sys_ = systems["SEMI"]
        theta = SemiStructuralParams(0.0, *make_grid(semi_box(20))[171])
        b, d = sys_.coeff(theta), s_statistic(theta, sys_).d_hat
        g0, g1, V0, V1, V2 = cue_kernel(sys_, CFG).forms(b, d)
        q, dq, d2q, d3q = (float(a[0]) for a in _newton_terms(
            g0, V0, V1, V2[0], np.zeros(1), _newton_work(g1[0], V2[0], 1)))

        def f(t):
            return cue_objective(sys_, b, d + t, CFG)[0] * sys_.T

        h = 1e-2 * math.sqrt(q / d2q)
        assert q == pytest.approx(f(0.0), rel=1e-12)
        # the differences' own errors here: 2.6e-6 and 6.1e-5 relative
        assert d2q == pytest.approx((f(h) - 2.0 * f(0.0) + f(-h)) / h**2, rel=2e-5)
        assert d3q == pytest.approx(
            (f(2 * h) - 2.0 * f(h) + 2.0 * f(-h) - f(-2 * h)) / (2.0 * h**3), rel=5e-4)


def scan_calls(monkeypatch, kern, B, T):
    """The arguments and results of every `_scan` call `_minimize_rows` makes on
    the rows B, BATCH_CHUNK rows or fewer at a time."""
    calls, scan = [], inference._scan

    def spy(*args):
        out = scan(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(inference, "_scan", spy)
    for lo in range(0, len(B), BATCH_CHUNK):
        _minimize_rows(kern, B[lo:lo + BATCH_CHUNK], T)
    monkeypatch.setattr(inference, "_scan", scan)
    return calls


def node_systems(g0, g1, V0, V1, V2, t):
    """(V, g) at every row and node, rows x nodes x ..., as the scan before the
    elimination formed them: one product per row of [1, t, t^2] with [V0; V1; V2]."""
    (n, m), k = t.shape, g0.shape[1]
    powers = np.stack([np.ones_like(t), t, t * t], axis=-1)
    forms = np.stack([V0, V1, np.broadcast_to(V2, V0.shape)], axis=1).reshape(n, 3, -1)
    g_forms = np.stack([g0, np.broadcast_to(g1, g0.shape)], axis=1)
    return (powers @ forms).reshape(n, m, k, k), powers[..., :2] @ g_forms


def slope(x, g1, V1, V2, t):
    """The earlier scan's slope 2 g1'x - x'V1 x - 2 t x'V2 x of x (rows x nodes x k),
    and its size: the same sums over the products' absolute values, which
    bound its rounding error in units of the machine epsilon."""
    def terms(x, g1, V1, V2, t):
        return 2.0 * x @ g1, ((x @ V1) * x).sum(-1), 2.0 * t * ((x @ V2) * x).sum(-1)

    a, b, c = terms(x, g1, V1, V2, t)
    return a - b - c, sum(terms(*(np.abs(v) for v in (x, g1, V1, V2, t))))


class TestScan:
    """`_scan`, the stacked LDL' elimination of every row's and node's [V | g],
    against per-node LAPACK solves, its `_solve_spd_rows` fallback and itself in
    a batch of one."""

    @pytest.mark.parametrize("case", ["IAC", "SEMI 0", "SEMI 0.9"])
    def test_matches_per_node_solve(self, systems, monkeypatch, case):
        # a 64-row IAC chunk, and single SEMI rows (batches of one)
        sys_, B = lattice_rows(systems, case)
        kern = cue_kernel(sys_, CFG)
        if case == "IAC":
            calls = scan_calls(monkeypatch, kern, B[:BATCH_CHUNK], sys_.T)
        else:
            calls = [c for b in B[::40] for c in scan_calls(monkeypatch, kern, b[None], sys_.T)]
        for (g0, g1, V0, V1, V2, t), (x, s, q_ends) in calls:
            V, g = node_systems(g0, g1, V0, V1, V2, t)
            x = x.transpose(1, 2, 0)
            ref = np.linalg.solve(V, g[..., None])[..., 0]
            size = np.abs(ref).max(axis=-1)
            # every node's V has a condition number of 1e6 to 1e7 here: x is
            # within LU's own error bound (cond(V) eps) of LU's x, and its
            # residual is as small as LU's
            assert np.all(np.abs(x - ref).max(axis=-1) <= 1e-15 * np.linalg.cond(V) * size)
            residual = np.abs((V @ x[..., None])[..., 0] - g).max(axis=-1)
            assert np.all(residual <= 1e-15 * np.abs(V).max(axis=(-2, -1)) * size)
            expected, scale = slope(x, g1, V1, V2, t)
            assert np.all(np.abs(s - expected) <= 1e-14 * scale)
            ends = (g * x)[:, ::CUE_SCAN_POINTS - 1].sum(axis=-1)
            assert q_ends == pytest.approx(ends, rel=1e-12, abs=0)

    def test_well_conditioned_nodes(self, monkeypatch):
        # V(t) = V0 + t V1 + t^2 V2 with condition numbers below 100 at every node
        rng = np.random.default_rng(2)
        k, n = 5, BATCH_CHUNK
        A = rng.normal(size=(n, k, k))
        V0 = A @ A.swapaxes(-1, -2) / k + np.eye(k)
        V1 = 0.1 * (A + A.swapaxes(-1, -2))
        V2 = 0.5 * np.eye(k)
        g0, g1 = rng.normal(size=(n, k)), rng.normal(size=k)
        t = rng.uniform(-1.0, 1.0, size=(n, CUE_SCAN_POINTS))
        monkeypatch.setattr(inference, "_solve_spd_rows",
                            lambda *a: pytest.fail("a node below the floor"))
        x, s, _ = inference._scan(g0, g1, V0, V1, V2, t)
        V, g = node_systems(g0, g1, V0, V1, V2, t)
        assert np.linalg.cond(V).max() < 100.0
        ref = np.linalg.solve(V, g[..., None])[..., 0]
        error = np.abs(x.transpose(1, 2, 0) - ref).max(axis=-1)
        assert np.all(error <= 1e-12 * np.abs(ref).max(axis=-1))
        expected, scale = slope(ref, g1, V1, V2, t)
        assert np.all(np.abs(s - expected) <= 1e-12 * scale)

    def test_nodes_below_the_floor_take_solve(self, monkeypatch):
        # a stack of fixed V (V1 = V2 = 0): well-conditioned, ill-conditioned,
        # exactly singular, zero and indefinite. All but the first kind are
        # below the floor at every node, and their x are `_solve_spd_rows`'s
        # bits: ridged, or NaN where the ridged V fails its Cholesky too.
        V0, rhs = TestStackedRidge.stack()
        n, k = len(V0), V0.shape[-1]
        g0, t = rhs[..., 0], np.linspace(-1.0, 1.0, CUE_SCAN_POINTS) * np.ones((n, 1))
        solved, solve = [], inference._solve_spd_rows

        def spy(V, b):
            solved.append(len(V))
            return solve(V, b)

        monkeypatch.setattr(inference, "_solve_spd_rows", spy)
        with np.errstate(all="ignore"):
            x, _, _ = inference._scan(g0, np.zeros(k), V0, np.zeros_like(V0), np.zeros((k, k)), t)
        well = np.linalg.eigvalsh(V0).min(axis=-1) > 1e-3 * np.abs(V0).max(axis=(-2, -1))
        assert solved == [(~well).sum() * CUE_SCAN_POINTS]
        for i in range(n):
            if well[i]:
                ref = np.linalg.solve(V0[i], g0[i])
                assert np.abs(x[:, i] - ref[:, None]).max() <= 1e-12 * np.abs(ref).max()
            else:
                ref, flagged, _ = solve(V0[i][None], g0[i][None, :, None])
                assert flagged[0]
                assert np.array_equal(x[:, i], np.repeat(ref[0], CUE_SCAN_POINTS, 1),
                                      equal_nan=True)

    def test_repeated_instrument_nodes_take_solve(self, monkeypatch):
        # V is singular at every node of the system of
        # `test_ridge_flagged_by_conditioning`: every node is below the floor,
        # and x is `_solve_spd_rows`'s bits on the systems the scan formed
        sys_ = repeated_instrument_system()
        B = np.linspace(-2.0, 2.0, BATCH_CHUNK)[:, None]
        kern = cue_kernel(sys_, HACConfig(bandwidth=2))
        ((args, (x, s, _)),) = scan_calls(monkeypatch, kern, B, sys_.T)
        g0, g1, V0, V1, V2, t = args
        V, g = node_systems(*args)
        ref, flagged, _ = inference._solve_spd_rows(V.reshape(-1, *V.shape[2:]),
                                                    g.reshape(-1, g.shape[-1], 1))
        assert flagged.all()
        ref = ref.reshape(g.shape)
        assert np.array_equal(x.transpose(1, 2, 0), ref)
        expected, scale = slope(ref, g1, V1, V2, t)
        assert np.all(np.abs(s - expected) <= 1e-14 * scale)

    @pytest.mark.parametrize("case", ["IAC", "SEMI 0"])
    def test_row_alone_equals_row_in_stack(self, systems, monkeypatch, case):
        sys_, B = lattice_rows(systems, case)
        ((args, stacked),) = scan_calls(monkeypatch, cue_kernel(sys_, CFG), B[:BATCH_CHUNK], sys_.T)
        g0, g1, V0, V1, V2, t = args
        for i in range(0, BATCH_CHUNK, 7):
            alone = inference._scan(g0[i:i + 1], g1, V0[i:i + 1], V1[i:i + 1], V2, t[i:i + 1])
            for a, b in zip(alone, stacked):
                assert np.array_equal(a, b[:, i:i + 1] if a.ndim == 3 else b[i:i + 1])


class TestPolishSolveCount:
    """The mean number of solves the Newton polish makes per minimisation, a
    batch of one at a time, on the 20 x 20 SEMI lattices."""

    @pytest.mark.parametrize("rho, bound", [(0.0, 3.0), (0.9, 1.6)])
    def test_mean_solves(self, systems, monkeypatch, rho, bound):
        polish, solve = inference._polish, inference._solve_spd_rows
        state = {"polishing": False, "solves": 0}

        def counted_polish(*args):
            state["polishing"] = True
            try:
                return polish(*args)
            finally:
                state["polishing"] = False

        def counted_solve(V, rhs):
            state["solves"] += state["polishing"]
            return solve(V, rhs)

        monkeypatch.setattr(inference, "_polish", counted_polish)
        monkeypatch.setattr(inference, "_solve_spd_rows", counted_solve)
        sys_, B = lattice_rows(systems, f"SEMI {rho}")
        for b in B:
            minimize_cue(sys_, b, CFG)
        assert state["solves"] / len(B) <= bound
