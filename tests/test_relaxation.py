import math

import numpy as np
import pytest

from bistab import relaxation, signals
from bistab.model import DomainError, diagnostics, g_eval


def brute_directed_hausdorff(a, b, chunk=512):
    """Reference: every point of a against every segment of b."""
    p, q = b[:-1], b[1:]
    d = q - p
    dd = np.maximum(np.sum(d * d, axis=1), 1e-300)
    worst = 0.0
    for i in range(0, len(a), chunk):
        w = a[i : i + chunk, None, :] - p[None, :, :]
        t = np.clip(np.sum(w * d[None, :, :], axis=2) / dd[None, :], 0.0, 1.0)
        proj = p[None, :, :] + t[:, :, None] * d[None, :, :]
        dist = np.sqrt(np.sum((a[i : i + chunk, None, :] - proj) ** 2, axis=2))
        worst = max(worst, float(np.max(np.min(dist, axis=1))))
    return worst


def brute_hausdorff(a, b):
    return max(brute_directed_hausdorff(a, b), brute_directed_hausdorff(b, a))


def random_polyline(rng, n, n_long=0):
    """A random walk of n points; n_long of its steps are 50 times longer."""
    steps = rng.normal(size=(n - 1, 2))
    steps[rng.choice(n - 1, size=n_long, replace=False)] *= 50.0
    return np.vstack([np.zeros((1, 2)), np.cumsum(steps, axis=0)]) + rng.normal(size=2)


class TestSpec:
    def test_signal_form(self):
        spec = relaxation.RelaxationSpec(5.0, 0.01, 1.0)
        diag = diagnostics(5.0)
        y = spec.signal()
        assert isinstance(y, signals.TrigSum)
        assert y.a0 == pytest.approx(diag.alpha)
        (amp, theta, phi), = y.terms
        assert amp == pytest.approx(diag.beta + 0.01)
        assert theta == 0.01 and phi == -math.pi / 2.0
        assert spec.period == pytest.approx(2.0 * math.pi / 0.01)

    def test_validation(self):
        with pytest.raises(DomainError):
            relaxation.RelaxationSpec(4.0, 0.01, 1.0)
        with pytest.raises(ValueError):
            relaxation.RelaxationSpec(5.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            relaxation.RelaxationSpec(5.0, 1.5, 1.0)
        with pytest.raises(ValueError):
            relaxation.RelaxationSpec(5.0, 0.01, -0.5)

    @pytest.mark.parametrize("c,eps,r", [(math.nan, 0.01, 1.0), (5.0, math.nan, 1.0), (5.0, 0.01, math.inf)])
    def test_rejects_non_finite(self, c, eps, r):
        with pytest.raises(ValueError, match="finite"):
            relaxation.RelaxationSpec(c, eps, r)


class TestForcing:
    def test_values(self):
        spec = relaxation.RelaxationSpec(5.0, 0.01, 1.0)
        diag = diagnostics(5.0)
        assert relaxation.y_eps(spec, 0.0) == pytest.approx(diag.alpha)
        peak_t = (math.pi / 2.0) / spec.eps
        assert relaxation.y_eps(spec, peak_t) == pytest.approx(diag.lam2 + 0.01 ** 1.0)

    def test_range_overhangs_saddle_values(self):
        spec = relaxation.RelaxationSpec(5.0, 0.05, 1.3)
        diag = diagnostics(5.0)
        b = signals.bounds(spec.signal())
        assert b.sup == pytest.approx(diag.lam2 + 0.05 ** 1.3, abs=1e-12)
        assert b.inf == pytest.approx(diag.lam1 - 0.05 ** 1.3, abs=1e-12)

    def test_matches_signal_eval(self):
        spec = relaxation.RelaxationSpec(5.0, 0.02, 0.8)
        ts = np.linspace(0.0, spec.period, 17)
        np.testing.assert_allclose(
            relaxation.y_eps(spec, ts), signals.eval(spec.signal(), ts), atol=1e-12
        )


class TestCrossingTimes:
    def test_defining_equations(self):
        spec = relaxation.RelaxationSpec(5.0, 0.01, 1.2)
        diag = diagnostics(5.0)
        tbar_minus, t_minus, t_plus = relaxation.crossing_times(spec)
        assert relaxation.y_eps(spec, tbar_minus) == pytest.approx(diag.lam2, abs=1e-10)
        assert relaxation.y_eps(spec, t_minus) == pytest.approx(diag.lam1, abs=1e-10)
        assert relaxation.y_eps(spec, t_plus) == pytest.approx(diag.lam1, abs=1e-10)
        assert 0.0 < tbar_minus < t_minus < t_plus < spec.period

    @pytest.mark.parametrize("eps", [1e-3, 1e-4])
    def test_low_dwell_window_scaling(self, eps):
        # the time below lam1 shrinks like sqrt(eps^r / beta) in phase units
        spec = relaxation.RelaxationSpec(5.0, eps, 1.0)
        beta = diagnostics(5.0).beta
        _, t_minus, t_plus = relaxation.crossing_times(spec)
        phase_width = spec.eps * (t_plus - t_minus)
        predicted = 2.0 * math.sqrt(2.0 * eps ** spec.r / beta)
        assert phase_width / predicted == pytest.approx(1.0, abs=0.2)


class TestGammaCurve:
    def test_points_satisfy_equilibrium_equation(self):
        curve = relaxation.gamma_curve(5.0, n_points=256)
        lam, x = curve.polyline[:, 0], curve.polyline[:, 1]
        assert np.max(np.abs(lam + g_eval(5.0, x))) < 1e-9

    def test_closed_and_jumps_vertical(self):
        curve = relaxation.gamma_curve(5.0, n_points=128)
        p = curve.polyline
        np.testing.assert_allclose(p[0], p[-1])
        diag = diagnostics(5.0)
        # the lower branch ends at lam2 and the upper branch starts there
        assert p[127, 0] == pytest.approx(diag.lam2)
        assert p[128, 0] == pytest.approx(diag.lam2)
        assert p[128, 1] - p[127, 1] > 1.0  # upward jump
        # the closed-form branch ends lam / (double root)^2 sit on the fold values
        assert p[0, 0] == pytest.approx(diag.lam1)
        assert p[0, 1] == pytest.approx(diag.lam1 / diag.x2 ** 2)
        assert p[128, 1] == pytest.approx(diag.lam2 / diag.x1 ** 2)

    def test_domain(self):
        with pytest.raises(DomainError):
            relaxation.gamma_curve(3.0)


class TestGeometry:
    def test_unit_square_area(self):
        sq = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
        assert relaxation.loop_area(sq) == pytest.approx(1.0)

    def test_degenerate_loop(self):
        seg = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        assert relaxation.loop_area(seg) == pytest.approx(0.0)

    def test_hausdorff_identity(self):
        sq = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
        assert relaxation.hausdorff_distance(sq, sq) == 0.0

    def test_hausdorff_translation(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        b = a + np.array([0.0, 1.0])
        assert relaxation.hausdorff_distance(a, b) == pytest.approx(1.0)

    def test_hausdorff_symmetric(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(7, 2)), rng.normal(size=(9, 2))
        assert relaxation.hausdorff_distance(a, b) == pytest.approx(
            relaxation.hausdorff_distance(b, a)
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_hausdorff_exact_against_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(25):
            n, m = rng.integers(2, 300, size=2)
            a = random_polyline(rng, n, n_long=min(3, n - 1))
            b = random_polyline(rng, m, n_long=min(3, m - 1) * int(rng.integers(2)))
            assert relaxation.hausdorff_distance(a, b) == brute_hausdorff(a, b)

    def test_hausdorff_rejects_empty(self):
        with pytest.raises(ValueError):
            relaxation.hausdorff_distance(np.empty((0, 2)), np.zeros((2, 2)))


class TestPowerLawFit:
    def test_recovers_exponent(self):
        eps = np.array([0.05, 0.02, 0.01, 0.005])
        dev = 3.0 * eps ** 0.7
        C, s = relaxation.power_law_fit(eps, dev)
        assert C == pytest.approx(3.0, rel=1e-9)
        assert s == pytest.approx(0.7, rel=1e-9)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            relaxation.power_law_fit([0.1, -0.2], [1.0, 1.0])


class TestRunAnalysis:
    @pytest.mark.parametrize("c", [4.5, 6.0])
    @pytest.mark.parametrize("r", [0.5, 1.5])
    def test_regime_dichotomy(self, c, r):
        # large overhang (small r) destroys bistability; small overhang keeps it
        res = relaxation.run_analysis(relaxation.RelaxationSpec(c, 0.01, r), n_loop=512, gamma_points=256)
        if r < 1.0:
            assert res.regime == "relaxation" and res.n_fixed_points == 1
        else:
            assert res.regime == "bistable" and res.n_fixed_points == 3

    def test_loop_closure_and_area(self):
        res = relaxation.run_analysis(
            relaxation.RelaxationSpec(5.0, 0.05, 0.6), n_loop=1024, gamma_points=512
        )
        np.testing.assert_allclose(res.loop[0], res.loop[-1])
        assert res.area > 0.0
        assert res.hausdorff_to_gamma > 0.0
        gamma = relaxation.gamma_curve(5.0, 512).polyline
        assert res.hausdorff_to_gamma == brute_hausdorff(res.loop, gamma)
        assert 0.0 <= res.closure_gap <= relaxation.CLOSURE_TOL

    def test_long_period_loop_closes(self):
        # T = 305: re-integrating the plain flow from the refined fixed point
        # used to miss it by 1.6e-5 here, because its steps differ from those
        # of the augmented period map the point was refined on
        spec = relaxation.RelaxationSpec(5.0, 0.020599074825660604, 1.1858362259781592)
        res = relaxation.run_analysis(spec)
        assert res.regime == "relaxation" and res.n_fixed_points == 1
        assert res.closure_gap <= relaxation.CLOSURE_TOL
        assert res.loop[0, 1] == res.solutions[0].fixed_point

    def test_closure_gap_above_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(relaxation, "CLOSURE_TOL", -1.0)
        with pytest.raises(RuntimeError, match="does not close"):
            relaxation.run_analysis(relaxation.RelaxationSpec(5.0, 0.05, 0.6), n_loop=256, gamma_points=64)


class TestThreshold:
    def test_threshold_bracketing(self):
        res = relaxation.r_threshold(5.0, 0.05, tol=0.05)
        assert res.regime_below == "relaxation"
        assert res.regime_above == "bistable"
        assert 0.5 < res.r < 2.0
        # the two regimes really do hold just outside the tol bracket
        assert relaxation._census_count(5.0, 0.05, res.r - 2.0 * res.tol) == 1
        assert relaxation._census_count(5.0, 0.05, res.r + 2.0 * res.tol) == 3

    def test_bad_bracket(self):
        with pytest.raises(RuntimeError):
            relaxation.r_threshold(5.0, 0.05, tol=0.05, r_lo=1.8, r_hi=2.0)
