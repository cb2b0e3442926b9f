import math

import numpy as np
import pytest
from scipy.optimize import brentq

from bistab import model

SQRT3 = math.sqrt(3.0)
C_GRID = [4.5, 5.0, 6.0, 8.0, 10.0]


class TestG:
    def test_zero(self):
        assert model.g_eval(5.0, 0.0) == 0.0

    def test_value_at_inflection(self):
        assert model.g_eval(5.0, SQRT3) == pytest.approx(-SQRT3 * 7.0 / 2.0, abs=1e-12)

    def test_minus_g_at_lower_critical_point_is_lam1(self):
        # the critical point of g in (sqrt3, c) by independent bisection
        c = 5.0
        root = brentq(lambda x: model.g_derivs(c, x)[0], SQRT3, c, xtol=1e-13)
        assert -model.g_eval(c, root) == pytest.approx(model.lam1(c), abs=1e-9)
        assert model.g_eval(c, 2.497212) == pytest.approx(-5.948269, abs=1e-5)

    def test_first_derivative_at_zero(self):
        assert model.g_derivs(5.0, 0.0)[0] == -11.0

    @pytest.mark.parametrize("c", C_GRID)
    def test_second_derivative_vanishes_at_inflection(self, c):
        assert model.g_derivs(c, SQRT3)[1] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("x", [0.3, 1.0, 1.9, 3.7])
    def test_derivatives_match_finite_differences(self, x):
        c, h = 5.0, 1e-6
        d1, d2, _ = model.g_derivs(c, x)
        fd1 = (model.g_eval(c, x + h) - model.g_eval(c, x - h)) / (2.0 * h)
        fd2 = (model.g_derivs(c, x + h)[0] - model.g_derivs(c, x - h)[0]) / (2.0 * h)
        assert fd1 == pytest.approx(d1, rel=1e-6)
        assert fd2 == pytest.approx(d2, rel=1e-5)

    @pytest.mark.parametrize("c", C_GRID)
    def test_concavity_pattern(self, c):
        xs = np.linspace(0.01, SQRT3 - 0.01, 200)
        assert np.all(model.g_derivs(c, xs)[1] > 0.0)
        xs = np.linspace(SQRT3 + 0.01, 6.0, 200)
        assert np.all(model.g_derivs(c, xs)[1] < 0.0)

    @pytest.mark.parametrize("c", C_GRID)
    def test_third_derivative_negative_exactly_on_band(self, c):
        xs = np.linspace(0.0, 6.0, 1200)
        d3 = model.g_derivs(c, xs)[2]
        inside = (xs > model.BAND_LO + 1e-3) & (xs < model.BAND_HI - 1e-3)
        outside = (xs < model.BAND_LO - 1e-3) | (xs > model.BAND_HI + 1e-3)
        assert np.all(d3[inside] < 0.0)
        assert np.all(d3[outside] > 0.0)


class TestGbar:
    def test_cubic_branch(self):
        assert model.gbar_eval(5.0, -1.0) == pytest.approx(12.0, abs=1e-12)

    def test_branches_agree_on_nonnegative_axis(self):
        assert model.gbar_eval(5.0, 2.0) == model.g_eval(5.0, 2.0)

    def test_c2_matching_at_zero(self):
        # one-sided limits of value, first and second derivative agree at 0
        c, h = 5.0, 1e-5
        cubic = lambda x: -(1.0 + 2.0 * c) * x - x ** 3
        assert abs(cubic(0.0) - model.g_eval(c, 0.0)) < 1e-12
        assert abs(-(1.0 + 2.0 * c) - model.g_derivs(c, 0.0)[0]) < 1e-12
        assert abs(model.gbar_deriv2(c, 0.0)) < 1e-12
        # straddling finite differences are consistent with the shared values
        fd1 = (model.gbar_eval(c, h) - model.gbar_eval(c, -h)) / (2.0 * h)
        assert fd1 == pytest.approx(-(1.0 + 2.0 * c), abs=1e-8)
        fd2 = (model.gbar_eval(c, h) - 2.0 * model.gbar_eval(c, 0.0) + model.gbar_eval(c, -h)) / h ** 2
        assert abs(fd2) < 1e-3  # second derivative limit is 0 from both sides

    def test_vectorized(self):
        xs = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        vals = model.gbar_eval(5.0, xs)
        assert vals.shape == xs.shape
        assert vals[2] == 0.0


class TestDiagnostics:
    def test_at_c_equals_4(self):
        d = model.diagnostics(4.0)
        assert d.x1 == pytest.approx(SQRT3, abs=1e-12)
        assert d.x2 == pytest.approx(SQRT3, abs=1e-12)
        assert d.lam1 == pytest.approx(math.sqrt(27.0), abs=1e-10)
        assert d.lam2 == pytest.approx(math.sqrt(27.0), abs=1e-10)
        assert abs(d.h1) < 1e-10 and abs(d.h2) < 1e-10 and abs(d.h3) < 1e-10

    def test_at_c_equals_5(self):
        d = model.diagnostics(5.0)
        assert d.x1 == pytest.approx(1.328132, abs=1e-6)
        assert d.x2 == pytest.approx(2.497212, abs=1e-6)
        assert d.lam1 == pytest.approx(5.948274, abs=1e-5)
        assert d.lam2 == pytest.approx(6.133355, abs=1e-6)
        assert d.lam3 == pytest.approx(3.949747, abs=1e-6)
        assert d.lam4 == pytest.approx(5.949747, abs=1e-6)
        assert d.lam4 - d.lam3 == pytest.approx(2.0, abs=1e-12)

    def test_subcritical_fields_absent(self):
        d = model.diagnostics(3.0)
        assert d.x1 is None and d.lam1 is None and d.h1 is None
        assert d.lam3 is not None and d.dfrak == 3.0 / 4.0 - 1.0

    @pytest.mark.parametrize("c", C_GRID)
    def test_invariants(self, c):
        d = model.diagnostics(c)
        assert 0.0 < d.x1 < SQRT3 < d.x2
        assert 0.0 < d.lam1 < d.lam2
        assert d.h1 > d.h2 > d.h3 > 0.0
        assert d.alpha == pytest.approx((d.lam1 + d.lam2) / 2.0)
        assert d.beta == pytest.approx(d.h1 / 2.0)

    def test_band_containment_for_small_c(self):
        d = model.diagnostics(4.8)
        assert model.BAND_LO < d.x1 and d.x2 < model.BAND_HI

    def test_monotone_in_c(self):
        cs = np.arange(4.0, 12.0, 0.25)
        x1s = np.array([model.x1(c) for c in cs])
        x2s = np.array([model.x2(c) for c in cs])
        l1s = np.array([model.lam1(c) for c in cs])
        l2s = np.array([model.lam2(c) for c in cs])
        assert np.all(np.diff(-x1s) > 0.0)
        assert np.all(np.diff(x2s) > 0.0)
        assert np.all(np.diff(l1s) > 0.0)
        assert np.all(np.diff(l2s) > 0.0)

    @pytest.mark.parametrize("c", C_GRID)
    def test_critical_points_match_bisection(self, c):
        r1 = brentq(lambda x: model.g_derivs(c, x)[0], 0.1, SQRT3, xtol=1e-13)
        r2 = brentq(lambda x: model.g_derivs(c, x)[0], SQRT3, c, xtol=1e-13)
        assert model.x1(c) == pytest.approx(r1, abs=1e-9)
        assert model.x2(c) == pytest.approx(r2, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(model.DomainError):
            model.x1(3.0)
        with pytest.raises(model.DomainError):
            model.lam2(3.9)
        with pytest.raises(model.DomainError):
            model.diagnostics(0.0)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_diagnostics_rejects_non_finite_c(self, c):
        with pytest.raises(model.DomainError, match="^diagnostics requires a finite c > 0, got c = "):
            model.diagnostics(c)


class TestRecentered:
    def test_zero_at_origin(self):
        assert model.mg_eval(5.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_negative_on_positive_axis(self):
        zs = np.linspace(0.05, 10.0, 300)
        assert np.all(model.mg_eval(5.0, zs) < 0.0)

    def test_split_halves(self):
        assert model.mg_minus(5.0, -0.5) == 0.0
        assert model.mg_plus(5.0, -0.5) == model.mg_eval(5.0, -0.5)
        assert model.mg_plus(5.0, 0.5) == 0.0
        assert model.mg_minus(5.0, 0.5) == model.mg_eval(5.0, 0.5)

    @pytest.mark.parametrize("c", C_GRID)
    def test_linear_plus_mg_diverges_with_opposite_signs(self, c):
        d = model.dfrak(c)
        assert d * 1e3 + model.mg_eval(c, 1e3) < 0.0
        assert d * (-1e3) + model.mg_eval(c, -1e3) > 0.0

    @pytest.mark.parametrize("c", C_GRID)
    def test_concave_on_right_convex_on_left(self, c):
        zs = np.linspace(0.0, 10.0, 400)
        slopes = np.diff(model.mg_eval(c, zs)) / np.diff(zs)
        assert np.all(np.diff(slopes) < 1e-12)  # strictly concave on the right
        zs = np.linspace(-10.0, 0.0, 400)
        slopes = np.diff(model.mg_eval(c, zs)) / np.diff(zs)
        assert np.all(np.diff(slopes) > -1e-12)  # strictly convex on the left

    def test_derivatives_match_finite_differences(self):
        c, h = 6.0, 1e-6
        for z in (0.7, 2.1):
            fd = (model.mg_eval(c, z + h) - model.mg_eval(c, z - h)) / (2.0 * h)
            assert model.mg_minus_deriv(c, z) == pytest.approx(fd, abs=1e-6)
        for z in (-0.7, -2.1):
            fd = (model.mg_eval(c, z + h) - model.mg_eval(c, z - h)) / (2.0 * h)
            assert model.mg_plus_deriv(c, z) == pytest.approx(fd, abs=1e-6)

    def test_rejects_subcritical_c(self):
        for f in (model.mg_eval, model.mg_minus, model.mg_plus):
            with pytest.raises(model.DomainError):
                f(4.0, 1.0)
