import math
import re

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


def literal_gbar(c, x):
    """gbar written out as the plain NumPy expression of each branch."""
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        out = -x - 2.0 * c * x / (1.0 + x * x)
        xn = x[x < 0.0]
        out[x < 0.0] = -(1.0 + 2.0 * c) * xn - xn * xn * xn
    return out


class TestGbarKernel:
    """The in-place array kernel and its wrapper give the floats of the
    literal expression, bit for bit, on both branches."""

    STATES = np.concatenate([
        np.random.default_rng(11).uniform(-3.0, 8.0, 2000),
        [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-300, -1e-300],
        [1e6, -1e6, math.nextafter(1e6, 0.0), -math.nextafter(1e6, 0.0), 9.99e5, -9.99e5],
    ])

    @pytest.mark.parametrize("c", [0.5, 4.0, 5.0, 8.0, 12.5])
    def test_array_kernel_is_the_literal_expression(self, c):
        want = literal_gbar(c, self.STATES)
        got = model._gbar_array(c, self.STATES)
        assert np.array_equal(got, want)
        # the sign of a zero too
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert np.array_equal(model.gbar_eval(c, self.STATES), want)
        assert np.array_equal(model.gbar_eval(c, self.STATES.reshape(2, -1)), want.reshape(2, -1))

    def test_kernel_leaves_its_input_alone(self):
        xs = self.STATES.copy()
        model._gbar_array(5.0, xs)
        assert np.array_equal(xs, self.STATES)

    def test_nan_does_not_hide_negative_entries(self):
        # a NaN makes the least entry NaN, and the cubic still runs
        xs = np.array([math.nan, -1.0, 2.0, -0.25])
        got = model._gbar_array(5.0, xs)
        assert np.array_equal(got, literal_gbar(5.0, xs), equal_nan=True)
        assert got[1] == 12.0

    def test_one_branch_arrays_and_empty(self):
        for xs in (np.linspace(0.0, 7.0, 33), np.linspace(-3.0, -0.1, 33)):
            assert np.array_equal(model._gbar_array(5.0, xs), literal_gbar(5.0, xs))
        assert model._gbar_array(5.0, np.empty(0)).size == 0

    @pytest.mark.parametrize("x", [-2.5, -1e-300, -0.0, 0.0, 5e-324, 0.7, 3.0, 1e6])
    def test_scalars_and_0d_arrays(self, x):
        want = float(literal_gbar(5.0, np.array([x]))[0])
        for arg in (x, np.float64(x), np.array(x)):
            got = model.gbar_eval(5.0, arg)
            assert type(got) is float and got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


class TestFoldForms:
    """x1, x2, lam1 and lam2 keep their closed forms' floats wherever those
    are finite, and raise DomainError naming c where they are not."""

    @pytest.mark.parametrize("c", [4.0, 4.5, 5.0, 8.0, 1e3, 1e8, 1e15, 1e50, 1e76])
    def test_floats_of_the_closed_forms(self, c):
        r2, r3 = math.sqrt(c * (c - 4.0)), math.sqrt(c * (c - 4.0) ** 3)
        assert model.x1(c) == math.sqrt(c - 1.0 - r2)
        assert model.x2(c) == math.sqrt(c - 1.0 + r2)
        assert model.lam1(c) == math.sqrt((c * c + 10.0 * c - 2.0 - r3) / 2.0)
        assert model.lam2(c) == math.sqrt((c * c + 10.0 * c - 2.0 + r3) / 2.0)

    @pytest.mark.parametrize("c", [1.2e77, 1e80, 5.6e102, 1e200, 1.7e308])
    def test_unformable_c_raises_domain_error(self, c):
        with pytest.raises(model.DomainError, match=re.escape(f"c = {c}")):
            model.diagnostics(c)
        for fold in (model.lam1, model.lam2):
            with pytest.raises(model.DomainError, match="cannot be formed as a finite float"):
                fold(c)

    def test_below_four_keeps_its_message(self):
        for fold in (model.x1, model.x2, model.lam1, model.lam2):
            with pytest.raises(model.DomainError, match="requires c >= 4, got c = 3.5"):
                fold(3.5)


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


EQ_C = [0.5, 3.0, 4.0, 4.05, 5.0, 8.0, 12.0]


class TestEquilibria:
    """``equilibria`` is the real roots of lam + gbar(x) = 0, ascending."""

    @staticmethod
    def lambdas(c):
        lams = list(np.linspace(-2.0, 20.0, 89)) + [0.0, -1e-13, 1e-13]
        return lams + ([model.lam1(c), model.lam2(c)] if c >= 4.0 else [])

    @pytest.mark.parametrize("c", EQ_C)
    def test_roots_meet_the_equation_in_ascending_order(self, c):
        for lam in self.lambdas(c):
            xs = model.equilibria(c, lam)
            assert xs and xs == sorted(xs) and len(set(xs)) == len(xs)
            for x in xs:
                assert abs(lam + model.gbar_eval(c, x)) <= 1e-12 * (1.0 + abs(lam))

    @pytest.mark.parametrize("c", EQ_C)
    def test_three_roots_strictly_inside_the_fold_window(self, c):
        if c <= 4.0:
            assert all(len(model.equilibria(c, lam)) == 1 for lam in self.lambdas(c))
            return
        l1, l2 = model.lam1(c), model.lam2(c)
        inside = l1 + (l2 - l1) * np.linspace(0.01, 0.99, 25)
        outside = [l1 - 1.0, l1 - 1e-3 * (l2 - l1), l2 + 1e-3 * (l2 - l1), l2 + 1.0]
        assert all(len(model.equilibria(c, lam)) == 3 for lam in inside)
        assert all(len(model.equilibria(c, lam)) == 1 for lam in outside)

    @pytest.mark.parametrize("c", [4.05, 4.5, 5.0, 6.0, 8.0, 10.0, 12.0])
    def test_saddle_node_is_one_double_root(self, c):
        low, double = model.equilibria(c, model.lam1(c))
        assert abs(double - model.x2(c)) <= 1e-7 and low < model.x1(c)
        double, high = model.equilibria(c, model.lam2(c))
        assert abs(double - model.x1(c)) <= 1e-7 and high > model.x2(c)

    @pytest.mark.parametrize("c", EQ_C)
    @pytest.mark.parametrize("lam", [-1e-9, -0.5, -3.0, -40.0])
    def test_one_negative_root_below_zero_drive(self, c, lam):
        (x,) = model.equilibria(c, lam)
        assert x < 0.0
        assert abs(lam + model.gbar_eval(c, x)) <= 1e-12 * (1.0 + abs(lam))
