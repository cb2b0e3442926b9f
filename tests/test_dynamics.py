import functools
import gc
import math
import re
import tracemalloc
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from comparison import comparison_displacement, comparison_map, comparison_seeds, wide_top
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from bistab import dynamics, model, relaxation, signals

SQRT3 = math.sqrt(3.0)
ZERO = signals.Constant(0.0)
COSINE = signals.TrigSum(0.0, ((0.04, 1.0, 0.0),))


def autonomous_equilibria(c, lam):
    """Real roots of lam + g(x) = 0 for x >= 0 via the cubic x^3 - lam x^2 + (1+2c)x - lam."""
    roots = np.roots([1.0, -lam, 1.0 + 2.0 * c, -lam])
    return sorted(float(r.real) for r in roots if abs(r.imag) < 1e-9)


def polished_equilibria(c, lam):
    """``autonomous_equilibria`` each polished by Newton steps on the cubic,
    so a reference near a fold's close pair does not rest on np.roots alone
    (at c = 5, lam1 + 1e-6, both lie within 2e-13 of a 50-digit solve)."""
    out = []
    for x in autonomous_equilibria(c, lam):
        for _ in range(8):
            p = ((x - lam) * x + 1.0 + 2.0 * c) * x - lam
            dp = (3.0 * x - 2.0 * lam) * x + 1.0 + 2.0 * c
            x -= p / dp
        out.append(x)
    return out


class TestIntegrate:
    def test_equilibrium_stays_put(self):
        # x2 is an equilibrium of the autonomous flow at lam = lam1
        c = 5.0
        spec = dynamics.OdeSpec(c, model.lam1(c), ZERO)
        traj = dynamics.integrate(spec, 0.0, model.x2(c), 100.0, n_samples=101)
        assert np.max(np.abs(traj.values - model.x2(c))) < 1e-6

    def test_decay_to_origin(self):
        spec = dynamics.OdeSpec(5.0, 0.0, ZERO)
        traj = dynamics.integrate(spec, 0.0, 1.0, 50.0, n_samples=51)
        assert abs(traj.values[-1]) < 1e-8

    def test_backward_times_increasing(self):
        spec = dynamics.OdeSpec(5.0, 6.0, ZERO)
        traj = dynamics.integrate(spec, 10.0, 2.0, 0.0, n_samples=33)
        assert np.all(np.diff(traj.times) > 0.0)
        assert traj.times[0] == 0.0 and traj.times[-1] == 10.0

    def test_backward_inverts_forward(self):
        spec = dynamics.OdeSpec(5.0, 6.0, ZERO)
        fwd = dynamics.integrate(spec, 0.0, 2.5, 3.0)
        back = dynamics.integrate(spec, 3.0, fwd.values[-1], 0.0)
        assert back.values[0] == pytest.approx(2.5, abs=1e-7)

    def test_linear_region_closed_form(self):
        # in the concave-linear equation z' = lam - cshift + dfrak z for z <= 0
        c = 5.0
        d, cs = model.dfrak(c), model.cshift(c)
        z_star = (cs - 0.0) / d
        z0, t = -1.0, 2.0
        expected = z_star + (z0 - z_star) * math.exp(d * t)
        assert comparison_map(c, 0.0, ZERO, "concave-linear", t, [z0])[0] == pytest.approx(expected, abs=1e-8)

    def test_positivity_invariance(self):
        spec = dynamics.OdeSpec(5.0, 1.0, signals.TrigSum(0.0, ((0.5, 1.0, 0.0),)))
        traj = dynamics.integrate(spec, 0.0, 0.1, 40.0, n_samples=400)
        assert np.all(traj.values > -1e-12)

    def test_finite_escape(self):
        # backward in time the cubic branch of gbar runs to -inf in finite
        # time, here about 0.11 before t = 1
        spec = dynamics.OdeSpec(5.0, 0.0, ZERO)
        with pytest.raises(dynamics.FiniteEscapeError):
            dynamics.integrate(spec, 1.0, -1.0, 0.0)

    def test_finite_escape_far_from_zero(self):
        # the same blow-up about 0.11 before t = 100: near it RK45's step
        # falls below the float spacing of t before |x| reaches the bound,
        # and that collapse is the same escape
        spec = dynamics.OdeSpec(5.0, 0.0, ZERO)
        with pytest.raises(dynamics.FiniteEscapeError, match=r"^integration failed: the step size fell below"):
            dynamics.integrate(spec, 100.0, -1.0, 0.0)

    def test_error_controller_alone_sets_the_steps(self):
        # from an equilibrium of a constant input the error estimate stays
        # tiny, and the error controller alone sets the steps: each grows
        # tenfold, so [0, 1] takes a handful
        spec = dynamics.OdeSpec(5.0, 6.0, ZERO)
        for x in model.equilibria(5.0, 6.0):
            assert len(dynamics.integrate(spec, 0.0, x, 1.0).times) < 17

    def test_large_log_multiplier_is_not_an_escape(self, monkeypatch):
        # the multiplier integrand runs alongside x; only x may trigger the escape bound
        monkeypatch.setattr(dynamics, "ESCAPE_BOUND", 50.0)
        spec = dynamics.OdeSpec(5.0, 0.0, ZERO)  # x -> 0, log multiplier ~ -11 t
        traj = dynamics.integrate(spec, 0.0, 1.0, 10.0)
        assert abs(traj.values[-1]) < 1e-8
        assert dynamics.poincare_map_log(spec, 10.0, 1.0)[1] < -50.0


class TestOdeSpecValidation:
    @pytest.mark.parametrize("c,lam", [(math.nan, 1.0), (5.0, math.inf), (-math.inf, 1.0), (5.0, math.nan)])
    def test_rejects_non_finite(self, c, lam):
        with pytest.raises(ValueError, match="finite"):
            dynamics.OdeSpec(c, lam, ZERO)

    @pytest.mark.parametrize("c", [0.0, -0.0, -1.0])
    def test_rejects_non_positive_c(self, c):
        # gbar needs c > 0, as diagnostics and classify do
        with pytest.raises(model.DomainError, match=r"OdeSpec requires c > 0, got c = "):
            dynamics.OdeSpec(c, 1.0, ZERO)

    @pytest.mark.parametrize("lam, y", [(1e308, 1e308), (-1e308, -1e308)])
    def test_rejects_an_overflowed_drive(self, lam, y):
        # finite lambda and input whose sum is not: no census interval or
        # solve is formed of it
        with pytest.raises(ValueError, match=r"the drive lambda \+ inf y = .* overflows a float"):
            dynamics.OdeSpec(5.0, lam, signals.Constant(y))


class TestDegenerateSpans:
    """A zero, non-finite or backward span, and a sample count below 1, are
    rejected by name instead of dividing by zero or running backward."""

    SPEC = dynamics.OdeSpec(5.0, 6.0, signals.TrigSum(0.0, ((0.03, 1.0, 0.4),)))

    @pytest.mark.parametrize("t0,t1", [(1.0, 1.0), (0.0, math.inf), (0.0, math.nan), (-math.inf, 0.0)])
    def test_integrate(self, t0, t1):
        with pytest.raises(ValueError, match="must be finite and nonzero"):
            dynamics.integrate(self.SPEC, t0, 2.0, t1)

    def test_map_over_no_time(self):
        with pytest.raises(ValueError, match="poincare_map requires a finite period T > 0, got T = 0.0"):
            dynamics.poincare_map(self.SPEC, 0.0, 2.0)
        with pytest.raises(ValueError, match="must be finite and nonzero"):
            dynamics.integrate(dynamics.OdeSpec(5.0, 6.0, SAMPLED), 2.0, 1.0, 2.0)

    @pytest.mark.parametrize("t1", [math.inf, -math.inf, math.nan])
    def test_sampled_input_over_a_non_finite_span(self, t1):
        # the span is checked before the input lists its nodes on it, which
        # an infinite span would overflow
        spec = dynamics.OdeSpec(5.0, 6.0, signals.SampledPeriodic(5.0, (0.0, 1.0, 2.0, 3.0), (0.0, 0.1, 0.0, -0.1)))
        with pytest.raises(ValueError, match="must be finite and nonzero"):
            dynamics.integrate(spec, 0.0, 2.0, t1)

    @pytest.mark.parametrize("T", [0.0, -2.0 * math.pi, math.inf, math.nan])
    def test_census_needs_positive_period(self, T):
        for census in (dynamics.find_periodic_solutions, dynamics.count_separated_solutions):
            with pytest.raises(ValueError, match="a census requires a finite period T > 0"):
                census(self.SPEC, T)

    @pytest.mark.parametrize("T", [-2.0 * math.pi, 0.0, math.inf, math.nan])
    @pytest.mark.parametrize("name", ["poincare_map_log", "poincare_map", "poincare_multiplier_fd"])
    def test_period_map_needs_positive_period(self, name, T):
        # a negative period would integrate backward unannounced, and an
        # infinite one would reach np.linspace's warning first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"{name} requires a finite period T > 0, got T = {T}")):
                getattr(dynamics, name)(self.SPEC, T, 2.0)

    @pytest.mark.parametrize("sampled", [False, True], ids=["trig", "sampled"])
    def test_no_states(self, sampled):
        # an empty state array divided by zero in the solver's error norm
        y = signals.SampledPeriodic(5.0, (0.0, 1.0, 2.0, 3.0), (0.0, 0.1, 0.0, -0.1))
        spec, none = (dynamics.OdeSpec(5.0, 6.0, y) if sampled else self.SPEC), np.array([])
        calls = [
            lambda: dynamics.poincare_map_log(spec, 5.0, none),
            lambda: dynamics.poincare_map_log(spec, 5.0, none, backward=True),
            lambda: dynamics.integrate(spec, 0.0, none, 1.0),
            lambda: dynamics.integrate(spec, 0.0, none, 1.0, n_samples=5),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="^solve_ivp needs at least one state$"):
                call()

    @pytest.mark.parametrize("n", [0, -3, 2.5, 5.0, True, False])
    def test_no_samples(self, n):
        with pytest.raises(ValueError, match="n_samples must be None or at least 1"):
            dynamics.integrate(self.SPEC, 0.0, 2.0, 1.0, n_samples=n)

    def test_one_sample_is_the_start(self):
        traj = dynamics.integrate(self.SPEC, 0.0, 2.0, 1.0, n_samples=1)
        assert traj.times.tolist() == [0.0] and traj.values.tolist() == [2.0]


class TestPoincareMap:
    def test_autonomous_fixed_points(self):
        # lam = 6, c = 5: equilibria at exactly 1, 2, 3
        spec = dynamics.OdeSpec(5.0, 6.0, ZERO)
        T = 1.0
        for x0 in (1.0, 2.0, 3.0):
            xT, mult = dynamics.poincare_map(spec, T, x0)
            assert xT == pytest.approx(x0, abs=1e-8)
            expected = math.exp(T * model.gbar_deriv(5.0, x0))
            assert mult == pytest.approx(expected, rel=1e-6)
        assert dynamics.poincare_map(spec, T, 1.0)[1] < 1.0
        assert dynamics.poincare_map(spec, T, 2.0)[1] > 1.0
        assert dynamics.poincare_map(spec, T, 3.0)[1] < 1.0

    def test_backward_map_inverts(self):
        spec = dynamics.OdeSpec(5.0, 6.0, ZERO)
        xT, L = dynamics.poincare_map_log(spec, 1.0, 1.4)
        x0, Lb = dynamics.poincare_map_log(spec, 1.0, xT, backward=True)
        assert x0 == pytest.approx(1.4, abs=1e-8)
        assert Lb == pytest.approx(L, abs=1e-7)

    def test_fd_multiplier_matches_augmented(self):
        spec = dynamics.OdeSpec(5.0, 6.0, ZERO)
        for x0 in (1.0, 3.0):
            _, L = dynamics.poincare_map_log(spec, 1.0, x0)
            fd = dynamics.poincare_multiplier_fd(spec, 1.0, x0)
            assert fd == pytest.approx(L, abs=1e-4)

    def test_fd_multiplier_repulsive_orbit(self):
        spec = dynamics.OdeSpec(5.0, 6.0, ZERO)
        _, L = dynamics.poincare_map_log(spec, 1.0, 2.0)
        fd = dynamics.poincare_multiplier_fd(spec, 1.0, 2.0, backward_orbit=True)
        assert fd == pytest.approx(L, abs=1e-4)


def inverse_cubic_zero(x4, d4):
    """The zero of x as the cubic in d through the four seeds (x4, d4), in
    Lagrange form about x4[1]; None where two values tie."""
    if len(set(d4)) < 4:
        return None
    total = 0.0
    for m in range(4):
        w = 1.0
        for j in range(4):
            if j != m:
                w = w * (d4[j] / (d4[j] - d4[m]))
        total = total + w * (x4[m] - x4[1])
    return x4[1] + total


def loop_brackets(xs, d):
    """Reference: the per-seed loop that ``_brackets`` replaced, with the
    refinement's start: the midpoint of a zero seed's bracket, else the
    inverse-cubic zero on the seeds i - 1 to i + 2 where it lies strictly
    inside the bracket, else the secant zero."""
    out = []
    for i in range(len(xs) - 1):
        da, db = d[i], d[i + 1]
        if da == 0.0:
            xa, xb = xs[max(i - 1, 0)], xs[i + 1]
            out.append((xa, xb, db < da, 0.5 * (xa + xb)))
        elif da * db < 0.0:
            xa, xb = xs[i], xs[i + 1]
            start = xa - da * (xb - xa) / (db - da)
            if 1 <= i and i + 2 < len(xs):
                cubic = inverse_cubic_zero(xs[i - 1 : i + 3], d[i - 1 : i + 3])
                if cubic is not None and xa < cubic < xb:
                    start = cubic
            out.append((xa, xb, da > 0.0, start))
    return out


class TestCensus:
    @pytest.mark.parametrize("seed", range(4))
    def test_brackets_match_the_seed_loop(self, monkeypatch, seed):
        # displacements with exact zeros (also at the first seed): the same
        # tuples, of the same types, in the same order as the loop
        d = np.random.default_rng(seed).choice([-2.0, -1.0, 0.0, 1.0, 3.0], size=64)
        d[0] = 0.0
        monkeypatch.setattr(dynamics, "_displacement_grid", lambda specs, T, xs: [d])
        spec = dynamics.OdeSpec(5.0, 6.0, ZERO)
        want = loop_brackets(np.linspace(*dynamics._scan_interval(spec), d.size), d)
        got = list(zip(*dynamics._sign_changes(*dynamics._brackets([spec], 1.0, d.size)[0])))
        assert [tuple(map(type, b)) for b in got] == [tuple(map(type, b)) for b in want]
        assert got == want and any(d[:-1] == 0.0) and len(got) > 10

    @pytest.mark.parametrize(
        "d",
        [[-1.0, 1.0, 2.0, 3.0], [-3.0, -2.0, -1.0, 1.0], [-1.0, -1e-3, 1.0, 1.001]],
        ids=["first seeds", "last seeds", "cubic zero below the bracket"],
    )
    def test_start_falls_back_to_the_secant(self, d):
        # no seed below or above the crossing's pair, or an inverse cubic whose
        # zero leaves the bracket: the secant zero of the pair's two values
        xs, d = np.arange(4.0), np.array(d)
        (xa,), (xb,), (attractive,), (start,) = dynamics._sign_changes(xs, d)
        i = int(xa)
        assert xb == i + 1 and not attractive
        assert start == xa - d[i] * (xb - xa) / (d[i + 1] - d[i])
        if i == 1:
            assert not xa < inverse_cubic_zero(xs, d) < xb

    def test_start_is_the_inverse_cubic_zero(self):
        xs, d = np.arange(4.0), np.array([-10.0, -0.1, 0.2, 0.3])
        (xa,), (xb,), _, (start,) = dynamics._sign_changes(xs, d)
        assert start == inverse_cubic_zero(xs, d) and 1.0 < start < 1.01
        # the secant zero of the pair would be 1.333
        assert abs(start - (xa + 0.1 / 0.3)) > 0.3

    def test_three_solutions_inside_interval(self):
        spec = dynamics.OdeSpec(5.0, 6.0, ZERO)
        sols = dynamics.find_periodic_solutions(spec, 1.0)
        assert [s.kind for s in sols] == ["attractive", "repulsive", "attractive"]
        expected = autonomous_equilibria(5.0, 6.0)
        assert expected == pytest.approx([1.0, 2.0, 3.0], abs=1e-9)
        for s, x in zip(sols, expected):
            assert s.fixed_point == pytest.approx(x, abs=1e-7)

    def test_single_solution_above_interval(self):
        sols = dynamics.find_periodic_solutions(dynamics.OdeSpec(5.0, 7.0, ZERO), 1.0)
        assert len(sols) == 1 and sols[0].kind == "attractive"
        assert sols[0].fixed_point == pytest.approx(autonomous_equilibria(5.0, 7.0)[0], abs=1e-7)

    def test_single_solution_subcritical(self):
        sols = dynamics.find_periodic_solutions(dynamics.OdeSpec(3.0, 1.0, ZERO), 1.0)
        assert len(sols) == 1 and sols[0].kind == "attractive"

    def test_forced_census_matches_classifier_interval(self):
        # mid interval for y = 0.04 sin t at c = 5 keeps all three solutions
        c = 5.0
        y = signals.TrigSum(0.0, ((0.04, 1.0, -math.pi / 2.0),))
        lam = (model.lam1(c) + model.lam2(c)) / 2.0
        sols = dynamics.find_periodic_solutions(dynamics.OdeSpec(c, lam, y), 2.0 * math.pi)
        assert [s.kind for s in sols] == ["attractive", "repulsive", "attractive"]

    def test_repulsive_samples_are_periodic(self):
        c = 5.0
        y = signals.TrigSum(0.0, ((0.04, 1.0, -math.pi / 2.0),))
        lam = (model.lam1(c) + model.lam2(c)) / 2.0
        spec = dynamics.OdeSpec(c, lam, y)
        sols = dynamics.find_periodic_solutions(spec, 2.0 * math.pi)
        rep = [s for s in sols if s.kind == "repulsive"][0]
        orbit = dynamics.integrate(spec, 2.0 * math.pi, rep.fixed_point, 0.0)
        assert abs(orbit.values[-1] - orbit.values[0]) < 1e-6
        # forward map from the refined point returns to itself at mild scale
        xT, _ = dynamics.poincare_map_log(spec, 2.0 * math.pi, rep.fixed_point)
        assert xT == pytest.approx(rep.fixed_point, abs=1e-6)

    def test_census_solves_only_its_scans_and_map_calls(self, monkeypatch):
        # a smooth input is one solve_ivp call per scan and per map call: no
        # fixed point is integrated again once its refinement has converged
        c = 5.0
        y = signals.TrigSum(0.0, ((0.04, 1.0, -math.pi / 2.0),))
        spec = dynamics.OdeSpec(c, (model.lam1(c) + model.lam2(c)) / 2.0, y)
        names = ("solve_ivp", "_brackets", "poincare_map_log")
        solves, scans, maps = counted = [CountedMap(getattr(dynamics, name)) for name in names]
        for name, fn in zip(names, counted):
            monkeypatch.setattr(dynamics, name, fn)
        assert len(dynamics.find_periodic_solutions(spec, 2.0 * math.pi)) == 3
        assert solves.calls == scans.calls + maps.calls
        # one scan, and two lock-step solves per direction
        assert scans.calls == 1 and maps.calls <= 4

    def test_stable_census_solves_one_grid(self, monkeypatch):
        # the brackets all come from one scan solve
        grids = CountedMap(dynamics._displacement_grid)
        monkeypatch.setattr(dynamics, "_displacement_grid", grids)
        y = signals.TrigSum(0.0, ((0.04, 1.0, -math.pi / 2.0),))
        spec = dynamics.OdeSpec(5.0, 0.5 * (model.lam1(5.0) + model.lam2(5.0)), y)
        assert len(dynamics.find_periodic_solutions(spec, 2.0 * math.pi)) == 3
        assert grids.calls == 1

    def test_close_crossings_in_one_scan(self, monkeypatch):
        # just above lam1 the two equilibria born at x2, 1.37e-3 apart, fall
        # between two seeds of a 513-seed grid (spacing 4.5e-3) but not of
        # the 2,049-seed census grid (spacing 1.13e-3), whose one scan
        # brackets all three
        c = 5.0
        lam = model.lam1(c) + 1e-7
        spec = dynamics.OdeSpec(c, lam, ZERO)
        lo, hi = dynamics._scan_interval(spec)
        pair = [x for x in autonomous_equilibria(c, lam) if abs(x - model.x2(c)) < 0.01]
        assert len(pair) == 2 and (hi - lo) / 2048 < pair[1] - pair[0] < (hi - lo) / 512
        assert pair[1] - pair[0] == pytest.approx(1.37e-3, abs=1e-5)
        ((xs, d),) = dynamics._brackets([spec], 1.0, dynamics.CENSUS_SEEDS)
        assert dynamics._sign_changes(xs[::4], d[::4])[0].size == 1
        assert dynamics._sign_changes(xs, d)[0].size == 3
        scans = CountedMap(dynamics._brackets)
        monkeypatch.setattr(dynamics, "_brackets", scans)
        sols = dynamics.find_periodic_solutions(spec, 1.0)
        assert scans.calls == 1
        assert [s.kind for s in sols] == ["attractive", "repulsive", "attractive"]
        assert [s.fixed_point for s in sols] == pytest.approx(autonomous_equilibria(c, lam), abs=1e-5)

    def test_near_fold_fixed_points_are_placed_to_the_tolerance(self):
        # the pair born at x2 just above lam1 has log multipliers only ~9e-4
        # from 0, so a stop on |P(x) - x| < FP_TOL alone would leave them
        # about FP_TOL / 9e-4 ~ 1e-6 off; a stop on the Newton correction
        # places all three to the refinement's tolerance
        c = 5.0
        lam = model.lam1(c) + 1e-6
        sols = dynamics.find_periodic_solutions(dynamics.OdeSpec(c, lam, ZERO), 1.0)
        assert [s.kind for s in sols] == ["attractive", "repulsive", "attractive"]
        assert [abs(s.log_multiplier) < 1e-3 for s in sols] == [False, True, True]
        want = polished_equilibria(c, lam)
        assert max(abs(s.fixed_point - x) for s, x in zip(sols, want)) <= 1e-8

    def test_count_separated(self):
        assert dynamics.count_separated_solutions(dynamics.OdeSpec(5.0, 6.0, ZERO), 1.0) == 3
        assert dynamics.count_separated_solutions(dynamics.OdeSpec(5.0, 7.0, ZERO), 1.0) == 1

    def test_empty_below_the_origin(self):
        # lam + sup y <= -1: x' <= -1 on all of x >= 0, for every c
        for c in (3.0, 4.0, 5.0):
            spec = dynamics.OdeSpec(c, -2.0, ZERO)
            assert dynamics.find_periodic_solutions(spec, 1.0) == []
            assert dynamics.count_separated_solutions(spec, 1.0) == 0

    def test_monotone_count_in_lambda(self):
        counts = [
            dynamics.count_separated_solutions(dynamics.OdeSpec(5.0, lam, ZERO), 1.0)
            for lam in (5.0, 6.0, 7.0)
        ]
        assert counts == [1, 3, 1]

    @pytest.mark.parametrize("T", [1.0, 3.0])
    def test_rejects_a_period_the_input_does_not_repeat_after(self, T):
        # the input has period 2 pi: a time-1 or time-3 map has fixed points,
        # but they are no periodic solutions
        spec = dynamics.OdeSpec(5.0, 0.5 * (model.lam1(5.0) + model.lam2(5.0)), COSINE)
        censuses = (
            dynamics.find_periodic_solutions,
            dynamics.count_separated_solutions,
            lambda spec, T: dynamics._certified_crossings([spec], T, 33),
        )
        for census in censuses:
            with pytest.raises(ValueError, match=f"a census at T = {T} needs an input that repeats after T"):
                census(spec, T)

    @pytest.mark.parametrize("T", [2.0 * math.pi, 4.0 * math.pi])
    def test_accepts_a_multiple_of_the_period(self, T):
        spec = dynamics.OdeSpec(5.0, 0.5 * (model.lam1(5.0) + model.lam2(5.0)), COSINE)
        sols = dynamics.find_periodic_solutions(spec, T)
        assert [s.kind for s in sols] == ["attractive", "repulsive", "attractive"]
        assert dynamics.count_separated_solutions(spec, T) == 3

    @pytest.mark.parametrize("T", [0.3, 1.0, math.e, 2.0 * math.pi])
    def test_constant_input_accepts_any_period(self, T):
        assert dynamics.count_separated_solutions(dynamics.OdeSpec(5.0, 6.0, ZERO), T) == 3

    def test_rejects_an_input_that_is_not_periodic(self):
        spec = dynamics.OdeSpec(5.0, 6.0, INCOMMENSURATE)
        with pytest.raises(ValueError, match="constant or periodic"):
            dynamics.count_separated_solutions(spec, 2.0 * math.pi)


class TestFamilyScan:
    """``_brackets`` on a family of OdeSpecs: every member's grid stacked
    into one solve, as the threshold census solves several exponents r."""

    TRIG = signals.TrigSum(0.0, ((0.04, 1.0, -math.pi / 2.0),))

    def test_entries_are_each_members_rhs(self):
        # members with their own lambda and amplitude, states on both
        # branches of gbar: every entry of the stacked field is that member's
        # OdeSpec.rhs, bit for bit
        specs = [
            dynamics.OdeSpec(5.0, lam, signals.TrigSum(0.01, ((a, 1.0, 0.3),)))
            for lam, a in ((6.0, 0.02), (6.01, 0.03), (6.05, 0.04))
        ]
        field, nodes = dynamics._family_field(specs, 2.0 * math.pi, [50] * 3)
        assert len(nodes) == 0
        rng = np.random.default_rng(1)
        x = rng.uniform(-2.5, 3.0, (3, 50))
        for t in rng.uniform(0.0, 2.0 * math.pi, 5).tolist():
            got = field(t, x.ravel()).reshape(x.shape)
            for k, spec in enumerate(specs):
                assert np.array_equal(got[k], spec.rhs(t, x[k]))

    def test_equal_blocks_keep_the_reshape_floats(self):
        # the drive repeated over each block gives the floats of the drive
        # broadcast over the rows of the reshaped states, and so the same scan
        specs = [
            dynamics.OdeSpec(5.0, lam, signals.TrigSum(0.01, ((a, 1.0, 0.3),)))
            for lam, a in ((6.0, 0.02), (6.01, 0.03), (6.05, 0.04))
        ]
        T = 2.0 * math.pi

        def reshaped(t, y):
            drive = np.array([spec.lam + spec._signal_at(t) for spec in specs])
            return specs[0]._rhs_driven(drive[:, None], y.reshape(len(specs), -1)).ravel()

        field, _ = dynamics._family_field(specs, T, [50] * 3)
        rng = np.random.default_rng(2)
        x = rng.uniform(-2.5, 3.0, 3 * 50)
        for t in rng.uniform(0.0, T, 5).tolist():
            assert np.array_equal(field(t, x), reshaped(t, x))
        grids = [np.linspace(*dynamics._scan_interval(spec), 65) for spec in specs]
        xs = np.concatenate(grids)
        want = dynamics.solve_ivp(
            reshaped, 0.0, xs, T, dynamics.ABSTOL, dynamics.RELTOL, t_eval=[T], nodes=[], states=xs.size
        ).y[:, -1] - xs
        assert np.array_equal(np.concatenate(dynamics._displacement_grid(specs, T, grids)), want)

    def test_unequal_blocks_are_each_members_rhs(self):
        specs = [dynamics.OdeSpec(5.0, lam, signals.TrigSum(0.01, ((0.03, 1.0, 0.3),))) for lam in (6.0, 6.01, 6.05)]
        sizes = [7, 50, 21]
        field, _ = dynamics._family_field(specs, 2.0 * math.pi, sizes)
        rng = np.random.default_rng(3)
        x = rng.uniform(-2.5, 3.0, sum(sizes))
        blocks = np.split(x, np.cumsum(sizes)[:-1])
        for t in rng.uniform(0.0, 2.0 * math.pi, 5).tolist():
            for spec, block, got in zip(specs, blocks, np.split(field(t, x), np.cumsum(sizes)[:-1])):
                assert np.array_equal(got, spec.rhs(t, block))

    @staticmethod
    def assert_members_rhs(specs, sizes, T, seed):
        # every entry of the family field is its member's OdeSpec.rhs, bit
        # for bit and sign bit for sign bit, on states of both branches of
        # gbar and at +-0
        field, _ = dynamics._family_field(specs, T, sizes)
        rng = np.random.default_rng(seed)
        x = rng.uniform(-2.5, 3.0, sum(sizes))
        x[::5], x[1::7] = 0.0, -0.0
        cuts = np.cumsum(sizes)[:-1]
        for t in rng.uniform(0.0, T, 5).tolist() + [0.0, T]:
            for spec, block, got in zip(specs, np.split(x, cuts), np.split(field(t, x), cuts)):
                want = spec.rhs(t, block)
                assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("eps", [0.025, 0.05])
    def test_threshold_family_is_each_members_rhs(self, eps):
        # the family of one round of r_threshold: 17 exponents r, whose drives
        # share the one cosine and differ in their amplitude
        rs = np.linspace(1.40, 1.46, 17).tolist()
        specs = [dynamics.OdeSpec(5.0, 0.0, relaxation.RelaxationSpec(5.0, eps, r).signal()) for r in rs]
        self.assert_members_rhs(specs, [relaxation.COUNT_SEEDS] * len(specs), relaxation.TWO_PI / eps, 5)

    def test_mixed_cosine_sums_are_each_members_rhs(self):
        # term lists of 0, 1, 2 and 3 terms, some (theta, phi) shared, padded
        # to the longest; unequal blocks, one of them empty.  The constant
        # member's drive is -0.0, which its padding leaves -0.0
        specs = [
            dynamics.OdeSpec(5.0, -0.0, signals.Constant(-0.0)),
            dynamics.OdeSpec(5.0, 6.0, signals.TrigSum(0.01, ((0.03, 1.0, 0.0),))),
            dynamics.OdeSpec(5.0, 6.02, signals.TrigSum(0.0, ((0.04, 1.0, 0.3),))),
            dynamics.OdeSpec(5.0, 6.01, signals.TrigSum(-0.02, ((0.02, 1.0, 0.3), (0.015, 2.0, -1.1)))),
            dynamics.OdeSpec(5.0, 6.05, signals.FourierCesaro(0.005, (0.02, -0.01), (0.015,), 6)),
        ]
        self.assert_members_rhs(specs, [23, 9, 0, 40, 17], 2.0 * math.pi, 6)

    def test_sampled_members_are_each_members_rhs(self):
        # a family with a sampled input keeps one drive per member
        specs = [dynamics.OdeSpec(5.0, lam, SAMPLED) for lam in (6.0, 6.01, 6.05)]
        self.assert_members_rhs(specs, [11, 30, 4], SAMPLED.period, 7)

    @pytest.mark.parametrize("name", ["constant", "trig", "cesaro", "sampled"])
    def test_one_member_is_its_rhs(self, name):
        # the drive of a one-member family is one float added in place: every
        # entry is the member's OdeSpec.rhs, bit for bit, on both branches
        y = {
            "constant": signals.Constant(0.3),
            "trig": signals.TrigSum(0.01, ((0.03, 1.0, 0.3),)),
            "cesaro": signals.FourierCesaro(0.005, (0.02, -0.01), (0.015,), 6),
            "sampled": SAMPLED,
        }[name]
        spec = dynamics.OdeSpec(5.0, 6.0, y)
        field, _ = dynamics._family_field([spec], 2.0 * math.pi, [165])
        rng = np.random.default_rng(4)
        x = rng.uniform(-2.5, 3.0, 165)
        for t in rng.uniform(0.0, 2.0 * math.pi, 5).tolist() + [0.0, 2.0 * math.pi]:
            assert np.array_equal(field(t, x), spec.rhs(t, x))

    def test_one_member_is_scipy_rk45_bit_for_bit(self):
        # a one-member family's field is the member's OdeSpec.rhs float for
        # float, so its displacements are scipy's RK45 on OdeSpec.rhs
        spec = dynamics.OdeSpec(5.0, 0.5 * (model.lam1(5.0) + model.lam2(5.0)), self.TRIG)
        T, xs = 2.0 * math.pi, np.linspace(*dynamics._scan_interval(spec), 257)
        ref = solve_ivp(spec.rhs, (0.0, T), xs, method="RK45", atol=dynamics.ABSTOL, rtol=dynamics.RELTOL, t_eval=[T])
        want = ref.y[:, -1] - xs
        (got,) = dynamics._displacement_grid([spec], T, [xs])
        assert np.array_equal(got, want)
        ((got_xs, got_d),) = dynamics._brackets([spec], T, 257)
        assert np.array_equal(got_xs, xs) and np.array_equal(got_d, want)
        assert dynamics._sign_changes(got_xs, got_d)[0].size == 3

    def test_members_get_their_own_grids_and_brackets(self):
        # lambda below, inside and above the fold window: one, three and one
        # crossings, each on the member's own scan interval
        lams = (model.lam1(5.0) - 0.2, 0.5 * (model.lam1(5.0) + model.lam2(5.0)), model.lam2(5.0) + 0.2)
        specs = [dynamics.OdeSpec(5.0, lam, self.TRIG) for lam in lams]
        family = dynamics._brackets(specs, 2.0 * math.pi, 257)
        levels = [[dynamics._sign_changes(xs[::2], d[::2]), dynamics._sign_changes(xs, d)] for xs, d in family]
        assert [[b[0].size for b in nested] for nested in levels] == [[1, 1], [3, 3], [1, 1]]
        for spec, (_, brackets) in zip(specs, levels):
            lo, hi = dynamics._scan_interval(spec)
            assert all(lo <= xa < xb <= hi for xa, xb, _, _ in zip(*brackets))

    @pytest.mark.parametrize("other", [dynamics.OdeSpec(8.0, 6.0, TRIG)], ids=["c"])
    def test_rejects_a_mixed_family(self, other):
        with pytest.raises(ValueError, match="a family scan needs one c and set of kinks"):
            dynamics._brackets([dynamics.OdeSpec(5.0, 6.0, self.TRIG), other], 2.0 * math.pi, 65)

    def test_accepts_members_of_other_fundamental_periods(self):
        # frequencies 1 and 2 both repeat after T = 2 pi: each member's count
        # in the family is its solo count
        lam = 0.5 * (model.lam1(5.0) + model.lam2(5.0))
        specs = [dynamics.OdeSpec(5.0, lam, signals.TrigSum(0.0, ((0.04, k, 0.0),))) for k in (1.0, 2.0)]
        family = dynamics._brackets(specs, 2.0 * math.pi, 257)
        solo = [dynamics._brackets([spec], 2.0 * math.pi, 257)[0] for spec in specs]
        counts = [dynamics._sign_changes(*grid)[0].size for grid in family]
        assert counts == [dynamics._sign_changes(*grid)[0].size for grid in solo] == [3, 3]

    def test_rejects_members_with_other_kinks(self):
        # a sampled input of the same period: the solver's steps end at its nodes
        with pytest.raises(ValueError, match="a family scan needs one c and set of kinks"):
            dynamics._brackets([dynamics.OdeSpec(5.0, 6.0, self.TRIG), dynamics.OdeSpec(5.0, 6.0, SAMPLED)],
                               2.0 * math.pi, 65)


def certified_counts(specs, T, n):
    """(counts, solves): the crossings of each member's grid from
    ``_certified_crossings``, and its solves."""
    crossings, solves = dynamics._certified_crossings(specs, T, n)
    return [xa.size for xa, *_ in crossings], solves


class TestCertifiedCounts:
    """``_certified_crossings``: a coarse family scan, then the cells the
    monotone period map cannot clear cut into eighths until they are
    cleared or narrower than DEDUP_TOL."""

    @pytest.mark.parametrize("fold, offset", [(model.lam1, 5e-7), (model.lam2, -1e-10)], ids=["lam1", "lam2"])
    def test_close_pair_in_one_coarse_cell(self, fold, offset):
        # autonomous, T = 1, lambda near a fold: the close pair of equilibria
        # (4.9e-3 apart at lam1 + 5e-7; 6e-5 apart at lam2 - 1e-10, around
        # x1, which a seed of the grid lies 5.6e-5 above) shares one cell of
        # the 33-seed grid (spacing 5e-2), whose plain count sees only the
        # far equilibrium
        c = 4.05
        spec = dynamics.OdeSpec(c, fold(c) + offset, ZERO)
        assert len(autonomous_equilibria(c, spec.lam)) == 3
        assert dynamics._sign_changes(*dynamics._brackets([spec], 1.0, 33)[0])[0].size == 1
        counts, solves = certified_counts([spec], 1.0, 33)
        assert counts == [3]
        # each round divides the open cells' width by 8, down to DEDUP_TOL
        lo, hi = dynamics._scan_interval(spec)
        assert 1 < solves <= 1 + math.ceil(math.log((hi - lo) / 32 / dynamics.DEDUP_TOL, 8))

    def test_family_gives_each_member_its_solo_count(self):
        # members that need 6 rounds and 1: each round solves only the open
        # cells' seeds, in blocks of unequal size, until no member has one
        c = 4.05
        specs = [dynamics.OdeSpec(c, lam, ZERO) for lam in (model.lam1(c) + 5e-7, model.lam2(c) + 1.0)]
        solo = [certified_counts([spec], 1.0, 33) for spec in specs]
        counts, solves = certified_counts(specs, 1.0, 33)
        assert counts == [n for (n,), _ in solo] == [3, 1]
        assert solves == max(k for _, k in solo)

    def test_empty_scan_interval_makes_no_solve(self):
        # c <= 4 and lam + sup y <= -1: no solution is bounded above 0
        (crossings,), solves = dynamics._certified_crossings([dynamics.OdeSpec(3.0, -2.0, ZERO)], 1.0, 33)
        assert [a.size for a in crossings] == [0] * 4 and solves == 0

    def test_empty_member_enters_as_empty_arrays(self, monkeypatch):
        # lam = -2 leaves no scan interval: that member's grid and crossings
        # are empty arrays, and the live members get the grids, crossings and
        # solves of the live members alone, every certification round included
        c = 4.05
        live = [dynamics.OdeSpec(c, lam, ZERO) for lam in (model.lam1(c) + 5e-7, model.lam2(c) + 1.0)]
        mixed = [live[0], dynamics.OdeSpec(c, -2.0, ZERO), live[1]]
        solves = CountedMap(dynamics.solve_ivp)
        monkeypatch.setattr(dynamics, "solve_ivp", solves)

        def census(specs):
            start = solves.calls
            grids = dynamics._brackets(specs, 1.0, 33)
            crossings, rounds = dynamics._certified_crossings(specs, 1.0, 33)
            return grids, crossings, rounds, solves.calls - start

        grids, crossings, rounds, made = census(live)
        got_grids, got_crossings, got_rounds, got_made = census(mixed)
        assert [a.size for a in got_grids[1] + got_crossings[1]] == [0] * 6
        assert (got_rounds, got_made) == (rounds, made) and rounds > 2
        for got, want in zip(got_grids[::2] + got_crossings[::2], grids + crossings):
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_all_empty_family_makes_no_solve(self, monkeypatch):
        solves = CountedMap(dynamics.solve_ivp)
        monkeypatch.setattr(dynamics, "solve_ivp", solves)
        specs = [dynamics.OdeSpec(5.0, lam, ZERO) for lam in (-2.0, -3.0)]
        grids = dynamics._brackets(specs, 1.0, 33)
        crossings, rounds = dynamics._certified_crossings(specs, 1.0, 33)
        assert [a.size for grid in grids for a in grid] == [0] * 4
        assert [a.size for member in crossings for a in member] == [0] * 8
        assert rounds == 0 and solves.calls == 0

    @pytest.mark.parametrize("T", [0.0, math.nan])
    def test_needs_positive_period(self, T):
        with pytest.raises(ValueError, match="a census requires a finite period T > 0"):
            dynamics._certified_crossings([dynamics.OdeSpec(5.0, 6.0, ZERO)], T, 33)


# the defect-16 inputs at c = 5: a constant, a one-term and a two-term trig
# input, a Cesaro input and a 16-node sampled input (the last three drawn as
# the benchmark's census inputs are, from random.Random(5))
NEAR_FOLD_INPUTS = {
    "constant": ZERO,
    "trig": signals.TrigSum(0.0, ((0.03, 1.0, 0.4),)),
    "two-term trig": signals.TrigSum(
        0.007428094894485643,
        ((-0.02142888141391579, 1.0, 0.451960424964584), (0.011900488488254046, 2.0, 0.011151788113234074)),
    ),
    "cesaro": signals.FourierCesaro(
        0.002458033897794039, (0.009671479570429176, 0.011807742622627865), (0.017698011351082014,), 6
    ),
    "sampled": signals.SampledPeriodic(
        2.0 * math.pi,
        tuple(2.0 * math.pi * k / 16 for k in range(16)),
        (
            -0.022838037792319008, -0.0260122636274663, -0.01893519557678526, -0.008796000661083027,
            -0.0008407903074616943, 0.010087363387350055, 0.014586872448543791, 0.02228902103298277,
            0.02368252693874524, 0.023876094065064024, 0.019133014788316312, 0.008578355194019109,
            0.00016931207546555874, -0.009185449098541387, -0.014439115766235324, -0.02111504853592624,
        ),
    ),
}


@functools.cache
def near_fold_lambdas(name):
    """(lambda_minus, lambda_plus) of the input at c = 5: lam1 and lam2 for
    the constant, the fold solve's to 1e-12 otherwise."""
    if name == "constant":
        return model.lam1(5.0), model.lam2(5.0)
    return dynamics.estimate_lambda_pm(5.0, NEAR_FOLD_INPUTS[name], tol=1e-12)[:2]


class TestCertifiedCensus:
    """Every census reads the certified grid (``_certified_crossings``),
    which cuts only a grid that shows fewer than three crossings."""

    @pytest.mark.parametrize("name", list(NEAR_FOLD_INPUTS))
    @pytest.mark.parametrize(
        "fold, offset, count",
        [(0, -1e-8, 1), (0, 1e-8, 3), (1, -1e-8, 3), (1, 1e-8, 1)],
        ids=["below lambda-", "above lambda-", "below lambda+", "above lambda+"],
    )
    def test_near_fold_pair_is_found(self, name, fold, offset, count):
        # 1e-8 inside a fold the close pair shares a cell of the 2,049-seed
        # grid, whose plain scan reads one solution (at lambda+ for every
        # input, at lambda- for the constant and the trig inputs); the
        # certified grid finds it, and 1e-8 outside the window it finds none
        lam = near_fold_lambdas(name)[fold] + offset
        spec = dynamics.OdeSpec(5.0, lam, NEAR_FOLD_INPUTS[name])
        T = dynamics.signal_period(spec.signal)
        sols = dynamics.find_periodic_solutions(spec, T)
        assert len(sols) == count == dynamics.count_separated_solutions(spec, T)
        # the pair's multipliers lie within NONHYP_TOL of 1 at some inputs,
        # so their signs, not their tags, alternate
        assert [s.log_multiplier < 0.0 for s in sols] == [True, False, True][:count]

    def test_three_crossings_are_not_cut(self, monkeypatch):
        # mid-window the 2,049-seed grid shows three crossings and leaves 16
        # cells open next to them: the census is its one scan, no round
        spec = dynamics.OdeSpec(5.0, 0.5 * (model.lam1(5.0) + model.lam2(5.0)), ZERO)
        ((xs, d),) = dynamics._brackets([spec], 1.0, dynamics.CENSUS_SEEDS)
        assert dynamics._sign_changes(xs, d)[0].size == 3 and dynamics._open_cells(xs, d).size > 0
        grids = CountedMap(dynamics._displacement_grid)
        monkeypatch.setattr(dynamics, "_displacement_grid", grids)
        assert len(dynamics.find_periodic_solutions(spec, 1.0)) == 3
        assert grids.calls == 1

    def test_single_crossing_near_a_fold_is_certified(self, monkeypatch):
        # 1e-8 above lam2 the one crossing's neighbours are not cleared, so
        # the census cuts them in further rounds before it reads one solution
        grids = CountedMap(dynamics._displacement_grid)
        monkeypatch.setattr(dynamics, "_displacement_grid", grids)
        assert len(dynamics.find_periodic_solutions(dynamics.OdeSpec(5.0, model.lam2(5.0) + 1e-8, ZERO), 1.0)) == 1
        assert grids.calls > 1


@st.composite
def band_inputs(draw):
    """A small trig, Cesaro or sampled input of period 2 pi (or pi)."""
    small, phase = st.floats(-0.05, 0.05), st.floats(0.0, 2.0 * math.pi)
    kind = draw(st.sampled_from(["trig", "cesaro", "sampled"]))
    a0 = draw(st.floats(-0.02, 0.02))
    if kind == "trig":
        ks = draw(st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=1, max_size=2, unique=True))
        return signals.TrigSum(a0, tuple((draw(small), k, draw(phase)) for k in ks))
    if kind == "cesaro":
        a = tuple(draw(st.lists(small, min_size=1, max_size=2)))
        return signals.FourierCesaro(a0, a, tuple(draw(st.lists(small, max_size=2))), draw(st.integers(2, 6)))
    values = tuple(draw(st.lists(small, min_size=4, max_size=12)))
    n = len(values)
    return signals.SampledPeriodic(2.0 * math.pi, tuple(2.0 * math.pi * k / n for k in range(n)), values)


def wide_oracle(spec, T):
    """(seeds, P(x) - x) of a census on ``wide_interval`` on 4,097 seeds, d
    None where a seed escapes."""
    xs = np.linspace(*wide_interval(spec), 4097)
    try:
        return xs, dynamics._displacement_grid([spec], T, [xs])[0]
    except dynamics.FiniteEscapeError:
        return xs, None


BAND_C = [0.5, 3.0, 4.0, 4.05, 5.0, 8.0, 12.0]


def band_lambdas(c, lam_lo, lam_hi):
    """lam over a range past both folds, and the lam that put a drive
    lam + lam_lo or lam + lam_hi within 1e-14 of lam1, lam2 or cshift."""
    lams = list(np.linspace(-3.0, 18.0, 43))
    if c >= 4.0:
        for k in (model.lam1(c), model.lam2(c), model.cshift(c)):
            lams += [k + dk - shift for dk in (-1e-14, 0.0, 1e-14) for shift in (lam_lo, lam_hi)]
    return lams


class TestScanInterval:
    """The census interval is the band where x' = lam + y(t) + gbar(x) can
    vanish, widened by MU: every periodic solution lies inside it."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        y=band_inputs(),
        c=st.sampled_from([4.05, 5.0, 8.0, 12.0]),
        u=st.integers(0, 1000),
    )
    def test_band_keeps_every_crossing_of_the_wide_interval(self, y, c, u):
        # lambda from 0.2 below lam1 to 0.2 above lam2, in 1,000 steps
        lam = model.lam1(c) - 0.2 + u / 1000.0 * (model.lam2(c) - model.lam1(c) + 0.4)
        spec, T = dynamics.OdeSpec(c, lam, y), dynamics.signal_period(y)
        band = dynamics._scan_interval(spec)
        xs, d = wide_oracle(spec, T)
        oracle = None if d is None else dynamics._sign_changes(xs, d)
        if band is None:
            assert oracle is None or oracle[0].size == 0
            return
        floor, ceiling = band
        ((bx, bd),) = dynamics._brackets([spec], T, dynamics.CENSUS_SEEDS)
        # x' >= MU below the floor and <= -MU above the ceiling; the floor
        # clipped at 0 is no such edge
        if floor > 0.0:
            assert bd[0] > 0.0
        assert bd[-1] < 0.0
        if oracle is not None:
            assert all(floor < start < ceiling for start in oracle[3])
            assert dynamics._sign_changes(bx, bd)[0].size == oracle[0].size

    @pytest.mark.parametrize("c", BAND_C, ids=[f"{c}-full" for c in BAND_C])
    def test_band_edges_meet_their_definition(self, c):
        # the oracle is the band's definition: below the floor x' >= MU for
        # every t, and above the ceiling x' <= -MU; an edge that is not
        # clipped is a root of its constant-drive equation.  Drives at a
        # fold (lam1, lam2), give or take 1e-14, may take either edge or
        # none, so only the definition is asserted
        for y in (ZERO, COSINE, signals.TrigSum(-0.03, ((0.2, 1.0, 0.7), (0.05, 3.0, 0.0)))):
            at = dynamics.OdeSpec(c, 0.0, y)._signal_at
            lam_lo, lam_hi = at.lo - dynamics.MU, at.hi + dynamics.MU  # the drives are lam + these
            for lam in band_lambdas(c, lam_lo, lam_hi):
                spec = dynamics.OdeSpec(c, lam, y)
                band = dynamics._scan_interval(spec)

                def beyond(xs, sign):  # where x' >= MU (sign 1) or <= -MU (-1) at every t
                    drive = lam + (at.lo if sign > 0.0 else at.hi)
                    margin = sign * spec._rhs_driven(drive, xs) - dynamics.MU
                    return margin >= -1e-11 * (1.0 + abs(drive))

                if band is None:
                    xs = np.linspace(0.0, 40.0, 8001)
                    assert np.all(beyond(xs, 1.0) | beyond(xs, -1.0)), (c, lam)
                    continue
                floor, ceiling = band
                assert 0.0 <= floor < ceiling
                if floor > 0.0:
                    assert np.all(beyond(np.linspace(0.0, floor, 2001)[:-1], 1.0)), (c, lam, band)
                assert np.all(beyond(np.linspace(ceiling, ceiling + 40.0, 2001)[1:], -1.0)), (c, lam, band)
                for edge, sign in ((floor, 1.0), (ceiling, -1.0)):
                    if edge > 0.0:
                        k = lam + (lam_lo if sign > 0.0 else lam_hi)
                        assert abs(spec._rhs_driven(k, np.array([edge]))[0]) <= 1e-9, (c, lam, edge)

    def test_band_past_the_escape_bound_is_rejected_before_any_solve(self, monkeypatch):
        # a drive near 1e6 puts the ceiling past ESCAPE_BOUND, whose seeds
        # would escape; one such member rejects the family before its solve
        solves = CountedMap(dynamics.solve_ivp)
        monkeypatch.setattr(dynamics, "solve_ivp", solves)
        specs = [dynamics.OdeSpec(5.0, 6.0, ZERO), dynamics.OdeSpec(5.0, dynamics.ESCAPE_BOUND, ZERO)]
        assert dynamics._scan_interval(specs[0])[1] < 4.0
        with pytest.raises(ValueError, match=r"^the census interval \[.*\] reaches past the escape bound \|x\| = 1e\+06$"):
            dynamics._brackets(specs, 1.0, 33)
        assert solves.calls == 0

    @pytest.mark.parametrize("name,side", [("constant", "plus"), ("trig", "minus"), ("trig", "plus")])
    def test_pair_1e7_inside_the_fold_is_resolved(self, name, side):
        # 1e-7 inside the fold window (c = 5) the close pair, about 1.4e-3
        # apart, straddles a seed of the census grid (spacing about 1.1e-3):
        # all three solutions are found.  At 1e-8 (pair 4e-4 apart) the
        # census still reads one
        c, y = 5.0, (ZERO if name == "constant" else FOLD_SIGNALS["trig"])
        lam_minus, lam_plus, _ = dynamics.estimate_lambda_pm(c, y, tol=1e-10)
        lam = lam_minus + 1e-7 if side == "minus" else lam_plus - 1e-7
        T = dynamics.signal_period(y)
        sols = dynamics.find_periodic_solutions(dynamics.OdeSpec(c, lam, y), T)
        assert [s.kind for s in sols] == ["attractive", "repulsive", "attractive"]
        assert dynamics.count_separated_solutions(dynamics.OdeSpec(c, lam, y), T) == 3


class TestFiniteTimeExponent:
    def test_zero_at_saddle_node(self):
        c = 5.0
        spec = dynamics.OdeSpec(c, model.lam1(c), ZERO)
        traj = dynamics.integrate(spec, 0.0, model.x2(c), 10.0, n_samples=200)
        assert abs(dynamics.finite_time_exponent(spec, traj)) < 1e-4

    def test_negative_above_upper_branch(self):
        c = 5.0
        spec = dynamics.OdeSpec(c, model.lam1(c), ZERO)
        traj = dynamics.integrate(spec, 0.0, model.x2(c) + 1.0, 10.0, n_samples=200)
        assert dynamics.finite_time_exponent(spec, traj) < 0.0

    def test_rejects_zero_span(self):
        spec = dynamics.OdeSpec(5.0, 6.0, ZERO)
        traj = dynamics.Trajectory(np.array([1.0, 1.0]), np.array([2.0, 2.0]))
        with pytest.raises(ValueError):
            dynamics.finite_time_exponent(spec, traj)


class TestBifurcationEstimates:
    def test_autonomous_recovers_lam1_lam2(self):
        c = 5.0
        lam_minus, lam_plus, meta = dynamics.estimate_lambda_pm(c, ZERO, tol=1e-5)
        assert lam_minus == pytest.approx(model.lam1(c), abs=1e-4)
        assert lam_plus == pytest.approx(model.lam2(c), abs=1e-4)
        assert meta["tol"] == 1e-5

    def test_forced_estimates_stay_in_sandwich(self):
        c = 5.0
        amp = 0.01
        y = signals.TrigSum(0.0, ((amp, 1.0, -math.pi / 2.0),))
        lam_minus, lam_plus, _ = dynamics.estimate_lambda_pm(c, y, tol=1e-4)
        slop = 1e-3
        assert model.lam1(c) - amp - slop <= lam_minus <= model.lam1(c) + amp + slop
        assert model.lam2(c) - amp - slop <= lam_plus <= model.lam2(c) + amp + slop

    def test_rejects_subcritical(self):
        with pytest.raises(model.DomainError):
            dynamics.estimate_lambda_pm(4.0, ZERO)

    @pytest.mark.parametrize("c", [math.inf, math.nan])
    def test_rejects_non_finite_c_without_a_warning(self, c):
        y = signals.TrigSum(0.0, ((0.03, 1.0, 0.4),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(model.DomainError, match=r"estimate_lambda_pm requires c > 4, got c = (inf|nan)$"):
                dynamics.estimate_lambda_pm(c, y)


INCOMMENSURATE = signals.TrigSum(0.0, ((0.02, 1.0, 0.0), (0.02, math.sqrt(2.0), 0.0)))


class TestSignalPeriod:
    @pytest.mark.parametrize(
        "y",
        [
            signals.Constant(0.3),
            signals.TrigSum(0.3, ((0.0, 1.0, 0.0), (0.0, math.sqrt(2.0), 0.5))),
            signals.FourierCesaro(0.3, (0.0, 0.0), (0.0,), 6),
        ],
    )
    def test_constant_valued_is_one(self, y):
        assert dynamics.signal_period(y) == 1.0

    def test_periodic(self):
        assert dynamics.signal_period(signals.TrigSum(0.0, ((0.1, 2.0, 0.0), (0.1, 3.0, 0.0)))) == pytest.approx(
            2.0 * math.pi
        )
        assert dynamics.signal_period(signals.SampledPeriodic(3.0, (0.0, 1.0, 2.0, 2.5), (0.0, 1.0, 0.0, 1.0))) == 3.0

    def test_incommensurate_rejected(self):
        with pytest.raises(ValueError, match="constant or periodic"):
            dynamics.signal_period(INCOMMENSURATE)
        with pytest.raises(ValueError, match="constant or periodic"):
            dynamics.estimate_lambda_pm(5.0, INCOMMENSURATE)


def wide_interval(spec):
    """The wide census interval [0, rho] of the full equation, with
    gbar(rho) = -max(lam2, lam + hi) - 1 (``comparison.wide_top``); None
    for c <= 4 once lam + hi <= -1."""
    rho = wide_top(spec.c, spec.lam, spec.signal)
    return None if rho is None else (0.0, rho)


def oracle_grid(c, lam, signal, kind, tol):
    """The oracle's seeds for the comparison equation ``kind``: its wide
    interval (``comparison.comparison_seeds``) on CENSUS_SEEDS seeds or,
    where their grid bias |gbar''(x_f)| h^2 / 8 in lambda would exceed
    tol / 2, on as many more as bring it below."""
    xs = comparison_seeds(c, lam, signal, kind, dynamics.CENSUS_SEEDS)
    x_f = model.x2(c) if kind == "concave-linear" else model.x1(c)
    h = math.sqrt(4.0 * tol / abs(model.gbar_deriv2(c, x_f)))
    if xs[1] - xs[0] <= h:
        return xs
    return comparison_seeds(c, lam, signal, kind, math.ceil((xs[-1] - xs[0]) / h) + 2)


def oracle_displacement(c, lam, signal, kind, T, tol):
    """(seeds, P(x) - x) of the comparison equation ``kind`` on
    ``oracle_grid``; d is None where a seed escapes."""
    xs = oracle_grid(c, lam, signal, kind, tol)
    try:
        return xs, comparison_displacement(c, lam, signal, kind, T, xs)
    except dynamics.FiniteEscapeError:
        return xs, None


def bisect_lambda_pm(c, signal, tol):
    """Oracle: bisection on "the census finds >= 2 separated solutions" over
    the closed-form sandwich bracket (an escaping trajectory counts as
    fewer), each census on ``oracle_grid``.  Returns (lambda_minus,
    lambda_plus, census calls per side)."""
    T = dynamics.signal_period(signal)
    b = signals.bounds(signal)
    margin = max(model.lam2(c) - model.lam1(c), 10.0 * tol)
    calls = {}

    def bisect(center, kind, two_above):
        lo, hi = center - b.sup - margin, center - b.inf + margin
        calls[kind] = 0

        def predicate(lam):
            calls[kind] += 1
            xs, d = oracle_displacement(c, lam, signal, kind, T, tol)
            return d is not None and dynamics._sign_changes(xs, d)[0].size >= 2

        if predicate(lo) == predicate(hi):
            raise RuntimeError(f"bracket [{lo:.6g}, {hi:.6g}] does not straddle the {kind} bifurcation")
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if predicate(mid) == two_above:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    lam_minus = bisect(model.lam1(c), "concave-linear", two_above=True)
    lam_plus = bisect(model.lam2(c), "linear-convex", two_above=False)
    return lam_minus, lam_plus, calls


FOLD_SIGNALS = {
    "constant": signals.Constant(0.02),
    "trig": signals.TrigSum(0.0, ((0.03, 1.0, 0.4),)),
    "cesaro": signals.FourierCesaro(0.005, (0.02, -0.01), (0.015,), 6),
}
SIDES = (("lambda_minus", "concave-linear"), ("lambda_plus", "linear-convex"))


def move_prediction(monkeypatch, lam=0.0, x=0.0):
    """Moves the averaged fold's predicted lambda by ``lam`` and its
    predicted state by ``x`` into the curved half of each comparison
    equation (up for the concave-linear one, down for the linear-convex one)."""
    predict = dynamics._averaged_fold

    def moved(c, signal, kind):
        guess_lam, guess_x = predict(c, signal, kind)
        return guess_lam + lam, guess_x + (x if kind == "concave-linear" else -x)

    monkeypatch.setattr(dynamics, "_averaged_fold", moved)


class TestFoldSolveAgainstBisection:
    @pytest.mark.parametrize("c", [5.0, 8.0, 12.0])
    @pytest.mark.parametrize("name", list(FOLD_SIGNALS))
    def test_matches_bisection(self, c, name):
        tol = 1e-5
        lam_minus, lam_plus, meta = dynamics.estimate_lambda_pm(c, FOLD_SIGNALS[name], tol=tol)
        want_minus, want_plus, calls = bisect_lambda_pm(c, FOLD_SIGNALS[name], tol)
        assert abs(lam_minus - want_minus) <= tol
        assert abs(lam_plus - want_plus) <= tol
        # fewer period-map solves than the bisection needs censuses
        for side, kind in SIDES:
            assert 2 <= meta["solves"][side] < calls[kind]

    def test_escaping_bracket_end(self):
        # slow forcing: at the upper end of the linear-convex bracket a seed
        # at rho - sqrt3, the top of the uncapped wide interval, runs off to
        # infinity within one period (11.6); the oracle's seeds end one seed
        # past x_c instead
        c, tol = 8.0, 1e-5
        y = signals.TrigSum(0.0, ((0.03, 0.54, 0.0),))
        T = dynamics.signal_period(y)
        hi = model.lam2(c) - signals.bounds(y).inf + (model.lam2(c) - model.lam1(c))
        with pytest.raises(dynamics.FiniteEscapeError):
            comparison_displacement(c, hi, y, "linear-convex", T, [wide_top(c, hi, y) - SQRT3])
        try:
            want = bisect_lambda_pm(c, y, tol)
        except RuntimeError as exc:
            with pytest.raises(RuntimeError, match=re.escape(str(exc))):
                dynamics.estimate_lambda_pm(c, y, tol=tol)
            return
        lam_minus, lam_plus, _ = dynamics.estimate_lambda_pm(c, y, tol=tol)
        assert abs(lam_minus - want[0]) <= tol
        assert abs(lam_plus - want[1]) <= tol

    @pytest.mark.parametrize("name", list(FOLD_SIGNALS))
    def test_sandwich_start_takes_fewer_scans(self, name):
        # the averaged fold leaves Newton 1 or 2 steps: at most 5 solves per fold
        _, _, meta = dynamics.estimate_lambda_pm(8.0, FOLD_SIGNALS[name], tol=1e-5)
        assert meta["solves"]["lambda_minus"] <= 5 and meta["solves"]["lambda_plus"] <= 5

    def test_solves_no_displacement_grid(self, monkeypatch):
        grid = RecordedGrid()
        monkeypatch.setattr(dynamics, "_displacement_grid", grid)
        for name in FOLD_SIGNALS:
            dynamics.estimate_lambda_pm(8.0, FOLD_SIGNALS[name], tol=1e-5)
        dynamics.estimate_lambda_pm(5.0, SAMPLED, tol=1e-5)
        assert grid.sizes == []

    def test_unsolved_input_names_its_side(self):
        # slow forcing at c = 8: neither the Newton solve nor a grid solve converges
        y = signals.TrigSum(0.005, ((0.03, 0.15, 0.4),))
        with pytest.raises(RuntimeError, match="^the Newton solve did not converge on the linear-convex fold$"):
            dynamics.estimate_lambda_pm(8.0, y, tol=1e-6)

    @pytest.mark.parametrize("kind", ["concave-linear", "linear-convex"])
    def test_start_on_the_linear_half_names_its_side(self, monkeypatch, kind):
        # a state 2 into the linear half starts an orbit that never leaves
        # it, where f'' = 0: M = N = 0 and the Newton step is undefined
        move_prediction(monkeypatch, x=-2.0)
        y = FOLD_SIGNALS["trig"]
        with pytest.raises(RuntimeError, match=f"^the Newton solve did not converge on the {kind} fold$"):
            dynamics._newton_fold(5.0, y, kind, dynamics.signal_period(y), 1e-5)

    @pytest.mark.parametrize("error", [dynamics.FiniteEscapeError, OverflowError])
    def test_failed_trial_step_is_halved(self, monkeypatch, error):
        # the first trial step escapes or overflows exp: it is halved, and
        # the solve reaches the same fold with more solves
        c, tol, y = 5.0, 1e-8, FOLD_SIGNALS["cesaro"]
        want_minus, want_plus, meta = dynamics.estimate_lambda_pm(c, y, tol=tol)
        system, count = dynamics._fold_system, {}

        def failing(c, lam, signal, kind, T, x):
            count[kind] = count.get(kind, 0) + 1
            if count[kind] == 2:  # each side's first trial step
                raise error("a failed trial")
            return system(c, lam, signal, kind, T, x)

        monkeypatch.setattr(dynamics, "_fold_system", failing)
        lam_minus, lam_plus, halved = dynamics.estimate_lambda_pm(c, y, tol=tol)
        assert abs(lam_minus - want_minus) <= tol and abs(lam_plus - want_plus) <= tol
        for side, _ in SIDES:
            assert halved["solves"][side] > meta["solves"][side]

    def test_stalled_solve_stops_early(self, monkeypatch):
        # the slow-forcing input of test_unsolved_input_names_its_side: the
        # trials of each Newton step on the linear-convex side escape, and the third failed trial of its second
        # step ends the solve after 7 of the FOLD_SOLVES = 40 solves
        y = signals.TrigSum(0.005, ((0.03, 0.15, 0.4),))
        system = CountedMap(dynamics._fold_system)
        monkeypatch.setattr(dynamics, "_fold_system", system)
        with pytest.raises(RuntimeError, match="^the Newton solve did not converge on the linear-convex fold$"):
            dynamics._newton_fold(8.0, y, "linear-convex", dynamics.signal_period(y), 1e-6)
        assert system.calls == 7

    @pytest.mark.parametrize("failing", [False, True], ids=["no-decrease", "failed-trials"])
    def test_step_gives_up_at_its_limit(self, monkeypatch, failing):
        # a fold system whose |F| never shrinks: the trial at t = FOLD_STEP_FLOOR
        # (after 4 halvings) ends the solve; one whose every trial escapes:
        # the (FOLD_FAILED_TRIALS + 1)-th failed trial does
        calls = []

        def stalled(c, lam, signal, kind, T, x):
            calls.append(lam)
            if failing and len(calls) > 1:
                raise dynamics.FiniteEscapeError("a failed trial")
            return (1.0, 1.0), ((1.0, 0.0), (0.0, 1.0))

        monkeypatch.setattr(dynamics, "_fold_system", stalled)
        with pytest.raises(RuntimeError, match="^the Newton solve did not converge on the concave-linear fold$"):
            dynamics._newton_fold(5.0, ZERO, "concave-linear", 1.0, 1e-5)
        trials = dynamics.FOLD_FAILED_TRIALS + 1 if failing else 1 - round(math.log2(dynamics.FOLD_STEP_FLOOR))
        assert len(calls) == 1 + trials == (4 if failing else 6)

    @pytest.mark.parametrize("kind", ["concave-linear", "linear-convex"])
    def test_root_with_the_wrong_curvature_is_refused(self, monkeypatch, kind):
        # P is concave (M < 0 at the fold) or convex (M > 0); a root whose M
        # has the other sign is not the fold
        system = dynamics._fold_system

        def flipped(c, lam, signal, side, T, x):
            F, ((a, b), (m, n)) = system(c, lam, signal, side, T, x)
            return F, ((a, b), (-m if side == kind else m, n))

        monkeypatch.setattr(dynamics, "_fold_system", flipped)
        with pytest.raises(RuntimeError, match=f"^the Newton solve did not converge on the {kind} fold$"):
            dynamics.estimate_lambda_pm(5.0, ZERO, tol=1e-5)

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-5, math.inf])
    def test_rejects_bad_tol(self, tol):
        with pytest.raises(ValueError, match="finite tol > 0"):
            dynamics.estimate_lambda_pm(5.0, ZERO, tol=tol)

    def test_fold_trial_builds_no_spec(self, monkeypatch):
        # every trial builds its five-state kernel from the float field and
        # the compiled input, so a fold solve makes no OdeSpec
        built, post_init = [], dynamics.OdeSpec.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        y = FOLD_SIGNALS["trig"]
        want = [dynamics._newton_fold(5.0, y, kind, dynamics.signal_period(y), 1e-5) for _, kind in SIDES]
        monkeypatch.setattr(dynamics.OdeSpec, "__post_init__", counted)
        got = [dynamics._newton_fold(5.0, y, kind, dynamics.signal_period(y), 1e-5) for _, kind in SIDES]
        assert got == want and all(figures["solves"] >= 2 for _, figures in got)
        assert built == []


class TestClosedForms:
    @pytest.mark.parametrize("c", [4.5, 5.0, 8.0, 12.0])
    def test_constant_input_gives_the_shifted_fold_values(self, c):
        # the averaged fold is exact here, so the solve ends at its start, and
        # no seed grid adds its bias |gbar''(x_f)| h^2 / 8 (up to 5.6e-6)
        a0 = 0.013
        lam_minus, lam_plus, meta = dynamics.estimate_lambda_pm(c, signals.Constant(a0), tol=1e-5)
        assert abs(lam_minus - (model.lam1(c) - a0)) <= 1e-9
        assert abs(lam_plus - (model.lam2(c) - a0)) <= 1e-9
        assert meta["newton_steps"] == {"lambda_minus": 1, "lambda_plus": 1}

    def test_two_pi_periodic_input_at_c_12(self):
        # over a period of 2 pi the linear half of the linear-convex equation
        # (slope dfrak = 2) grows e^(4 pi)-fold, so every seed near the top of
        # its scan interval escapes; the fold orbit does not
        _, lam_plus, _ = dynamics.estimate_lambda_pm(12.0, averaging_trig(1.0), tol=1e-6)
        assert lam_plus == pytest.approx(13.030346, abs=1e-5)


class TestSlowForcing:
    """c = 5 under a cos(theta t) with a = 0.03 and theta down to 0.09: slow
    forcing, over whose long period the seeds of a grid near the fold escape."""

    @pytest.mark.parametrize("theta,want", [(0.125, 6.1195048), (0.12, 6.1189544)])
    def test_linear_convex_fold_is_the_multiple_shooting_one(self, theta, want):
        c, a = 5.0, 0.03
        _, lam_plus, _ = dynamics.estimate_lambda_pm(c, signals.TrigSum(0.0, ((a, theta, 0.0),)), tol=1e-6)
        assert model.lam2(c) - a <= lam_plus <= model.lam2(c) + a
        assert lam_plus == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("theta", [0.1, 0.09])
    def test_concave_linear_fold_solves(self, theta):
        c, a = 5.0, 0.03
        y = signals.TrigSum(0.0, ((a, theta, 0.0),))
        lam_minus = dynamics._newton_fold(c, y, "concave-linear", dynamics.signal_period(y), 1e-6)[0]
        assert model.lam1(c) - a <= lam_minus <= model.lam1(c) + a


class RecordedGrid:
    """Stands in for ``dynamics._displacement_grid``: records the seed count
    of every solve."""

    def __init__(self):
        self.fn, self.sizes = dynamics._displacement_grid, []

    def __call__(self, specs, T, xs):
        self.sizes.append(sum(x.size for x in xs))
        return self.fn(specs, T, xs)


FOLD_KINDS = [("concave-linear", 1.0), ("linear-convex", -1.0)]


class TestFoldWindow:
    """A window of lambda around the fold solve's value: the extremal
    displacement on the oracle's grid changes sign inside it."""

    @pytest.mark.parametrize("kind,sign", FOLD_KINDS, ids=[k[0] for k in FOLD_KINDS])
    @pytest.mark.parametrize("c", [5.0, 8.0])
    @pytest.mark.parametrize("name", list(FOLD_SIGNALS))
    def test_window_finds_the_grid_extremum(self, name, c, kind, sign):
        # sign * d has its largest value below 0 where the census finds one
        # solution and above 0 where it finds two: below the fold and above
        # it (concave-linear, sign 1), or the other way round (linear-convex)
        tol, y = 1e-6, FOLD_SIGNALS[name]
        T = dynamics.signal_period(y)
        lam_minus, lam_plus, _ = dynamics.estimate_lambda_pm(c, y, tol=tol)
        lam = lam_minus if kind == "concave-linear" else lam_plus
        extremum = []
        for window_end in (lam - sign * tol, lam + sign * tol):
            _, d = oracle_displacement(c, window_end, y, kind, T, tol)
            extremum.append(np.max(sign * d))
        assert extremum[0] < 0.0 < extremum[1]


def averaging_trig(theta):
    return signals.TrigSum(0.01, ((0.05, theta, 0.4),))


def averaging_cesaro(theta):
    # harmonics theta and 2 theta, with an a and a b term on theta
    k = int(theta)
    a, b = [0.0] * (2 * k), [0.0] * (2 * k)
    a[k - 1], a[2 * k - 1], b[k - 1] = 0.04, -0.01, 0.03
    return signals.FourierCesaro(-0.005, tuple(a), tuple(b), 2 * k + 2)


# the one-term input at theta = 2 and 4 has period pi or pi/2; every
# Cesaro input has period 2 pi, as has SAMPLED
AVERAGING_CASES = [
    (c, theta, name) for c in (4.5, 5.0, 8.0, 12.0) for theta in (1.0, 2.0, 4.0) for name in ("trig", "cesaro")
] + [(c, 1.0, "sampled") for c in (4.5, 5.0, 8.0)]


class TestAveragedFold:
    @pytest.mark.parametrize("c,theta,name", AVERAGING_CASES)
    def test_rule_matches_the_fold_solve(self, c, theta, name):
        # the stated error is 5% of the shift plus 10 tol.  The largest gap
        # measured on these cases is 2.3% of the shift (c = 12, theta = 1,
        # lambda_plus); the averaging error stays within 1.2% of the shift at
        # c <= 8.  So the solved interval narrows by the predicted amount
        tol = 1e-8
        y = SAMPLED if name == "sampled" else (averaging_trig if name == "trig" else averaging_cesaro)(theta)
        a0 = signals._sampled_terms(y, 1)[0] if name == "sampled" else y.a0
        lam_minus, lam_plus, meta = dynamics.estimate_lambda_pm(c, y, tol=tol)
        for (side, _), lam, center in zip(SIDES, (lam_minus, lam_plus), (model.lam1(c), model.lam2(c))):
            guess = meta["prediction"][side]
            assert abs(lam - guess) <= 0.05 * abs(guess - (center - a0)) + 10.0 * tol
            assert meta["newton_steps"][side] <= 4

    @pytest.mark.parametrize("name", ["trig", "cesaro"])
    @pytest.mark.parametrize("miss", ["lambda", "seed", "far"])
    def test_wrong_prediction_still_matches_bisection(self, monkeypatch, miss, name):
        # a predicted lambda 0.02 or 1.0 too high, or a predicted state 1.0
        # (300 census grid steps) deeper into the curved half: Newton's
        # backtracking still reaches the fold, with more solves
        c, tol, y = 5.0, 1e-5, FOLD_SIGNALS[name]
        want_minus, want_plus, _ = bisect_lambda_pm(c, y, tol)
        _, _, meta = dynamics.estimate_lambda_pm(c, y, tol=tol)
        move_prediction(monkeypatch, **{"lambda": {"lam": 0.02}, "far": {"lam": 1.0}, "seed": {"x": 1.0}}[miss])
        lam_minus, lam_plus, moved = dynamics.estimate_lambda_pm(c, y, tol=tol)
        assert abs(lam_minus - want_minus) <= tol
        assert abs(lam_plus - want_plus) <= tol
        for side, _ in SIDES:
            assert moved["solves"][side] > meta["solves"][side]

    @pytest.mark.parametrize("c", [5.0, 8.0])
    def test_sampled_input_is_predicted(self, c):
        # the interpolant's series gives a prediction from which Newton
        # needs at most 3 steps
        tol = 1e-5
        lam_minus, lam_plus, meta = dynamics.estimate_lambda_pm(c, SAMPLED, tol=tol)
        want_minus, want_plus, _ = bisect_lambda_pm(c, SAMPLED, tol)
        assert abs(lam_minus - want_minus) <= tol
        assert abs(lam_plus - want_plus) <= tol
        for side, _ in SIDES:
            assert meta["newton_steps"][side] <= 3

    @pytest.mark.parametrize("kind", ["concave-linear", "linear-convex"])
    def test_predicted_seed_is_the_grid_extremum(self, kind):
        # at the predicted fold the extremal seed of CENSUS_SEEDS seeds over
        # [-sqrt3, rho - sqrt3] (spacing 2.4e-3 to 4e-3) is the seed of the
        # predicted state x_f - sqrt3 + Y(0) or its neighbour (measured on
        # these inputs), where Y(0) alone moves it by 1 to 8 grid steps
        sign = 1.0 if kind == "concave-linear" else -1.0
        inputs = [FOLD_SIGNALS["trig"], FOLD_SIGNALS["cesaro"], averaging_cesaro(2.0)]
        inputs += [averaging_trig(1.0), averaging_trig(4.0), SAMPLED]
        for c in (4.5, 5.0, 8.0):
            for y in inputs:
                lam, x0 = dynamics._averaged_fold(c, y, kind)
                xs = np.linspace(-SQRT3, wide_top(c, lam, y) - SQRT3, dynamics.CENSUS_SEEDS)
                d = comparison_displacement(c, lam, y, kind, dynamics.signal_period(y), xs)
                assert abs(np.argmax(sign * d) - round((x0 - xs[0]) / (xs[1] - xs[0]))) <= 1


# 16 nodes of a noisy sine on one period 2*pi, as the census benchmark draws them
SAMPLED_TIMES = tuple(2.0 * math.pi * k / 16 for k in range(16))
SAMPLED_VALUES = tuple(
    0.025 * math.sin(2.0 * math.pi * k / 16 + 0.7) + 0.0025 * math.cos(5.0 * k) for k in range(16)
)
SAMPLED = signals.SampledPeriodic(2.0 * math.pi, SAMPLED_TIMES, SAMPLED_VALUES)


def reference_flow(c, lam, x0, t0, t1):
    """x(t1) of x' = lam + y(t) + gbar(x) for the SAMPLED input, from its
    definition: DOP853 at rtol 1e-12, restarted at every node in between."""
    T = SAMPLED.period
    ts = np.concatenate([np.asarray(SAMPLED_TIMES) + m * T for m in range(-1, 3)])
    vs = np.tile(SAMPLED_VALUES, 4)
    y = lambda t: np.interp(t, ts, vs)
    g = lambda x: -x - 2.0 * c * x / (1.0 + x * x) if x >= 0.0 else -(1.0 + 2.0 * c) * x - x ** 3
    lo, hi = min(t0, t1), max(t0, t1)
    nodes = [t for t in ts if lo < t < hi]
    stops = (nodes if t1 > t0 else nodes[::-1]) + [t1]
    x, a = x0, t0
    for b in stops:
        sol = solve_ivp(lambda t, v: [lam + y(t) + g(v[0])], (a, b), [x], method="DOP853", rtol=1e-12, atol=1e-13)
        x, a = float(sol.y[0, -1]), b
    return x


def contraction_fixed_point(spec, T, xa, xb, attractive):
    """Fixed point by plain contraction of the period map, forward for an
    attractive crossing and backward for a repulsive one, stopped on
    |P(x) - x| < FP_TOL: an oracle that takes neither the Newton nor the
    bisection steps of ``_refine_fixed_point``."""
    x = 0.5 * (xa + xb)
    for _ in range(200):
        nxt, _ = dynamics.poincare_map_log(spec, T, x, backward=not attractive)
        if abs(nxt - x) < dynamics.FP_TOL:
            return nxt
        x = nxt
    raise AssertionError("the contraction did not converge")


def bisection_fixed_point(P, xa, xb, x):
    """(fixed point, map calls) of plain bisection on the sign of P(x) - x
    from the state x in [xa, xb], with the bracket and the stopping test of
    ``_refine_fixed_point``: the refinement without Newton steps."""
    calls = 0
    while True:
        nxt = P(x)
        calls += 1
        xa, xb = (x if nxt >= x else xa), (x if nxt <= x else xb)
        if xb - xa < dynamics.FP_TOL:
            return 0.5 * (xa + xb), calls
        x = 0.5 * (xa + xb)


class CountedMap:
    """Stands in for a ``dynamics`` function (``poincare_map_log`` mostly) and
    counts its calls."""

    def __init__(self, fn):
        self.fn, self.calls, self.last = fn, 0, None

    def __call__(self, *args, **kwargs):
        self.calls += 1
        self.last = self.fn(*args, **kwargs)
        return self.last


def solve(spec, t0, x0, t1, augmented, t_eval=None):
    """(times, states): ``dynamics._solve`` (augmented), or one run of the
    package's RK45 loop on ``OdeSpec.rhs`` alone through the input's kinks
    (plain, as the finite-difference oracle solves), both at the module's
    tolerances."""
    if augmented:
        return dynamics._solve(spec, t0, x0, t1, t_eval)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    sol = dynamics.solve_ivp(
        spec.rhs,
        t0,
        x0,
        t1,
        dynamics.ABSTOL,
        dynamics.RELTOL,
        t_eval=t_eval,
        nodes=spec._signal_at.kinks(t0, t1),
        states=x0.size,
    )
    return sol.t, sol.y


def recording_kernels(monkeypatch, record):
    """Makes every map solve's kernel (``dynamics._augmented_kernel``) call
    record(t, y, out) after each call."""
    factory = dynamics._augmented_kernel

    def recorded_factory(spec):
        kernel = factory(spec)

        def recorded(t, y):
            out = kernel(t, y)
            record(t, y, out)
            return out

        return recorded

    monkeypatch.setattr(dynamics, "_augmented_kernel", recorded_factory)


class TestSampledInput:
    """A sampled input is integrated node to node, so its period map is as
    smooth as the solver's tolerance allows."""

    C = 5.0
    LAM = 0.5 * (model.lam1(5.0) + model.lam2(5.0))

    def test_census_closes_under_reference(self):
        spec = dynamics.OdeSpec(self.C, self.LAM, SAMPLED)
        T = SAMPLED.period
        sols = dynamics.find_periodic_solutions(spec, T)
        assert [s.kind for s in sols] == ["attractive", "repulsive", "attractive"]
        for s in sols:
            # a repulsive orbit attracts backward in time
            t0, t1 = (0.0, T) if s.kind == "attractive" else (T, 0.0)
            assert abs(reference_flow(self.C, self.LAM, s.fixed_point, t0, t1) - s.fixed_point) <= 1e-8
            orbit = dynamics.integrate(spec, t0, s.fixed_point, t1)
            assert abs(orbit.values[-1] - orbit.values[0]) <= 1e-8

    def test_contraction_needs_no_brentq(self, monkeypatch):
        spec = dynamics.OdeSpec(self.C, self.LAM, SAMPLED)
        T = SAMPLED.period
        brackets = dynamics._stable_brackets(spec, T)
        assert brackets[0].size == 3

        def no_brentq(*args, **kwargs):
            raise AssertionError("_refine_fixed_point fell back to brentq")

        monkeypatch.setattr(dynamics, "brentq", no_brentq)
        for attractive in (True, False):
            batch = brackets[2] == attractive
            xa, xb, start = (a[batch] for a in (brackets[0], brackets[1], brackets[3]))
            x, _ = dynamics._refine_fixed_point(spec, T, xa, xb, start, attractive)
            assert np.all((xa <= x) & (x <= xb))

    def test_newton_needs_few_map_calls(self, monkeypatch):
        # the contraction needs 24 map calls for these three fixed points, and
        # one-crossing-at-a-time Newton 9; in lock step it is two batched
        # solves per direction
        spec = dynamics.OdeSpec(self.C, self.LAM, SAMPLED)
        T = SAMPLED.period
        brackets = dynamics._stable_brackets(spec, T)
        want = [contraction_fixed_point(spec, T, *b[:3]) for b in zip(*brackets)]
        counted = CountedMap(dynamics.poincare_map_log)
        monkeypatch.setattr(dynamics, "poincare_map_log", counted)
        sols = dynamics.find_periodic_solutions(spec, T)
        assert counted.calls <= 4
        assert [s.fixed_point for s in sols] == pytest.approx(want, rel=0.0, abs=1e-8)

    def test_fd_multiplier_matches_augmented(self):
        spec = dynamics.OdeSpec(self.C, self.LAM, SAMPLED)
        T = SAMPLED.period
        for s in dynamics.find_periodic_solutions(spec, T):
            fd = dynamics.poincare_multiplier_fd(spec, T, s.fixed_point, backward_orbit=s.kind == "repulsive")
            assert fd == pytest.approx(s.log_multiplier, abs=1e-4)

    @pytest.mark.parametrize("t0,t1", [(0.0, 8.0), (8.0, 0.0), (0.5, 7.25), (7.25, 0.5)])
    def test_integrate_times(self, t0, t1):
        # nodes every 1.0 (period 4): at t0 and t1 for the first two spans,
        # and at n_samples times (every 0.25) in all four
        y = signals.SampledPeriodic(4.0, (0.0, 1.0, 2.0, 3.0), (0.0, 0.03, -0.01, -0.03))
        spec = dynamics.OdeSpec(5.0, 6.0, y)
        lo, hi = min(t0, t1), max(t0, t1)
        n = int(round(4 * (hi - lo))) + 1
        traj = dynamics.integrate(spec, t0, 2.0, t1, n_samples=n)
        want = np.linspace(t0, t1, n)
        assert np.array_equal(traj.times, want if t1 > t0 else want[::-1])
        steps = dynamics.integrate(spec, t0, 2.0, t1)
        assert np.all(np.diff(steps.times) > 0.0)
        assert steps.times[0] == lo and steps.times[-1] == hi
        nodes = [t for t in np.arange(1.0, 8.0) if lo < t < hi]
        assert set(nodes) <= set(steps.times)
        # both runs take the same steps: their values agree wherever their times do
        common, i, j = np.intersect1d(traj.times, steps.times, return_indices=True)
        assert common.size >= len(nodes) + 2
        assert np.allclose(traj.values[i], steps.values[j], rtol=0.0, atol=1e-12)

    def test_escape_across_nodes(self):
        # backward in time the cubic branch of gbar runs to -inf in finite
        # time: from -1e-3 at t = 1, past the nodes at pi / 4 and pi / 8
        spec = dynamics.OdeSpec(5.0, 0.0, SAMPLED)
        with pytest.raises(dynamics.FiniteEscapeError) as escaped:
            dynamics.integrate(spec, 1.0, -1e-3, 0.0)
        assert float(re.search(r"at t = (\S+)$", str(escaped.value)).group(1)) < math.pi / 8.0

    def test_backward_escape_across_nodes(self):
        # a repulsive map solve from T back to 0 that escapes after 11 nodes
        spec = dynamics.OdeSpec(self.C, self.LAM, SAMPLED)
        T = SAMPLED.period
        with pytest.raises(dynamics.FiniteEscapeError) as escaped:
            dynamics.poincare_map_log(spec, T, 1e4, backward=True)
        t = float(re.search(r"at t = (\S+)$", str(escaped.value)).group(1))
        assert 0.0 < t < T - 10.0 * T / 16.0

    def test_census_solves_only_its_scans_and_map_calls(self, monkeypatch):
        # one solve_ivp call per scan and per map call, whatever the nodes
        spec = dynamics.OdeSpec(self.C, self.LAM, SAMPLED)
        names = ("solve_ivp", "_brackets", "poincare_map_log")
        solves, scans, maps = counted = [CountedMap(getattr(dynamics, name)) for name in names]
        for name, fn in zip(names, counted):
            monkeypatch.setattr(dynamics, name, fn)
        assert len(dynamics.find_periodic_solutions(spec, SAMPLED.period)) == 3
        assert solves.calls == scans.calls + maps.calls
        assert scans.calls == 1 and maps.calls <= 4


class TestNewtonStep:
    """_refine_fixed_point on a linear stand-in for the iterated map,
    P(x) = X + 0.5 (x - X), with a reported log multiplier L that may be
    wrong: with the true slope one Newton step lands on X, and each guard
    takes the bisection step instead."""

    X, XA, XB = 0.7, 0.0, 2.0

    def linear_map(self, L):
        return CountedMap(lambda spec, T, x, backward=False: (self.X + 0.5 * (x - self.X), np.full(np.shape(x), L)))

    def refine(self, attractive):
        """(x, L) of the one crossing [XA, XB], started at its midpoint."""
        x, L = dynamics._refine_fixed_point(
            None, 1.0, [self.XA], [self.XB], [0.5 * (self.XA + self.XB)], attractive
        )
        return float(x[0]), float(L[0])

    @pytest.mark.parametrize("attractive", [True, False])
    def test_true_slope_converges_in_one_step(self, monkeypatch, attractive):
        # a repulsive crossing iterates the inverse map, whose slope is e^-L
        fake = self.linear_map(math.log(0.5) if attractive else math.log(2.0))
        monkeypatch.setattr(dynamics, "poincare_map_log", fake)
        x, L = self.refine(attractive)
        assert fake.calls == 2 and abs(x - self.X) <= 1e-15
        assert L == (math.log(0.5) if attractive else math.log(2.0))

    @pytest.mark.parametrize(
        "L", [0.5, 1e4, math.log1p(-2.0**-52)], ids=["slope above 1", "slope overflows", "step leaves bracket"]
    )
    def test_guards_take_the_bisection_step(self, monkeypatch, L):
        want, calls = bisection_fixed_point(lambda x: self.X + 0.5 * (x - self.X), self.XA, self.XB, 1.0)
        fake = self.linear_map(L)
        monkeypatch.setattr(dynamics, "poincare_map_log", fake)
        x, got_L = self.refine(True)
        assert x == want and got_L == L and abs(x - self.X) <= dynamics.FP_TOL
        assert fake.calls == calls <= dynamics._map_solve_limit(self.XB - self.XA)

    @pytest.mark.parametrize("attractive", [True, False])
    def test_overflowing_slope_warns_nothing(self, monkeypatch, attractive):
        # e^L of the iterated map overflows a float: the vectorised step must
        # neither warn nor divide by 1 - inf, and takes the bisection step
        L = 1e4 if attractive else -1e4
        fake = self.linear_map(L)
        monkeypatch.setattr(dynamics, "poincare_map_log", fake)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, got_L = self.refine(attractive)
        assert abs(x - self.X) <= dynamics.FP_TOL and got_L == L and fake.calls > 20

    @pytest.mark.parametrize("attractive", [True, False])
    def test_slow_contraction_is_bisected(self, monkeypatch, attractive):
        # contraction 0.9999 and a reported slope above 1 (no Newton step):
        # the bracket is bisected, every map call goes in the crossing's
        # direction, the L reported is the last call's, and brentq is never called
        calls, Ls = [], []

        def slow_map(spec, T, x, backward=False):
            calls.append(backward)
            Ls.append((-1.0 if backward else 1.0) * (0.25 + len(calls)))
            return self.X + 0.9999 * (x - self.X), np.full(np.shape(x), Ls[-1])

        def no_brentq(*args, **kwargs):
            raise AssertionError("_refine_fixed_point called brentq")

        monkeypatch.setattr(dynamics, "poincare_map_log", slow_map)
        monkeypatch.setattr(dynamics, "brentq", no_brentq)
        x, L = self.refine(attractive)
        want, n = bisection_fixed_point(lambda x: self.X + 0.9999 * (x - self.X), self.XA, self.XB, 1.0)
        assert x == want and abs(x - self.X) <= dynamics.FP_TOL
        assert calls == [not attractive] * n and L == Ls[-1]

    def test_unconverged_crossing_names_its_bracket(self, monkeypatch):
        # a map that never tells the side of the fixed point (NaN) keeps the
        # bracket whole: the bound ends the loop, by name, not a fallback
        fake = CountedMap(lambda spec, T, x, backward=False: (np.full(np.shape(x), np.nan), np.zeros(np.shape(x))))
        monkeypatch.setattr(dynamics, "poincare_map_log", fake)
        limit = dynamics._map_solve_limit(self.XB - self.XA)
        with pytest.raises(RuntimeError, match=re.escape(f"the crossing in [0, 2] did not converge in {limit} map solves")):
            self.refine(True)
        assert fake.calls == limit == 67

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        X=st.floats(0.0, 2.0),
        r=st.floats(1e-6, 0.999),
        slope=st.sampled_from(["true", "half the true one", "above 1", "overflows", "one ulp below 1"]),
        noisy=st.booleans(),
        start=st.floats(0.0, 2.0),
        attractive=st.booleans(),
    )
    def test_any_start_converges_within_the_bound(self, X, r, slope, noisy, start, attractive):
        # P(x) = X + r (x - X), optionally with noise of up to 1e-12, whose
        # fixed points then spread over delta = noise / (1 - r) around X.  A
        # reported slope s = r/2 keeps the Newton steps inside the bracket but
        # slow, so the rtsafe rule must interleave bisection steps, and its
        # correction underestimates the distance to X by up to 1 / (1 - r)
        noise, rng = (1e-12 if noisy else 0.0), np.random.default_rng(0)
        log_slope = {
            "true": math.log(r),
            "half the true one": math.log(r / 2.0),
            "above 1": 0.5,
            "overflows": 1e4,
            "one ulp below 1": math.log1p(-(2.0**-52)),
        }
        L = log_slope[slope] if attractive else -log_slope[slope]

        def stand_in(spec, T, x, backward=False):
            return X + r * (x - X) + noise * rng.uniform(-1.0, 1.0, np.shape(x)), np.full(np.shape(x), L)

        fake = CountedMap(stand_in)
        with mock.patch.object(dynamics, "poincare_map_log", fake), warnings.catch_warnings():
            warnings.simplefilter("error")
            x, got_L = dynamics._refine_fixed_point(None, 1.0, [self.XA], [self.XB], [start], attractive)
        delta = (noise + 1e-15) / (1.0 - r)
        tol = dynamics.FP_TOL / (1.0 - r) if slope == "half the true one" else dynamics.FP_TOL
        assert self.XA <= x[0] <= self.XB and abs(x[0] - X) <= tol + delta
        assert got_L[0] == L and fake.calls <= dynamics._map_solve_limit(self.XB - self.XA)


CENSUS_SIGNALS = {
    "trig": signals.TrigSum(0.0, ((0.04, 1.0, -math.pi / 2.0),)),
    "cesaro": signals.FourierCesaro(0.005, (0.02, -0.01), (0.015,), 6),
    "sampled": SAMPLED,
}


class TestLockStep:
    """All crossings of one direction are refined together, one map solve per
    step, and each leaves the batch as soon as it converges."""

    @pytest.mark.parametrize("name", list(CENSUS_SIGNALS))
    def test_census_matches_contraction_and_fd(self, name):
        y = CENSUS_SIGNALS[name]
        spec = dynamics.OdeSpec(5.0, 0.5 * (model.lam1(5.0) + model.lam2(5.0)), y)
        T = dynamics.signal_period(y)
        brackets = dynamics._stable_brackets(spec, T)
        sols = dynamics.find_periodic_solutions(spec, T)
        assert [s.kind for s in sols] == ["attractive", "repulsive", "attractive"]
        want = [contraction_fixed_point(spec, T, *b[:3]) for b in zip(*brackets)]
        assert [s.fixed_point for s in sols] == pytest.approx(want, rel=0.0, abs=1e-8)
        for s in sols:
            fd = dynamics.poincare_multiplier_fd(spec, T, s.fixed_point, backward_orbit=s.kind == "repulsive")
            assert fd == pytest.approx(s.log_multiplier, abs=1e-4)

    @pytest.mark.parametrize("name", ["constant", *CENSUS_SIGNALS])
    def test_solutions_stay_in_their_brackets(self, name):
        # 1e-6 above the lam- fold: a close pair about 4.3e-3 apart whose log
        # multipliers lie within 6e-3 of 0; the period map is increasing, so
        # each fixed point lies in the bracket its crossing came from
        c = 5.0
        if name == "constant":
            y, lam = ZERO, model.lam1(c)
        else:
            y = CENSUS_SIGNALS[name]
            lam = dynamics.estimate_lambda_pm(c, y, tol=1e-10)[0]
        spec = dynamics.OdeSpec(c, lam + 1e-6, y)
        T = dynamics.signal_period(y)
        brackets = dynamics._stable_brackets(spec, T)
        sols = dynamics.find_periodic_solutions(spec, T)
        assert [s.kind for s in sols] == ["attractive", "repulsive", "attractive"]
        assert brackets[0].size == 3 and sols[2].fixed_point - sols[1].fixed_point < 5e-3
        for s, (xa, xb, attractive, _) in zip(sols, zip(*brackets)):
            assert xa <= s.fixed_point <= xb and (s.kind == "attractive") == attractive

    @pytest.mark.parametrize("name", list(CENSUS_SIGNALS))
    def test_scan_and_map_solves_keep_their_sizes(self, monkeypatch, name):
        # the premise of the two right-hand sides: every call of a scan's
        # field (``_family_field``) is on many states, every augmented-kernel
        # call a map solve's, on the few crossings its float path serves, and
        # no solve of a census falls back onto OdeSpec.rhs
        y = CENSUS_SIGNALS[name]
        spec = dynamics.OdeSpec(5.0, 0.5 * (model.lam1(5.0) + model.lam2(5.0)), y)
        scan_states, kernel_states = [], []
        family_field = dynamics._family_field

        def recorded_family_field(specs, T, sizes):
            field, nodes = family_field(specs, T, sizes)

            def recorded(t, x):
                scan_states.append(x.size)
                return field(t, x)

            return recorded, nodes

        def no_rhs(self, t, x):
            raise AssertionError("a census called OdeSpec.rhs")

        monkeypatch.setattr(dynamics, "_family_field", recorded_family_field)
        monkeypatch.setattr(dynamics.OdeSpec, "rhs", no_rhs)
        recording_kernels(monkeypatch, lambda t, y, out: kernel_states.append(y.size // 2))
        assert len(dynamics.find_periodic_solutions(spec, dynamics.signal_period(y))) == 3
        assert scan_states and min(scan_states) >= 512
        assert kernel_states and max(kernel_states) <= 3

    # two crossings of a linear stand-in map, P(x) = X + r (x - X) on each
    XS, BRACKETS = (0.3, 2.6), ((0.0, 1.0), (2.0, 3.0))

    def refine(self, monkeypatch, rates, slopes, attractive):
        """Runs the refinement on the two crossings; returns its result and
        the stand-in's calls (x, P(x), L).  The reported log slope drifts by
        -1e-3 per call, so each call's L is its own; brentq is never called."""
        calls = []

        def linear_map(spec, T, x, backward=False):
            x = np.asarray(x, dtype=float)
            k = (x > 1.5).astype(int)
            X, r = np.take(self.XS, k), np.take(rates, k)
            log_slope = np.log(np.take(slopes, k)) - 1e-3 * len(calls)
            nxt, L = X + r * (x - X), -log_slope if backward else log_slope
            calls.append((x, nxt, L))
            return (float(nxt), float(L)) if x.ndim == 0 else (nxt, L)

        def no_brentq(*args, **kwargs):
            raise AssertionError("_refine_fixed_point called brentq")

        monkeypatch.setattr(dynamics, "poincare_map_log", linear_map)
        monkeypatch.setattr(dynamics, "brentq", no_brentq)
        xa, xb = zip(*self.BRACKETS)
        start = [0.5 * (a + b) for a, b in self.BRACKETS]
        return dynamics._refine_fixed_point(None, 1.0, xa, xb, start, attractive), calls

    def bisected(self, k, rate):
        """``bisection_fixed_point`` of crossing k under the rate."""
        (a, b), X = self.BRACKETS[k], self.XS[k]
        return bisection_fixed_point(lambda x: X + rate * (x - X), a, b, 0.5 * (a + b))

    @pytest.mark.parametrize("attractive", [True, False])
    def test_converged_crossing_is_frozen(self, monkeypatch, attractive):
        # the first crossing contracts by 0.5 with about its true slope
        # reported, so Newton converges in a few steps; the second contracts
        # by 0.9999 with a slope above 1 reported, so it is bisected (the
        # slopes are those of the iterated map, forward or inverse, so the
        # stand-in reports L = -log slope backward)
        (x, L), calls = self.refine(monkeypatch, (0.5, 0.9999), (0.5, 1.5), attractive)
        sizes = [c[0].size for c in calls]
        want, n = self.bisected(1, 0.9999)
        # the fast crossing's last solve, after which only the slow one is solved
        j = sizes.count(2) - 1
        assert 1 <= j <= 4 and sizes == [2] * (j + 1) + [1] * (n - j - 1)
        assert abs(x[0] - self.XS[0]) <= dynamics.FP_TOL and L[0] == calls[j][2][0]
        assert all(np.all(c[0] > 1.5) for c in calls[j + 1 :])
        assert x[1] == want and abs(x[1] - self.XS[1]) <= dynamics.FP_TOL and L[1] == calls[-1][2]

    def test_fallback_fires_per_crossing(self, monkeypatch):
        # no Newton step for either: each crossing is bisected on its own
        # bracket, both in every solve until they converge together
        (x, L), calls = self.refine(monkeypatch, (0.9999, 0.9999), (1.5, 1.5), True)
        want = [self.bisected(k, 0.9999) for k in range(2)]
        assert want[0][1] == want[1][1] and [c[0].size for c in calls] == [2] * want[0][1]
        assert x.tolist() == [w[0] for w in want]
        assert np.all(np.abs(x - self.XS) <= dynamics.FP_TOL)


class TestSmoothInputIsOnePiece:
    """A smooth input is one run of the module's RK45 loop over the span, with
    the floats and the kernel calls of scipy's RK45."""

    Y = signals.TrigSum(0.0, ((0.03, 1.0, 0.4), (0.01, 2.0, 0.1)))

    @pytest.mark.parametrize("augmented", [False, True])
    @pytest.mark.parametrize("t0,t1", [(0.0, 2.0 * math.pi), (2.0 * math.pi, 0.0)])
    def test_equals_direct_solve_ivp(self, monkeypatch, augmented, t0, t1):
        spec = dynamics.OdeSpec(5.0, 6.04, self.Y)
        x0 = np.array([1.8, 2.0, 2.2])  # near the repulsive orbit: bounded both ways
        y0 = np.concatenate([x0, np.zeros(3)]) if augmented else x0

        def escape(t, y):  # on the states only: a large log multiplier is not an escape
            return dynamics.ESCAPE_BOUND - np.max(np.abs(y[:3]))

        escape.terminal = True
        loop = dynamics.solve_ivp
        for t_eval in (None, [t1], np.linspace(t0, t1, 9)):
            want = solve_ivp(
                dynamics._augmented_kernel(spec) if augmented else (lambda t, x: np.atleast_1d(spec.rhs(t, x))),
                (t0, t1),
                y0,
                method="RK45",
                atol=dynamics.ABSTOL,
                rtol=dynamics.RELTOL,
                t_eval=t_eval,
                events=escape,
            )
            solves = CountedMap(loop)
            monkeypatch.setattr(dynamics, "solve_ivp", solves)
            ts, ys = solve(spec, t0, x0, t1, augmented, t_eval)
            assert want.status == 0 and solves.calls == 1 and solves.last.nfev == want.nfev
            assert np.array_equal(ts, want.t) and np.array_equal(ys, want.y)


class TestSampledInputIsOneSolve:
    """A sampled input is one run of the RK45 loop too: it steps through the
    node pieces, each step ending at or before the next node."""

    T = SAMPLED.period
    X0 = np.array([1.2, 1.8, 2.6])  # between the two attractive orbits: bounded both ways

    @pytest.mark.parametrize("backward", [False, True])
    @pytest.mark.parametrize(
        "a,b,n_nodes",
        [(0.1, 0.3, 0), (0.0, 2.0 * math.pi, 15), (0.2, 0.2 + 5.0 * math.pi, 40)],
        ids=["inside-one-piece", "one-period-from-a-node", "2.5-periods-off-the-nodes"],
    )
    def test_one_call_through_the_nodes(self, monkeypatch, a, b, n_nodes, backward):
        t0, t1 = (b, a) if backward else (a, b)
        spec = dynamics.OdeSpec(5.0, TestSampledInput.LAM, SAMPLED)
        want = [reference_flow(5.0, TestSampledInput.LAM, x, t0, t1) for x in self.X0]
        ts = np.concatenate([np.asarray(SAMPLED_TIMES) + m * self.T for m in range(-1, 4)])
        nodes = ts[(ts > a) & (ts < b)]  # the interior nodes, as reference_flow places them
        assert nodes.size == n_nodes
        loop = dynamics.solve_ivp
        for augmented in (False, True):
            for t_eval in (None, np.linspace(t0, t1, 7)):
                solves = CountedMap(loop)
                monkeypatch.setattr(dynamics, "solve_ivp", solves)
                times, ys = solve(spec, t0, self.X0, t1, augmented, t_eval)
                assert solves.calls == 1
                assert ys.shape[0] == (6 if augmented else 3)
                assert np.allclose(ys[:3, -1], want, rtol=0.0, atol=1e-8)
                if t_eval is None:
                    assert times[0] == t0 and times[-1] == t1
                    assert np.all(np.isin(nodes, times))
                else:
                    assert np.array_equal(times, t_eval)


class TestCubicBranchMidSolve:
    """A one-state solve runs its kernel in floats throughout, also after the
    state falls below 0, where gbar is the cubic: the float path evaluates
    that branch itself and never calls ``OdeSpec.rhs``."""

    def test_integrate_through_x_below_zero(self):
        lam, T = -3.0, SAMPLED.period  # x' < 0 at x = 0: the orbit settles near -0.27
        traj = dynamics.integrate(dynamics.OdeSpec(5.0, lam, SAMPLED), 0.0, 1.0, T)
        assert traj.values[0] == 1.0 and traj.values.min() < -0.2
        assert abs(traj.values[-1] - reference_flow(5.0, lam, 1.0, 0.0, T)) < 1e-8

    def test_no_array_path_below_zero(self, monkeypatch):
        lam, T = -3.0, SAMPLED.period
        spec = dynamics.OdeSpec(5.0, lam, SAMPLED)
        want = dynamics.integrate(spec, 0.0, 1.0, T)

        def refuse(*args):
            raise AssertionError("a one-state solve reached OdeSpec.rhs")

        monkeypatch.setattr(dynamics.OdeSpec, "rhs", refuse)
        monkeypatch.setattr(dynamics.OdeSpec, "rhs_state_deriv", refuse)
        traj = dynamics.integrate(spec, 0.0, 1.0, T)
        assert traj.values.min() < -0.2
        assert np.array_equal(traj.times, want.times) and np.array_equal(traj.values, want.values)


class TestEndStateKeepsNoSteps:
    """A scan, a map call or a finite-difference segment asks the solver for
    the end time alone, so the step history of the solve is never stored."""

    def test_scan_memory(self):
        # 2,048 seeds at the slowest relax-sweep forcing: kept, the 314 step
        # states would take the peak to 10.5 MB
        spec = relaxation.RelaxationSpec(5.0, 0.023, 1.15)
        ode = dynamics.OdeSpec(5.0, 0.0, spec.signal())
        xs = np.linspace(*dynamics._scan_interval(ode), 2048)
        tracemalloc.start()
        try:
            (d,) = dynamics._displacement_grid([ode], spec.period, [xs])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.shape == xs.shape and np.all(np.isfinite(d))
        assert peak < 2e6

    def test_sampled_scan_holds_no_solvers(self):
        # one solver for all the node pieces: with the cyclic collector off, a
        # solver per piece held its stage arrays, 10.5 MB for 8,192 seeds, and
        # the one solver 0.74 MB until a finished solver dropped its closures
        spec = dynamics.OdeSpec(5.0, 0.5 * (model.lam1(5.0) + model.lam2(5.0)), SAMPLED)
        xs = np.linspace(*dynamics._scan_interval(spec), 8192)
        enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            (d,) = dynamics._displacement_grid([spec], SAMPLED.period, [xs])
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            if enabled:
                gc.enable()
        assert d.shape == xs.shape and np.all(np.isfinite(d))
        assert held < 2e5

    @pytest.mark.parametrize("x0,escapes", [(1e4, True), (2.0, False)], ids=["escaping", "finishing"])
    def test_solver_freed_without_collector(self, monkeypatch, x0, escapes):
        # a solve stopped at an escape frees what it made by reference
        # counting, as a finished one does: every state array the loop handed
        # its kernel and every derivative the kernel returned, and no cycle is
        # left for the collector
        made = []
        spec = dynamics.OdeSpec(5.0, 0.5 * (model.lam1(5.0) + model.lam2(5.0)), SAMPLED)
        recording_kernels(monkeypatch, lambda t, y, out: made.extend((weakref.ref(y), weakref.ref(out))))
        xs = np.append(np.linspace(1.2, 2.6, 63), x0)  # bounded both ways, but for 1e4
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        escaped = False
        try:
            try:
                dynamics.poincare_map_log(spec, SAMPLED.period, xs, backward=True)
            except dynamics.FiniteEscapeError:
                escaped = True
            alive = [ref() is not None for ref in made]
            cycles = gc.collect()
        finally:
            if enabled:
                gc.enable()
        assert escaped == escapes
        assert len(alive) > 12 and not any(alive)
        assert cycles == 0

    def test_escaping_solve_holds_nothing(self):
        # with the cyclic collector off, a terminal escape event's root finder
        # kept the last step's interpolant in a cycle: 0.67 MB for 8,192 states
        spec = dynamics.OdeSpec(5.0, 0.5 * (model.lam1(5.0) + model.lam2(5.0)), SAMPLED)
        xs = np.append(np.linspace(1.2, 2.6, 8191), 1e4)  # bounded backward, but for 1e4
        enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            with pytest.raises(dynamics.FiniteEscapeError):
                dynamics.poincare_map_log(spec, SAMPLED.period, xs, backward=True)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            if enabled:
                gc.enable()
        assert held < 1e5

    @pytest.mark.parametrize(
        "y", [signals.TrigSum(0.0, ((0.04, 1.0, -math.pi / 2.0),)), SAMPLED], ids=["trig", "sampled"]
    )
    def test_census_asks_for_one_time(self, monkeypatch, y):
        asked, loop = [], dynamics.solve_ivp

        def recorded(*args, **kwargs):
            t_eval = kwargs["t_eval"]
            asked.append(None if t_eval is None else len(t_eval))
            return loop(*args, **kwargs)

        monkeypatch.setattr(dynamics, "solve_ivp", recorded)
        spec = dynamics.OdeSpec(5.0, 0.5 * (model.lam1(5.0) + model.lam2(5.0)), y)
        assert len(dynamics.find_periodic_solutions(spec, 2.0 * math.pi)) == 3
        assert dynamics.count_separated_solutions(spec, 2.0 * math.pi) == 3
        assert asked and set(asked) == {1}


class TestEscapeCheckMatchesEvent:
    """The solver checks the escape bound at each step end.  On a smooth
    input it raises exactly when a terminal event on |x| = ESCAPE_BOUND
    stops scipy's RK45, at the end of the step in which the event's root
    lies; on a sampled input, which scipy's RK45 does not step node to node,
    at the first step end beyond the bound in the loop's own steps."""

    LAM = 0.5 * (model.lam1(5.0) + model.lam2(5.0))
    CASES = {
        "cubic-backward": (dynamics.OdeSpec(5.0, 0.0, ZERO), 1.0, [-1.0, 0.5], 0.0),
        "full-backward": (
            dynamics.OdeSpec(5.0, LAM, TestSmoothInputIsOnePiece.Y),
            2.0 * math.pi,
            [2.0, 1e4],
            0.0,
        ),
        "bounded": (dynamics.OdeSpec(5.0, 6.04, TestSmoothInputIsOnePiece.Y), 0.0, [1.8, 2.0, 2.2], 2.0 * math.pi),
        "sampled-backward": (dynamics.OdeSpec(5.0, LAM, SAMPLED), SAMPLED.period, [1.2, 1e4], 0.0),
    }

    def reference(self, spec, t0, x0, t1, augmented):
        """scipy's RK45 stopped by a terminal escape event on the states."""
        n, bound = len(x0), dynamics.ESCAPE_BOUND

        def escape(t, y):
            return bound - np.max(np.abs(y[:n]))

        escape.terminal = True
        return solve_ivp(
            dynamics._augmented_kernel(spec) if augmented else spec.rhs,
            (t0, t1),
            np.concatenate([x0, np.zeros(n)]) if augmented else np.array(x0),
            method="RK45",
            atol=dynamics.ABSTOL,
            rtol=dynamics.RELTOL,
            t_eval=[t1],
            events=escape,
        )

    def first_step_end_beyond(self, monkeypatch, spec, t0, x0, t1, augmented):
        """The first step end where a state has left |x| < ESCAPE_BOUND in the
        loop's own step history, taken with the check out of reach; None
        when no step end has."""
        bound = dynamics.ESCAPE_BOUND
        with monkeypatch.context() as patched:
            patched.setattr(dynamics, "ESCAPE_BOUND", math.inf)
            ts, ys = solve(spec, t0, x0, t1, augmented)
        beyond = np.flatnonzero(np.abs(ys[: len(x0)]).max(axis=0) >= bound)
        return float(ts[beyond[0]]) if beyond.size else None

    @pytest.mark.parametrize("augmented", [False, True])
    @pytest.mark.parametrize("case", CASES)
    def test_raises_where_the_event_stops(self, monkeypatch, case, augmented):
        spec, t0, x0, t1 = self.CASES[case]
        if len(spec._signal_at.kinks(t0, t1)):
            want = self.first_step_end_beyond(monkeypatch, spec, t0, x0, t1, augmented)
            assert want is not None  # every sampled case escapes
            with pytest.raises(dynamics.FiniteEscapeError) as escaped:
                solve(spec, t0, x0, t1, augmented, [t1])
            assert re.search(r"at t = (\S+)$", str(escaped.value)).group(1) == f"{want:.6g}"
            return
        want = self.reference(spec, t0, x0, t1, augmented)
        assert want.status in (0, 1)
        assert (want.status == 1) == (case != "bounded")
        try:
            solve(spec, t0, x0, t1, augmented, [t1])
        except dynamics.FiniteEscapeError as escaped:
            t = float(re.search(r"at t = (\S+)$", str(escaped)).group(1))
            assert want.status == 1
            past = math.copysign(1.0, t1 - t0) * (t - want.t_events[0][0])
            # the message prints six significant digits
            assert -5e-6 * abs(t) <= past <= abs(t1 - t0) / 16.0
        else:
            assert want.status == 0
