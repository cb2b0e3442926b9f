import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from bistab import dynamics, model, relaxation, signals

SQRT3 = math.sqrt(3.0)
ZERO = signals.Constant(0.0)


def autonomous_equilibria(c, lam):
    """Real roots of lam + g(x) = 0 for x >= 0 via the cubic x^3 - lam x^2 + (1+2c)x - lam."""
    roots = np.roots([1.0, -lam, 1.0 + 2.0 * c, -lam])
    return sorted(float(r.real) for r in roots if abs(r.imag) < 1e-9)


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
        spec = dynamics.OdeSpec(c, 0.0, ZERO, rhs_kind="concave-linear")
        z_star = (cs - 0.0) / d
        z0, t = -1.0, 2.0
        expected = z_star + (z0 - z_star) * math.exp(d * t)
        traj = dynamics.integrate(spec, 0.0, z0, t)
        assert traj.values[-1] == pytest.approx(expected, abs=1e-8)

    def test_positivity_invariance(self):
        spec = dynamics.OdeSpec(5.0, 1.0, signals.TrigSum(0.0, ((0.5, 1.0, 0.0),)))
        traj = dynamics.integrate(spec, 0.0, 0.1, 40.0, n_samples=400)
        assert np.all(traj.values > -1e-12)

    def test_finite_escape(self):
        # the concave-linear flow runs to -inf below its bifurcation value
        spec = dynamics.OdeSpec(5.0, 0.0, ZERO, rhs_kind="concave-linear")
        with pytest.raises(dynamics.FiniteEscapeError):
            dynamics.integrate(spec, 0.0, -1.0, 100.0)

    def test_large_log_multiplier_is_not_an_escape(self, monkeypatch):
        # the multiplier integrand runs alongside x; only x may trigger the escape bound
        monkeypatch.setattr(dynamics, "ESCAPE_BOUND", 50.0)
        spec = dynamics.OdeSpec(5.0, 0.0, ZERO)  # x -> 0, log multiplier ~ -11 t
        traj = dynamics.integrate(spec, 0.0, 1.0, 10.0)
        assert abs(traj.values[-1]) < 1e-8
        assert dynamics.poincare_map_log(spec, 10.0, 1.0)[1] < -50.0


class TestOdeSpecValidation:
    def test_bad_rhs_kind(self):
        with pytest.raises(ValueError):
            dynamics.OdeSpec(5.0, 1.0, ZERO, rhs_kind="convex-concave")

    def test_recentered_kinds_need_supercritical_c(self):
        with pytest.raises(model.DomainError):
            dynamics.OdeSpec(4.0, 1.0, ZERO, rhs_kind="linear-convex")

    @pytest.mark.parametrize("c,lam", [(math.nan, 1.0), (5.0, math.inf), (-math.inf, 1.0), (5.0, math.nan)])
    def test_rejects_non_finite(self, c, lam):
        with pytest.raises(ValueError, match="finite"):
            dynamics.OdeSpec(c, lam, ZERO)


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


def loop_brackets(xs, d):
    """Reference: the per-seed loop that ``_brackets`` replaced."""
    out = []
    for i in range(len(xs) - 1):
        da, db = d[i], d[i + 1]
        if da == 0.0:
            out.append((xs[max(i - 1, 0)], xs[i + 1], db < da))
        elif da * db < 0.0:
            out.append((xs[i], xs[i + 1], da > 0.0))
    return out


class TestCensus:
    @pytest.mark.parametrize("seed", range(4))
    def test_brackets_match_the_seed_loop(self, monkeypatch, seed):
        # displacements with exact zeros (also at the first seed): the same
        # tuples, of the same types, in the same order as the loop
        d = np.random.default_rng(seed).choice([-2.0, -1.0, 0.0, 1.0, 3.0], size=64)
        d[0] = 0.0
        monkeypatch.setattr(dynamics, "_displacement_grid", lambda spec, T, xs: d)
        spec = dynamics.OdeSpec(5.0, 6.0, ZERO)
        want = loop_brackets(np.linspace(*dynamics._scan_interval(spec), d.size), d)
        got = dynamics._brackets(spec, 1.0, d.size)
        assert [tuple(map(type, b)) for b in got] == [tuple(map(type, b)) for b in want]
        assert got == want and any(d[:-1] == 0.0) and len(got) > 10

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

    def test_merged_crossings_warn(self, monkeypatch):
        # three crossings refined onto one fixed point: the census keeps it once
        # and warns for each crossing it loses
        monkeypatch.setattr(dynamics, "_refine_fixed_point", lambda spec, T, xa, xb, attractive: (2.0, 0.5))
        with pytest.warns(UserWarning, match="refined onto the fixed point 2,") as record:
            sols = dynamics.find_periodic_solutions(dynamics.OdeSpec(5.0, 6.0, ZERO), 1.0)
        assert len(record) == 2
        assert [s.fixed_point for s in sols] == [2.0]

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


def bisect_lambda_pm(c, signal, tol):
    """Oracle: bisection on "the census finds >= 2 separated solutions" over
    the closed-form sandwich bracket (an escaping trajectory counts as
    fewer).  Returns (lambda_minus, lambda_plus, census calls per side)."""
    T = dynamics.signal_period(signal)
    b = signals.bounds(signal)
    margin = max(model.lam2(c) - model.lam1(c), 10.0 * tol)
    calls = {}

    def bisect(center, rhs_kind, two_above):
        lo, hi = center - b.sup - margin, center - b.inf + margin
        calls[rhs_kind] = 0

        def predicate(lam):
            calls[rhs_kind] += 1
            try:
                return dynamics.count_separated_solutions(dynamics.OdeSpec(c, lam, signal, rhs_kind), T) >= 2
            except dynamics.FiniteEscapeError:
                return False

        if predicate(lo) == predicate(hi):
            raise RuntimeError(f"bracket [{lo:.6g}, {hi:.6g}] does not straddle the {rhs_kind} bifurcation")
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


class TestFoldSolveAgainstBisection:
    @pytest.mark.parametrize("c", [5.0, 8.0])
    @pytest.mark.parametrize("name", list(FOLD_SIGNALS))
    def test_matches_bisection(self, c, name):
        tol = 1e-5
        lam_minus, lam_plus, meta = dynamics.estimate_lambda_pm(c, FOLD_SIGNALS[name], tol=tol)
        want_minus, want_plus, calls = bisect_lambda_pm(c, FOLD_SIGNALS[name], tol)
        assert abs(lam_minus - want_minus) <= tol
        assert abs(lam_plus - want_plus) <= tol
        # fewer period-map scans than the bisection needs
        assert 2 <= meta["scans"]["lambda_minus"] < calls["concave-linear"]
        assert 2 <= meta["scans"]["lambda_plus"] < calls["linear-convex"]

    def test_escaping_bracket_end(self):
        # slow forcing: at the upper end of the linear-convex bracket a seed
        # runs off to infinity within one period (11.6)
        c, tol = 8.0, 1e-5
        y = signals.TrigSum(0.0, ((0.03, 0.54, 0.0),))
        T = dynamics.signal_period(y)
        hi = model.lam2(c) - signals.bounds(y).inf + (model.lam2(c) - model.lam1(c))
        with pytest.raises(dynamics.FiniteEscapeError):
            dynamics.count_separated_solutions(dynamics.OdeSpec(c, hi, y, "linear-convex"), T)
        try:
            want = bisect_lambda_pm(c, y, tol)
        except RuntimeError as exc:
            with pytest.raises(RuntimeError, match=re.escape(str(exc))):
                dynamics.estimate_lambda_pm(c, y, tol=tol)
            return
        lam_minus, lam_plus, _ = dynamics.estimate_lambda_pm(c, y, tol=tol)
        assert abs(lam_minus - want[0]) <= tol
        assert abs(lam_plus - want[1]) <= tol


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
    attractive crossing and backward for a repulsive one, with the stopping
    test of ``_refine_fixed_point``: the refinement without Newton steps."""
    x = 0.5 * (xa + xb)
    for _ in range(200):
        nxt, _ = dynamics.poincare_map_log(spec, T, x, backward=not attractive)
        if abs(nxt - x) < dynamics.FP_TOL:
            return nxt
        x = nxt
    raise AssertionError("the contraction did not converge")


class CountedMap:
    """Stands in for a ``dynamics`` function (``poincare_map_log`` mostly) and
    counts its calls."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


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
        assert len(brackets) == 3

        def no_brentq(*args, **kwargs):
            raise AssertionError("_refine_fixed_point fell back to brentq")

        monkeypatch.setattr(dynamics, "brentq", no_brentq)
        for xa, xb, attractive in brackets:
            x, _ = dynamics._refine_fixed_point(spec, T, xa, xb, attractive)
            assert xa <= x <= xb

    def test_newton_needs_few_map_calls(self, monkeypatch):
        # the contraction needs 24 map calls for these three fixed points
        spec = dynamics.OdeSpec(self.C, self.LAM, SAMPLED)
        T = SAMPLED.period
        brackets = dynamics._stable_brackets(spec, T)
        want = [contraction_fixed_point(spec, T, *b) for b in brackets]
        counted = CountedMap(dynamics.poincare_map_log)
        monkeypatch.setattr(dynamics, "poincare_map_log", counted)
        sols = dynamics.find_periodic_solutions(spec, T)
        assert counted.calls <= 12
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
        spec = dynamics.OdeSpec(5.0, 0.0, SAMPLED, rhs_kind="concave-linear")
        with pytest.raises(dynamics.FiniteEscapeError):
            dynamics.integrate(spec, 0.0, -1.0, 100.0)


class TestNewtonStep:
    """_refine_fixed_point on a linear stand-in for the iterated map,
    P(x) = X + 0.5 (x - X), with a reported log multiplier L that may be
    wrong: with the true slope one Newton step lands on X, and each guard
    falls back to the plain contraction step."""

    X, XA, XB = 0.7, 0.0, 2.0

    def linear_map(self, L):
        return CountedMap(lambda spec, T, x, backward=False: (self.X + 0.5 * (x - self.X), L))

    @pytest.mark.parametrize("attractive", [True, False])
    def test_true_slope_converges_in_one_step(self, monkeypatch, attractive):
        # a repulsive crossing iterates the inverse map, whose slope is e^-L
        fake = self.linear_map(math.log(0.5) if attractive else math.log(2.0))
        monkeypatch.setattr(dynamics, "poincare_map_log", fake)
        x, L = dynamics._refine_fixed_point(None, 1.0, self.XA, self.XB, attractive)
        assert fake.calls == 2 and abs(x - self.X) <= 1e-15
        assert L == (math.log(0.5) if attractive else math.log(2.0))

    @pytest.mark.parametrize(
        "L", [0.5, 1e4, math.log1p(-2.0**-52)], ids=["slope above 1", "slope overflows", "step leaves bracket"]
    )
    def test_guards_take_the_contraction_step(self, monkeypatch, L):
        plain = self.linear_map(L)
        monkeypatch.setattr(dynamics, "poincare_map_log", plain)
        want = contraction_fixed_point(None, 1.0, self.XA, self.XB, True)
        fake = self.linear_map(L)
        monkeypatch.setattr(dynamics, "poincare_map_log", fake)
        x, got_L = dynamics._refine_fixed_point(None, 1.0, self.XA, self.XB, True)
        assert x == want and got_L == L
        assert fake.calls == plain.calls > 20

    @pytest.mark.parametrize("attractive", [True, False])
    def test_brentq_root_takes_one_more_map_call(self, monkeypatch, attractive):
        # contraction 0.9999 and a reported slope above 1 (no Newton step):
        # 60 steps do not converge, so brentq finds the root, and its L is
        # that of one further map call in the crossing's direction
        calls, Ls, at_root = [], [], []

        def slow_map(spec, T, x, backward=False):
            calls.append((x, backward))
            Ls.append((-1.0 if backward else 1.0) * (0.25 + len(calls)))
            return self.X + 0.9999 * (x - self.X), Ls[-1]

        def recorded_brentq(*args, **kwargs):
            root = brentq(*args, **kwargs)
            at_root.append((root, len(calls)))
            return root

        monkeypatch.setattr(dynamics, "poincare_map_log", slow_map)
        monkeypatch.setattr(dynamics, "brentq", recorded_brentq)
        x, L = dynamics._refine_fixed_point(None, 1.0, self.XA, self.XB, attractive)
        assert len(at_root) == 1 and x == at_root[0][0]
        assert len(calls) == at_root[0][1] + 1
        assert calls[-1] == (x, not attractive) and L == Ls[-1]
        assert abs(x - self.X) <= dynamics.FP_TOL


class TestSmoothInputIsOnePiece:
    """A smooth input makes exactly the single solve_ivp call of the span."""

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
        for t_eval in (None, np.linspace(t0, t1, 9)):
            want = solve_ivp(
                dynamics._augmented_rhs(spec) if augmented else (lambda t, x: np.atleast_1d(spec.rhs(t, x))),
                (t0, t1),
                y0,
                method="RK45",
                atol=dynamics.ABSTOL,
                rtol=dynamics.RELTOL,
                t_eval=t_eval,
                events=escape,
                max_step=abs(t1 - t0) / 16.0,
            )
            solves = CountedMap(solve_ivp)
            monkeypatch.setattr(dynamics, "solve_ivp", solves)
            ts, ys = dynamics._solve(spec, t0, x0, t1, dynamics.ABSTOL, dynamics.RELTOL, augmented, t_eval)
            assert solves.calls == 1
            assert np.array_equal(ts, want.t) and np.array_equal(ys, want.y)


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
            d = dynamics._displacement_grid(ode, spec.period, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.shape == xs.shape and np.all(np.isfinite(d))
        assert peak < 2e6

    @pytest.mark.parametrize(
        "y", [signals.TrigSum(0.0, ((0.04, 1.0, -math.pi / 2.0),)), SAMPLED], ids=["trig", "sampled"]
    )
    def test_census_asks_for_one_time(self, monkeypatch, y):
        asked = []

        def recorded(*args, **kwargs):
            t_eval = kwargs["t_eval"]
            asked.append(None if t_eval is None else len(t_eval))
            return solve_ivp(*args, **kwargs)

        monkeypatch.setattr(dynamics, "solve_ivp", recorded)
        spec = dynamics.OdeSpec(5.0, 0.5 * (model.lam1(5.0) + model.lam2(5.0)), y)
        assert len(dynamics.find_periodic_solutions(spec, 2.0 * math.pi)) == 3
        assert dynamics.count_separated_solutions(spec, 2.0 * math.pi) == 3
        assert asked and set(asked) == {1}
