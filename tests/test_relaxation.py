import math
import re
import signal
import warnings

import numpy as np
import pytest

from bistab import dynamics, relaxation, signals
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

    @pytest.mark.parametrize("n", [0, 1, -3, 2.5, 256.0, True, None])
    def test_rejects_a_bad_point_count(self, n):
        # fewer than two points per branch is no curve to measure a loop against
        with pytest.raises(ValueError, match="n_points"):
            relaxation.gamma_curve(5.0, n)

    def test_run_analysis_checks_gamma_points_first(self, monkeypatch):
        def no_census(*args):
            raise AssertionError("run_analysis ran its census before checking gamma_points")

        monkeypatch.setattr(relaxation.dynamics, "find_periodic_solutions", no_census)
        with pytest.raises(ValueError, match="n_points"):
            relaxation.run_analysis(relaxation.RelaxationSpec(5.0, 0.05, 0.6), n_loop=64, gamma_points=1)


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

    @pytest.mark.parametrize(
        "eps,dev",
        [([0.1, math.nan], [1.0, 2.0]), ([0.1, 0.2], [1.0, math.inf]), ([-math.inf, 0.2], [math.nan, 1.0])],
    )
    def test_rejects_non_finite(self, capfd, eps, dev):
        # rejected before the fit: LAPACK prints "DLASCL ... illegal value"
        # to stderr on a NaN, and an infinite deviation fits (nan, nan)
        with pytest.raises(ValueError, match="finite"):
            relaxation.power_law_fit(eps, dev)
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize(
        "eps,dev", [([0.1], [1.0]), ([0.1, 0.1], [1.0, 2.0]), ([], [])], ids=["one", "equal", "empty"]
    )
    def test_rejects_fewer_than_two_distinct_eps(self, eps, dev):
        # one eps value used to fit (1.0, 0.0), two equal ones a RankWarning,
        # and none NumPy's TypeError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="at least two distinct eps values"):
                relaxation.power_law_fit(eps, dev)

    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValueError, match="got 3 eps values and 2 deviations"):
            relaxation.power_law_fit([0.1, 0.2, 0.3], [1.0, 2.0])


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


    @pytest.mark.parametrize("n", [0, -3, 2.5, 64.0, True, None])
    def test_rejects_a_bad_loop_count_before_the_census(self, monkeypatch, n):
        def no_census(*args):
            raise AssertionError("run_analysis ran its census before checking n_loop")

        monkeypatch.setattr(relaxation.dynamics, "find_periodic_solutions", no_census)
        with pytest.raises(ValueError, match="n_loop"):
            relaxation.run_analysis(relaxation.RelaxationSpec(5.0, 0.05, 0.6), n_loop=n, gamma_points=64)


class TestThreshold:
    def test_threshold_bracketing(self):
        res = relaxation.r_threshold(5.0, 0.05, tol=0.05)
        assert res.regime_below == "relaxation"
        assert res.regime_above == "bistable"
        assert 0.5 < res.r < 2.0
        # the two regimes really do hold just outside the tol bracket
        assert relaxation._census_count(5.0, 0.05, [res.r - 2.0 * res.tol])[0] == [1]
        assert relaxation._census_count(5.0, 0.05, [res.r + 2.0 * res.tol])[0] == [3]

    @pytest.mark.parametrize("eps", [0.045, 0.028])
    def test_family_counts_match_solo_counts(self, eps):
        # the first grid of r_threshold at tol 1e-3, five r straddling r*: one
        # family solve gives each r the count of its own solo census
        est, w = relaxation.r_star_estimate(5.0, eps), relaxation.R_HALF_WIDTH_TOLS * 1e-3
        rs = [est - w, est - 0.5 * w, est, est + 0.5 * w, est + w]
        counts = relaxation._census_count(5.0, eps, rs)[0]
        assert counts == [relaxation._census_count(5.0, eps, [r])[0][0] for r in rs]
        assert counts[0] == 1 and counts[-1] == 3

    def test_regimes_flipping_twice_raise(self, monkeypatch):
        # a grid whose regimes go relaxation, bistable, relaxation: no single
        # threshold, which a bisection of the two ends would not have seen
        monkeypatch.setattr(relaxation, "_census_count", lambda c, eps, rs: ([1, 3, 1, 3, 3][: len(rs)], 1))
        lo = relaxation.r_star_estimate(5.0, 0.05) - relaxation.R_HALF_WIDTH_TOLS * 1e-3
        with pytest.raises(RuntimeError, match=r"^census regimes flip more than once across r = ") as flipped:
            relaxation.r_threshold(5.0, 0.05, tol=1e-3)
        assert f"{lo:.6g} (relaxation)" in str(flipped.value)

    def test_ambiguous_count_raises(self, monkeypatch):
        monkeypatch.setattr(relaxation, "_census_count", lambda c, eps, rs: ([1, 1, 5, 3, 3][: len(rs)], 1))
        with pytest.raises(RuntimeError, match=r"^ambiguous census \(5 crossings\) at r = "):
            relaxation.r_threshold(5.0, 0.05, tol=1e-3)

    def test_tol_below_the_float_spacing_ends(self, monkeypatch):
        # a tol no bracket of floats reaches: the quartering stops where its
        # quarter points round onto the bracket's ends, and names that bracket
        flip, solves = 1.4321, []

        def counts(c, eps, rs):
            solves.append(rs)
            return [3 if r > flip else 1 for r in rs], 1

        def stuck(signum, frame):
            # once no quarter point is new, the loop makes no more solves to count
            raise AssertionError(f"r_threshold did not stop ({len(solves)} solves)")

        monkeypatch.setattr(relaxation, "_census_count", counts)
        previous = signal.signal(signal.SIGALRM, stuck)
        signal.setitimer(signal.ITIMER_REAL, 10.0)
        try:
            with pytest.raises(ValueError, match=r"^tol = 1e-17 is below the float spacing of r") as raised:
                relaxation.r_threshold(5.0, 0.05, tol=1e-17)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        lo, hi = map(float, re.search(r"flips in \[(\S+), (\S+)\]", str(raised.value)).groups())
        assert lo <= flip < hi and hi - lo <= 4.0 * math.ulp(flip)
        # about one solve per quartering from the starting bracket down to the float spacing
        assert len(solves) <= 30

    def test_bad_bracket(self):
        with pytest.raises(RuntimeError):
            relaxation.r_threshold(5.0, 0.05, tol=0.05, r_lo=1.8, r_hi=2.0)

    def test_bad_bracket_message_names_the_outer_limits(self):
        with pytest.raises(RuntimeError, match=r"^bracket \[1\.8, 2\.0\] does not straddle the regime change"):
            relaxation.r_threshold(5.0, 0.05, tol=1e-3, r_lo=1.8, r_hi=2.0)


class RecordedGrid:
    """Stands in for ``dynamics._displacement_grid``: records the seed count
    of every solve."""

    def __init__(self):
        self.fn, self.sizes = dynamics._displacement_grid, []

    def __call__(self, specs, T, xs, sizes=None):
        self.sizes.append(len(xs))
        return self.fn(specs, T, xs, sizes)


def record_censuses(monkeypatch):
    """(grids, rounds): a ``RecordedGrid`` in place of
    ``dynamics._displacement_grid``, and the r of every ``_census_count``
    call, each appended as it is made."""
    grids, rounds, census_count = RecordedGrid(), [], relaxation._census_count

    def counted(c, eps, rs):
        rounds.append(rs)
        return census_count(c, eps, rs)

    monkeypatch.setattr(dynamics, "_displacement_grid", grids)
    monkeypatch.setattr(relaxation, "_census_count", counted)
    return grids, rounds


def bisect_r_threshold(c, eps, tol, r_lo=0.5, r_hi=2.0):
    """Oracle: bisection of the census regime over the whole of [r_lo, r_hi],
    with no starting estimate.  Returns (r, regime below, regime above,
    census calls)."""
    calls = []

    def bistable(r):
        calls.append(r)
        return relaxation._census_count(c, eps, [r])[0] == [3]

    lo_b, hi_b = bistable(r_lo), bistable(r_hi)
    assert lo_b != hi_b
    lo, hi = r_lo, r_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if bistable(mid) == hi_b:
            hi = mid
        else:
            lo = mid
    regime = {True: "bistable", False: "relaxation"}
    return 0.5 * (lo + hi), regime[lo_b], regime[hi_b], len(calls)


class TestSlowPassageBracket:
    @pytest.mark.parametrize(
        "eps, want", [(0.05, 1.44895), (0.04, 1.42192), (0.025, 1.37351), (0.02, 1.35389), (0.01, 1.30349)]
    )
    def test_estimate_values(self, eps, want):
        assert relaxation.r_star_estimate(5.0, eps) == pytest.approx(want, abs=5e-6)

    @pytest.mark.parametrize("eps", [0.05, 0.02, 0.01])
    def test_estimate_lies_just_above_the_census_threshold(self, eps):
        # measured at c = 5: 0.0055, 0.0012 and 0.0004 above, inside the
        # starting half-width eps/8, so no widening is needed
        res = relaxation.r_threshold(5.0, eps, tol=1e-4)
        over = relaxation.r_star_estimate(5.0, eps) - res.r
        assert 0.0 < over < relaxation.R_HALF_WIDTH_EPS * eps
        w = max(relaxation.R_HALF_WIDTH_TOLS * 1e-4, relaxation.R_HALF_WIDTH_EPS * eps)
        # the first grid of five r, then three quarter points per quartering
        # from 2 w down to tol
        quarterings = math.ceil(math.log(2.0 * w / 1e-4, 4))
        assert res.solves == quarterings and res.censuses == 5 + 3 * (quarterings - 1)

    @pytest.mark.parametrize("eps", [0.025, 0.032, 0.04, 0.05])
    def test_agrees_with_full_bracket_bisection(self, eps):
        # the eps range of the fold-bisect benchmark
        tol = 1e-3
        res = relaxation.r_threshold(5.0, eps, tol=tol)
        r, below, above, calls = bisect_r_threshold(5.0, eps, tol)
        assert abs(res.r - r) <= tol
        assert (res.regime_below, res.regime_above) == (below, above) == ("relaxation", "bistable")
        # the first solve censuses the 2 ends and 3 quarter points of 15 tol,
        # the second the 3 quarter points of the flipped 3.75 tol; the whole
        # bracket's bisection takes 2 ends and 11 halvings, one census each
        assert (res.solves, res.censuses) == (2, 8) and calls == 13

    def test_near_c4_threshold_matches_a_fine_grid(self, monkeypatch):
        # near c = 4 the close pair of a bistable census can share a coarse
        # cell; the certified census cuts it, and the threshold lies within
        # tol of the one that 4,097-seed censuses of r -+ tol bracket (a
        # fixed 512-seed grid gave 1.523917, where both censuses read 3)
        c, eps, tol = 4.05, 0.02, 1e-4
        grids, rounds = record_censuses(monkeypatch)
        res = relaxation.r_threshold(c, eps, tol=tol)
        # solves counts every family solve, the refinement rounds among them
        assert res.solves == len(grids.sizes) > len(rounds)
        family = [dynamics.OdeSpec(c, 0.0, relaxation.RelaxationSpec(c, eps, r).signal()) for r in (res.r - tol, res.r + tol)]
        scans = dynamics._brackets(family, relaxation.TWO_PI / eps, 4097)
        assert [len(dynamics._sign_changes(xs, d)) for xs, d in scans] == [1, 3]

    @pytest.mark.parametrize("eps", [0.025, 0.032, 0.04, 0.05])
    def test_each_census_is_one_solve_at_c5(self, monkeypatch, eps):
        # the eps range of the fold-bisect benchmark: the period map clears
        # every coarse cell without a crossing, so no census cuts one
        grids, rounds = record_censuses(monkeypatch)
        res = relaxation.r_threshold(5.0, eps, tol=1e-3)
        assert res.solves == len(rounds) == 2
        assert grids.sizes == [5 * relaxation.COUNT_SEEDS, 3 * relaxation.COUNT_SEEDS]

    @pytest.mark.parametrize("wrong", [0.5, 1.9])
    def test_wrong_estimate_widens_to_the_same_answer(self, monkeypatch, wrong):
        tol = 1e-3
        r, below, above, calls = bisect_r_threshold(5.0, 0.05, tol)
        monkeypatch.setattr(relaxation, "r_star_estimate", lambda c, eps: wrong)
        res = relaxation.r_threshold(5.0, 0.05, tol=tol)
        assert abs(res.r - r) <= tol
        assert (res.regime_below, res.regime_above) == (below, above)
        # each widening is one more solve of five r
        assert res.censuses > 8 and res.solves > 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tol": math.nan},
            {"tol": 0.0},
            {"tol": -1e-3},
            {"tol": math.inf},
            {"r_lo": 2.0, "r_hi": 0.5},
            {"r_lo": 1.0, "r_hi": 1.0},
            {"r_lo": math.nan},
            {"r_hi": math.inf},
        ],
    )
    def test_rejects_bad_bisection_inputs(self, kwargs):
        with pytest.raises(ValueError, match="r_threshold requires"):
            relaxation.r_threshold(5.0, 0.05, **kwargs)

    def test_bad_c_or_eps_raises_before_the_estimate(self):
        with pytest.raises(DomainError, match="RelaxationSpec requires c > 4"):
            relaxation.r_threshold(4.0, 0.05)
        for eps in (1.0, 0.0, math.nan):
            with pytest.raises(ValueError, match="eps must lie in|finite c, eps and r"):
                relaxation.r_threshold(5.0, eps)

    def test_estimate_rejects_bad_c_or_eps(self):
        for c in (4.0, 3.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                relaxation.r_star_estimate(c, 0.05)
        for eps in (1.0, 0.0, -0.1, math.nan):
            with pytest.raises(ValueError, match="eps must lie in"):
                relaxation.r_star_estimate(5.0, eps)
