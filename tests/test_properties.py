"""Property tests of the signal layer, and of the regime certificates against
the period-map census (hypothesis, fixed seed, small budget)."""

import itertools
import json
import math

import numpy as np
import pytest
from comparison import KINDS, comparison_displacement, comparison_map, comparison_seeds
from hypothesis import given, settings
from hypothesis import strategies as st

from bistab import criteria, dynamics, model, signals

SLACK = 1e-9
BUDGET = settings(max_examples=50, deadline=None, derandomize=True, database=None)

magnitudes = st.floats(1e-3, 1.0)
amplitudes = st.tuples(magnitudes, st.booleans()).map(lambda m: m[0] if m[1] else -m[0])
offsets = st.floats(-1.0, 1.0)
phases = st.floats(0.0, 2.0 * math.pi)

constants = st.builds(signals.Constant, offsets)


@st.composite
def trig_sums(draw):
    # commensurate (integer ratios) or incommensurate frequencies, optionally
    # flagged rationally independent, in which case the term-wise sums are the bounds
    base = draw(st.floats(0.5, 2.0))
    ratios = draw(st.sampled_from([(1.0, 2.0, 3.0, 4.0), (1.0, math.sqrt(2.0), math.sqrt(5.0))]))
    ks = draw(st.lists(st.sampled_from(ratios), min_size=1, max_size=3, unique=True))
    terms = tuple((draw(amplitudes), base * k, draw(phases)) for k in ks)
    return signals.TrigSum(draw(offsets), terms, draw(st.booleans()))


cesaro_sums = st.builds(
    signals.FourierCesaro,
    offsets,
    st.lists(amplitudes, max_size=3).map(tuple),
    st.lists(amplitudes, max_size=3).map(tuple),
    st.integers(2, 10),
)


@st.composite
def sampled(draw):
    period = draw(st.floats(0.5, 10.0))
    values = draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=16))
    n = len(values)
    return signals.SampledPeriodic(period, tuple(period * k / n for k in range(n)), tuple(values))


all_signals = st.one_of(constants, trig_sums(), cesaro_sums, sampled())


@BUDGET
@given(all_signals, st.floats(0.05, 20.0))
def test_weighted_extremes_lie_inside_the_range(y, dfrak):
    # the weighted average is a convex combination of values of y
    b = signals.bounds(y)
    w = signals.weighted_bounds(y, dfrak)
    assert b.inf - SLACK <= w.inf_w <= w.sup_w + SLACK
    assert w.sup_w <= b.sup + SLACK


@BUDGET
@given(all_signals)
def test_json_round_trip(y):
    assert signals.signal_from_json(json.loads(json.dumps(signals.signal_to_json(y)))) == y


def textbook_weighted_average(a0, terms, d, r):
    # d * int_0^inf e^{-ds} a cos(th (r+s) + ph) ds, term by term
    total = a0
    for a, th, ph in terms:
        arg = th * r + ph
        total += a * (d * d * math.cos(arg) - th * d * math.sin(arg)) / (d * d + th * th)
    return total


def written_out_terms(y):
    """(a0, (amplitude, frequency, phase) terms) of a trig sum or a Cesaro
    mean, the Cesaro weights (N - n)/N and b sin = b cos(. - pi/2) spelt out."""
    if isinstance(y, signals.TrigSum):
        return y.a0, y.terms
    N = y.n_terms
    cos_terms = [((N - n) / N * a, float(n), 0.0) for n, a in enumerate(y.a_coeffs[: N - 1], 1)]
    sin_terms = [((N - n) / N * b, float(n), -math.pi / 2.0) for n, b in enumerate(y.b_coeffs[: N - 1], 1)]
    return y.a0, tuple(cos_terms + sin_terms)


trig_and_cesaro = st.one_of(trig_sums(), cesaro_sums)


@BUDGET
@given(trig_and_cesaro, st.floats(0.05, 20.0), st.floats(-3.0, 3.0))
def test_weighted_average_is_the_damped_phase_advanced_sum(y, dfrak, r):
    a0, terms = written_out_terms(y)
    scale = max(1.0, abs(a0) + sum(abs(a) for a, _, _ in terms))
    got = signals.weighted_average(y, dfrak, r)
    assert abs(got - textbook_weighted_average(a0, terms, dfrak, r)) <= 1e-14 * scale


@BUDGET
@given(trig_and_cesaro, st.floats(0.2, 5.0), st.floats(-3.0, 3.0))
def test_weighted_average_matches_quadrature(y, dfrak, r):
    closed = signals.weighted_average(y, dfrak, r)
    assert abs(closed - signals._weighted_quad(y, dfrak, r)) <= 1e-8


@BUDGET
@given(trig_sums(), st.floats(-10.0, 10.0), st.floats(0.05, 20.0))
def test_bounds_are_time_translation_invariant(y, s, dfrak):
    # shifting every phase by theta_n * s is the translate t -> t + s
    shifted = signals.TrigSum(y.a0, tuple((a, th, ph + th * s) for a, th, ph in y.terms), y.rationally_independent)
    b, b_s = signals.bounds(y), signals.bounds(shifted)
    w, w_s = signals.weighted_bounds(y, dfrak), signals.weighted_bounds(shifted, dfrak)
    assert abs(b.sup - b_s.sup) <= SLACK and abs(b.inf - b_s.inf) <= SLACK
    assert abs(w.sup_w - w_s.sup_w) <= SLACK and abs(w.inf_w - w_s.inf_w) <= SLACK
    # and the bounds enclose y, also beyond any one scan window
    values = signals.eval(y, np.linspace(-1000.0, 1000.0, 200_001))
    assert b.inf - SLACK <= values.min() and values.max() <= b.sup + SLACK


coefficient_lists = st.lists(st.floats(-1.0, 1.0), max_size=6)


@BUDGET
@given(coefficient_lists, coefficient_lists, st.floats(0.05, 20.0), st.integers(2, 12))
def test_cesaro_bound_is_the_written_out_sum(a, b, dfrak, n_terms):
    # (1/N) sum_{n=1}^{N-1} (N - n)(|a_n| + |b_n|)(1 + d / sqrt(d^2 + n^2))
    expected = 0.0
    for n in range(1, n_terms):
        a_n = abs(a[n - 1]) if n <= len(a) else 0.0
        b_n = abs(b[n - 1]) if n <= len(b) else 0.0
        expected += (n_terms - n) * (a_n + b_n) * (1.0 + dfrak / math.sqrt(dfrak * dfrak + n * n))
    expected /= n_terms
    assert abs(signals.cesaro_bound(a, b, dfrak, n_terms) - expected) <= 1e-12 * expected


def test_cesaro_bound_errors():
    with pytest.raises(ValueError, match=r"^cesaro_bound requires a finite dfrak > 0, got 0.0$"):
        signals.cesaro_bound([1.0], [], 0.0, 5)
    with pytest.raises(ValueError, match=r"^cesaro_bound needs n_terms >= 2$"):
        signals.cesaro_bound([1.0], [], 1.0, 1)
    # the dfrak check comes first
    with pytest.raises(ValueError, match="dfrak"):
        signals.cesaro_bound([1.0], [], -1.0, 1)


# each example runs at most one census (~0.1 s)
CENSUS_BUDGET = settings(max_examples=20, deadline=None, derandomize=True, database=None)
C_CENSUS = 5.0


@st.composite
def small_trig_sums(draw):
    # one or two commensurate harmonics, small enough that the exact
    # small-variation interval of thm 3.2 is often non-empty at c = 5
    base = draw(st.floats(0.5, 2.0))
    ks = draw(st.lists(st.sampled_from((1.0, 2.0)), min_size=1, max_size=2, unique=True))
    return signals.TrigSum(0.0, tuple((draw(st.floats(0.002, 0.08)), base * k, draw(phases)) for k in ks))


@CENSUS_BUDGET
@given(small_trig_sums(), st.floats(-0.25, 1.25))
def test_certificate_agrees_with_the_census(y, u):
    # lambda runs across the outer sandwich [lam1 - sup y, lam2 - inf y] and a
    # quarter of its width beyond either end
    b = signals.bounds(y)
    lo, hi = model.lam1(C_CENSUS) - b.sup, model.lam2(C_CENSUS) - b.inf
    lam = lo + u * (hi - lo)
    cert = criteria.classify(C_CENSUS, lam, y)
    if cert.regime == "indeterminate":
        return
    sols = dynamics.find_periodic_solutions(dynamics.OdeSpec(C_CENSUS, lam, y), dynamics.signal_period(y))
    want = ["attractive", "repulsive", "attractive"] if cert.regime == "bistability" else ["attractive"]
    assert [s.kind for s in sols] == want


# monotonicity in lambda, which the fold solve estimate_lambda_pm relies on:
# a few map calls or censuses per example (~0.02 s each)
MONOTONE_BUDGET = settings(max_examples=8, deadline=None, derandomize=True, database=None)

one_term_sums = st.builds(
    lambda a, th, ph: signals.TrigSum(0.0, ((a, th, ph),)), amplitudes.map(lambda a: 0.05 * a), st.floats(0.7, 2.0), phases
)


@st.composite
def lambda_offsets(draw, n):
    # n increasing offsets from a fold value, at least 1e-3 apart
    steps = draw(st.lists(st.floats(1e-3, 0.06), min_size=n - 1, max_size=n - 1))
    return list(itertools.accumulate(steps, initial=draw(st.floats(-0.12, 0.0))))


@MONOTONE_BUDGET
@given(
    st.sampled_from((5.0, 8.0)), one_term_sums, st.sampled_from(("full", *KINDS)), st.floats(0.0, 1.0), lambda_offsets(3)
)
def test_period_map_is_nondecreasing_in_lambda(c, y, kind, u, offsets):
    # seeds on [0, 4] of the full equation, or [-sqrt 3, 4 - sqrt 3] recentered
    x = 4.0 * u - (0.0 if kind == "full" else math.sqrt(3.0))
    T = dynamics.signal_period(y)
    if kind == "full":
        ends = [dynamics.poincare_map_log(dynamics.OdeSpec(c, model.lam1(c) + o, y), T, x)[0] for o in offsets]
    else:
        ends = [comparison_map(c, model.lam1(c) + o, y, kind, T, [x])[0] for o in offsets]
    assert ends == sorted(ends)


@MONOTONE_BUDGET
@given(st.sampled_from((5.0, 8.0)), one_term_sums, st.sampled_from(KINDS), lambda_offsets(5))
def test_two_solutions_persist_away_from_the_fold(c, y, kind, offsets):
    # two solutions of the concave-linear equation exist above lambda_minus,
    # of the linear-convex one below lambda_plus: walking away from the fold,
    # once the census of its wide interval finds two it keeps finding two
    T = dynamics.signal_period(y)
    lams = [model.lam1(c) + o for o in offsets] if kind == "concave-linear" else [model.lam2(c) - o for o in offsets]
    two = []
    for lam in lams:
        xs = comparison_seeds(c, lam, y, kind, dynamics.CENSUS_SEEDS)
        two.append(dynamics._sign_changes(xs, comparison_displacement(c, lam, y, kind, T, xs))[0].size >= 2)
    assert two == sorted(two)


# second-order averaging of the fold values (dynamics._averaged_fold): the
# variance of Y, the zero-mean antiderivative of y - ybar, taken here from
# the FFT of y on one period (Y_k = y_k / (i k omega)), not from the phasors
@st.composite
def repeated_trig_sums(draw):
    # integer frequency ratios, a ratio possibly twice: two terms on one
    # frequency add as phasors, not as variances
    base = draw(st.floats(0.5, 4.0))
    ks = draw(st.lists(st.sampled_from((1.0, 2.0, 3.0)), min_size=1, max_size=4))
    terms = tuple((draw(amplitudes), base * k, draw(phases)) for k in ks)
    return signals.TrigSum(draw(offsets), terms)


def variance_of_antiderivative(y) -> tuple[float, float]:
    """(ybar, Var(Y)) from 4,096 samples of y on one period."""
    T, n = dynamics.signal_period(y), 4096
    v = np.fft.rfft(signals.eval(y, np.linspace(0.0, T, n, endpoint=False))) / n
    k = np.arange(1, v.size)
    # a real signal's k-th harmonic holds |v_k|^2 twice (k and -k)
    return float(v[0].real), float(2.0 * np.sum(np.abs(v[1:]) ** 2 / (k * 2.0 * math.pi / T) ** 2))


def slope_jumps(y: signals.SampledPeriodic) -> np.ndarray:
    """The jumps of the interpolant's slope at its nodes: y'' is their deltas."""
    slopes = np.diff(np.r_[y.values, y.values[0]]) / np.diff(np.r_[y.times, y.times[0] + y.period])
    return slopes - np.roll(slopes, 1)


@st.composite
def irregular_sampled(draw):
    # uneven node spacing, the first node not at 0
    period = draw(st.floats(0.5, 10.0))
    gaps = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=5, max_size=17)))
    times = period * np.cumsum(gaps)[:-1] / gaps.sum()
    values = draw(st.lists(st.floats(-1.0, 1.0), min_size=times.size, max_size=times.size))
    return signals.SampledPeriodic(period, tuple(times.tolist()), tuple(values))


@BUDGET
@given(st.one_of(sampled(), irregular_sampled()), st.integers(1, 64))
def test_sampled_series_converges_to_the_interpolant(y, m):
    # |c_n| <= J / (T w_n^2) with J = sum |jump|, so the harmonics beyond m
    # add at most 2 J T / (2 pi)^2 sum_{n > m} n^-2 < J T / (2 pi^2 m); the
    # largest gap measured on these draws is 0.5 of that bound
    a0, terms = signals._sampled_terms(y, m)
    assert [th for _, th, _ in terms] == pytest.approx([2.0 * math.pi * n / y.period for n in range(1, m + 1)])
    t = np.linspace(-y.period, 2.0 * y.period, 1201)
    gap = np.max(np.abs(signals.eval(signals.TrigSum(a0, terms), t) - signals.eval(y, t)))
    bound = np.sum(np.abs(slope_jumps(y))) * y.period / (2.0 * math.pi**2 * m)
    assert gap <= bound + 1e-12


@BUDGET
@given(st.one_of(sampled(), irregular_sampled()))
def test_sampled_series_mean_is_the_trapezoid_mean(y):
    ts, vs = np.r_[y.times, y.times[0] + y.period], np.r_[y.values, y.values[0]]
    trapezoid = float(np.sum(0.5 * (vs[1:] + vs[:-1]) * np.diff(ts))) / y.period
    assert signals._sampled_terms(y, 4)[0] == pytest.approx(trapezoid, rel=1e-12, abs=1e-15)


@BUDGET
@given(st.sampled_from((4.5, 5.0, 8.0, 12.0)), st.one_of(repeated_trig_sums(), cesaro_sums, sampled()))
def test_averaged_folds_narrow_the_interval_by_the_variance_of_y(c, y):
    ybar, var = variance_of_antiderivative(y)
    mean_gap = var_gap = 0.0
    if isinstance(y, signals.SampledPeriodic):
        # the oracle's 4,096 samples meet a kink up to dt off a sample, so
        # their mean is off the exact one by at most J dt^2 / (8 T); the
        # prediction keeps m = (number of nodes) harmonics, and |c_n| <= J / (T w_n^2)
        # bounds the dropped part of Var(Y) by 2 J^2 T^4 / ((2 pi)^6 5 m^5).
        # On 400 random inputs the gaps measured 0.44 and 0.27 of these bounds
        J, T, m = np.sum(np.abs(slope_jumps(y))), y.period, len(y.times)
        mean_gap = J * (T / 4096) ** 2 / (8.0 * T)
        var_gap = 2.0 * J**2 * T**4 / ((2.0 * math.pi) ** 6 * 5.0 * m**5)
    lam_minus = dynamics._averaged_fold(c, y, "concave-linear")[0]
    lam_plus = dynamics._averaged_fold(c, y, "linear-convex")[0]
    k1, k2 = abs(model.gbar_deriv2(c, model.x1(c))), abs(model.gbar_deriv2(c, model.x2(c)))
    assert lam_minus == pytest.approx(
        model.lam1(c) - ybar + k2 * var / 2.0, rel=1e-12, abs=1e-12 + mean_gap + k2 * var_gap / 2.0
    )
    assert lam_plus == pytest.approx(
        model.lam2(c) - ybar - k1 * var / 2.0, rel=1e-12, abs=1e-12 + mean_gap + k1 * var_gap / 2.0
    )
    narrowing = (model.lam2(c) - model.lam1(c)) - (lam_plus - lam_minus)
    assert narrowing == pytest.approx((k1 + k2) * var / 2.0, rel=1e-9, abs=1e-12 + (k1 + k2) * var_gap / 2.0)
