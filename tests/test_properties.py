"""Property tests of the signal layer, and of the regime certificates against
the period-map census (hypothesis, fixed seed, small budget)."""

import itertools
import json
import math

import numpy as np
import pytest
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
    assert abs(closed - signals.weighted_average(y, dfrak, r, method="quad")) <= 1e-8


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
    with pytest.raises(ValueError, match=r"^cesaro_bound requires dfrak > 0, got 0.0$"):
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
@given(st.sampled_from((5.0, 8.0)), one_term_sums, st.sampled_from(dynamics.RHS_KINDS), st.floats(0.0, 1.0), lambda_offsets(3))
def test_period_map_is_nondecreasing_in_lambda(c, y, kind, u, offsets):
    # seeds on [0, 4] of the full equation, or [-sqrt 3, 4 - sqrt 3] recentered
    x = 4.0 * u - (0.0 if kind == "full" else math.sqrt(3.0))
    T = dynamics.signal_period(y)
    ends = [dynamics.poincare_map_log(dynamics.OdeSpec(c, model.lam1(c) + o, y, kind), T, x)[0] for o in offsets]
    assert ends == sorted(ends)


@MONOTONE_BUDGET
@given(st.sampled_from((5.0, 8.0)), one_term_sums, st.sampled_from(("concave-linear", "linear-convex")), lambda_offsets(5))
def test_two_solutions_persist_away_from_the_fold(c, y, kind, offsets):
    # two solutions of the concave-linear equation exist above lambda_minus,
    # of the linear-convex one below lambda_plus: walking away from the fold,
    # once the census finds two it keeps finding two
    T = dynamics.signal_period(y)
    lams = [model.lam1(c) + o for o in offsets] if kind == "concave-linear" else [model.lam2(c) - o for o in offsets]
    two = [dynamics.count_separated_solutions(dynamics.OdeSpec(c, lam, y, kind), T) >= 2 for lam in lams]
    assert two == sorted(two)
