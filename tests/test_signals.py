import math

import numpy as np
import pytest

from bistab import signals


def single(a=1.0, theta=1.0, phi=0.0, a0=0.0):
    return signals.TrigSum(a0, ((a, theta, phi),))


class TestEval:
    def test_constant(self):
        assert signals.eval(signals.Constant(2.0), 17.0) == 2.0

    def test_cosine_at_zero(self):
        assert signals.eval(single(), 0.0) == pytest.approx(1.0)

    def test_sine_convention(self):
        # sin(eps t) maps to cos with phase -pi/2; value at t=0 is the offset
        y = signals.TrigSum(6.0, ((0.1, 0.01, -math.pi / 2.0),))
        assert signals.eval(y, 0.0) == pytest.approx(6.0)
        assert signals.eval(y, math.pi / 0.02) == pytest.approx(6.1)

    def test_vectorized(self):
        t = np.linspace(0.0, 5.0, 11)
        vals = signals.eval(single(), t)
        assert vals.shape == t.shape
        np.testing.assert_allclose(vals, np.cos(t))

    def test_fourier_cesaro_matches_manual_mean(self):
        y = signals.FourierCesaro(0.5, (1.0, 0.25), (0.0, -0.5), 8)
        t = 0.7
        manual = 0.5
        for n, (a, b) in enumerate([(1.0, 0.0), (0.25, -0.5)], start=1):
            w = (8 - n) / 8
            manual += w * (a * math.cos(n * t) + b * math.sin(n * t))
        assert signals.eval(y, t) == pytest.approx(manual, abs=1e-12)

    def test_sampled_interpolation(self):
        y = signals.SampledPeriodic(4.0, (0.0, 1.0, 2.0, 3.0), (0.0, 1.0, 0.0, -1.0))
        assert signals.eval(y, 0.5) == pytest.approx(0.5)
        assert signals.eval(y, 3.5) == pytest.approx(-0.5)  # wraps to value 0 at t=4
        assert signals.eval(y, 7.0) == pytest.approx(-1.0)  # periodic extension


class TestValidation:
    def test_trig_requires_positive_frequencies(self):
        with pytest.raises(ValueError):
            signals.TrigSum(0.0, ((1.0, -1.0, 0.0),))

    def test_sampled_requires_sorted_times(self):
        with pytest.raises(ValueError):
            signals.SampledPeriodic(4.0, (0.0, 2.0, 1.0, 3.0), (0.0, 1.0, 0.0, -1.0))
        with pytest.raises(ValueError):
            signals.SampledPeriodic(4.0, (0.0, 1.0, 2.0), (0.0, 1.0, 0.0))

    def test_cesaro_requires_two_terms(self):
        with pytest.raises(ValueError):
            signals.FourierCesaro(0.0, (1.0,), (), 1)


class TestFiniteValidation:
    @pytest.mark.parametrize("a0", [math.nan, math.inf, -math.inf])
    def test_constant(self, a0):
        with pytest.raises(ValueError, match="finite"):
            signals.Constant(a0)

    @pytest.mark.parametrize(
        "a0,term", [(math.nan, (1.0, 1.0, 0.0)), (0.0, (math.inf, 1.0, 0.0)), (0.0, (1.0, math.inf, 0.0)),
                    (0.0, (1.0, math.nan, 0.0)), (0.0, (1.0, 1.0, -math.inf))])
    def test_trig_sum(self, a0, term):
        with pytest.raises(ValueError, match="finite"):
            signals.TrigSum(a0, (term,))

    @pytest.mark.parametrize(
        "a0,a,b", [(math.inf, (1.0,), ()), (0.0, (math.nan,), ()), (0.0, (1.0,), (math.inf,))])
    def test_fourier_cesaro(self, a0, a, b):
        with pytest.raises(ValueError, match="finite"):
            signals.FourierCesaro(a0, a, b, 4)

    @pytest.mark.parametrize(
        "period,times,values", [(math.inf, (0.0, 1.0, 2.0, 3.0), (0.0, 1.0, 0.0, -1.0)),
                                (math.nan, (0.0, 1.0, 2.0, 3.0), (0.0, 1.0, 0.0, -1.0)),
                                (4.0, (0.0, 1.0, math.nan, 3.0), (0.0, 1.0, 0.0, -1.0)),
                                (4.0, (0.0, 1.0, 2.0, 3.0), (0.0, math.inf, 0.0, -1.0))])
    def test_sampled_periodic(self, period, times, values):
        with pytest.raises(ValueError, match="finite"):
            signals.SampledPeriodic(period, times, values)

    def test_json_document_with_non_finite_value_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            signals.signal_from_json({"type": "constant", "a0": float("nan")})


class TestPeriod:
    def test_single_term(self):
        assert signals.fundamental_period(single(theta=2.0)) == pytest.approx(math.pi)

    def test_commensurate_pair(self):
        y = signals.TrigSum(0.0, ((1.0, 2.0, 0.0), (1.0, 3.0, 0.0)))
        assert signals.fundamental_period(y) == pytest.approx(2.0 * math.pi)

    def test_incommensurate_pair(self):
        y = signals.TrigSum(0.0, ((1.0, 1.0, 0.0), (1.0, math.sqrt(2.0), 0.0)))
        assert signals.fundamental_period(y) is None

    def test_constant(self):
        assert signals.fundamental_period(signals.Constant(1.0)) is None


class TestBounds:
    def test_single_term_amplitude(self):
        b = signals.bounds(single(a=3.0))
        assert b.sup - b.inf == 6.0 and b.exact

    def test_rationally_independent_sum(self):
        y = signals.TrigSum(
            1.0, ((1.0, 1.0, 0.3), (0.5, math.sqrt(2.0), 0.0)), rationally_independent=True
        )
        b = signals.bounds(y)
        assert b.exact
        assert b.sup == pytest.approx(2.5) and b.inf == pytest.approx(-0.5)

    def test_two_harmonic_example(self):
        # (8/25)(2 + cos t - cos 2t) oscillates from 0 to 1
        y = signals.TrigSum(16.0 / 25.0, ((8.0 / 25.0, 1.0, 0.0), (-8.0 / 25.0, 2.0, 0.0)))
        b = signals.bounds(y)
        assert b.inf == pytest.approx(0.0, abs=1e-9)
        assert b.sup == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "y",
        [
            # two near-equal maxima: the grid's best point sits on the lower one
            signals.TrigSum(0.0, ((1.0, 1.0, 4.263142916535716), (0.3425618990706392, 1.025, 3.5002555366005574))),
            # frequencies 1 and 1.001: a period of 2000 pi, too long for the grid
            signals.TrigSum(0.0, ((0.02, 1.0, 0.0), (0.02, 1.001, 1.0))),
        ],
        ids=["close-maxima", "coarse-grid"],
    )
    def test_scanned_range_encloses_dense_evaluation(self, y):
        b = signals.bounds(y)
        v = signals.eval(y, np.linspace(0.0, signals.fundamental_period(y), 1_000_001))
        assert b.inf <= v.min() and v.max() <= b.sup and not b.exact

    def test_cancelling_terms_give_one_value(self):
        # a grid flat to rounding is one value, not many candidates on each
        # side (which would give the outer bound a0 +- 0.2)
        b = signals.bounds(signals.TrigSum(0.0, ((0.1, 1.0, 0.0), (-0.1, 1.0, 0.0))))
        assert b.sup == b.inf == 0.0
        b = signals.bounds(signals.TrigSum(0.5, ((0.1, 1.0, 0.0), (0.1, 1.0, math.pi))))
        assert b.sup == b.inf == pytest.approx(0.5, abs=1e-15)

    def test_sampled(self):
        y = signals.SampledPeriodic(4.0, (0.0, 1.0, 2.0, 3.0), (0.0, 2.0, 0.0, -1.0))
        b = signals.bounds(y)
        assert (b.sup, b.inf, b.exact) == (2.0, -1.0, False)

    def test_sampled_runs_no_scan(self, monkeypatch):
        # the node extremes are the interpolant's: nothing is scanned
        def no_scan(*args):
            raise AssertionError("bounds scanned a sampled signal")

        monkeypatch.setattr(signals, "_scan_extremes", no_scan)
        y = signals.SampledPeriodic(4.0, (0.0, 1.0, 2.0, 3.0), (0.0, 2.0, 0.0, -1.0))
        assert signals.bounds(y) == signals.SignalBounds(2.0, -1.0, False)


class TestWeightedAverage:
    def test_constant(self):
        for r in (0.0, 3.0, -7.0):
            assert signals.weighted_average(signals.Constant(1.5), 2.0, r) == pytest.approx(1.5)

    def test_single_term_closed_form(self):
        a, th, ph, d, r = 0.8, 1.7, 0.4, 1.2, 0.3
        expected = a * (d * d * math.cos(th * r + ph) - th * d * math.sin(th * r + ph)) / (d * d + th * th)
        got = signals.weighted_average(single(a, th, ph), d, r)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_quadrature_matches_closed_form(self):
        y = single(1.0, 1.0, 0.0)
        closed = signals.weighted_average(y, 1.0, 0.3)
        quad = signals._weighted_quad(y, 1.0, 0.3)
        assert quad == pytest.approx(closed, abs=1e-8)

    def test_convex_combination_property(self):
        y = signals.TrigSum(0.3, ((1.0, 1.0, 0.0), (0.5, 3.0, 1.0)))
        b = signals.bounds(y)
        for d in (0.25, 1.0, 4.0):
            for r in np.linspace(0.0, 6.0, 13):
                w = signals.weighted_average(y, d, r)
                assert b.inf - 1e-9 <= w <= b.sup + 1e-9

    def test_rejects_nonpositive_dfrak(self):
        with pytest.raises(ValueError):
            signals.weighted_average(single(), 0.0, 0.0)


class TestWeightedBounds:
    def test_single_term(self):
        w = signals.weighted_bounds(single(), 1.0)
        assert w.sup_w == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
        assert w.inf_w == pytest.approx(-1.0 / math.sqrt(2.0), abs=1e-12)
        assert w.exact

    def test_constant(self):
        w = signals.weighted_bounds(signals.Constant(2.0), 0.5)
        assert w.sup_w == w.inf_w == 2.0

    def test_within_signal_bounds(self):
        y = signals.TrigSum(0.0, ((1.0, 1.0, 0.0), (0.7, 2.0, 0.5)))
        b = signals.bounds(y)
        w = signals.weighted_bounds(y, 0.8)
        assert b.inf <= w.inf_w <= w.sup_w <= b.sup

    def test_phase_shift_invariance(self):
        # shifting all phases by theta_n * s is a time translation
        s = 0.613
        y1 = signals.TrigSum(0.0, ((1.0, 1.0, 0.2), (0.5, 2.0, 1.1)))
        y2 = signals.TrigSum(0.0, ((1.0, 1.0, 0.2 + 1.0 * s), (0.5, 2.0, 1.1 + 2.0 * s)))
        w1 = signals.weighted_bounds(y1, 1.0)
        w2 = signals.weighted_bounds(y2, 1.0)
        assert w1.sup_w == pytest.approx(w2.sup_w, abs=1e-8)
        assert w1.inf_w == pytest.approx(w2.inf_w, abs=1e-8)

    def test_two_harmonic_example(self):
        y = signals.TrigSum(16.0 / 25.0, ((8.0 / 25.0, 1.0, 0.0), (-8.0 / 25.0, 2.0, 0.0)))
        b = signals.bounds(y)
        w = signals.weighted_bounds(y, 1.0)
        assert w.sup_w - b.inf == pytest.approx(0.873, abs=0.005)
        assert b.sup - w.inf_w == pytest.approx(0.725, abs=0.005)

    def test_sampled_signal(self):
        # piecewise-linear approximation of 0.5 + 0.5 cos t
        ts = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
        y = signals.SampledPeriodic(2.0 * math.pi, tuple(ts), tuple(0.5 + 0.5 * np.cos(ts)))
        w = signals.weighted_bounds(y, 1.0)
        assert w.sup_w == pytest.approx(0.5 + 0.5 / math.sqrt(2.0), abs=1e-3)
        assert w.inf_w == pytest.approx(0.5 - 0.5 / math.sqrt(2.0), abs=1e-3)


def inline_sampled_weighted_bounds(signal, dfrak):
    """Reference: the sampled branch of weighted_bounds as a hand-written scan
    (grid 256, golden refinement to 1e-8)."""
    f = lambda r: signals.weighted_average(signal, dfrak, float(r))
    rs = np.linspace(0.0, signal.period, 256, endpoint=False)
    vals = np.array([f(r) for r in rs])
    h = signal.period / 256
    imax, imin = int(np.argmax(vals)), int(np.argmin(vals))
    _, sup_w = signals._golden_max(f, rs[imax] - h, rs[imax] + h, xtol=1e-8)
    _, neg = signals._golden_max(lambda r: -f(r), rs[imin] - h, rs[imin] + h, xtol=1e-8)
    return float(sup_w), float(-neg)


@pytest.mark.parametrize("seed", range(4))
def test_sampled_weighted_bounds_equal_inline_scan(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 17))
    period = float(rng.uniform(0.5, 10.0))
    y = signals.SampledPeriodic(period, tuple(period * np.arange(n) / n), tuple(rng.uniform(-1.0, 1.0, n)))
    for dfrak in (0.1, 1.0, 7.5):
        w = signals.weighted_bounds(y, dfrak)
        assert (w.sup_w, w.inf_w) == inline_sampled_weighted_bounds(y, dfrak)


class TestSeriesBound:
    def test_single_term(self):
        assert signals.series_bound([(1.0, 1.0)], 1.0) == pytest.approx(1.0 + 1.0 / math.sqrt(2.0))

    def test_empty(self):
        assert signals.series_bound([], 1.0) == 0.0

    def test_dominates_weighted_variation(self):
        y = signals.TrigSum(0.0, ((1.0, 1.0, 0.0), (0.5, 2.0, 0.7), (0.25, 5.0, 0.1)))
        b = signals.bounds(y)
        for d in (0.3, 1.0, 2.5):
            w = signals.weighted_bounds(y, d)
            bound = signals.series_bound([(1.0, 1.0), (0.5, 2.0), (0.25, 5.0)], d)
            assert w.sup_w - b.inf <= bound + 1e-9
            assert b.sup - w.inf_w <= bound + 1e-9


class TestCesaroBound:
    def test_zeros(self):
        assert signals.cesaro_bound([], [], 1.0, 5) == 0.0

    def test_limit_of_weight(self):
        d = 1.0
        target = 1.0 + d / math.sqrt(d * d + 1.0)
        assert signals.cesaro_bound([1.0], [], d, 10_000) == pytest.approx(target, rel=1e-3)

    def test_two_coefficient_case(self):
        got = signals.cesaro_bound([1.0], [1.0], 1.0, 2)
        assert got == pytest.approx(1.0 + 1.0 / math.sqrt(2.0), abs=1e-12)


class TestJson:
    @pytest.mark.parametrize(
        "y",
        [
            signals.Constant(2.5),
            signals.TrigSum(0.1, ((1.0, 2.0, 0.3), (0.5, 3.0, -0.2)), rationally_independent=True),
            signals.FourierCesaro(0.0, (1.0, 0.5), (0.2,), 6),
            signals.SampledPeriodic(4.0, (0.0, 1.0, 2.0, 3.0), (0.0, 1.0, 0.0, -1.0)),
        ],
    )
    def test_round_trip(self, y):
        assert signals.signal_from_json(signals.signal_to_json(y)) == y

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            signals.signal_from_json({"type": "square-wave"})

    @pytest.mark.parametrize(
        "doc",
        [
            {"type": "trig", "terms": [[1.0, 1.0, 0.0]], "rationaly_independent": True},
            {"type": "fourier_cesaro", "a0": 0.0, "a_coeffs": [1.0], "b_coeffs": [], "n_terms": 6},
            {"type": "sampled", "period": 4.0, "times": [0.0, 1.0, 2.0, 3.0], "values": [0.0, 1.0, 0.0, -1.0]},
            {"type": "constant", "a0": 1.0, "period": 2.0},
        ],
    )
    def test_unknown_key_rejected(self, doc):
        with pytest.raises(ValueError, match="unknown keys"):
            signals.signal_from_json(doc)

    @pytest.mark.parametrize("doc", [[1, 2], "constant", 3.0, None])
    def test_non_object_rejected(self, doc):
        with pytest.raises(ValueError, match="JSON object"):
            signals.signal_from_json(doc)

    @pytest.mark.parametrize(
        "doc,message",
        [
            # "false" is a non-empty string, which used to read as true
            ({"type": "trig", "terms": [[0.1, 1.0, 0.0], [0.1, 2.0, 0.0]], "rationally_independent": "false"},
             "rationally_independent"),
            ({"type": "trig", "terms": [[0.1, 1.0, 0.0]], "rationally_independent": 1}, "rationally_independent"),
            ({"type": "fourier_cesaro", "a": [0.1], "b": [], "n_terms": 6.7}, "n_terms"),
            ({"type": "fourier_cesaro", "a": [0.1], "b": [], "n_terms": "6"}, "n_terms"),
            ({"type": "constant", "a0": "0.5"}, "a0"),
            ({"type": "constant", "a0": True}, "a0"),
            ({"type": "constant", "a0": 10**400}, "a0 must be finite"),
            ({"type": "constant"}, "a0"),
            ({"type": "trig", "terms": [[0.1, "1.0", 0.0]]}, "terms"),
            ({"type": "trig", "terms": [[0.1, 1.0]]}, "terms"),
            ({"type": "fourier_cesaro", "a": "0.1", "n_terms": 6}, "a"),
            ({"type": "sampled", "period": 4.0, "samples": [[0.0, 0.0], [1.0, "1"], [2.0, 0.0], [3.0, -1.0]]},
             "samples"),
            ({"type": [1]}, "signal type"),
        ],
        ids=["flag-string", "flag-int", "n_terms-fraction", "n_terms-string", "a0-string", "a0-bool", "a0-huge-int",
             "a0-missing", "term-string", "term-short", "coeffs-string", "sample-string", "type-list"],
    )
    def test_wrong_value_type_rejected(self, doc, message):
        with pytest.raises(ValueError, match=message):
            signals.signal_from_json(doc)

    def test_integral_float_n_terms_accepted(self):
        doc = {"type": "fourier_cesaro", "a": [0.1], "b": [], "n_terms": 6.0}
        assert signals.signal_from_json(doc) == signals.FourierCesaro(0.0, (0.1,), (), 6)
