import math

import numpy as np
import pytest

from bistab import criteria, signals
from bistab.model import DomainError, diagnostics


def sine(amp, theta=1.0, a0=0.0):
    return signals.TrigSum(a0, ((amp, theta, -math.pi / 2.0),))


class TestIntervalI1:
    def test_zero_signal(self):
        diag = diagnostics(5.0)
        iv = criteria.interval_I1(diag, signals.bounds(signals.Constant(0.0)))
        assert not iv.empty
        assert iv.lower == pytest.approx(5.9483, abs=1e-4)
        assert iv.upper == pytest.approx(6.1334, abs=1e-4)
        assert iv.kind == "exact"

    def test_empty_at_variation_h1(self):
        diag = diagnostics(5.0)
        iv = criteria.interval_I1(diag, signals.bounds(sine(diag.h1 / 2.0)))
        assert iv.empty

    def test_width_tracks_variation(self):
        diag = diagnostics(5.0)
        iv = criteria.interval_I1(diag, signals.bounds(sine(0.05)))
        assert iv.upper - iv.lower == pytest.approx(diag.h1 - 0.1, abs=1e-9)

    def test_rejects_subcritical(self):
        with pytest.raises(DomainError):
            criteria.interval_I1(diagnostics(3.0), signals.bounds(signals.Constant(0.0)))


class TestMuBounds:
    def test_zero_signal(self):
        diag = diagnostics(5.0)
        w = signals.weighted_bounds(signals.Constant(0.0), diag.dfrak)
        mb = criteria.mu_bounds(diag, w)
        assert mb.mu_minus == pytest.approx(6.062178, abs=1e-6)
        assert mb.mu_plus == pytest.approx(6.062178, abs=1e-6)

    def test_sine_at_c8(self):
        # c = 8 gives dfrak = 1, so the weighted extremes are +-1/sqrt(2)
        diag = diagnostics(8.0)
        w = signals.weighted_bounds(sine(1.0), diag.dfrak)
        mb = criteria.mu_bounds(diag, w)
        assert mb.mu_minus == pytest.approx(diag.cshift + 1.0 / math.sqrt(2.0), abs=1e-9)
        assert mb.mu_plus == pytest.approx(diag.cshift - 1.0 / math.sqrt(2.0), abs=1e-9)

    @pytest.mark.parametrize("c", [4.5, 5.0, 8.0])
    @pytest.mark.parametrize("amp", [0.0, 0.3, 1.0])
    def test_ordering(self, c, amp):
        diag = diagnostics(c)
        w = signals.weighted_bounds(sine(amp), diag.dfrak)
        mb = criteria.mu_bounds(diag, w)
        assert mb.mu_plus <= mb.mu_minus


class TestWeightedCriterion:
    def test_zero_signal_slack(self):
        diag = diagnostics(5.0)
        b = signals.bounds(signals.Constant(0.0))
        w = signals.weighted_bounds(signals.Constant(0.0), diag.dfrak)
        rep = criteria.check_thm_4_6(diag, b, w)
        assert rep.holds
        assert rep.slacks["h2_minus_weighted_variation"] == pytest.approx(diag.h2)
        assert rep.slacks["h3_minus_weighted_variation"] == pytest.approx(diag.h3)
        inner = [iv for iv in rep.intervals if iv.kind == "inner-bound"][0]
        assert (inner.lower, inner.upper) == pytest.approx((diag.lam1, diag.lam2))

    def test_flip_at_equality(self):
        # for y = a sin t at dfrak = 1 both weighted variations are a(1 + 1/sqrt 2)
        diag = diagnostics(8.0)
        factor = 1.0 + 1.0 / math.sqrt(2.0)
        for scale, expect in ((0.999, True), (1.001, False)):
            a = scale * diag.h3 / factor
            b = signals.bounds(sine(a))
            w = signals.weighted_bounds(sine(a), diag.dfrak)
            assert criteria.check_thm_4_6(diag, b, w).holds is expect

    def test_failed_condition_reports_no_interval(self):
        diag = diagnostics(5.0)
        y = sine(diag.h2)
        rep = criteria.check_thm_4_6(diag, signals.bounds(y), signals.weighted_bounds(y, diag.dfrak))
        assert not rep.holds and rep.intervals == ()


class TestVariationCriterion:
    def test_small_variation_passes(self):
        diag = diagnostics(5.0)
        assert criteria.check_cor_4_7(diag, signals.bounds(sine(0.025))).holds

    def test_large_variation_fails(self):
        diag = diagnostics(5.0)
        assert not criteria.check_cor_4_7(diag, signals.bounds(sine(0.05))).holds

    def test_polynomial_bracket(self):
        assert criteria.variation_polynomial(456.0) <= 0.0
        assert criteria.variation_polynomial(457.0) > 0.0


class TestNanBounds:
    """A NaN bound makes every slack NaN, and a NaN slack certifies nothing."""

    @pytest.mark.parametrize("field", ["sup", "inf"])
    def test_signal_bound(self, field):
        b = signals.SignalBounds(**{"sup": 0.0, "inf": 0.0, "exact": True, field: math.nan})
        w = signals.WeightedBounds(0.0, 0.0, True)
        assert not criteria.check_cor_4_7(diagnostics(5.0), b).holds
        assert not criteria.check_thm_4_6(diagnostics(5.0), b, w).holds
        assert not criteria.check_thm_6_1(diagnostics(4.8), b).holds

    @pytest.mark.parametrize("field", ["sup_w", "inf_w"])
    def test_weighted_bound(self, field):
        b = signals.SignalBounds(0.0, 0.0, True)
        w = signals.WeightedBounds(**{"sup_w": 0.0, "inf_w": 0.0, "exact": True, field: math.nan})
        assert not criteria.check_thm_4_6(diagnostics(5.0), b, w).holds


class TestBandCriterion:
    def test_zero_signal(self):
        diag = diagnostics(4.8)
        assert diag.h4 > 0.0
        rep = criteria.check_thm_6_1(diag, signals.bounds(signals.Constant(0.0)))
        assert rep.holds
        band = rep.intervals[0]
        assert (band.lower, band.upper) == pytest.approx((diag.lam3, diag.lam4))

    def test_variation_above_h4_fails(self):
        diag = diagnostics(4.8)
        rep = criteria.check_thm_6_1(diag, signals.bounds(sine(0.6 * diag.h4)))
        assert not rep.holds  # variation 1.2*h4 exceeds h4

    def test_domain(self):
        with pytest.raises(DomainError):
            criteria.check_thm_6_1(diagnostics(5.0), signals.bounds(signals.Constant(0.0)))
        # only raised when actually called with c outside (4, 2+2*sqrt(2))
        criteria.check_thm_6_1(diagnostics(4.8), signals.bounds(signals.Constant(0.0)))


class TestClassify:
    def test_subcritical_always_uniform(self):
        for lam in (0.5, 5.0, 50.0):
            cert = criteria.classify(3.0, lam, signals.Constant(0.0))
            assert cert.regime == "uniform-stability"
            assert cert.fired_rule == "prop-3.1"

    def test_autonomous_bistable(self):
        cert = criteria.classify(5.0, 6.0, signals.Constant(0.0))
        assert cert.regime == "bistability" and cert.fired_rule == "thm-3.2"

    def test_range_above(self):
        cert = criteria.classify(5.0, 7.0, signals.Constant(0.0))
        assert cert.regime == "uniform-stability" and cert.fired_rule == "remark-3.3"

    def test_range_below(self):
        cert = criteria.classify(5.0, 2.0, signals.Constant(0.0))
        assert cert.regime == "uniform-stability" and cert.fired_rule == "remark-3.3"

    @pytest.mark.parametrize(
        "y", [signals.TrigSum(0.0, ((0.01, 1.0, 0.0),)), signals.Constant(0.0)], ids=["trig", "constant"]
    )
    def test_degenerate_fold_at_c4_is_indeterminate(self, y):
        # lam1 = lam2 = 3 sqrt(3) at c = 4: the equilibrium there is not
        # hyperbolic, so neither prop-3.1 nor the interval rules apply
        cert = criteria.classify(4.0, 3.0 * math.sqrt(3.0), y)
        assert cert.regime == "indeterminate" and cert.fired_rule is None
        assert "degenerate fold" in cert.notes

    def test_scanned_range_decides_no_false_certificate(self):
        # inf y is -0.04, so thm-3.2's exact interval starts at lam1 + 0.04 =
        # 5.988274; a scan that under-reports the range must not certify below it
        y = signals.TrigSum(0.0, ((0.02, 1.0, 0.0), (0.02, 1.001, 1.0)))
        cert = criteria.classify(5.0, 5.988256, y)
        assert cert.regime == "indeterminate"

    def test_rejects_lambda_below_invariance_threshold(self):
        with pytest.raises(ValueError):
            criteria.classify(5.0, -0.5, signals.Constant(0.0))
        with pytest.raises(DomainError):
            criteria.classify(-1.0, 1.0, signals.Constant(0.0))

    @pytest.mark.parametrize("c,lam", [(math.nan, 6.0), (math.inf, 6.0), (5.0, math.nan), (5.0, math.inf)])
    def test_rejects_non_finite(self, c, lam):
        # nan compares false everywhere, so no rule may be allowed to "hold" on it
        with pytest.raises(ValueError, match="finite"):
            criteria.classify(c, lam, signals.Constant(0.0))

    @pytest.mark.parametrize("c", [3.0, 5.0])
    def test_rejects_an_overflowed_drive(self, c):
        # no slack, not even the subcritical one, is formed of an infinite drive
        with pytest.raises(ValueError, match=r"the drive lambda \+ inf y = 1e\+308 \+ 1e\+308 overflows a float"):
            criteria.classify(c, 1e308, signals.Constant(1e308))

    def test_monotone_in_lambda_inside_interval(self):
        diag = diagnostics(5.0)
        y = sine(0.04)
        iv = criteria.interval_I1(diag, signals.bounds(y))
        for lam in np.linspace(iv.lower + 1e-6, iv.upper - 1e-6, 9):
            assert criteria.classify(5.0, float(lam), y).regime == "bistability"

    def test_agrees_with_autonomous_equilibrium_count(self):
        c, diag = 5.0, diagnostics(5.0)
        for lam in np.linspace(4.0, 8.0, 41):
            if min(abs(lam - diag.lam1), abs(lam - diag.lam2)) < 1e-6:
                continue
            roots = np.roots([1.0, -lam, 1.0 + 2.0 * c, -lam])
            n_real = int(np.sum(np.abs(roots.imag) < 1e-9))
            cert = criteria.classify(c, float(lam), signals.Constant(0.0))
            if n_real == 3:
                assert cert.regime == "bistability"
            else:
                assert cert.regime == "uniform-stability"

    def test_periodic_signal_closes_endpoints(self):
        y = sine(0.04)
        iv = criteria.interval_I1(diagnostics(5.0), signals.bounds(y))
        at_endpoint = criteria.classify(5.0, iv.lower, y)
        assert at_endpoint.regime == "bistability"
        opened = criteria.classify(5.0, iv.lower, y, endpoints_excluded=False)
        assert opened.regime != "bistability"

    @pytest.mark.parametrize(
        "y, closed",
        [
            (signals.Constant(0.0), False),
            (sine(0.04), True),
            (signals.TrigSum(0.0, ((0.02, 1.0, 0.0), (0.02, math.sqrt(2.0), 0.0))), False),
            (signals.TrigSum(0.5, ((0.0, 1.0, 0.0), (0.0, 2.0, 0.3))), False),
            # y = 0.1 cos t - 0.1 cos t is y = 0, although no term is zero
            (signals.TrigSum(0.0, ((0.1, 1.0, 0.0), (-0.1, 1.0, 0.0))), False),
            # 0.3 + 0.1 cos t + 0.1 cos(t + pi) is 0.3 to within two ulps
            (signals.TrigSum(0.3, ((0.1, 1.0, 0.0), (0.1, 1.0, math.pi))), False),
            (signals.FourierCesaro(0.5, (0.0,), (0.0, 0.0), 6), False),
            (signals.FourierCesaro(0.5, (0.0,), (0.0, 0.1), 6), True),
            (signals.SampledPeriodic(4.0, (0.0, 1.0, 2.0, 3.0), (1.0, 1.0, 1.0, 1.0)), False),
            (signals.SampledPeriodic(4.0, (0.0, 1.0, 2.0, 3.0), (0.0, 0.03, -0.01, -0.03)), True),
        ],
        ids=[
            "constant", "trig", "trig-incommensurate", "trig-zero-terms", "trig-cancelling",
            "trig-cancelling-to-rounding",
            "cesaro-zero-terms", "cesaro", "sampled-constant", "sampled",
        ],
    )
    def test_endpoints_closed_only_for_periodic_nonconstant_input(self, y, closed):
        # by default the interval of thm-3.2 is closed exactly when the input
        # is periodic and not constant-valued
        iv = criteria.interval_I1(diagnostics(5.0), signals.bounds(y))
        for lam in (iv.lower, iv.upper):
            cert = criteria.classify(5.0, lam, y)
            assert (cert.regime == "bistability") is closed
            assert cert.fired_rule == (criteria.RULE_INTERVAL_I1 if closed else None)

    def test_indeterminate_between_bounds(self):
        # lambda between the inner and outer sandwich bounds cannot be decided
        diag = diagnostics(5.0)
        y = sine(0.04)
        cert = criteria.classify(5.0, diag.lam1 - 0.02, y)
        assert cert.regime == "indeterminate"
        assert cert.fired_rule is None
        assert "dynamics" in cert.notes

    def test_interval_containment(self):
        # exact small-variation interval lies inside the sandwich outer bound
        diag = diagnostics(5.0)
        y = sine(0.04)
        b = signals.bounds(y)
        w = signals.weighted_bounds(y, diag.dfrak)
        i1 = criteria.interval_I1(diag, b)
        rep = criteria.check_thm_4_6(diag, b, w)
        assert rep.holds
        outer = [iv for iv in rep.intervals if iv.kind == "outer-bound"][0]
        assert outer.lower <= i1.lower and i1.upper <= outer.upper

    def test_slack_boundary_flip(self):
        diag = diagnostics(5.0)
        inside = criteria.classify(5.0, diag.alpha, sine(0.999 * diag.beta))
        outside = criteria.classify(5.0, diag.alpha, sine(1.001 * diag.beta))
        assert inside.regime == "bistability"
        assert outside.regime != "bistability"

    def test_certificate_serializes(self):
        cert = criteria.classify(5.0, 6.0, signals.Constant(0.0))
        d = cert.to_dict()
        assert d["regime"] == "bistability"
        assert isinstance(d["intervals"], list) and isinstance(d["slacks"], dict)
