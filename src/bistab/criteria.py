"""Regime certificates: sufficient conditions for uniform stability or
bistability of x' = lambda + y(t) + gbar(x).

The checks combine the scalar diagnostics of ``model`` with the signal
extremes of ``signals``.  Each rule that fires is recorded with a citation
tag, the certified intervals, and the slack of every inequality involved, so
a caller can see how close the input is to a regime boundary.  The verdict
"indeterminate" is first-class: no rule extrapolates beyond what it proves,
and borderline cases are deferred to the ``dynamics`` module.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

from .model import C_BAND_MAX, DomainError, ScalarDiagnostics, diagnostics, require_c_above_4
from .signals import (
    SignalBounds,
    SignalSpec,
    WeightedBounds,
    bounds,
    fundamental_period,
    weighted_bounds,
)

RULE_AUTONOMOUS_SUBCRITICAL = "prop-3.1"
RULE_RANGE_OUTSIDE = "remark-3.3"
RULE_INTERVAL_I1 = "thm-3.2"
RULE_WEIGHTED = "thm-4.6"
RULE_VARIATION_H3 = "cor-4.7"
RULE_SANDWICH = "prop-4.3"
RULE_BAND = "thm-6.1"
RULE_BAND_SANDWICH = "prop-6.3"


@dataclass(frozen=True)
class IntervalEstimate:
    """A lambda-interval claim: exact, or an outer/inner bound of an interval
    that has no closed form."""

    lower: float
    upper: float
    kind: str  # "exact" | "outer-bound" | "inner-bound"
    basis: str  # citation tag of the rule providing the estimate
    empty: bool = False

    def contains(self, lam: float, closed: bool = False) -> bool:
        if self.empty:
            return False
        if closed:
            return self.lower <= lam <= self.upper
        return self.lower < lam < self.upper

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class MuBounds:
    mu_minus: float
    mu_plus: float


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one sufficient-condition check, merged into the final
    certificate by classify."""

    holds: bool
    basis: str
    slacks: dict[str, float] = field(default_factory=dict)
    intervals: tuple[IntervalEstimate, ...] = ()
    notes: str = ""


@dataclass(frozen=True)
class RegimeCertificate:
    regime: str  # "uniform-stability" | "bistability" | "indeterminate"
    fired_rule: str | None
    intervals: tuple[IntervalEstimate, ...]
    slacks: dict[str, float]
    notes: str

    def to_dict(self) -> dict:
        return {
            "regime": self.regime,
            "fired_rule": self.fired_rule,
            "intervals": [iv.to_dict() for iv in self.intervals],
            "slacks": dict(self.slacks),
            "notes": self.notes,
        }


def _inner_sandwich(diag: ScalarDiagnostics, b: SignalBounds, kind: str, basis: str) -> IntervalEstimate:
    """(lam1 - inf y, lam2 - sup y); empty when sup y - inf y >= h1."""
    lower, upper = diag.lam1 - b.inf, diag.lam2 - b.sup
    return IntervalEstimate(lower, upper, kind, basis, empty=lower >= upper)


def interval_I1(diag: ScalarDiagnostics, b: SignalBounds) -> IntervalEstimate:
    """The exact small-variation interval, (lam1 - inf y, lam2 - sup y)."""
    require_c_above_4(diag.c, "interval_I1")
    return _inner_sandwich(diag, b, "exact", RULE_INTERVAL_I1)


def mu_bounds(diag: ScalarDiagnostics, w: WeightedBounds) -> MuBounds:
    """mu_minus = cshift - inf_w, mu_plus = cshift - sup_w (so mu_plus <= mu_minus)."""
    require_c_above_4(diag.c, "mu_bounds")
    return MuBounds(mu_minus=diag.cshift - w.inf_w, mu_plus=diag.cshift - w.sup_w)


def _sandwich_intervals(diag: ScalarDiagnostics, b: SignalBounds) -> tuple[IntervalEstimate, IntervalEstimate]:
    """Outer and inner bounds for the bistability interval of the weighted
    criterion: lam1 - sup <= lower endpoint <= lam1 - inf, and the same with
    lam2 for the upper endpoint."""
    outer = IntervalEstimate(diag.lam1 - b.sup, diag.lam2 - b.inf, "outer-bound", RULE_SANDWICH)
    return outer, _inner_sandwich(diag, b, "inner-bound", RULE_SANDWICH)


def check_thm_4_6(diag: ScalarDiagnostics, b: SignalBounds, w: WeightedBounds) -> ConditionReport:
    """Weighted-average criterion: sup_w - inf y < h2, sup y - inf_w < h3 and
    mu_minus >= -inf y together certify a bistability interval with the
    sandwich bounds above."""
    require_c_above_4(diag.c, "check_thm_4_6")
    mu = mu_bounds(diag, w)
    slacks = {
        "h2_minus_weighted_variation": diag.h2 - (w.sup_w - b.inf),
        "h3_minus_weighted_variation": diag.h3 - (b.sup - w.inf_w),
        "mu_minus_plus_inf_y": mu.mu_minus + b.inf,
    }
    holds = all(s > 0.0 for s in (slacks["h2_minus_weighted_variation"], slacks["h3_minus_weighted_variation"])) and slacks["mu_minus_plus_inf_y"] >= 0.0
    if not holds:
        return ConditionReport(False, RULE_WEIGHTED, slacks)
    intervals = _sandwich_intervals(diag, b)
    notes = ""
    if b.sup - b.inf <= diag.lam1:
        notes = "interval endpoints are exactly the comparison-equation bifurcation values"
    return ConditionReport(True, RULE_WEIGHTED, slacks, intervals, notes)


def variation_polynomial(c: float) -> float:
    """Quartic whose non-positivity on (4, 456] guarantees that the small-
    variation criterion below certifies the full bistability interval."""
    return ((c - 456.0) * c * c - 24.0) * c * c - 1504.0 * c + 336.0


def check_cor_4_7(diag: ScalarDiagnostics, b: SignalBounds) -> ConditionReport:
    """Small-variation criterion: sup y - inf y < h3 suffices (no weighted
    bounds needed); exactness of the certified interval is guaranteed when
    the quartic above is non-positive, i.e. for c in (4, 456]."""
    require_c_above_4(diag.c, "check_cor_4_7")
    slacks = {"h3_minus_variation": diag.h3 - (b.sup - b.inf)}
    if slacks["h3_minus_variation"] <= 0.0:
        return ConditionReport(False, RULE_VARIATION_H3, slacks)
    exact = variation_polynomial(diag.c) <= 0.0
    notes = (
        "certified interval is exact (endpoints are the comparison-equation bifurcation values)"
        if exact
        else "variation criterion holds but c > 456: exactness of the interval not guaranteed"
    )
    return ConditionReport(True, RULE_VARIATION_H3, slacks, _sandwich_intervals(diag, b), notes)


def check_thm_6_1(diag: ScalarDiagnostics, b: SignalBounds) -> ConditionReport:
    """Band criterion for c in (4, 2+2*sqrt(2)): variation below min(h1, h4)
    (and below 2) certifies bistability on (lam3 - inf y, lam4 - sup y), an
    interval that can extend below the one of interval_I1."""
    if not (4.0 < diag.c < C_BAND_MAX):
        raise DomainError(f"check_thm_6_1 requires c in (4, {C_BAND_MAX:.5f}), got c = {diag.c}")
    var = b.sup - b.inf
    slacks = {
        "two_minus_variation": 2.0 - var,
        "min_h1_h4_minus_variation": min(diag.h1, diag.h4) - var,
    }
    if not all(s > 0.0 for s in slacks.values()):
        return ConditionReport(False, RULE_BAND, slacks)
    band_lo, band_hi = diag.lam3 - b.inf, diag.lam4 - b.sup
    band = IntervalEstimate(band_lo, band_hi, "inner-bound", RULE_BAND, empty=band_lo >= band_hi)
    outer = IntervalEstimate(
        diag.lam3 - b.sup, max(diag.lam2, diag.lam4) - b.inf, "outer-bound", RULE_BAND_SANDWICH
    )
    inner = _inner_sandwich(diag, b, "inner-bound", RULE_BAND_SANDWICH)
    return ConditionReport(True, RULE_BAND, slacks, (band, outer, inner))


def classify(
    c: float,
    lam: float,
    signal: SignalSpec,
    endpoints_excluded: bool | None = None,
) -> RegimeCertificate:
    """Apply the certificate rules in priority order.

    endpoints_excluded asserts that the extreme constant values of the input
    are not limits of its time shifts, which upgrades the certified
    bistability interval to a closed one; when None it is derived as "the
    signal is periodic and non-constant": its range is not a point and it
    has a fundamental period.
    """
    if not (math.isfinite(c) and math.isfinite(lam)):
        raise ValueError(f"classify requires finite c and lambda, got c = {c}, lambda = {lam}")
    if c <= 0.0:
        raise DomainError(f"classify requires c > 0, got c = {c}")
    b = bounds(signal)
    if lam < -b.inf:
        raise ValueError(f"classify requires lambda >= -inf y = {-b.inf}, got lambda = {lam}")

    # rule 1: subcritical c — a single attractive solution for every lambda
    if c < 4.0:
        return RegimeCertificate(
            "uniform-stability", RULE_AUTONOMOUS_SUBCRITICAL, (), {"four_minus_c": 4.0 - c}, ""
        )

    diag = diagnostics(c)
    intervals: list[IntervalEstimate] = []
    slacks: dict[str, float] = {}
    notes: list[str] = []

    # rule 2: the whole input range lies outside [lam1, lam2]
    below = diag.lam1 - (lam + b.sup)
    above = (lam + b.inf) - diag.lam2
    slacks["range_below_lam1"] = below
    slacks["range_above_lam2"] = above
    if below > 0.0 or above > 0.0:
        return RegimeCertificate("uniform-stability", RULE_RANGE_OUTSIDE, (), slacks, "")

    # at c = 4 the fold is degenerate: lam1 = lam2 = 3 sqrt(3), where the
    # equilibrium is non-hyperbolic, and dfrak = 0, so no rule below applies
    if c == 4.0:
        note = "c = 4: degenerate fold (lam1 = lam2 = 3*sqrt(3), non-hyperbolic); no rule applies"
        return RegimeCertificate("indeterminate", None, (), slacks, note)

    # rule 3: lambda inside the exact small-variation interval
    i1 = interval_I1(diag, b)
    intervals.append(i1)
    slacks["h1_minus_variation"] = diag.h1 - (b.sup - b.inf)
    if endpoints_excluded is None:
        endpoints_excluded = b.sup > b.inf and fundamental_period(signal) is not None
    if i1.contains(lam, closed=endpoints_excluded):
        if endpoints_excluded:
            notes.append("interval endpoints included: input is periodic and non-constant")
        return RegimeCertificate("bistability", RULE_INTERVAL_I1, tuple(intervals), slacks, "; ".join(notes))

    # rule 4: weighted-average / small-variation criteria — these certify an
    # interval only through two-sided bounds, so here they contribute interval
    # estimates and slacks; lambda between the inner and outer bounds stays
    # indeterminate (resolve numerically in dynamics)
    w = weighted_bounds(signal, diag.dfrak)
    r46 = check_thm_4_6(diag, b, w)
    slacks.update(r46.slacks)
    fragment = r46 if r46.holds else check_cor_4_7(diag, b)
    slacks.update(fragment.slacks)
    if fragment.holds:
        intervals.extend(fragment.intervals)
        if fragment.notes:
            notes.append(f"{fragment.basis}: {fragment.notes}")

    # rule 5: band criterion, only for c in the admissible band range
    if 4.0 < c < C_BAND_MAX:
        r61 = check_thm_6_1(diag, b)
        slacks.update(r61.slacks)
        if r61.holds:
            intervals.extend(r61.intervals)
            band = r61.intervals[0]
            if band.contains(lam, closed=endpoints_excluded):
                return RegimeCertificate(
                    "bistability", RULE_BAND, tuple(intervals), slacks, "; ".join(notes)
                )

    notes.append("no rule fired; resolve numerically with the dynamics module")
    return RegimeCertificate("indeterminate", None, tuple(intervals), slacks, "; ".join(notes))
