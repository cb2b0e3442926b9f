"""Uniform-stability / bistability analysis of the driven saturable-absorber
model x' = lambda + y(t) + gbar(x)."""

from .model import (
    BAND_HI,
    BAND_LO,
    C_BAND_MAX,
    SQRT3,
    DomainError,
    ScalarDiagnostics,
    diagnostics,
    g_derivs,
    g_eval,
    gbar_deriv,
    gbar_deriv2,
    gbar_eval,
)
from .signals import (
    Constant,
    FourierCesaro,
    SampledPeriodic,
    SignalBounds,
    SignalSpec,
    TrigSum,
    WeightedBounds,
    bounds,
    cesaro_bound,
    series_bound,
    signal_from_json,
    signal_to_json,
    weighted_average,
    weighted_bounds,
)
from .criteria import (
    IntervalEstimate,
    MuBounds,
    RegimeCertificate,
    check_cor_4_7,
    check_thm_4_6,
    check_thm_6_1,
    classify,
    interval_I1,
    mu_bounds,
)
from .dynamics import (
    FiniteEscapeError,
    OdeSpec,
    PeriodicSolution,
    Trajectory,
    estimate_lambda_pm,
    find_periodic_solutions,
    finite_time_exponent,
    integrate,
    poincare_map,
    poincare_multiplier_fd,
    signal_period,
)
from .relaxation import (
    GammaCurve,
    LoopResult,
    RelaxationSpec,
    ThresholdResult,
    crossing_times,
    gamma_curve,
    hausdorff_distance,
    loop_area,
    r_star_estimate,
    r_threshold,
    run_analysis,
    y_eps,
)

__version__ = "0.1.0"
