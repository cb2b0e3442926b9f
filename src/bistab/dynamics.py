"""Direct numerical analysis of x' = lambda + y(t) + gbar(x).

Provides adaptive Runge-Kutta integration, the period-advance (Poincare) map
with its multiplier, a fixed-point census over a scan interval, and numeric
estimation of the bifurcation values of the concave-linear and linear-convex
comparison equations.

The multiplier of a periodic solution is exp of the integral of the state
derivative of the right-hand side along one period; it is integrated as an
augmented log state so that extremely attractive/repulsive orbits (long
periods) do not overflow.  Repulsive orbits are refined and measured through
the inverse map (backward-time integration), for which they are attractive:
a forward pass starting within roundoff of a strongly repulsive orbit still
falls off it long before the period ends, corrupting the multiplier integral.

Census fixed points are refined by Newton's method on the period map (the
shooting method), at no extra cost: the slope of the map is the multiplier
that each map call integrates anyway.  A Newton step is taken only where it
is safe (the map contracts and the step stays inside the crossing's
bracket); otherwise the plain contraction step is taken, with root
bracketing as the last resort.

Every integration goes through one solver routine, restarted at the nodes
of a sampled input.  It returns the states at the solver's steps or at
requested times only; the scans, the map calls and the finite-difference
segments ask for the end time alone, so no step history is kept for them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from . import signals as sig
from .model import (
    SQRT3,
    DomainError,
    cshift,
    dfrak,
    gbar_deriv,
    gbar_eval,
    lam1,
    lam2,
    mg_minus,
    mg_minus_deriv,
    mg_plus,
    mg_plus_deriv,
    x2,
)

ABSTOL = 1e-10
RELTOL = 1e-8
ESCAPE_BOUND = 1e6
FP_TOL = 1e-9
DEDUP_TOL = 1e-6
NONHYP_TOL = 1e-4  # |multiplier - 1| below this => non-hyperbolic
CENSUS_SEEDS = 2048  # grid of the count-only census and of the fold solves
# the full census starts at the first and doubles up to the second grid size
STABLE_SEEDS = (512, 8192)

RHS_KINDS = ("full", "concave-linear", "linear-convex")


class FiniteEscapeError(RuntimeError):
    """A trajectory left |x| <= 1e6 in finite time."""


@dataclass(frozen=True)
class OdeSpec:
    c: float
    lam: float
    signal: sig.SignalSpec
    rhs_kind: str = "full"
    # the signal as a callable of t, compiled once here rather than on every rhs call
    _signal_at: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.c) and math.isfinite(self.lam)):
            raise ValueError(f"OdeSpec requires finite c and lambda, got c = {self.c}, lambda = {self.lam}")
        if self.rhs_kind not in RHS_KINDS:
            raise ValueError(f"rhs_kind must be one of {RHS_KINDS}, got {self.rhs_kind!r}")
        if self.rhs_kind != "full" and self.c <= 4.0:
            raise DomainError(f"rhs_kind {self.rhs_kind!r} requires c > 4, got c = {self.c}")
        object.__setattr__(self, "_signal_at", sig.compile_signal(self.signal))

    def rhs(self, t, x):
        """dx/dt; x may be an array of states advanced in parallel."""
        drive = self.lam + self._signal_at(t)
        if self.rhs_kind == "full":
            return drive + gbar_eval(self.c, x)
        halved = mg_minus if self.rhs_kind == "concave-linear" else mg_plus
        return drive - cshift(self.c) + dfrak(self.c) * x + halved(self.c, x)

    def rhs_state_deriv(self, x):
        """d(rhs)/dx, the multiplier integrand."""
        if self.rhs_kind == "full":
            return gbar_deriv(self.c, x)
        halved = mg_minus_deriv if self.rhs_kind == "concave-linear" else mg_plus_deriv
        return dfrak(self.c) + halved(self.c, x)


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray  # strictly increasing
    values: np.ndarray


@dataclass(frozen=True)
class PeriodicSolution:
    """A fixed point of the period map with the multiplier its refinement
    measured.  The orbit itself is ``integrate(spec, 0, fixed_point, period)``
    (from ``period`` back to 0 for a repulsive one)."""

    period: float
    fixed_point: float  # value at t = 0
    multiplier: float  # exp(log_multiplier); inf when it overflows
    log_multiplier: float
    kind: str  # "attractive" | "repulsive" | "non-hyperbolic"

    def to_dict(self) -> dict:
        return asdict(self)


def _solve(spec: OdeSpec, t0, y0, t1, abstol, reltol, augmented=False, t_eval=None):
    """(times, states) of the states y0 solved from t0 to t1 (either
    direction): the solver's steps, or only the times of t_eval (ordered from
    t0 to t1).  An end-state caller passes ``t_eval=[t1]``, so the solver
    keeps no step history.

    A sampled input is piecewise linear.  Stepping across its nodes leaves
    the period map noisy at the level of the tolerance, so the solver
    restarts at every node strictly inside the span (Hairer, Norsett &
    Wanner, Solving ODE I, II.6), one solve_ivp call per piece, and each
    piece starts from the end state of the one before, log multiplier
    included.  A smooth input is one piece.  Every piece keeps the whole
    span's max_step.  ``augmented`` integrates each state's log multiplier
    alongside (from 0), after the states.  No time is output twice: a piece
    after the first drops its start, and each time of t_eval comes from the
    one piece it falls in.  The solve stops with FiniteEscapeError when a
    state (not a log multiplier) leaves |x| <= ESCAPE_BOUND.
    """
    y = np.atleast_1d(np.asarray(y0, dtype=float))
    n = y.size
    if augmented:
        y = np.concatenate([y, np.zeros(n)])
    fun = _augmented_rhs(spec) if augmented else (lambda t, x: np.atleast_1d(spec.rhs(t, x)))

    def escape(t, state):
        return ESCAPE_BOUND - float(np.max(np.abs(state[:n])))

    escape.terminal = True
    ends = [*spec._signal_at.kinks(t0, t1), t1]
    if t_eval is None:
        owns = [None] * len(ends)
    else:  # the output times of each piece: those before its end
        t_eval = np.asarray(t_eval, dtype=float)
        direction = 1.0 if t1 >= t0 else -1.0
        owns = np.split(t_eval, np.searchsorted(direction * t_eval, direction * np.asarray(ends[:-1])))
    times, states = [], []
    for k, (a, b, own) in enumerate(zip([t0, *ends[:-1]], ends, owns)):
        # a piece must also output its end state, which starts the next one;
        # a t_eval that already ends there (at t1) is passed unchanged
        pts = own if own is None or (own.size and own[-1] == b) else np.append(own, b)
        sol = solve_ivp(
            fun,
            (a, b),
            y,
            method="RK45",
            atol=abstol,
            rtol=reltol,
            t_eval=pts,
            events=escape,
            max_step=abs(t1 - t0) / 16.0,
        )
        if sol.status == 1:
            raise FiniteEscapeError(
                f"trajectory exceeded |x| = {ESCAPE_BOUND:g} at t = {sol.t_events[0][0]:.6g}"
            )
        if sol.status != 0:
            raise RuntimeError(f"integration failed: {sol.message}")
        ts, ys = sol.t, sol.y
        y = ys[:, -1]
        if pts is not own:  # the end was asked for only to carry it over
            ts, ys = ts[:-1], ys[:, :-1]
        elif own is None and k:  # the start is the previous piece's end
            ts, ys = ts[1:], ys[:, 1:]
        times.append(ts)
        states.append(ys)
    return np.concatenate(times), np.concatenate(states, axis=1)


def integrate(spec: OdeSpec, t0: float, x0: float, t1: float, n_samples: int | None = None) -> Trajectory:
    """Trajectory from (t0, x0) to t1 at tolerances ABSTOL and RELTOL; t1 < t0
    integrates backward.

    The returned times are always strictly increasing (a backward run is
    reversed): the solver's steps, or only the n_samples equally spaced
    times, which the solver interpolates without keeping its steps.
    The state is integrated together with the multiplier integrand, as in
    ``poincare_map_log``, so the solver takes the period map's steps: one
    period from a fixed point refined on that map returns to it to rounding,
    not merely to the integration tolerance.  A sampled input is integrated
    node to node, so its nodes are among the steps.
    """
    t_eval = np.linspace(t0, t1, n_samples) if n_samples else None
    times, ys = _solve(spec, t0, x0, t1, ABSTOL, RELTOL, augmented=True, t_eval=t_eval)
    values = ys[0]
    if t1 < t0:
        times, values = times[::-1], values[::-1]
    return Trajectory(times, values)


def _augmented_rhs(spec: OdeSpec):
    def rhs(t, y):
        x = y[: y.size // 2]
        return np.concatenate([np.atleast_1d(spec.rhs(t, x)), np.atleast_1d(spec.rhs_state_deriv(x))])

    return rhs


def poincare_map_log(spec: OdeSpec, T: float, x0: float, backward: bool = False) -> tuple[float, float]:
    """(x at the far end, log multiplier along the computed arc).

    Forward: returns (x(T; 0, x0), integral over [0, T] of the state
    derivative along that arc).  Backward: starts from x0 at t = T, returns
    x(0) and the same forward-oriented integral taken along the backward arc.
    """
    t0, t1 = (T, 0.0) if backward else (0.0, T)
    _, ys = _solve(spec, t0, x0, t1, ABSTOL, RELTOL, augmented=True, t_eval=[t1])
    xT, L = (float(v) for v in ys[:, -1])
    return xT, (-L if backward else L)


def _exp(L: float) -> float:
    """e^L, or inf where it overflows a float."""
    try:
        return math.exp(L)
    except OverflowError:
        return math.inf


def poincare_map(spec: OdeSpec, T: float, x0: float) -> tuple[float, float]:
    """(x(T; 0, x0), multiplier exp(integral of the state derivative))."""
    xT, L = poincare_map_log(spec, T, x0)
    return xT, _exp(L)


def poincare_multiplier_fd(spec: OdeSpec, T: float, x0: float, backward_orbit: bool = False) -> float:
    """Log multiplier at x0 by centered finite differences of the flow.

    The period is split into segments on which the log derivative of the flow
    map stays bounded (|increment| <= 2), each segment map is differenced at
    x +/- h (h = 1e-5) around the orbit, and the segment logs are summed; for
    mildly hyperbolic orbits this reduces to the plain centered difference of
    the period map.  Differencing the full map directly is impossible for long
    periods: its derivative overflows double precision.

    backward_orbit computes the anchor orbit by backward integration from
    (T, x0) — required for strongly repulsive orbits, which a forward solve
    falls off before the period ends.
    """
    ts = np.linspace(0.0, T, 4097)
    if backward_orbit:
        xs = _solve(spec, T, [x0], 0.0, 1e-12, 1e-10, t_eval=ts[::-1])[1][0, ::-1]
    else:
        xs = _solve(spec, 0.0, [x0], T, 1e-12, 1e-10, t_eval=ts)[1][0]
    fx = np.atleast_1d(spec.rhs_state_deriv(xs))
    Ls = np.concatenate([[0.0], np.cumsum(0.5 * (fx[1:] + fx[:-1]) * np.diff(ts))])
    cuts = [0]
    for i in range(1, ts.size):
        if abs(Ls[i] - Ls[cuts[-1]]) >= 2.0:
            cuts.append(i)
    if cuts[-1] != ts.size - 1:
        cuts.append(ts.size - 1)
    h, total = 1e-5, 0.0
    for i0, i1 in zip(cuts, cuts[1:]):
        ta, tb, xa = ts[i0], ts[i1], xs[i0]
        hi, lo = _solve(spec, ta, [xa + h, xa - h], tb, 1e-12, 1e-10, t_eval=[tb])[1][:, -1]
        diff = float(hi - lo)
        if diff <= 0.0:
            raise RuntimeError(f"finite-difference segment [{ta:.4g}, {tb:.4g}] lost monotonicity")
        total += math.log(diff / (2.0 * h))
    return total


def _scan_interval(spec: OdeSpec) -> tuple[float, float] | None:
    """Scan interval for the fixed-point census, or None when it is empty.

    The ceiling rho satisfies gbar(rho) = -max(lam2, lam + hi) - 1, with hi
    the compiled signal's upper bound of y (any hi >= sup y will do), so
    every bounded solution in the analyzed regimes lies below it; for the
    recentered comparison equations the interval is shifted by -sqrt(3).
    gbar(x) <= -x on x >= 0 brackets rho in [lo_x, -target].  For c <= 4 and
    lam + hi <= -1 there is no ceiling above 0: x' <= -1 on all of x >= 0,
    so no solution there is bounded.
    """
    target = -(spec.lam + spec._signal_at.hi) - 1.0
    if spec.c <= 4.0 and target >= 0.0:
        return None
    if spec.c > 4.0:
        target = min(target, -lam2(spec.c) - 1.0)
    # below: the smallest state the ceiling can exceed.  For c > 4 that is x2
    # (the decreasing tail of gbar starts there); for c <= 4 gbar decreases on
    # the whole half-line, so the root may sit anywhere above 0.
    lo_x = 0.0 if spec.c <= 4.0 else x2(spec.c)
    rho = brentq(lambda x: gbar_eval(spec.c, x) - target, lo_x, -target, xtol=1e-12)
    if spec.rhs_kind == "full":
        return 0.0, float(rho)
    return -SQRT3, float(rho) - SQRT3


def _displacement_grid(spec: OdeSpec, T: float, xs: np.ndarray) -> np.ndarray:
    """T(x0) - x0 for all seeds at once (one vectorized solve)."""
    return _solve(spec, 0.0, xs, T, ABSTOL, RELTOL, t_eval=[T])[1][:, -1] - xs


def _brackets(spec: OdeSpec, T: float, n: int) -> list[tuple[float, float, bool]]:
    """(xa, xb, attractive_crossing) for every sign change of the displacement
    on n seeds over the scan interval, in increasing order.  A seed where the
    displacement is exactly zero gives the bracket of its two neighbours."""
    interval = _scan_interval(spec)
    if interval is None:
        return []
    xs = np.linspace(*interval, n)
    d = _displacement_grid(spec, T, xs)
    da, db = d[:-1], d[1:]
    zero = da == 0.0
    i = np.flatnonzero(zero | (da * db < 0.0))
    z = zero[i]
    lo = np.where(z, np.maximum(i - 1, 0), i)
    return list(zip(xs[lo], xs[i + 1], np.where(z, db[i] < da[i], da[i] > 0.0)))


def _stable_brackets(spec: OdeSpec, T: float):
    """Grid scan doubled until the crossing count stabilizes twice in a row."""
    n, n_max = STABLE_SEEDS
    streak = 0
    brk = _brackets(spec, T, n)
    while streak < 2 and n < n_max:
        n *= 2
        nxt = _brackets(spec, T, n)
        streak = streak + 1 if len(nxt) == len(brk) else 0
        brk = nxt
    return brk


def _refine_fixed_point(
    spec: OdeSpec, T: float, xa: float, xb: float, attractive: bool
) -> tuple[float, float]:
    """(x, L): a fixed point x of the period map inside [xa, xb] and the
    forward-oriented log multiplier L of the map call that converged on it.

    Attractive crossings iterate the forward map P, repulsive ones the
    inverse (backward) map; both contract onto the orbit.  Each map call
    also returns the log multiplier L of its arc, so the slope s of the
    iterated map at x is free: e^L forward, e^-L backward (the inverse map's
    slope is the reciprocal of the forward one).  The step is Newton's on
    P(x) - x (the shooting method for periodic orbits; Kuznetsov, Elements
    of Applied Bifurcation Theory, ch. 10), written as a correction to the
    contraction step, P(x) + (P(x) - x) s / (1 - s), so it is the plain
    contraction step whenever s is below rounding.  The plain step is taken
    instead when s >= 1 (or overflows) or when the Newton step would leave
    [xa, xb].  Root bracketing on the forward displacement is the fallback
    when 60 steps do not converge (multiplier near 1); its root's L then
    comes from one more map call in the crossing's direction.
    """
    x = 0.5 * (xa + xb)
    for _ in range(60):
        nxt, L = poincare_map_log(spec, T, x, backward=not attractive)
        if abs(nxt - x) < FP_TOL:
            return nxt, L
        s = _exp(L if attractive else -L)
        newton = nxt + (nxt - x) * s / (1.0 - s) if s < 1.0 else nxt
        x = newton if xa <= newton <= xb else nxt
    x = float(brentq(lambda z: poincare_map_log(spec, T, z)[0] - z, xa, xb, xtol=FP_TOL))
    return x, poincare_map_log(spec, T, x, backward=not attractive)[1]


def find_periodic_solutions(spec: OdeSpec, T: float) -> list[PeriodicSolution]:
    """All T-periodic solutions found by the census over the scan interval.

    Requires the input to be constant or T-periodic.  Each solution is its
    fixed point, the multiplier measured by the map call its refinement
    converged with (a repulsive orbit is measured backward, as forward
    integration falls off it before one period when the multiplier is
    extreme), and its stability tag; no orbit is integrated again.
    """
    solutions = []
    for xa, xb, attractive in _stable_brackets(spec, T):
        x0, L = _refine_fixed_point(spec, T, xa, xb, attractive)
        if any(abs(x0 - s.fixed_point) < DEDUP_TOL for s in solutions):
            warnings.warn(
                f"the crossing in [{xa:.9g}, {xb:.9g}] refined onto the fixed point {x0:.9g}, "
                f"within {DEDUP_TOL:g} of one already found; possible non-hyperbolic pair near a saddle-node",
                stacklevel=2,
            )
            continue
        kind = "non-hyperbolic" if abs(L) < NONHYP_TOL else ("attractive" if L < 0.0 else "repulsive")
        solutions.append(
            PeriodicSolution(period=T, fixed_point=x0, multiplier=_exp(L), log_multiplier=L, kind=kind)
        )
    return sorted(solutions, key=lambda s: s.fixed_point)


def finite_time_exponent(spec: OdeSpec, traj: Trajectory) -> float:
    """Average of the state derivative of the rhs along the trajectory."""
    span = traj.times[-1] - traj.times[0]
    if span <= 0.0:
        raise ValueError("trajectory must span positive time")
    vals = np.atleast_1d(spec.rhs_state_deriv(traj.values))
    return float(np.sum(0.5 * (vals[1:] + vals[:-1]) * np.diff(traj.times)) / span)


def count_separated_solutions(spec: OdeSpec, T: float) -> int:
    """Number of period-map crossings on the CENSUS_SEEDS grid.

    Count-only fast path: no refinement or multipliers, one vectorized scan.
    Distinct crossings are separated: for c > 4 the scan interval is at
    least sqrt(3) long, so bracket midpoints lie at least 4e-4 apart; for
    c <= 4 gbar decreases, so the displacement does and crosses at most once.
    """
    return len(_brackets(spec, T, CENSUS_SEEDS))


def signal_period(signal: sig.SignalSpec) -> float:
    """Section time of the period map: the fundamental period of a periodic
    signal, or 1.0 for a constant-valued one (the equation is autonomous, so
    any section time works).  Raises ValueError for any other signal."""
    period = sig.fundamental_period(signal)
    if period is not None:
        return period
    b = sig.bounds(signal)
    if b.sup == b.inf:
        return 1.0
    raise ValueError("signal must be constant or periodic")


def estimate_lambda_pm(
    c: float, signal: sig.SignalSpec, tol: float = 1e-5
) -> tuple[float, float, dict]:
    """Bifurcation values (lambda_minus, lambda_plus) of the comparison
    equations, as roots in lambda of the extremum of the displacement.

    The concave-linear rhs is concave in the state, so its period map P is
    concave and d = P(x) - x has a single maximum; the linear-convex one is
    the mirror case, d convex with a single minimum.  P increases in lambda,
    so d.max() (concave-linear) and -d.min() (linear-convex), taken on the
    census grid, are monotone in lambda and positive exactly where the
    census finds two separated solutions: above lambda_minus and below
    lambda_plus.  brentq solves each to xtol = tol inside the closed-form
    sandwich bracket around lam1 and lam2; a trajectory that escapes counts
    as "no two solutions".  The metadata reports the number of grid scans
    per value and notes that for non-constant inputs the period-map
    condition is a surrogate of the shift-family definition (equivalent for
    periodic inputs).
    """
    if c <= 4.0:
        raise DomainError(f"estimate_lambda_pm requires c > 4, got c = {c}")
    T = signal_period(signal)
    b = sig.bounds(signal)
    h1 = lam2(c) - lam1(c)
    margin = max(h1, 10.0 * tol)
    scans = {}

    def fold(center: float, rhs_kind: str) -> float:
        # the extremum of d, signed to be positive where two solutions exist
        sign = 1.0 if rhs_kind == "concave-linear" else -1.0
        values = {}  # brentq starts by evaluating the two bracket ends again

        def extremum(lam: float) -> float:
            if lam not in values:
                spec = OdeSpec(c, lam, signal, rhs_kind)
                xs = np.linspace(*_scan_interval(spec), CENSUS_SEEDS)
                try:
                    values[lam] = float(np.max(sign * _displacement_grid(spec, T, xs)))
                except FiniteEscapeError:
                    # a seed ran off to infinity: "no two solutions", on the scale of the grid
                    values[lam] = -(xs[-1] - xs[0])
            return values[lam]

        lo, hi = center - b.sup - margin, center - b.inf + margin
        f_lo, f_hi = extremum(lo), extremum(hi)
        if (f_lo > 0.0) == (f_hi > 0.0):
            raise RuntimeError(
                f"bracket [{lo:.6g}, {hi:.6g}] does not straddle the {rhs_kind} bifurcation"
            )
        root = float(brentq(extremum, lo, hi, xtol=tol))
        scans[rhs_kind] = len(values)
        return root

    lam_minus = fold(lam1(c), "concave-linear")
    lam_plus = fold(lam2(c), "linear-convex")
    meta = {
        "tol": tol,
        "period": T,
        "scans": {"lambda_minus": scans["concave-linear"], "lambda_plus": scans["linear-convex"]},
        "note": "period-map condition is a surrogate of the shift-family "
        "definition; exact for constant and periodic inputs",
    }
    return lam_minus, lam_plus, meta
