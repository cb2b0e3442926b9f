"""Direct numerical analysis of x' = lambda + y(t) + gbar(x).

Provides adaptive Runge-Kutta integration, the period-advance (Poincare) map
with its multiplier, a fixed-point census over a scan interval, and numeric
estimation of the bifurcation values of the concave-linear and linear-convex
comparison equations.

The scan interval (``_scan_interval``) is the band where x' = lam + y(t) +
f(x) can vanish, widened by the drive margin MU: from the two bounds of y
that the compiled input carries, x' >= MU for every t below it and
x' <= -MU above it, so every periodic solution lies inside.  Its edges
are equilibria of the constant drives at those bounds, moved by MU.  Its seeds
keep away from the stiff states near x = 0, where gbar' = -(1 + 2c) would
limit RK45's step by stability (Hairer, Norsett & Wanner, II.4).

The multiplier of a periodic solution is exp of the integral of the state
derivative of the right-hand side along one period; it is integrated as an
augmented log state so that extremely attractive/repulsive orbits (long
periods) do not overflow.  Repulsive orbits are refined and measured through
the inverse map (backward-time integration), for which they are attractive:
a forward pass starting within roundoff of a strongly repulsive orbit still
falls off it long before the period ends, corrupting the multiplier integral.

Every census reads the crossings of a certified grid
(``_certified_crossings``).  Its first scan, ``_brackets``, takes a
sequence of OdeSpecs that share c and the input's kinks, stacks every
member's seeds into one solve and returns each member's seeds and
displacements, two empty arrays where its scan interval is empty.  A period
the input does not repeat after is rejected, as is a scan interval that
reaches the escape bound.  A grid's crossings (``_sign_changes``) are four
arrays, whose length is the count.  Then only the cells that the monotone
period map cannot clear of a hidden pair of fixed points are cut finer,
every member's in one solve per round, and only in a grid that shows fewer
than three crossings: three is the bistable count a census decides.  A
full census (``find_periodic_solutions``) certifies a grid on CENSUS_SEEDS
seeds.  The threshold of ``relaxation`` counts the crossings of several
exponents r as one family, each member driven by its own lam + y(t), and
``relaxation.run_analysis`` refines the crossings of one member's grid.

A census is about three solve batches.  The certified grid gives the
crossings, in one scan wherever the grid shows three crossings or the
period map clears every cell.  Then all attractive crossings are refined
in lock step by one multi-state forward map solve per step, and all
repulsive ones by backward solves (``_solutions``); a crossing leaves its
batch once it converges.  Each starts at the zero of the inverse cubic
through the four scan seeds around it (the secant zero of its two
displacement values at a grid end or where that zero leaves the bracket),
so a crossing of a smooth displacement starts within a few 1e-9 of its
fixed point (1e-11 to 7e-9 on the benchmark's census inputs).  It takes
Newton steps on the period map (the shooting method), whose slope is the
multiplier each map solve integrates anyway, inside its bracket, which
each map solve shrinks to the side of the fixed point, while each is at
most half the step before last; otherwise it bisects the bracket
(``rtsafe``, Press et al., Numerical Recipes, 9.4).  A Newton correction
below FP_TOL ends the refinement, so such a crossing needs one map solve.
The period map is increasing (Smith, Monotone Dynamical Systems, AMS
1995), so every fixed point stays inside the bracket its crossing came
from.

The bifurcation values are the folds of the two comparison equations, which
exist only in the fold solve: its kernel is built from their float field
(``_float_field``), and an OdeSpec is always the full equation.  Each fold
is a root of the fold system F(x, lam) = (P(x) - x, L(x)), with P the
period map and L its log multiplier, found by Newton's method from the fold
that second-order averaging predicts.  One solve of five scalar states (the
state, its log multiplier and three sensitivities) gives F and its
Jacobian, so a fold solve scans no seed grid.

Every integration is one run of ``solve_ivp``, the module's own RK45 loop:
scipy's Dormand-Prince 5(4) stepper, its floats reproduced bit for bit,
whose steps through a sampled input each end at a node.  It returns the
states at the solver's steps or at requested times only; the scans, the map
calls and the finite-difference segments ask for the end time alone, so no
step history is kept for them.  The loop checks the escape bound on the
states at each step end, and a FiniteEscapeError names the first step end
beyond it, or the time where the step size collapsed before the bound.

An ``OdeSpec`` is the equation and its compiled input, nothing else.  A
scan's right-hand side is ``OdeSpec.rhs`` itself.  Each sensitivity solve
builds its own from one float statement of the field, ``_float_field``:
``_solve`` builds the map solve's kernel (``_augmented_kernel``) on every
call, which also returns the multiplier integrand, the floats of
``OdeSpec.rhs`` and ``rhs_state_deriv``, and a fold trial builds its
five-state kernel from the field and the compiled input, with no OdeSpec.
A kernel call on at most _FLOAT_STATES states (where the per-call timings
cross), a census's map solves among them, runs in Python floats, since
NumPy's fixed cost per operation would dominate it; gbar's + - * /
expressions round alike in floats and in NumPy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass, field
from numbers import Integral
from typing import NamedTuple

import numpy as np
from scipy.integrate import RK45
from scipy.optimize import brentq  # noqa: F401  perfbench/tracing.py wraps dynamics.brentq by name

from . import signals as sig
from .model import (
    SQRT3,
    DomainError,
    cshift,
    dfrak,
    equilibria,
    gbar_deriv,
    gbar_deriv2,
    gbar_eval,
    lam1,
    lam2,
    require_c_above_4,
    require_finite_drive,
    x1,
    x2,
)
from .model import mg_minus, mg_minus_deriv, mg_plus, mg_plus_deriv  # noqa: F401  perfbench/tracing.py wraps them

ABSTOL = 1e-10
RELTOL = 1e-8
ESCAPE_BOUND = 1e6
FP_TOL = 1e-9
DEDUP_TOL = 1e-6
NONHYP_TOL = 1e-4  # |multiplier - 1| below this => non-hyperbolic
CENSUS_SEEDS = 2049  # seeds of the census scan


class FiniteEscapeError(RuntimeError):
    """A trajectory left |x| < 1e6 in finite time: a state reached the bound
    at a step end, or the step size fell below the float spacing first, as
    it does near a blow-up far from t = 0."""


# a kernel call on at most this many states is evaluated state by state in floats
_FLOAT_STATES = 32


def _float_field(c: float, kind: str):
    """(pair, curvature): the field of x' = drive + f(x) in Python floats,
    one state at a time, for the full equation (kind "full", f = gbar) or a
    comparison equation ("concave-linear" or "linear-convex", f = dfrak x -
    cshift + mg_minus or mg_plus), which exists only here.  ``pair(drive,
    x)`` is (x', f'), the floats of ``model``'s closed forms: it runs the
    + - * / expressions of ``model.gbar_eval`` and ``model.gbar_deriv`` on
    both branches of gbar, which round alike in floats and in NumPy.
    ``curvature(x)`` is f'' of a comparison equation, gbar'' on the curved
    half and 0 on the linear one; it is None for the full equation.  Every
    sensitivity solve builds its right-hand side from these two
    (``_augmented_kernel``, ``_fold_system``)."""
    c, concave = float(c), kind == "concave-linear"
    two_c, a, b = 2.0 * c, -1.0 - 2.0 * c, 2.0 * (c - 1.0)
    shift, slope = cshift(c), dfrak(c)

    def g_pair(u):  # gbar and gbar'
        if u < 0.0:
            return a * u - u * u * u, a - 3.0 * u * u
        uu = u * u
        q = 1.0 + uu
        return -u - two_c * u / q, (a + b * u * u - uu * uu) / (q * q)

    if kind == "full":

        def pair(drive, x):
            gx, dx = g_pair(x)
            return drive + gx, dx

        return pair, None

    def on_half(x):  # mg_minus (concave) or mg_plus is mg here and 0 elsewhere
        return x >= 0.0 if concave else x <= 0.0

    def pair(drive, x):
        sx = slope * x
        if not on_half(x):
            return drive - shift + sx + 0.0, slope + 0.0
        gu, du = g_pair(x + SQRT3)
        return drive - shift + sx + (gu + shift - sx), slope + (du - slope)

    def curvature(x):  # gbar'' at u = x + sqrt3 on the curved half
        if not on_half(x):
            return 0.0
        u = x + SQRT3
        q = 1.0 + u * u
        return -6.0 * u if u < 0.0 else -4.0 * c * u * (u * u - 3.0) / (q * q * q)

    return pair, curvature


def _augmented_kernel(spec):
    """The right-hand side of the map solve of ``spec`` as the solver calls
    it, fun(t, y), built by ``_solve`` on each call.  It takes the states
    followed by their log multipliers and returns x' followed by the
    multiplier integrand d(rhs)/dx, every entry equal to ``OdeSpec.rhs``
    and ``OdeSpec.rhs_state_deriv`` bit for bit, so the solver takes the
    steps it would take with them.

    At a few states NumPy's fixed cost per operation, not the arithmetic,
    sets the price of a call.  So a call on at most _FLOAT_STATES states
    evaluates them one by one in Python floats (``_float_field``), x' and
    the integrand in one pass; a larger call is ``OdeSpec.rhs`` and
    ``rhs_state_deriv`` themselves, so a state gets the same float on
    either path.  Per call in µs, full equation, trig input, best of 9 x
    3,000 calls on a shared 2-core x86-64 host; the two paths cross near
    40 states:

        states           1     4    16    32    64   2048
        float, augm.   4.4   7.7    17    30    57      -
        OdeSpec.rhs     15    15    15    15    15     25
          with deriv    38    38    37    37    38     72
    """
    pair, _ = _float_field(spec.c, "full")
    lam, signal_at = float(spec.lam), spec._signal_at

    def augmented(t, y):
        x = y[: y.size // 2]
        if 0 < x.size <= _FLOAT_STATES:
            drive = lam + signal_at(float(t))
            values, derivs = zip(*[pair(drive, v) for v in x.tolist()])
            return np.array(values + derivs)
        return np.concatenate([np.atleast_1d(spec.rhs(t, x)), np.atleast_1d(spec.rhs_state_deriv(x))])

    return augmented


@dataclass(frozen=True)
class OdeSpec:
    """The equation x' = lam + y(t) + gbar(x) and its input y: finite c > 0
    and lam, and a drive lam + y that is a finite float at both bounds of
    the compiled input (``model.require_finite_drive``)."""

    c: float
    lam: float
    signal: sig.SignalSpec
    # the signal as a callable of t, compiled once here rather than on every rhs call
    _signal_at: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.c) and math.isfinite(self.lam)):
            raise ValueError(f"OdeSpec requires finite c and lambda, got c = {self.c}, lambda = {self.lam}")
        if not self.c > 0.0:
            raise DomainError(f"OdeSpec requires c > 0, got c = {self.c}")
        object.__setattr__(self, "_signal_at", sig.compile_signal(self.signal))
        require_finite_drive(self.lam, self._signal_at.lo, self._signal_at.hi)

    def rhs(self, t, x):
        """dx/dt; x may be an array of states advanced in parallel."""
        return self._rhs_driven(self.lam + self._signal_at(t), x)

    def _rhs_driven(self, drive, x):
        """dx/dt of the states x under the drive lam + y(t).  drive
        broadcasts against x: a family scan drives each member's block of
        states with that member's drive."""
        return drive + gbar_eval(self.c, x)

    def rhs_state_deriv(self, x):
        """d(rhs)/dx, the multiplier integrand."""
        return gbar_deriv(self.c, x)


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


# scipy's RK45, the Dormand-Prince 5(4) pair (Hairer, Norsett & Wanner, Solving
# ODE I, II.4-II.6): each stage after the first as its time and its row of the
# stage matrix (the weights B and E and the dense output P are read from RK45
# in the loop), and the step-size controller's exponent, safety factor and
# factor limits
_STAGES = list(zip(RK45.C[1:].tolist(), (RK45.A[s, :s] for s in range(1, RK45.n_stages))))
_EXPONENT = -1 / (RK45.error_estimator_order + 1)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10


class _Solution(NamedTuple):
    t: np.ndarray
    y: np.ndarray
    nfev: int  # kernel calls: 2 for the first step, then 6 per attempted step


def _norm(x: np.ndarray) -> float:
    """RK45's RMS norm."""
    return math.sqrt(x.dot(x)) / x.size**0.5


def solve_ivp(fun, t0, y0, t1, atol, rtol, *, t_eval, nodes, states) -> _Solution:
    """The float states y0 solved by y' = fun(t, y) from t0 to t1 (either
    direction), with the floats of ``scipy.integrate.solve_ivp`` with RK45
    and its default (unbounded) ``max_step``: scipy's tableau, error norm,
    step-size controller, initial-step rule and dense output, in one loop.
    The error controller alone sets every step.

    No step crosses a node: while one of ``nodes`` (ordered from t0 to t1,
    strictly inside the span) lies ahead, each step ends at or before it, so
    the nodes are among the steps; the input is continuous, so the
    derivative at a node is already right.  At each step end the first
    ``states`` entries are checked, and FiniteEscapeError names the first
    step end where one has left |x| < ESCAPE_BOUND.  The result holds t0 and
    every step end (t_eval None), or only the times of t_eval (ordered from
    t0 to t1), each from the dense output of the step that reaches it.  A
    step that shrinks to the spacing of the floats is an escape too (near a
    blow-up on gbar's cubic branch the step collapses before the states
    reach the bound when t is far from 0), so it raises FiniteEscapeError
    at any t; a span that is not finite and nonzero raises ValueError.
    """
    t, t1 = float(t0), float(t1)
    if not (math.isfinite(t1 - t) and t1 != t):
        raise ValueError(f"the span from t0 = {t} to t1 = {t1} must be finite and nonzero")
    # NumPy multiplies an array by a 0-d array faster than by a Python float
    atol, rtol = np.asarray(atol, dtype=float), np.asarray(rtol, dtype=float)
    if not y0.size:
        raise ValueError("solve_ivp needs at least one state")
    if not np.isfinite(y0).all():
        raise ValueError("the initial states must be finite")
    y, f = y0, fun(t, y0)
    direction, span = (1.0 if t1 >= t else -1.0), abs(t1 - t)
    nodes, k = [float(v) for v in nodes], 0
    # the first step (Hairer, Norsett & Wanner, II.4), at most the span
    scale = atol + np.abs(y) * rtol
    d0, d1 = _norm(y / scale), _norm(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    d2 = _norm((fun(t + h0 * direction, y + h0 * direction * f) - f) / scale) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** -_EXPONENT
    h_abs, nfev = min(100 * h0, h1, span), 2
    K = np.empty((RK45.n_stages + 1, y.size))  # the stages, then the derivative at the step end
    stages = [(s, c, K[:s].T, a) for s, (c, a) in enumerate(_STAGES, start=1)]
    KT, K_B = K.T, K[:-1].T
    abs_y, checked, escape = np.abs(y), slice(states), ESCAPE_BOUND
    # while the squares of all entries sum below this, none can be at the bound
    escape_sq = ESCAPE_BOUND * ESCAPE_BOUND
    if t_eval is None:
        times, ys = [t], [y]
    else:
        t_eval = np.asarray(t_eval, dtype=float)
        times, ys, ahead, i = t_eval, [], t_eval.tolist(), 0
    while True:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        end = nodes[k] if k < len(nodes) else t1
        rejected = False
        while True:  # attempts, until a step meets the tolerance
            if not h_abs >= min_step:
                raise FiniteEscapeError(
                    f"integration failed: the step size fell below the float spacing at t = {t:.17g}"
                )
            t_new = t + h_abs * direction
            if direction * (t_new - end) > 0:
                t_new = end
            h = t_new - t
            h_abs, h_0d = abs(h), np.asarray(h)
            K[0] = f
            for s, c, Ks, a in stages:
                K[s] = fun(t + c * h, y + Ks.dot(a) * h_0d)
            y_new = y + h_0d * K_B.dot(RK45.B)
            K[-1] = f_new = fun(t + h, y_new)
            nfev += 6
            abs_new = np.abs(y_new)
            scale = atol + np.maximum(abs_y, abs_new) * rtol
            error_norm = _norm(KT.dot(RK45.E) * h_0d / scale)
            if error_norm < 1:
                factor = _MAX_FACTOR if error_norm == 0 else min(_MAX_FACTOR, _SAFETY * error_norm**_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm**_EXPONENT)
            rejected = True
        # a NaN sum fails the first test, and the exact one does not raise on it
        if not y_new.dot(y_new) < escape_sq and abs_new[checked].max() >= escape:
            raise FiniteEscapeError(f"trajectory exceeded |x| = {escape:g} at t = {t_new:.6g}")
        t_old, y_old = t, y
        t, y, f, abs_y = t_new, y_new, f_new, abs_new
        k += t == end
        if t_eval is None:
            times.append(t)
            ys.append(y)
        else:  # the times of t_eval this step reached, from its quartic dense output
            j = i
            while j < len(ahead) and direction * (ahead[j] - t) <= 0:
                j += 1
            if j > i:
                x = (t_eval[i:j] - t_old) / h
                p = np.empty((RK45.P.shape[1], j - i))  # x, x^2, x^3, x^4, each the last times x
                p[0] = x
                for m in range(1, len(p)):
                    p[m] = p[m - 1] * x
                out = h * np.dot(KT.dot(RK45.P), p)
                out += y_old[:, None]
                ys.append(out)
                i = j
        if direction * (t - t1) >= 0:
            break
    if t_eval is None:
        return _Solution(np.array(times), np.vstack(ys).T, nfev)
    return _Solution(times, ys[0] if len(ys) == 1 else np.hstack(ys), nfev)


def _solve(spec: OdeSpec, t0, y0, t1, t_eval=None):
    """(times, states) of the states y0 solved from t0 to t1 (either
    direction) at ABSTOL and RELTOL in one ``solve_ivp`` run, each state's
    log multiplier alongside (from 0, after the states): the solver's
    steps, or only the times of t_eval (ordered from t0 to t1).  An
    end-state caller passes ``t_eval=[t1]``, so the solver keeps no step
    history.  The right-hand side is ``_augmented_kernel(spec)``, built here.

    A sampled input is piecewise linear.  Stepping across its nodes leaves
    the period map noisy at the level of the tolerance, so the solver steps
    through the node pieces with each step ending at a node strictly inside
    the span (Hairer, Norsett & Wanner, Solving ODE I, II.6).  A smooth
    input has no nodes and takes the steps of plain RK45.  The escape bound
    applies to the states alone.
    """
    x = np.atleast_1d(np.asarray(y0, dtype=float))
    y = np.concatenate([x, np.zeros(x.size)])
    # the kinks of a span that is not finite are not asked for: solve_ivp rejects the span
    nodes = spec._signal_at.kinks(t0, t1) if math.isfinite(t1 - t0) else []
    sol = solve_ivp(_augmented_kernel(spec), t0, y, t1, ABSTOL, RELTOL, t_eval=t_eval, nodes=nodes, states=x.size)
    return sol.t, sol.y


def integrate(spec: OdeSpec, t0: float, x0: float, t1: float, n_samples: int | None = None) -> Trajectory:
    """Trajectory from (t0, x0) to t1 at tolerances ABSTOL and RELTOL; t1 < t0
    integrates backward.

    The returned times are always strictly increasing (a backward run is
    reversed): the solver's steps, or only the n_samples equally spaced
    times (an integer >= 1), which the solver interpolates without keeping
    its steps.
    The state is integrated together with the multiplier integrand, as in
    ``poincare_map_log``, so the solver takes the period map's steps: one
    period from a fixed point refined on that map returns to it to rounding,
    not merely to the integration tolerance.  A sampled input is integrated
    node to node, so its nodes are among the steps.
    """
    if n_samples is not None and (isinstance(n_samples, bool) or not isinstance(n_samples, Integral) or n_samples < 1):
        raise ValueError(f"n_samples must be None or at least 1 (an integer), got {n_samples!r}")
    t_eval = None if n_samples is None else np.linspace(t0, t1, n_samples)
    times, ys = _solve(spec, t0, x0, t1, t_eval)
    values = ys[0]
    if t1 < t0:
        times, values = times[::-1], values[::-1]
    return Trajectory(times, values)


def _require_period(T: float, what: str) -> None:
    """ValueError naming ``what`` unless T is a finite period > 0."""
    if not (math.isfinite(T) and T > 0.0):
        raise ValueError(f"{what} requires a finite period T > 0, got T = {T}")


def poincare_map_log(spec: OdeSpec, T: float, x0: float | np.ndarray, backward: bool = False):
    """(x at the far end, log multiplier along the computed arc).

    Forward: returns (x(T; 0, x0), integral over [0, T] of the state
    derivative along that arc).  Backward: starts from x0 at t = T, returns
    x(0) and the same forward-oriented integral taken along the backward arc.
    A float x0 gives two floats; an array of states is mapped in one solve
    and gives two arrays.
    """
    _require_period(T, "poincare_map_log")
    t0, t1 = (T, 0.0) if backward else (0.0, T)
    _, ys = _solve(spec, t0, x0, t1, [t1])
    xT, L = np.split(ys[:, -1], 2)
    if backward:
        L = -L
    if np.ndim(x0) == 0:
        return float(xT[0]), float(L[0])
    return xT, L


def _exp(L: float) -> float:
    """e^L, or inf where it overflows a float."""
    try:
        return math.exp(L)
    except OverflowError:
        return math.inf


def poincare_map(spec: OdeSpec, T: float, x0: float) -> tuple[float, float]:
    """(x(T; 0, x0), multiplier exp(integral of the state derivative))."""
    _require_period(T, "poincare_map")
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

    Its flows are solves of ``OdeSpec.rhs`` alone, with no log multiplier,
    at the tighter tolerances 1e-12 absolute and 1e-10 relative.
    """
    _require_period(T, "poincare_multiplier_fd")

    def flow(t0, x, t1, t_eval):  # the states x from t0 to t1, at the times of t_eval
        x, nodes = np.array(x, dtype=float), spec._signal_at.kinks(t0, t1)
        return solve_ivp(spec.rhs, t0, x, t1, 1e-12, 1e-10, t_eval=t_eval, nodes=nodes, states=x.size).y

    ts = np.linspace(0.0, T, 4097)
    xs = flow(T, [x0], 0.0, ts[::-1])[0, ::-1] if backward_orbit else flow(0.0, [x0], T, ts)[0]
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
        hi, lo = flow(ta, [xa + h, xa - h], tb, [tb])[:, -1]
        diff = float(hi - lo)
        if diff <= 0.0:
            raise RuntimeError(f"finite-difference segment [{ta:.4g}, {tb:.4g}] lost monotonicity")
        total += math.log(diff / (2.0 * h))
    return total


# the drive margin of the census interval: x' >= MU below it and x' <= -MU above it
MU = 0.1


def _scan_interval(spec: OdeSpec) -> tuple[float, float] | None:
    """The census interval, where x' = lam + y(t) + gbar(x) can vanish,
    widened by the drive margin MU; None when it is empty.  lo <= y <= hi
    are the compiled signal's bounds (any outer bounds will do).

    Its edges are equilibria of constant drives (``model.equilibria``): the
    lowest root of lam + lo - MU + gbar = 0, below which x' >= MU for every
    t, and the highest of lam + hi + MU + gbar = 0, above which x' <= -MU.
    A T-periodic solution has x' = 0 at its maximum and at its minimum, so
    it lies strictly inside.  The floor is clipped at 0, and the interval
    is None where the clipped floor is not below the ceiling (lam + hi <=
    -MU and c <= 4, say).  A ceiling at or past ESCAPE_BOUND raises
    ValueError: the solve would count its top seeds as escapes.
    """
    c, lo, hi = spec.c, spec.lam + spec._signal_at.lo - MU, spec.lam + spec._signal_at.hi + MU
    floor, ceiling = max(equilibria(c, lo)[0], 0.0), equilibria(c, hi)[-1]
    if floor >= ceiling:
        return None
    if ceiling >= ESCAPE_BOUND:
        raise ValueError(
            f"the census interval [{floor:.6g}, {ceiling:.6g}] reaches past the escape bound |x| = {ESCAPE_BOUND:g}"
        )
    return floor, ceiling


def _family_field(specs, T: float, sizes):
    """(field, nodes): the solver's plain right-hand side for the states of
    the family ``specs``, one block per member with the k-th, sizes[k]
    long, under specs[k], and the kinks of the input on [0, T].

    One member's field is its own ``OdeSpec.rhs``.  A larger family repeats
    each member's lam + y(t) over its block and drives the states through
    ``OdeSpec._rhs_driven``, so every entry is the float of that member's
    ``OdeSpec.rhs``.  The members must share c and the kinks of the input
    on [0, T]; ValueError otherwise.
    """
    first = specs[0]
    nodes = first._signal_at.kinks(0.0, T)
    if len(specs) == 1:
        return first.rhs, nodes
    for spec in specs[1:]:
        if spec.c != first.c or not np.array_equal(spec._signal_at.kinks(0.0, T), nodes):
            raise ValueError(f"a family scan needs one c and set of kinks, got {first!r} and {spec!r}")
    members, driven, repeats = [(spec.lam, spec._signal_at) for spec in specs], first._rhs_driven, np.asarray(sizes)

    def field(t, y):
        drive = np.array([lam + signal_at(t) for lam, signal_at in members])
        return driven(np.repeat(drive, repeats), y)

    return field, nodes


def _displacement_grid(specs, T: float, xs) -> list[np.ndarray]:
    """T(x0) - x0 for all seeds at once: xs holds one seed array per member,
    the k-th solved under specs[k] (``_family_field``), all in one
    vectorized solve, and the result one displacement array per member.
    It makes no solve when every array is empty."""
    sizes = [x.size for x in xs]
    field, nodes = _family_field(specs, T, sizes)
    d = x = np.concatenate(xs)
    if x.size:
        d = solve_ivp(field, 0.0, x, T, ABSTOL, RELTOL, t_eval=[T], nodes=nodes, states=x.size).y[:, -1] - x
    return np.split(d, np.cumsum(sizes)[:-1])


def _sign_changes(xs: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(xa, xb, attractive, start): the bracket, direction and starting
    point of every sign change of the displacement d on the seeds xs, in
    increasing order, as four arrays (empty for no seeds).  A seed where the
    displacement is exactly zero gives the bracket of its two neighbours and
    starts at its midpoint.  Any other crossing, between seeds i and i + 1,
    starts at the zero of the inverse cubic through the four seeds i - 1 to
    i + 2 (x as a cubic in d, in Lagrange form about xs[i]), whose error is
    of fourth order in the seed spacing; the scan has solved those seeds
    already.  It starts at the secant zero of its two displacement values
    instead at either end of the grid, where a seed is missing, and where
    the cubic's zero is not strictly inside the bracket (among them tied
    values, whose cubic is not defined)."""
    da, db = d[:-1], d[1:]
    zero = da == 0.0
    i = np.flatnonzero(zero | (da * db < 0.0))
    z = zero[i]
    lo = np.where(z, np.maximum(i - 1, 0), i)
    xa, xb = xs[lo], xs[i + 1]
    # a zero seed may have a zero neighbour, so its (unused) secant is not formed
    step = np.divide(da[i] * (xb - xa), db[i] - da[i], out=np.zeros(i.size), where=~z)
    start = np.where(z, 0.5 * (xa + xb), xa - step)
    inner = np.flatnonzero(~z & (i >= 1) & (i + 2 < xs.size))
    if inner.size:
        k = i[inner]
        x4, d4 = [xs[k + m] for m in range(-1, 3)], [d[k + m] for m in range(-1, 3)]
        cubic = 0.0
        with np.errstate(all="ignore"):  # tied values give inf or nan, which the bracket test drops
            for m in range(4):
                w = 1.0
                for j in range(4):
                    if j != m:
                        w = w * (d4[j] / (d4[j] - d4[m]))
                cubic = cubic + w * (x4[m] - x4[1])
        cubic = x4[1] + cubic
        inside = (xa[inner] < cubic) & (cubic < xb[inner])
        start[inner[inside]] = cubic[inside]
    return xa, xb, np.where(z, db[i] < da[i], da[i] > 0.0), start


def _require_fitting_period(spec: OdeSpec, T: float) -> None:
    """ValueError unless the input of ``spec`` repeats after T: T a positive
    integer multiple of its fundamental period, within 1e-9 relative, or
    any T for a constant-valued input.  Any other input is rejected as by
    ``signal_period``."""
    period = sig.fundamental_period(spec.signal)
    if period is None:
        signal_period(spec.signal)
        return
    k = round(T / period)
    if k < 1 or abs(T - k * period) > 1e-9 * T:
        raise ValueError(f"a census at T = {T} needs an input that repeats after T; its period is {period}")


def _brackets(specs, T: float, n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The one census scan: for each member of ``specs``, (xs, d), the n
    seeds over its scan interval and the displacements P(x) - x there, or
    two empty arrays where the interval is empty; every member's seeds are
    solved in one vectorized solve (``_displacement_grid``).  A one-member
    family is solved with its own ``OdeSpec.rhs``, so its floats do not
    depend on the family path.  A period T that is not finite and positive,
    or that the input of a member does not repeat after, raises
    ValueError, as does a member's scan interval that reaches
    ESCAPE_BOUND; either is raised before any solve."""
    _require_period(T, "a census")
    for spec in specs:
        _require_fitting_period(spec, T)
    intervals = [_scan_interval(spec) for spec in specs]
    xs = [np.empty(0) if interval is None else np.linspace(*interval, n) for interval in intervals]
    return list(zip(xs, _displacement_grid(specs, T, xs)))


def _stable_brackets(spec: OdeSpec, T: float):
    """The census's crossings: those of the certified grid
    (``_certified_crossings``) on CENSUS_SEEDS seeds.  (The name is kept:
    the benchmark's tracer wraps it.)"""
    return _certified_crossings([spec], T, CENSUS_SEEDS)[0][0]


def _open_cells(xs: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Indices i of the cells [xs[i], xs[i + 1]], at least DEDUP_TOL wide,
    whose displacements d = P(x) - x share a sign but which the monotone
    period map does not clear.  P is increasing (the solutions of a scalar
    equation do not cross), so a cell with d > 0 at both ends and
    P(xs[i]) >= xs[i + 1] holds no fixed point: every z in it has
    P(z) >= P(xs[i]) >= xs[i + 1] >= z.  Likewise with d < 0 and
    P(xs[i + 1]) <= xs[i].  The inequality must hold by more than the
    solve's tolerance, ABSTOL + RELTOL |x|."""
    xa, xb, da, db = xs[:-1], xs[1:], d[:-1], d[1:]
    margin = ABSTOL + RELTOL * np.maximum(np.abs(xa), np.abs(xb))
    clear = np.where(da > 0.0, (xa + da) - xb > margin, xa - (xb + db) > margin)
    return np.flatnonzero((da * db > 0.0) & ~clear & (xb - xa >= DEDUP_TOL))


def _certified_crossings(specs, T: float, n: int) -> tuple[list, int]:
    """(crossings, solves): for each member of ``specs``, the crossings
    (``_sign_changes``) of its refined grid over its scan interval, and the
    family solves made for the grids.

    One family scan (``_brackets``) solves n seeds per member.  Every cell
    whose two displacements share a sign and which the period map does not
    clear (``_open_cells``) may hide an even number of fixed points, so it is
    cut into eighths: each round solves the 7 new seeds of every open cell
    of every member in one family solve, a member with no open cell as an
    empty block.  A cell is done once it is cleared, or narrower than
    DEDUP_TOL, where its signs are read as on a fixed grid.

    Each round reads every grid's crossings once, and only a grid that
    shows fewer than three is cut.  Three is the count the census decides:
    one attractive solution is uniform stability, and the
    attractive-repulsive-attractive triple is bistability.  A hidden pair
    changes that verdict only while a grid shows fewer than three, so a
    grid that shows three or more is not searched for further pairs, as a
    fixed grid never is.  A cell with a sign change is not cut, so three
    fixed points in one read as one crossing.  The cell next to a crossing
    whose multiplier lies between 1/2 and 2 is never cleared, so a
    single-crossing census near a fold takes several rounds.  ValueError
    as for ``_brackets``."""
    grids = _brackets(specs, T, n)
    solves, eighths, uncut = int(any(xs.size for xs, _ in grids)), np.arange(1, 8) / 8.0, np.empty(0, int)
    while True:
        crossings = [_sign_changes(xs, d) for xs, d in grids]
        cells = [_open_cells(xs, d) if xa.size < 3 else uncut for (xs, d), (xa, *_) in zip(grids, crossings)]
        if not any(i.size for i in cells):
            return crossings, solves
        new = [(xs[i, None] + eighths * np.diff(xs)[i, None]).ravel() for (xs, _), i in zip(grids, cells)]
        solves += 1
        for k, ((xs, d), xs_new, d_new) in enumerate(zip(grids, new, _displacement_grid(specs, T, new))):
            xs, d = np.concatenate([xs, xs_new]), np.concatenate([d, d_new])
            order = np.argsort(xs, kind="stable")
            grids[k] = xs[order], d[order]


def _map_solve_limit(width: float) -> int:
    """The most map solves ``_refine_fixed_point`` makes on a bracket this wide:
    two per halving after the first, to below FP_TOL, and two for rounding."""
    return 2 * math.ceil(math.log2(max(width, FP_TOL) / FP_TOL)) + 5


def _refine_fixed_point(
    spec: OdeSpec, T: float, xa: np.ndarray, xb: np.ndarray, x: np.ndarray, attractive: bool
) -> tuple[np.ndarray, np.ndarray]:
    """(x, L): for each crossing, started at x inside its bracket [xa, xb], a
    fixed point of the period map in the bracket and the forward-oriented log
    multiplier L of the map solve that converged on it.  All crossings share
    a direction and are refined in lock step, one multi-state map solve per
    step; a crossing leaves the batch once it converges.

    Attractive crossings iterate the forward map P, repulsive ones the
    inverse (backward) map; both contract onto the orbit, so the iterated map
    moves a state below its fixed point up, and each solve shrinks the
    bracket to that side of x (a state the map fixes is its own bracket).
    Its log multiplier gives the iterated map's slope s for free: e^L
    forward, e^-L backward, clipped at 1.  The step is Newton's on P(x) - x
    (the shooting method; Kuznetsov, Elements of Applied Bifurcation Theory,
    ch. 10), to P(x) + (P(x) - x) s / (1 - s), where s < 1, it lies in the
    shrunk bracket and it is at most half the step before last; it is to
    the bracket's midpoint otherwise (``rtsafe``, Press et al., Numerical
    Recipes, 9.4).  So Newton steps that approach from one side go on as
    long as they shrink, and ``_map_solve_limit`` bounds the solves.  A
    crossing's first two steps are measured against twice its bracket, so
    a Newton step inside the bracket is taken.  A crossing converges at a
    Newton step whose correction, which estimates its distance to the
    fixed point even for s near 1, is below FP_TOL, or once its bracket is
    narrower than FP_TOL, at that step's point.  RuntimeError, naming the
    bracket, past the bound.
    """
    xa, xb = np.asarray(xa, dtype=float), np.asarray(xb, dtype=float)
    lo, hi, x = xa.copy(), xb.copy(), np.array(x, dtype=float)
    fixed, logs, live = np.full(x.size, np.nan), np.full(x.size, np.nan), np.arange(x.size)
    # per crossing: the sizes of its last step and of the step before
    last, before = 2.0 * (hi - lo), 2.0 * (hi - lo)
    limit = _map_solve_limit(float(np.max(hi - lo, initial=0.0)))
    for _ in range(limit):
        if not live.size:
            break
        at = x[live]
        nxt, L = poincare_map_log(spec, T, at, backward=not attractive)
        a, b = np.where(nxt >= at, at, lo[live]), np.where(nxt <= at, at, hi[live])
        s = np.exp(np.minimum(L if attractive else -L, 0.0))
        newton_ok = s < 1.0
        correction = (nxt - at) * s / np.where(newton_ok, 1.0 - s, 1.0)
        newton = nxt + correction
        take = newton_ok & (a <= newton) & (newton <= b) & (np.abs(newton - at) <= 0.5 * before[live])
        step = np.where(take, newton, 0.5 * (a + b))
        done = (take & (np.abs(correction) < FP_TOL)) | (b - a < FP_TOL)
        fixed[live[done]], logs[live[done]] = step[done], L[done]
        lo[live], hi[live], x[live] = a, b, step
        before[live], last[live] = last[live], np.abs(step - at)
        live = live[~done]
    if live.size:
        k = live[0]
        raise RuntimeError(f"the crossing in [{xa[k]:.17g}, {xb[k]:.17g}] did not converge in {limit} map solves")
    return fixed, logs


def find_periodic_solutions(spec: OdeSpec, T: float) -> list[PeriodicSolution]:
    """All T-periodic solutions found by the census over the scan interval.

    Requires a finite T > 0 and an input that is constant or T-periodic
    (ValueError otherwise, ``_brackets``).  The census reads the crossings
    of the certified grid on CENSUS_SEEDS seeds (``_stable_brackets``), then
    refines them (``_solutions``): about three solve batches.  Every pair of
    fixed points wider than DEDUP_TOL is found while the grid shows fewer
    than three crossings.
    """
    return _solutions(spec, T, _stable_brackets(spec, T))


def _solutions(spec: OdeSpec, T: float, crossings) -> list[PeriodicSolution]:
    """The periodic solutions of the crossings (xa, xb, attractive, start)
    of a census (``_sign_changes``), in increasing order: one lock-step
    refinement of all attractive crossings forward and one of all repulsive
    crossings backward (``_refine_fixed_point``).  Each solution is its fixed point,
    the multiplier measured by the map solve its refinement converged with
    (a repulsive orbit is measured backward, as forward integration falls
    off it before one period when the multiplier is extreme), and its
    stability tag; no orbit is integrated again."""
    xa, xb, attractive, start = crossings
    fixed, logs = np.empty(xa.size), np.empty(xa.size)
    for direction in (True, False):
        batch = attractive == direction
        if batch.any():
            fixed[batch], logs[batch] = _refine_fixed_point(spec, T, xa[batch], xb[batch], start[batch], direction)
    solutions = []
    for x0, L in zip(fixed.tolist(), logs.tolist()):
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
    """Number of period-map crossings of the census's certified grid
    (``_stable_brackets``).

    Count-only fast path: no refinement or multipliers.  Distinct crossings
    lie in distinct cells of the grid, so their brackets do not overlap;
    for c <= 4 gbar decreases, so the displacement does and crosses at most
    once.
    """
    return _stable_brackets(spec, T)[0].size


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


def _averaged_fold(c: float, signal: sig.SignalSpec, kind: str) -> tuple[float, float]:
    """(lam, x0): the fold of the comparison equation ``kind`` that
    second-order averaging predicts, as its lambda and the state x0 at t = 0
    of its fold orbit.

    With Y the zero-mean antiderivative of y - ybar, x = u + Y(t) turns
    x' = lam + y + gbar(x) into u' = lam + ybar + gbar(u + Y(t)), whose
    average over the fast time is u' = lam + ybar + gbar(u) + gbar''(u)
    Var(Y)/2 + ... (Sanders, Verhulst & Murdock, Averaging Methods in
    Nonlinear Dynamical Systems, 2007, ch. 2).  At the fold x_f (x2 for the
    concave-linear equation, x1 for the linear-convex one) gbar' vanishes,
    so the fold value moves from center - ybar by -gbar''(x_f) Var(Y)/2:
    up for lambda_minus, down for lambda_plus.  Y of a cos(th t + ph) is
    (a/th) sin(th t + ph); terms on one frequency (a Cesaro input's a and b
    terms) add as phasors (a/th) e^(i ph), and Var(Y) is half the sum of
    their squared moduli.  A sampled input enters as its interpolant's mean
    and as many harmonics as nodes (``sig._sampled_terms``; Y's terms fall
    off as n^-3).  The fold orbit keeps u at the fold, so it starts at
    x_f - sqrt3 + Y(0) in the recentered state.
    """
    a0, terms = sig._as_trig(signal) or sig._sampled_terms(signal, len(signal.times))
    phasors = {}
    for a, th, ph in terms:
        phasors[th] = phasors.get(th, 0j) + a / th * cmath.exp(1j * ph)
    var = sum(abs(p) ** 2 for p in phasors.values()) / 2.0
    y0 = sum(p.imag for p in phasors.values())
    concave = kind == "concave-linear"
    x_f, center = (x2(c), lam1(c)) if concave else (x1(c), lam2(c))
    curvature = abs(gbar_deriv2(c, x_f))
    return center - a0 + (curvature if concave else -curvature) * var / 2.0, x_f - SQRT3 + y0


# the solves (its start and every trial step) a fold's Newton solve may make before it gives up
FOLD_SOLVES = 40
# the smallest trial step, and the failed trials (an orbit that escapes or an l that
# overflows exp), one Newton step may take: no fold solve that converges on the
# benchmark's fold inputs or on both sides of 390 one-term inputs (c 4.5 to 12,
# theta 0.09 to 2) takes more than 4 halvings or 2 failed trials in one step
FOLD_STEP_FLOOR, FOLD_FAILED_TRIALS = 2.0**-4, 2


def _fold_system(c: float, lam: float, signal: sig.SignalSpec, kind: str, T: float, x: float):
    """(F, J): the fold system F(x, lam) = (P(x) - x, L(x)) of the
    comparison equation x' = lam + y(t) + f(x) of ``kind``, with P its
    period map and L the log multiplier, the integral of f' along the orbit.

    One solve over the period gives both F and its Jacobian: from
    (x, 0, 0, 0, 0), x' = lam + y + f, l' = f', x_lam' = f' x_lam + 1,
    M' = f'' e^l and N' = f'' x_lam, so e^L is dP/dx, x_lam(T) is dP/dlam,
    and M and N are dL/dx and dL/dlam.  Then J = [[e^L - 1, x_lam], [M, N]].
    The five-state kernel is built here from ``_float_field`` and the
    compiled input, with no OdeSpec: f' and f'' are the floats of the
    equation's ``pair`` and ``curvature``.  An orbit that escapes raises
    FiniteEscapeError, and an l that overflows exp raises OverflowError.
    """
    (pair, curvature), signal_at = _float_field(c, kind), sig.compile_signal(signal)

    def kernel(t, y):
        x, log_mult, x_lam, _, _ = y.tolist()
        dx, d1 = pair(lam + signal_at(float(t)), x)
        d2 = curvature(x)
        return np.array([dx, d1, d1 * x_lam + 1.0, d2 * math.exp(log_mult), d2 * x_lam])

    y0 = np.array([x, 0.0, 0.0, 0.0, 0.0])
    sol = solve_ivp(kernel, 0.0, y0, T, ABSTOL, RELTOL, t_eval=[T], nodes=signal_at.kinks(0.0, T), states=1)
    xT, L, x_lam, M, N = sol.y[:, -1].tolist()
    return (xT - x, L), ((math.exp(L) - 1.0, x_lam), (M, N))


def _newton_fold(c: float, signal: sig.SignalSpec, kind: str, T: float, tol: float):
    """(lam, figures): the fold value of the comparison equation
    ``kind``, and the Newton steps and solves that found it, the last
    step's |dlam| and the averaged fold's lambda, keyed as in the metadata of
    ``estimate_lambda_pm``.  Newton's method on ``_fold_system`` (Kuznetsov,
    Elements of Applied Bifurcation Theory, ch. 10; Govaerts, Numerical
    Methods for Bifurcations of Dynamical Equilibria, SIAM 2000) starts at
    the averaged fold's lambda and state.

    A trial step t (1, then halved) is taken when its orbit stays bounded,
    its l does not overflow exp, and it shrinks |F| by the factor 1 - t/2,
    or when |F| is already at its rounding floor (the exact start of a
    constant input).  A full step with |dlam| < tol ends the solve.  P is
    concave (concave-linear) or convex (linear-convex), so it has at most
    one fold; the root is taken when M = dL/dx has that sign (negative, or
    positive).  RuntimeError, naming the side, when FOLD_SOLVES solves do
    not converge, when a step's trial fails at t = FOLD_STEP_FLOOR or fails
    for the (FOLD_FAILED_TRIALS + 1)-th time by escape (a collapsing step
    included) or overflow (a stalled solve stops there, not at the cap),
    when the start fails or when M has the other sign.
    """
    predicted, x = _averaged_fold(c, signal, kind)
    lam, sign = predicted, -1.0 if kind == "concave-linear" else 1.0
    failed = RuntimeError(f"the Newton solve did not converge on the {kind} fold")
    try:
        F, J = _fold_system(c, lam, signal, kind, T, x)
    except (FiniteEscapeError, OverflowError):
        raise failed from None
    steps, solves = 0, 1
    while solves < FOLD_SOLVES:
        (a, b), (m, n) = J
        det = a * n - b * m
        if det == 0.0:  # M = N = 0: the orbit never meets the curved half
            raise failed
        dx, dlam = (b * F[1] - n * F[0]) / det, (m * F[0] - a * F[1]) / det
        if not (math.isfinite(dx) and math.isfinite(dlam)):
            raise failed
        size = math.hypot(*F)
        floor = 64.0 * math.ulp(1.0) * (1.0 + abs(x) + abs(lam) * T)
        t, failures = 1.0, 0
        while solves < FOLD_SOLVES:
            solves += 1
            try:
                F_t, J_t = _fold_system(c, lam + t * dlam, signal, kind, T, x + t * dx)
            except (FiniteEscapeError, OverflowError):
                failures += 1
            else:
                if math.hypot(*F_t) <= (1.0 - t / 2.0) * size or size <= floor:
                    break
            if t <= FOLD_STEP_FLOOR or failures > FOLD_FAILED_TRIALS:
                raise failed
            t /= 2.0
        else:
            break
        x, lam, F, J = x + t * dx, lam + t * dlam, F_t, J_t
        steps += 1
        if t == 1.0 and abs(dlam) < tol:
            if not sign * J[1][0] > 0.0:
                raise failed
            return lam, {"newton_steps": steps, "solves": solves, "last_step": abs(dlam), "prediction": predicted}
    raise failed


def estimate_lambda_pm(
    c: float, signal: sig.SignalSpec, tol: float = 1e-5
) -> tuple[float, float, dict]:
    """Bifurcation values (lambda_minus, lambda_plus) of the comparison
    equations: the fold of the concave-linear equation and of the
    linear-convex one, each a root of the fold system by Newton's method
    (``_newton_fold``) from the fold that second-order averaging predicts
    (``_averaged_fold``), to a last step below tol.

    The metadata reports per value the Newton steps (``newton_steps``), the
    solves they made (``solves``), the last step's |dlam| (``last_step``)
    and the averaged fold's lambda (``prediction``), and notes that for
    non-constant inputs the period-map condition is a surrogate of the
    shift-family definition (equivalent for periodic inputs).
    """
    require_c_above_4(c, "estimate_lambda_pm")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"estimate_lambda_pm requires a finite tol > 0, got tol = {tol}")
    T = signal_period(signal)
    lam_minus, minus = _newton_fold(c, signal, "concave-linear", T, tol)
    lam_plus, plus = _newton_fold(c, signal, "linear-convex", T, tol)
    meta = {"tol": tol, "period": T}
    meta.update({key: {"lambda_minus": minus[key], "lambda_plus": plus[key]} for key in minus})
    meta["note"] = (
        "period-map condition is a surrogate of the shift-family definition; exact for constant and periodic inputs"
    )
    return lam_minus, lam_plus, meta
