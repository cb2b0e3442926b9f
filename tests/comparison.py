"""The concave-linear and linear-convex comparison equations as the tests
solve them, the independent statement the fold oracles census.

A comparison equation is x' = lam + y(t) - cshift + dfrak x + mg_minus(c, x)
(concave-linear) or mg_plus(c, x) (linear-convex), from ``model``'s closed
forms on NumPy arrays.  The package solves these equations only in its fold
system, from its own float field (``dynamics._float_field``); here they are
integrated by ``dynamics.solve_ivp`` as a census scan integrates the full
equation, one solve for all seeds, at ABSTOL and RELTOL.
"""

import math

import numpy as np
from scipy.optimize import brentq

from bistab import dynamics, model, signals

KINDS = ("concave-linear", "linear-convex")
SQRT3 = math.sqrt(3.0)


def comparison_rhs(c, lam, signal, kind):
    """x' of the comparison equation ``kind`` as a function of (t, x)."""
    halved = model.mg_minus if kind == "concave-linear" else model.mg_plus
    signal_at, shift, slope = signals.compile_signal(signal), model.cshift(c), model.dfrak(c)

    def rhs(t, x):
        return lam + signal_at(t) - shift + slope * x + halved(c, x)

    return rhs


def comparison_map(c, lam, signal, kind, T, xs):
    """x(T) of the comparison equation ``kind`` from the states xs at t = 0,
    in one solve whose steps end at the input's nodes.  An orbit that leaves
    |x| < ESCAPE_BOUND raises FiniteEscapeError."""
    xs = np.asarray(xs, dtype=float)
    nodes = signals.compile_signal(signal).kinks(0.0, T)
    rhs = comparison_rhs(c, lam, signal, kind)
    return dynamics.solve_ivp(
        rhs, 0.0, xs, T, dynamics.ABSTOL, dynamics.RELTOL, t_eval=[T], nodes=nodes, states=xs.size
    ).y[:, -1]


def comparison_displacement(c, lam, signal, kind, T, xs):
    """P(x) - x of the comparison equation ``kind`` on the seeds xs."""
    return comparison_map(c, lam, signal, kind, T, xs) - np.asarray(xs, dtype=float)


def wide_top(c, lam, signal):
    """rho with gbar(rho) = -max(lam2, lam + hi) - 1 (hi the compiled
    signal's upper bound of y), so x' <= -1 above rho for the full
    equation; None for c <= 4 once lam + hi <= -1.  gbar(x) <= -x on
    x >= 0 brackets rho in [x2 or 0, -target]."""
    target = -(lam + signals.compile_signal(signal).hi) - 1.0
    if c <= 4.0 and target >= 0.0:
        return None
    if c > 4.0:
        target = min(target, -model.lam2(c) - 1.0)
    lo = 0.0 if c <= 4.0 else model.x2(c)
    return float(brentq(lambda x: model.gbar_eval(c, x) - target, lo, -target, xtol=1e-12))


def comparison_seeds(c, lam, signal, kind, n):
    """n seeds over the wide interval of the comparison equation ``kind``:
    [-sqrt3, rho - sqrt3], the full equation's [0, rho] recentered.  The
    linear-convex seeds end one seed past x_c = max(0, (cshift - lam -
    inf y) / dfrak) instead, above which x' > 0 for ever: rho - sqrt3 lies
    below the repulsive orbit on the linear half at c = 4.05, and its top
    seeds escape at c = 12.  A solution at x_c itself (a constant input's)
    lies inside."""
    lo, hi = -SQRT3, wide_top(c, lam, signal) - SQRT3
    if kind == "linear-convex":
        x_c = max(0.0, (model.cshift(c) - lam - signals.bounds(signal).inf) / model.dfrak(c))
        hi = x_c + (x_c - lo) / (n - 2)
    return np.linspace(lo, hi, n)


def comparison_deriv(c, kind):
    """f' of the comparison equation ``kind`` as a function of x, the
    multiplier integrand."""
    halved = model.mg_minus_deriv if kind == "concave-linear" else model.mg_plus_deriv
    slope = model.dfrak(c)

    def deriv(x):
        return slope + halved(c, x)

    return deriv
