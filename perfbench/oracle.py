"""Independent reference formulas for the correctness gates.

Nothing here calls into ``bistab``: the nonlinearity, the fold values and
the forcing signals are re-derived from their definitions, so a gate fails
when the package and the definition disagree.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

TWO_PI = 2.0 * math.pi


def gbar(c: float, x):
    """x >= 0: -x - 2cx/(1+x^2); x < 0: the cubic -(1+2c)x - x^3."""
    x = np.asarray(x, dtype=float)
    pos = -x - 2.0 * c * x / (1.0 + x * x)
    neg = -(1.0 + 2.0 * c) * x - x ** 3
    return np.where(x >= 0.0, pos, neg)


def fold_values(c: float) -> tuple[float, float]:
    """(lam1, lam2) = (-g(x2), -g(x1)), where x1 < x2 solve g'(x) = 0, i.e.
    x^4 - 2(c-1)x^2 + (1+2c) = 0."""
    root = math.sqrt(c * c - 4.0 * c)
    lo, hi = math.sqrt(c - 1.0 - root), math.sqrt(c - 1.0 + root)
    minus_g = lambda x: x + 2.0 * c * x / (1.0 + x * x)
    return minus_g(hi), minus_g(lo)


def signal_fn(doc: dict):
    """Vectorised y(t) for a signal JSON document."""
    kind = doc["type"]
    if kind == "constant":
        a0 = float(doc["a0"])
        return lambda t: np.full(np.shape(t), a0)
    if kind == "trig":
        a0 = float(doc.get("a0", 0.0))
        amp, freq, phase = (np.array(col, dtype=float) for col in zip(*doc["terms"]))
        return lambda t: a0 + np.cos(np.multiply.outer(np.asarray(t, float), freq) + phase) @ amp
    if kind == "fourier_cesaro":
        a0, n_terms = float(doc.get("a0", 0.0)), int(doc["n_terms"])
        a, b = list(doc.get("a", ())), list(doc.get("b", ()))
        n = np.arange(1, n_terms)
        weight = (n_terms - n) / n_terms
        an = weight * np.array([a[k - 1] if k <= len(a) else 0.0 for k in n])
        bn = weight * np.array([b[k - 1] if k <= len(b) else 0.0 for k in n])

        def fourier(t):
            arg = np.multiply.outer(np.asarray(t, float), n.astype(float))
            return a0 + np.cos(arg) @ an + np.sin(arg) @ bn

        return fourier
    if kind == "sampled":
        period = float(doc["period"])
        ts, vs = (np.array(col, dtype=float) for col in zip(*sorted(doc["samples"])))
        # one wrap-around node on each side makes the interpolant periodic
        ts = np.concatenate([[ts[-1] - period], ts, [ts[0] + period]])
        vs = np.concatenate([[vs[-1]], vs, [vs[0]]])
        return lambda t: np.interp(np.mod(t, period), ts, vs)
    raise ValueError(f"unknown signal type {kind!r}")


def scan_window(doc: dict) -> float:
    """A time window over which a dense grid sees the signal's range."""
    kind = doc["type"]
    if kind == "sampled":
        return float(doc["period"])
    if kind == "trig":
        # the benchmark's commensurate sums have integer frequency ratios to
        # the lowest one, so one lowest period holds their whole range
        periods = 64.0 if doc["rationally_independent"] else 1.0
        return periods * TWO_PI / min(th for _, th, _ in doc["terms"])
    return TWO_PI


def grid_range(doc: dict, n: int = 8192) -> tuple[float, float]:
    """(min, max) of y on a dense grid; both lie inside [inf y, sup y]."""
    t = np.linspace(0.0, scan_window(doc), n, endpoint=False)
    v = signal_fn(doc)(t)
    return float(np.min(v)), float(np.max(v))


def closure_gap(c: float, lam: float, doc: dict, period: float, x0: float, attractive: bool) -> float:
    """|x(end) - x0| after one period of x' = lam + y(t) + gbar(x).

    Attractive orbits run forward from (0, x0); repulsive ones run backward
    from (period, x0), the direction in which they attract.
    """
    y = signal_fn(doc)
    rhs = lambda t, x: lam + y(t) + gbar(c, x)
    span = (0.0, period) if attractive else (period, 0.0)
    sol = solve_ivp(rhs, span, [x0], method="DOP853", rtol=1e-12, atol=1e-12, max_step=period / 64.0)
    if sol.status != 0:
        return math.inf
    return abs(float(sol.y[0, -1]) - x0)
