"""Slow sinusoidal forcing experiments: regime dichotomy, hysteresis loops,
and the exponent threshold separating bistability from relaxation
oscillations.

The forcing is y(t) = alpha + (beta + eps^r) sin(eps t), whose range barely
overhangs the saddle-node values [lam1, lam2] by eps^r on both sides.  For
slow forcing the (input, state) loop of the attractive periodic solution
tracks the singular curve Gamma: the stable autonomous branches between lam1
and lam2 joined by vertical jumps at the two saddle-nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq  # noqa: F401  perfbench/tracing.py wraps relaxation.brentq by name
from scipy.spatial import cKDTree

from . import dynamics
from .model import DomainError, diagnostics, g_eval
from .signals import TrigSum

TWO_PI = 2.0 * math.pi
CLOSURE_TOL = 1e-6  # largest |x(T) - x(0)| run_analysis accepts for the loop of a fixed point
_BLOCK = 256  # points per vectorised pass of the pruned Hausdorff search


@dataclass(frozen=True)
class RelaxationSpec:
    c: float
    eps: float
    r: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.c, self.eps, self.r)):
            raise ValueError(f"RelaxationSpec requires finite c, eps and r, got {self}")
        if self.c <= 4.0:
            raise DomainError(f"RelaxationSpec requires c > 4, got c = {self.c}")
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")
        if self.r <= 0.0:
            raise ValueError(f"r must be positive, got {self.r}")
        if diagnostics(self.c).lam1 - self.eps ** self.r < 0.0:
            raise ValueError("invalid spec: lam1(c) - eps^r < 0 (forcing range leaves [0, inf))")

    @property
    def period(self) -> float:
        return TWO_PI / self.eps

    @property
    def amplitude(self) -> float:
        diag = diagnostics(self.c)
        return diag.beta + self.eps ** self.r

    def signal(self) -> TrigSum:
        """The forcing as a cosine-form signal: sin(w t) = cos(w t - pi/2)."""
        diag = diagnostics(self.c)
        return TrigSum(diag.alpha, ((self.amplitude, self.eps, -math.pi / 2.0),))


@dataclass(frozen=True)
class GammaCurve:
    """Closed polyline (lambda, x): lower stable branch lam1 -> lam2, upward
    jump at lam2, upper stable branch lam2 -> lam1, downward jump at lam1."""

    polyline: np.ndarray  # shape (m, 2), first point == last point


@dataclass(frozen=True)
class LoopResult:
    loop: np.ndarray  # (y(t), x(t)) over one period, closed
    area: float
    hausdorff_to_gamma: float
    n_fixed_points: int
    regime: str  # "bistable" | "relaxation" | "boundary"
    solutions: tuple[dynamics.PeriodicSolution, ...]
    closure_gap: float  # |x(T) - x(0)| of the integrated loop, before it is closed


@dataclass(frozen=True)
class ThresholdResult:
    r: float
    tol: float
    regime_below: str
    regime_above: str


def y_eps(spec: RelaxationSpec, t):
    """alpha + (beta + eps^r) sin(eps t); t scalar or array."""
    diag = diagnostics(spec.c)
    t = np.asarray(t, dtype=float)
    out = diag.alpha + spec.amplitude * np.sin(spec.eps * t)
    return out if out.ndim else float(out)


def crossing_times(spec: RelaxationSpec) -> tuple[float, float, float]:
    """(tbar_minus, t_minus, t_plus) in [0, 2*pi/eps]:

    tbar_minus is the first time the rising forcing reaches lam2; t_minus and
    t_plus are the two times the falling/rising forcing crosses lam1.  All
    from arcsine branches: tbar_minus in (0, pi/(2 eps)), t_minus in
    (pi/eps, 3 pi/(2 eps)), t_plus in (3 pi/(2 eps), 2 pi/eps).
    """
    diag = diagnostics(spec.c)
    s = diag.beta / spec.amplitude  # sin value where y hits lam2 (and -s for lam1)
    tbar_minus = math.asin(s) / spec.eps
    t_minus = (math.pi + math.asin(s)) / spec.eps
    t_plus = (TWO_PI - math.asin(s)) / spec.eps
    return tbar_minus, t_minus, t_plus


def gamma_curve(c: float, n_points: int = 2048) -> GammaCurve:
    """The singular hysteresis curve, sampled uniformly in the state: every
    branch point is (-g(x), x), so lam + g(x) = 0 holds to rounding.

    Cleared of its denominator, lam = -g(x) is the cubic
    x^3 - lam x^2 + (1 + 2c) x - lam = 0.  At a saddle-node it has a double
    root, so by Vieta the third root, where the other branch ends, is
    lam / (double root)^2.  The lower branch runs over x in [lam1/x2^2, x1]
    (lam1 -> lam2), the upper branch over [lam2/x1^2, x2] descending
    (lam2 -> lam1); n_points each, then the closing point."""
    if c <= 4.0:
        raise DomainError(f"gamma_curve requires c > 4, got c = {c}")
    diag = diagnostics(c)
    lower = np.linspace(diag.lam1 / diag.x2 ** 2, diag.x1, n_points)
    upper = np.linspace(diag.lam2 / diag.x1 ** 2, diag.x2, n_points)
    # the vertical jumps are the segments joining the branch endpoints:
    # (lam2, x1) -> (lam2, lam2/x1^2) and (lam1, x2) -> the start point
    x = np.concatenate([lower, upper, lower[:1]])
    return GammaCurve(np.column_stack([-g_eval(c, x), x]))


def loop_area(points: np.ndarray) -> float:
    """Shoelace absolute area of a closed polygon (signed-sum magnitude for
    self-intersecting input)."""
    p = np.asarray(points, dtype=float)
    x, y = p[:, 0], p[:, 1]
    return float(0.5 * abs(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1])))


def _segment_distance(pts, p, d, dd):
    """Distance from pts to the segments p -> p + d (dd = |d|^2, floored away
    from 0) by clipped projection; broadcasts over the leading axes."""
    w = pts - p
    t = np.clip(np.sum(w * d, axis=-1) / dd, 0.0, 1.0)
    proj = p + t[..., None] * d
    return np.sqrt(np.sum((pts - proj) ** 2, axis=-1))


def _directed_pruned(a: np.ndarray, b: np.ndarray, pad: float) -> float:
    """max over the points of a of the min distance to the polyline b.

    The nearest vertex of b, at distance d_v, bounds a point's distance from
    above.  A segment of length L can only come closer if one of its
    endpoints lies within d_v + L/2, so each point is tested against the
    segments touching the vertices in that ball (with L the longest short
    segment) plus, by brute force, the few long ones.  Points are taken in
    decreasing d_v, and once d_v cannot exceed the running maximum the rest
    are skipped (Taha & Hanbury, IEEE TPAMI 2015).  ``pad`` covers the
    rounding of the computed distances, so the same segments win as in a
    test of every segment and the result is the same float."""
    p, d = b[:-1], b[1:] - b[:-1]
    dd = np.maximum(np.sum(d * d, axis=1), 1e-300)
    m = len(p)
    by_length = np.argsort(dd)[::-1]
    length = np.sqrt(dd[by_length])
    # brute-forcing the k longest segments costs k tests per point, and the
    # ball then widens by about length[k] / spacing vertices: minimise the sum
    spacing = max(float(np.median(length)), np.finfo(float).tiny)
    k = int(np.argmin(np.arange(m) + length / spacing))
    long = by_length[:k]
    reach = 0.5 * length[k] + pad
    tree = cKDTree(b)
    d_v = tree.query(a)[0]
    order = np.argsort(d_v)[::-1]
    worst = 0.0
    for start in range(0, len(order), _BLOCK):
        idx = order[start : start + _BLOCK]
        idx = idx[d_v[idx] + pad > worst]
        if idx.size == 0:
            break
        balls = tree.query_ball_point(a[idx], d_v[idx] + reach)
        vert = np.concatenate(balls).astype(np.intp)
        # the two segments touching each vertex: the one ending and the one starting there
        seg = np.column_stack([np.maximum(vert - 1, 0), np.minimum(vert, m - 1)]).ravel()
        counts = 2 * np.fromiter(map(len, balls), dtype=np.intp, count=len(balls))
        pts = np.repeat(a[idx], counts, axis=0)
        near = np.minimum.reduceat(_segment_distance(pts, p[seg], d[seg], dd[seg]), np.cumsum(counts) - counts)
        if k:
            near = np.minimum(near, np.min(_segment_distance(a[idx, None, :], p[long], d[long], dd[long]), axis=1))
        worst = max(worst, float(np.max(near)))
    return worst


def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric Hausdorff distance between the vertices of each polyline and
    the other polyline.  Exact: the same float as testing every vertex
    against every segment, but a KD-tree on the vertices prunes the segments
    each vertex is tested against (see ``_directed_pruned``)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) < 2 or len(b) < 2:
        raise ValueError("polylines need at least two points")
    # computed distances are off by a few ulps of the coordinate scale
    pad = 1e-12 * (1.0 + max(np.max(np.abs(a)), np.max(np.abs(b))))
    return max(_directed_pruned(a, b, pad), _directed_pruned(b, a, pad))


def run_analysis(spec: RelaxationSpec, n_loop: int = 4096, gamma_points: int = 2048) -> LoopResult:
    """Census of periodic solutions plus the hysteresis loop of the top
    attractive one: its (forcing, state) polygon, area, and Hausdorff
    distance to the singular curve.  Raises RuntimeError when the integrated
    loop misses its start by more than CLOSURE_TOL."""
    ode = dynamics.OdeSpec(spec.c, 0.0, spec.signal())
    sols = tuple(dynamics.find_periodic_solutions(ode, spec.period))
    n = len(sols)
    if n == 3 and all(s.kind != "non-hyperbolic" for s in sols):
        regime = "bistable"
    elif n == 1 and sols[0].kind == "attractive":
        regime = "relaxation"
    else:
        regime = "boundary"
    top = max((s for s in sols if s.kind == "attractive"), key=lambda s: s.fixed_point)
    traj = dynamics.integrate(ode, 0.0, top.fixed_point, spec.period, n_samples=n_loop + 1)
    closure_gap = float(abs(traj.values[-1] - traj.values[0]))
    if closure_gap > CLOSURE_TOL:
        raise RuntimeError(
            f"loop does not close: |x(T) - x(0)| = {closure_gap:.3g} > {CLOSURE_TOL:g}"
        )
    loop = np.column_stack([y_eps(spec, traj.times), traj.values])
    loop[-1] = loop[0]  # close the polygon; the gap is reported, not hidden
    gamma = gamma_curve(spec.c, gamma_points)
    return LoopResult(
        loop=loop,
        area=loop_area(loop),
        hausdorff_to_gamma=hausdorff_distance(loop, gamma.polyline),
        n_fixed_points=n,
        regime=regime,
        solutions=sols,
        closure_gap=closure_gap,
    )


def _census_count(c: float, eps: float, r: float) -> int:
    """Count-only regime probe: crossings of the period map on a grid of 512
    seeds.  The count is odd: y >= lam1 - eps^r >= 0 (``RelaxationSpec``),
    so the displacement is positive at the floor 0 of the scan interval, and
    it is negative at the ceiling.  A count of 5 or more is left to
    ``r_threshold``, which rejects it as ambiguous."""
    spec = RelaxationSpec(c, eps, r)
    return len(dynamics._brackets(dynamics.OdeSpec(c, 0.0, spec.signal()), spec.period, 512))


def r_threshold(
    c: float, eps: float, tol: float = 1e-4, r_lo: float = 0.5, r_hi: float = 2.0
) -> ThresholdResult:
    """Bisect the exponent r on the regime predicate (3 vs 1 periodic
    solutions) until the bracket is below tol; reports which regime was
    observed on each side rather than asserting it a priori."""
    def bistable(r: float) -> bool:
        n = _census_count(c, eps, r)
        if n not in (1, 3):
            raise RuntimeError(f"ambiguous census ({n} crossings) at r = {r:.6g}")
        return n == 3

    lo_b, hi_b = bistable(r_lo), bistable(r_hi)
    if lo_b == hi_b:
        raise RuntimeError(
            f"bracket [{r_lo}, {r_hi}] does not straddle the regime change at c={c}, eps={eps}"
        )
    lo, hi = r_lo, r_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if bistable(mid) == hi_b:
            hi = mid
        else:
            lo = mid
    regime = {True: "bistable", False: "relaxation"}
    return ThresholdResult(
        r=0.5 * (lo + hi),
        tol=tol,
        regime_below=regime[lo_b],
        regime_above=regime[hi_b],
    )


def power_law_fit(eps_values, deviations) -> tuple[float, float]:
    """Fit deviation = C * eps^s by least squares in log-log coordinates;
    returns (C, s).  No reference values are asserted for the constants."""
    eps_values = np.asarray(eps_values, dtype=float)
    deviations = np.asarray(deviations, dtype=float)
    if np.any(eps_values <= 0.0) or np.any(deviations <= 0.0):
        raise ValueError("power_law_fit needs positive eps values and deviations")
    s, logc = np.polyfit(np.log(eps_values), np.log(deviations), 1)
    return float(math.exp(logc)), float(s)
