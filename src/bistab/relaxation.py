"""Slow sinusoidal forcing experiments: regime dichotomy, hysteresis loops,
and the exponent threshold separating bistability from relaxation
oscillations.

The forcing is y(t) = alpha + (beta + eps^r) sin(eps t), whose range barely
overhangs the saddle-node values [lam1, lam2] by eps^r on both sides.  For
slow forcing the (input, state) loop of the attractive periodic solution
tracks the singular curve Gamma: the stable autonomous branches between lam1
and lam2 joined by vertical jumps at the two saddle-nodes.

Every census reads the crossings of a certified grid
(``dynamics._certified_crossings``), here a coarse scan on COUNT_SEEDS
seeds rather than the full census's CENSUS_SEEDS: the increasing period
map clears its cells, and only where it cannot, in a grid that shows fewer
than three crossings, is a cell cut finer.  The threshold counts them
(``_census_count``) and ``run_analysis`` refines them (``_census``), so the
sweep and the threshold share one count.  At eps 0.02 to 0.05 every
multiplier lies beyond e^-29 or e^19, so one map solve from anywhere in a
coarse cell lands on the fixed point.  A crossing cell is not cut: three
fixed points in one read as one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np
from scipy.optimize import brentq  # noqa: F401  perfbench/tracing.py wraps relaxation.brentq by name
from scipy.spatial import cKDTree

from . import dynamics
from .model import diagnostics, g_eval, gbar_deriv2, require_c_above_4, x1
from .signals import TrigSum

TWO_PI = 2.0 * math.pi
CLOSURE_TOL = 1e-6  # largest |x(T) - x(0)| run_analysis accepts for the loop of a fixed point
_BLOCK = 256  # points per vectorised pass of the pruned Hausdorff search
# r_threshold starts within max(R_HALF_WIDTH_TOLS * tol, R_HALF_WIDTH_EPS * eps)
# of r_star_estimate.  The estimate overshoots the census threshold by
# 0.0004-0.0055, about eps/9, at c = 5 and eps in [0.01, 0.05], and by less
# at c = 8 and 12; near c = 4 it overshoots more and the bracket widens.
# A bracket of 15 tol ends within tol after two quarterings; one of exactly
# 16 tol would need a third whenever its width rounds above tol.
R_HALF_WIDTH_TOLS = 7.5
R_HALF_WIDTH_EPS = 0.125
# seeds per r of the threshold census's first scan.  At c = 5 the period map
# clears every cell of it without a crossing, so a census is one solve; near
# c = 4 a bistable census's close pair can share a cell, which is cut finer
COUNT_SEEDS = 33


@dataclass(frozen=True)
class RelaxationSpec:
    c: float
    eps: float
    r: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.c, self.eps, self.r)):
            raise ValueError(f"RelaxationSpec requires finite c, eps and r, got {self}")
        require_c_above_4(self.c, "RelaxationSpec")
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
    censuses: int  # r values censused, the widening of the bracket included
    solves: int  # family solves that censused them: each census's scan and its refinement rounds


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
    (lam2 -> lam1); n_points each (an integer >= 2), then the closing point."""
    require_c_above_4(c, "gamma_curve")
    if isinstance(n_points, bool) or not isinstance(n_points, Integral) or n_points < 2:
        raise ValueError(f"gamma_curve needs an integer n_points >= 2, got {n_points!r}")
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


def _census(ode: dynamics.OdeSpec, T: float) -> tuple[dynamics.PeriodicSolution, ...]:
    """The T-periodic solutions of a slowly forced equation: the crossings
    of its certified grid, the one ``_census_count`` counts on, each refined
    to its fixed point (``dynamics._solutions``)."""
    (crossings,), _ = dynamics._certified_crossings([ode], T, COUNT_SEEDS)
    return tuple(dynamics._solutions(ode, T, crossings))


def run_analysis(spec: RelaxationSpec, n_loop: int = 4096, gamma_points: int = 2048) -> LoopResult:
    """Census of periodic solutions plus the hysteresis loop of the top
    attractive one: its (forcing, state) polygon, area, and Hausdorff
    distance to the singular curve, its n_loop + 1 samples (n_loop an
    integer >= 1, checked with gamma_points before the census).  Raises
    RuntimeError when the loop misses its start by more than CLOSURE_TOL."""
    if isinstance(n_loop, bool) or not isinstance(n_loop, Integral) or n_loop < 1:
        raise ValueError(f"run_analysis needs an integer n_loop >= 1, got {n_loop!r}")
    gamma = gamma_curve(spec.c, gamma_points)
    ode = dynamics.OdeSpec(spec.c, 0.0, spec.signal())
    sols = _census(ode, spec.period)
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
    return LoopResult(
        loop=loop,
        area=loop_area(loop),
        hausdorff_to_gamma=hausdorff_distance(loop, gamma.polyline),
        n_fixed_points=n,
        regime=regime,
        solutions=sols,
        closure_gap=closure_gap,
    )


def _census_count(c: float, eps: float, rs) -> tuple[list[int], int]:
    """(counts, solves): count-only regime probe at each exponent of rs.
    Each count is the crossings of the period map on a certified grid
    (``dynamics._certified_crossings``): COUNT_SEEDS seeds per r, every r's
    grid from one family scan, and only the cells that the monotone period
    map does not clear cut finer, all r's together in one family solve per
    round.  ``solves`` is the family solves made, the scan's and every
    round's.  The r share the period 2 pi / eps, c and the shape of the
    forcing; only its amplitude beta + eps^r differs.  Each count is odd:
    y >= lam1 - eps^r > 4 > ``dynamics.MU`` (lam1 > 3 sqrt3 for c > 4), so
    the floor of the scan interval, the lowest of ``model.equilibria`` at
    the positive drive inf y - MU, is not clipped at 0, and x' >= MU there
    for every t: the displacement is positive at the floor, and negative at
    the ceiling, where x' <= -MU.  A count of 5 or more is left to
    ``r_threshold``, which rejects it as ambiguous."""
    specs = [RelaxationSpec(c, eps, r) for r in rs]
    family = [dynamics.OdeSpec(c, 0.0, spec.signal()) for spec in specs]
    crossings, solves = dynamics._certified_crossings(family, specs[0].period, COUNT_SEEDS)
    return [xa.size for xa, *_ in crossings], solves


def r_star_estimate(c: float, eps: float) -> float:
    """Slow-passage estimate of the threshold exponent r*(eps).

    Near the fold x1, where y rises through lam2, the equation is a Riccati
    equation, and a solution on the lower branch jumps iff the overhang
    exceeds eps * sqrt(A / k), with A = beta + eps^r the forcing amplitude
    and k = |gbar''(x1)| (Haberman, SIAM J. Appl. Math. 37 (1979) 69-106).
    So u = eps^r is the positive root of u^2 = (eps^2 / k) (beta + u), and
    the estimate is ln u / ln eps.  It is asymptotic in eps, and lies above
    the census threshold (by 0.0004-0.0055 at c = 5, eps in [0.01, 0.05])."""
    require_c_above_4(c, "r_star_estimate")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    a = eps * eps / abs(gbar_deriv2(c, x1(c)))
    u = 0.5 * (a + math.sqrt(a * a + 4.0 * a * diagnostics(c).beta))
    return math.log(u) / math.log(eps)


def r_threshold(
    c: float, eps: float, tol: float = 1e-4, r_lo: float = 0.5, r_hi: float = 2.0
) -> ThresholdResult:
    """Quadrisect the exponent r on the regime predicate (3 vs 1 periodic
    solutions) until the bracket is below tol; reports which regime was
    observed on each side rather than asserting it a priori.

    The bracket starts at ``r_star_estimate`` +- max(R_HALF_WIDTH_TOLS * tol,
    R_HALF_WIDTH_EPS * eps), clipped into [r_lo, r_hi].  Each round is one
    family census (``_census_count``) on a grid of five r, one solve unless
    its certificate cuts cells finer; ``solves`` counts every family solve
    the censuses made.  The first round takes the bracket's two ends and
    its three quarter points, a later one the three quarter points of the
    quarter where the regime flipped.  While
    both ends show one regime the half-width grows eightfold; [r_lo, r_hi]
    is the widest bracket, and RuntimeError is raised when even it does not
    straddle, or when a grid's regimes flip more than once.  Requires a
    finite tol > 0 and finite r_lo < r_hi; a tol below the float spacing of
    r near the threshold raises ValueError, naming the bracket reached, once
    its quarter points round onto its ends."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"r_threshold requires a finite tol > 0, got tol = {tol}")
    if not (math.isfinite(r_lo) and math.isfinite(r_hi) and r_lo < r_hi):
        raise ValueError(f"r_threshold requires finite r_lo < r_hi, got [{r_lo}, {r_hi}]")
    # a bad c or eps raises here; eps^r falls with r, so the spec at r_lo
    # holds the forcing's floor for the whole bracket
    RelaxationSpec(c, eps, r_lo)
    seen, solves = {}, 0

    def bistable(grid: list[float]) -> list[bool]:
        # whether each r of the grid is bistable, the r not seen yet censused in one solve
        nonlocal solves
        new = [r for r in grid if r not in seen]
        if new:
            counts, made = _census_count(c, eps, new)
            solves += made
            for r, n in zip(new, counts):
                if n not in (1, 3):
                    raise RuntimeError(f"ambiguous census ({n} crossings) at r = {r:.6g}")
                seen[r] = n == 3
        regimes = [seen[r] for r in grid]
        if sum(a != b for a, b in zip(regimes, regimes[1:])) > 1:
            cells = ", ".join(f"{r:.6g} ({'bistable' if b else 'relaxation'})" for r, b in zip(grid, regimes))
            raise RuntimeError(f"census regimes flip more than once across r = {cells}")
        return regimes

    def quarters(lo: float, hi: float) -> list[float]:
        return [lo, lo + 0.25 * (hi - lo), lo + 0.5 * (hi - lo), lo + 0.75 * (hi - lo), hi]

    center = min(max(r_star_estimate(c, eps), r_lo), r_hi)
    w = max(R_HALF_WIDTH_TOLS * tol, R_HALF_WIDTH_EPS * eps)
    lo, hi = max(r_lo, center - w), min(r_hi, center + w)
    grid = quarters(lo, hi)
    while True:
        regimes = bistable(grid)
        if regimes[0] == regimes[-1]:  # no flip inside: widen eightfold
            if (lo, hi) == (r_lo, r_hi):
                raise RuntimeError(
                    f"bracket [{r_lo}, {r_hi}] does not straddle the regime change at c={c}, eps={eps}"
                )
            w *= 8.0
            lo, hi = max(r_lo, center - w), min(r_hi, center + w)
            grid = quarters(lo, hi)
            continue
        k = regimes.index(regimes[-1])  # the grid's one flip lies between k - 1 and k
        lo, hi = grid[k - 1], grid[k]
        if hi - lo <= tol:
            break
        grid = quarters(lo, hi)
        if not lo < grid[1] <= grid[3] < hi:
            raise ValueError(
                f"tol = {tol:g} is below the float spacing of r: the regime flips in "
                f"[{lo!r}, {hi!r}], whose quarter points are not new floats inside it"
            )
    regime = {True: "bistable", False: "relaxation"}
    return ThresholdResult(
        r=0.5 * (lo + hi),
        tol=tol,
        regime_below=regime[seen[lo]],
        regime_above=regime[seen[hi]],
        censuses=len(seen),
        solves=solves,
    )


def power_law_fit(eps_values, deviations) -> tuple[float, float]:
    """Fit deviation = C * eps^s by least squares in log-log coordinates;
    returns (C, s).  No reference values are asserted for the constants.
    ValueError unless the two are equally long, finite and positive, with
    at least two distinct eps values (fewer fix no slope)."""
    eps_values = np.asarray(eps_values, dtype=float)
    deviations = np.asarray(deviations, dtype=float)
    if eps_values.shape != deviations.shape:
        raise ValueError(f"power_law_fit got {eps_values.size} eps values and {deviations.size} deviations")
    if not np.all((0.0 < eps_values) & (eps_values < math.inf) & (0.0 < deviations) & (deviations < math.inf)):
        raise ValueError("power_law_fit needs finite positive eps values and deviations")
    if np.unique(eps_values).size < 2:
        raise ValueError(f"power_law_fit needs at least two distinct eps values, got {eps_values.tolist()}")
    s, logc = np.polyfit(np.log(eps_values), np.log(deviations), 1)
    return float(math.exp(logc)), float(s)
