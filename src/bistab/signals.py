"""Input signals y(t): representation, extremes, and Laplace-weighted extremes.

The weighted average of a signal is ``d * integral_0^inf exp(-d*s) y(r+s) ds``
(a convex combination of signal values, so it always lies between inf y and
sup y).  For trigonometric sums it is again a trigonometric sum; for sampled
signals it integrates exactly segment by segment; quadrature with an explicit
exponential tail truncation is kept as a reference.

Extremes are taken over time shifts r of y itself.  For periodic and
finite-trigonometric inputs this coincides with the extremes over the full
shift-closure of y; for more general almost-periodic inputs it is a
restriction (only finite truncations are representable here anyway).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Integral
from typing import Sequence, Union

import numpy as np
from scipy.integrate import quad

TWO_PI = 2.0 * math.pi
_GOLDEN_XTOL = 1e-10
_GRID_PER_PERIOD = 4096
_MAX_PEAKS = 8  # more near-extreme grid candidates than this: use the outer bound
_QUAD_TAIL_TOL = 1e-12
_MAX_LCM = 100_000  # larger common denominators of the frequency ratios count as incommensurate


def _require_finite(what: str, values) -> None:
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{what} must be finite")


def _require_bounded(what: str, a0: float, amplitudes) -> None:
    """ValueError unless the bound |a0| + sum |a_n| of y is a finite float:
    finite terms can still sum past the largest float."""
    if not math.isfinite(abs(a0) + sum(abs(a) for a in amplitudes)):
        raise ValueError(f"{what}: the bound |a0| + sum |a_n| of y overflows a float")


def _require_n_terms(where: str, n_terms) -> None:
    if isinstance(n_terms, bool) or not isinstance(n_terms, Integral):
        raise ValueError(f"{where} needs an integer n_terms, got {n_terms!r}")
    if n_terms < 2:
        raise ValueError(f"{where} needs n_terms >= 2")


def _require_dfrak(where: str, dfrak: float) -> None:
    if not (math.isfinite(dfrak) and dfrak > 0.0):
        raise ValueError(f"{where} requires a finite dfrak > 0, got {dfrak}")


@dataclass(frozen=True)
class Constant:
    a0: float

    def __post_init__(self):
        _require_finite("Constant a0", (self.a0,))


@dataclass(frozen=True)
class TrigSum:
    """a0 + sum_n a_n cos(theta_n t + phi_n); all theta_n > 0.

    rationally_independent is a caller-asserted flag (not decidable
    numerically); when set, the series-type extreme formulas are exact.
    """

    a0: float
    terms: tuple[tuple[float, float, float], ...]  # (amplitude, frequency, phase)
    rationally_independent: bool = False

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple((float(a), float(th), float(ph)) for a, th, ph in self.terms))
        _require_finite("TrigSum a0 and terms", (self.a0, *(v for term in self.terms for v in term)))
        if any(th <= 0.0 for _, th, _ in self.terms):
            raise ValueError("TrigSum frequencies must be strictly positive")
        _require_bounded("TrigSum", self.a0, (a for a, _, _ in self.terms))


@dataclass(frozen=True)
class FourierCesaro:
    """2*pi-periodic signal given by Fourier coefficients, evaluated as the
    N-th Cesaro mean (uniformly convergent for continuous y)."""

    a0: float
    a_coeffs: tuple[float, ...]
    b_coeffs: tuple[float, ...]
    n_terms: int

    def __post_init__(self):
        object.__setattr__(self, "a_coeffs", tuple(float(v) for v in self.a_coeffs))
        object.__setattr__(self, "b_coeffs", tuple(float(v) for v in self.b_coeffs))
        _require_finite("FourierCesaro a0 and coefficients", (self.a0, *self.a_coeffs, *self.b_coeffs))
        _require_n_terms("FourierCesaro", self.n_terms)
        _require_bounded("FourierCesaro", self.a0, (a for a, _, _ in _cesaro_terms(self)))


@dataclass(frozen=True)
class SampledPeriodic:
    """Periodic signal from samples on [0, T), evaluated by periodic linear
    interpolation (an approximation without exactness guarantees).  The
    interpolant has a kink at every node; ``dynamics`` ends a solver step at
    each one, so the period map stays smooth."""

    period: float
    times: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        _require_finite("SampledPeriodic period, times and values", (self.period, *self.times, *self.values))
        if self.period <= 0.0:
            raise ValueError("period must be positive")
        if len(self.times) < 4 or len(self.times) != len(self.values):
            raise ValueError("need at least 4 (t, value) samples")
        if any(t1 >= t2 for t1, t2 in zip(self.times, self.times[1:])):
            raise ValueError("sample times must be strictly increasing")
        if self.times[0] < 0.0 or self.times[-1] >= self.period:
            raise ValueError("sample times must lie in [0, period)")


SignalSpec = Union[Constant, TrigSum, FourierCesaro, SampledPeriodic]


@dataclass(frozen=True)
class SignalBounds:
    sup: float
    inf: float
    exact: bool


@dataclass(frozen=True)
class WeightedBounds:
    sup_w: float
    inf_w: float
    exact: bool


def _cesaro_terms(sig: FourierCesaro) -> tuple[tuple[float, float, float], ...]:
    """Cesaro-mean weights turn the Fourier coefficients into a finite
    cosine sum: b*sin(nt) = b*cos(nt - pi/2)."""
    n_max = min(sig.n_terms - 1, max(len(sig.a_coeffs), len(sig.b_coeffs)))
    terms = []
    for n in range(1, n_max + 1):
        w = (sig.n_terms - n) / sig.n_terms
        a = sig.a_coeffs[n - 1] if n <= len(sig.a_coeffs) else 0.0
        b = sig.b_coeffs[n - 1] if n <= len(sig.b_coeffs) else 0.0
        if a:
            terms.append((w * a, float(n), 0.0))
        if b:
            terms.append((w * b, float(n), -math.pi / 2.0))
    return tuple(terms)


def _as_trig(signal: SignalSpec) -> tuple[float, tuple[tuple[float, float, float], ...]] | None:
    """(a0, terms) for signals with an exact finite-cosine representation."""
    if isinstance(signal, Constant):
        return signal.a0, ()
    if isinstance(signal, TrigSum):
        return signal.a0, signal.terms
    if isinstance(signal, FourierCesaro):
        return signal.a0, _cesaro_terms(signal)
    return None


def _sampled_terms(signal: SampledPeriodic, m: int) -> tuple[float, tuple[tuple[float, float, float], ...]]:
    """(a0, terms): the exact mean of the interpolant and its first m
    harmonics as cosine terms, a truncated series.  y'' is a sum of deltas
    of the slope jumps at the nodes, so c_n = -sum_k jump_k e^(-i w_n t_k) / (T w_n^2)."""
    T, ts, vs = signal.period, np.asarray(signal.times), np.asarray(signal.values)
    dt, dv = np.diff(ts, append=ts[0] + T), np.roll(vs, -1) - vs
    w = TWO_PI / T * np.arange(1, m + 1)
    c = -np.exp(-1j * np.outer(w, ts)) @ (dv / dt - np.roll(dv / dt, 1)) / (T * w * w)
    a0 = float(np.sum((vs + 0.5 * dv) * dt) / T)
    return a0, tuple(zip((2.0 * np.abs(c)).tolist(), w.tolist(), np.angle(c).tolist()))


class _TrigEval:
    """a0 + sum a cos(th t + ph) over fixed terms.  A float t is summed term
    by term with math.cos in the array path's order, so both give the same
    float without the array overhead.  A family of them is stacked into one
    array expression by ``_TrigStack``, which sums each member's terms in
    this order too, so its entries are the floats of lam + this."""

    __slots__ = ("a0", "terms", "hi", "lo")

    def __init__(self, a0: float, terms: tuple[tuple[float, float, float], ...]):
        self.a0, self.terms = a0, terms
        total = sum(abs(a) for a, _, _ in terms)
        self.hi, self.lo = a0 + total, a0 - total  # bounds of y, exact for one term

    def kinks(self, t0: float, t1: float) -> tuple:
        """Times between t0 and t1 where y is not smooth: none."""
        return ()

    def __call__(self, t):
        if isinstance(t, float):
            out = self.a0
            for a, th, ph in self.terms:
                out = out + a * math.cos(th * t + ph)
            return float(out)
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, self.a0)
        for a, th, ph in self.terms:
            out = out + a * np.cos(th * t + ph)
        return out if out.ndim else float(out)


class _TrigStack:
    """The drives lam_k + y_k(t) of a family of cosine sums (``_TrigEval``)
    as one array, the k-th over a block of sizes[k] entries.  A float t
    costs one math.cos per distinct (th, ph) of the family; then each term
    slot adds its amplitudes times their cosines, in every member's term
    order.  A member's terms are padded to the longest list with
    -0.0 cos(0 t + 0), which adds -0.0 and so leaves any float as it is.
    Every entry then rounds as lam + _TrigEval(t) does."""

    __slots__ = ("pairs", "lam", "a0", "slots")

    def __init__(self, lams, evals, sizes):
        width = max(len(e.terms) for e in evals)
        rows = [e.terms + ((-0.0, 0.0, 0.0),) * (width - len(e.terms)) for e in evals]
        self.pairs = list(dict.fromkeys((th, ph) for row in rows for _, th, ph in row))
        index = {pair: i for i, pair in enumerate(self.pairs)}
        per_state = lambda values: np.repeat(np.asarray(values, dtype=float), sizes)
        self.lam, self.a0 = per_state(lams), per_state([e.a0 for e in evals])
        # a slot's pair is one index where every member has the same, else one per entry
        self.slots = []
        for j in range(width):
            pair = [index[row[j][1:]] for row in rows]
            pair = pair[0] if len(set(pair)) == 1 else np.repeat(pair, sizes)
            self.slots.append((per_state([row[j][0] for row in rows]), pair))

    def __call__(self, t: float) -> np.ndarray:
        cos = [math.cos(th * t + ph) for th, ph in self.pairs]
        acc = self.a0
        for amps, pair in self.slots:
            acc = acc + amps * (cos[pair] if isinstance(pair, int) else np.array(cos)[pair])
        return self.lam + acc


class _SampledEval:
    """Periodic linear interpolation through fixed nodes:
    ``np.interp(np.mod(t, period), ts, vs, period=period)``.  A Python-float
    t, as the solver passes, is interpolated in floats instead, since one
    np.interp call costs about 16 µs of fixed cost: a bisection over the
    extended node lists that np.interp(period=) builds, with its slope and
    rounding, so both give the same float.  The lists are built on the first
    float call; an evaluator compiled for one array call never needs them."""

    __slots__ = ("period", "ts", "vs", "hi", "lo", "_xp", "_fp")

    def __init__(self, signal: SampledPeriodic):
        self.period = signal.period
        self.ts = np.asarray(signal.times + (signal.times[0] + signal.period,))
        self.vs = np.asarray(signal.values + (signal.values[0],))
        # sup y and inf y: the interpolant peaks and bottoms out at a node
        self.hi, self.lo = max(signal.values), min(signal.values)
        self._xp = self._fp = None

    def kinks(self, t0: float, t1: float) -> np.ndarray:
        """The node times times[k] + m * period strictly between t0 and t1,
        in the order a solve from t0 to t1 meets them.  A node within
        1e-12 * period of t0 or t1 is left out: a piece that short changes
        nothing but costs a clipped step."""
        lo, hi = min(t0, t1), max(t0, t1)
        nodes = self.ts[:-1]
        shifts = np.arange(math.floor((lo - nodes[-1]) / self.period), math.ceil((hi - nodes[0]) / self.period) + 1)
        t = (nodes + self.period * shifts[:, None]).ravel()
        pad = 1e-12 * self.period
        t = t[(t > lo + pad) & (t < hi - pad)]
        return t if t1 >= t0 else t[::-1]

    def _extended_nodes(self) -> tuple[list, list]:
        """np.interp's nodes for period=: ts reduced modulo the period and
        sorted, with the last node one period earlier prepended and the
        first one period later appended (values to match)."""
        T = self.period
        xp = self.ts % T
        order = np.argsort(xp)
        xp, fp = xp[order], self.vs[order]
        xp = np.concatenate((xp[-1:] - T, xp, xp[:1] + T))
        fp = np.concatenate((fp[-1:], fp, fp[:1]))
        return xp.tolist(), fp.tolist()

    def __call__(self, t):
        if type(t) is not float:  # arrays, 0-d arrays and NumPy scalars
            out = np.interp(np.mod(t, self.period), self.ts, self.vs, period=self.period)
            return out if np.ndim(out) else float(out)
        if self._xp is None:
            self._xp, self._fp = self._extended_nodes()
        xp, fp = self._xp, self._fp
        x = t % self.period % self.period  # np.mod, then np.interp's own reduction
        if x != x:  # t not finite: nan, as from np.interp
            return x
        # np.interp's piece: the last node at or below x, then its value or slope * offset + value
        j = bisect_right(xp, x) - 1
        if xp[j] == x:
            return fp[j]
        return (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j]) * (x - xp[j]) + fp[j]


def compile_signal(signal: SignalSpec):
    """y as a callable of t alone.  Everything that does not depend on t (the
    Cesaro weights, the cosine terms, the interpolation nodes) is computed
    here, once, instead of on every evaluation."""
    trig = _as_trig(signal)
    if trig is not None:
        return _TrigEval(*trig)
    assert isinstance(signal, SampledPeriodic)
    return _SampledEval(signal)


def eval(signal: SignalSpec, t):
    """Value y(t); t may be a scalar or an array."""
    return compile_signal(signal)(t)


def fundamental_period(signal: SignalSpec) -> float | None:
    """Common period of the signal, or None (constant or incommensurate)."""
    if isinstance(signal, SampledPeriodic):
        return signal.period
    if isinstance(signal, FourierCesaro):
        return TWO_PI if _cesaro_terms(signal) else None
    terms = [(a, th) for a, th, _ in _as_trig(signal)[1] if a != 0.0]
    if not terms:
        return None
    th0 = terms[0][1]
    lcm = 1
    for _, th in terms:
        frac = Fraction(th / th0).limit_denominator(10_000)
        if abs(float(frac) - th / th0) > 1e-9 * max(1.0, th / th0):
            return None  # not commensurate at resolvable precision
        lcm = lcm * frac.denominator // math.gcd(lcm, frac.denominator)
        if lcm > _MAX_LCM:
            return None
    # T*th_n/(2 pi) integral for all n  <=>  T = (2 pi / th0) * lcm(q_n)
    return TWO_PI / th0 * lcm


def _golden_max(f, lo: float, hi: float, xtol: float) -> tuple[float, float]:
    """Golden-section maximization on [lo, hi]."""
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - inv * (b - a)
    x2 = a + inv * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > xtol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv * (b - a)
            f1 = f(x1)
    xm = (a + b) / 2.0
    return xm, f(xm)


def _scan_extremes(
    f_vec, f_scalar, window: float, n: int, xtol: float, curvature: float, outer: tuple[float, float]
) -> tuple[float, float]:
    """(sup, inf) of a periodic f from a grid scan of one period [0, window).

    With |f''| <= curvature, the grid comes within pad = curvature h^2 / 8 of
    each extreme (h the spacing), so every grid local extreme within pad of
    the grid's extreme is golden-refined and the best is kept; a run of
    equal values is one extreme, at its last point.  A side with more than
    _MAX_PEAKS candidates takes its end of ``outer``, an outer bound
    (sup, inf) of f, instead.  A grid that is flat to rounding (terms that
    cancel) is one value, sup = inf."""
    r = np.linspace(0.0, window, n, endpoint=False)
    v = f_vec(r)
    h = window / n
    pad = curvature * h * h / 8.0
    vmax, vmin = v.max(), v.min()
    if vmax - vmin <= 64.0 * np.finfo(float).eps * max(abs(b) for b in outer):
        return float(v[0]), float(v[0])
    out = []
    for sign, near, bound in ((1.0, v >= vmax - pad, outer[0]), (-1.0, v <= vmin + pad, outer[1])):
        # the grid's local extremes among the few points near its extreme (v[-1] precedes v[0])
        tops = [k for k in np.flatnonzero(near).tolist() if sign * v[k - 1] <= sign * v[k] > sign * v[(k + 1) % n]]
        if len(tops) > _MAX_PEAKS:
            out.append(bound)
            continue
        # Python-float ends keep the search's arithmetic off numpy scalars (same values, faster)
        ends = [(float(r[k]) - h, float(r[k]) + h) for k in tops]
        best = max(_golden_max(lambda x: sign * f_scalar(x), lo, hi, xtol)[1] for lo, hi in ends)
        out.append(float(sign * best))
    return out[0], out[1]


def _laplace_trig(signal: SignalSpec, d: float) -> TrigSum:
    """The weighted average of a trigonometric signal as a trigonometric sum:
    each harmonic a cos(th t + ph) becomes
    a d/sqrt(d^2 + th^2) cos(th t + ph + atan(th/d)), with the same frequencies
    (so the same period and the same independence flag)."""
    a0, terms = _as_trig(signal)
    damped = tuple((a * d / math.hypot(d, th), th, ph + math.atan2(th, d)) for a, th, ph in terms)
    return TrigSum(a0, damped, isinstance(signal, TrigSum) and signal.rationally_independent)


def _trig_bounds(signal: SignalSpec) -> SignalBounds:
    """sup and inf of a trigonometric signal: the term-wise sums a0 +- sum |a|,
    exact for at most one nonzero term or a sum flagged rationally
    independent, and an outer bound (not exact) for an unflagged sum of
    incommensurate frequencies, which no finite window scans to its range;
    a commensurate sum is scanned over one common period, with sum |a| th^2
    bounding |y''| and the term-wise sums as the outer bound."""
    a0, terms = _as_trig(signal)
    terms = tuple(t for t in terms if t[0] != 0.0)
    exact = len(terms) <= 1 or (isinstance(signal, TrigSum) and signal.rationally_independent)
    period = None if exact else fundamental_period(signal)
    total = sum(abs(a) for a, _, _ in terms)
    if period is None:
        return SignalBounds(a0 + total, a0 - total, exact)
    y = compile_signal(signal)
    curvature = sum(abs(a) * th * th for a, th, _ in terms)
    sup, inf = _scan_extremes(
        y, lambda r: y(float(r)), period, _GRID_PER_PERIOD, _GOLDEN_XTOL, curvature, (a0 + total, a0 - total)
    )
    return SignalBounds(sup, inf, False)


def bounds(signal: SignalSpec) -> SignalBounds:
    """sup and inf of y over all time."""
    if isinstance(signal, SampledPeriodic):
        # linear interpolant attains extremes at sample nodes
        return SignalBounds(max(signal.values), min(signal.values), False)
    return _trig_bounds(signal)


def weighted_average(signal: SignalSpec, dfrak: float, r: float) -> float:
    """d * integral_0^inf exp(-d s) y(r+s) ds.

    For a trigonometric signal the closed form is the same sum with every
    harmonic damped by d/sqrt(d^2 + th^2) and phase-advanced by atan(th/d);
    for a sampled one each linear segment integrates exactly.  ValueError
    unless dfrak is finite and positive and r is finite.
    """
    _require_dfrak("weighted_average", dfrak)
    r = float(r)
    if not math.isfinite(r):
        raise ValueError(f"weighted_average requires a finite r, got {r}")
    if isinstance(signal, SampledPeriodic):
        return _weighted_sampled_exact(signal, dfrak, r)
    return compile_signal(_laplace_trig(signal, dfrak))(r)


def _weighted_quad(signal: SignalSpec, d: float, r: float) -> float:
    """The weighted average by adaptive quadrature of its definition,
    truncated where the weight's tail is below _QUAD_TAIL_TOL: the
    reference the closed forms are tested against."""
    integrand = lambda s: d * math.exp(-d * s) * eval(signal, r + s)
    b = bounds(signal)
    scale = max(abs(b.sup), abs(b.inf), 1.0)
    s_max = math.log(scale / _QUAD_TAIL_TOL) / d
    val, _ = quad(integrand, 0.0, s_max, limit=1000, epsabs=1e-10, epsrel=1e-10)
    return float(val)


def _weighted_sampled_exact(signal: SampledPeriodic, d: float, r: float) -> float:
    """Exact weighted average of the piecewise-linear interpolant: the tail is
    a geometric series over periods, and each linear segment integrates in
    closed form against the exponential weight."""
    T = signal.period
    # segment breakpoints of s in [0, T] where r + s crosses a sample node
    nodes = np.sort(np.unique(np.concatenate([(np.asarray(signal.times) - r) % T, [0.0, T]])))
    s0, s1 = nodes[:-1], nodes[1:]
    ys = np.asarray(eval(signal, r + nodes))  # each segment ends where the next starts
    y0 = ys[:-1]
    slope = (ys[1:] - y0) / np.maximum(s1 - s0, 1e-300)
    delta = s1 - s0
    e0 = np.exp(-d * s0)
    # int_0^delta e^{-d u} du and int_0^delta u e^{-d u} du, scaled by e^{-d s0}
    i_const = e0 * (1.0 - np.exp(-d * delta)) / d
    i_lin = e0 * (1.0 - np.exp(-d * delta) * (1.0 + d * delta)) / (d * d)
    total = float(np.sum(y0 * i_const + slope * i_lin))
    return d * total / (1.0 - math.exp(-d * T))


def weighted_bounds(signal: SignalSpec, dfrak: float) -> WeightedBounds:
    """Extremes over r of the Laplace-weighted average.  The weighted average
    of a trigonometric signal is itself a trigonometric sum, so its extremes
    follow the same exact-or-scan rule as ``bounds``; a sampled signal is
    scanned over one period."""
    _require_dfrak("weighted_bounds", dfrak)
    if isinstance(signal, SampledPeriodic):
        # one exact weighted average per point, so a coarser grid and tolerance;
        # no curvature pad, so the grid's extreme alone is refined.  W is a
        # convex combination of values of y, so the range of y is its outer bound.
        f = lambda r: weighted_average(signal, dfrak, float(r))
        f_vec = lambda rs: np.array([f(r) for r in rs])
        outer = (max(signal.values), min(signal.values))
        sup_w, inf_w = _scan_extremes(f_vec, f, signal.period, 256, 1e-8, 0.0, outer)
        return WeightedBounds(sup_w, inf_w, False)
    w = _trig_bounds(_laplace_trig(signal, dfrak))
    return WeightedBounds(w.sup, w.inf, w.exact)


def series_bound(terms: Sequence[tuple[float, float]], dfrak: float) -> float:
    """sum |a_n| (1 + d/sqrt(d^2 + theta_n^2)) over (amplitude, frequency)
    terms; equals the true weighted variation for rationally independent
    frequencies."""
    _require_dfrak("series_bound", dfrak)
    return float(sum(abs(a) * (1.0 + dfrak / math.hypot(dfrak, th)) for a, th in terms))


def cesaro_bound(a_coeffs: Sequence[float], b_coeffs: Sequence[float], dfrak: float, n_terms: int) -> float:
    """N-th Cesaro bound (1/N) sum_{n=1}^{N-1} (N-n)(|a_n|+|b_n|)(1 + d/sqrt(d^2+n^2)):
    the series bound of the Cesaro-weighted cosine terms."""
    _require_dfrak("cesaro_bound", dfrak)
    _require_n_terms("cesaro_bound", n_terms)
    terms = _cesaro_terms(FourierCesaro(0.0, tuple(a_coeffs), tuple(b_coeffs), n_terms))
    return series_bound([(a, th) for a, th, _ in terms], dfrak)


def signal_to_json(signal: SignalSpec) -> dict:
    """JSON-serializable description (frequencies in rad per unit time)."""
    if isinstance(signal, Constant):
        return {"type": "constant", "a0": signal.a0}
    if isinstance(signal, TrigSum):
        return {
            "type": "trig",
            "a0": signal.a0,
            "terms": [list(t) for t in signal.terms],
            "rationally_independent": signal.rationally_independent,
        }
    if isinstance(signal, FourierCesaro):
        return {
            "type": "fourier_cesaro",
            "a0": signal.a0,
            "a": list(signal.a_coeffs),
            "b": list(signal.b_coeffs),
            "n_terms": signal.n_terms,
        }
    assert isinstance(signal, SampledPeriodic)
    return {
        "type": "sampled",
        "period": signal.period,
        "samples": [[t, v] for t, v in zip(signal.times, signal.values)],
    }


# the keys each signal type accepts; the parser gives the optional ones a default
_JSON_KEYS = {
    "constant": {"type", "a0"},
    "trig": {"type", "a0", "terms", "rationally_independent"},
    "fourier_cesaro": {"type", "a0", "a", "b", "n_terms"},
    "sampled": {"type", "period", "samples"},
}


def _json_number(what: str, value) -> float:
    """A JSON number as a float.  A string, a bool (JSON true/false) or any
    other type is rejected rather than coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{what} must be finite") from None


def _json_numbers(what: str, value, width: int = 0) -> tuple:
    """A JSON list of numbers, or (width > 0) of lists of width numbers."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {value!r}")
    if not width:
        return tuple(_json_number(what, v) for v in value)
    if any(not isinstance(row, list) or len(row) != width for row in value):
        raise ValueError(f"{what} must be a list of {width}-element lists, got {value!r}")
    return tuple(tuple(_json_number(what, v) for v in row) for row in value)


def signal_from_json(data: dict) -> SignalSpec:
    """Inverse of signal_to_json; raises ValueError on unknown/invalid input:
    a key that is not one of its type's fields, a missing field, or a value
    of the wrong JSON type (a string or bool for a number, anything but a
    bool for the independence flag, a non-integral n_terms)."""
    if not isinstance(data, dict):
        raise ValueError(f"a signal document must be a JSON object, got {type(data).__name__}")
    kind = data.get("type")
    if not isinstance(kind, str) or kind not in _JSON_KEYS:
        raise ValueError(f"unknown signal type: {kind!r}")
    unknown = sorted(set(data) - _JSON_KEYS[kind])
    if unknown:
        raise ValueError(f"unknown keys for a {kind!r} signal: {unknown}; allowed: {sorted(_JSON_KEYS[kind])}")
    if kind == "constant":
        return Constant(_json_number("a0", data.get("a0")))
    if kind == "trig":
        independent = data.get("rationally_independent", False)
        if not isinstance(independent, bool):
            raise ValueError(f"rationally_independent must be true or false, got {independent!r}")
        return TrigSum(_json_number("a0", data.get("a0", 0.0)), _json_numbers("terms", data.get("terms"), 3), independent)
    if kind == "fourier_cesaro":
        n_terms = data.get("n_terms")
        if not _json_number("n_terms", n_terms).is_integer():
            raise ValueError(f"n_terms must be an integer, got {n_terms!r}")
        return FourierCesaro(
            _json_number("a0", data.get("a0", 0.0)),
            _json_numbers("a", data.get("a", [])),
            _json_numbers("b", data.get("b", [])),
            int(n_terms),
        )
    samples = sorted(_json_numbers("samples", data.get("samples"), 2))
    return SampledPeriodic(
        _json_number("period", data.get("period")),
        tuple(t for t, _ in samples),
        tuple(v for _, v in samples),
    )
