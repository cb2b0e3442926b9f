"""Closed-form nonlinearity, extensions, derivatives and scalar diagnostics.

The autonomous right-hand side is ``g(x) = -x - 2*c*x/(1+x**2)`` for a
material constant ``c > 0``.  ``gbar`` extends it to ``x < 0`` by the cubic
``-(1+2c)x - x**3`` (C^2 matching at 0 is exact by construction).  ``mg`` is
the recentered nonlinearity obtained by shifting the inflection point
``sqrt(3)`` to the origin and removing the linear part ``dfrak*z``.

All functions are pure, and all but ``equilibria`` (the real roots of
lam + gbar(x) = 0 for a scalar lam) accept scalars or numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

SQRT3 = math.sqrt(3.0)
BAND_LO = math.sqrt(3.0 - 2.0 * math.sqrt(2.0))
BAND_HI = math.sqrt(3.0 + 2.0 * math.sqrt(2.0))
C_BAND_MAX = 2.0 + 2.0 * math.sqrt(2.0)  # upper end of the c-range for band results


class DomainError(ValueError):
    """Requested quantity is undefined for the given parameter range."""


def g_eval(c, x):
    """Value of the nonlinearity g(x) = -x - 2*c*x/(1+x^2)."""
    x = np.asarray(x, dtype=float)
    out = -x - 2.0 * c * x / (1.0 + x * x)
    return out if out.ndim else float(out)


def g_derivs(c, x):
    """First three derivatives (g', g'', g''') of g at x."""
    x = np.asarray(x, dtype=float)
    q = 1.0 + x * x
    d1 = (-1.0 - 2.0 * c + 2.0 * (c - 1.0) * x * x - x ** 4) / q ** 2
    d2 = -4.0 * c * x * (x * x - 3.0) / q ** 3
    d3 = 12.0 * c * (x * x - 3.0 - 2.0 * math.sqrt(2.0)) * (x * x - 3.0 + 2.0 * math.sqrt(2.0)) / q ** 4
    if d1.ndim:
        return d1, d2, d3
    return float(d1), float(d2), float(d3)


def gbar_eval(c, x):
    """C^2 extension of g: equals g for x >= 0, -(1+2c)x - x^3 for x < 0.

    The cubic is evaluated only on the entries where x < 0; scans and the
    full flow stay at x >= 0.  It is written as products, without pow, whose
    NumPy and libm forms round differently in the last bit for some inputs,
    so a scalar, an array entry and the solver's float kernel all get the
    same float."""
    x = np.asarray(x, dtype=float)
    xs = np.atleast_1d(x)
    out = -xs - 2.0 * c * xs / (1.0 + xs * xs)
    neg = xs < 0.0
    if neg.any():
        xn = xs[neg]
        out[neg] = -(1.0 + 2.0 * c) * xn - xn * xn * xn
    return out.reshape(x.shape) if x.ndim else float(out[0])


def gbar_deriv(c, x):
    """First derivative of gbar (the shared analytic value -(1+2c) at 0).
    Both branches are written without pow, so a scalar and an array entry
    get the same float."""
    x = np.asarray(x, dtype=float)
    q = 1.0 + x * x
    out = np.where(
        x >= 0.0,
        (-1.0 - 2.0 * c + 2.0 * (c - 1.0) * x * x - (x * x) * (x * x)) / (q * q),
        -(1.0 + 2.0 * c) - 3.0 * x * x,
    )
    return out if out.ndim else float(out)


def gbar_deriv2(c, x):
    """Second derivative of gbar."""
    x = np.asarray(x, dtype=float)
    q = 1.0 + x * x
    out = np.where(x >= 0.0, -4.0 * c * x * (x * x - 3.0) / q ** 3, -6.0 * x)
    return out if out.ndim else float(out)


def dfrak(c) -> float:
    """Slope c/4 - 1 of the linear part of the recentered equation."""
    return c / 4.0 - 1.0


def cshift(c) -> float:
    """The constant sqrt(3)*(c+2)/2 = -gbar(sqrt(3))."""
    return SQRT3 * (c + 2.0) / 2.0


def require_c_above_4(c, what: str) -> None:
    """The domain of every supercritical quantity: a finite c > 4."""
    if not (math.isfinite(c) and c > 4.0):
        raise DomainError(f"{what} requires c > 4, got c = {c}")


def require_finite_drive(lam, inf_y, sup_y) -> None:
    """The domain of every analysis of a drive lam + y(t) with inf y <= y <=
    sup y: both extreme drives finite floats, so no equilibrium or slack of
    them is formed from an overflow.  ValueError naming the drive otherwise."""
    for bound, y in (("inf", inf_y), ("sup", sup_y)):
        if not math.isfinite(lam + y):
            raise ValueError(f"the drive lambda + {bound} y = {lam!r} + {y!r} overflows a float")


def mg_eval(c, z):
    """Recentered nonlinearity mg(z) = gbar(z+sqrt3) + sqrt3*(c+2)/2 - dfrak*z."""
    require_c_above_4(c, "mg_eval")
    z = np.asarray(z, dtype=float)
    out = gbar_eval(c, z + SQRT3) + cshift(c) - dfrak(c) * z
    return out if np.ndim(out) else float(out)


def _mg_half(c, z, concave: bool, what: str):
    """mg on the half z >= 0 (concave) or z <= 0, and 0 on the other, in
    one pass: the state is clipped to the half, shifted by sqrt3 and put
    through gbar, and the linear part comes off in place.  Every entry is
    the float of the plain np.where form."""
    require_c_above_4(c, what)
    z = np.asarray(z, dtype=float)
    zs = np.atleast_1d(z)
    clipped = np.maximum(zs, 0.0) if concave else np.minimum(zs, 0.0)
    out = gbar_eval(c, clipped + SQRT3)
    out += cshift(c)
    out -= dfrak(c) * clipped
    np.copyto(out, 0.0, where=~(zs >= 0.0 if concave else zs <= 0.0))
    return out.reshape(z.shape) if z.ndim else float(out[0])


def mg_minus(c, z):
    """Concave half of mg: equals mg on z >= 0, vanishes on z < 0."""
    return _mg_half(c, z, True, "mg_minus")


def mg_plus(c, z):
    """Convex half of mg: equals mg on z <= 0, vanishes on z > 0."""
    return _mg_half(c, z, False, "mg_plus")


def mg_minus_deriv(c, z):
    """Derivative of mg_minus (gbar'(z+sqrt3) - dfrak on z >= 0, else 0)."""
    require_c_above_4(c, "mg_minus_deriv")
    z = np.asarray(z, dtype=float)
    out = np.where(z >= 0.0, gbar_deriv(c, z + SQRT3) - dfrak(c), 0.0)
    return out if out.ndim else float(out)


def mg_plus_deriv(c, z):
    """Derivative of mg_plus (gbar'(z+sqrt3) - dfrak on z <= 0, else 0)."""
    require_c_above_4(c, "mg_plus_deriv")
    z = np.asarray(z, dtype=float)
    out = np.where(z <= 0.0, gbar_deriv(c, z + SQRT3) - dfrak(c), 0.0)
    return out if out.ndim else float(out)


def x1(c) -> float:
    """Lower critical point of gbar, sqrt(c - 1 - sqrt(c*(c-4)))."""
    if c < 4.0:
        raise DomainError(f"x1 requires c >= 4, got c = {c}")
    return math.sqrt(c - 1.0 - math.sqrt(c * (c - 4.0)))


def x2(c) -> float:
    """Upper critical point of gbar, sqrt(c - 1 + sqrt(c*(c-4)))."""
    if c < 4.0:
        raise DomainError(f"x2 requires c >= 4, got c = {c}")
    return math.sqrt(c - 1.0 + math.sqrt(c * (c - 4.0)))


def lam1(c) -> float:
    """Saddle-node value -gbar(x2(c))."""
    if c < 4.0:
        raise DomainError(f"lam1 requires c >= 4, got c = {c}")
    return math.sqrt((c * c + 10.0 * c - 2.0 - math.sqrt(c * (c - 4.0) ** 3)) / 2.0)


def lam2(c) -> float:
    """Saddle-node value -gbar(x1(c))."""
    if c < 4.0:
        raise DomainError(f"lam2 requires c >= 4, got c = {c}")
    return math.sqrt((c * c + 10.0 * c - 2.0 + math.sqrt(c * (c - 4.0) ** 3)) / 2.0)


def equilibria(c, lam) -> list[float]:
    """The real roots of lam + gbar(x) = 0 in ascending order, a double root
    listed once.  For lam >= 0 they are the roots of the cubic
    x^3 - lam x^2 + (1+2c) x - lam (lam = -g(x) cleared of its
    denominator), all nonnegative; for lam < 0 the one real root of the
    cubic branch, x^3 + (1+2c) x - lam.  A root counts as real when its
    imaginary part is below 1e-6 (a saddle-node double root splits into a
    conjugate pair about 1e-8 off the axis), and roots closer than 1e-6 are
    one."""
    coeffs = [1.0, -lam, 1.0 + 2.0 * c, -lam] if lam >= 0.0 else [1.0, 0.0, 1.0 + 2.0 * c, -lam]
    xs = sorted(float(z.real) for z in np.roots(coeffs) if abs(z.imag) < 1e-6)
    return [x for i, x in enumerate(xs) if i == 0 or x - xs[i - 1] > 1e-6]


def lam3(c) -> float:
    """-gbar at the lower d-concavity band endpoint (linear in c)."""
    return BAND_LO * ((1.0 + math.sqrt(2.0) / 2.0) * c + 1.0)


def lam4(c) -> float:
    """-gbar at the upper d-concavity band endpoint (lam4 - lam3 = 2)."""
    return BAND_HI * ((1.0 - math.sqrt(2.0) / 2.0) * c + 1.0)


@dataclass(frozen=True)
class ScalarDiagnostics:
    """All closed-form scalar diagnostics for a given c.

    Fields that require c >= 4 (x1, x2, lam1, lam2, h1..h4, alpha, beta) are
    None when c < 4.
    """

    c: float
    dfrak: float
    cshift: float
    lam3: float
    lam4: float
    band_lo: float
    band_hi: float
    x1: float | None = None
    x2: float | None = None
    lam1: float | None = None
    lam2: float | None = None
    h1: float | None = None
    h2: float | None = None
    h3: float | None = None
    h4: float | None = None
    alpha: float | None = None
    beta: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def diagnostics(c) -> ScalarDiagnostics:
    """Evaluate every scalar diagnostic at a finite c > 0."""
    if not (math.isfinite(c) and c > 0.0):
        raise DomainError(f"diagnostics requires a finite c > 0, got c = {c}")
    base = dict(
        c=float(c),
        dfrak=dfrak(c),
        cshift=cshift(c),
        lam3=lam3(c),
        lam4=lam4(c),
        band_lo=BAND_LO,
        band_hi=BAND_HI,
    )
    if c < 4.0:
        return ScalarDiagnostics(**base)
    l1, l2 = lam1(c), lam2(c)
    return ScalarDiagnostics(
        **base,
        x1=x1(c),
        x2=x2(c),
        lam1=l1,
        lam2=l2,
        h1=l2 - l1,
        h2=cshift(c) - l1,
        h3=l2 - cshift(c),
        h4=lam4(c) - l1,
        alpha=(l1 + l2) / 2.0,
        beta=(l2 - l1) / 2.0,
    )
