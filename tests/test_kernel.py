"""The right-hand-side kernel is bit-identical to its plain np.where form.

The references below are the straightforward expressions: both branches of
gbar on every entry, and every signal rebuilt from its spec on every call.
gbar's cubic branch is defined by products, -(1+2c)x - x*x*x, never by pow.
The package skips the cubic where x >= 0 and compiles the signal once; the
results must be the same floats (compared with ==), of the same type.
The map solve's kernel (``dynamics._augmented_kernel(spec)``, built per
solve from the float field) must give the floats of ``OdeSpec.rhs`` and
``rhs_state_deriv`` too, on the float path (few states) and on the array
path alike; a call takes one of them by its size alone.  A scan's right-hand
side is ``OdeSpec.rhs`` itself.  The comparison equations exist only in the
fold solve's float field (``dynamics._float_field``), whose x' and f' must
be the floats of the references and of ``model``'s closed forms.
"""

import math
import pickle

import numpy as np
import pytest
from comparison import comparison_deriv, comparison_rhs
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bistab import dynamics, model, signals

C = 5.0


def gbar_reference(c, x):
    x = np.asarray(x, dtype=float)
    out = np.where(x >= 0.0, -x - 2.0 * c * x / (1.0 + x * x), -(1.0 + 2.0 * c) * x - x * x * x)
    return out if out.ndim else float(out)


def mg_reference(c, z):
    z = np.asarray(z, dtype=float)
    out = gbar_reference(c, z + model.SQRT3) + model.cshift(c) - model.dfrak(c) * z
    return out if np.ndim(out) else float(out)


def mg_minus_reference(c, z):
    z = np.asarray(z, dtype=float)
    out = np.where(z >= 0.0, mg_reference(c, np.maximum(z, 0.0)), 0.0)
    return out if out.ndim else float(out)


def mg_plus_reference(c, z):
    z = np.asarray(z, dtype=float)
    out = np.where(z <= 0.0, mg_reference(c, np.minimum(z, 0.0)), 0.0)
    return out if out.ndim else float(out)


def signal_reference(signal, t):
    t = np.asarray(t, dtype=float)
    if isinstance(signal, signals.SampledPeriodic):
        ts = np.asarray(signal.times + (signal.times[0] + signal.period,))
        vs = np.asarray(signal.values + (signal.values[0],))
        out = np.interp(np.mod(t, signal.period), ts, vs, period=signal.period)
        return out if out.ndim else float(out)
    if isinstance(signal, signals.Constant):
        a0, terms = signal.a0, ()
    elif isinstance(signal, signals.TrigSum):
        a0, terms = signal.a0, signal.terms
    else:  # FourierCesaro: the Cesaro-weighted cosine terms, rebuilt by hand
        a0, terms = signal.a0, []
        for n in range(1, signal.n_terms):
            w = (signal.n_terms - n) / signal.n_terms
            a = signal.a_coeffs[n - 1] if n <= len(signal.a_coeffs) else 0.0
            b = signal.b_coeffs[n - 1] if n <= len(signal.b_coeffs) else 0.0
            if a:
                terms.append((w * a, float(n), 0.0))
            if b:
                terms.append((w * b, float(n), -math.pi / 2.0))
    out = np.full(t.shape, a0)
    for a, th, ph in terms:
        out = out + a * np.cos(th * t + ph)
    return out if out.ndim else float(out)


def rhs_reference(kind, lam, signal, t, x):
    """x' of the full equation (kind "full") or of a comparison equation."""
    drive = lam + signal_reference(signal, t)
    if kind == "full":
        return drive + gbar_reference(C, x)
    halved = mg_minus_reference if kind == "concave-linear" else mg_plus_reference
    return drive - model.cshift(C) + model.dfrak(C) * x + halved(C, x)


def fold_field(kind, lam, signal):
    """The comparison equation ``kind`` as the fold solve evaluates it:
    field(t, x) is (x', f') of every state of x from the float field
    (``dynamics._float_field``) under the drive lam + y(float(t)), with t
    one time or one per state, each shaped like x (a float for a 0-d x)."""
    pair, _ = dynamics._float_field(C, kind)
    signal_at = signals.compile_signal(signal)

    def field(t, x):
        x = np.asarray(x, dtype=float)
        ts = np.broadcast_to(np.asarray(t, dtype=float), x.shape)
        values = [pair(lam + signal_at(u), v) for u, v in zip(ts.ravel().tolist(), x.ravel().tolist())]
        if x.ndim == 0:
            return values[0]
        return tuple(np.array(column).reshape(x.shape) for column in zip(*values))

    return field


KINDS = ["full", "concave-linear", "linear-convex"]


def same(got, want) -> bool:
    return type(got) is type(want) and np.shape(got) == np.shape(want) and np.all(got == want)


RNG = np.random.default_rng(20260418)
MIXED = RNG.uniform(-4.0, 6.0, 2048)  # crosses 0 and -sqrt(3), the branch points
NONNEG = RNG.uniform(0.0, 6.0, 2048)
STATES = [
    ("mixed", MIXED),
    ("nonnegative", NONNEG),
    ("tiny-mixed", np.array([-0.0, 0.0, -1e-300, 1e-300, -model.SQRT3, model.SQRT3])),
    ("float-neg", -0.731),
    ("float-pos", 2.25),
    ("float-zero", 0.0),
    ("0d-neg", np.asarray(-2.5)),
    ("0d-pos", np.asarray(1.125)),
]
# scalar libm pow and numpy's array pow can disagree in the last bit; the
# scalar checks include the inputs where they do on this platform, so a pow
# in any form of the cubic shows
_CANDIDATES = RNG.uniform(-4.0, 0.0, 100_000)
_POW_DIFFERS = _CANDIDATES[_CANDIDATES ** 3 != np.array([float(v) ** 3 for v in _CANDIDATES])]
SCALARS = np.concatenate([RNG.uniform(-4.0, 6.0, 200), _POW_DIFFERS[:200]])
SIGNALS = [
    ("constant", signals.Constant(0.03)),
    ("trig", signals.TrigSum(0.01, ((0.03, 1.0, 0.4), (-0.02, 2.0, 1.1)))),
    ("cesaro", signals.FourierCesaro(0.005, (0.02, -0.01, 0.004), (0.015,), 6)),
    ("sampled", signals.SampledPeriodic(
        5.0, tuple(np.linspace(0.0, 5.0, 16, endpoint=False)), tuple(RNG.uniform(-0.05, 0.05, 16)))),
]


@pytest.mark.parametrize("name,x", STATES, ids=[s[0] for s in STATES])
def test_gbar_eval_bit_identical(name, x):
    for c in (0.5, C, 8.0):
        assert same(model.gbar_eval(c, x), gbar_reference(c, x))


def test_scalar_kernel_bit_identical():
    for v in SCALARS:
        for x in (float(v), np.asarray(v)):
            assert same(model.gbar_eval(C, x), gbar_reference(C, x))
            assert same(model.mg_minus(C, x), mg_minus_reference(C, x))
            assert same(model.mg_plus(C, x), mg_plus_reference(C, x))


@pytest.mark.parametrize("name,z", STATES, ids=[s[0] for s in STATES])
def test_mg_halves_bit_identical(name, z):
    for c in (C, 8.0):
        assert same(model.mg_minus(c, z), mg_minus_reference(c, z))
        assert same(model.mg_plus(c, z), mg_plus_reference(c, z))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name,signal", SIGNALS, ids=[s[0] for s in SIGNALS])
def test_rhs_bit_identical(kind, name, signal):
    # the full equation's OdeSpec.rhs, or a comparison equation's x' as the
    # fold solve's float field gives it (Python floats, compared as arrays)
    if kind == "full":
        rhs = dynamics.OdeSpec(C, 6.0, signal).rhs

        def reference(t, x):
            return rhs_reference(kind, 6.0, signal, t, x)

    else:
        field = fold_field(kind, 6.0, signal)

        def rhs(t, x):
            return np.atleast_1d(field(t, x)[0])

        def reference(t, x):
            return np.atleast_1d(rhs_reference(kind, 6.0, signal, t, x))

    for _, x in STATES:
        for t in (0.0, 0.3, 17.2, np.float64(3.3), np.asarray(2.7), 4):
            assert same(rhs(t, x), reference(t, x))
    # array-valued t, one time per state
    ts = np.linspace(-3.0, 40.0, MIXED.size)
    assert same(rhs(ts, MIXED), reference(ts, MIXED))
    assert same(rhs(ts[:1], np.asarray([0.5])), reference(ts[:1], np.asarray([0.5])))


@pytest.mark.parametrize("name,signal", SIGNALS, ids=[s[0] for s in SIGNALS])
def test_signal_eval_bit_identical(name, signal):
    for t in (0.0, -1.5, 0.3, 1e4, np.float64(3.3), np.asarray(2.7), 4, np.linspace(-10.0, 10.0, 513)):
        assert same(signals.eval(signal, t), signal_reference(signal, t))


# the augmented kernel: every entry the float of OdeSpec.rhs and rhs_state_deriv,
# on the float path (few states) and the array path, on both branches of gbar
KERNEL_STATES = STATES + [
    ("scalars", SCALARS),
    *[(f"scalars-{i}", chunk) for i, chunk in enumerate(np.array_split(SCALARS, 40))],
    ("below-root3", np.array([-1.9, -model.SQRT3 - 1e-15, -3.0])),
    ("one-neg", np.array([0.4, 2.0, -0.2, 3.1])),
]


def kernel_pair(spec, t, x):
    """(x', integrand) of the states x from the augmented kernel, its x' the
    solver's plain right-hand side, ``OdeSpec.rhs``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    augmented = dynamics._augmented_kernel(spec)(t, np.concatenate([x, np.zeros(x.size)]))
    assert same(augmented[: x.size], np.atleast_1d(spec.rhs(t, x)))
    return augmented[: x.size], augmented[x.size:]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name,signal", SIGNALS, ids=[s[0] for s in SIGNALS])
def test_kernel_bit_identical_to_rhs(kind, name, signal):
    # the full equation's map-solve kernel against OdeSpec.rhs and
    # rhs_state_deriv; a comparison equation's fold field against model's
    # closed forms, drive - cshift + dfrak x + mg_minus(c, x) (or mg_plus)
    # and dfrak + mg_minus_deriv(c, x) (or mg_plus_deriv)
    if kind == "full":
        spec = dynamics.OdeSpec(C, 6.0, signal)
        rhs, deriv = spec.rhs, spec.rhs_state_deriv
    else:
        fold = fold_field(kind, 6.0, signal)
        rhs, deriv = comparison_rhs(C, 6.0, signal, kind), comparison_deriv(C, kind)
    for _, x in KERNEL_STATES:
        for t in (0.0, 17.2, np.float64(3.3)):
            pair = kernel_pair(spec, t, x) if kind == "full" else fold(t, np.atleast_1d(x))
            assert same(pair[0], np.atleast_1d(rhs(t, x)))
            assert same(pair[1], np.atleast_1d(deriv(x)))


def test_few_states_never_reach_rhs(monkeypatch):
    # states below 0 (the cubic of gbar), the pow-sensitive ones among them:
    # the augmented kernel's float path evaluates them itself
    spec = dynamics.OdeSpec(C, 6.0, SIGNALS[1][1])
    cases = [
        np.array([-0.731]),
        np.array([-1.9, -model.SQRT3 - 1e-15, -3.0, 0.4, 2.0]),
        _POW_DIFFERS[: dynamics._FLOAT_STATES],
    ]
    want = [(np.atleast_1d(spec.rhs(0.3, x)), np.atleast_1d(spec.rhs_state_deriv(x))) for x in cases]
    kernel = dynamics._augmented_kernel(spec)

    def refuse(*args):
        raise AssertionError("a few-state kernel call reached OdeSpec.rhs")

    monkeypatch.setattr(dynamics.OdeSpec, "rhs", refuse)
    monkeypatch.setattr(dynamics.OdeSpec, "rhs_state_deriv", refuse)
    for x, (value, integrand) in zip(cases, want):
        got = kernel(0.3, np.concatenate([x, np.zeros(x.size)]))
        assert same(got[: x.size], value) and same(got[x.size :], integrand)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    t=st.floats(-20.0, 20.0),
    xs=st.lists(st.floats(-6.0, 8.0), min_size=1, max_size=64),
)
def test_float_and_array_paths_agree(t, xs):
    spec = dynamics.OdeSpec(C, 6.0, SIGNALS[1][1])
    x = np.array(xs)
    # each state alone takes the float path, the states repeated past the
    # crossover the array path
    tiled = kernel_pair(spec, t, np.tile(x, dynamics._FLOAT_STATES // x.size + 1))
    whole = kernel_pair(spec, t, x)
    for i in range(x.size):
        alone = kernel_pair(spec, t, x[i])
        for k in range(2):
            assert alone[k][0] == whole[k][i] == tiled[k][i]


def test_spec_pickles_with_its_kernels():
    # an OdeSpec stores no closure, so pickle needs no __reduce__ of its own:
    # the copy is equal, its compiled signal gives the same floats, and the
    # kernel a solve builds from it is the original's, on both paths
    assert "__reduce__" not in vars(dynamics.OdeSpec)
    ts = np.linspace(-7.0, 23.0, 301)
    for signal in (SIGNALS[2][1], SIGNALS[3][1]):
        spec = dynamics.OdeSpec(C, 6.0, signal)
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec and type(copy._signal_at) is type(spec._signal_at)
        assert same(copy._signal_at(ts), spec._signal_at(ts))
        assert all(copy._signal_at(t) == spec._signal_at(t) for t in ts.tolist())
        for x in (MIXED, MIXED[:5]):
            for got, want in zip(kernel_pair(copy, 0.3, x), kernel_pair(spec, 0.3, x)):
                assert same(got, want)


@st.composite
def sampled_signals(draw):
    """A SampledPeriodic on 4 to 40 nodes: strictly increasing times in
    [0, period), the first at 0 or not."""
    period = draw(st.floats(0.05, 100.0))
    fractions = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=4, max_size=40, unique=True))
    times = sorted({u * period for u in fractions})
    if draw(st.booleans()):
        times[0] = 0.0
    assume(len(times) >= 4 and times[-1] < period)
    values = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(times), max_size=len(times)))
    return signals.SampledPeriodic(period, tuple(times), tuple(values))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(signal=sampled_signals(), t=st.floats(-1e3, 1e3), k=st.integers(-6, 6))
def test_sampled_float_path_is_np_interp(signal, t, k):
    # a Python-float t takes the bisection; every other scalar form takes
    # np.interp, and all give the reference float, as a Python float
    y, T = signals.compile_signal(signal), signal.period
    ts = np.asarray(signal.times + (signal.times[0] + T,))
    vs = np.asarray(signal.values + (signal.values[0],))
    nodes = list(signal.times)
    # a tiny negative t has t % T == T, which np.interp reduces once more to 0
    tiny = [-5e-324, -1e-300, -1e-17 * T]
    for u in [t, -t, -0.0, 0.0, *tiny, k * T, -k * T, *nodes, *(v + k * T for v in nodes), *(v - T for v in nodes)]:
        want = np.interp(np.mod(u, T), ts, vs, period=T)
        for form in (u, np.float64(u), np.asarray(u)):
            got = y(form)
            assert type(got) is float and got == want
