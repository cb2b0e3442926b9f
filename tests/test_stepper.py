"""The module's RK45 loop, ``dynamics.solve_ivp``, against scipy's RK45.

``_solve`` (augmented), and the loop on ``OdeSpec.rhs`` alone (plain, as
the finite-difference oracle runs it), must give the times and states of
``scipy.integrate.solve_ivp(method="RK45")`` bit for bit (compared with
==), with the same number of right-hand-side calls, on random smooth
inputs, lambdas, states, directions and ``t_eval`` forms.  The states lie between the outer periodic orbits, so no solve
escapes either way.

Precondition: scipy 1.10, the oldest scipy that ``pyproject.toml`` accepts,
does not clip the initial-step rule's first trial step h0 = 0.01 d0/d1 to
the span, as later releases and the loop do.  Where h0 exceeds the span
(slow states on a short span) the two first steps differ, so such draws are
left out here, on every scipy version.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from bistab import dynamics, model, signals

C = 5.0
BUDGET = settings(max_examples=80, deadline=None, derandomize=True, database=None)

amplitudes = st.floats(-0.01, 0.01)
trig_sums = st.builds(
    signals.TrigSum,
    st.floats(-0.01, 0.01),
    st.lists(st.tuples(amplitudes, st.floats(0.5, 4.0), st.floats(0.0, 2.0 * math.pi)), min_size=1, max_size=3).map(
        tuple
    ),
)
cesaro_sums = st.builds(
    signals.FourierCesaro,
    st.floats(-0.01, 0.01),
    st.lists(amplitudes, min_size=1, max_size=3).map(tuple),
    st.lists(amplitudes, max_size=3).map(tuple),
    st.integers(2, 6),
)


def first_step_inside_span(fun, t0, y, t1):
    """Whether the initial-step rule's first trial step lies inside the span
    unclipped (the precondition above)."""
    scale = dynamics.ABSTOL + np.abs(y) * dynamics.RELTOL
    d0, d1 = dynamics._norm(y / scale), dynamics._norm(fun(t0, y) / scale)
    return d0 < 1e-5 or d1 < 1e-5 or 0.01 * d0 / d1 <= abs(t1 - t0)


@BUDGET
@given(
    signal=st.one_of(trig_sums, cesaro_sums),
    window=st.floats(0.25, 0.75),
    xs=st.lists(st.floats(1.3, 2.7), min_size=1, max_size=40),
    t0=st.floats(0.0, 3.0),
    length=st.floats(0.5, 8.0),
    backward=st.booleans(),
    augmented=st.booleans(),
    t_eval_form=st.sampled_from(("steps", "end", "grid")),
    n_eval=st.integers(2, 9),
)
def test_solve_is_scipy_rk45_bit_for_bit(signal, window, xs, t0, length, backward, augmented, t_eval_form, n_eval):
    # lambda inside the saddle-node window and a forcing of at most 0.06:
    # every state lies between the outer orbits, bounded both ways
    lam = model.lam1(C) + window * (model.lam2(C) - model.lam1(C))
    spec = dynamics.OdeSpec(C, lam, signal)
    t0, t1 = (t0 + length, t0) if backward else (t0, t0 + length)
    x0 = np.array(xs)
    y0 = np.concatenate([x0, np.zeros(x0.size)]) if augmented else x0
    fun = dynamics._augmented_kernel(spec) if augmented else spec.rhs
    assume(first_step_inside_span(fun, t0, y0, t1))
    t_eval = {"steps": None, "end": [t1], "grid": np.linspace(t0, t1, n_eval)}[t_eval_form]
    want = solve_ivp(
        fun,
        (t0, t1),
        y0,
        method="RK45",
        atol=dynamics.ABSTOL,
        rtol=dynamics.RELTOL,
        t_eval=t_eval,
    )
    assert want.status == 0
    runs = []

    def counted(*args, **kwargs):
        runs.append(loop(*args, **kwargs))
        return runs[-1]

    loop = dynamics.solve_ivp
    with mock.patch.object(dynamics, "solve_ivp", counted):
        if augmented:
            ts, ys = dynamics._solve(spec, t0, x0, t1, t_eval)
        else:
            nodes = spec._signal_at.kinks(t0, t1)
            ts, ys, _ = dynamics.solve_ivp(
                spec.rhs, t0, x0, t1, dynamics.ABSTOL, dynamics.RELTOL, t_eval=t_eval, nodes=nodes, states=x0.size
            )
    assert len(runs) == 1 and runs[0].nfev == want.nfev
    assert ts.shape == want.t.shape and np.array_equal(ts, want.t)
    assert ys.shape == want.y.shape and np.array_equal(ys, want.y)


def singular(t, y):
    """y' = -1/|1 - t|: y = log(1 - t) falls without bound as t -> 1 (the
    floor 1e-300 only keeps a stage landing on t = 1 finite)."""
    return np.full(y.shape, -1.0 / max(abs(1.0 - t), 1e-300))


@pytest.mark.parametrize("t0,t1", [(0.0, 2.0), (2.0, 0.0)], ids=["forward", "backward"])
def test_collapsing_step_raises(t0, t1):
    # the steps shrink toward t = 1 until one is below the spacing of the
    # floats there, at the step end where scipy's RK45 fails too; the loop
    # reads a collapsing step as an escape
    y0 = np.array([0.0, 1.0])
    want = solve_ivp(singular, (t0, t1), y0, method="RK45", atol=1e-10, rtol=1e-8)
    assert want.status == -1 and abs(want.t[-1] - 1.0) < 1e-12
    with pytest.raises(dynamics.FiniteEscapeError, match=r"^integration failed: .* at t = \S+$") as failed:
        dynamics.solve_ivp(singular, t0, y0, t1, 1e-10, 1e-8, t_eval=[t1], nodes=(), states=2)
    assert float(str(failed.value).rsplit(" ", 1)[1]) == want.t[-1]


@pytest.mark.parametrize("t0,t1", [(0.0, 1.0), (1.0, 0.0)], ids=["forward", "backward"])
def test_first_step_probe_inside_the_span(t0, t1):
    # slow states put the initial-step rule's unclipped first trial step at
    # h0 = 0.01 d0/d1 = 10, ten spans beyond t0; the loop clips it to the
    # span, so the right-hand side is never called outside it
    called = []

    def slow(t, y):
        called.append(t)
        return 1e-3 * y

    dynamics.solve_ivp(slow, t0, np.array([1.0, 2.0]), t1, 1e-10, 1e-8, t_eval=[t1], nodes=(), states=2)
    assert 0.0 <= min(called) and max(called) <= 1.0
