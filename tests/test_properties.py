"""Property tests of the signal layer (hypothesis, fixed seed, small budget)."""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from bistab import signals

SLACK = 1e-9
BUDGET = settings(max_examples=50, deadline=None, derandomize=True, database=None)

magnitudes = st.floats(1e-3, 1.0)
amplitudes = st.tuples(magnitudes, st.booleans()).map(lambda m: m[0] if m[1] else -m[0])
offsets = st.floats(-1.0, 1.0)
phases = st.floats(0.0, 2.0 * math.pi)

constants = st.builds(signals.Constant, offsets)


@st.composite
def trig_sums(draw):
    # commensurate (integer ratios) or incommensurate frequencies, optionally
    # flagged rationally independent, in which case the term-wise sums are the bounds
    base = draw(st.floats(0.5, 2.0))
    ratios = draw(st.sampled_from([(1.0, 2.0, 3.0, 4.0), (1.0, math.sqrt(2.0), math.sqrt(5.0))]))
    ks = draw(st.lists(st.sampled_from(ratios), min_size=1, max_size=3, unique=True))
    terms = tuple((draw(amplitudes), base * k, draw(phases)) for k in ks)
    return signals.TrigSum(draw(offsets), terms, draw(st.booleans()))


cesaro_sums = st.builds(
    signals.FourierCesaro,
    offsets,
    st.lists(amplitudes, max_size=3).map(tuple),
    st.lists(amplitudes, max_size=3).map(tuple),
    st.integers(2, 10),
)


@st.composite
def sampled(draw):
    period = draw(st.floats(0.5, 10.0))
    values = draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=16))
    n = len(values)
    return signals.SampledPeriodic(period, tuple(period * k / n for k in range(n)), tuple(values))


all_signals = st.one_of(constants, trig_sums(), cesaro_sums, sampled())


@BUDGET
@given(all_signals, st.floats(0.05, 20.0))
def test_weighted_extremes_lie_inside_the_range(y, dfrak):
    # the weighted average is a convex combination of values of y
    b = signals.bounds(y)
    w = signals.weighted_bounds(y, dfrak)
    assert b.inf - SLACK <= w.inf_w <= w.sup_w + SLACK
    assert w.sup_w <= b.sup + SLACK


@BUDGET
@given(all_signals)
def test_json_round_trip(y):
    assert signals.signal_from_json(json.loads(json.dumps(signals.signal_to_json(y)))) == y
