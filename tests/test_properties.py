"""Property tests over random curves (Hypothesis)."""

from math import isfinite

from hypothesis import assume, given, settings, strategies as st

from ammix import CurveParams, Family, MixSpec, Parabolic, PowerLaw, Uniform, point_at, spot_rate
from ammix.analysis import _certified_convex
from ammix.errors import InvalidParameterError
from ammix.schedules import S_MAX, S_MIN

scale = st.floats(min_value=1e-2, max_value=1e2)
weight = st.floats(min_value=0.0, max_value=1.0)
curves = st.builds(CurveParams, a=scale, b=scale, x0=scale, y0=scale)
mixes = st.one_of(
    st.builds(MixSpec, st.sampled_from(Family), st.builds(Uniform, weight)),
    st.builds(MixSpec.scheduled, st.builds(PowerLaw, st.floats(min_value=0.1, max_value=8.0))),
    st.builds(MixSpec.scheduled, st.builds(Parabolic, bias=weight, center=weight)),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(params=curves, mix=mixes)
def test_spot_rate_finite_and_positive_at_ends_and_anchor(params, mix):
    """On every curve arbitrage_state accepts (scheduled ones certified convex)."""
    if not mix.is_uniform:
        try:
            assume(_certified_convex(params, mix))
        except InvalidParameterError:  # a parabola leaving [0, 1]
            assume(False)
    for state in (point_at(params, mix, S_MIN), point_at(params, mix, S_MAX), params.initial_state):
        rate = spot_rate(params, mix, state)
        assert isfinite(rate) and rate > 0.0, (state, rate)
